//! `cold-cli`: one fresh `implicitc <file>` process per program, one
//! at a time, with the defaults (tree backend, `--semantics both`).
//!
//! This is the path with no warm state: the source front end,
//! uncached resolution and the operational semantics dominate, and
//! the VM, artifact and service layers never run.

use std::cell::RefCell;
use std::path::Path;
use std::process::Command;
use std::rc::Rc;
use std::time::{Duration, Instant};

use implicit_core::resolve::ResolutionPolicy;
use implicit_core::syntax::{Declarations, Expr};
use implicit_core::trace::{MetricsSink, SharedSink};
use implicit_core::typeck::Typechecker;

use super::{end_to_end, layer_metrics, ratio, Ctx, Layers, Replayed, Timed};
use crate::corpus::{self, Program};
use crate::proc;
use crate::results::Report;
use crate::spans::Tracer;
use crate::stats::median;

/// Programs in the corpus; a run cycles through them in order.
const CORPUS: usize = 300;
const TIMEOUT: Duration = Duration::from_secs(20);

fn run_one(ctx: &Ctx, dir: &Path, p: &Program) -> (Option<f64>, Result<(), String>) {
    match proc::run(Command::new(&ctx.implicitc).arg(dir.join(&p.name)), TIMEOUT) {
        Err(e) => (None, Err(e)),
        Ok(f) => {
            let got = f.stdout.trim_end();
            let outcome = if f.success && got == p.expected {
                Ok(())
            } else {
                Err(format!(
                    "{}: expected `{}`, got `{got}` ({})",
                    p.name,
                    p.expected,
                    f.stderr.trim()
                ))
            };
            (Some(f.elapsed.as_secs_f64() * 1e3), outcome)
        }
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx, report: &mut Report, layers: &mut Layers) -> Result<(), String> {
    let dir = ctx.work.join("cold-cli");
    let mut make = |_| {
        let programs = corpus::cold_cli(ctx.seed, CORPUS);
        corpus::write_dir(&dir, None, &programs).map_err(|e| e.to_string())?;
        // One process start outside the measured loop, so the binary is
        // in the page cache before the first measured one. The shortest
        // program, so this costs the same for every seed (the first
        // program can be anything from 2 to 30 ms).
        let shortest = programs
            .iter()
            .min_by_key(|p| p.source.len())
            .expect("a non-empty corpus");
        run_one(ctx, &dir, shortest).1?;
        Ok(programs)
    };
    let (mut setups, programs) = ctx.setup(&mut make)?;

    let mut timed = Timed::default();
    let start = Instant::now();
    let deadline = start + ctx.e2e_budget();
    // `ran[s]` is the program behind latency sample `s`.
    let mut ran: Vec<usize> = Vec::new();
    for i in (0..programs.len()).cycle() {
        if Instant::now() >= deadline {
            break;
        }
        let (ms, outcome) = run_one(ctx, &dir, &programs[i]);
        report.check(outcome);
        if let Some(ms) = ms {
            timed.latencies_ms.push(ms);
            ran.push(i);
        }
    }
    timed.elapsed_s = start.elapsed().as_secs_f64();
    timed.work = timed.latencies_ms.len() as f64;
    if !ctx.trace {
        setups.extend(ctx.setup_after(&mut make)?);
        end_to_end(
            report,
            &setups,
            std::slice::from_ref(&timed),
            proc::children_peak_rss_mb(),
        );
        return Ok(());
    }

    // Traced: replay the programs the processes ran, in process.
    let counts = Rc::new(RefCell::new(MetricsSink::new()));
    let mut fuel: Vec<f64> = Vec::new();
    let (mut memo_hits, mut memo_misses) = (0, 0);
    let mut source_bytes = 0usize;
    let mut replayed = Replayed::default();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    let units = ran
        .iter()
        .enumerate()
        .map(|(s, &i)| (s as u64, &programs[i]));
    replayed.run(ctx, report, deadline, units, |p, on| {
        let sink = on.then(|| SharedSink::from_rc(counts.clone()));
        let out = replay(&ctx.tracer, p, sink)?;
        if on {
            fuel.push(out.fuel as f64);
            memo_hits += out.memo.0;
            memo_misses += out.memo.1;
            if p.name.ends_with(".si") {
                source_bytes += p.source.len();
            }
        }
        if out.line == p.expected {
            Ok(())
        } else {
            Err(format!("{}: replay printed `{}`", p.name, out.line))
        }
    });

    let times = layer_metrics(ctx, &replayed, layers);
    let source_s = times.total_self_ns("source") as f64 * 1e-9;
    if source_s > 0.0 {
        layers.insert("source.bytes_per_s", source_bytes as f64 / source_s);
    }
    let m = counts.borrow().metrics;
    let on_units = fuel.len().max(1) as f64;
    layers.insert("systemf.eval.fuel", median(&fuel));
    layers.insert("opsem.memo_hit_ratio", ratio(memo_hits, memo_misses));
    layers.insert(
        "core.resolve.admitted_ratio",
        ratio(m.candidates_admitted, m.candidates_rejected),
    );
    layers.insert("core.resolve.queries", m.queries as f64 / on_units);
    layers.insert("process.self_ms", replayed.outside_ms(&timed.latencies_ms));
    Ok(())
}

/// What one in-process replay of `implicitc <file>` produced.
struct Replay {
    line: String,
    fuel: u64,
    memo: (u64, u64),
}

/// The in-process mirror of `implicitc <file>` with the defaults: the
/// same calls in the same order, each under its layer's span. With a
/// `sink`, resolution events are counted too.
fn replay(t: &Tracer, p: &Program, sink: Option<SharedSink>) -> Result<Replay, String> {
    let policy = ResolutionPolicy::paper();
    let (decls, core): (Declarations, Expr) = if p.name.ends_with(".si") {
        let c = t.span("source", || {
            implicit_source::compile(&p.source).map_err(|e| e.to_string())
        })?;
        (c.decls, c.core)
    } else {
        t.span("core.parse", || {
            implicit_core::parse::parse_program(&p.source)
        })
        .map_err(|e| e.to_string())?
    };
    let mut checker = Typechecker::with_policy(&decls, policy.clone());
    if let Some(s) = &sink {
        checker = checker.with_trace(s.clone());
    }
    let ty = t.span("core.typeck", || {
        checker.check_closed(&core).map_err(|e| e.to_string())
    })?;
    let mut elab = implicit_elab::Elaborator::with_policy(&decls, policy.clone());
    elab.set_trace(sink.clone());
    let (target, fdecls) = t.span("elab", || {
        elab.elaborate(&core)
            .map(|(_, target)| (target, implicit_elab::translate_decls(&decls)))
            .map_err(|e| e.to_string())
    })?;
    t.span("systemf.typeck", || systemf::typecheck(&fdecls, &target))
        .map_err(|e| format!("type preservation violated: {e}"))?;
    let mut ev = systemf::Evaluator::new();
    let value = t
        .span("systemf.eval", || ev.eval(&target))
        .map_err(|e| e.to_string())?
        .to_string();
    let mut interp = implicit_opsem::Interpreter::new(&decls).with_policy(policy);
    interp.set_trace(sink);
    let opsem = t
        .span("opsem", || interp.eval(&core))
        .map_err(|e| e.to_string())?
        .to_string();
    if value != opsem {
        return Err(format!(
            "semantics disagree: elaboration {value} vs opsem {opsem}"
        ));
    }
    Ok(Replay {
        line: format!("{value} : {ty}"),
        fuel: ev.fuel_used(),
        memo: interp.memo_counters(),
    })
}
