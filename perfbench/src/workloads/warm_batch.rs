//! `warm-batch`: repeated `implicitc --batch <dir> --backend vm
//! --semantics elab --jobs 2` over the chain-48 prelude.
//!
//! The prelude is built once per worker, so compile, the VM and the
//! derivation cache do the work. `--semantics elab` because under the
//! default `both` the warm session's opsem leg can abort on allocation
//! (see the README's reproducer).

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use implicit_core::resolve::ResolutionPolicy;
use implicit_core::trace::MetricsRegistry;
use implicit_pipeline::{Backend, Prelude, Session};

use super::{batch_line, end_to_end, layer_metrics, ratio, Ctx, Layers, Replayed, Timed};
use crate::corpus::{self, Program};
use crate::proc;
use crate::results::Report;
use crate::spans::Tracer;
use crate::stats::median;

/// Programs per invocation: a third chain queries, a third loops, a
/// third generated programs. Sized so a run collects well over the
/// hundred invocations its 90th percentile needs.
const PROGRAMS: usize = 120;
const JOBS: usize = 2;
const TIMEOUT: Duration = Duration::from_secs(60);

fn invoke(ctx: &Ctx, dir: &Path, programs: &[Program], report: &mut Report) -> Option<f64> {
    let mut cmd = Command::new(&ctx.implicitc);
    cmd.arg("--batch")
        .arg(dir)
        .args(["--backend", "vm", "--semantics", "elab", "--jobs"])
        .arg(JOBS.to_string());
    match proc::run(&mut cmd, TIMEOUT) {
        Err(e) => {
            report.check(Err(e));
            None
        }
        Ok(f) => {
            for p in programs {
                report.check(batch_line(&f.stdout, &p.name, &p.expected));
            }
            let summary = format!("batch: {} programs, 0 failed (jobs={JOBS})", programs.len());
            report.check(if f.success && f.stdout.contains(&summary) {
                Ok(())
            } else {
                Err(format!("batch failed: {}", f.stderr.trim()))
            });
            Some(f.elapsed.as_secs_f64() * 1e3)
        }
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx, report: &mut Report, layers: &mut Layers) -> Result<(), String> {
    let dir = ctx.work.join("warm-batch");
    let mut make = |_| {
        let (prelude, programs) = corpus::warm_batch(ctx.seed, PROGRAMS);
        corpus::write_dir(&dir, Some(&prelude), &programs).map_err(|e| e.to_string())?;
        let mut warmup = Report::default();
        invoke(ctx, &dir, &programs, &mut warmup);
        match warmup.failures.first() {
            Some(e) => Err(format!("warm-up invocation failed: {e}")),
            None => Ok((prelude, programs)),
        }
    };
    let (mut setups, (prelude, programs)) = ctx.setup(&mut make)?;

    let start = Instant::now();
    if !ctx.trace {
        let mut timed = Timed::default();
        let deadline = start + ctx.e2e_budget();
        while Instant::now() < deadline {
            if let Some(ms) = invoke(ctx, &dir, &programs, report) {
                timed.latencies_ms.push(ms);
            }
        }
        timed.elapsed_s = start.elapsed().as_secs_f64();
        timed.work = (timed.latencies_ms.len() * programs.len()) as f64;
        setups.extend(ctx.setup_after(&mut make)?);
        end_to_end(
            report,
            &setups,
            std::slice::from_ref(&timed),
            proc::children_peak_rss_mb(),
        );
        return Ok(());
    }

    // Traced: the CLI's two workers run in parallel, the replay's one
    // after the other, so there is no per-invocation process share to
    // pair up; the whole run replays.
    let mut metrics = MetricsRegistry::new();
    let mut fuel = Vec::new();
    let mut replayed = Replayed::default();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    let units = (0..).map(|id| (id, ()));
    replayed.run(ctx, report, deadline, units, |_, on| {
        let m = replay(&ctx.tracer, on, &prelude, &programs)?;
        if on {
            fuel.push(m.vm_fuel as f64);
            metrics.merge(&m);
        }
        Ok(())
    });
    layer_metrics(ctx, &replayed, layers);
    session_counters(&metrics, layers);
    layers.insert("systemf.vm.fuel", median(&fuel));
    Ok(())
}

/// The cache and VM counters a warm session keeps.
pub fn session_counters(m: &MetricsRegistry, layers: &mut Layers) {
    layers.insert(
        "core.resolve.cache_hit_ratio",
        ratio(m.cache_hits, m.cache_misses),
    );
    layers.insert(
        "systemf.compile.fused_ratio",
        ratio(
            m.instrs_fused,
            m.instrs_scanned.saturating_sub(m.instrs_fused),
        ),
    );
    layers.insert(
        "systemf.vm.match_ic_hit_ratio",
        ratio(m.vm_match_ic_hits, m.vm_match_ic_misses),
    );
}

/// Parses batch-prelude source the way `implicitc --batch` does: the
/// text, then the `let`/`implicit` wrappers into a [`Prelude`].
pub fn parse_prelude(
    t: &Tracer,
    src: &str,
) -> Result<(implicit_core::syntax::Declarations, Prelude), String> {
    t.span("core.parse", || {
        let (decls, expr) =
            implicit_core::parse::parse_program(src).map_err(|e| format!("prelude: {e}"))?;
        Ok((decls, Prelude::from_wrapped(&expr)?))
    })
}

/// Runs `programs` on a warm session the way a batch worker does:
/// parse each file, run it on the VM, compare its line. The session's
/// phase events become spans while the recorder is on.
pub fn run_programs(
    t: &Tracer,
    on: bool,
    session: &mut Session<'_>,
    programs: &[&Program],
    expected: impl Fn(&Program) -> String,
) -> Result<(), String> {
    session.set_trace(on.then(|| t.sink()));
    let result = programs.iter().try_for_each(|p| {
        let (_, e) = t
            .span("core.parse", || {
                implicit_core::parse::parse_program(&p.source)
            })
            .map_err(|e| format!("{}: {e}", p.name))?;
        let out = session
            .run_with_backend(&e, Backend::Vm)
            .map_err(|e| format!("{}: {e}", p.name))?;
        let line = format!("{} : {}", out.value, out.source_type);
        let want = expected(p);
        if line == want {
            Ok(())
        } else {
            Err(format!(
                "{}: expected `{want}`, replay printed `{line}`",
                p.name
            ))
        }
    });
    session.set_trace(None);
    result
}

/// The in-process mirror of one `--batch --jobs 2` invocation: the
/// CLI validates the prelude with one session on its main thread, then
/// each worker parses the prelude again and builds its own. Workers
/// run one after the other here (two live sessions must not share a
/// thread), each taking every other program.
fn replay(
    t: &Tracer,
    on: bool,
    prelude_src: &str,
    programs: &[Program],
) -> Result<MetricsRegistry, String> {
    let policy = ResolutionPolicy::paper();
    {
        let (decls, prelude) = parse_prelude(t, prelude_src)?;
        t.span("pipeline.session.build", || {
            Session::new(&decls, policy.clone(), &prelude)
                .map(drop)
                .map_err(|e| format!("prelude: {e}"))
        })?;
    }
    let mut metrics = MetricsRegistry::new();
    for w in 0..JOBS {
        let (decls, prelude) = parse_prelude(t, prelude_src)?;
        let mut session = t.span("pipeline.session.build", || {
            Session::new_configured_isa(
                &decls,
                policy.clone(),
                &prelude,
                true,
                false,
                systemf::Isa::Register,
            )
            .map_err(|e| format!("prelude: {e}"))
        })?;
        let mine: Vec<&Program> = programs.iter().skip(w).step_by(JOBS).collect();
        run_programs(t, on, &mut session, &mine, |p| p.expected.clone())?;
        metrics.merge(&session.metrics());
    }
    Ok(metrics)
}
