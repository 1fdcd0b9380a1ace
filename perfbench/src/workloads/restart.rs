//! `restart` and `restart-edit`: repeated `implicitc --batch <dir>
//! --backend vm --semantics elab --cache-dir <store>` over eight
//! programs, with `prelude.imp` = `let base : Int = k in <chain-48>`
//! and the store primed during set-up.
//!
//! `restart` is the read path: every invocation must report
//! `cache: exact=1`. `restart-edit` is the write path: every
//! invocation first bumps `k`, which must give `incremental=1` (a
//! rebuild of the edited binding's cone, then a save).

use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

use implicit_core::resolve::ResolutionPolicy;
use implicit_core::trace::MetricsRegistry;
use implicit_pipeline::artifact::{self, artifact_key, config_key, ArtifactStore};
use implicit_pipeline::Session;

use super::warm_batch::{parse_prelude, run_programs, session_counters};
use super::{end_to_end, layer_metrics, Ctx, Layers, Replayed, Timed};
use crate::corpus::{self, restart_prelude, restart_programs};
use crate::proc;
use crate::results::Report;
use crate::spans::Tracer;
use crate::stats::median;

const TIMEOUT: Duration = Duration::from_secs(60);

/// The `cache:` outcome an invocation must report.
#[derive(Clone, Copy)]
enum Expect {
    Cold,
    Exact,
    Incremental,
}

impl Expect {
    fn counts(self) -> &'static str {
        match self {
            Expect::Cold => "exact=0 incremental=0 cold=1",
            Expect::Exact => "exact=1 incremental=0 cold=0",
            Expect::Incremental => "exact=0 incremental=1 cold=0",
        }
    }
}

/// The batch directory and artifact store of one set-up.
struct Inputs {
    dir: PathBuf,
    store: PathBuf,
    seed: u64,
}

impl Inputs {
    fn write_prelude(&self, k: i64) -> Result<(), String> {
        std::fs::write(self.dir.join("prelude.imp"), restart_prelude(k)).map_err(|e| e.to_string())
    }

    /// One invocation; checks every program line and the `cache:`
    /// line. Returns the latency and the reported fallback count.
    fn invoke(&self, ctx: &Ctx, k: i64, expect: Expect, report: &mut Report) -> Option<(f64, u64)> {
        let mut cmd = Command::new(&ctx.implicitc);
        cmd.arg("--batch")
            .arg(&self.dir)
            .args(["--backend", "vm", "--semantics", "elab", "--cache-dir"])
            .arg(&self.store);
        let f = match proc::run(&mut cmd, TIMEOUT) {
            Ok(f) => f,
            Err(e) => {
                report.check(Err(e));
                return None;
            }
        };
        for p in restart_programs(self.seed, k) {
            report.check(super::batch_line(&f.stdout, &p.name, &p.expected));
        }
        let want = format!("cache: {}, fallbacks=", expect.counts());
        let fallbacks = f
            .stdout
            .lines()
            .find_map(|l| l.strip_prefix(&want))
            .and_then(|n| n.parse::<u64>().ok());
        report.check(match fallbacks {
            Some(0) if f.success => Ok(()),
            _ => Err(format!(
                "expected `{want}0`, got {:?} ({})",
                f.stdout.lines().find(|l| l.starts_with("cache:")),
                f.stderr.trim()
            )),
        });
        Some((f.elapsed.as_secs_f64() * 1e3, fallbacks.unwrap_or(1)))
    }
}

/// Runs `restart` (`edit == false`) or `restart-edit`.
pub fn run(ctx: &Ctx, report: &mut Report, layers: &mut Layers, edit: bool) -> Result<(), String> {
    let expect = if edit {
        Expect::Incremental
    } else {
        Expect::Exact
    };
    let k0 = (ctx.seed % 1000) as i64 + 1;
    // A store of its own for each set-up: priming must build cold.
    let mut make = |rep| {
        let inputs = Inputs {
            dir: ctx.work.join(format!("restart-{rep}")),
            store: ctx.work.join(format!("restart-{rep}-store")),
            seed: ctx.seed,
        };
        let programs = restart_programs(ctx.seed, k0);
        corpus::write_dir(&inputs.dir, Some(&restart_prelude(k0)), &programs)
            .map_err(|e| e.to_string())?;
        // Prime the store with a cold build, then take the measured
        // path once so the store and page cache are in steady state.
        let mut primed = Report::default();
        inputs.invoke(ctx, k0, Expect::Cold, &mut primed);
        let k = k0 + i64::from(edit);
        inputs.write_prelude(k)?;
        inputs.invoke(ctx, k, expect, &mut primed);
        match primed.failures.first() {
            Some(e) => Err(format!("priming the store failed: {e}")),
            None => Ok((inputs, k)),
        }
    };
    let (mut setups, (inputs, mut k)) = ctx.setup(&mut make)?;

    let mut timed = Timed::default();
    let mut fallbacks = 0u64;
    let start = Instant::now();
    let deadline = start + ctx.e2e_budget();
    while Instant::now() < deadline {
        if edit {
            k += 1;
            inputs.write_prelude(k)?;
        }
        if let Some((ms, f)) = inputs.invoke(ctx, k, expect, report) {
            timed.latencies_ms.push(ms);
            fallbacks += f;
        }
    }
    timed.elapsed_s = start.elapsed().as_secs_f64();
    timed.work = (timed.latencies_ms.len() * 8) as f64;
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

    let mut metrics = MetricsRegistry::new();
    let (mut fuel, mut bytes, mut reused) = (Vec::new(), Vec::new(), Vec::new());
    let mut replayed = Replayed::default();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    let units = (0..timed.latencies_ms.len() as u64).map(|id| (id, ()));
    replayed.run(ctx, report, deadline, units, |_, on| {
        if edit {
            k += 1;
        }
        let loaded = replay(&ctx.tracer, on, &inputs, k, edit)?;
        if on {
            fuel.push(loaded.metrics.vm_fuel as f64);
            metrics.merge(&loaded.metrics);
            bytes.push(loaded.bytes as f64);
            reused.extend(loaded.reused);
        }
        Ok(())
    });
    layer_metrics(ctx, &replayed, layers);
    session_counters(&metrics, layers);
    layers.insert("systemf.vm.fuel", median(&fuel));
    layers.insert("pipeline.artifact.bytes", median(&bytes));
    layers.insert("pipeline.artifact.reused_ratio", median(&reused));
    layers.insert("pipeline.artifact.fallbacks", fallbacks as f64);
    Ok(())
}

/// What one replayed invocation loaded.
struct Loaded {
    metrics: MetricsRegistry,
    bytes: usize,
    reused: Option<f64>,
}

/// The in-process mirror of one `--batch --cache-dir` invocation with
/// one worker: the CLI's validation session, then the store ladder of
/// `artifact::load_or_build` taken apart into its public steps (key,
/// load, decode, rehydrate or incremental rebuild, save), the
/// programs, and the post-drain re-save.
fn replay(t: &Tracer, on: bool, inputs: &Inputs, k: i64, edit: bool) -> Result<Loaded, String> {
    let policy = ResolutionPolicy::paper();
    let isa = systemf::Isa::Register;
    let prelude_src = restart_prelude(k);
    {
        let (decls, prelude) = parse_prelude(t, &prelude_src)?;
        t.span("pipeline.session.build", || {
            Session::new(&decls, policy.clone(), &prelude)
                .map(drop)
                .map_err(|e| format!("prelude: {e}"))
        })?;
    }
    let store = t
        .span("pipeline.artifact.load", || {
            ArtifactStore::new(&inputs.store)
        })
        .map_err(|e| e.to_string())?;
    let (decls, prelude) = parse_prelude(t, &prelude_src)?;
    let keys = || {
        (
            artifact_key(&decls, &prelude, &policy, true, false, isa),
            config_key(&decls, &policy, true, false, isa),
        )
    };
    let (key, config) = t.span("pipeline.artifact.key", keys);
    let exact = t.span("pipeline.artifact.load", || store.load(key));
    let (mut session, bytes, reused) = match (exact, edit) {
        (Some(bytes), false) => {
            let a = t
                .span("pipeline.artifact.decode", || artifact::decode(&bytes))
                .map_err(|e| e.to_string())?;
            // `Session::from_artifact` is decode, this key check, and
            // assemble; the two halves are timed apart.
            let expect = t.span("pipeline.artifact.key", || keys().0);
            if a.key != expect {
                return Err("artifact key mismatch".to_owned());
            }
            let s = t
                .span("pipeline.artifact.rehydrate", || {
                    artifact::assemble(&decls, a)
                })
                .map_err(|e| e.to_string())?;
            t.span("pipeline.artifact.save", || store.save(key, config, &bytes))
                .map_err(|e| e.to_string())?;
            (s, bytes.len(), None)
        }
        (None, true) => {
            let old = t
                .span("pipeline.artifact.load", || {
                    store.head(config).and_then(|old| store.load(old))
                })
                .ok_or("no head artifact to rebuild from")?;
            let a = t
                .span("pipeline.artifact.decode", || artifact::decode(&old))
                .map_err(|e| e.to_string())?;
            let old_key = t.span("pipeline.artifact.key", || {
                artifact_key(&decls, &a.prelude, &policy, true, false, isa)
            });
            if old_key != a.key {
                return Err("head artifact belongs to another configuration".to_owned());
            }
            let (mut s, stats) = t
                .span("pipeline.artifact.rebuild", || {
                    artifact::rebuild_incremental(&decls, a, &prelude)
                })
                .map_err(|e| e.to_string())?;
            let fresh = t.span("pipeline.artifact.encode", || s.to_artifact());
            t.span("pipeline.artifact.save", || store.save(key, config, &fresh))
                .map_err(|e| e.to_string())?;
            let share = stats.bindings_reused as f64 / stats.bindings_total.max(1) as f64;
            (s, old.len(), Some(share))
        }
        (Some(_), true) => return Err("an edited prelude hit an exact artifact".to_owned()),
        (None, false) => return Err("the primed artifact is missing".to_owned()),
    };
    let programs = restart_programs(inputs.seed, k);
    let mine: Vec<&corpus::Program> = programs.iter().collect();
    run_programs(t, on, &mut session, &mine, |p| p.expected.clone())?;
    let metrics = session.metrics();
    let warmed = t.span("pipeline.artifact.encode", || session.to_artifact());
    let (key, config) = t.span("pipeline.artifact.key", keys);
    t.span("pipeline.artifact.save", || {
        store.save(key, config, &warmed)
    })
    .map_err(|e| e.to_string())?;
    Ok(Loaded {
        metrics,
        bytes,
        reused,
    })
}
