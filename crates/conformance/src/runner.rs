//! The sharded sweep driver, built on the work-stealing batch driver
//! of [`implicit_pipeline::driver`].
//!
//! Seeds enter a shared injector deque; workers drain it and steal
//! from each other's local deques, so a skewed seed (one that
//! triggers shrinking, say) no longer stalls a fixed round-robin
//! partition. Divergences are replayable from their seed alone,
//! independent of worker count or scheduling. [`Expr`]s are
//! `Rc`-based and not `Send`, so each worker owns its whole pipeline
//! — generation, a warm [`Session`], oracle, shrinking,
//! pretty-printing — and hands back only strings and counters; the
//! `Symbol` interner is the sole shared state and is thread-safe.
//!
//! Every seed additionally runs the warm/cold session oracle: a
//! long-lived [`Session`] (warm derivation cache, persistent runtime
//! memo, shared interner) must agree with a cold one-shot run of the
//! sugared equivalent program.

use std::path::{Path, PathBuf};
use std::time::Instant;

use genprog::{gen_program_with, rng, GenConfig, GenCounters};
use implicit_core::resolve::ResolutionPolicy;
use implicit_core::syntax::{Declarations, Expr};
use implicit_core::trace::{MetricsSink, SharedSink};
use implicit_pipeline::{run_batch_scoped, Prelude, Session};

use crate::oracle::{
    run_daemon_oracle, run_program_oracle, run_resolution_oracle, run_restart_oracle,
    run_session_oracle, run_subtyping_oracle, run_wild_oracle, Divergence, DivergenceKind,
};
use crate::report::{DivergenceRecord, LegTimings, RunReport, ShardReport};
use crate::shrink::{node_count, shrink};

/// The prelude every sweep worker warms its [`Session`] with: a
/// 6-deep chain of pair rules, so prelude-level resolutions exercise
/// multi-frame scanning and cross-program cache reuse on every seed.
fn session_prelude() -> Prelude {
    Prelude::chain(6)
}

/// Sweep configuration.
#[derive(Clone, Debug)]
pub struct RunnerConfig {
    /// First seed (inclusive).
    pub seed_lo: u64,
    /// Last seed (exclusive).
    pub seed_hi: u64,
    /// Worker thread count (clamped to ≥ 1).
    pub shards: usize,
    /// Where to persist divergence reproducers (`<id>.imp` +
    /// `<id>.json`); `None` disables corpus writes.
    pub corpus_dir: Option<PathBuf>,
    /// Program generator knobs.
    pub gen: GenConfig,
    /// Wild mode: replace the per-seed program legs with
    /// production-shaped [`genprog::wild_workload`] environments
    /// (field-study scope sizes, Zipf head skew, conversion chains),
    /// resolved by the logic resolver across cache modes and
    /// cross-checked by the subtyping resolver.
    pub wild: bool,
    /// Artifact-store directory: when set, every worker's rehydrated
    /// session loads-or-builds through the on-disk store
    /// ([`implicit_pipeline::artifact`]) instead of serializing in
    /// memory, so the sweep also exercises the cross-process path.
    pub cache_dir: Option<PathBuf>,
    /// Daemon leg: when set, the sweep starts one in-process
    /// `implicitd` ([`implicit_pipeline::service::Daemon`]), each
    /// shard opens its own tenant over the same prelude recipe, and
    /// every seed's program is additionally served over the wire and
    /// compared against the warm session
    /// ([`crate::oracle::run_daemon_oracle`]).
    pub daemon: bool,
}

impl Default for RunnerConfig {
    fn default() -> RunnerConfig {
        RunnerConfig {
            seed_lo: 0,
            seed_hi: 1000,
            shards: 1,
            corpus_dir: None,
            gen: GenConfig::default(),
            wild: false,
            cache_dir: None,
            daemon: false,
        }
    }
}

/// One shard's results, in `Send`-safe form.
struct ShardOutcome {
    report: ShardReport,
    counters: GenCounters,
    divergences: Vec<DivergenceRecord>,
}

/// Packages an env-level (by-seed) divergence: nothing to shrink, but
/// the record replays by seed.
fn by_seed_record(d: Divergence, seed: u64, shard: usize) -> DivergenceRecord {
    DivergenceRecord {
        id: format!("s{seed}-{}", d.kind.label()),
        seed,
        shard,
        kind: d.kind.label().to_owned(),
        detail: d.detail,
        program: String::new(),
        minimized: String::new(),
        original_nodes: 0,
        minimized_nodes: 0,
        replayable: false,
    }
}

/// Times one oracle leg, accumulating its wall time into `slot`.
fn timed<T>(slot: &mut u64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *slot += t.elapsed().as_micros() as u64;
    out
}

/// Runs one seed's program leg end to end — generate, oracle, and on
/// divergence shrink to a minimal reproducer with the same
/// [`DivergenceKind`]. The warm-session, resolution, and subtyping
/// legs run afterwards so every seed exercises all of them.
#[allow(clippy::too_many_arguments)]
fn run_seed(
    decls: &Declarations,
    session: &mut Session<'_>,
    restarted: &mut Session<'_>,
    daemon: Option<&mut (implicit_pipeline::service::Client, String)>,
    prelude: &Prelude,
    gen: &GenConfig,
    seed: u64,
    shard: usize,
    timings: &mut LegTimings,
) -> SeedOutcome {
    let mut r = rng(seed);
    let program = gen_program_with(&mut r, gen, decls);
    let mut divergence = None;

    // Session-state-dependent disagreements (warm/cold, restart)
    // cannot be replayed by the shrinker in isolation; they are
    // recorded unshrunken (see the session leg below).
    let session_record = |d: Divergence| DivergenceRecord {
        id: format!("s{seed}-{}", d.kind.label()),
        seed,
        shard,
        kind: d.kind.label().to_owned(),
        detail: d.detail,
        program: program.expr.to_string(),
        minimized: String::new(),
        original_nodes: node_count(&program.expr),
        minimized_nodes: 0,
        replayable: false,
    };
    if let Err(d) = timed(&mut timings.program_us, || {
        run_program_oracle(decls, &program.expr, &program.ty)
    }) {
        divergence = Some(minimize(decls, &program.expr, &program.ty, d, seed, shard));
    } else if let Err(d) = timed(&mut timings.session_us, || {
        run_session_oracle(decls, session, prelude, &program.expr, &program.ty)
    }) {
        divergence = Some(session_record(d));
    } else if let Err(d) = timed(&mut timings.restart_us, || {
        run_restart_oracle(session, restarted, &program.expr)
    }) {
        divergence = Some(session_record(d));
    } else if let Err(d) = timed(&mut timings.resolution_us, run_resolution_oracle_seed(seed)) {
        divergence = Some(by_seed_record(d, seed, shard));
    } else if let Err(d) = timed(&mut timings.subtyping_us, run_subtyping_oracle_seed(seed)) {
        divergence = Some(by_seed_record(d, seed, shard));
    }
    // Seventh leg: the same program served by the resident daemon
    // over the wire (daemon sweeps only).
    if divergence.is_none() {
        if let Some((client, tenant)) = daemon {
            match timed(&mut timings.daemon_us, || {
                run_daemon_oracle(client, tenant, session, &program.expr)
            }) {
                Ok(true) => {}
                Ok(false) => timings.daemon_skips += 1,
                Err(d) => divergence = Some(session_record(d)),
            }
        }
    }

    SeedOutcome {
        counters: program.counters,
        divergence,
    }
}

/// Thunk adapters so the env-level legs fit [`timed`].
fn run_resolution_oracle_seed(seed: u64) -> impl FnOnce() -> Result<(), Divergence> {
    move || run_resolution_oracle(seed).map(|_| ())
}

fn run_subtyping_oracle_seed(seed: u64) -> impl FnOnce() -> Result<(), Divergence> {
    move || run_subtyping_oracle(seed).map(|_| ())
}

/// Runs one wild-mode seed: a production-shaped environment/query
/// workload through the logic resolver (cache off / cold / warm) and
/// the subtyping resolver, folding the workload's shape histogram
/// into the coverage counters.
fn run_seed_wild(seed: u64, shard: usize, timings: &mut LegTimings) -> SeedOutcome {
    let config = genprog::WildConfig::field_study();
    let mut counters = GenCounters::default();
    let divergence = match timed(&mut timings.wild_us, || run_wild_oracle(seed, &config)) {
        Ok(v) => {
            counters.record_wild(&v.histogram);
            None
        }
        Err(d) => Some(by_seed_record(d, seed, shard)),
    };
    SeedOutcome {
        counters,
        divergence,
    }
}

struct SeedOutcome {
    counters: GenCounters,
    divergence: Option<DivergenceRecord>,
}

/// Shrinks a diverging program while the oracle keeps reporting the
/// same divergence kind, then packages the reproducer.
fn minimize(
    decls: &Declarations,
    expr: &Expr,
    ty: &implicit_core::Type,
    d: Divergence,
    seed: u64,
    shard: usize,
) -> DivergenceRecord {
    let kind = d.kind;
    let property = |cand: &Expr| {
        run_program_oracle(decls, cand, ty)
            .err()
            .is_some_and(|d2| d2.kind == kind)
    };
    let minimized = if kind == DivergenceKind::IllTyped || kind == DivergenceKind::TypeDrift {
        // Generator bugs: the declared type itself is suspect, so a
        // structural shrink against it is meaningless. Keep as-is.
        expr.clone()
    } else {
        shrink(expr, &property)
    };
    let printed = minimized.to_string();
    let replayable = implicit_core::parse::parse_expr(&printed)
        .map(|p| p == minimized)
        .unwrap_or(false);
    DivergenceRecord {
        id: format!("s{seed}-{}", kind.label()),
        seed,
        shard,
        kind: kind.label().to_owned(),
        detail: d.detail,
        program: expr.to_string(),
        minimized: printed,
        original_nodes: node_count(expr),
        minimized_nodes: node_count(&minimized),
        replayable,
    }
}

/// Runs the sweep: feeds the seed range through the work-stealing
/// batch driver (each worker holding a per-thread declaration set and
/// warm [`Session`]), merges counters and divergences, and
/// (optionally) writes the corpus.
pub fn run(config: &RunnerConfig) -> std::io::Result<RunReport> {
    let shards = config.shards.max(1);
    let lo = config.seed_lo;
    let hi = config.seed_hi.max(lo);
    let wall = Instant::now();

    // One resident daemon for the whole sweep: every shard opens its
    // own tenant (sessions are thread-confined daemon-side too), so
    // the wire, admission queue, and per-tenant rollback paths all
    // run under the same multi-shard load as the sweep itself.
    let daemon = if config.daemon {
        let daemon =
            implicit_pipeline::service::Daemon::start(implicit_pipeline::service::DaemonConfig {
                addr: "127.0.0.1:0".to_owned(),
                max_tenants: shards.max(1),
                cache_dir: config.cache_dir.clone(),
                decls: std::sync::Arc::new(genprog::data_prelude),
                ..implicit_pipeline::service::DaemonConfig::default()
            })?;
        Some(daemon)
    } else {
        None
    };
    let daemon_addr = daemon.as_ref().map(|d| d.addr());

    let gen = &config.gen;
    let seeds: Vec<u64> = (lo..hi).collect();
    let outcomes: Vec<ShardOutcome> = run_batch_scoped(seeds, shards, |shard, source| {
        let t0 = Instant::now();
        // Per-worker declarations and warm session: the hash-consing
        // arena is thread-local and evidence values are `Rc`-based,
        // so each worker builds its own from the shared recipe.
        let decls = genprog::data_prelude();
        let prelude = session_prelude();
        let mut session = Session::new(&decls, ResolutionPolicy::paper(), &prelude)
            .expect("the sweep session prelude is valid");
        // A metrics-grade sink: turns on resolution/evaluator event
        // emission so the per-shard report carries the unified
        // counter snapshot (the session folds events into its own
        // registry; this sink just enables the instrumented paths).
        session.set_trace(Some(SharedSink::new(MetricsSink::new())));
        // The rehydrated leg's session: built from a serialized
        // artifact — through the on-disk store when `--cache-dir` is
        // set (exercising the cross-process path; the first worker
        // builds cold and saves, the rest exact-load), else from an
        // in-memory byte roundtrip.
        let mut restarted = match &config.cache_dir {
            Some(dir) => {
                let store = implicit_pipeline::artifact::ArtifactStore::new(dir)
                    .expect("artifact cache dir is creatable");
                implicit_pipeline::artifact::load_or_build(
                    &store,
                    &decls,
                    &ResolutionPolicy::paper(),
                    &prelude,
                    true,
                    false,
                )
                .expect("the sweep session prelude is valid")
                .0
            }
            None => {
                let bytes = Session::new(&decls, ResolutionPolicy::paper(), &prelude)
                    .expect("the sweep session prelude is valid")
                    .to_artifact();
                Session::from_artifact(
                    &decls,
                    &ResolutionPolicy::paper(),
                    &prelude,
                    true,
                    false,
                    &bytes,
                )
                .expect("the sweep artifact rehydrates")
            }
        };
        let mut counters = GenCounters::default();
        let mut divergences = Vec::new();
        let mut seeds = 0u64;
        let mut timings = LegTimings::default();
        // The shard's daemon tenant: same decls + prelude recipe as
        // the warm session, but compiled daemon-side behind the wire.
        let mut daemon_tenant = daemon_addr.map(|addr| {
            let mut client = implicit_pipeline::service::Client::connect(addr)
                .expect("sweep daemon is reachable");
            let tenant = format!("sweep-shard-{shard}");
            client
                .open_prelude(
                    &tenant,
                    &implicit_pipeline::service::prelude_source(&session_prelude()),
                    implicit_pipeline::Backend::Vm,
                )
                .expect("sweep daemon tenant opens");
            (client, tenant)
        });
        for (_, seed) in source.by_ref() {
            let out = if config.wild {
                run_seed_wild(seed, shard, &mut timings)
            } else {
                run_seed(
                    &decls,
                    &mut session,
                    &mut restarted,
                    daemon_tenant.as_mut(),
                    &prelude,
                    gen,
                    seed,
                    shard,
                    &mut timings,
                )
            };
            counters.merge(&out.counters);
            divergences.extend(out.divergence);
            seeds += 1;
        }
        if let Some((mut client, tenant)) = daemon_tenant.take() {
            // Flushes the tenant's warmed artifact to the store (when
            // the daemon has one) and frees its slot.
            let _ = client.close(&tenant);
        }
        let warm = session.cache_counters();
        let metrics = session.metrics();
        ShardOutcome {
            report: ShardReport {
                shard,
                seeds,
                programs: seeds,
                duration_ms: t0.elapsed().as_millis() as u64,
                divergences: divergences.len() as u64,
                steals: source.steals as u64,
                warm_cache_hits: warm.hits,
                metrics,
                leg_timings: timings,
            },
            counters,
            divergences,
        }
    });

    if let Some(mut d) = daemon {
        d.shutdown();
    }

    let wall_ms = wall.elapsed().as_millis() as u64;
    let mut counters = GenCounters::default();
    let mut divergences = Vec::new();
    let mut shard_reports = Vec::with_capacity(outcomes.len());
    for o in outcomes {
        counters.merge(&o.counters);
        divergences.extend(o.divergences);
        shard_reports.push(o.report);
    }
    // Deterministic report order regardless of thread scheduling.
    divergences.sort_by_key(|d| d.seed);

    if let Some(dir) = &config.corpus_dir {
        if !divergences.is_empty() {
            std::fs::create_dir_all(dir)?;
            for d in &divergences {
                std::fs::write(dir.join(format!("{}.imp", d.id)), &d.minimized)?;
                std::fs::write(dir.join(format!("{}.json", d.id)), d.to_json().render())?;
            }
        }
    }

    Ok(RunReport {
        seed_lo: lo,
        seed_hi: hi,
        shards,
        wall_ms,
        shard_reports,
        coverage: counters.as_pairs(),
        divergences,
    })
}

/// Replays a corpus entry (`.imp` source file): parses it and runs
/// the full program oracle against the generator's prelude
/// declarations.
///
/// # Errors
///
/// Returns a description of the parse failure or the (still
/// reproducing) divergence.
pub fn replay(path: &Path) -> Result<String, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let expr = implicit_core::parse::parse_expr(&src).map_err(|e| format!("parse error: {e}"))?;
    let decls = genprog::data_prelude();
    let ty = implicit_core::Typechecker::new(&decls)
        .check_closed(&expr)
        .map_err(|e| format!("ill-typed reproducer: {e}"))?;
    match run_program_oracle(&decls, &expr, &ty) {
        Ok(v) => Ok(format!("oracle agrees: value {} : {}", v.value, v.ty)),
        Err(d) => Err(format!("divergence reproduced — {d}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_divergence_free_and_deterministic() {
        let config = RunnerConfig {
            seed_lo: 0,
            seed_hi: 120,
            shards: 3,
            corpus_dir: None,
            gen: GenConfig::default(),
            wild: false,
            cache_dir: None,
            daemon: false,
        };
        let r1 = run(&config).unwrap();
        assert_eq!(r1.total_programs(), 120);
        assert!(
            r1.divergences.is_empty(),
            "unexpected divergences: {:?}",
            r1.divergences
                .iter()
                .map(|d| format!("{}: {}", d.id, d.detail))
                .collect::<Vec<_>>()
        );
        // Coverage histogram is shard-count independent.
        let r2 = run(&RunnerConfig {
            shards: 1,
            ..config
        })
        .unwrap();
        assert_eq!(r1.coverage, r2.coverage);
    }

    #[test]
    fn work_stealing_sweep_covers_every_seed_exactly_once() {
        let config = RunnerConfig {
            seed_lo: 5,
            seed_hi: 47,
            shards: 4,
            corpus_dir: None,
            gen: GenConfig::default(),
            wild: false,
            cache_dir: None,
            daemon: false,
        };
        let r = run(&config).unwrap();
        let total: u64 = r.shard_reports.iter().map(|s| s.seeds).sum();
        assert_eq!(total, 42, "reports: {:?}", r.shard_reports);
        assert_eq!(r.total_programs(), 42);
        // Each shard's session carried the unified metrics snapshot:
        // the warm/cold oracle resolves implicit queries every seed.
        let m = r.total_metrics();
        assert!(m.queries > 0, "no resolution metrics: {m:?}");
        assert_eq!(
            m.queries,
            m.queries_resolved + m.queries_failed,
            "unbalanced query spans: {m:?}"
        );
        assert!(m.tree_runs > 0, "no evaluator metrics: {m:?}");
        // Every leg's cost is visible in the report.
        let t = r.total_leg_timings();
        assert!(t.program_us > 0 && t.subtyping_us > 0, "timings: {t:?}");
        assert!(t.restart_us > 0, "rehydrated leg never ran: {t:?}");
        assert_eq!(t.wild_us, 0, "wild leg ran in a normal sweep: {t:?}");
    }

    #[test]
    fn sweep_with_cache_dir_rehydrates_from_the_store() {
        let dir =
            std::env::temp_dir().join(format!("implicit-conformance-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = RunnerConfig {
            seed_lo: 0,
            seed_hi: 40,
            shards: 2,
            corpus_dir: None,
            gen: GenConfig::default(),
            wild: false,
            cache_dir: Some(dir.clone()),
            daemon: false,
        };
        let r = run(&config).unwrap();
        assert!(
            r.divergences.is_empty(),
            "divergences through the store-backed rehydrated leg: {:?}",
            r.divergences
                .iter()
                .map(|d| format!("{}: {}", d.id, d.detail))
                .collect::<Vec<_>>()
        );
        // The store now holds the sweep prelude's artifact (content
        // file + config head pointer).
        let files = std::fs::read_dir(&dir).unwrap().count();
        assert!(files >= 2, "store has only {files} files");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn daemon_sweep_runs_the_seventh_leg_divergence_free() {
        let config = RunnerConfig {
            seed_lo: 0,
            seed_hi: 60,
            shards: 2,
            corpus_dir: None,
            gen: GenConfig::default(),
            wild: false,
            cache_dir: None,
            daemon: true,
        };
        let r = run(&config).unwrap();
        assert!(
            r.divergences.is_empty(),
            "daemon-leg divergences: {:?}",
            r.divergences
                .iter()
                .map(|d| format!("{}: {}", d.id, d.detail))
                .collect::<Vec<_>>()
        );
        assert_eq!(r.total_programs(), 60);
        // The wire leg actually ran and its cost is reported.
        let t = r.total_leg_timings();
        assert!(t.daemon_us > 0, "daemon leg never ran: {t:?}");
        // Every generated program prints as text that parses, so the
        // leg ran on every seed.
        assert_eq!(t.daemon_skips, 0, "daemon leg skipped seeds: {t:?}");
        // A daemon-less sweep reports zero daemon time.
        let r2 = run(&RunnerConfig {
            daemon: false,
            ..config
        })
        .unwrap();
        assert_eq!(r2.total_leg_timings().daemon_us, 0);
    }

    #[test]
    fn the_daemon_leg_skips_only_text_that_does_not_parse() {
        let daemon =
            implicit_pipeline::service::Daemon::start(implicit_pipeline::service::DaemonConfig {
                addr: "127.0.0.1:0".to_owned(),
                ..implicit_pipeline::service::DaemonConfig::default()
            })
            .unwrap();
        let mut client = implicit_pipeline::service::Client::connect(daemon.addr()).unwrap();
        let prelude = session_prelude();
        let source = implicit_pipeline::service::prelude_source(&prelude);
        client
            .open_prelude("t", &source, implicit_pipeline::Backend::Vm)
            .unwrap();
        let decls = Declarations::new();
        let mut session = Session::new(&decls, ResolutionPolicy::paper(), &prelude).unwrap();
        let run = |session: &mut Session<'_>, client: &mut _, e: &Expr| {
            run_daemon_oracle(client, "t", session, e).unwrap()
        };
        // A negative literal prints where it parses back.
        let neg = Expr::app(
            Expr::lam("x", implicit_core::syntax::Type::Int, Expr::var("x")),
            Expr::Int(-51),
        );
        assert!(run(&mut session, &mut client, &neg));
        // A fresh binder prints as its base name: the reparsed tree is
        // a renaming of this one, and the leg runs on it.
        let x = implicit_core::symbol::fresh("x");
        let renamed = Expr::app(
            Expr::lam(x, implicit_core::syntax::Type::Int, Expr::Var(x)),
            Expr::Int(1),
        );
        assert!(run(&mut session, &mut client, &renamed));
        // `i64::MIN`'s magnitude overflows the lexer's literals: the
        // one skip, counted by the caller.
        assert!(!run(&mut session, &mut client, &Expr::Int(i64::MIN)));
    }

    #[test]
    fn wild_sweep_is_divergence_free_with_production_coverage() {
        let config = RunnerConfig {
            seed_lo: 0,
            seed_hi: 12,
            shards: 2,
            corpus_dir: None,
            gen: GenConfig::default(),
            wild: true,
            cache_dir: None,
            daemon: false,
        };
        let r = run(&config).unwrap();
        assert!(
            r.divergences.is_empty(),
            "wild divergences: {:?}",
            r.divergences
                .iter()
                .map(|d| format!("{}: {}", d.id, d.detail))
                .collect::<Vec<_>>()
        );
        assert_eq!(r.total_programs(), 12);
        // Coverage carries the wild histogram, not program constructs.
        let cov: std::collections::HashMap<&str, u64> = r.coverage.iter().copied().collect();
        assert!(cov["wild_rules"] >= 12 * 100, "coverage: {:?}", r.coverage);
        assert!(cov["wild_hot_queries"] > 0 && cov["wild_cold_queries"] > 0);
        assert!(cov["wild_max_chain"] >= 8);
        // The wild leg is the only one that accumulated time.
        let t = r.total_leg_timings();
        assert!(t.wild_us > 0 && t.program_us == 0, "timings: {t:?}");
    }
}
