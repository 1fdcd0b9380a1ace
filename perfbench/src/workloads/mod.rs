//! The five workloads and what they share: the run context, repeated
//! set-up, the end-to-end summary, and the traced in-process replay.

pub mod cold_cli;
pub mod daemon;
pub mod restart;
pub mod warm_batch;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::results::Report;
use crate::spans::{LayerTimes, Tracer};
use crate::stats::{highest_supported_percentile, median, quantile};

/// Everything a workload run needs.
pub struct Ctx {
    /// The shipped compiler CLI.
    pub implicitc: PathBuf,
    /// The shipped daemon.
    pub implicitd: PathBuf,
    /// Scratch directory for this run's inputs and stores.
    pub work: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Measurement time.
    pub seconds: f64,
    /// Per-layer (traced) run instead of end-to-end.
    pub trace: bool,
    /// The span recorder (only switched on by the traced replay).
    pub tracer: Tracer,
}

/// Set-up repetitions per untraced run, half before the measurement
/// and half after it; `setup_s` is their median. One set-up takes 20
/// to 90 ms and single repetitions vary by a quarter; the host's speed
/// also drifts by as much over a few seconds, so repetitions taken
/// back to back all see the same speed.
const SETUP_REPS: usize = 10;

/// Share of a traced run spent driving the shipped binaries; the rest
/// replays the same units in process.
const TRACE_E2E_SHARE: f64 = 0.3;

/// Per-layer metric values by name; names left out read as 0 (the
/// layer does not run on this workload).
pub type Layers = BTreeMap<&'static str, f64>;

impl Ctx {
    /// Runs the first half of the [`SETUP_REPS`] set-up repetitions
    /// (one when tracing) and returns each repetition's wall time with
    /// the last state. Earlier states are dropped before the next
    /// repetition starts.
    ///
    /// A repetition never deletes files: that is slow and erratic on
    /// some file systems (on ext4 mounted with `discard`, deleting and
    /// rewriting a 1500-file corpus took 15 to 190 ms). It writes into
    /// a directory of its own, or into a shared one through
    /// [`crate::corpus::write_dir`], which leaves identical files
    /// alone. The work directory is deleted once, after the run.
    pub fn setup<S>(
        &self,
        setup: &mut impl FnMut(usize) -> Result<S, String>,
    ) -> Result<(Vec<f64>, S), String> {
        let reps = if self.trace { 1 } else { SETUP_REPS / 2 };
        repeat(0..reps, setup)
    }

    /// Runs the second half of the set-up repetitions, for after the
    /// measurement of an untraced run, and returns their wall times.
    pub fn setup_after<S>(
        &self,
        setup: &mut impl FnMut(usize) -> Result<S, String>,
    ) -> Result<Vec<f64>, String> {
        repeat(SETUP_REPS / 2..SETUP_REPS, setup).map(|(times, _)| times)
    }

    /// How long the end-to-end phase runs: all of it untraced, a share
    /// of it when tracing.
    pub fn e2e_budget(&self) -> Duration {
        let share = if self.trace { TRACE_E2E_SHARE } else { 1.0 };
        Duration::from_secs_f64(self.seconds * share)
    }
}

fn repeat<S>(
    reps: std::ops::Range<usize>,
    setup: &mut impl FnMut(usize) -> Result<S, String>,
) -> Result<(Vec<f64>, S), String> {
    let mut times = Vec::with_capacity(reps.len());
    let mut state = None;
    for rep in reps {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup(rep)?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((times, state.expect("at least one repetition")))
}

/// What a timed end-to-end phase observed.
#[derive(Default)]
pub struct Timed {
    /// Per-unit latency in milliseconds, in the order units ran.
    pub latencies_ms: Vec<f64>,
    /// Units of throughput completed (programs or requests).
    pub work: f64,
    /// Wall time of the phase.
    pub elapsed_s: f64,
}

/// Pushes the end-to-end metrics, in `BENCHMARK.json` order; `setup_s`
/// is the median of the `setups` times. A run measured as several
/// independent parts (the daemon's lifetimes) reports the median over
/// the parts of each part's value.
pub fn end_to_end(report: &mut Report, setups: &[f64], parts: &[Timed], peak_rss_mb: f64) {
    report.samples = parts.iter().map(|t| t.latencies_ms.len()).sum();
    let smallest = parts
        .iter()
        .map(|t| t.latencies_ms.len())
        .min()
        .unwrap_or(0);
    if highest_supported_percentile(smallest).is_none_or(|p| p < 0.9) {
        eprintln!(
            "perfbench: only {smallest} latency samples; the 90th percentile rests on fewer than ten"
        );
    }
    let per_part = |f: &dyn Fn(&Timed) -> f64| median(&parts.iter().map(f).collect::<Vec<_>>());
    let q = |p| move |t: &Timed| quantile(&t.latencies_ms, p).unwrap_or(0.0);
    report.push("setup_s", median(setups), "s");
    report.push(
        "throughput",
        per_part(&|t| t.work / t.elapsed_s.max(1e-9)),
        "1/s",
    );
    report.push("latency_p50_ms", per_part(&q(0.5)), "ms");
    report.push("latency_p90_ms", per_part(&q(0.9)), "ms");
    report.push("peak_rss_mb", peak_rss_mb, "MiB");
}

/// What the in-process replay measured.
#[derive(Default)]
pub struct Replayed {
    /// `(unit, ms)` with the recorder off.
    pub off_ms: Vec<(u64, f64)>,
    /// Total time with the recorder on, in seconds.
    pub on_s: f64,
    /// Total time with the recorder off, in seconds.
    pub off_s: f64,
}

impl Replayed {
    /// Replays each `(unit id, input)` twice, once with the recorder
    /// off (timed, as the untraced path runs) and once on (recorded
    /// under a unit span), alternating which goes first so neither
    /// side always sees the other's warm caches. `run(input, on)`
    /// performs the unit and checks its outputs. Stops at `deadline`.
    pub fn run<U>(
        &mut self,
        ctx: &Ctx,
        report: &mut Report,
        deadline: Instant,
        units: impl IntoIterator<Item = (u64, U)>,
        mut run: impl FnMut(&U, bool) -> Result<(), String>,
    ) {
        for (id, input) in units {
            if Instant::now() >= deadline {
                break;
            }
            for on in [id % 2 == 0, id % 2 == 1] {
                let t = Instant::now();
                let outcome = if on {
                    ctx.tracer.set_on(true);
                    let r = ctx.tracer.unit(id, || run(&input, true));
                    ctx.tracer.set_on(false);
                    r
                } else {
                    run(&input, false)
                };
                let s = t.elapsed().as_secs_f64();
                if on {
                    self.on_s += s;
                } else {
                    self.off_s += s;
                    self.off_ms.push((id, s * 1e3));
                }
                report.check(outcome);
            }
        }
    }

    /// Median over replayed units of `end-to-end − in-process` time:
    /// what the untraced path spends outside the layers the replay
    /// calls (process start-up, sockets, queues).
    pub fn outside_ms(&self, e2e_ms: &[f64]) -> f64 {
        let gaps: Vec<f64> = self
            .off_ms
            .iter()
            .filter_map(|&(id, off)| e2e_ms.get(id as usize).map(|e| e - off))
            .collect();
        median(&gaps)
    }

    /// `trace.overhead_ratio`: replay time with the recorder on over
    /// the same with it off.
    pub fn overhead(&self) -> f64 {
        self.on_s / self.off_s.max(1e-12)
    }
}

/// The span layers and the per-layer metric each one's median
/// per-unit self time reports, with the scale from nanoseconds.
const SELF_TIME_METRICS: [(&str, &str, f64); 18] = [
    ("source", "source.self_ms", 1e-6),
    ("core.parse", "core.parse.self_ms", 1e-6),
    ("core.typeck", "core.typeck.self_ms", 1e-6),
    ("elab", "elab.self_ms", 1e-6),
    ("systemf.typeck", "systemf.typeck.self_ms", 1e-6),
    ("systemf.eval", "systemf.eval.self_ms", 1e-6),
    ("systemf.compile", "systemf.compile.self_ms", 1e-6),
    ("systemf.vm", "systemf.vm.self_ms", 1e-6),
    ("opsem", "opsem.self_ms", 1e-6),
    ("pipeline.session.build", "pipeline.session.build_ms", 1e-6),
    ("pipeline.artifact.key", "pipeline.artifact.key_ms", 1e-6),
    ("pipeline.artifact.load", "pipeline.artifact.load_ms", 1e-6),
    (
        "pipeline.artifact.decode",
        "pipeline.artifact.decode_ms",
        1e-6,
    ),
    (
        "pipeline.artifact.rehydrate",
        "pipeline.artifact.rehydrate_ms",
        1e-6,
    ),
    (
        "pipeline.artifact.rebuild",
        "pipeline.artifact.rebuild_ms",
        1e-6,
    ),
    (
        "pipeline.artifact.encode",
        "pipeline.artifact.encode_ms",
        1e-6,
    ),
    ("pipeline.artifact.save", "pipeline.artifact.save_ms", 1e-6),
    ("core.resolve", "core.resolve.self_us", 1e-3),
];

/// Fills the self-time metrics, coverage and overhead from the
/// recorded spans and the replay totals.
pub fn layer_metrics(ctx: &Ctx, replayed: &Replayed, layers: &mut Layers) -> LayerTimes {
    let times = LayerTimes::from_spans(&ctx.tracer.spans());
    for (span, metric, scale) in SELF_TIME_METRICS {
        layers.insert(metric, times.median_self_ns(span) * scale);
    }
    layers.insert("trace.overhead_ratio", replayed.overhead());
    layers.insert("trace.coverage_ratio", times.coverage());
    layers.insert("trace.units", times.unit_ns.len() as f64);
    times
}

/// `hits / (hits + misses)`, 0 when nothing was counted.
pub fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Looks for `expected` as the `name: …` line of `implicitc --batch`
/// output.
pub fn batch_line(stdout: &str, name: &str, expected: &str) -> Result<(), String> {
    let prefix = format!("{name}: ");
    match stdout.lines().find_map(|l| l.strip_prefix(&prefix)) {
        Some(got) if got == expected => Ok(()),
        Some(got) => Err(format!("{name}: expected `{expected}`, got `{got}`")),
        None => Err(format!("{name}: no output line")),
    }
}
