//! `perfbench` — one benchmark for the user paths of the implicit
//! calculus: a cold `implicitc` per program, a warm `--batch`, a
//! restart from the artifact store (read and edit), and `implicitd`
//! round trips.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --compare <a.jsonl> <b.jsonl>
//! ```
//!
//! Untraced runs drive the shipped binaries and report the end-to-end
//! metrics; traced runs replay the same inputs in process under spans
//! and report the per-layer metrics. Either way every output is
//! checked against a reference, the metrics are printed by name and
//! unit, the run is appended to `<target>/bench/results.jsonl`, and
//! the last line of standard output is the JSON result. See
//! `README.md` for the workloads and metrics.

mod corpus;
mod proc;
mod results;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use results::Report;
use spans::{Span, Tracer};
use workloads::{Ctx, Layers};

/// The workloads, as named on the command line.
const WORKLOADS: [&str; 5] = [
    "cold-cli",
    "warm-batch",
    "restart",
    "restart-edit",
    "daemon",
];

/// End-to-end metrics (untraced runs), in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced runs), in `BENCHMARK.json` order. A
/// layer that does not run on a workload reads 0 there.
const PER_LAYER: [(&str, &str); 41] = [
    ("source.self_ms", "ms"),
    ("source.bytes_per_s", "B/s"),
    ("core.parse.self_ms", "ms"),
    ("core.typeck.self_ms", "ms"),
    ("core.resolve.queries", "count"),
    ("core.resolve.admitted_ratio", "ratio"),
    ("core.resolve.cache_hit_ratio", "ratio"),
    ("core.resolve.self_us", "us"),
    ("elab.self_ms", "ms"),
    ("systemf.typeck.self_ms", "ms"),
    ("systemf.eval.self_ms", "ms"),
    ("systemf.eval.fuel", "count"),
    ("systemf.compile.self_ms", "ms"),
    ("systemf.compile.fused_ratio", "ratio"),
    ("systemf.vm.self_ms", "ms"),
    ("systemf.vm.fuel", "count"),
    ("systemf.vm.match_ic_hit_ratio", "ratio"),
    ("opsem.self_ms", "ms"),
    ("opsem.memo_hit_ratio", "ratio"),
    ("process.self_ms", "ms"),
    ("pipeline.session.build_ms", "ms"),
    ("pipeline.artifact.key_ms", "ms"),
    ("pipeline.artifact.load_ms", "ms"),
    ("pipeline.artifact.decode_ms", "ms"),
    ("pipeline.artifact.rehydrate_ms", "ms"),
    ("pipeline.artifact.bytes", "B"),
    ("pipeline.artifact.fallbacks", "count"),
    ("pipeline.artifact.rebuild_ms", "ms"),
    ("pipeline.artifact.reused_ratio", "ratio"),
    ("pipeline.artifact.encode_ms", "ms"),
    ("pipeline.artifact.save_ms", "ms"),
    ("pipeline.service.json_us", "us"),
    ("pipeline.service.frame_us", "us"),
    ("pipeline.service.execute_us", "us"),
    ("pipeline.service.transport_queue_us", "us"),
    ("pipeline.service.rejected_overload", "count"),
    ("pipeline.service.errors", "count"),
    ("pipeline.service.panics", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage_ratio", "ratio"),
    ("trace.units", "count"),
];

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
       perfbench --compare <a.jsonl> <b.jsonl>
workloads: cold-cli warm-batch restart restart-edit daemon";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Mode {
    Run(Args),
    Compare(String, String),
}

fn parse_args(argv: &[String]) -> Result<Mode, String> {
    if argv.first().map(String::as_str) == Some("--compare") {
        return match argv {
            [_, a, b] => Ok(Mode::Compare(a.clone(), b.clone())),
            _ => Err("--compare takes two results files".to_owned()),
        };
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value.as_str())
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(Mode::Run(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    }))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&argv) {
        Err(e) => Err(format!("{e}\n{USAGE}")),
        Ok(Mode::Compare(a, b)) => results::compare("BENCHMARK.json", &a, &b).map(|table| {
            print!("{table}");
        }),
        Ok(Mode::Run(args)) => run(&args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The cargo target directory the binaries were built into.
fn target_dir() -> Result<PathBuf, String> {
    let dir =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    std::path::absolute(&dir).map_err(|e| format!("target dir: {e}"))
}

fn binary(target: &Path, name: &str) -> Result<PathBuf, String> {
    let path = target.join("release").join(name);
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} is missing; build it with `cargo build --release --bin {name}`",
            path.display()
        ))
    }
}

fn run(args: &Args) -> Result<(), String> {
    let target = target_dir()?;
    let bench_dir = target.join("bench");
    let work = bench_dir.join(format!("work-{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let implicitc = binary(&target, "implicitc")?;
    let implicitd = binary(&target, "implicitd")?;
    let (workload, seed, seconds, trace) = (args.workload, args.seed, args.seconds, args.trace);
    let thread_work = work.clone();
    // Deep programs recurse deeply in the in-process replay; give it
    // the stack headroom the CLI's own worker threads have.
    let outcome = std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(move || {
            let ctx = Ctx {
                implicitc,
                implicitd,
                work: thread_work,
                seed,
                seconds,
                trace,
                tracer: Tracer::new(),
            };
            measure(&ctx, workload).map(|(report, layers)| (report, layers, ctx.tracer.spans()))
        })
        .map_err(|e| format!("cannot spawn the benchmark thread: {e}"))?
        .join()
        .map_err(|_| "the benchmark thread panicked".to_owned())?;
    let _ = std::fs::remove_dir_all(&work);
    let (mut report, layers, spans) = outcome?;

    if trace {
        for (name, unit) in PER_LAYER {
            report.push(name, layers.get(name).copied().unwrap_or(0.0), unit);
        }
        write_trace(&bench_dir, workload, &spans)?;
    }
    let expected: Vec<&str> = if trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    }
    .iter()
    .map(|(n, _)| *n)
    .collect();
    let got: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
    assert_eq!(got, expected, "a workload reported metrics out of contract");

    println!(
        "workload {workload}, seed {seed}, {seconds} s, {}: {} checks, {} failed, {} latency samples",
        if trace { "traced" } else { "untraced" },
        report.attempted,
        report.failed,
        report.samples
    );
    for m in &report.metrics {
        println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for f in &report.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    let host = results::host_fingerprint(seed, seconds);
    let doc = results::run_document(workload, trace, host, &report);
    let path = bench_dir.join("results.jsonl");
    results::append(&path, &doc).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{}", report.result_line());
    Ok(())
}

/// Runs one workload and returns its report and per-layer values.
fn measure(ctx: &Ctx, workload: &str) -> Result<(Report, Layers), String> {
    let mut report = Report::default();
    let mut layers = Layers::new();
    match workload {
        "cold-cli" => workloads::cold_cli::run(ctx, &mut report, &mut layers)?,
        "warm-batch" => workloads::warm_batch::run(ctx, &mut report, &mut layers)?,
        "restart" => workloads::restart::run(ctx, &mut report, &mut layers, false)?,
        "restart-edit" => workloads::restart::run(ctx, &mut report, &mut layers, true)?,
        "daemon" => workloads::daemon::run(ctx, &mut report, &mut layers)?,
        other => unreachable!("workload `{other}` passed argument parsing"),
    }
    Ok((report, layers))
}

fn write_trace(dir: &Path, workload: &str, spans: &[Span]) -> Result<(), String> {
    let path = dir.join(format!("trace-{workload}.json"));
    std::fs::write(&path, spans::trace_json(spans).render())
        .map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use implicit_pipeline::service::{parse_json, Json};

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.str_field("name").unwrap().to_owned(),
                        m.str_field("unit").unwrap().to_owned(),
                    )
                })
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
        let names: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.str_field("name").unwrap().to_owned())
            .collect();
        assert_eq!(names, WORKLOADS);
    }
}
