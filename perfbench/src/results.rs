//! Run reports: the result line, the results file, and `--compare`.
//!
//! Documents are built as [`Json`] values and parsed back with
//! [`parse_json`]. `Json::render` prints floats to three decimals,
//! which would round small timings away, so [`render`] walks the same
//! tree and prints numbers with every digit.

use std::collections::BTreeMap;
use std::path::Path;

use implicit_pipeline::service::{parse_json, Json};

use crate::stats::quartiles;

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Everything one run measured.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Outputs checked against their references.
    pub attempted: u64,
    /// Checks that failed (wrong output, error, or timeout).
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    /// Latency samples behind the percentile metrics.
    pub samples: usize,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Counts one check; `Err` is a failure with its description.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.failures.len() < 10 {
                self.failures.push(e);
            }
        }
    }

    /// Adds a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The `metrics` object: `{name: {"value": v, "unit": u}}`.
    pub fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.to_owned(),
                        Json::obj(vec![
                            ("value", Json::Num(m.value)),
                            ("unit", Json::Str(m.unit.to_owned())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The single result line the benchmark prints last.
    pub fn result_line(&self) -> String {
        render(&Json::obj(vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", self.metrics_json()),
        ]))
    }
}

/// Renders `j` as compact JSON with full-precision numbers.
pub fn render(j: &Json) -> String {
    match j {
        // Rust's float Display is the shortest exact round trip and
        // never uses exponent notation, so it is valid JSON.
        Json::Num(x) if x.is_finite() => format!("{x}"),
        Json::Arr(items) => {
            let inner: Vec<String> = items.iter().map(render).collect();
            format!("[{}]", inner.join(","))
        }
        Json::Obj(fields) => {
            let inner: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{}:{}", Json::Str(k.clone()).render(), render(v)))
                .collect();
            format!("{{{}}}", inner.join(","))
        }
        other => other.render(),
    }
}

/// Identifies the machine and build a result came from.
pub fn host_fingerprint(seed: u64, seconds: f64) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let command = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_else(|| "unknown".to_owned())
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj(vec![
        ("nproc", Json::Int(nproc as i64)),
        ("cpu", Json::Str(cpu)),
        ("rustc", Json::Str(command("rustc", &["-V"]))),
        ("commit", Json::Str(command("git", &["rev-parse", "HEAD"]))),
        ("seed", Json::Int(seed as i64)),
        ("seconds", Json::Num(seconds)),
    ])
}

/// One line of the results file.
pub fn run_document(workload: &str, trace: bool, host: Json, report: &Report) -> Json {
    Json::obj(vec![
        ("workload", Json::Str(workload.to_owned())),
        ("trace", Json::Bool(trace)),
        ("host", host),
        ("attempted", Json::Int(report.attempted as i64)),
        ("failed", Json::Int(report.failed as i64)),
        ("samples", Json::Int(report.samples as i64)),
        ("metrics", report.metrics_json()),
    ])
}

/// Appends one run document to the results file (JSON Lines).
pub fn append(path: &Path, doc: &Json) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{}", render(doc))
}

/// `workload → metric → values`, from the untraced runs in a results
/// file.
type Samples = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load_samples(path: &str) -> Result<Samples, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let mut out: Samples = BTreeMap::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = parse_json(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        if doc.get("trace").and_then(Json::as_bool) == Some(true) {
            continue;
        }
        let workload = doc.str_field("workload").unwrap_or("?").to_owned();
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(as_f64) {
                out.entry(workload.clone())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

fn as_f64(j: &Json) -> Option<f64> {
    match j {
        Json::Num(x) => Some(*x),
        Json::Int(n) => Some(*n as f64),
        _ => None,
    }
}

/// An end-to-end metric's contract from `BENCHMARK.json`.
struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn load_bounds(path: &str) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let doc = parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let entries = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no `end_to_end` list"))?;
    entries
        .iter()
        .map(|e| {
            Ok(Bound {
                name: e
                    .str_field("name")
                    .ok_or("metric without a name")?
                    .to_owned(),
                lower_is_better: e.str_field("better") == Some("lower"),
                bound: e
                    .get("bound")
                    .and_then(as_f64)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// How a metric moved between two sets of runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Improved,
    /// Worse by more than the bound.
    Regressed,
    /// Within the bound.
    Unchanged,
    /// The run-to-run spread exceeds the bound, and the runs overlap.
    Unresolved,
}

/// Judges `b` against `a` under `bound` (a share of `a`'s median).
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let spread = |v: &[f64]| match quartiles(v) {
        Some((q1, med, q3)) if med != 0.0 => (q3 - q1).abs() / med.abs(),
        _ => 0.0,
    };
    let (ma, mb) = (crate::stats::median(a), crate::stats::median(b));
    let worse = |x: f64, y: f64| if lower_is_better { x > y } else { x < y };
    let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
    let worsening = if lower_is_better { change } else { -change };
    if spread(a).max(spread(b)) > bound {
        // Too noisy to call, unless the two sets do not overlap at all.
        if b.iter().all(|&y| a.iter().all(|&x| worse(x, y))) {
            return Verdict::Improved;
        }
        if b.iter().all(|&y| a.iter().all(|&x| worse(y, x))) {
            return Verdict::Regressed;
        }
        return Verdict::Unresolved;
    }
    if worsening > bound {
        Verdict::Regressed
    } else if worsening < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// `--compare a b`: per workload and end-to-end metric, both medians
/// and quartiles, the change against the bound, and a verdict.
pub fn compare(benchmark_json: &str, a: &str, b: &str) -> Result<String, String> {
    use std::fmt::Write as _;
    let bounds = load_bounds(benchmark_json)?;
    let (sa, sb) = (load_samples(a)?, load_samples(b)?);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:<16} {:>30} {:>30} {:>9} {:>6}  verdict",
        "workload", "metric", "a: median [q1, q3]", "b: median [q1, q3]", "change", "bound"
    );
    let fmt = |v: &[f64]| match quartiles(v) {
        Some((q1, m, q3)) => format!("{m:.4} [{q1:.4}, {q3:.4}] n={}", v.len()),
        None => format!("{:.4} n={}", crate::stats::median(v), v.len()),
    };
    for (workload, ma) in &sa {
        let Some(mb) = sb.get(workload) else { continue };
        for bound in &bounds {
            let (Some(va), Some(vb)) = (ma.get(&bound.name), mb.get(&bound.name)) else {
                continue;
            };
            let (meda, medb) = (crate::stats::median(va), crate::stats::median(vb));
            let change = if meda == 0.0 {
                0.0
            } else {
                (medb - meda) / meda.abs()
            };
            let v = verdict(va, vb, bound.lower_is_better, bound.bound);
            let _ = writeln!(
                out,
                "{:<12} {:<16} {:>30} {:>30} {:>+8.1}% {:>5.0}%  {:?}",
                workload,
                bound.name,
                fmt(va),
                fmt(vb),
                change * 100.0,
                bound.bound * 100.0,
                v
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_document_round_trips_with_full_precision() {
        let mut report = Report::default();
        report.check(Ok(()));
        report.check(Err("wrong".into()));
        report.samples = 1234;
        report.push("latency_p50_ms", 1.234_567_891_2, "ms");
        report.push("setup_s", 0.000_123_456_7, "s");
        let host = Json::obj(vec![("nproc", Json::Int(2))]);
        let doc = run_document("cold-cli", false, host, &report);
        let back = parse_json(&render(&doc)).unwrap();
        assert_eq!(render(&back), render(&doc));
        assert_eq!(back.str_field("workload"), Some("cold-cli"));
        assert_eq!(back.int_field("failed"), Some(1));
        let m = back.get("metrics").unwrap();
        let v = m
            .get("setup_s")
            .and_then(|s| s.get("value"))
            .and_then(as_f64);
        assert_eq!(v, Some(0.000_123_456_7));

        let line = parse_json(&report.result_line()).unwrap();
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(line.int_field("attempted"), Some(2));
        let keys: Vec<&str> = match &line {
            Json::Obj(f) => f.iter().map(|(k, _)| k.as_str()).collect(),
            _ => unreachable!(),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    #[test]
    fn verdicts_respect_bound_and_spread() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        let steady_worse = [11.5, 11.6, 11.4, 11.5, 11.55];
        let same = [10.02, 9.98, 10.0, 10.1, 9.95];
        assert_eq!(verdict(&a, &steady_worse, true, 0.1), Verdict::Regressed);
        assert_eq!(verdict(&a, &steady_worse, false, 0.1), Verdict::Improved);
        assert_eq!(verdict(&a, &same, true, 0.1), Verdict::Unchanged);
        let noisy = [5.0, 15.0, 10.0, 7.0, 13.0];
        assert_eq!(verdict(&a, &noisy, true, 0.1), Verdict::Unresolved);
    }
}
