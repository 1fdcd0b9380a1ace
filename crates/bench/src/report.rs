//! Machine-readable bench artifact: `BENCH_vm.json` at the
//! repository root, one section per measurement table (`b13` from
//! `batch_table`, `b14` from `vm_table`, `b15` from `wild_table`,
//! `b16` from `restart_table`, `b17` from `daemon_table`). Each
//! section is an array of
//! `{series, workers, cpus, ms, speedup, checksum}` rows, so the perf
//! trajectory is diffable across PRs and CI can upload a single
//! superset artifact.
//!
//! The tables run as separate test binaries, so a writer must not
//! clobber the others' sections: [`write_section`] re-reads the file
//! with [`parse_json`] and carries every other known section's rows
//! over. Each row is written on a line of its own.
//!
//! Rows record both the worker count the series *requested* and the
//! parallelism the host *offers* ([`detected_parallelism`]): a
//! "4 workers" row measured on a 1-CPU runner is contention, not
//! speedup, and downstream consumers must be able to tell the two
//! apart. The table binaries skip multi-worker series outright on
//! single-CPU hosts.

use std::fmt::Write as _;
use std::path::PathBuf;

use implicit_core::json::{parse_json, Json};

/// Every section a `BENCH_vm.json` may contain, in file order.
const SECTIONS: [&str; 5] = ["b13", "b14", "b15", "b16", "b17"];

/// The parallelism the host actually offers, with 1 as the
/// conservative fallback when the query fails (cgroup-restricted
/// runners). Multi-worker series are meaningless when this is 1.
pub fn detected_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One measured series: label, worker count, host parallelism,
/// best-of wall time, speedup against the table's baseline series,
/// and the cross-engine checksum that pins the run as semantically
/// valid.
pub struct BenchRow {
    /// Stable series label (matches the markdown table row).
    pub series: String,
    /// Worker threads the series ran with.
    pub workers: usize,
    /// Host parallelism at measurement time
    /// ([`detected_parallelism`]); rows with `workers > cpus` measure
    /// contention and carry no speedup claim.
    pub cpus: usize,
    /// Best-of-reps wall time in milliseconds.
    pub ms: f64,
    /// Ratio of the baseline series' time to this one.
    pub speedup: f64,
    /// The run's checksum (step total, value sum — table-specific).
    pub checksum: u64,
}

impl BenchRow {
    /// A single-worker row — the common case for every series that
    /// isn't explicitly a scaling measurement.
    pub fn single(series: &str, ms: f64, speedup: f64, checksum: u64) -> Self {
        BenchRow {
            series: series.to_string(),
            workers: 1,
            cpus: detected_parallelism(),
            ms,
            speedup,
            checksum,
        }
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("series", Json::Str(self.series.clone())),
            ("workers", Json::Int(self.workers as i64)),
            ("cpus", Json::Int(self.cpus as i64)),
            ("ms", Json::Num(self.ms)),
            ("speedup", Json::Num(self.speedup)),
            ("checksum", Json::Int(self.checksum as i64)),
        ])
    }
}

/// Repository-root path of the artifact.
pub fn artifact_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_vm.json")
}

/// Writes (or replaces) one section of `BENCH_vm.json`, preserving
/// the other sections already on disk. Returns the path written.
///
/// # Panics
///
/// Panics if `section` is not one of the known [`SECTIONS`] or the
/// file cannot be written — a bench artifact that silently fails to
/// land is worse than a loud one.
pub fn write_section(section: &str, rows: &[BenchRow]) -> PathBuf {
    assert!(
        SECTIONS.contains(&section),
        "unknown BENCH_vm.json section `{section}`"
    );
    let path = artifact_path();
    let existing = std::fs::read_to_string(&path).unwrap_or_default();
    std::fs::write(&path, merge_section(&existing, section, rows)).expect("write BENCH_vm.json");
    path
}

/// The artifact text with `section` holding `rows` and every other
/// known section carried over from `existing` (empty when `existing`
/// does not parse or lacks it).
fn merge_section(existing: &str, section: &str, rows: &[BenchRow]) -> String {
    let existing = parse_json(existing).ok();
    let mut out = String::from("{\n");
    for (i, name) in SECTIONS.iter().enumerate() {
        let rows: Vec<Json> = if *name == section {
            rows.iter().map(BenchRow::to_json).collect()
        } else {
            let kept = existing.as_ref().and_then(|d| d.get(name)?.as_arr());
            kept.map(<[Json]>::to_vec).unwrap_or_default()
        };
        let body = if rows.is_empty() {
            String::from("[]")
        } else {
            let lines: Vec<String> = rows.iter().map(|r| format!("    {}", r.render())).collect();
            format!("[\n{}\n  ]", lines.join(",\n"))
        };
        let comma = if i + 1 < SECTIONS.len() { "," } else { "" };
        let _ = writeln!(out, "  \"{name}\": {body}{comma}");
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn written_section_and_carried_sections_round_trip() {
        let rows = vec![
            BenchRow::single("warm \"tree\"", 563.712, 1.0, 42),
            BenchRow {
                series: String::from("warm vm"),
                workers: 4,
                cpus: 8,
                ms: 61.5,
                speedup: 9.17,
                checksum: 42,
            },
        ];
        // A file in the older spaced layout, with a b15 section to keep
        // and an unknown section to drop.
        let old = concat!(
            "{\n  \"b13\": [],\n  \"b15\": [\n",
            "    {\"series\": \"wild\", \"workers\": 1, \"cpus\": 2, ",
            "\"ms\": 3.250, \"speedup\": 1.000, \"checksum\": 7}\n  ],\n",
            "  \"b99\": [{\"series\": \"gone\"}]\n}\n"
        );
        let text = merge_section(old, "b14", &rows);
        let cpus = detected_parallelism();
        assert_eq!(
            text,
            format!(
                "{{\n  \"b13\": [],\n  \"b14\": [\n    \
                 {{\"series\":\"warm \\\"tree\\\"\",\"workers\":1,\"cpus\":{cpus},\
                 \"ms\":563.712,\"speedup\":1.000,\"checksum\":42}},\n    \
                 {{\"series\":\"warm vm\",\"workers\":4,\"cpus\":8,\
                 \"ms\":61.500,\"speedup\":9.170,\"checksum\":42}}\n  ],\n  \
                 \"b15\": [\n    {{\"series\":\"wild\",\"workers\":1,\"cpus\":2,\
                 \"ms\":3.250,\"speedup\":1.000,\"checksum\":7}}\n  ],\n  \
                 \"b16\": [],\n  \"b17\": []\n}}\n"
            )
        );
        // Rewriting another section keeps this one's rows as they are.
        let again = merge_section(&text, "b16", &[]);
        assert_eq!(again, text);
        let doc = parse_json(&again).expect("the artifact parses");
        assert!(doc.get("b99").is_none());
        assert_eq!(
            doc.get("b14").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        // An unreadable file is replaced, not merged.
        assert!(merge_section("{ not json", "b13", &[]).starts_with("{\n  \"b13\": [],"));
    }

    #[test]
    fn detected_parallelism_is_at_least_one() {
        assert!(detected_parallelism() >= 1);
    }
}
