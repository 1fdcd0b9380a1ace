//! Machine-readable run reports.
//!
//! The harness emits a single JSON document per sweep: per-shard
//! throughput (so future perf PRs can regress-check programs/sec),
//! the generator coverage histogram, and every divergence with its
//! minimized reproducer. The encoder is the repository's one JSON
//! value ([`implicit_core::json`]), the same one the daemon wire
//! protocol speaks, so a report value can be framed to `implicitd`
//! verbatim and vice versa.

use implicit_core::json::Json;
use implicit_core::trace::MetricsRegistry;

implicit_core::counter_table! {
    /// Wall time spent inside each oracle leg, accumulated per shard in
    /// microseconds (reported in milliseconds, as `<leg>_ms`), so the
    /// cost of every leg is visible in the JSON report.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct LegTimings {
        {
            /// The program oracle (typecheck, 3× elaboration, VM, opsem,
            /// per-site subtyping cross-check).
            program_us: u64,
            /// The warm/cold session oracle.
            session_us: u64,
            /// The env-level resolution oracle.
            resolution_us: u64,
            /// The env-level subtyping oracle.
            subtyping_us: u64,
            /// The rehydrated-session (warm-restart) oracle.
            restart_us: u64,
            /// The wild-mode oracle (wild sweeps only).
            wild_us: u64,
            /// The daemon oracle: an `implicitd` tenant served over the
            /// wire must agree with the in-process warm session (daemon
            /// sweeps only).
            daemon_us: u64,
            /// Not a time: the seeds the daemon oracle skipped because
            /// the printed program did not parse back.
            daemon_skips: u64,
        }
    }
}

/// Per-shard throughput numbers.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Seeds this shard processed.
    pub seeds: u64,
    /// Oracle runs (one program + one resolution workload per seed).
    pub programs: u64,
    /// Wall time spent inside the shard's worker thread.
    pub duration_ms: u64,
    /// Divergences this shard found.
    pub divergences: u64,
    /// Seeds this worker stole from a sibling's local deque.
    pub steals: u64,
    /// Warm-session derivation-cache hits accumulated by this
    /// worker's [`implicit_pipeline::Session`] across its seeds.
    pub warm_cache_hits: u64,
    /// The worker session's unified counter snapshot (resolution,
    /// cache, memo, evaluator, and session counters; DESIGN.md S28).
    pub metrics: MetricsRegistry,
    /// Per-oracle-leg wall time accumulated across this shard's
    /// seeds.
    pub leg_timings: LegTimings,
}

impl ShardReport {
    /// Programs per second, guarding the division.
    pub fn programs_per_sec(&self) -> f64 {
        if self.duration_ms == 0 {
            self.programs as f64 * 1000.0
        } else {
            self.programs as f64 * 1000.0 / self.duration_ms as f64
        }
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("shard", Json::Int(self.shard as i64)),
            ("seeds", Json::Int(self.seeds as i64)),
            ("programs", Json::Int(self.programs as i64)),
            ("duration_ms", Json::Int(self.duration_ms as i64)),
            ("programs_per_sec", Json::Num(self.programs_per_sec())),
            ("divergences", Json::Int(self.divergences as i64)),
            ("steals", Json::Int(self.steals as i64)),
            ("warm_cache_hits", Json::Int(self.warm_cache_hits as i64)),
            ("leg_timing", self.leg_timings.to_json()),
            ("metrics", self.metrics.to_json()),
        ])
    }
}

/// A persisted divergence: everything needed to replay and triage.
#[derive(Clone, Debug)]
pub struct DivergenceRecord {
    /// Corpus id (also the corpus file stem).
    pub id: String,
    /// The generating seed.
    pub seed: u64,
    /// The shard that found it.
    pub shard: usize,
    /// Divergence category (stable machine-readable label).
    pub kind: String,
    /// Human-readable oracle verdicts.
    pub detail: String,
    /// The original program, pretty-printed.
    pub program: String,
    /// The minimized program, pretty-printed.
    pub minimized: String,
    /// AST node count before shrinking.
    pub original_nodes: usize,
    /// AST node count after shrinking.
    pub minimized_nodes: usize,
    /// Whether the pretty-printed program parses back identically
    /// (replayable via `conformance --replay`).
    pub replayable: bool,
}

impl DivergenceRecord {
    /// The record's JSON metadata (the corpus `.json` side file).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("id", Json::Str(self.id.clone())),
            ("seed", Json::Int(self.seed as i64)),
            ("shard", Json::Int(self.shard as i64)),
            ("kind", Json::Str(self.kind.clone())),
            ("detail", Json::Str(self.detail.clone())),
            ("program", Json::Str(self.program.clone())),
            ("minimized", Json::Str(self.minimized.clone())),
            ("original_nodes", Json::Int(self.original_nodes as i64)),
            ("minimized_nodes", Json::Int(self.minimized_nodes as i64)),
            ("replayable", Json::Bool(self.replayable)),
        ])
    }
}

/// The whole-run report.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// First seed (inclusive).
    pub seed_lo: u64,
    /// Last seed (exclusive).
    pub seed_hi: u64,
    /// Worker thread count.
    pub shards: usize,
    /// Wall time of the whole sweep (max over shards + join).
    pub wall_ms: u64,
    /// Per-shard numbers.
    pub shard_reports: Vec<ShardReport>,
    /// Generator coverage histogram (construct → emission count).
    pub coverage: Vec<(&'static str, u64)>,
    /// All divergences, shrunk.
    pub divergences: Vec<DivergenceRecord>,
}

impl RunReport {
    /// Total oracle runs across shards.
    pub fn total_programs(&self) -> u64 {
        self.shard_reports.iter().map(|s| s.programs).sum()
    }

    /// The per-shard metric snapshots merged into one sweep-wide
    /// registry.
    pub fn total_metrics(&self) -> MetricsRegistry {
        let mut total = MetricsRegistry::new();
        for s in &self.shard_reports {
            total.merge(&s.metrics);
        }
        total
    }

    /// The per-shard leg timings summed sweep-wide.
    pub fn total_leg_timings(&self) -> LegTimings {
        let mut total = LegTimings::default();
        for s in &self.shard_reports {
            total.merge(&s.leg_timings);
        }
        total
    }

    /// Sum of per-shard worker durations (the "serial cost"); the
    /// ratio against `wall_ms` is the observed shard speedup.
    pub fn cpu_ms(&self) -> u64 {
        self.shard_reports.iter().map(|s| s.duration_ms).sum()
    }

    /// Observed speedup: serial cost over wall time (≈ shard count
    /// when scaling is near-linear).
    pub fn speedup(&self) -> f64 {
        if self.wall_ms == 0 {
            self.shards as f64
        } else {
            self.cpu_ms() as f64 / self.wall_ms as f64
        }
    }

    /// Aggregate throughput over wall time.
    pub fn programs_per_sec(&self) -> f64 {
        if self.wall_ms == 0 {
            self.total_programs() as f64 * 1000.0
        } else {
            self.total_programs() as f64 * 1000.0 / self.wall_ms as f64
        }
    }

    /// Renders the report as a JSON document.
    pub fn to_json(&self) -> String {
        Json::obj(vec![
            ("seed_lo", Json::Int(self.seed_lo as i64)),
            ("seed_hi", Json::Int(self.seed_hi as i64)),
            ("shards", Json::Int(self.shards as i64)),
            ("wall_ms", Json::Int(self.wall_ms as i64)),
            ("cpu_ms", Json::Int(self.cpu_ms() as i64)),
            ("speedup", Json::Num(self.speedup())),
            ("total_programs", Json::Int(self.total_programs() as i64)),
            ("programs_per_sec", Json::Num(self.programs_per_sec())),
            ("divergence_count", Json::Int(self.divergences.len() as i64)),
            ("leg_timing", self.total_leg_timings().to_json()),
            ("metrics", self.total_metrics().to_json()),
            (
                "coverage",
                Json::Obj(
                    self.coverage
                        .iter()
                        .map(|(k, v)| ((*k).to_owned(), Json::Int(*v as i64)))
                        .collect(),
                ),
            ),
            (
                "shards_detail",
                Json::Arr(self.shard_reports.iter().map(|s| s.to_json()).collect()),
            ),
            (
                "divergences",
                Json::Arr(self.divergences.iter().map(|d| d.to_json()).collect()),
            ),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_renders() {
        let j = Json::obj(vec![
            ("s", Json::Str("a\"b\\c\nd".into())),
            ("n", Json::Int(-3)),
            ("x", Json::Num(1.5)),
            ("b", Json::Bool(true)),
            ("z", Json::Null),
            ("a", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
        ]);
        assert_eq!(
            j.render(),
            r#"{"s":"a\"b\\c\nd","n":-3,"x":1.500,"b":true,"z":null,"a":[1,2]}"#
        );
    }

    #[test]
    fn report_aggregates() {
        let report = RunReport {
            seed_lo: 0,
            seed_hi: 100,
            shards: 2,
            wall_ms: 50,
            shard_reports: vec![
                ShardReport {
                    shard: 0,
                    seeds: 50,
                    programs: 50,
                    duration_ms: 40,
                    divergences: 0,
                    steals: 3,
                    warm_cache_hits: 120,
                    metrics: MetricsRegistry {
                        queries: 10,
                        queries_resolved: 10,
                        ..MetricsRegistry::new()
                    },
                    leg_timings: LegTimings {
                        program_us: 30_000,
                        session_us: 5_000,
                        resolution_us: 3_000,
                        subtyping_us: 2_000,
                        restart_us: 1_000,
                        wild_us: 0,
                        daemon_us: 400,
                        daemon_skips: 1,
                    },
                },
                ShardReport {
                    shard: 1,
                    seeds: 50,
                    programs: 50,
                    duration_ms: 45,
                    divergences: 0,
                    steals: 0,
                    warm_cache_hits: 118,
                    metrics: MetricsRegistry {
                        queries: 12,
                        queries_resolved: 12,
                        ..MetricsRegistry::new()
                    },
                    leg_timings: LegTimings {
                        program_us: 32_500,
                        session_us: 6_000,
                        resolution_us: 3_500,
                        subtyping_us: 2_500,
                        restart_us: 1_500,
                        wild_us: 0,
                        daemon_us: 600,
                        daemon_skips: 2,
                    },
                },
            ],
            coverage: vec![("int_lit", 7)],
            divergences: vec![],
        };
        assert_eq!(report.total_programs(), 100);
        assert_eq!(report.cpu_ms(), 85);
        assert!(report.speedup() > 1.0);
        assert_eq!(report.total_metrics().queries, 22);
        let json = report.to_json();
        assert!(json.contains("\"total_programs\":100"), "got {json}");
        assert!(json.contains("\"int_lit\":7"), "got {json}");
        // Sweep-wide metrics merge, and every shard carries its own.
        assert!(json.contains("\"queries\":22"), "got {json}");
        assert!(json.contains("\"queries\":10"), "got {json}");
        assert!(json.contains("\"queries\":12"), "got {json}");
        // Per-leg timings merge sweep-wide and render in ms.
        let total = report.total_leg_timings();
        assert_eq!(total.program_us, 62_500);
        assert_eq!(total.subtyping_us, 4_500);
        assert_eq!(total.restart_us, 2_500);
        assert_eq!(total.daemon_us, 1_000);
        assert!(json.contains("\"subtyping_ms\":4.500"), "got {json}");
        assert!(json.contains("\"restart_ms\":2.500"), "got {json}");
        assert!(json.contains("\"program_ms\":62.500"), "got {json}");
        assert!(json.contains("\"wild_ms\":0.000"), "got {json}");
        // The daemon leg's skip count sits next to its time.
        assert!(
            json.contains("\"daemon_ms\":1.000,\"daemon_skips\":3"),
            "got {json}"
        );
    }
}
