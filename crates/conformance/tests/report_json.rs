//! Pins the bytes of the conformance run report for a fixed run: the
//! per-leg timing object (microsecond sums rendered in milliseconds,
//! then the daemon skip count), the metrics objects, and every other
//! field in order. CI greps this document, so its layout is an
//! interface.

use conformance::report::{DivergenceRecord, LegTimings, RunReport, ShardReport};
use implicit_core::trace::MetricsRegistry;

fn shard(shard: usize, scale: u64) -> ShardReport {
    ShardReport {
        shard,
        seeds: 50,
        programs: 100,
        duration_ms: 40 + scale,
        divergences: scale % 2,
        steals: scale,
        warm_cache_hits: 120 + scale,
        metrics: MetricsRegistry {
            queries: 10 * scale,
            queries_resolved: 9 * scale,
            queries_failed: scale,
            max_query_depth: 3 + scale as usize,
            cache_hits: 7,
            vm_fuel: 1000 + scale,
            programs: 50,
            trims: scale,
            ..MetricsRegistry::new()
        },
        leg_timings: LegTimings {
            program_us: 30_000 + scale,
            session_us: 5_000,
            resolution_us: 3_250 * scale,
            subtyping_us: 2_000,
            restart_us: 1_001,
            wild_us: 0,
            daemon_us: 400 * scale,
            daemon_skips: scale,
        },
    }
}

#[test]
fn run_report_bytes_are_pinned() {
    let report = RunReport {
        seed_lo: 0,
        seed_hi: 100,
        shards: 2,
        wall_ms: 50,
        shard_reports: vec![shard(0, 1), shard(1, 2)],
        coverage: vec![("int_lit", 7), ("query", 3)],
        divergences: vec![DivergenceRecord {
            id: "seed-5".into(),
            seed: 5,
            shard: 1,
            kind: "value_mismatch".into(),
            detail: "elab \"1\" vs opsem \"2\"\n".into(),
            program: "1 + 1".into(),
            minimized: "1".into(),
            original_nodes: 3,
            minimized_nodes: 1,
            replayable: true,
        }],
    };
    let expected = concat!(
        r#"{"seed_lo":0,"seed_hi":100,"shards":2,"wall_ms":50,"cpu_ms":83,"speedup":1.660,"#,
        r#""total_programs":200,"programs_per_sec":4000.000,"divergence_count":1,"#,
        r#""leg_timing":{"program_ms":60.003,"session_ms":10.000,"resolution_ms":9.750,"#,
        r#""subtyping_ms":4.000,"restart_ms":2.002,"wild_ms":0.000,"daemon_ms":1.200,"daemon_skips":3},"#,
        r#""metrics":{"queries":30,"queries_resolved":27,"queries_failed":3,"max_query_depth":5,"#,
        r#""candidates_admitted":0,"candidates_rejected":0,"premises_assumed":0,"cache_hits":14,"#,
        r#""cache_misses":0,"cache_evictions":0,"memo_hits":0,"memo_misses":0,"ic_hits":0,"ic_misses":0,"#,
        r#""instrs_scanned":0,"instrs_fused":0,"tree_runs":0,"tree_fuel":0,"vm_runs":0,"vm_fuel":2003,"#,
        r#""vm_tail_calls":0,"vm_fix_unfolds":0,"vm_match_ic_hits":0,"vm_match_ic_misses":0,"#,
        r#""programs":100,"opsem_programs":0,"compiled_programs":0,"trims":3,"jobs":0,"steals":0,"#,
        r#""artifact_fallbacks":0},"#,
        r#""coverage":{"int_lit":7,"query":3},"#,
        r#""shards_detail":[{"shard":0,"seeds":50,"programs":100,"duration_ms":41,"#,
        r#""programs_per_sec":2439.024,"divergences":1,"steals":1,"warm_cache_hits":121,"#,
        r#""leg_timing":{"program_ms":30.001,"session_ms":5.000,"resolution_ms":3.250,"#,
        r#""subtyping_ms":2.000,"restart_ms":1.001,"wild_ms":0.000,"daemon_ms":0.400,"daemon_skips":1},"#,
        r#""metrics":{"queries":10,"queries_resolved":9,"queries_failed":1,"max_query_depth":4,"#,
        r#""candidates_admitted":0,"candidates_rejected":0,"premises_assumed":0,"cache_hits":7,"#,
        r#""cache_misses":0,"cache_evictions":0,"memo_hits":0,"memo_misses":0,"ic_hits":0,"ic_misses":0,"#,
        r#""instrs_scanned":0,"instrs_fused":0,"tree_runs":0,"tree_fuel":0,"vm_runs":0,"vm_fuel":1001,"#,
        r#""vm_tail_calls":0,"vm_fix_unfolds":0,"vm_match_ic_hits":0,"vm_match_ic_misses":0,"#,
        r#""programs":50,"opsem_programs":0,"compiled_programs":0,"trims":1,"jobs":0,"steals":0,"#,
        r#""artifact_fallbacks":0}},"#,
        r#"{"shard":1,"seeds":50,"programs":100,"duration_ms":42,"#,
        r#""programs_per_sec":2380.952,"divergences":0,"steals":2,"warm_cache_hits":122,"#,
        r#""leg_timing":{"program_ms":30.002,"session_ms":5.000,"resolution_ms":6.500,"#,
        r#""subtyping_ms":2.000,"restart_ms":1.001,"wild_ms":0.000,"daemon_ms":0.800,"daemon_skips":2},"#,
        r#""metrics":{"queries":20,"queries_resolved":18,"queries_failed":2,"max_query_depth":5,"#,
        r#""candidates_admitted":0,"candidates_rejected":0,"premises_assumed":0,"cache_hits":7,"#,
        r#""cache_misses":0,"cache_evictions":0,"memo_hits":0,"memo_misses":0,"ic_hits":0,"ic_misses":0,"#,
        r#""instrs_scanned":0,"instrs_fused":0,"tree_runs":0,"tree_fuel":0,"vm_runs":0,"vm_fuel":1002,"#,
        r#""vm_tail_calls":0,"vm_fix_unfolds":0,"vm_match_ic_hits":0,"vm_match_ic_misses":0,"#,
        r#""programs":50,"opsem_programs":0,"compiled_programs":0,"trims":2,"jobs":0,"steals":0,"#,
        r#""artifact_fallbacks":0}}],"#,
        r#""divergences":[{"id":"seed-5","seed":5,"shard":1,"kind":"value_mismatch","#,
        r#""detail":"elab \"1\" vs opsem \"2\"\n","program":"1 + 1","minimized":"1","#,
        r#""original_nodes":3,"minimized_nodes":1,"replayable":true}]}"#,
    );
    assert_eq!(report.to_json(), expected);
}
