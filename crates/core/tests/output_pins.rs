//! Byte-level pins on the two text outputs the observability layer
//! hands to users: the Chrome trace document (`implicitc --trace`)
//! and the `--metrics` table. Both are consumed by tools and by eye,
//! so a refactor of their writers must leave every byte in place.

use implicit_core::trace::{chrome_trace_json, ChromeRow, MetricsRegistry, Phase, TraceEvent};

/// One row per [`TraceEvent`] kind, with text that needs escaping and
/// both numeric and boolean arguments.
fn every_event_kind() -> Vec<ChromeRow> {
    let q = || "Int \"q\" \\ x\n\t\u{1}é".to_owned();
    let events = vec![
        TraceEvent::PhaseStart {
            phase: Phase::Elaborate,
        },
        TraceEvent::QueryEnter {
            query: q(),
            depth: 2,
            measure: 7,
        },
        TraceEvent::CacheHit { query: q() },
        TraceEvent::CacheMiss {
            query: "Bool".into(),
        },
        TraceEvent::CandidateAdmitted {
            frame: 0,
            index: 3,
            rule: "forall a. {a} => a * a".into(),
        },
        TraceEvent::CandidateRejected {
            frame: 1,
            index: 0,
            rule: "Int".into(),
        },
        TraceEvent::AssumptionUsed {
            level: 1,
            index: 2,
            rule: "{Int} => Bool".into(),
        },
        TraceEvent::PremiseAssumed {
            index: 4,
            rho: "Int".into(),
        },
        TraceEvent::QueryResolved {
            query: q(),
            steps: 3,
        },
        TraceEvent::QueryFailed {
            query: "Str".into(),
            error: "no rule matches type `Str`".into(),
        },
        TraceEvent::MemoHit {
            query: "Int".into(),
        },
        TraceEvent::MemoMiss {
            query: "Int".into(),
        },
        TraceEvent::IcHit {
            query: "Int * Int".into(),
        },
        TraceEvent::IcMiss {
            query: "[Int]".into(),
        },
        TraceEvent::PhaseEnd {
            phase: Phase::Elaborate,
        },
        TraceEvent::PhaseStart {
            phase: Phase::Compile,
        },
        TraceEvent::Fusion {
            scanned: 40,
            fused: 6,
        },
        TraceEvent::PhaseEnd {
            phase: Phase::Compile,
        },
        TraceEvent::TreeEval { fuel: 12 },
        TraceEvent::VmRun {
            fuel: 99,
            tail_calls: 5,
            fix_unfolds: 4,
            match_ic_hits: 3,
            match_ic_misses: 1,
        },
        TraceEvent::JobStart {
            worker: 1,
            job: 8,
            stolen: true,
        },
        TraceEvent::JobFinish {
            worker: 1,
            job: 8,
            ok: false,
        },
    ];
    events
        .into_iter()
        .enumerate()
        .map(|(i, ev)| (1 + (i as u64 % 2), 10 * i as u64, ev))
        .collect()
}

#[test]
fn chrome_trace_bytes_are_pinned() {
    let expected = concat!(
        r#"{"traceEvents":["#,
        r#"{"name":"elaborate","cat":"phase","ph":"B","ts":0,"pid":1,"tid":1},"#,
        r#"{"name":"query_enter","cat":"resolution","ph":"i","ts":10,"pid":1,"tid":2,"s":"t","args":{"query":"Int \"q\" \\ x\n\t\u0001é","depth":2,"measure":7}},"#,
        r#"{"name":"cache_hit","cat":"resolution","ph":"i","ts":20,"pid":1,"tid":1,"s":"t","args":{"query":"Int \"q\" \\ x\n\t\u0001é"}},"#,
        r#"{"name":"cache_miss","cat":"resolution","ph":"i","ts":30,"pid":1,"tid":2,"s":"t","args":{"query":"Bool"}},"#,
        r#"{"name":"candidate_admitted","cat":"resolution","ph":"i","ts":40,"pid":1,"tid":1,"s":"t","args":{"frame":0,"index":3,"rule":"forall a. {a} => a * a"}},"#,
        r#"{"name":"candidate_rejected","cat":"resolution","ph":"i","ts":50,"pid":1,"tid":2,"s":"t","args":{"frame":1,"index":0,"rule":"Int"}},"#,
        r#"{"name":"assumption_used","cat":"resolution","ph":"i","ts":60,"pid":1,"tid":1,"s":"t","args":{"level":1,"index":2,"rule":"{Int} => Bool"}},"#,
        r#"{"name":"premise_assumed","cat":"resolution","ph":"i","ts":70,"pid":1,"tid":2,"s":"t","args":{"index":4,"rho":"Int"}},"#,
        r#"{"name":"query_resolved","cat":"resolution","ph":"i","ts":80,"pid":1,"tid":1,"s":"t","args":{"query":"Int \"q\" \\ x\n\t\u0001é","steps":3}},"#,
        r#"{"name":"query_failed","cat":"resolution","ph":"i","ts":90,"pid":1,"tid":2,"s":"t","args":{"query":"Str","error":"no rule matches type `Str`"}},"#,
        r#"{"name":"memo_hit","cat":"memo","ph":"i","ts":100,"pid":1,"tid":1,"s":"t","args":{"query":"Int"}},"#,
        r#"{"name":"memo_miss","cat":"memo","ph":"i","ts":110,"pid":1,"tid":2,"s":"t","args":{"query":"Int"}},"#,
        r#"{"name":"ic_hit","cat":"ic","ph":"i","ts":120,"pid":1,"tid":1,"s":"t","args":{"query":"Int * Int"}},"#,
        r#"{"name":"ic_miss","cat":"ic","ph":"i","ts":130,"pid":1,"tid":2,"s":"t","args":{"query":"[Int]"}},"#,
        r#"{"name":"elaborate","cat":"phase","ph":"E","ts":140,"pid":1,"tid":1},"#,
        r#"{"name":"compile","cat":"phase","ph":"B","ts":150,"pid":1,"tid":2},"#,
        r#"{"name":"fusion","cat":"compile","ph":"i","ts":160,"pid":1,"tid":1,"s":"t","args":{"scanned":40,"fused":6}},"#,
        r#"{"name":"compile","cat":"phase","ph":"E","ts":170,"pid":1,"tid":2},"#,
        r#"{"name":"tree_eval","cat":"eval","ph":"i","ts":180,"pid":1,"tid":1,"s":"t","args":{"fuel":12}},"#,
        r#"{"name":"vm_run","cat":"eval","ph":"i","ts":190,"pid":1,"tid":2,"s":"t","args":{"fuel":99,"tail_calls":5,"fix_unfolds":4,"match_ic_hits":3,"match_ic_misses":1}},"#,
        r#"{"name":"job_start","cat":"driver","ph":"i","ts":200,"pid":1,"tid":1,"s":"t","args":{"worker":1,"job":8,"stolen":true}},"#,
        r#"{"name":"job_finish","cat":"driver","ph":"i","ts":210,"pid":1,"tid":2,"s":"t","args":{"worker":1,"job":8,"ok":false}}"#,
        r#"],"displayTimeUnit":"ms"}"#,
    );
    assert_eq!(chrome_trace_json(&every_event_kind()), expected);
    assert_eq!(
        chrome_trace_json(&[]),
        r#"{"traceEvents":[],"displayTimeUnit":"ms"}"#
    );
}

/// A registry in which every counter is distinct and nonzero.
fn all_nonzero() -> MetricsRegistry {
    MetricsRegistry {
        queries: 41,
        queries_resolved: 37,
        queries_failed: 4,
        max_query_depth: 6,
        candidates_admitted: 52,
        candidates_rejected: 9,
        premises_assumed: 2,
        cache_hits: 30,
        cache_misses: 11,
        cache_evictions: 1,
        memo_hits: 17,
        memo_misses: 5,
        ic_hits: 3,
        ic_misses: 8,
        instrs_scanned: 1200,
        instrs_fused: 140,
        tree_runs: 7,
        tree_fuel: 9876,
        vm_runs: 12,
        vm_fuel: 123456,
        vm_tail_calls: 400,
        vm_fix_unfolds: 33,
        vm_match_ic_hits: 250,
        vm_match_ic_misses: 19,
        programs: 20,
        opsem_programs: 6,
        compiled_programs: 12,
        trims: 2,
        jobs: 20,
        steals: 3,
        artifact_fallbacks: 1,
    }
}

#[test]
fn metrics_table_with_every_section_is_pinned() {
    let expected = "  \
queries                            41
    resolved                         37
    failed                            4
    max depth                         6
  candidates admitted                52
  candidates rejected                 9
  premises assumed                    2
  cache hits                         30
  cache misses                       11
  cache evictions                     1
  cache hit rate                  73.2%
  memo hits                          17
  memo misses                         5
  ic hits                             3
  ic misses                           8
  ic hit rate                     27.3%
  instrs scanned                   1200
  instrs fused                      140
  tree runs                           7
  tree fuel                        9876
  vm runs                            12
  vm fuel                        123456
  vm tail calls                     400
  vm fix unfolds                     33
  vm match ic hits                  250
  vm match ic misses                 19
  programs                           20
    opsem                             6
    compiled                         12
  trims                               2
  jobs                               20
  steals                              3
  artifact fallbacks                  1
";
    assert_eq!(all_nonzero().render_table(), expected);
}

#[test]
fn metrics_table_skips_zero_sections() {
    // Only the cache, VM and job sections are live. Counters inside a
    // skipped section stay hidden even when nonzero (the section is
    // keyed on its leading counters), and zero rows inside a live
    // section still print.
    let m = MetricsRegistry {
        candidates_admitted: 5,
        cache_hits: 0,
        cache_misses: 4,
        cache_evictions: 0,
        vm_runs: 2,
        vm_fuel: 77,
        instrs_fused: 3,
        jobs: 2,
        ..MetricsRegistry::new()
    };
    let expected = "  \
cache hits                          0
  cache misses                        4
  cache evictions                     0
  cache hit rate                   0.0%
  vm runs                             2
  vm fuel                            77
  vm tail calls                       0
  vm fix unfolds                      0
  vm match ic hits                    0
  vm match ic misses                  0
  jobs                                2
  steals                              0
";
    assert_eq!(m.render_table(), expected);
    assert_eq!(
        MetricsRegistry::new().render_table(),
        "  (no activity recorded)\n"
    );
}
