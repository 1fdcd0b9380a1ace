//! Pins the shape of the daemon's `metrics` reply: its keys and their
//! order at every level, and the daemon-plane counts after a fixed
//! request sequence. Clients (dashboards, the benchmark's daemon
//! workload) read these fields by name, so they must not move.

use implicit_pipeline::service::{prelude_source, Client, Daemon, DaemonConfig, Json};
use implicit_pipeline::{Backend, Prelude};

fn keys(j: &Json) -> Vec<&str> {
    match j {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {}", other.render()),
    }
}

const REGISTRY_KEYS: [&str; 31] = [
    "queries",
    "queries_resolved",
    "queries_failed",
    "max_query_depth",
    "candidates_admitted",
    "candidates_rejected",
    "premises_assumed",
    "cache_hits",
    "cache_misses",
    "cache_evictions",
    "memo_hits",
    "memo_misses",
    "ic_hits",
    "ic_misses",
    "instrs_scanned",
    "instrs_fused",
    "tree_runs",
    "tree_fuel",
    "vm_runs",
    "vm_fuel",
    "vm_tail_calls",
    "vm_fix_unfolds",
    "vm_match_ic_hits",
    "vm_match_ic_misses",
    "programs",
    "opsem_programs",
    "compiled_programs",
    "trims",
    "jobs",
    "steals",
    "artifact_fallbacks",
];

#[test]
fn metrics_reply_keys_and_order_are_pinned() {
    let mut daemon = Daemon::start(DaemonConfig::default()).expect("daemon starts");
    let mut c = Client::connect(daemon.addr()).expect("client connects");
    c.open_prelude("b", &prelude_source(&Prelude::chain(2)), Backend::Vm)
        .expect("prelude tenant opens");
    c.open_frames("a", &[vec!["Int".to_owned()]])
        .expect("frames tenant opens");
    c.eval("b", "?(Int * Int)").expect("eval");
    c.typecheck("b", "\\x: Int. x").expect("typecheck");
    c.resolve("b", "(Int * Int) * Int").expect("resolve");
    c.eval("b", "?(Str)").expect_err("unresolvable");
    c.resolve("a", "Int").expect("frames resolve");
    c.resolve("a", "Bool").expect_err("frames miss");

    let m = c.metrics().expect("metrics");
    assert_eq!(keys(&m), ["ok", "daemon", "merged", "tenants", "table"]);
    let daemon_obj = m.get("daemon").expect("daemon");
    assert_eq!(
        keys(daemon_obj),
        [
            "connections",
            "requests",
            "ok",
            "errors",
            "rejected_overload",
            "expired_deadline",
            "oversized_frames",
            "bad_frames",
            "panics",
            "tenants_opened",
            "tenants_closed",
        ]
    );
    let counts: Vec<i64> = match daemon_obj {
        Json::Obj(fields) => fields.iter().map(|(_, v)| v.as_i64().unwrap()).collect(),
        _ => unreachable!(),
    };
    // 9 requests so far (the metrics request itself is counted before
    // it is answered); 2 failed.
    assert_eq!(counts, [1, 9, 6, 2, 0, 0, 0, 0, 0, 2, 0]);
    assert_eq!(keys(m.get("merged").expect("merged")), REGISTRY_KEYS);
    let tenants = m.get("tenants").expect("tenants");
    assert_eq!(keys(tenants), ["a", "b"]);
    for t in ["a", "b"] {
        assert_eq!(keys(tenants.get(t).unwrap()), REGISTRY_KEYS);
    }
    let table = m.str_field("table").expect("table");
    assert!(table.starts_with("  queries "), "got {table}");

    c.shutdown().expect("shutdown");
    daemon.shutdown();
}

#[test]
fn closed_tenants_fold_into_merged_and_leave_no_row() {
    // The shape of single-shot `implicitc --connect`: a tenant per
    // client name, opened, queried once and closed. Rows of closed
    // tenants grew the reply by about 540 bytes a name, past the
    // frame cap before 2,000 names.
    let mut daemon = Daemon::start(DaemonConfig::default()).expect("daemon starts");
    let mut c = Client::connect(daemon.addr()).expect("client connects");
    let frames = [vec!["Int".to_owned()]];
    c.open_frames("live", &frames).expect("open");
    for i in 0..50 {
        let name = format!("cli-{i}");
        c.open_frames(&name, &frames).expect("open");
        c.resolve(&name, "Int").expect("resolve");
        c.close(&name).expect("close");
    }
    c.resolve("live", "Int").expect("resolve");

    let m = c.metrics().expect("metrics");
    assert_eq!(keys(m.get("tenants").expect("tenants")), ["live"]);
    let queries = m
        .get("merged")
        .and_then(|reg| reg.int_field("queries"))
        .expect("merged queries");
    assert_eq!(queries, 51, "every closed tenant's queries stay merged");

    c.shutdown().expect("shutdown");
    daemon.shutdown();
}
