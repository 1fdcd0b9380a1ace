//! Counter-rollback regression tests: session statistics and the
//! unified metrics snapshot must stay consistent through FAILING
//! programs and through [`Session::trim`] — the paths the
//! warm/cold-equivalence suite only exercises on success.

use std::cell::RefCell;
use std::rc::Rc;

use implicit_core::resolve::ResolutionPolicy;
use implicit_core::syntax::{BinOp, Declarations, Expr, Type};
use implicit_core::trace::{CollectSink, SharedSink};
use implicit_pipeline::{Backend, Prelude, Session};

const CHAIN: usize = 6;

/// `snd(?T_n) + j` — the chain-walking probe program.
fn chain_query_program(n: usize, j: i64) -> Expr {
    Expr::binop(
        BinOp::Add,
        Expr::Snd(Expr::query_simple(Prelude::chain_head(n)).into()),
        Expr::Int(j),
    )
}

/// A program whose query cannot resolve in the chain environment.
fn failing_program() -> Expr {
    Expr::query_simple(Type::Str)
}

#[test]
fn metrics_survive_failing_programs_and_trim() {
    let decls = Declarations::new();
    let prelude = Prelude::chain(CHAIN);
    let mut sess =
        Session::new(&decls, ResolutionPolicy::paper(), &prelude).expect("chain prelude compiles");
    let sink = Rc::new(RefCell::new(CollectSink::new()));
    sess.set_trace(Some(SharedSink::from_rc(sink.clone())));

    // A successful run to seed the counters.
    let ok = sess.run(&chain_query_program(CHAIN, 1)).expect("resolves");
    assert_eq!(ok.value.to_string(), "7");
    let after_ok = sess.metrics();
    assert_eq!(after_ok.programs, 1);
    assert_eq!(
        after_ok.queries,
        after_ok.queries_resolved + after_ok.queries_failed
    );
    assert_eq!(after_ok.queries_failed, 0);
    assert!(after_ok.queries >= 1, "the probe performs a query");

    // A failing program: the error must be reported, the program
    // still counted, the failure counted, and no partial state leak.
    sess.run(&failing_program())
        .expect_err("Str is not in scope");
    let after_fail = sess.metrics();
    assert_eq!(after_fail.programs, 2);
    assert!(
        after_fail.queries_failed >= 1,
        "failed query must be counted"
    );
    assert_eq!(
        after_fail.queries,
        after_fail.queries_resolved + after_fail.queries_failed
    );
    // Failures are never cached, so the cache counters only moved by
    // the lookups actually performed.
    assert!(after_fail.cache_hits + after_fail.cache_misses >= after_ok.cache_hits);

    // Snapshot, trim, and verify the rollback: trims increments, the
    // monotone counters are preserved (trim drops arena nodes and
    // cache entries, not statistics), and the session still answers
    // correctly with the right fresh-vs-cached accounting.
    sess.trim();
    let after_trim = sess.metrics();
    assert_eq!(after_trim.trims, 1);
    assert_eq!(after_trim.programs, 2);
    assert_eq!(after_trim.queries, after_fail.queries);
    assert_eq!(after_trim.queries_resolved, after_fail.queries_resolved);
    assert_eq!(after_trim.queries_failed, after_fail.queries_failed);
    assert!(after_trim.cache_evictions >= after_fail.cache_evictions);

    let ok2 = sess.run(&chain_query_program(CHAIN, 2)).expect("resolves");
    assert_eq!(ok2.value.to_string(), "8");
    let after_ok2 = sess.metrics();
    assert_eq!(after_ok2.programs, 3);
    assert_eq!(
        after_ok2.queries,
        after_ok2.queries_resolved + after_ok2.queries_failed
    );
    assert_eq!(
        after_ok2.queries_failed, after_fail.queries_failed,
        "no new failures"
    );
}

#[test]
fn failing_compiled_runs_roll_back_the_code_object() {
    // The compiled path has more rollback state (code object, VM
    // globals); alternate failing and succeeding compiled runs and
    // check both results and counters.
    let decls = Declarations::new();
    let prelude = Prelude::chain(CHAIN);
    let mut sess =
        Session::new(&decls, ResolutionPolicy::paper(), &prelude).expect("chain prelude compiles");
    let sink = Rc::new(RefCell::new(CollectSink::new()));
    sess.set_trace(Some(SharedSink::from_rc(sink.clone())));

    for round in 0..4 {
        sess.run_with_backend(&failing_program(), Backend::Vm)
            .expect_err("Str is not in scope");
        let ok = sess
            .run_with_backend(&chain_query_program(CHAIN, round), Backend::Vm)
            .expect("resolves after a failure");
        assert_eq!(ok.value.to_string(), (6 + round).to_string());
    }
    let m = sess.metrics();
    assert_eq!(m.programs, 8);
    assert_eq!(m.compiled_programs, 8);
    assert_eq!(m.queries_failed, 4);
    assert_eq!(m.queries, m.queries_resolved + m.queries_failed);
    assert_eq!(m.vm_runs, 4, "only successful programs reach the VM");
    assert!(m.vm_fuel > 0);
}

#[test]
fn stats_and_metrics_agree_without_a_sink() {
    // With no sink installed, the resolution-grain counters stay
    // zero, but the session-level counts are always kept: two tree
    // programs (one failing), no opsem or VM runs, one explicit trim.
    let decls = Declarations::new();
    let prelude = Prelude::chain(CHAIN);
    let mut sess =
        Session::new(&decls, ResolutionPolicy::paper(), &prelude).expect("chain prelude compiles");
    sess.run(&chain_query_program(CHAIN, 1)).expect("resolves");
    sess.run(&failing_program()).expect_err("Str not in scope");
    sess.trim();

    let m = sess.metrics();
    assert_eq!(m.programs, 2);
    assert_eq!(m.opsem_programs, 0);
    assert_eq!(m.compiled_programs, 0);
    assert_eq!(m.trims, 1);
    assert_eq!(m.queries, 0, "no sink, no resolution-grain counting");
    assert!(m.tree_runs >= 1, "phase events are session-internal");
}
