//! The B14 speedup table, measured directly (not via Criterion) so a
//! single release run prints the exact markdown recorded in
//! `EXPERIMENTS.md` §11:
//!
//! ```text
//! cargo test -p implicit-bench --release --test vm_table -- --ignored --nocapture
//! ```
//!
//! Also writes the `b14` section of the repo-root `BENCH_vm.json`
//! artifact (series, ms, speedup, checksum) for CI upload.
//!
//! The 9× bar compares the two warm one-worker series, timed in
//! alternating rounds, by the median of their per-round ratio. Beside
//! it sits the count no host can move: the fix loop runs in two VM
//! dispatches per iteration.

use std::time::Instant;

use implicit_bench::report::{detected_parallelism, write_section, BenchRow};
use implicit_bench::{
    batch_checksum, batch_metrics, run_vm_batch_cold, run_vm_batch_warm, vm_batch_program,
    Interleaved,
};
use implicit_core::resolve::ResolutionPolicy;
use implicit_core::syntax::Declarations;
use implicit_pipeline::{Backend, Prelude, Session};

const DEPTH: usize = 16;
const ITERS: i64 = 20_000;
const PROGRAMS: usize = 96;
const REPS: u32 = 3;
/// Alternating rounds of the two series the bar compares.
const ROUNDS: usize = 5;

/// Times `f` (seconds per batch, best of [`REPS`] after one warmup),
/// asserting the checksum on every run.
fn time(f: impl Fn() -> i64, expect: i64) -> f64 {
    assert_eq!(f(), expect);
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        assert_eq!(f(), expect);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

#[test]
#[ignore = "B14 measurement; run in release with --ignored --nocapture"]
fn vm_speedup_table() {
    // The metrics legs run the tree walker on this thread; its
    // recursion over the 20k-iteration loop needs more than the
    // default test-thread stack.
    std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(table_body)
        .unwrap()
        .join()
        .unwrap();
}

/// VM dispatches of the B14 fix loop's [`ITERS`] iterations on a warm
/// session: those of a program looping [`ITERS`] times, less those of
/// the same program looping none.
fn loop_dispatches() -> u64 {
    let decls = Declarations::new();
    let prelude = Prelude::chain(DEPTH);
    let mut session =
        Session::new_configured(&decls, ResolutionPolicy::paper(), &prelude, true, true)
            .expect("chain prelude is valid");
    session.set_profile_dispatch(true);
    let mut dispatches = |iters: i64, j: i64| {
        let total = |s: &Session| s.dispatch_histogram().iter().map(|(_, n)| n).sum::<u64>();
        let before = total(&session);
        session
            .run_compiled(&vm_batch_program(DEPTH, iters, j))
            .expect("B14 program runs");
        total(&session) - before
    };
    // The first program promotes the dictionaries the later ones use.
    dispatches(0, 0);
    let none = dispatches(0, 1);
    dispatches(ITERS, 2) - none
}

fn table_body() {
    let cpus = detected_parallelism();
    let expect = batch_checksum(DEPTH, PROGRAMS);
    let warm = Interleaved::time(
        ROUNDS,
        || {
            assert_eq!(
                run_vm_batch_warm(DEPTH, ITERS, PROGRAMS, 1, Backend::Tree),
                expect
            )
        },
        || {
            assert_eq!(
                run_vm_batch_warm(DEPTH, ITERS, PROGRAMS, 1, Backend::Vm),
                expect
            )
        },
    );
    let (tree1, vm1) = warm.best();
    println!();
    println!(
        "B14: {PROGRAMS} programs, {ITERS}-iteration fix loop, \
         chain depth {DEPTH}, best of {REPS}; the warm 1-worker series \
         best of {ROUNDS} alternating rounds ({cpus} CPUs)"
    );
    println!();
    println!("| series | workers | time/batch | speedup vs warm tree |");
    println!("|---|---|---|---|");
    println!("| tree-walk, warm | 1 | {:.1} ms | 1.00x |", tree1 * 1e3);
    // Multi-worker series only where scaling is physically possible:
    // on a 1-CPU runner a "4 workers" time is contention, and the row
    // is dropped from both the table and the artifact.
    let tree4 = (cpus > 1).then(|| {
        let t = time(
            || run_vm_batch_warm(DEPTH, ITERS, PROGRAMS, 4, Backend::Tree),
            expect,
        );
        println!(
            "| tree-walk, warm | 4 | {:.1} ms | {:.2}x |",
            t * 1e3,
            tree1 / t
        );
        t
    });
    if tree4.is_none() {
        println!("| tree-walk, warm | 4 | skipped (single-CPU runner) | — |");
    }
    let vm_cold = time(
        || run_vm_batch_cold(DEPTH, ITERS, PROGRAMS, 1, Backend::Vm),
        expect,
    );
    println!(
        "| register vm, cold (prelude recompiled per program) | 1 | {:.1} ms | {:.2}x |",
        vm_cold * 1e3,
        tree1 / vm_cold
    );
    println!(
        "| register vm, warm-compiled | 1 | {:.1} ms | {:.2}x |",
        vm1 * 1e3,
        tree1 / vm1
    );
    let vm4 = (cpus > 1).then(|| {
        let t = time(
            || run_vm_batch_warm(DEPTH, ITERS, PROGRAMS, 4, Backend::Vm),
            expect,
        );
        println!(
            "| register vm, warm-compiled | 4 | {:.1} ms | {:.2}x |",
            t * 1e3,
            tree1 / t
        );
        t
    });
    if vm4.is_none() {
        println!("| register vm, warm-compiled | 4 | skipped (single-CPU runner) | — |");
    }
    println!();
    let mut series: Vec<(&str, usize, f64)> = vec![
        ("tree-walk, warm", 1, tree1),
        ("register vm, cold", 1, vm_cold),
        ("register vm, warm", 1, vm1),
    ];
    if let Some(t) = tree4 {
        series.insert(1, ("tree-walk, warm", 4, t));
    }
    if let Some(t) = vm4 {
        series.push(("register vm, warm", 4, t));
    }
    let rows: Vec<BenchRow> = series
        .iter()
        .map(|&(label, workers, t)| BenchRow {
            series: format!(
                "{label}, {workers} worker{}",
                if workers == 1 { "" } else { "s" }
            ),
            workers,
            cpus,
            ms: t * 1e3,
            speedup: tree1 / t,
            checksum: expect.unsigned_abs(),
        })
        .collect();
    let path = write_section("b14", &rows);
    println!("wrote {}", path.display());
    println!();
    // Per-series evaluator metrics: the same warm batch once per
    // backend, through the unified `MetricsRegistry` snapshot. The
    // VM's charged fuel stays under the tree-walker's (tail calls
    // reuse frames, the unfold cache kills fix re-unfolding) — the
    // discrete shape behind the speedup column above.
    let tree_m = batch_metrics(DEPTH, Some(ITERS), PROGRAMS, Backend::Tree);
    let vm_m = batch_metrics(DEPTH, Some(ITERS), PROGRAMS, Backend::Vm);
    println!("warm tree metrics (1 worker):");
    println!();
    print!("{}", tree_m.render_table());
    println!();
    println!("warm register-vm metrics (1 worker):");
    println!();
    print!("{}", vm_m.render_table());
    println!();
    assert_eq!(tree_m.tree_runs, PROGRAMS as u64);
    assert_eq!(vm_m.vm_runs, PROGRAMS as u64);
    assert!(
        vm_m.vm_fuel <= tree_m.tree_fuel,
        "vm charged {} fuel, tree {} — the VM must not do more steps",
        vm_m.vm_fuel,
        tree_m.tree_fuel
    );
    assert!(vm_m.vm_tail_calls > 0, "the fix loop runs via TailCall");
    assert!(
        vm_m.instrs_fused > 0,
        "superinstruction fusion never fired on the B14 loop"
    );
    assert!(
        vm_m.ic_hits > 0,
        "the dictionary inline cache never hit across {PROGRAMS} repeated ground queries"
    );
    let dispatches = loop_dispatches();
    let speedup = warm.ratio();
    println!(
        "warm register VM over the warm tree-walker: {speedup:.2}x \
         (median of {ROUNDS} alternating rounds); {} VM dispatches per loop iteration",
        dispatches as f64 / ITERS as f64
    );
    assert_eq!(
        dispatches,
        2 * ITERS as u64,
        "the B14 fix loop runs in two dispatches per iteration"
    );
    assert!(
        speedup >= 9.0,
        "warm register VM speedup {speedup:.2}x over the tree-walker is below the 9x acceptance bar",
    );
}
