//! Deep-recursion regression tests for the bytecode VM.
//!
//! The tree-walking evaluator recurses on the host stack once per
//! `fix` unfold, which is why `implicit_pipeline::driver` gives its
//! workers 64 MiB stacks. The VM heap-allocates its frames, so the
//! same programs must run on the 8 MiB default main-thread stack —
//! and far below it. Both recursion shapes are covered:
//!
//! * a **non-tail** fold (`sum n = n + sum (n-1)`), which grows the
//!   VM's *heap* frame stack 100k deep while host stack stays flat;
//! * a **tail** loop, which after tail-call compilation runs in
//!   constant frames *and* constant heap.

use std::rc::Rc;

use systemf::syntax::{BinOp, FExpr, FType};
use systemf::vm::compile_and_run;

const N: i64 = 100_000;

/// `fix f: Int -> Int. \n. if n <= 0 then z else <step>` applied to
/// [`N`].
fn countdown(step: FExpr, z: FExpr) -> FExpr {
    let f = FExpr::Fix(
        "f".into(),
        FType::arrow(FType::Int, FType::Int),
        Rc::new(FExpr::lam(
            "n",
            FType::Int,
            FExpr::If(
                Rc::new(FExpr::BinOp(
                    BinOp::Le,
                    Rc::new(FExpr::var("n")),
                    Rc::new(FExpr::Int(0)),
                )),
                Rc::new(z),
                Rc::new(step),
            ),
        )),
    );
    FExpr::app(f, FExpr::Int(N))
}

fn recurse_on(n_minus_1: FExpr) -> FExpr {
    FExpr::app(FExpr::var("f"), n_minus_1)
}

fn n_minus_1() -> FExpr {
    FExpr::BinOp(BinOp::Sub, Rc::new(FExpr::var("n")), Rc::new(FExpr::Int(1)))
}

/// Runs `work` on a thread whose stack is deliberately smaller than
/// the 8 MiB main-thread default, so passing here proves the
/// evaluation cannot be leaning on host-stack recursion. (`FExpr` is
/// `Rc`-based and not `Send`, so the program is built inside the
/// thread.)
fn on_small_stack(work: impl FnOnce() -> String + Send + 'static) -> String {
    std::thread::Builder::new()
        .stack_size(1 << 20)
        .spawn(work)
        .expect("spawn")
        .join()
        .expect("no stack overflow")
}

#[test]
fn non_tail_fold_of_100k_steps_runs_in_constant_host_stack() {
    // sum n = n + sum (n - 1): the addition happens *after* the
    // recursive call returns, so the VM's frame stack (register-file
    // windows on the heap) genuinely grows 100k deep — only the host
    // stack stays flat.
    let out = on_small_stack(|| {
        let step = FExpr::BinOp(
            BinOp::Add,
            Rc::new(FExpr::var("n")),
            Rc::new(recurse_on(n_minus_1())),
        );
        let e = countdown(step, FExpr::Int(0));
        compile_and_run(&e).map(|v| v.to_string()).expect("vm")
    });
    assert_eq!(out, (N * (N + 1) / 2).to_string());
}

#[test]
fn tail_loop_of_100k_steps_runs_in_constant_host_stack() {
    // f n = f (n - 1): compiled to a tail call, so even the frame
    // stack stays at depth 1 the whole way down.
    let out = on_small_stack(|| {
        let e = countdown(recurse_on(n_minus_1()), FExpr::Int(42));
        compile_and_run(&e).map(|v| v.to_string()).expect("vm")
    });
    assert_eq!(out, "42");
}
