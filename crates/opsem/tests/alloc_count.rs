//! Allocation budget for the operational semantics' list hot path:
//! the System F evaluator's `pair_list_fold` workload
//! (`systemf/tests/alloc_count.rs`), run directly on λ⇒ by
//! [`Interpreter`]. A counting global allocator measures the heap
//! allocations (count and bytes) of the evaluation alone.
//!
//! Counts are per thread, so tests running in parallel do not land in
//! each other's budgets.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use implicit_core::syntax::{BinOp, Declarations, Expr, Type};
use implicit_opsem::{Interpreter, Value};

struct CountingAlloc;

thread_local! {
    // `const`-initialised and drop-free: the allocator may touch them
    // at any point of a thread's life without allocating itself.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    BYTES.with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; counting only
// touches thread-local `Cell`s, which neither allocate nor unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its value with the allocations (count, bytes)
/// this thread made meanwhile.
fn allocs_during(f: impl FnOnce() -> Value) -> (Value, u64, u64) {
    let allocs0 = ALLOCS.with(Cell::get);
    let bytes0 = BYTES.with(Cell::get);
    let v = f();
    (
        v,
        ALLOCS.with(Cell::get) - allocs0,
        BYTES.with(Cell::get) - bytes0,
    )
}

/// `sum (list of (i, 2i) for i in 0..n)` via `fix` + `case`, reading
/// both components with `fst`/`snd`. The list is a `::` literal; the
/// fold reads it through the variable `xs`, so every `case` sees a
/// list the environment shares.
fn pair_list_fold(n: i64) -> Expr {
    let pair_ty = Type::prod(Type::Int, Type::Int);
    let list_ty = Type::List(Rc::new(pair_ty.clone()));
    let mut list = Expr::Nil(pair_ty);
    for i in (0..n).rev() {
        list = Expr::Cons(
            Expr::Pair(Expr::Int(i).into(), Expr::Int(2 * i).into()).into(),
            list.into(),
        );
    }
    let body = Expr::ListCase {
        scrut: Expr::var("xs").into(),
        nil: Expr::Int(0).into(),
        head: "h".into(),
        tail: "t".into(),
        cons: Expr::BinOp(
            BinOp::Add,
            Expr::BinOp(
                BinOp::Add,
                Expr::Fst(Expr::var("h").into()).into(),
                Expr::Snd(Expr::var("h").into()).into(),
            )
            .into(),
            Expr::app(Expr::var("sum"), Expr::var("t")).into(),
        )
        .into(),
    };
    let sum = Expr::Fix(
        "sum".into(),
        Type::arrow(list_ty.clone(), Type::Int),
        Expr::lam("xs", list_ty, body).into(),
    );
    Expr::app(sum, list)
}

#[test]
fn list_fold_allocation_is_linear() {
    // The interpreter recurses per list element; give the debug build
    // a roomy stack.
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(budget_body)
        .unwrap()
        .join()
        .unwrap();
}

fn budget_body() {
    let decls = Declarations::new();
    let fold = pair_list_fold(200);
    let long_fold = pair_list_fold(2000);

    let (v1, a1, b1) = allocs_during(|| Interpreter::new(&decls).eval(&fold).unwrap());
    assert_eq!(v1.to_string(), (3 * 200 * 199 / 2).to_string());
    let (v2, a2, b2) = allocs_during(|| Interpreter::new(&decls).eval(&long_fold).unwrap());
    assert_eq!(v2.to_string(), (3 * 2000 * 1999 / 2).to_string());

    eprintln!("alloc_count[opsem]: pair_list_fold(200)  = {a1} allocs / {b1} bytes");
    eprintln!("alloc_count[opsem]: pair_list_fold(2000) = {a2} allocs / {b2} bytes");

    // `case` shares the tail instead of copying it, so the fold's
    // allocations grow linearly in n (592,440 bytes at n = 200 and
    // 49,098,456 at n = 2,000 when each `case` copied the rest of the
    // list). Budgets leave ~30% headroom.
    assert!(a1 < 2_100, "pair_list_fold regressed: {a1} allocs");
    assert!(
        b1 < 130_000,
        "pair_list_fold byte traffic regressed: {b1} bytes"
    );
    assert!(a2 < 21_000, "pair_list_fold(2000) regressed: {a2} allocs");
    assert!(
        b2 < 1_300_000,
        "pair_list_fold(2000) byte traffic regressed: {b2} bytes"
    );
}
