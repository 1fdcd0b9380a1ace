//! Allocation budget for the eval hot path.
//!
//! A counting global allocator measures heap allocations (count and
//! bytes) for representative batch-eval workloads: building lists
//! with `Cons`, folding them with `ListCase` + `Fst`/`Snd`, and a
//! `Match`/`Proj` recursion. The budgets below pin the post-PR-3
//! numbers (uniquely-owned `Rc` payloads are moved, not re-copied);
//! the before/after counts are recorded in EXPERIMENTS.md §6.
//!
//! The same workloads also run through the bytecode backend, with
//! separate budgets for compilation (instruction buffers, constant
//! pool, capture lists) and execution (value heap only — frames and
//! the register file amortize to a handful of `Vec` growths).
//!
//! Counts are per thread, so tests running in parallel do not land in
//! each other's budgets.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use systemf::eval::{Evaluator, Value};
use systemf::syntax::{BinOp, FExpr, FMatchArm, FType};

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

/// `sum (list of (i, 2i) for i in 0..n)` via `fix` + `ListCase`,
/// reading both components with `Fst`/`Snd`. The list is a `Cons`
/// literal; the fold reads it through the variable `xs`, so every
/// `case` sees a list the environment shares.
fn pair_list_fold(n: i64) -> FExpr {
    let pair_ty = FType::Prod(FType::Int.into(), FType::Int.into());
    let list_ty = FType::List(std::rc::Rc::new(pair_ty.clone()));
    let mut list = FExpr::Nil(pair_ty);
    for i in (0..n).rev() {
        list = FExpr::Cons(
            FExpr::Pair(FExpr::Int(i).into(), FExpr::Int(2 * i).into()).into(),
            list.into(),
        );
    }
    let body = FExpr::ListCase {
        scrut: FExpr::var("xs").into(),
        nil: FExpr::Int(0).into(),
        head: "h".into(),
        tail: "t".into(),
        cons: FExpr::BinOp(
            BinOp::Add,
            FExpr::BinOp(
                BinOp::Add,
                FExpr::Fst(FExpr::var("h").into()).into(),
                FExpr::Snd(FExpr::var("h").into()).into(),
            )
            .into(),
            FExpr::app(FExpr::var("sum"), FExpr::var("t")).into(),
        )
        .into(),
    };
    let sum = FExpr::Fix(
        "sum".into(),
        FType::arrow(list_ty.clone(), FType::Int),
        FExpr::lam("xs", list_ty, body).into(),
    );
    FExpr::app(sum, list)
}

/// `build n = n :: build (n-1)` — every `Cons` tail comes straight
/// out of the recursive call, uniquely owned. The cold evaluator
/// copies the whole accumulated list per step (O(n²) bytes).
fn cons_build(n: i64) -> FExpr {
    let list_ty = FType::List(std::rc::Rc::new(FType::Int));
    let body = FExpr::If(
        FExpr::BinOp(BinOp::Lt, FExpr::var("k").into(), FExpr::Int(1).into()).into(),
        FExpr::Nil(FType::Int).into(),
        FExpr::Cons(
            FExpr::var("k").into(),
            FExpr::app(
                FExpr::var("build"),
                FExpr::BinOp(BinOp::Sub, FExpr::var("k").into(), FExpr::Int(1).into()),
            )
            .into(),
        )
        .into(),
    );
    let build = FExpr::Fix(
        "build".into(),
        FType::arrow(FType::Int, list_ty),
        FExpr::lam("k", FType::Int, body).into(),
    );
    FExpr::app(build, FExpr::Int(n))
}

/// Counts down from `n` through a `Match` on a freshly injected
/// constructor, adding a record `Proj` each step.
fn match_proj_loop(n: i64) -> FExpr {
    let step = FExpr::Match(
        FExpr::Inject(
            "MkStep".into(),
            Vec::new(),
            vec![FExpr::BinOp(
                BinOp::Sub,
                FExpr::var("n").into(),
                FExpr::Int(1).into(),
            )],
        )
        .into(),
        vec![FMatchArm {
            ctor: "MkStep".into(),
            binders: vec!["m".into()],
            body: FExpr::BinOp(
                BinOp::Add,
                FExpr::app(FExpr::var("loop"), FExpr::var("m")).into(),
                FExpr::Proj(
                    FExpr::Make("R".into(), Vec::new(), vec![("v".into(), FExpr::Int(1))]).into(),
                    "v".into(),
                )
                .into(),
            ),
        }],
    );
    let body = FExpr::If(
        FExpr::BinOp(BinOp::Lt, FExpr::var("n").into(), FExpr::Int(1).into()).into(),
        FExpr::Int(0).into(),
        step.into(),
    );
    let f = FExpr::Fix(
        "loop".into(),
        FType::arrow(FType::Int, FType::Int),
        FExpr::lam("n", FType::Int, body).into(),
    );
    FExpr::app(f, FExpr::Int(n))
}

#[test]
fn eval_hot_path_allocation_budget() {
    // The tree-walking evaluator recurses per list element; give the
    // debug build a roomy stack.
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(budget_body)
        .unwrap()
        .join()
        .unwrap();
}

fn budget_body() {
    let fold = pair_list_fold(200);
    let long_fold = pair_list_fold(2000);
    let build = cons_build(500);
    let matches = match_proj_loop(200);

    let (v1, a1, b1) = allocs_during(|| Evaluator::new().eval(&fold).unwrap());
    assert_eq!(v1.to_string(), (3 * 200 * 199 / 2).to_string());

    let (v4, a4, b4) = allocs_during(|| Evaluator::new().eval(&long_fold).unwrap());
    assert_eq!(v4.to_string(), (3 * 2000 * 1999 / 2).to_string());

    let (v2, a2, b2) = allocs_during(|| Evaluator::new().eval(&build).unwrap());
    match &v2 {
        Value::List(xs) => assert_eq!(xs.len(), 500),
        other => panic!("expected list, got {other}"),
    }

    let (v3, a3, b3) = allocs_during(|| Evaluator::new().eval(&matches).unwrap());
    assert_eq!(v3.to_string(), "200");

    eprintln!("alloc_count: pair_list_fold(200)  = {a1} allocs / {b1} bytes");
    eprintln!("alloc_count: pair_list_fold(2000) = {a4} allocs / {b4} bytes");
    eprintln!("alloc_count: cons_build(500)      = {a2} allocs / {b2} bytes");
    eprintln!("alloc_count: match_proj_loop(200) = {a3} allocs / {b3} bytes");

    // Budgets pin the post-fix numbers with ~30% headroom so
    // unrelated churn doesn't flake (see EXPERIMENTS.md §6 for the
    // measured before/after table).
    assert!(a1 < 2_600, "pair_list_fold regressed: {a1} allocs");
    // `case` shares the tail instead of copying it: the fold's bytes
    // grow linearly in n (566,744 bytes at n = 200 and 48,842,360 at
    // n = 2,000 when each `case` copied the rest of the list).
    assert!(
        b1 < 100_000,
        "pair_list_fold byte traffic regressed: {b1} bytes"
    );
    assert!(
        b4 < 1_000_000,
        "pair_list_fold(2000) byte traffic regressed: {b4} bytes"
    );
    assert!(a2 < 2_100, "cons_build regressed: {a2} allocs");
    assert!(
        b2 < 200_000,
        "cons_build byte traffic regressed: {b2} bytes"
    );
    assert!(a3 < 1_900, "match_proj_loop regressed: {a3} allocs");
}

#[test]
fn tracing_disabled_allocates_nothing_extra() {
    // The resolution engine is instrumented with a `TraceSink`
    // parameter; with the default `NullSink` every emission guard is
    // statically false, so no event — and in particular no
    // pretty-printed query string — may ever be built. Pin the
    // resolution allocation count and check the public `resolve`
    // entry point (which routes through `resolve_with` + `NullSink`)
    // against the explicit-NullSink call, allocation for allocation.
    use implicit_core::resolve::{resolve, resolve_with, ResolutionPolicy};
    use implicit_core::trace::NullSink;

    let (env, query) = genprog::chain_env(24);
    let policy = ResolutionPolicy::paper().without_cache();
    // Warm up interning and any lazy statics once.
    resolve(&env, &query, &policy).unwrap();

    let (_, a_plain, b_plain) = allocs_during(|| {
        resolve(&env, &query, &policy).unwrap();
        Value::Unit
    });
    let (_, a_null, b_null) = allocs_during(|| {
        resolve_with(&env, &query, &policy, &mut NullSink).unwrap();
        Value::Unit
    });
    eprintln!("alloc_count[trace]: resolve chain(24) plain = {a_plain} allocs / {b_plain} bytes");
    eprintln!("alloc_count[trace]: resolve chain(24) null  = {a_null} allocs / {b_null} bytes");

    assert_eq!(
        (a_plain, b_plain),
        (a_null, b_null),
        "NullSink resolution must allocate exactly like the plain entry point"
    );
    // Absolute budget: a 24-deep derivation chain measures 244
    // allocations (~10 per sub-query). If tracing ever allocates on
    // the disabled path (e.g. an event string built outside the
    // `enabled()` guard), that adds several allocations per event —
    // five-plus events per query — and lands far above this bar.
    assert!(
        a_null < 300,
        "disabled-tracing resolution allocation budget exceeded: {a_null} allocs"
    );
}

/// Compiles `e`, then measures compile and run allocations
/// separately (the warm pipeline pays the former once per program and
/// the latter per evaluation).
fn vm_allocs(e: &FExpr) -> (Value, (u64, u64), (u64, u64)) {
    use systemf::{Compiler, Vm};
    let mut compiler = Compiler::new();
    let mut main = 0;
    let (_, ca, cb) = allocs_during(|| {
        main = compiler.compile(e).unwrap();
        Value::Unit
    });
    let (v, ra, rb) = allocs_during(|| Vm::new().run(compiler.code(), main, &[]).unwrap());
    (v, (ca, cb), (ra, rb))
}

#[test]
fn vm_path_allocation_budget() {
    let fold = pair_list_fold(200);
    let build = cons_build(500);
    let matches = match_proj_loop(200);

    let (v1, c1, r1) = vm_allocs(&fold);
    assert_eq!(v1.to_string(), (3 * 200 * 199 / 2).to_string());

    let (v2, c2, r2) = vm_allocs(&build);
    match &v2 {
        Value::List(xs) => assert_eq!(xs.len(), 500),
        other => panic!("expected list, got {other}"),
    }

    let (v3, c3, r3) = vm_allocs(&matches);
    assert_eq!(v3.to_string(), "200");

    eprintln!("alloc_count[vm]: pair_list_fold(200)  compile {c1:?}, run {r1:?} (allocs, bytes)");
    eprintln!("alloc_count[vm]: cons_build(500)      compile {c2:?}, run {r2:?}");
    eprintln!("alloc_count[vm]: match_proj_loop(200) compile {c3:?}, run {r3:?}");

    // Compile cost is a handful of `Vec` growths: instruction buffers
    // double amortized, and the 200 `Cons` literals in pair_list_fold
    // land in one flat instruction stream, not 200 nodes.
    assert!(c1.0 < 100, "pair_list_fold compile regressed: {c1:?}");
    assert!(c2.0 < 50, "cons_build compile regressed: {c2:?}");
    assert!(c3.0 < 50, "match_proj_loop compile regressed: {c3:?}");

    // Run cost is the per-run bump arena: tagged words are `Copy`, so
    // ints/bools/pairs/conses cost amortized `Vec` doublings instead
    // of one `Rc` box per value. The dispatch loop measures 34 / 39 /
    // 434 allocations (the match loop pays one args-`Vec` per
    // `Inject` and one fields-`Vec` per `Make`). Byte traffic on the deep non-tail
    // recursion is a little higher (each of the 500 live windows is a
    // full frame's registers, and the file doubles through them);
    // budgets leave ~40% headroom.
    assert!(r1.0 < 50, "pair_list_fold run regressed: {r1:?}");
    assert!(r2.0 < 55, "cons_build run regressed: {r2:?}");
    assert!(
        r2.1 < 320_000,
        "cons_build run byte traffic regressed: {r2:?}"
    );
    assert!(r3.0 < 600, "match_proj_loop run regressed: {r3:?}");
}
