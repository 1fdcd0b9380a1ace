//! Derivations are shared DAGs with one node per distinct proof step:
//! a derivation-cache hit costs the same at any chain depth, and what
//! a session exports and saves grows with the number of distinct
//! nodes (chain-n holds n + 1), not with the steps of every cached
//! tree (1 + 2 + … + (n + 1)).
//!
//! A counting global allocator counts per thread, and every
//! measurement runs on a fresh thread (fresh interning arena), so
//! tests running in parallel do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;
use std::rc::Rc;

use implicit_core::intern;
use implicit_core::resolve::{resolve, Premise, Resolution, ResolutionPolicy};
use implicit_core::symbol::Symbol;
use implicit_core::syntax::{BinOp, Declarations, Expr, Type};
use implicit_pipeline::{Backend, Prelude, Session};

struct CountingAlloc;

thread_local! {
    // `const`-initialised and drop-free: the allocator may touch it at
    // any point of a thread's life without allocating itself.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; counting only
// touches a thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations this thread makes while running `f`.
fn allocs<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Runs `f` on a fresh thread with room for chain-depth recursion.
fn on_fresh_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(f)
        .unwrap()
        .join()
        .unwrap()
}

/// A chain-`n` session after one query of its top type.
fn warm_chain(decls: &Declarations, n: usize) -> Session<'_> {
    let mut s = Session::new(decls, ResolutionPolicy::paper(), &Prelude::chain(n)).unwrap();
    s.run(&Expr::Snd(
        Expr::query_simple(Prelude::chain_head(n)).into(),
    ))
    .unwrap();
    s
}

/// The distinct nodes of the derivations `roots`.
fn distinct_nodes<'r>(roots: impl IntoIterator<Item = &'r Rc<Resolution>>) -> usize {
    let mut seen = HashSet::new();
    let mut stack: Vec<&Rc<Resolution>> = roots.into_iter().collect();
    while let Some(r) = stack.pop() {
        if seen.insert(Rc::as_ptr(r)) {
            for p in &r.premises {
                if let Premise::Derived(d) = p {
                    stack.push(d);
                }
            }
        }
    }
    seen.len()
}

/// The bytes a session's derivation cache adds to its artifact.
fn cache_section_bytes(s: &mut Session) -> usize {
    let full = s.to_artifact().len();
    s.env().retain_cache(|_| false);
    full - s.to_artifact().len()
}

#[test]
fn a_cache_hit_allocates_the_same_at_every_chain_depth() {
    let counts: Vec<(u64, u64)> = [12, 48, 96]
        .into_iter()
        .map(|n| {
            on_fresh_thread(move || {
                let decls = Declarations::new();
                let s = warm_chain(&decls, n);
                let policy = ResolutionPolicy::paper();
                let top = Prelude::chain_head(n).promote();
                let (same_depth, res) = allocs(|| resolve(s.env(), &top, &policy).unwrap());
                assert_eq!(res.steps(), n + 1);
                drop(res);
                // One frame deeper the hit keeps its nodes: only the
                // root is copied, to carry the depth it is printed at.
                let mut env = s.env().clone();
                env.push(vec![Type::Bool.promote()]);
                let (deeper, res) = allocs(|| resolve(&env, &top, &policy).unwrap());
                assert_eq!(res.steps(), n + 1);
                (same_depth, deeper)
            })
        })
        .collect();
    assert!(
        counts.iter().all(|c| *c == counts[0]),
        "hits allocate by depth: {counts:?}"
    );
    assert!(counts[0].1 <= 8, "a deeper hit copies one node: {counts:?}");
}

#[test]
fn the_restart_session_exports_one_node_per_chain_type() {
    on_fresh_thread(|| {
        // The `restart` benchmark's prelude: chain-48 plus `let base`,
        // and its chain query.
        let decls = Declarations::new();
        let mut prelude = Prelude::chain(48);
        let base = Symbol::intern("base");
        prelude.lets.push((base, Type::Int, Expr::Int(7)));
        let mut s =
            Session::new_configured(&decls, ResolutionPolicy::paper(), &prelude, true, false)
                .unwrap();
        let query = Expr::Snd(Expr::query_simple(Prelude::chain_head(48)).into());
        s.run_with_backend(
            &Expr::binop(BinOp::Add, query, Expr::var(base)),
            Backend::Vm,
        )
        .unwrap();
        let exported = s.env().export_cache(&intern::snapshot());
        assert_eq!(exported.len(), 49);
        assert_eq!(distinct_nodes(exported.iter().map(|c| &c.resolution)), 49);
        let bytes = s.to_artifact();
        let decoded = implicit_pipeline::artifact::decode(&bytes).unwrap();
        assert_eq!(
            distinct_nodes(decoded.cache_entries.iter().map(|c| &c.resolution)),
            49
        );
    });
}

#[test]
fn the_cache_section_and_its_export_grow_linearly() {
    let measure = |n: usize| {
        on_fresh_thread(move || {
            let decls = Declarations::new();
            let mut s = warm_chain(&decls, n);
            let snap = intern::snapshot();
            let (export, exported) = allocs(|| s.env().export_cache(&snap));
            let (import, ()) = allocs(|| {
                let mut fresh = implicit_core::ImplicitEnv::new();
                for _ in 0..s.env().depth() {
                    fresh.push(Vec::new());
                }
                fresh.import_cache(exported);
            });
            (cache_section_bytes(&mut s), export, import)
        })
    };
    let (bytes48, export48, import48) = measure(48);
    let (bytes96, export96, import96) = measure(96);
    for (what, at48, at96) in [
        ("cache section bytes", bytes48, bytes96),
        ("export allocations", export48 as usize, export96 as usize),
        ("import allocations", import48 as usize, import96 as usize),
    ] {
        assert!(
            at96 * 10 <= at48 * 22,
            "{what}: chain-96 {at96} vs chain-48 {at48}"
        );
    }
}
