//! A warm session pays for its prelude once.
//!
//! Preservation of a program is checked against the session's
//! resident System F context, so its cost follows the program, not the
//! size of the prelude's types; building the session translates each
//! binder once, so build cost grows no faster than the prelude's
//! total type size. Reading the prelude's text costs about what
//! building its tree costs, and a restart on a prelude text the
//! artifact store has seen does not read it at all.
//!
//! A counting global allocator counts per thread, and every
//! measurement runs on a fresh thread (fresh interning arena), so
//! tests running in parallel do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use implicit_core::parse::{parse_declarations, parse_expr, parse_program};
use implicit_core::resolve::ResolutionPolicy;
use implicit_core::symbol::Symbol;
use implicit_core::syntax::{Declarations, Expr, Type};
use implicit_pipeline::artifact::{self, ArtifactStore};
use implicit_pipeline::service::prelude_source;
use implicit_pipeline::{Prelude, Session};

struct CountingAlloc;

thread_local! {
    // `const`-initialised and drop-free: the allocator may touch it at
    // any point of a thread's life without allocating itself.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation of `size` bytes on this thread.
fn count(size: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    BYTES.with(|c| c.set(c.get() + size as u64));
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; counting only
// touches a thread-local `Cell`, which neither allocates nor unwinds.
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

/// Allocations this thread makes while running `f`.
fn allocs(f: impl FnOnce()) -> u64 {
    allocs_and_bytes(f).0
}

/// Allocations, and bytes requested, this thread makes while running
/// `f` (a `realloc` counts as one allocation of its new size).
fn allocs_and_bytes(f: impl FnOnce()) -> (u64, u64) {
    let before = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    f();
    (
        ALLOCS.with(Cell::get) - before.0,
        BYTES.with(Cell::get) - before.1,
    )
}

/// Runs `f` on a fresh thread. Chain preludes recurse deeply through
/// resolve/elaborate/eval, which overflows a default test-thread
/// stack in debug builds.
fn on_fresh_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(f)
        .unwrap()
        .join()
        .unwrap()
}

/// Allocations of one warm `typecheck` of `1 + 2` under the prelude
/// `make` builds (measured on the second call, after the first has
/// interned the program's types). Preludes are `Rc`-based, so each is
/// built on the thread that uses it.
fn typecheck_allocs(make: fn() -> Prelude) -> u64 {
    on_fresh_thread(move || {
        let decls = Declarations::default();
        let prelude = make();
        let mut session = Session::new(&decls, ResolutionPolicy::paper(), &prelude).unwrap();
        let e = parse_expr("1 + 2").unwrap();
        assert_eq!(session.typecheck(&e).unwrap(), Type::Int);
        allocs(|| {
            session.typecheck(&e).unwrap();
        })
    })
}

/// Allocations of building a session over `chain(n)`.
fn build_allocs(n: usize) -> u64 {
    on_fresh_thread(move || {
        let decls = Declarations::default();
        let prelude = Prelude::chain(n);
        allocs(|| {
            Session::new(&decls, ResolutionPolicy::paper(), &prelude).unwrap();
        })
    })
}

#[test]
fn program_preservation_cost_does_not_depend_on_prelude_types() {
    // Both preludes bind 49 implicits; the chain's types grow to 49
    // nested products, the other's are all `Int`.
    let chain = typecheck_allocs(|| Prelude::chain(48));
    let flat =
        typecheck_allocs(|| Prelude::implicits(vec![(Expr::Int(0), Type::Int.promote()); 49]));
    eprintln!("prelude_cost: typecheck `1 + 2`: chain(48) {chain} allocs, 49 Ints {flat}");
    assert_eq!(
        chain, flat,
        "typecheck of `1 + 2` allocates {chain} times under chain(48), {flat} under 49 `Int`s"
    );
}

#[test]
fn session_build_grows_no_faster_than_prelude_type_size() {
    // Doubling the chain quadruples the prelude's total type size
    // (binding k's type has k products); re-translating every earlier
    // binder per binding would multiply the build by about 8.
    let small = build_allocs(48);
    let large = build_allocs(96);
    eprintln!("prelude_cost: build: chain(48) {small} allocs, chain(96) {large}");
    assert!(
        large < 4 * small,
        "chain(96) build allocates {large} times, chain(48) {small}: ratio {:.2}",
        large as f64 / small as f64
    );
}

/// The restart workload's prelude text: chain(48) plus
/// `let base : Int`, 67,978 bytes and 33,490 tokens.
fn restart_prelude_text() -> String {
    let mut prelude = Prelude::chain(48);
    prelude
        .lets
        .push((Symbol::intern("base"), Type::Int, Expr::Int(0)));
    prelude_source(&prelude)
}

#[test]
fn parsing_the_restart_prelude_allocates_little_beyond_its_tree() {
    // Identifiers borrow from the text, tokens are read one at a time
    // and never cloned, one-entry contexts are not sorted, and each
    // distinct type node is built once per parse. A parser that owns a
    // `String` per identifier, collects the whole token vector first
    // and clones each token it looks at takes about 60,800 allocations
    // and 7.5 MB; one that builds every spelled-out type afresh takes
    // about 16,700 and 0.9 MB; this parser takes about 640 and 0.13 MB.
    let (n, bytes) = on_fresh_thread(|| {
        let src = restart_prelude_text();
        allocs_and_bytes(|| {
            parse_program(&src).unwrap();
        })
    });
    const BUDGET_ALLOCS: u64 = 1_000;
    const BUDGET_BYTES: u64 = 200_000;
    eprintln!("prelude_cost: parse restart prelude: {n} allocs, {bytes} bytes");
    assert!(
        n <= BUDGET_ALLOCS,
        "{n} allocations, budget {BUDGET_ALLOCS}"
    );
    assert!(
        bytes <= BUDGET_BYTES,
        "{bytes} bytes, budget {BUDGET_BYTES}"
    );
}

#[test]
fn a_restart_on_a_seen_prelude_text_allocates_what_decoding_does() {
    // A restart through the source rung reads the text's pointer and
    // its artifact, then decodes and assembles; it neither parses nor
    // keys the text. Each measurement runs on a fresh thread, so each
    // interns the artifact's types afresh.
    let dir = std::env::temp_dir().join(format!("implicit-prelude-cost-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store_dir = dir.clone();
    let load = move |parse: fn(&str) -> Result<Prelude, String>| {
        let dir = store_dir.clone();
        on_fresh_thread(move || {
            let store = ArtifactStore::new(&dir).unwrap();
            let text = restart_prelude_text();
            let policy = ResolutionPolicy::paper();
            allocs(|| {
                let decls = parse_declarations(&text).unwrap();
                artifact::load_or_build_source(&store, &decls, &policy, &text, true, false, || {
                    parse(&text)
                })
                .unwrap();
            })
        })
    };
    fn parse(text: &str) -> Result<Prelude, String> {
        Prelude::from_wrapped(&parse_program(text).map_err(|e| e.to_string())?.1)
    }
    fn unparsed(_: &str) -> Result<Prelude, String> {
        panic!("the source rung parsed the text")
    }
    load(parse);
    let rung = load(unparsed);
    let artifact = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "iart"))
        .unwrap();
    let bytes = std::fs::read(artifact).unwrap();
    let decode_assemble = on_fresh_thread(move || {
        let decls = Declarations::default();
        allocs(|| {
            let a = artifact::decode(&bytes).unwrap();
            artifact::assemble(&decls, a).unwrap();
        })
    });
    let _ = std::fs::remove_dir_all(&dir);
    const SLACK: u64 = 64;
    eprintln!(
        "prelude_cost: restart on a seen text: {rung} allocs; decode + assemble {decode_assemble}"
    );
    assert!(
        rung <= decode_assemble + SLACK,
        "the source rung allocates {rung} times, decode + assemble {decode_assemble}"
    );
}
