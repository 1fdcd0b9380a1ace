//! `Session::persist` is sound and lazy.
//!
//! Sound: after every program, the store holds exactly the artifact
//! the session would serialize now — whether `persist` wrote or
//! skipped. A mutation of the derivation cache, the runtime memo or
//! the dictionary cache that forgot to bump its version makes
//! `persist` skip a change, and the comparison fails.
//!
//! Lazy: on an exact-hit session whose programs only hit the caches,
//! `persist` neither encodes nor writes. A counting global allocator
//! counts per thread, and each measurement runs on a fresh thread
//! (fresh interning arena), so tests running in parallel do not see
//! each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

use genprog::{data_prelude, gen_program_with, rng, GenConfig};
use implicit_core::resolve::ResolutionPolicy;
use implicit_core::syntax::{BinOp, Declarations, Expr, RuleType, TyVar, Type};
use implicit_pipeline::artifact::{load_or_build, ArtifactStore, LoadOutcome};
use implicit_pipeline::{Prelude, Session};

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
fn allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Runs `f` on a fresh big-stack thread: chain preludes recurse
/// deeply through resolve/elaborate/eval in debug builds.
fn on_fresh_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(f)
        .unwrap()
        .join()
        .unwrap()
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("implicit-persist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A store-loaded session: the store is primed by a cold build that
/// is dropped, then loaded back as an exact hit.
fn exact_hit<'d>(
    store: &ArtifactStore,
    decls: &'d Declarations,
    prelude: &Prelude,
    dict_ic: bool,
) -> Session<'d> {
    let policy = ResolutionPolicy::paper();
    let (_, outcome) = load_or_build(store, decls, &policy, prelude, true, dict_ic).unwrap();
    assert!(matches!(outcome, LoadOutcome::Cold), "{outcome:?}");
    let (session, outcome) = load_or_build(store, decls, &policy, prelude, true, dict_ic).unwrap();
    assert!(matches!(outcome, LoadOutcome::Exact), "{outcome:?}");
    session
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Semantics {
    Elab,
    Opsem,
    Both,
}

const PROGRAMS: u64 = 200;

const CHAIN: usize = 6;

/// The chain prelude plus `∀a. {a} ⇒ a × Bool`: a query
/// `?(Tₖ × Bool)` resolves through the prelude but interns its type
/// only when asked, above the prelude watermark, so a trim drops it.
fn prelude() -> Prelude {
    let mut p = Prelude::chain(CHAIN);
    let a = TyVar::from("persist_a");
    let rho = RuleType::new(
        vec![a],
        vec![Type::var(a).promote()],
        Type::prod(Type::var(a), Type::Bool),
    );
    let body = Expr::pair(Expr::query_simple(Type::var(a)), Expr::Bool(true));
    p.implicits.push((Expr::rule_abs(rho.clone(), body), rho));
    p
}

/// A query the prelude answers; which one depends on `seed`.
fn prelude_query(seed: u64) -> Expr {
    let head = Prelude::chain_head(seed as usize % (CHAIN + 1));
    Expr::query_simple(if (seed / 3).is_multiple_of(2) {
        head
    } else {
        Type::prod(head, Type::Bool)
    })
}

/// Runs `e` under `semantics`, on the compiled path (where the
/// dictionary cache promotes globals) or the tree walker.
fn run(session: &mut Session<'_>, semantics: Semantics, compiled: bool, e: &Expr) {
    if semantics != Semantics::Opsem {
        let _ = if compiled {
            session.run_compiled(e)
        } else {
            session.run(e)
        };
    }
    if semantics != Semantics::Elab {
        let _ = session.run_opsem(e);
    }
}

fn store_matches_the_session_after_every_program(semantics: Semantics, dict_ic: bool) {
    on_fresh_thread(move || {
        let dir = tmpdir(&format!("prop-{semantics:?}-{dict_ic}"));
        let store = ArtifactStore::new(&dir).unwrap();
        let decls = data_prelude();
        let mut session = exact_hit(&store, &decls, &prelude(), dict_ic);
        let key = session.content_key();
        let config = GenConfig::default();
        let (mut writes, mut skips) = (0u64, 0u64);
        let mut check = |session: &mut Session<'_>, what: &dyn std::fmt::Display| {
            if session.persist(&store).unwrap() {
                writes += 1;
            } else {
                skips += 1;
            }
            assert_eq!(
                store.load(key).as_deref(),
                Some(&session.to_artifact()[..]),
                "[{semantics:?}, dict_ic={dict_ic}] the store missed {what}"
            );
        };
        for seed in 0..PROGRAMS {
            // A generated program: its own scopes push frames that
            // can invalidate prelude-level cache entries.
            let prog = gen_program_with(&mut rng(0x9E85_1575 ^ seed), &config, &decls);
            run(&mut session, semantics, seed % 2 == 0, &prog.expr);
            check(&mut session, &prog.expr);
            // A prelude-level query: a cache entry and a memo root the
            // artifact keeps. Run again compiled, it hits the cache
            // and (with the dictionary IC on) only promotes a global.
            let query = prelude_query(seed);
            for compiled in [false, true] {
                run(&mut session, semantics, compiled, &query);
                check(&mut session, &query);
            }
            if seed % 25 == 24 {
                // The arena rollback drops every entry keyed above
                // the prelude watermark.
                session.trim();
                check(&mut session, &"a trim");
            }
        }
        assert!(writes > 0, "the programs teach the session something");
        assert!(skips > 0, "programs that teach nothing write nothing");
        let _ = std::fs::remove_dir_all(&dir);
    });
}

#[test]
fn persist_is_sound_under_elaboration() {
    store_matches_the_session_after_every_program(Semantics::Elab, false);
    store_matches_the_session_after_every_program(Semantics::Elab, true);
}

#[test]
fn persist_is_sound_under_opsem() {
    store_matches_the_session_after_every_program(Semantics::Opsem, false);
    store_matches_the_session_after_every_program(Semantics::Opsem, true);
}

#[test]
fn persist_is_sound_under_both_semantics() {
    store_matches_the_session_after_every_program(Semantics::Both, false);
    store_matches_the_session_after_every_program(Semantics::Both, true);
}

/// `snd(?Tₙ) + j` on the chain-`n` prelude.
fn chain_query(n: usize, j: i64) -> Expr {
    Expr::binop(
        BinOp::Add,
        Expr::Snd(Expr::query_simple(Prelude::chain_head(n)).into()),
        Expr::Int(j),
    )
}

#[test]
fn persist_after_cache_hits_neither_encodes_nor_writes() {
    const N: usize = 48;
    let (skip, encode) = on_fresh_thread(|| {
        let dir = tmpdir("lazy");
        let store = ArtifactStore::new(&dir).unwrap();
        let decls = Declarations::default();
        let prelude = Prelude::chain(N);
        {
            // A first process learns the query and saves it.
            let mut first = exact_hit(&store, &decls, &prelude, false);
            first.run_compiled(&chain_query(N, 0)).unwrap();
            assert!(first.persist(&store).unwrap(), "a learned query is written");
            assert!(!first.persist(&store).unwrap(), "and written once");
        }
        let files = |dir: &PathBuf| {
            let mut v: Vec<_> = std::fs::read_dir(dir)
                .unwrap()
                .map(|e| {
                    let e = e.unwrap();
                    (e.file_name(), e.metadata().unwrap().modified().unwrap())
                })
                .collect();
            v.sort();
            v
        };
        let before = files(&dir);
        let policy = ResolutionPolicy::paper();
        let (mut session, outcome) =
            load_or_build(&store, &decls, &policy, &prelude, true, false).unwrap();
        assert!(matches!(outcome, LoadOutcome::Exact));
        let hits = session.cache_counters().hits;
        for j in 1..4 {
            session.run_compiled(&chain_query(N, j)).unwrap();
        }
        assert!(session.cache_counters().hits > hits, "the programs hit");
        let (wrote, skip) = allocs(|| session.persist(&store).unwrap());
        assert!(!wrote, "nothing new to write");
        assert_eq!(files(&dir), before, "an exact hit leaves the store alone");
        let (_, encode) = allocs(|| session.to_artifact());
        let _ = std::fs::remove_dir_all(&dir);
        (skip, encode)
    });
    assert!(skip <= 4, "persist allocated {skip} times without encoding");
    assert!(
        encode > 100,
        "encoding the chain-{N} artifact allocates ({encode}), which a skip avoids"
    );
}

#[test]
fn a_scope_that_only_shelves_is_not_written() {
    on_fresh_thread(|| {
        let dir = tmpdir("shadow");
        let store = ArtifactStore::new(&dir).unwrap();
        let decls = Declarations::default();
        let mut session = exact_hit(&store, &decls, &Prelude::chain(4), false);
        session.run(&chain_query(4, 0)).unwrap();
        assert!(session.persist(&store).unwrap());
        // A local `Int` frame shadows what the cached derivation of
        // the chain head looked up, so pushing it shelves that entry
        // and popping it puts the entry back; nothing is resolved
        // inside it.
        let shadow = implicit_core::parse::parse_expr("implicit {7 : Int} in 1 : Int").unwrap();
        session.run(&shadow).unwrap();
        assert!(
            !session.persist(&store).unwrap(),
            "the saved state did not change"
        );
        assert_eq!(
            store.load(session.content_key()),
            Some(session.to_artifact())
        );
        let _ = std::fs::remove_dir_all(&dir);
    });
}

#[test]
fn only_memo_changes_the_artifact_keeps_are_written() {
    on_fresh_thread(|| {
        let dir = tmpdir("memo-root");
        let store = ArtifactStore::new(&dir).unwrap();
        let decls = Declarations::default();
        let mut session = exact_hit(&store, &decls, &Prelude::chain(4), false);
        let key = session.content_key();
        let saved = |session: &mut Session<'_>| {
            assert_eq!(store.load(key), Some(session.to_artifact()));
        };
        // The opsem leg memoizes `?(Int)` under the scope's own frame:
        // a program-local entry the artifact does not keep.
        let local = implicit_core::parse::parse_expr("implicit {7 : Int} in ?(Int) : Int").unwrap();
        session.run_opsem(&local).unwrap();
        assert!(
            !session.persist(&store).unwrap(),
            "a program-local memo entry is not written"
        );
        saved(&mut session);
        // A prelude-level query: rooted inserts.
        session.run_opsem(&chain_query(4, 0)).unwrap();
        assert!(
            session.persist(&store).unwrap(),
            "a rooted insert is written"
        );
        saved(&mut session);
        // As many program-local entries as the memo holds push every
        // rooted entry out: rooted evictions.
        for _ in 0..implicit_core::env::DEFAULT_CACHE_CAPACITY {
            session.run_opsem(&local).unwrap();
        }
        assert!(
            session.persist(&store).unwrap(),
            "a rooted eviction is written"
        );
        saved(&mut session);
        session.run_opsem(&local).unwrap();
        assert!(
            !session.persist(&store).unwrap(),
            "evicting a program-local entry is not written"
        );
        saved(&mut session);
        let _ = std::fs::remove_dir_all(&dir);
    });
}

#[test]
fn knob_changes_forget_the_stored_artifact() {
    on_fresh_thread(|| {
        let dir = tmpdir("knob");
        let store = ArtifactStore::new(&dir).unwrap();
        let decls = Declarations::default();
        let prelude = Prelude::chain(4);
        let mut session = exact_hit(&store, &decls, &prelude, false);
        let before = session.content_key();
        assert!(!session.persist(&store).unwrap());
        session.set_dict_ic(true);
        let after = session.content_key();
        assert_ne!(before, after, "the knob is part of the content key");
        assert!(session.persist(&store).unwrap(), "a new key is written");
        assert!(store.load(after).is_some());
        let other = ArtifactStore::new(dir.join("other")).unwrap();
        assert!(session.persist(&other).unwrap(), "another store is written");
        let _ = std::fs::remove_dir_all(&dir);
    });
}
