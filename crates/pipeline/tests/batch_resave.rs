//! Batch-worker artifact re-save: a drained worker writes its warmed
//! session back to the shared store, so the *next* run of the same
//! batch exact-hits a hotter image than a cold build — with zero
//! decode fallbacks. This pins the library-level contract behind
//! `implicitc --batch --cache-dir` (and the daemon's tenant-close
//! re-save, which uses the same path).

use implicit_core::resolve::ResolutionPolicy;
use implicit_core::symbol::Symbol;
use implicit_core::syntax::{BinOp, Declarations, Expr, Type};
use implicit_pipeline::artifact::{
    artifact_key, config_key, load_or_build, ArtifactStore, LoadOutcome,
};
use implicit_pipeline::Prelude;
use systemf::Isa;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("implicit-resave-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A prelude with lets and two implicit frames, like the batch
/// preludes the CLI serves.
fn prelude() -> Prelude {
    let x = Symbol::intern("x0");
    Prelude {
        lets: vec![(x, Type::Int, Expr::Int(40))],
        implicits: vec![
            (Expr::var(x), Type::Int.promote()),
            (
                Expr::pair(Expr::query_simple(Type::Int), Expr::Int(2)),
                Type::prod(Type::Int, Type::Int).promote(),
            ),
        ],
    }
}

fn probe() -> Expr {
    Expr::binop(
        BinOp::Add,
        Expr::Fst(Expr::query_simple(Type::prod(Type::Int, Type::Int)).into()),
        Expr::Snd(Expr::query_simple(Type::prod(Type::Int, Type::Int)).into()),
    )
}

#[test]
fn second_batch_run_exact_hits_the_resaved_artifact() {
    let dir = tmpdir("warm");
    let store = ArtifactStore::new(&dir).unwrap();
    let decls = Declarations::default();
    let policy = ResolutionPolicy::paper();
    let prelude = prelude();

    // First run: cold build, execute the batch, then re-save the
    // warmed state exactly as a drained batch worker does.
    let (mut session, outcome) =
        load_or_build(&store, &decls, &policy, &prelude, true, false).unwrap();
    assert!(
        matches!(outcome, LoadOutcome::Cold),
        "fresh store must cold-build"
    );
    let v1 = session.run_compiled(&probe()).unwrap();
    let key = artifact_key(&decls, &prelude, &policy, true, false, Isa::Register);
    let cfg = config_key(&decls, &policy, true, false, Isa::Register);
    let warmed = session.to_artifact();
    store.save(key, cfg, &warmed).unwrap();
    drop(session);

    // The store now holds the warmed bytes verbatim.
    let on_disk = store.load(key).expect("saved artifact readable");
    assert_eq!(
        on_disk, warmed,
        "re-save must store the warmed image byte-for-byte"
    );

    // Second run: exact hit on the warmed image, no fallbacks, and
    // identical results.
    let (mut again, outcome) =
        load_or_build(&store, &decls, &policy, &prelude, true, false).unwrap();
    assert!(
        matches!(outcome, LoadOutcome::Exact),
        "second run must exact-hit the re-saved artifact, got {outcome:?}"
    );
    assert_eq!(
        again.metrics().artifact_fallbacks,
        0,
        "warm load must not fall back to a cold build"
    );
    let v2 = again.run(&probe()).unwrap();
    assert_eq!(v1.value.to_string(), v2.value.to_string());
    assert_eq!(v1.source_type.to_string(), v2.source_type.to_string());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resave_after_more_work_still_exact_hits() {
    // A third process warms further and re-saves again; the ladder
    // keeps exact-hitting (the key depends on the recipe, not on the
    // cache payload).
    let dir = tmpdir("iterate");
    let store = ArtifactStore::new(&dir).unwrap();
    let decls = Declarations::default();
    let policy = ResolutionPolicy::paper();
    let prelude = prelude();
    let key = artifact_key(&decls, &prelude, &policy, true, false, Isa::Register);
    let cfg = config_key(&decls, &policy, true, false, Isa::Register);

    for round in 0..3 {
        let (mut session, outcome) =
            load_or_build(&store, &decls, &policy, &prelude, true, false).unwrap();
        if round == 0 {
            assert!(matches!(outcome, LoadOutcome::Cold));
        } else {
            assert!(
                matches!(outcome, LoadOutcome::Exact),
                "round {round} must exact-hit, got {outcome:?}"
            );
            assert_eq!(session.metrics().artifact_fallbacks, 0);
        }
        session.run_compiled(&probe()).unwrap();
        store.save(key, cfg, &session.to_artifact()).unwrap();
    }

    let _ = std::fs::remove_dir_all(&dir);
}
