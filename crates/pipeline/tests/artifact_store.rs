//! Artifact-store behavior: exact rehydration fidelity (byte-stable
//! re-encode), graceful degradation on corruption (fallback to cold,
//! counted, never a panic or stale code) — including well-checksummed
//! code whose operands the VM would misuse, and store pointers that do
//! not read as keys — incremental-rebuild precision (a one-binding edit
//! invalidates exactly its dependency cone), and the source rung (a
//! prelude text the store has seen loads the session the ladder would,
//! without being parsed).

use std::rc::Rc;

use implicit_core::parse::{parse_declarations, parse_expr, parse_program};
use implicit_core::resolve::ResolutionPolicy;
use implicit_core::symbol::Symbol;
use implicit_core::syntax::{BinOp, Declarations, Expr, Type};
use implicit_pipeline::artifact::{
    self, artifact_key, config_key, load_or_build, load_or_build_source, source_key, ArtifactStore,
    DecodedArtifact, LoadOutcome,
};
use implicit_pipeline::service::prelude_source;
use implicit_pipeline::{Prelude, Session};
use systemf::compile::{CapSrc, FuncKind, Instr, RK_CONST};
use systemf::vm::VmClosure;
use systemf::{Isa, Value};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("implicit-artifact-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// `x0 = root; x_k = x_{k-1} + 1` lets, then two implicits: `Int`
/// evidence reading the last let, and `Int × Int` evidence querying
/// `?Int` (so it reads the first implicit's evidence). Every binding
/// reads its predecessor, so the dependency graph is one chain —
/// invalidation cones are exact intervals.
fn lets_chain(n: usize, root: i64, bump: i64) -> Prelude {
    let x = |k: usize| Symbol::intern(&format!("x{k}"));
    let mut lets = vec![(x(0), Type::Int, Expr::Int(root))];
    for k in 1..n {
        lets.push((
            x(k),
            Type::Int,
            Expr::binop(BinOp::Add, Expr::var(x(k - 1)), Expr::Int(1)),
        ));
    }
    let implicits = vec![
        (Expr::var(x(n - 1)), Type::Int.promote()),
        (
            Expr::pair(Expr::query_simple(Type::Int), Expr::Int(bump)),
            Type::prod(Type::Int, Type::Int).promote(),
        ),
    ];
    Prelude { lets, implicits }
}

/// `?(Int × Int)` plus the first let — exercises lets, both implicit
/// frames, the derivation cache, and the runtime memo.
fn probe() -> Expr {
    Expr::binop(
        BinOp::Add,
        Expr::Snd(Expr::query_simple(Type::prod(Type::Int, Type::Int)).into()),
        Expr::var("x0"),
    )
}

#[test]
fn rehydrated_session_reencodes_byte_identically() {
    let decls = Declarations::default();
    let prelude = lets_chain(4, 10, 1);
    let policy = ResolutionPolicy::paper();
    let mut builder = Session::new(&decls, policy.clone(), &prelude).unwrap();
    // Warm the caches so the artifact carries nontrivial cache and
    // memo sections, not just the prelude skeleton.
    builder.run(&probe()).unwrap();
    builder.run_compiled(&probe()).unwrap();
    builder.run_opsem(&probe()).unwrap();
    let bytes = builder.to_artifact();
    drop(builder);

    let mut back = Session::from_artifact(&decls, &policy, &prelude, true, false, &bytes).unwrap();
    let again = back.to_artifact();
    assert_eq!(
        bytes, again,
        "decode → assemble → re-encode must be byte-identical"
    );

    // And the rehydrated session computes the same values as a cold
    // build, with warm-cache behavior (hits on the very first run).
    let mut cold = Session::new(&decls, policy, &prelude).unwrap();
    let w = back.run_compiled(&probe()).unwrap();
    let c = cold.run_compiled(&probe()).unwrap();
    assert_eq!(w.value.to_string(), c.value.to_string());
    let hits = back.cache_counters().hits;
    assert!(
        hits > 0,
        "rehydrated session must hit the imported derivation cache on its first program"
    );
}

#[test]
fn corrupted_artifacts_fall_back_to_cold_and_are_counted() {
    let decls = Declarations::default();
    let prelude = lets_chain(3, 5, 2);
    let policy = ResolutionPolicy::paper();
    let mut builder = Session::new(&decls, policy.clone(), &prelude).unwrap();
    builder.run(&probe()).unwrap();
    let bytes = builder.to_artifact();
    drop(builder);

    // Every single-bit flip must be rejected at decode/validate time
    // (checksum first, structural tags behind it) — sample positions
    // across the whole payload, including the trailing checksum.
    for pos in (0..bytes.len()).step_by((bytes.len() / 64).max(1)) {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x10;
        let r = Session::from_artifact(&decls, &policy, &prelude, true, false, &bad);
        assert!(
            r.is_err(),
            "bit-flip at byte {pos} was accepted — stale/corrupt state could leak"
        );
    }
    // Truncations too.
    for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            Session::from_artifact(&decls, &policy, &prelude, true, false, &bytes[..cut],).is_err(),
            "truncated artifact ({cut} bytes) was accepted"
        );
    }

    // A corrupt store degrades to a cold build and counts the
    // fallback on the session metrics.
    let dir = tmpdir("corrupt");
    let store = ArtifactStore::new(&dir).unwrap();
    let key = artifact_key(&decls, &prelude, &policy, true, false, Isa::Register);
    let mut bad = bytes.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0xFF;
    std::fs::write(store.content_path(key), &bad).unwrap();
    let (sess, outcome) =
        artifact::load_or_build(&store, &decls, &policy, &prelude, true, false).unwrap();
    assert!(matches!(outcome, LoadOutcome::Cold), "got {outcome:?}");
    assert_eq!(
        sess.metrics().artifact_fallbacks,
        1,
        "the corrupt artifact must be counted as a fallback"
    );
    // The cold build overwrote the corrupt file; the next load is an
    // exact hit with no fallbacks.
    drop(sess);
    let (sess2, outcome2) =
        artifact::load_or_build(&store, &decls, &policy, &prelude, true, false).unwrap();
    assert!(matches!(outcome2, LoadOutcome::Exact), "got {outcome2:?}");
    assert_eq!(sess2.metrics().artifact_fallbacks, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `Prelude::chain(3)` plus lets whose code holds every operand class
/// the decoder checks: a curried `add3` (local and transitive capture
/// sources) and a `fix` countdown (a recursive capture, and a
/// `CompiledRec` sentinel inside its value).
fn operand_prelude() -> Prelude {
    let int = || Type::Int;
    let (x, y, z, n, go) = ("x", "y", "z", "n", Symbol::intern("go"));
    let add3 = Expr::lam(
        x,
        int(),
        Expr::lam(
            y,
            int(),
            Expr::lam(
                z,
                int(),
                Expr::binop(
                    BinOp::Add,
                    Expr::var(x),
                    Expr::binop(BinOp::Add, Expr::var(y), Expr::var(z)),
                ),
            ),
        ),
    );
    let countdown = Expr::Fix(
        go,
        Type::arrow(int(), int()),
        Rc::new(Expr::lam(
            n,
            int(),
            Expr::if_(
                Expr::binop(BinOp::Le, Expr::var(n), Expr::Int(0)),
                Expr::Int(0),
                Expr::app(
                    Expr::var(go),
                    Expr::binop(BinOp::Sub, Expr::var(n), Expr::Int(1)),
                ),
            ),
        )),
    );
    let mut p = Prelude::chain(3);
    p.lets = vec![
        (
            Symbol::intern("add3"),
            Type::arrow(int(), Type::arrow(int(), Type::arrow(int(), int()))),
            add3,
        ),
        (
            Symbol::intern("count"),
            Type::arrow(int(), int()),
            countdown,
        ),
    ];
    p
}

/// `prelude`'s artifact with `craft` applied to its decoded parts,
/// re-encoded: the checksum is valid, so only the decoder's operand
/// checks stand between these bytes and the VM.
fn crafted(
    decls: &Declarations,
    prelude: &Prelude,
    craft: &dyn Fn(&mut DecodedArtifact),
) -> Vec<u8> {
    let bytes = Session::new(decls, ResolutionPolicy::paper(), prelude)
        .unwrap()
        .to_artifact();
    let mut a = artifact::decode(&bytes).unwrap();
    craft(&mut a);
    artifact::assemble(decls, a).unwrap().to_artifact()
}

type Craft = Box<dyn Fn(&mut DecodedArtifact)>;

/// Index of the first function of `kind`.
fn first(a: &DecodedArtifact, kind: FuncKind) -> usize {
    a.code_parts
        .funcs
        .iter()
        .position(|f| f.kind == kind)
        .expect("function of the kind")
}

/// Puts `i` in front of the first lambda's code (every jump target
/// stays inside the code, so `i` is the only bad operand).
fn prepend(i: Instr) -> Craft {
    Box::new(move |a| {
        let f = first(a, FuncKind::Lambda);
        a.code_parts.funcs[f].code.insert(0, i);
    })
}

/// Points every `RRet` whose operand is of `to`'s kind (register or
/// RK constant) at `to`.
fn reret(to: u16) -> Craft {
    Box::new(move |a| {
        for f in &mut a.code_parts.funcs {
            for i in &mut f.code {
                if let Instr::RRet { src } = i {
                    if *src & RK_CONST == to & RK_CONST {
                        *src = to;
                    }
                }
            }
        }
    })
}

/// Replaces the capture source of `add3`'s middle lambda, whose
/// creator is the outer lambda (one register, no captures, no `fix`).
fn recapture(src: CapSrc) -> Craft {
    Box::new(move |a| {
        let f = a
            .code_parts
            .funcs
            .iter_mut()
            .find(|f| matches!(f.captures.as_slice(), [CapSrc::Local(_)]))
            .expect("a function capturing one local");
        f.captures[0] = src;
    })
}

/// Replaces the first compiled-closure global `c` with `f(c, main)`,
/// `main` being an entry function's index.
fn reglobal(f: fn(&VmClosure, u32) -> Value) -> Craft {
    Box::new(move |a| {
        let main = first(a, FuncKind::Main) as u32;
        let g = a
            .vm_globals
            .iter_mut()
            .find(|v| matches!(v, Value::CompiledClosure(_)))
            .expect("a compiled closure global");
        let Value::CompiledClosure(c) = &*g else {
            unreachable!()
        };
        *g = f(c, main);
    })
}

#[test]
fn crafted_operands_are_rejected_and_fall_back_to_cold() {
    let decls = Declarations::default();
    let policy = ResolutionPolicy::paper();
    let prelude = operand_prelude();
    let sym = Symbol::intern("R");
    let cases: Vec<(&str, Craft)> = vec![
        ("register", reret(0x7FF0)),
        ("rk constant", reret(RK_CONST | 0x7FF0)),
        (
            "pool constant",
            prepend(Instr::RConst {
                dst: 0,
                konst: u32::MAX,
            }),
        ),
        (
            "global",
            prepend(Instr::RGlobal {
                dst: 0,
                idx: u32::MAX,
            }),
        ),
        (
            "capture index",
            prepend(Instr::RCapture {
                dst: 0,
                idx: 0x7FF0,
            }),
        ),
        ("rec outside a fix body", prepend(Instr::RRec { dst: 0 })),
        ("closure of an entry function", {
            Box::new(|a| {
                let main = first(a, FuncKind::Main) as u32;
                prepend(Instr::RClosure { dst: 0, func: main })(a);
            })
        }),
        (
            "closure function index",
            prepend(Instr::RTyClosure {
                dst: 0,
                func: u32::MAX,
            }),
        ),
        ("local capture source", recapture(CapSrc::Local(0x7FF0))),
        (
            "transitive capture source",
            recapture(CapSrc::Capture(0x7FF0)),
        ),
        ("rec capture outside a fix body", recapture(CapSrc::Rec)),
        ("jump target", prepend(Instr::Jump(u32::MAX))),
        (
            "match table",
            prepend(Instr::RMatch {
                src: 0,
                tbl: u32::MAX,
            }),
        ),
        (
            "record field list",
            prepend(Instr::RMakeRecord {
                dst: 0,
                base: 0,
                name: sym,
                fields: u32::MAX,
            }),
        ),
        (
            "constructor argument window",
            prepend(Instr::RInject {
                dst: 0,
                base: 0x7FF0,
                ctor: sym,
                argc: 1,
            }),
        ),
        (
            "fall-through",
            Box::new(|a| {
                let f = first(a, FuncKind::Lambda);
                a.code_parts.funcs[f]
                    .code
                    .push(Instr::RMove { dst: 0, src: 0 });
            }),
        ),
        (
            "global closure of an entry function",
            reglobal(|c, main| {
                Value::CompiledClosure(Rc::new(VmClosure {
                    func: main,
                    captures: c.captures.clone(),
                }))
            }),
        ),
        (
            "global closure capture count",
            reglobal(|c, _| {
                let mut captures = c.captures.clone();
                captures.push(Value::Unit);
                Value::CompiledClosure(Rc::new(VmClosure {
                    func: c.func,
                    captures,
                }))
            }),
        ),
    ];
    // The crafting itself keeps a sound artifact sound.
    let sound = crafted(&decls, &prelude, &|_| {});
    assert!(Session::from_artifact(&decls, &policy, &prelude, true, false, &sound).is_ok());

    let dir = tmpdir("crafted");
    let store = ArtifactStore::new(&dir).unwrap();
    let key = artifact_key(&decls, &prelude, &policy, true, false, Isa::Register);
    for (class, craft) in &cases {
        let bytes = crafted(&decls, &prelude, craft);
        assert!(
            Session::from_artifact(&decls, &policy, &prelude, true, false, &bytes).is_err(),
            "{class}: a crafted operand was accepted"
        );
        std::fs::write(store.content_path(key), &bytes).unwrap();
        let (sess, outcome) =
            artifact::load_or_build(&store, &decls, &policy, &prelude, true, false).unwrap();
        assert!(matches!(outcome, LoadOutcome::Cold), "{class}: {outcome:?}");
        assert_eq!(sess.metrics().artifact_fallbacks, 1, "{class}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `prelude`'s artifact, warmed by [`probe`], with its derivation-cache
/// section replaced by `section`: the checksum is valid, so only the
/// decoder's node-table checks stand between these bytes and the
/// session.
fn with_cache_section(decls: &Declarations, prelude: &Prelude, section: &[u8]) -> Vec<u8> {
    let mut s = Session::new(decls, ResolutionPolicy::paper(), prelude).unwrap();
    s.run(&probe()).unwrap();
    let full = s.to_artifact();
    s.env().retain_cache(|_| false);
    let empty = s.to_artifact();
    // The section starts at the first byte the cache changes: its node
    // count. Empty, it is a zero node count and a zero entry count.
    let at = full.iter().zip(&empty).position(|(a, b)| a != b).unwrap();
    assert_eq!(&empty[at..at + 12], &[0; 12]);
    let mut body = [&empty[..at], section, &empty[at + 12..empty.len() - 8]].concat();
    let h = implicit_core::wire::fnv64(&body);
    body.extend_from_slice(&h.to_le_bytes());
    body
}

/// A cache section: nodes `(level, premises)` whose query and rule are
/// the first rule type the artifact wrote, then one entry per root.
fn cache_section(nodes: &[(u32, &[u32])], roots: &[u32]) -> Vec<u8> {
    let mut e = implicit_core::wire::Enc::new();
    let first_rule = |e: &mut implicit_core::wire::Enc| {
        e.u8(0);
        e.u32(0);
    };
    e.u32(nodes.len() as u32);
    for (level, premises) in nodes {
        first_rule(&mut e);
        e.u8(0);
        e.u32(*level);
        e.u32(0);
        first_rule(&mut e);
        e.u32(0);
        e.u32(premises.len() as u32);
        for p in *premises {
            e.u8(1);
            e.u32(*p);
        }
    }
    e.len(roots.len());
    for r in roots {
        e.u8(0);
        e.u32(*r);
    }
    e.buf().to_vec()
}

#[test]
fn corrupt_derivation_tables_are_rejected_and_fall_back_to_cold() {
    let decls = Declarations::default();
    let policy = ResolutionPolicy::paper();
    // Two implicit frames: levels 0 and 1.
    let prelude = lets_chain(2, 5, 1);
    let sound = with_cache_section(
        &decls,
        &prelude,
        &cache_section(&[(0, &[]), (1, &[0])], &[1]),
    );
    assert!(artifact::decode(&sound).is_ok());
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("premise out of range", cache_section(&[(0, &[9])], &[0])),
        (
            "premise points forward",
            cache_section(&[(0, &[1]), (0, &[])], &[1]),
        ),
        ("cycle", cache_section(&[(0, &[0])], &[0])),
        (
            "level at the context depth",
            cache_section(&[(2, &[])], &[0]),
        ),
        ("entry out of range", cache_section(&[(0, &[])], &[1])),
    ];
    let dir = tmpdir("node-table");
    let store = ArtifactStore::new(&dir).unwrap();
    let key = artifact_key(&decls, &prelude, &policy, true, false, Isa::Register);
    for (class, section) in &cases {
        let bytes = with_cache_section(&decls, &prelude, section);
        assert!(
            Session::from_artifact(&decls, &policy, &prelude, true, false, &bytes).is_err(),
            "{class}: a corrupt node table was accepted"
        );
        std::fs::write(store.content_path(key), &bytes).unwrap();
        let (sess, outcome) =
            artifact::load_or_build(&store, &decls, &policy, &prelude, true, false).unwrap();
        assert!(matches!(outcome, LoadOutcome::Cold), "{class}: {outcome:?}");
        assert_eq!(sess.metrics().artifact_fallbacks, 1, "{class}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_deepest_legitimate_shapes_round_trip_byte_identically() {
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(|| {
            let decls = Declarations::default();
            let policy = ResolutionPolicy::paper();
            let round_trip = |prelude: &Prelude, warm: &dyn Fn(&Session)| {
                let mut s = Session::new(&decls, policy.clone(), prelude).unwrap();
                warm(&s);
                let bytes = s.to_artifact();
                let mut back =
                    Session::from_artifact(&decls, &policy, prelude, true, false, &bytes).unwrap();
                assert_eq!(back.to_artifact(), bytes);
            };
            // A derivation of `max_depth` (512) steps in the cache.
            let top = Prelude::chain_head(511).promote();
            round_trip(&Prelude::chain(511), &|s| {
                let res = implicit_core::resolve::resolve(s.env(), &top, &policy).unwrap();
                assert_eq!(res.steps(), policy.max_depth);
            });
            // A prelude expression and a type as deep as the parsers
            // take: one level more is a parse error.
            let sum = |n: usize| (0..n).fold("1".to_owned(), |e, _| format!("(1 + {e})"));
            let list = |n: usize| format!("{}Int{}", "[".repeat(n), "]".repeat(n));
            let let_sum = |n| format!("let x : Int = {} in unit", sum(n));
            let let_list = |n| format!("let xs : {} = nil {} in unit", list(n), list(n));
            for (deepest, deeper) in [
                (let_sum(511), let_sum(512)),
                (let_list(1022), let_list(1023)),
            ] {
                assert!(parse_program(&deeper).is_err());
                let (_, e) = parse_program(&deepest).unwrap();
                round_trip(&Prelude::from_wrapped(&e).unwrap(), &|_| {});
            }
        })
        .unwrap()
        .join()
        .unwrap();
}

#[test]
fn wrong_configuration_never_rehydrates() {
    let decls = Declarations::default();
    let prelude = lets_chain(3, 5, 2);
    let policy = ResolutionPolicy::paper();
    let mut builder = Session::new(&decls, policy.clone(), &prelude).unwrap();
    let bytes = builder.to_artifact();
    drop(builder);
    // Different policy, knobs, or prelude → key mismatch → Err.
    assert!(Session::from_artifact(&decls, &policy, &prelude, true, true, &bytes).is_err());
    assert!(Session::from_artifact(
        &decls,
        &policy.clone().with_most_specific(),
        &prelude,
        true,
        false,
        &bytes,
    )
    .is_err());
    assert!(Session::from_artifact(&decls, &policy, &prelude, false, false, &bytes).is_err());
    let other = lets_chain(3, 6, 2);
    assert!(Session::from_artifact(&decls, &policy, &other, true, false, &bytes).is_err());
}

#[test]
fn incremental_rebuild_artifact_covers_rebuild_minted_gensyms() {
    let decls = Declarations::default();
    // A rule-typed implicit with a non-empty context: elaborating its
    // rule abstraction mints a fresh `ev%N` context binder every time
    // it is (re-)elaborated, so rebuilds advance the fresh counter.
    let with_rule_implicit = |root: i64| {
        let mut p = lets_chain(4, root, 1);
        let rho = implicit_core::syntax::RuleType::new(
            Vec::new(),
            vec![Type::Bool.promote()],
            Type::prod(Type::Bool, Type::Int),
        );
        p.implicits.push((
            Expr::rule_abs(
                rho.clone(),
                Expr::pair(Expr::query_simple(Type::Bool), Expr::var("x3")),
            ),
            rho,
        ));
        p
    };
    let prelude = with_rule_implicit(10);
    let policy = ResolutionPolicy::paper();
    let dir = tmpdir("watermark");
    let store = ArtifactStore::new(&dir).unwrap();
    let (first, outcome) =
        artifact::load_or_build(&store, &decls, &policy, &prelude, true, false).unwrap();
    assert!(matches!(outcome, LoadOutcome::Cold));
    drop(first);
    let key = artifact_key(&decls, &prelude, &policy, true, false, Isa::Register);
    let old_wm = artifact::decode(&store.load(key).unwrap())
        .unwrap()
        .fresh_watermark;

    // A root edit re-elaborates every binding, minting fresh `ev`
    // gensyms above the seed artifact's watermark. The artifact saved
    // from the rebuilt session must record a watermark covering them —
    // a stale (equal) watermark would let a later process re-mint the
    // same names as local binders and capture the deserialized
    // prelude evidence they collide with.
    let edited = with_rule_implicit(20);
    let (mut sess, outcome) =
        artifact::load_or_build(&store, &decls, &policy, &edited, true, false).unwrap();
    assert!(
        matches!(outcome, LoadOutcome::Incremental(_)),
        "got {outcome:?}"
    );
    let new_wm = artifact::decode(&sess.to_artifact())
        .unwrap()
        .fresh_watermark;
    assert!(
        new_wm > old_wm,
        "rebuilt artifact watermark ({new_wm}) must advance past the seed's ({old_wm}) \
         to cover gensyms minted during re-elaboration"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn incremental_rebuild_invalidates_exactly_the_dependency_cone() {
    let decls = Declarations::default();
    let n = 6;
    let prelude = lets_chain(n, 100, 1);
    let policy = ResolutionPolicy::paper();
    let dir = tmpdir("incremental");
    let store = ArtifactStore::new(&dir).unwrap();

    // Seed the store with a warmed artifact for the original prelude.
    let (mut first, outcome) =
        artifact::load_or_build(&store, &decls, &policy, &prelude, true, false).unwrap();
    assert!(matches!(outcome, LoadOutcome::Cold));
    first.run(&probe()).unwrap();
    first.run_opsem(&probe()).unwrap();
    let key = artifact_key(&decls, &prelude, &policy, true, false, Isa::Register);
    let config = config_key(&decls, &policy, true, false, Isa::Register);
    store.save(key, config, &first.to_artifact()).unwrap();
    drop(first);

    // Leaf edit: the *last* binding (second implicit) changes its
    // expression. Nothing reads it, so its cone is itself: every
    // other binding must be reused, and the prelude-level derivation
    // cache must carry over.
    let leaf_edit = lets_chain(n, 100, 2);
    let (mut sess, outcome) =
        artifact::load_or_build(&store, &decls, &policy, &leaf_edit, true, false).unwrap();
    let LoadOutcome::Incremental(stats) = outcome else {
        panic!("leaf edit must rebuild incrementally, got {outcome:?}");
    };
    let total = n + 2;
    assert_eq!(stats.bindings_total, total);
    assert_eq!(
        stats.bindings_reused,
        total - 1,
        "a leaf edit's cone is exactly itself: {stats:?}"
    );
    assert!(
        stats.cache_entries_retained > 0,
        "derivation-cache entries must survive an expression-only edit: {stats:?}"
    );
    // Correctness of the rebuilt session against a cold build.
    let mut cold = Session::new(&decls, policy.clone(), &leaf_edit).unwrap();
    for e in [probe(), Expr::query_simple(Type::Int)] {
        assert_eq!(
            sess.run_compiled(&e).unwrap().value.to_string(),
            cold.run_compiled(&e).unwrap().value.to_string(),
            "incremental rebuild diverged from cold on {e}"
        );
        assert_eq!(
            sess.run_opsem(&e).unwrap().to_string(),
            cold.run_opsem(&e).unwrap().to_string(),
            "incremental rebuild (opsem) diverged from cold on {e}"
        );
    }
    drop(sess);
    drop(cold);

    // Root edit: `x0`'s expression changes. Every later binding reads
    // its predecessor, so the cone is the entire prelude — nothing is
    // reused, and the rebuilt values must reflect the new root.
    let root_edit = lets_chain(n, 200, 2);
    let (mut sess, outcome) =
        artifact::load_or_build(&store, &decls, &policy, &root_edit, true, false).unwrap();
    let LoadOutcome::Incremental(stats) = outcome else {
        panic!("root edit must rebuild incrementally, got {outcome:?}");
    };
    assert_eq!(
        stats.bindings_reused, 0,
        "a root edit must invalidate everything it reaches: {stats:?}"
    );
    let mut cold = Session::new(&decls, policy.clone(), &root_edit).unwrap();
    let w = sess.run_compiled(&probe()).unwrap();
    let c = cold.run_compiled(&probe()).unwrap();
    assert_eq!(w.value.to_string(), c.value.to_string());
    // ?(Int×Int) = (?Int, 2) = (x5, 2) with x5 = 205; probe adds x0.
    assert_eq!(w.value.to_string(), "202");
    drop(sess);
    drop(cold);

    // Shape change (extra binding) cannot rebuild incrementally —
    // the ladder lands on a cold build, not stale state.
    let mut reshaped = lets_chain(n, 200, 2);
    reshaped
        .lets
        .push((Symbol::intern("extra"), Type::Int, Expr::Int(1)));
    let (sess, outcome) =
        artifact::load_or_build(&store, &decls, &policy, &reshaped, true, false).unwrap();
    assert!(
        matches!(outcome, LoadOutcome::Cold),
        "shape change must fall back to cold, got {outcome:?}"
    );
    assert_eq!(sess.metrics().artifact_fallbacks, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_pointers_and_the_artifacts_they_name_are_counted_once() {
    let decls = Declarations::default();
    let policy = ResolutionPolicy::paper();
    let dir = tmpdir("bad-pointer");
    let store = ArtifactStore::new(&dir).unwrap();
    let text = prelude_source(&lets_chain(3, 5, 2));
    let edited = prelude_source(&lets_chain(3, 6, 2));
    let load = |text: &str| {
        load_or_build_source(&store, &decls, &policy, text, true, false, || {
            Prelude::from_wrapped(&parse_program(text).map_err(|e| e.to_string())?.1)
        })
        .unwrap()
    };
    let (_, outcome) = load(&text);
    assert!(matches!(outcome, LoadOutcome::Cold), "{outcome:?}");

    // A corrupt head: an edit cannot find the artifact to rebuild
    // from, and builds cold, counted.
    let config = config_key(&decls, &policy, true, false, Isa::Register);
    let head = dir.join(format!("{config:016x}.head"));
    std::fs::write(&head, "zzzz-not-hex\n").unwrap();
    let (s, outcome) = load(&edited);
    assert!(matches!(outcome, LoadOutcome::Cold), "{outcome:?}");
    assert_eq!(s.metrics().artifact_fallbacks, 1, "the bad head is counted");
    drop(s);
    let (s, outcome) = load(&edited);
    assert!(matches!(outcome, LoadOutcome::Exact), "{outcome:?}");
    assert_eq!(
        s.metrics().artifact_fallbacks,
        0,
        "the cold build mended it"
    );
    drop(s);

    // A corrupt head next to an exact hit is counted and re-pointed.
    std::fs::write(&head, "").unwrap();
    let (s, outcome) = load(&edited);
    assert!(matches!(outcome, LoadOutcome::Exact), "{outcome:?}");
    assert_eq!(s.metrics().artifact_fallbacks, 1);
    assert!(store.head(config).is_some(), "the head is re-pointed");
    drop(s);

    // A corrupt source pointer falls to the ladder, counted, and the
    // ladder's exact hit mends it.
    let src = store.source_path(source_key(&decls, &text, &policy, true, false));
    std::fs::write(&src, "not a key").unwrap();
    let (s, outcome) = load(&text);
    assert!(matches!(outcome, LoadOutcome::Exact), "{outcome:?}");
    assert_eq!(
        s.metrics().artifact_fallbacks,
        1,
        "the bad pointer is counted"
    );
    drop(s);
    let (s, _) = load(&text);
    assert_eq!(s.metrics().artifact_fallbacks, 0);
    drop(s);

    // A corrupt artifact behind a good pointer is one fallback: the
    // ladder does not read it again under its content key.
    let key = artifact_key(
        &decls,
        &lets_chain(3, 5, 2),
        &policy,
        true,
        false,
        Isa::Register,
    );
    let mut bytes = store.load(key).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(store.content_path(key), &bytes).unwrap();
    let (s, outcome) = load(&text);
    assert!(matches!(outcome, LoadOutcome::Cold), "{outcome:?}");
    assert_eq!(s.metrics().artifact_fallbacks, 1);
    drop(s);
    let (s, outcome) = load(&text);
    assert!(matches!(outcome, LoadOutcome::Exact), "{outcome:?}");
    assert_eq!(s.metrics().artifact_fallbacks, 0);
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A prelude text that opens with an `interface` and a `data`
/// declaration: a let, then rules whose evidence builds and takes
/// apart values of the data type.
const DECLARED_PRELUDE: &str = "\
-- declarations first, then the bindings
interface Show a = { show : a -> String }
data Shape = Circle Int | Square Int Int

let side : Int = 3 in
implicit {con Square (side, 4) : Shape} in (
  implicit {Show [Shape] { show = \\s : Shape. match s { Circle r -> showInt r | Square w h -> showInt (w * h) } } : Show Shape} in
    unit : Unit
) : Unit
";

/// Loads `text` through [`load_or_build_source`] and through
/// [`load_or_build`], from the same stores, and checks that both give
/// the same session: byte-identical artifacts, and the same answers
/// to `probes` on the tree walker, the VM and the operational
/// semantics (which must agree, as `--semantics both` checks).
fn the_source_rung_loads_what_the_ladder_loads(tag: &str, text: &str, probes: &[&str]) {
    let policy = ResolutionPolicy::paper();
    let (full_decls, wrapped) = parse_program(text).unwrap();
    let prelude = Prelude::from_wrapped(&wrapped).unwrap();
    let decls = parse_declarations(text).unwrap();
    assert_eq!(format!("{decls:?}"), format!("{full_decls:?}"), "[{tag}]");
    let parse = || Prelude::from_wrapped(&parse_program(text).map_err(|e| e.to_string())?.1);
    let unparsed =
        || -> Result<Prelude, String> { panic!("[{tag}] the source rung parsed its text") };
    let key = artifact_key(&decls, &prelude, &policy, true, false, Isa::Register);
    let probe = |session: &mut Session<'_>, e: &Expr| {
        let tree = session.run(e).unwrap().value.to_string();
        let vm = session.run_compiled(e).unwrap().value.to_string();
        let opsem = session.run_opsem(e).unwrap().to_string();
        assert_eq!(tree, vm, "[{tag}] {e}");
        assert_eq!(tree, opsem, "[{tag}] {e}");
        tree
    };
    // The text's pointer is written by a cold build in one store, and
    // by an exact hit of the content key in the other.
    for primed_by_text in [true, false] {
        let dir = tmpdir(&format!("rung-{tag}-{primed_by_text}"));
        let store = ArtifactStore::new(&dir).unwrap();
        if primed_by_text {
            let (_, cold) =
                load_or_build_source(&store, &decls, &policy, text, true, false, parse).unwrap();
            assert!(matches!(cold, LoadOutcome::Cold), "[{tag}] {cold:?}");
        } else {
            let (_, cold) = load_or_build(&store, &decls, &policy, &prelude, true, false).unwrap();
            assert!(matches!(cold, LoadOutcome::Cold), "[{tag}] {cold:?}");
            let (_, hit) =
                load_or_build_source(&store, &decls, &policy, text, true, false, parse).unwrap();
            assert!(matches!(hit, LoadOutcome::Exact), "[{tag}] {hit:?}");
        }
        let (mut rung, hit) =
            load_or_build_source(&store, &decls, &policy, text, true, false, unparsed).unwrap();
        assert!(matches!(hit, LoadOutcome::Exact), "[{tag}] {hit:?}");
        let (mut ladder, hit) =
            load_or_build(&store, &full_decls, &policy, &prelude, true, false).unwrap();
        assert!(matches!(hit, LoadOutcome::Exact), "[{tag}] {hit:?}");
        assert_eq!(rung.content_key(), key, "[{tag}]");
        assert_eq!(rung.metrics().artifact_fallbacks, 0, "[{tag}]");
        assert!(
            rung.to_artifact() == ladder.to_artifact(),
            "[{tag}] artifacts differ"
        );
        for src in probes {
            let e = parse_expr(src).unwrap();
            assert_eq!(
                probe(&mut rung, &e),
                probe(&mut ladder, &e),
                "[{tag}] {src}"
            );
        }
        assert!(
            rung.to_artifact() == ladder.to_artifact(),
            "[{tag}] artifacts differ after the probes"
        );
        drop((rung, ladder));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn the_source_rung_agrees_with_the_ladder_on_chain_preludes() {
    // Chain preludes recurse deeply through resolution in debug builds.
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(|| {
            for n in [0, 1, 8, 24] {
                let head = Prelude::chain_head(n);
                let probes = [format!("?({head})"), "?(Int) + 1".to_owned()];
                let probes: Vec<&str> = probes.iter().map(String::as_str).collect();
                let text = prelude_source(&Prelude::chain(n));
                the_source_rung_loads_what_the_ladder_loads(&format!("chain-{n}"), &text, &probes);
            }
        })
        .unwrap()
        .join()
        .unwrap();
}

#[test]
fn the_source_rung_agrees_with_the_ladder_on_lets_and_operands() {
    let text = prelude_source(&lets_chain(4, 10, 1));
    the_source_rung_loads_what_the_ladder_loads(
        "lets-chain",
        &text,
        &["snd(?(Int * Int)) + x0", "x3"],
    );
    let text = prelude_source(&operand_prelude());
    the_source_rung_loads_what_the_ladder_loads(
        "operands",
        &text,
        &[
            "add3 1 2 3",
            "count 7",
            "snd(?((Int * Int) * Int)) + add3 1 1 1",
        ],
    );
}

#[test]
fn the_source_rung_agrees_with_the_ladder_on_declared_preludes() {
    the_source_rung_loads_what_the_ladder_loads(
        "declared",
        DECLARED_PRELUDE,
        &[
            "(?(Show Shape)).show ?(Shape)",
            "match ?(Shape) { Circle r -> r | Square w h -> w + h + side }",
        ],
    );
}

#[test]
fn a_failing_dirty_binding_fails_the_rebuild_with_the_cold_build_error() {
    // A rebuild runs each dirty binding through the cold build's own
    // pipeline, so the error that sends the ladder to its cold rung
    // carries the text that rung then reports.
    let decls = Declarations::default();
    let policy = ResolutionPolicy::paper();
    let prelude = lets_chain(3, 1, 1);
    let mut sess = Session::new(&decls, policy.clone(), &prelude).unwrap();
    let bytes = sess.to_artifact();
    let retyped = {
        let mut p = prelude.clone();
        p.lets[1].2 = Expr::Bool(true);
        p
    };
    let failing = {
        let mut p = prelude.clone();
        p.implicits[1].0 = Expr::pair(
            Expr::query_simple(Type::Int),
            Expr::binop(BinOp::Div, Expr::Int(1), Expr::Int(0)),
        );
        p
    };
    for edited in [retyped, failing] {
        let cold = match Session::new(&decls, policy.clone(), &edited) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("the edited prelude must fail to build"),
        };
        let rebuilt =
            artifact::rebuild_incremental(&decls, artifact::decode(&bytes).unwrap(), &edited);
        match rebuilt {
            Err(e) => assert_eq!(e.0, format!("incremental rebuild: {cold}")),
            Ok(_) => panic!("the rebuild must fail as the cold build does ({cold})"),
        }
    }
}
