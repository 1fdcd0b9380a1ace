//! The parser builds each distinct type of a text once, and that
//! sharing never reaches the bytes: sessions built from the parsed
//! chain-48 prelude text, from `Prelude::chain(48)` (which shares what
//! its builder clones) and from a copy that shares nothing have one
//! artifact key and write one artifact.
//!
//! An artifact records the process's fresh-name counter and the
//! evidence names minted from it, so each session is built in a child
//! run of this test binary, where the counter starts at zero.

use std::collections::HashSet;
use std::process::Command;
use std::rc::Rc;

use implicit_core::parse::parse_program;
use implicit_core::resolve::ResolutionPolicy;
use implicit_core::syntax::{Declarations, Expr, RuleType, Type};
use implicit_pipeline::artifact::artifact_key;
use implicit_pipeline::service::prelude_source;
use implicit_pipeline::{Prelude, Session};
use systemf::Isa;

const CHAIN: usize = 48;

/// In a child run: which prelude to build.
const BUILD: &str = "PARSE_SHARING_BUILD";
/// In a child run: the file its artifact goes to.
const OUT: &str = "PARSE_SHARING_OUT";

const BUILDS: [&str; 3] = ["parsed", "built", "unshared"];

fn prelude(build: &str) -> (Declarations, Prelude) {
    let built = Prelude::chain(CHAIN);
    match build {
        "parsed" => {
            let (decls, e) = parse_program(&prelude_source(&built)).unwrap();
            (decls, Prelude::from_wrapped(&e).unwrap())
        }
        "built" => (Declarations::default(), built),
        "unshared" => (Declarations::default(), unshared(&built)),
        other => panic!("no prelude named {other}"),
    }
}

/// A copy of a chain prelude in which every type node is its own
/// allocation.
fn unshared(p: &Prelude) -> Prelude {
    fn ty(t: &Type) -> Type {
        match t {
            Type::Arrow(a, b) => Type::arrow(ty(a), ty(b)),
            Type::Prod(a, b) => Type::prod(ty(a), ty(b)),
            Type::List(a) => Type::list(ty(a)),
            Type::Con(n, args) => Type::Con(*n, args.iter().map(ty).collect()),
            Type::VarApp(f, args) => Type::VarApp(*f, args.iter().map(ty).collect()),
            Type::Rule(r) => Type::Rule(Rc::new(rule(r))),
            leaf => leaf.clone(),
        }
    }
    fn rule(r: &RuleType) -> RuleType {
        let context = r.context().iter().map(rule).collect();
        RuleType::new(r.vars().to_vec(), context, ty(r.head()))
    }
    fn expr(e: &Expr) -> Expr {
        match e {
            Expr::RuleAbs(r, body) => Expr::RuleAbs(Rc::new(rule(r)), Rc::new(expr(body))),
            Expr::Pair(a, b) => Expr::pair(expr(a), expr(b)),
            Expr::Query(r) => Expr::Query(rule(r)),
            Expr::Int(_) => e.clone(),
            other => panic!("not in a chain prelude: {other}"),
        }
    }
    assert!(p.lets.is_empty(), "a chain prelude has no lets");
    Prelude::implicits(
        p.implicits
            .iter()
            .map(|(e, r)| (expr(e), rule(r)))
            .collect(),
    )
}

/// Distinct type nodes behind an `Rc` in a chain prelude's rule types.
fn type_nodes(p: &Prelude) -> usize {
    fn ty(t: &Type, seen: &mut HashSet<*const Type>) {
        let child = |c: &Rc<Type>, seen: &mut HashSet<*const Type>| {
            if seen.insert(Rc::as_ptr(c)) {
                ty(c, seen);
            }
        };
        match t {
            Type::Arrow(a, b) | Type::Prod(a, b) => {
                child(a, seen);
                child(b, seen);
            }
            Type::List(a) => child(a, seen),
            Type::Con(_, args) | Type::VarApp(_, args) => args.iter().for_each(|a| ty(a, seen)),
            Type::Rule(r) => rule(r, seen),
            _ => {}
        }
    }
    fn rule(r: &RuleType, seen: &mut HashSet<*const Type>) {
        r.context().iter().for_each(|c| rule(c, seen));
        ty(r.head(), seen);
    }
    fn expr(e: &Expr, seen: &mut HashSet<*const Type>) {
        match e {
            Expr::RuleAbs(r, body) => {
                rule(r, seen);
                expr(body, seen);
            }
            Expr::Pair(a, b) => {
                expr(a, seen);
                expr(b, seen);
            }
            Expr::Query(r) => rule(r, seen),
            _ => {}
        }
    }
    let mut seen = HashSet::new();
    for (e, r) in &p.implicits {
        expr(e, &mut seen);
        rule(r, &mut seen);
    }
    seen.len()
}

/// Runs `f` on a thread with room for chain-depth recursion in debug
/// builds.
fn on_fresh_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(f)
        .unwrap()
        .join()
        .unwrap()
}

/// The artifact of a session over `build`'s prelude, built in a child
/// run of this test.
fn artifact_in_child(build: &str) -> Vec<u8> {
    let out = std::env::temp_dir().join(format!(
        "implicit-parse-sharing-{build}-{}.iart",
        std::process::id()
    ));
    let run = Command::new(std::env::current_exe().unwrap())
        .args(["--exact", "shared_and_unshared_preludes_write_one_artifact"])
        .env(BUILD, build)
        .env(OUT, &out)
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "{build}: {}",
        String::from_utf8_lossy(&run.stdout)
    );
    let bytes = std::fs::read(&out).unwrap();
    let _ = std::fs::remove_file(&out);
    bytes
}

#[test]
fn shared_and_unshared_preludes_write_one_artifact() {
    if let (Ok(build), Ok(out)) = (std::env::var(BUILD), std::env::var(OUT)) {
        let bytes = on_fresh_thread(move || {
            let (decls, prelude) = prelude(&build);
            Session::new(&decls, ResolutionPolicy::paper(), &prelude)
                .unwrap()
                .to_artifact()
        });
        std::fs::write(out, bytes).unwrap();
        return;
    }
    let policy = ResolutionPolicy::paper();
    let (mut nodes, mut keys) = (Vec::new(), Vec::new());
    for build in BUILDS {
        let (decls, p) = prelude(build);
        nodes.push(type_nodes(&p));
        keys.push(artifact_key(
            &decls,
            &p,
            &policy,
            true,
            false,
            Isa::Register,
        ));
    }
    eprintln!("parse_sharing: type nodes {BUILDS:?} = {nodes:?}");
    // The parse shares most, the copy nothing.
    assert!(nodes[0] < nodes[1] && nodes[1] < nodes[2], "{nodes:?}");
    assert!(keys.iter().all(|k| *k == keys[0]), "{keys:x?}");
    let bytes = BUILDS.map(artifact_in_child);
    for (build, b) in BUILDS.iter().zip(&bytes) {
        assert!(
            *b == bytes[0],
            "{build}'s artifact differs from the parsed prelude's"
        );
    }
}
