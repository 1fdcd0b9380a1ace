//! A program's local implicit scopes do not cost a warm session its
//! prelude-level derivations: a scope that shadows them shelves them,
//! and its end puts them back, so the next prelude query is a hit.

use implicit_core::parse::parse_expr;
use implicit_core::resolve::ResolutionPolicy;
use implicit_core::syntax::{BinOp, Declarations, Expr};
use implicit_pipeline::{Prelude, Session};

const N: usize = 48;

/// `snd(?T₄₈) + 0` on the chain-48 prelude.
fn chain_query() -> Expr {
    Expr::binop(
        BinOp::Add,
        Expr::Snd(Expr::query_simple(Prelude::chain_head(N)).into()),
        Expr::Int(0),
    )
}

/// Runs `f` on a big-stack thread: the chain prelude recurses deeply
/// through resolve/elaborate/eval in debug builds.
fn on_big_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(f)
        .unwrap()
        .join()
        .unwrap();
}

fn chain_query_survives_shadowing_scopes(compiled: bool) {
    on_big_stack(move || {
        let decls = Declarations::default();
        let mut session =
            Session::new(&decls, ResolutionPolicy::paper(), &Prelude::chain(N)).unwrap();
        let run = |session: &mut Session<'_>, e: &Expr| {
            let out = if compiled {
                session.run_compiled(e)
            } else {
                session.run(e)
            };
            out.unwrap().value.to_string()
        };
        let query = chain_query();
        // A local `Int` shadows the chain's base, which every link's
        // derivation looks up.
        let scoped = parse_expr("rule ({Int} => Bool) (false) with {1 : Int}").unwrap();
        // Building the prelude resolves each rule's premise inside
        // the rule's own scope; count from there.
        let built = session.cache_counters().misses;
        assert_eq!(run(&mut session, &query), N.to_string());
        let misses = session.cache_counters().misses - built;
        assert_eq!(misses as usize, N + 1, "one miss per link");
        for cycle in 0..1_000 {
            assert_eq!(run(&mut session, &scoped), "false");
            assert_eq!(run(&mut session, &query), N.to_string());
            assert_eq!(
                session.cache_counters().misses - built,
                misses,
                "cycle {cycle}: the scope cost the session its chain"
            );
        }
    });
}

#[test]
fn the_chain_survives_shadowing_scopes_on_the_vm() {
    chain_query_survives_shadowing_scopes(true);
}

#[test]
fn the_chain_survives_shadowing_scopes_on_the_tree_walker() {
    chain_query_survives_shadowing_scopes(false);
}
