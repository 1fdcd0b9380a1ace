//! The interner's pointer-memo pins last one program.
//!
//! A pin keeps an `Rc` of an interned type alive so its address keys
//! the memo safely. A warm session forgets them where every program
//! ends, so a long-lived session (a daemon tenant) holds none of the
//! types of the programs it has served: the count between programs is
//! zero after the tenth program and after the two-thousandth.

use std::rc::Rc;

use implicit_core::intern;
use implicit_core::parse::{parse_expr, parse_program};
use implicit_core::resolve::ResolutionPolicy;
use implicit_core::symbol::Symbol;
use implicit_core::syntax::{BinOp, Declarations, Expr, Type};
use implicit_pipeline::service::{prelude_source, DaemonConfig};
use implicit_pipeline::{Backend, Prelude, Session};

const DEPTH: usize = 12;

/// `snd(?T₁₂) + j`: the daemon mix's chain request.
fn chain_program(j: i64) -> Expr {
    Expr::binop(
        BinOp::Add,
        Expr::Snd(Expr::query_simple(Prelude::chain_head(DEPTH)).into()),
        Expr::Int(j),
    )
}

/// A 200-iteration countdown that ends in [`chain_program`]: the
/// daemon mix's loop request.
fn loop_program(j: i64) -> Expr {
    let (go, n) = (Symbol::intern("go"), Symbol::intern("n"));
    let body = Expr::if_(
        Expr::binop(BinOp::Le, Expr::var(n), Expr::Int(0)),
        chain_program(j),
        Expr::app(
            Expr::var(go),
            Expr::binop(BinOp::Sub, Expr::var(n), Expr::Int(1)),
        ),
    );
    let looped = Expr::Fix(
        go,
        Type::arrow(Type::Int, Type::Int),
        Rc::new(Expr::lam(n, Type::Int, body)),
    );
    Expr::app(looped, Expr::Int(200))
}

#[test]
fn a_warm_chain_session_holds_no_pins_between_programs() {
    // Built as a daemon tenant builds it: from the prelude's text,
    // under the daemon's default configuration.
    let source = prelude_source(&Prelude::chain(DEPTH));
    let (_, wrapped) = parse_program(&source).expect("prelude parses");
    let prelude = Prelude::from_wrapped(&wrapped).expect("prelude shape");
    let config = DaemonConfig::default();
    let decls = Declarations::new();
    let mut session = Session::new_configured(
        &decls,
        ResolutionPolicy::paper(),
        &prelude,
        config.fusion,
        config.dict_ic,
    )
    .expect("chain prelude builds");
    for n in 1..=2_000i64 {
        let j = n % 1_000;
        let program = if n % 4 == 3 {
            loop_program(j)
        } else {
            chain_program(j)
        };
        // The daemon receives program text.
        let program = parse_expr(&program.to_string()).expect("printed program parses");
        let out = session
            .run_with_backend(&program, Backend::Vm)
            .expect("program runs");
        assert_eq!(out.value.to_string(), (DEPTH as i64 + j).to_string());
        assert_eq!(intern::pinned(), (0, 0), "pins held after program {n}");
    }
}
