//! Opsem runs a polymorphic rule under a long chain prelude in time
//! linear in the prelude.
//!
//! Every rule closure in a chain prelude's frame `k` captures frames
//! `0..k`. Resolving a polymorphic rule substitutes the matched
//! closure's captured stack, and substituting each frame pointwise
//! unfolded that shared graph into a tree of `2ⁿ` closures: the
//! chain-48 program below exhausted memory. Both tests run under a
//! watchdog, so a regression fails in seconds instead of hanging.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use implicit_core::parse::parse_expr;
use implicit_core::resolve::ResolutionPolicy;
use implicit_core::syntax::{Declarations, Type};
use implicit_pipeline::{Prelude, Session};

/// A generated program that instantiates `forall g. {g} => g * g` at
/// `String` (genprog seed 7, draw 14).
const PROGRAM: &str = r#"rule ({String, forall g. {g} => g * g} => String * String) (?(String * String)) with {"s86" : String, rule (forall g. {g} => g * g) ((?(g), ?(g))) : forall g. {g} => g * g}"#;

const ANSWER: &str = r#"("s86", "s86")"#;

/// Runs `f` on a big-stack thread and fails if it takes longer than
/// `limit`.
fn watchdog<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(move || {
            let _ = tx.send(f());
        })
        .unwrap();
    match rx.recv_timeout(limit) {
        Ok(v) => v,
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().unwrap_err())
        }
        Err(RecvTimeoutError::Timeout) => panic!("still running after {limit:?}"),
    }
}

#[test]
fn warm_opsem_on_the_chain_48_prelude_agrees_with_elaboration() {
    let (elab, opsem) = watchdog(Duration::from_secs(60), || {
        let decls = Declarations::default();
        let mut session =
            Session::new(&decls, ResolutionPolicy::paper(), &Prelude::chain(48)).unwrap();
        let e = parse_expr(PROGRAM).unwrap();
        let elab = session.run(&e).unwrap().value.to_string();
        let opsem = session.run_opsem(&e).unwrap().to_string();
        (elab, opsem)
    });
    assert_eq!(elab, ANSWER);
    assert_eq!(opsem, elab);
}

#[test]
fn single_shot_opsem_on_a_chain_24_wrap_agrees_with_elaboration() {
    let (elab, opsem) = watchdog(Duration::from_secs(60), || {
        let decls = Declarations::default();
        let ty = Type::prod(Type::Str, Type::Str);
        let wrapped = Prelude::chain(24).wrap(parse_expr(PROGRAM).unwrap(), ty);
        let elab = implicit_elab::run(&decls, &wrapped)
            .unwrap()
            .value
            .to_string();
        let opsem = implicit_opsem::eval(&decls, &wrapped).unwrap().to_string();
        (elab, opsem)
    });
    assert_eq!(elab, ANSWER);
    assert_eq!(opsem, elab);
}
