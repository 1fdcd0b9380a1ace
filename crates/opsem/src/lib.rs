//! # `implicit-opsem` — direct operational semantics of λ⇒
//!
//! The extended report gives λ⇒ a call-by-value big-step semantics in
//! which resolution happens **at runtime**: rule abstractions become
//! rule closures `⟨ρ, e, Σ, η⟩` carrying a *partially resolved
//! context* η, queries walk the runtime environment matching closures
//! by type, and type application substitutes into values (Figure
//! "Operational Semantics").
//!
//! Together with `implicit-elab`, this gives the project both of the
//! paper's semantics; the test suite checks they agree on all
//! first-order results (the coherence the static conditions are
//! designed to guarantee).
//!
//! ```
//! use implicit_core::parse::parse_expr;
//! use implicit_core::syntax::Declarations;
//! use implicit_opsem::eval;
//!
//! let e = parse_expr(
//!     "implicit {1 : Int, true : Bool} in (?(Int) + 1, not ?(Bool)) : Int * Bool",
//! ).unwrap();
//! let v = eval(&Declarations::new(), &e).unwrap();
//! assert_eq!(v.to_string(), "(2, false)");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod interp;
pub mod value;
pub mod wire;

pub use error::OpsemError;
pub use interp::{eval, Interpreter, DEFAULT_FUEL, MAX_EVAL_DEPTH};
pub use value::{ImplStack, RuleClosure, Value, VarEnv};

#[cfg(test)]
mod tests {
    use super::*;
    use implicit_core::parse::parse_expr;
    use implicit_core::resolve::ResolutionPolicy;
    use implicit_core::syntax::{Declarations, Type};

    fn eval0(src: &str) -> Value {
        let e = parse_expr(src).unwrap();
        eval(&Declarations::new(), &e).unwrap()
    }

    fn eval_err(src: &str) -> OpsemError {
        let e = parse_expr(src).unwrap();
        eval(&Declarations::new(), &e).unwrap_err()
    }

    #[test]
    fn e1_runtime_resolution() {
        let v = eval0("implicit {1 : Int, true : Bool} in (?(Int) + 1, not ?(Bool)) : Int * Bool");
        assert_eq!(v.to_string(), "(2, false)");
    }

    #[test]
    fn e2_higher_order_rule() {
        let v = eval0(
            "implicit {3 : Int, rule ({Int} => Int * Int) ((?(Int), ?(Int) + 1)) : {Int} => Int * Int} \
             in ?(Int * Int) : Int * Int",
        );
        assert_eq!(v.to_string(), "(3, 4)");
    }

    #[test]
    fn e3_polymorphic_rules() {
        let v = eval0(
            "implicit {3 : Int, true : Bool, rule (forall a. {a} => a * a) ((?(a), ?(a))) : forall a. {a} => a * a} \
             in (?(Int * Int), ?(Bool * Bool)) : (Int * Int) * (Bool * Bool)",
        );
        assert_eq!(v.to_string(), "((3, 3), (true, true))");
    }

    #[test]
    fn e5_higher_order_polymorphic() {
        let v = eval0(
            "implicit {3 : Int, rule (forall a. {a} => a * a) ((?(a), ?(a))) : forall a. {a} => a * a} \
             in ?((Int * Int) * (Int * Int)) : (Int * Int) * (Int * Int)",
        );
        assert_eq!(v.to_string(), "((3, 3), (3, 3))");
    }

    #[test]
    fn e6_nested_scoping() {
        let v = eval0(
            "implicit {1 : Int} in \
               (implicit {true : Bool, rule ({Bool} => Int) (if ?(Bool) then 2 else 0) : {Bool} => Int} \
                in ?(Int) : Int) : Int",
        );
        assert_eq!(v.to_string(), "2");
    }

    #[test]
    fn e7_overlap_across_scopes() {
        let v = eval0(
            "implicit {rule (forall a. a -> a) ((\\x : a. x)) : forall a. a -> a} in \
               (implicit {(\\n : Int. n + 1) : Int -> Int} in ?(Int -> Int) 1 : Int) : Int",
        );
        assert_eq!(v.to_string(), "2");
        let v2 = eval0(
            "implicit {(\\n : Int. n + 1) : Int -> Int} in \
               (implicit {rule (forall a. a -> a) ((\\x : a. x)) : forall a. a -> a} in ?(Int -> Int) 1 : Int) : Int",
        );
        assert_eq!(v2.to_string(), "1");
    }

    #[test]
    fn e16_partially_resolved_context() {
        // let f = rule({Int,Bool} ⇒ Int)(e) in ?({Int} ⇒ Int)
        // yields the closure ⟨{Int} ⇒ Int, e, −, {Bool:true}⟩.
        let src = "implicit {rule ({Int, Bool} => Int) (if ?(Bool) then ?(Int) else 0) : {Int, Bool} => Int, \
                             true : Bool} \
                   in ?({Int} => Int) : {Int} => Int";
        let v = eval0(src);
        match v {
            Value::Rule(rc) => {
                assert_eq!(rc.rty.to_string(), "{Int} => Int");
                assert_eq!(rc.partial.len(), 1);
                assert_eq!(rc.partial[0].0.to_string(), "Bool");
                assert!(matches!(rc.partial[0].1, Value::Bool(true)));
            }
            other => panic!("expected a rule closure, got {other}"),
        }
    }

    #[test]
    fn partially_resolved_closure_can_be_applied() {
        let src = "implicit {rule ({Int, Bool} => Int) (if ?(Bool) then ?(Int) + 1 else 0) : {Int, Bool} => Int, \
                             true : Bool} \
                   in (?({Int} => Int) with {41 : Int}) : Int";
        assert_eq!(eval0(src).to_string(), "42");
    }

    #[test]
    fn runtime_no_match_error() {
        let err = eval_err("?(Int)");
        assert!(matches!(err, OpsemError::NoMatch(_)));
    }

    #[test]
    fn runtime_missing_premise_error() {
        // {Bool}⇒Int : — ⊢ ?Int — the first lookup succeeds, the Bool
        // premise fails (ext. report lookup-failure example 2).
        let err = eval_err(
            "implicit {rule ({Bool} => Int) (if ?(Bool) then 1 else 0) : {Bool} => Int} \
             in ?(Int) : Int",
        );
        assert!(
            matches!(err, OpsemError::NoMatch(Type::Bool)),
            "unexpected error {err:?}"
        );
    }

    #[test]
    fn runtime_overlap_error_duplicate_values() {
        // The ext. report's {Int:1, Int:2} ⊢ ?Int: two values for the
        // same type inside one rule set. (The type checker rejects
        // this statically; the runtime check is independent.)
        let err = eval_err("rule ({Int} => Int) (?(Int)) with {1 : Int} with {2 : Int}");
        // Two nested frames do NOT overlap (nearest wins) — build a
        // genuine single-set overlap via polymorphic heads instead:
        let _ = err;
        let err2 = eval_err(
            "implicit {rule (forall a. a -> Int) ((\\x : a. 1)) : forall a. a -> Int, \
                       rule (forall a. Int -> a) ((\\x : Int. ?(a))) : forall a. Int -> a} \
             in ?(Int -> Int) 0 : Int",
        );
        assert!(matches!(err2, OpsemError::Overlap { .. }), "got {err2:?}");
    }

    #[test]
    fn runtime_ambiguous_instantiation() {
        // ∀a.{a → a} ⇒ Int at ?Int leaves `a` undetermined (ext.
        // report's ambiguous-instantiation example).
        let err = eval_err(
            "implicit {rule (forall a. {a -> a} => Int) (1) : forall a. {a -> a} => Int, \
                       (\\b : Bool. b) : Bool -> Bool, \
                       rule (forall b. b -> b) ((\\x : b. x)) : forall b. b -> b} \
             in ?(Int) : Int",
        );
        assert!(
            matches!(err, OpsemError::AmbiguousInstantiation { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn nontermination_hits_depth_bound() {
        let e = parse_expr(
            "implicit {rule ({String} => Int) (1) : {String} => Int, \
                       rule ({Int} => String) (\"s\") : {Int} => String} \
             in ?(Int) : Int",
        )
        .unwrap();
        let decls = Declarations::new();
        let err = Interpreter::new(&decls)
            .with_policy(ResolutionPolicy::paper().with_max_depth(32))
            .eval(&e)
            .unwrap_err();
        assert!(
            matches!(err, OpsemError::DepthExceeded { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn nesting_is_bounded_at_max_eval_depth() {
        // `(fix f. λn. if n <= 0 then 0 else 1 + f (n - 1)) n` nests
        // 3n + 4 levels deep, and each `0 + (…)` around it one more.
        let (n, w) = ((MAX_EVAL_DEPTH - 4) / 3, (MAX_EVAL_DEPTH - 4) % 3);
        let deep = move |wrappers: usize| {
            let sum =
                format!("(fix f : Int -> Int. \\n : Int. if n <= 0 then 0 else 1 + f (n - 1)) {n}");
            parse_expr(&format!(
                "{}{sum}{}",
                "0 + (".repeat(wrappers),
                ")".repeat(wrappers)
            ))
            .unwrap()
        };
        std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn(move || {
                let (at, past) = (deep(w), deep(w + 1));
                let decls = Declarations::new();
                let v = Interpreter::new(&decls).eval(&at).unwrap();
                assert_eq!(v.to_string(), n.to_string());
                let err = Interpreter::new(&decls).eval(&past).unwrap_err();
                assert!(matches!(err, OpsemError::TooDeep), "got {err:?}");
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn host_fragment_works() {
        assert_eq!(
            eval0("(fix f : Int -> Int. \\n : Int. if n <= 0 then 1 else n * f (n - 1)) 5")
                .to_string(),
            "120"
        );
        assert_eq!(
            eval0("case 1 :: 2 :: nil [Int] of nil -> 0 | h :: t -> h + 10").to_string(),
            "11"
        );
    }

    #[test]
    fn queries_inside_lambdas_capture_scopes_lexically() {
        // The closure must remember the implicit scope where it was
        // built, not where it is called.
        let src = "implicit {10 : Int} in \
                     ((\\f : Unit -> Int. (implicit {20 : Int} in f unit : Int)) \
                      (\\u : Unit. ?(Int))) : Int";
        assert_eq!(eval0(src).to_string(), "10");
    }

    #[test]
    fn polymorphic_query_result_instantiates() {
        // ?(∀a.{a}⇒a×a) then [Int] with {9 : Int}.
        let src =
            "implicit {rule (forall a. {a} => a * a) ((?(a), ?(a))) : forall a. {a} => a * a} \
                   in (?(forall a. {a} => a * a) [Int] with {9 : Int}) : Int * Int";
        assert_eq!(eval0(src).to_string(), "(9, 9)");
    }
}
