//! Property-based tests over the core data structures and
//! judgments: substitution, matching, unification, α-equivalence,
//! canonicalization, printing/parsing, and resolution stability.

use proptest::prelude::*;

use implicit_core::alpha;
use implicit_core::env::ImplicitEnv;
use implicit_core::parse;
use implicit_core::resolve::{resolve, ResolutionPolicy};
use implicit_core::subst::{freshen_rule, TySubst};
use implicit_core::symbol::Symbol;
use implicit_core::syntax::{RuleType, Type};
use implicit_core::unify;

// ---------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------

fn var_name() -> impl Strategy<Value = Symbol> {
    prop_oneof![Just("a"), Just("b"), Just("c"), Just("d")].prop_map(Symbol::intern)
}

/// Arbitrary simple types over a few base types and variables.
fn arb_type() -> impl Strategy<Value = Type> {
    let leaf = prop_oneof![
        Just(Type::Int),
        Just(Type::Bool),
        Just(Type::Str),
        Just(Type::Unit),
        var_name().prop_map(Type::Var),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Type::arrow(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Type::prod(a, b)),
            inner.prop_map(Type::list),
        ]
    })
}

/// Arbitrary ground (variable-free) types.
fn arb_ground_type() -> impl Strategy<Value = Type> {
    let leaf = prop_oneof![
        Just(Type::Int),
        Just(Type::Bool),
        Just(Type::Str),
        Just(Type::Unit)
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Type::arrow(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Type::prod(a, b)),
            inner.prop_map(Type::list),
        ]
    })
}

/// Arbitrary rule types: quantify over the variables that occur.
fn arb_rule_type() -> impl Strategy<Value = RuleType> {
    (
        arb_type(),
        proptest::collection::vec(arb_type(), 0..3),
        any::<bool>(),
    )
        .prop_map(|(head, ctx, quantify)| {
            let vars: Vec<Symbol> = if quantify {
                head.ftv().into_iter().collect()
            } else {
                Vec::new()
            };
            RuleType::new(vars, ctx.into_iter().map(|t| t.promote()).collect(), head)
        })
}

/// Arbitrary ground substitutions over the fixed variable pool.
fn arb_subst() -> impl Strategy<Value = TySubst> {
    proptest::collection::vec((var_name(), arb_ground_type()), 0..4).prop_map(|pairs| {
        let mut s = TySubst::new();
        for (v, t) in pairs {
            s.bind(v, t);
        }
        s
    })
}

// ---------------------------------------------------------------
// Substitution
// ---------------------------------------------------------------

proptest! {
    #[test]
    fn subst_composition_agrees_with_sequencing(t in arb_type(), s1 in arb_subst(), s2 in arb_subst()) {
        let composed = s1.compose(&s2);
        prop_assert_eq!(composed.apply_type(&t), s1.apply_type(&s2.apply_type(&t)));
    }

    #[test]
    fn empty_subst_is_identity(t in arb_type()) {
        prop_assert_eq!(TySubst::new().apply_type(&t), t);
    }

    #[test]
    fn ground_substitution_grounds_pool_vars(t in arb_type()) {
        let mut s = TySubst::new();
        for name in ["a", "b", "c", "d"] {
            s.bind(Symbol::intern(name), Type::Int);
        }
        let out = s.apply_type(&t);
        prop_assert!(out.ftv().is_empty(), "ftv left: {:?}", out.ftv());
    }

    #[test]
    fn rule_substitution_preserves_unambiguity_of_ground_rules(r in arb_rule_type(), s in arb_subst()) {
        // Substitution cannot *introduce* quantified variables, so an
        // unambiguous rule stays unambiguous.
        if r.is_unambiguous() {
            prop_assert!(s.apply_rule(&r).is_unambiguous());
        }
    }
}

// ---------------------------------------------------------------
// Matching and unification
// ---------------------------------------------------------------

proptest! {
    #[test]
    fn match_solution_reproduces_target(pattern in arb_type(), s in arb_subst()) {
        // θ(p) matches against p for the flexible vars of p.
        let target = s.apply_type(&pattern);
        let vars: Vec<Symbol> = pattern.ftv().into_iter().collect();
        let theta = unify::match_type(&pattern, &target, &vars);
        prop_assert!(theta.is_some(), "own instance must match");
        prop_assert_eq!(theta.unwrap().apply_type(&pattern), target);
    }

    #[test]
    fn match_respects_rigidity(t in arb_ground_type()) {
        // Ground targets never match distinct ground patterns.
        let p = Type::prod(t.clone(), Type::Int);
        prop_assert!(unify::match_type(&p, &t, &[]).is_none() || p == t);
    }

    #[test]
    fn mgu_is_a_unifier(a in arb_type(), b in arb_type()) {
        if let Some(theta) = unify::mgu(&a, &b) {
            prop_assert!(
                alpha::alpha_eq_type(&theta.apply_type(&a), &theta.apply_type(&b)),
                "mgu must unify: {} vs {}",
                theta.apply_type(&a),
                theta.apply_type(&b)
            );
        }
    }

    #[test]
    fn mgu_finds_instances(t in arb_type(), s in arb_subst()) {
        // A type always unifies with its own instances.
        let inst = s.apply_type(&t);
        // Rename apart: instance variables could clash. Use ground
        // substitutions only (arb_subst is ground), so no clash.
        prop_assert!(unify::mgu(&t, &inst).is_some());
    }
}

// ---------------------------------------------------------------
// α-equivalence and canonicalization
// ---------------------------------------------------------------

proptest! {
    #[test]
    fn freshening_preserves_alpha_class(r in arb_rule_type()) {
        let (f, _) = freshen_rule(&r);
        prop_assert!(alpha::alpha_eq(&r, &f));
    }

    #[test]
    fn canonical_context_is_idempotent(r in arb_rule_type()) {
        let rebuilt = RuleType::new(r.vars().to_vec(), r.context().to_vec(), r.head().clone());
        prop_assert_eq!(r.context(), rebuilt.context());
    }

    #[test]
    fn promotion_roundtrips(t in arb_type()) {
        prop_assert_eq!(t.promote().to_type(), t);
    }

    #[test]
    fn alpha_keys_are_stable_under_freshening(r in arb_rule_type()) {
        let (f, _) = freshen_rule(&r);
        prop_assert_eq!(alpha::canonical_key(&r), alpha::canonical_key(&f));
    }
}

// ---------------------------------------------------------------
// Printing and parsing
// ---------------------------------------------------------------

proptest! {
    #[test]
    fn type_printing_roundtrips(t in arb_type()) {
        let printed = t.to_string();
        let reparsed = parse::parse_type(&printed)
            .unwrap_or_else(|e| panic!("reparse of `{printed}` failed: {e}"));
        prop_assert_eq!(reparsed, t);
    }

    #[test]
    fn rule_type_printing_roundtrips(r in arb_rule_type()) {
        let printed = r.to_string();
        let reparsed = parse::parse_rule_type(&printed)
            .unwrap_or_else(|e| panic!("reparse of `{printed}` failed: {e}"));
        prop_assert!(alpha::alpha_eq(&reparsed, &r), "roundtrip changed {printed}");
    }
}

// ---------------------------------------------------------------
// Resolution
// ---------------------------------------------------------------

proptest! {
    #[test]
    fn resolution_is_deterministic(seed in 0u64..500) {
        // Same environment and query → identical derivations.
        let n = (seed % 8) as usize;
        let (env, q) = build_chain(n);
        let p = ResolutionPolicy::paper();
        let r1 = resolve(&env, &q, &p).unwrap();
        let r2 = resolve(&env, &q, &p).unwrap();
        prop_assert_eq!(r1, r2);
    }

    #[test]
    fn ground_resolution_is_stable_under_substitution(t in arb_ground_type(), s in arb_subst()) {
        // Ground environments: resolvability is invariant under
        // substitution (the type-safety condition, trivially).
        let env = ImplicitEnv::with_frame(vec![t.clone().promote()]);
        prop_assert!(implicit_core::coherence::stable_under(
            &env,
            &t.promote(),
            &s,
            &ResolutionPolicy::paper()
        ));
    }

    #[test]
    fn successful_resolutions_always_verify(n in 0usize..8, assumed in 0usize..4) {
        let assumed = assumed.min(n);
        let (env, q) = build_partial(n.max(1), assumed);
        if let Ok(res) = resolve(&env, &q, &ResolutionPolicy::paper()) {
            prop_assert!(implicit_core::logic::verify_derivation(&env, &res));
        }
    }
}

/// Every program genprog writes prints as text that parses, and the
/// parsed tree prints as the same text. Negative literals print where
/// an operand starts; fresh binders print as their base name, so the
/// parsed tree may differ from the generated one by a renaming.
#[test]
fn generated_programs_print_as_text_that_parses_back() {
    let decls = genprog::data_prelude();
    let config = genprog::GenConfig::default();
    for seed in 0..10_000 {
        let program = genprog::gen_program_with(&mut genprog::rng(seed), &config, &decls);
        let printed = program.expr.to_string();
        let reparsed = parse::parse_expr(&printed)
            .unwrap_or_else(|e| panic!("seed {seed}: `{printed}` does not parse: {e}"));
        assert_eq!(reparsed.to_string(), printed, "seed {seed}");
    }
}

fn build_chain(n: usize) -> (ImplicitEnv, RuleType) {
    fn ty(k: usize) -> Type {
        let mut t = Type::Int;
        for _ in 0..k {
            t = Type::list(t);
        }
        t
    }
    let mut frame = vec![Type::Int.promote()];
    for k in 1..=n {
        frame.push(RuleType::mono(vec![ty(k - 1).promote()], ty(k)));
    }
    (ImplicitEnv::with_frame(frame), ty(n).promote())
}

fn build_partial(n: usize, assumed: usize) -> (ImplicitEnv, RuleType) {
    fn ty(k: usize) -> Type {
        let mut t = Type::Bool;
        for _ in 0..k {
            t = Type::list(t);
        }
        t
    }
    let premises: Vec<RuleType> = (0..n).map(|k| ty(k + 1).promote()).collect();
    let head = Type::prod(Type::Int, Type::Int);
    let rule = RuleType::mono(premises.clone(), head.clone());
    let mut frame: Vec<RuleType> = premises[assumed..].to_vec();
    frame.push(rule);
    let query = RuleType::mono(premises[..assumed].to_vec(), head);
    (ImplicitEnv::with_frame(frame), query)
}
