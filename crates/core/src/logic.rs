//! The logical interpretation of resolution (§3.2, Theorem 1).
//!
//! Each type is assigned a logical reading `(·)†`: simple types become
//! atomic propositions ("a value of this type is implicitly
//! available") and rule types become implications
//! `(∀ᾱ.π ⇒ τ)† = ∀ᾱ. ⋀ρ∈π ρ† ⇒ τ†`. Theorem 1 states that
//! resolution is *sound* for this reading: `Δ ⊢r ρ ⟹ Δ† ⊨ ρ†`.
//!
//! This module provides both directions of the comparison:
//!
//! * [`verify_derivation`] checks that a [`Resolution`] produced by
//!   the resolver really is a valid entailment proof — each step uses
//!   a rule present in the environment (or an assumed premise), with
//!   a correct instantiation and complete premises. This makes
//!   Theorem 1 *checkable* on every resolution the system performs.
//! * [`entails`] is an independent, backtracking hereditary-Harrop
//!   prover for the semantic judgment `Δ† ⊨ ρ†` (depth-bounded, since
//!   entailment over type atoms is only semi-decidable). It proves
//!   strictly more than `⊢r` — e.g. the §3.2 example
//!   `Char; Char⇒Int; Bool⇒Int ⊨ Int` holds semantically while
//!   resolution, which never backtracks past the nearest match, gets
//!   stuck. Tests use this gap to reproduce the paper's discussion.

use crate::alpha;
use crate::env::ImplicitEnv;
use crate::resolve::{Premise, Resolution, RuleRef};
use crate::subst::{freshen_rule, TySubst};
use crate::syntax::{RuleType, Type};
use crate::unify;

/// Checks that a resolution derivation is a valid entailment proof of
/// its query from the environment (the constructive content of
/// Theorem 1).
///
/// Verifies, at every node:
///
/// 1. the referenced rule exists at the recorded frame/index and is
///    α-equivalent to the recorded rule type;
/// 2. instantiating the rule's quantifiers with the recorded type
///    arguments makes its head equal to the query head;
/// 3. the premises line up with the instantiated context, assumed
///    premises are α-members of the query's own context, and derived
///    premises verify recursively.
///
/// Derivations using extension frames are accepted if
/// `allow_extension` and the assumed context at the recorded level
/// matches (these prove entailment from `Δ ∪ assumptions`).
pub fn verify_derivation(env: &ImplicitEnv, res: &Resolution) -> bool {
    verify_at(env, res, &mut Vec::new())
}

fn verify_at(
    env: &ImplicitEnv,
    res: &Resolution,
    assumption_stack: &mut Vec<Vec<RuleType>>,
) -> bool {
    // 1. The referenced rule must exist and match the recorded one.
    let stored: Option<RuleType> = match res.rule {
        RuleRef::Env { level, index } => env.frame_rule(level, index).cloned(),
        RuleRef::Extension { level, index } => assumption_stack
            .get(level)
            .and_then(|ctx| ctx.get(index))
            .cloned(),
    };
    let Some(stored) = stored else {
        return false;
    };
    if !alpha::alpha_eq(&stored, &res.rule_type) {
        return false;
    }
    // 2. Instantiation makes the head match the query head.
    let (fresh, _) = freshen_rule(&stored);
    if fresh.vars().len() != res.type_args.len() {
        return false;
    }
    let theta = TySubst::bind_all(fresh.vars(), &res.type_args);
    if !alpha::alpha_eq_type(&theta.apply_type(fresh.head()), res.query.head()) {
        return false;
    }
    // 3. Premises align with the instantiated context.
    let inst_context = theta.apply_context(fresh.context());
    if inst_context.len() != res.premises.len() {
        return false;
    }
    for (want, premise) in inst_context.iter().zip(&res.premises) {
        if !alpha::alpha_eq(want, premise.rho()) {
            return false;
        }
        match premise {
            Premise::Assumed { index, rho } => match res.query.context().get(*index) {
                Some(q) if alpha::alpha_eq(q, rho) => {}
                _ => return false,
            },
            Premise::Derived(inner) => {
                assumption_stack.push(res.query.context().to_vec());
                let ok = verify_at(env, inner, assumption_stack);
                assumption_stack.pop();
                if !ok {
                    return false;
                }
            }
        }
    }
    true
}

/// Depth-bounded semantic entailment `Δ† ⊨ ρ†`.
///
/// A hereditary-Harrop prover with full backtracking: to prove a rule
/// type, assume its context and prove its head; to prove an atom, try
/// *every* rule (in any frame) whose head matches and prove its
/// premises. Nesting is handled by extending the assumption list.
///
/// Returns `false` both for non-theorems and when the proof search
/// exceeds `depth` — callers that need the distinction should raise
/// the bound.
pub fn entails(env: &ImplicitEnv, query: &RuleType, depth: usize) -> bool {
    let mut rules: Vec<RuleType> = Vec::new();
    for (_, frame) in env.frames_innermost_first() {
        rules.extend(frame.iter().cloned());
    }
    prove_rule(&rules, query, depth)
}

fn prove_rule(rules: &[RuleType], goal: &RuleType, depth: usize) -> bool {
    if depth == 0 {
        return false;
    }
    // Assume the goal's context, prove its head. The goal's
    // quantifiers become fresh eigenvariables (they are already
    // distinct symbols; matching treats unknown vars as rigid).
    let (goal, _) = freshen_rule(goal);
    let mut extended: Vec<RuleType> = goal.context().to_vec();
    extended.extend(rules.iter().cloned());
    prove_atom(&extended, goal.head(), depth)
}

fn prove_atom(rules: &[RuleType], goal: &Type, depth: usize) -> bool {
    if depth == 0 {
        return false;
    }
    for rule in rules {
        let (fresh, _) = freshen_rule(rule);
        if let Some(theta) = unify::match_type(fresh.head(), goal, fresh.vars()) {
            let premises = theta.apply_context(fresh.context());
            if premises.iter().all(|p| prove_rule(rules, p, depth - 1)) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve::{resolve, ResolutionPolicy};
    use crate::symbol::Symbol;

    fn v(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn tv(s: &str) -> Type {
        Type::var(v(s))
    }

    fn pair_rule() -> RuleType {
        RuleType::new(
            vec![v("a")],
            vec![tv("a").promote()],
            Type::prod(tv("a"), tv("a")),
        )
    }

    #[test]
    fn successful_resolutions_verify() {
        let mut env = ImplicitEnv::new();
        env.push(vec![Type::Int.promote()]);
        env.push(vec![pair_rule()]);
        let query = Type::prod(Type::Int, Type::Int).promote();
        let res = resolve(&env, &query, &ResolutionPolicy::paper()).unwrap();
        assert!(verify_derivation(&env, &res));
    }

    #[test]
    fn tampered_derivations_are_rejected() {
        let mut env = ImplicitEnv::new();
        env.push(vec![Type::Int.promote()]);
        env.push(vec![pair_rule()]);
        let query = Type::prod(Type::Int, Type::Int).promote();
        let mut res =
            Resolution::clone(&resolve(&env, &query, &ResolutionPolicy::paper()).unwrap());
        // Wrong type argument:
        res.type_args = vec![Type::Bool];
        assert!(!verify_derivation(&env, &res));
    }

    #[test]
    fn wrong_rule_reference_is_rejected() {
        let mut env = ImplicitEnv::new();
        env.push(vec![Type::Int.promote()]);
        let res = resolve(&env, &Type::Int.promote(), &ResolutionPolicy::paper()).unwrap();
        let mut bad = Resolution::clone(&res);
        bad.rule = RuleRef::Env { level: 3, index: 0 };
        assert!(!verify_derivation(&env, &bad));
        // And against a different environment:
        let other = ImplicitEnv::with_frame(vec![Type::Bool.promote()]);
        assert!(!verify_derivation(&other, &res));
    }

    #[test]
    fn resolution_implies_entailment_theorem1() {
        // Every query the resolver solves must be semantically
        // entailed.
        let mut env = ImplicitEnv::new();
        env.push(vec![Type::Int.promote(), Type::Bool.promote()]);
        env.push(vec![pair_rule()]);
        let queries = [
            Type::Int.promote(),
            Type::prod(Type::Int, Type::Int).promote(),
            Type::prod(
                Type::prod(Type::Bool, Type::Bool),
                Type::prod(Type::Bool, Type::Bool),
            )
            .promote(),
            RuleType::mono(vec![Type::Int.promote()], Type::prod(Type::Int, Type::Int)),
        ];
        let policy = ResolutionPolicy::paper();
        for q in &queries {
            if resolve(&env, q, &policy).is_ok() {
                assert!(entails(&env, q, 32), "entailment failed for {q}");
            }
        }
    }

    #[test]
    fn entailment_is_strictly_stronger_than_resolution() {
        // §3.2: Char; Char⇒Int; Bool⇒Int. Semantically Int follows
        // (via the Char rule); resolution gets stuck on the nearest
        // Bool⇒Int rule.
        let mut env = ImplicitEnv::new();
        env.push(vec![Type::Str.promote()]);
        env.push(vec![RuleType::mono(vec![Type::Str.promote()], Type::Int)]);
        env.push(vec![RuleType::mono(vec![Type::Bool.promote()], Type::Int)]);
        assert!(resolve(&env, &Type::Int.promote(), &ResolutionPolicy::paper()).is_err());
        assert!(entails(&env, &Type::Int.promote(), 16));
    }

    #[test]
    fn hypothetical_goals_extend_assumptions() {
        // ⊨ {Char} ⇒ Int from {Char ⇒ Int}: assume Char, use rule.
        let env =
            ImplicitEnv::with_frame(vec![RuleType::mono(vec![Type::Str.promote()], Type::Int)]);
        let goal = RuleType::mono(vec![Type::Str.promote()], Type::Int);
        assert!(entails(&env, &goal, 16));
        // But the bare Int is not entailed (no Char available).
        assert!(!entails(&env, &Type::Int.promote(), 16));
    }

    #[test]
    fn entailment_depth_bound_prevents_divergence() {
        let env = ImplicitEnv::with_frame(vec![
            RuleType::mono(vec![Type::Str.promote()], Type::Int),
            RuleType::mono(vec![Type::Int.promote()], Type::Str),
        ]);
        // Neither provable nor diverging: the bound cuts the search.
        assert!(!entails(&env, &Type::Int.promote(), 24));
    }

    #[test]
    fn partial_resolution_derivations_verify() {
        let rule = RuleType::new(
            vec![v("a")],
            vec![Type::Bool.promote(), tv("a").promote()],
            Type::prod(tv("a"), tv("a")),
        );
        let mut env = ImplicitEnv::new();
        env.push(vec![Type::Bool.promote()]);
        env.push(vec![rule]);
        let query = RuleType::mono(vec![Type::Int.promote()], Type::prod(Type::Int, Type::Int));
        let res = resolve(&env, &query, &ResolutionPolicy::paper()).unwrap();
        assert!(res.is_partial());
        assert!(verify_derivation(&env, &res));
        assert!(entails(&env, &query, 32));
    }
}
