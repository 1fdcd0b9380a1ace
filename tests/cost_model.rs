//! Machine-checked cost-model assertions backing the EXPERIMENTS.md
//! benchmark narratives: the *counts* behind B1–B4/B10/B12 (steps,
//! rules tried, frames scanned, cache hits) must follow the predicted
//! shapes exactly, independent of wall-clock noise.
//!
//! Since the head-constructor index landed, `rules_tried` counts the
//! *candidates the index admits* (rules whose head constructor could
//! match the query head, plus variable-headed rules), not the whole
//! frame population — that drop is asserted here.

use genprog::{chain_env, deep_stack_env, hk_nested_env, partial_env, poly_env, wide_env};
use implicit_core::logic::verify_derivation;
use implicit_core::resolve::{resolve, Resolution, ResolutionPolicy, RuleRef};
use implicit_core::syntax::{RuleType, Type};
use implicit_core::ImplicitEnv;

fn policy() -> ResolutionPolicy {
    ResolutionPolicy::paper().with_max_depth(4096)
}

fn policy_uncached() -> ResolutionPolicy {
    policy().without_cache()
}

#[test]
fn b1_chain_steps_are_linear() {
    for n in [0usize, 1, 4, 16, 64] {
        let (env, q) = chain_env(n);
        let res = resolve(&env, &q, &policy()).unwrap();
        let stats = res.stats(&env);
        assert_eq!(stats.steps, n + 1, "chain {n}");
        // Each step scans the single frame once.
        assert_eq!(stats.frames_scanned, n + 1, "chain {n}");
        // The chain rules `{Tₖ₋₁}⇒Tₖ` all share the `List` head
        // constructor, so the n steps with a `List`-headed query
        // try all n of them; the final `Int` step tries only the
        // one `Int`-headed value. (Pre-index: (n+1)² tries.)
        assert_eq!(stats.rules_tried, n * n + 1, "chain {n}");
    }
}

#[test]
fn b2_wide_frames_try_only_admitted_candidates() {
    for n in [8usize, 64, 256] {
        let (env, q) = wide_env(n, 1.0);
        let res = resolve(&env, &q, &policy()).unwrap();
        let stats = res.stats(&env);
        assert_eq!(stats.steps, 1);
        assert_eq!(stats.frames_scanned, 1);
        // The n decoys are all `List`-headed; the product-headed
        // query admits exactly the one matching rule, however wide
        // the frame. (Pre-index: n + 1 tries.)
        assert_eq!(stats.rules_tried, 1, "wide {n}");
    }
}

#[test]
fn b2_deep_stacks_descend_every_frame() {
    for n in [8usize, 64, 256] {
        let (env, q) = deep_stack_env(n);
        let res = resolve(&env, &q, &policy()).unwrap();
        let stats = res.stats(&env);
        assert_eq!(stats.steps, 1);
        assert_eq!(stats.max_frame_reached, n, "deep {n}");
        assert_eq!(stats.frames_scanned, n + 1, "deep {n}");
        // Descending still visits every frame, but the `List`-headed
        // decoy frames admit no candidate for the `Int` query; only
        // the outermost frame's value is tried. (Pre-index: n + 1.)
        assert_eq!(stats.rules_tried, 1, "deep {n}");
    }
}

#[test]
fn b4_partial_resolution_work_scales_with_derived_premises_only() {
    let n = 12usize;
    let mut derived_steps = Vec::new();
    for assumed in [0usize, 4, 8, 12] {
        let (env, q) = partial_env(n, assumed);
        let res = resolve(&env, &q, &policy()).unwrap();
        let stats = res.stats(&env);
        assert_eq!(stats.assumed, assumed, "assumed {assumed}");
        // One step for the rule plus one per derived premise.
        assert_eq!(stats.steps, 1 + (n - assumed), "assumed {assumed}");
        derived_steps.push(stats.steps);
    }
    assert!(
        derived_steps.windows(2).all(|w| w[0] > w[1]),
        "more assumptions must mean strictly fewer steps: {derived_steps:?}"
    );
}

#[test]
fn b10_higher_kinded_nesting_is_linear_in_steps() {
    for n in [1usize, 4, 16, 64] {
        let (env, q) = hk_nested_env(n);
        let res = resolve(&env, &q, &policy()).unwrap();
        let stats = res.stats(&env);
        assert_eq!(stats.steps, n + 1, "hk {n}");
        assert_eq!(stats.rules_tried, 2 * (n + 1), "hk {n}");
    }
}

#[test]
fn assumed_premises_save_exactly_their_resolution_subtrees() {
    // Same environment, same head; the query context grows: every
    // newly assumed premise removes its whole derivation subtree.
    let (env, q_full) = partial_env(6, 0);
    let full = resolve(&env, &q_full, &policy()).unwrap().stats(&env);
    let (env2, q_half) = partial_env(6, 3);
    let half = resolve(&env2, &q_half, &policy()).unwrap().stats(&env2);
    assert_eq!(full.steps - half.steps, 3);
}

// ---------------------------------------------------------------------
// B12: the memoized derivation cache.
// ---------------------------------------------------------------------

#[test]
fn b12_repeated_queries_cost_one_resolution_plus_hits() {
    let (env, q) = chain_env(16);
    let pol = policy();
    let first = resolve(&env, &q, &pol).unwrap();
    let after_first = env.cache_counters();
    // The first resolution misses once per TyRes node, then caches
    // every subtree.
    assert_eq!(after_first.hits, 0);
    assert_eq!(after_first.misses as usize, first.steps());
    assert_eq!(env.cache_len(), first.steps());
    let reps = 9;
    for _ in 0..reps {
        let again = resolve(&env, &q, &pol).unwrap();
        assert_eq!(again, first, "cached derivation must replay verbatim");
        assert!(verify_derivation(&env, &again));
    }
    let after_reps = env.cache_counters();
    // N repeated queries cost the 1 initial resolution + N−1 single
    // top-level hits: no new misses, one hit per repeat, nothing
    // evicted.
    assert_eq!(after_reps.hits, reps);
    assert_eq!(after_reps.misses, after_first.misses);
    assert_eq!(after_reps.evictions, 0);
}

#[test]
fn b12_disabling_the_cache_disables_memoization() {
    let (env, q) = chain_env(8);
    let pol = policy_uncached();
    let r1 = resolve(&env, &q, &pol).unwrap();
    let r2 = resolve(&env, &q, &pol).unwrap();
    assert_eq!(r1, r2);
    assert_eq!(env.cache_counters(), Default::default());
    assert_eq!(env.cache_len(), 0);
}

#[test]
fn b12_push_invalidates_exactly_the_shadowed_entries() {
    let (mut env, q) = chain_env(4);
    let pol = policy();
    let first = resolve(&env, &q, &pol).unwrap();
    let populated = env.cache_len();
    assert_eq!(populated, first.steps());
    // A frame whose heads shadow nothing the derivations looked up
    // (the chain queries List- and Int-headed types only) keeps every
    // entry alive...
    env.push(vec![Type::Bool.promote()]);
    assert_eq!(env.cache_len(), populated);
    // ...and the hit names the same frame, level 0, through the
    // deeper stack.
    let before = env.cache_counters();
    let res = resolve(&env, &q, &pol).unwrap();
    assert_eq!(env.cache_counters().hits, before.hits + 1);
    assert!(matches!(res.rule, RuleRef::Env { level: 0, .. }));
    assert!(verify_derivation(&env, &res));
    // A frame providing Int shadows the chain's base value — every
    // chain entry's derivation reaches Int, so all are shelved.
    env.push(vec![Type::Int.promote()]);
    assert_eq!(env.cache_len(), 0);
    // Popping it puts them back: the next query is a hit, no miss.
    env.pop();
    assert_eq!(env.cache_len(), populated);
    let before = env.cache_counters();
    let res = resolve(&env, &q, &pol).unwrap();
    assert_eq!(env.cache_counters().hits, before.hits + 1);
    assert_eq!(env.cache_counters().misses, before.misses);
    assert!(verify_derivation(&env, &res));
}

#[test]
fn b12_pop_invalidates_exactly_the_entries_using_the_popped_frame() {
    let mut env = ImplicitEnv::new();
    env.push(vec![Type::Int.promote()]); // absolute frame 0 (outer)
    env.push(vec![Type::Bool.promote()]); // absolute frame 1 (inner)
    let pol = policy();
    resolve(&env, &Type::Int.promote(), &pol).unwrap(); // uses frame 0
    resolve(&env, &Type::Bool.promote(), &pol).unwrap(); // uses frame 1
    assert_eq!(env.cache_len(), 2);
    env.pop();
    // Only the Bool derivation used the popped frame.
    assert_eq!(env.cache_len(), 1);
    let before = env.cache_counters();
    let res = resolve(&env, &Type::Int.promote(), &pol).unwrap();
    assert_eq!(env.cache_counters().hits, before.hits + 1);
    // Cached at depth 2 and hit at depth 1: level 0 names the
    // surviving frame at both.
    assert_eq!(res.rule, RuleRef::Env { level: 0, index: 0 });
    assert!(verify_derivation(&env, &res));
}

#[test]
fn b12_capacity_bound_evicts_oldest_first() {
    let (mut env, q) = chain_env(16);
    env.set_cache_capacity(4);
    let pol = policy();
    let first = resolve(&env, &q, &pol).unwrap();
    assert!(env.cache_len() <= 4);
    let counters = env.cache_counters();
    assert_eq!(counters.evictions as usize, first.steps() - 4);
    // Capacity 0 disables memoization entirely.
    env.set_cache_capacity(0);
    assert_eq!(env.cache_len(), 0);
    let before = env.cache_counters();
    resolve(&env, &q, &pol).unwrap();
    assert_eq!(env.cache_len(), 0);
    assert_eq!(env.cache_counters().hits, before.hits);
}

/// α-renaming a query must not change what the cache replays: the
/// cache key is the *structural* identity, so α-variants miss, get
/// re-derived, and both derivations must agree modulo the variant's
/// own binder names.
#[test]
fn b12_alpha_variant_queries_resolve_consistently() {
    use implicit_core::symbol::Symbol;
    let a = Symbol::intern("cm_a");
    let b = Symbol::intern("cm_b");
    let pair = |v: Symbol| {
        RuleType::new(
            vec![v],
            vec![Type::var(v).promote()],
            Type::prod(Type::var(v), Type::var(v)),
        )
    };
    let env = ImplicitEnv::with_frame(vec![pair(a)]);
    let pol = policy();
    let r_a = resolve(&env, &pair(a), &pol).unwrap();
    let r_b = resolve(&env, &pair(b), &pol).unwrap();
    assert!(implicit_core::alpha::alpha_eq(&r_a.query, &r_b.query));
    assert_eq!(r_a.rule, r_b.rule);
    assert_eq!(r_a.premises.len(), r_b.premises.len());
    assert!(verify_derivation(&env, &r_a));
    assert!(verify_derivation(&env, &r_b));
}

/// The cache must be *transparent*: over every generator family and
/// size, resolution with the cache (cold and warm) returns exactly
/// the derivation the uncached resolver builds, and the replays
/// verify against the logical interpretation.
#[test]
fn b12_cached_resolution_is_equivalent_to_uncached() {
    let cases: Vec<(ImplicitEnv, RuleType)> = vec![
        chain_env(0),
        chain_env(5),
        chain_env(17),
        wide_env(16, 0.0),
        wide_env(16, 1.0),
        deep_stack_env(9),
        poly_env(7),
        partial_env(6, 3),
        partial_env(6, 0),
        hk_nested_env(4),
    ];
    for (env, q) in cases {
        let uncached = resolve(&env, &q, &policy_uncached()).unwrap();
        let cold = resolve(&env, &q, &policy()).unwrap();
        let warm = resolve(&env, &q, &policy()).unwrap();
        assert_eq!(uncached, cold, "cold cache changed the derivation for {q}");
        assert_eq!(uncached, warm, "warm cache changed the derivation for {q}");
        assert!(env.cache_counters().hits >= 1, "warm run must hit for {q}");
        assert!(
            verify_derivation(&env, &warm),
            "cached derivation must verify for {q}"
        );
    }
}

/// Randomized interleavings of pushes (nested, shadowing or not),
/// pops, trims and repeated queries, with the default capacity and
/// with room for only 4 entries: after any prefix of operations, a
/// cached replay must equal a from-scratch uncached resolution in the
/// *same* environment.
#[test]
fn b12_cache_matches_uncached_under_random_scope_churn() {
    use implicit_core::intern::rule_id;
    use rand::Rng;
    let mut rng = genprog::rng(0xB12);
    let mut hits_after_restoring_pops = 0;
    for round in 0..80 {
        let n = rng.gen_range(1..8usize);
        let (mut env, q) = chain_env(n);
        if round % 4 == 3 {
            env.set_cache_capacity(4);
        }
        // Warm the cache.
        resolve(&env, &q, &policy()).unwrap();
        let mut pushed = 0usize;
        for _ in 0..rng.gen_range(1..10usize) {
            let mut restoring_pop = false;
            match rng.gen_range(0..4usize) {
                // Push a frame that may shadow the chain, match
                // nothing it looks up while sharing its `List` head,
                // or leave it alone.
                0 => {
                    let head = match rng.gen_range(0..3usize) {
                        0 => genprog::distinct_type(rng.gen_range(0..=n)),
                        1 => Type::list(Type::Bool),
                        _ => Type::Str,
                    };
                    env.push(vec![head.promote()]);
                    pushed += 1;
                }
                1 if pushed > 0 => {
                    let before = env.cache_len();
                    env.pop();
                    pushed -= 1;
                    restoring_pop = env.cache_len() > before;
                }
                // Trim some queries, shelved or live.
                2 => {
                    let victim = rule_id(&genprog::distinct_type(rng.gen_range(0..=n)).promote());
                    env.retain_cache(|id| id != victim);
                }
                _ => {}
            }
            let before = env.cache_counters();
            let cached = resolve(&env, &q, &policy()).unwrap();
            let after = env.cache_counters();
            if restoring_pop && after.hits > before.hits && after.misses == before.misses {
                hits_after_restoring_pops += 1;
            }
            let fresh = resolve(&env, &q, &policy_uncached()).unwrap();
            assert_eq!(
                cached, fresh,
                "round {round}: cache and uncached disagree after scope churn"
            );
            assert!(verify_derivation(&env, &cached), "round {round}");
        }
    }
    assert!(
        hits_after_restoring_pops > 0,
        "some pop put a shelf back that the next query hit"
    );
}

fn derivation_depth(r: &Resolution) -> usize {
    1 + r
        .premises
        .iter()
        .map(|p| match p {
            implicit_core::resolve::Premise::Derived(d) => derivation_depth(d),
            implicit_core::resolve::Premise::Assumed { .. } => 0,
        })
        .max()
        .unwrap_or(0)
}

/// Sub-derivations cached by an earlier query short-circuit later
/// resolutions of *larger* queries that contain them.
#[test]
fn b12_subderivations_are_shared_across_queries() {
    let (env, q_full) = chain_env(12);
    let pol = policy();
    // Resolve the halfway link first: caches the lower half.
    let half_query = genprog::distinct_type(6).promote();
    let half = resolve(&env, &half_query, &pol).unwrap();
    let after_half = env.cache_counters();
    assert_eq!(after_half.misses as usize, half.steps());
    // The full chain only misses on the 6 links above the cached
    // half, then hits the cached half once.
    let full = resolve(&env, &q_full, &pol).unwrap();
    let after_full = env.cache_counters();
    assert_eq!(after_full.misses - after_half.misses, 6);
    assert_eq!(after_full.hits - after_half.hits, 1);
    assert_eq!(derivation_depth(&full), 13);
    assert!(verify_derivation(&env, &full));
}
