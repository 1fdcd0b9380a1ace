//! The fifth-engine agreement property: the intersection-subtyping
//! resolver ([`implicit_core::subtyping`]) must agree with the logic
//! resolver at every query site of 1000 generated programs, under all
//! four resolution policies — same successes (identical evidence
//! after the `MpStep` → `Resolution` conversion), same failures
//! (equal error values).

use implicit_core::resolve::{resolve, ResolutionPolicy};
use implicit_core::subtyping::{cross_check, subtype_resolve, walk_query_sites};

/// All four policy variants, at a depth ample enough that the logic
/// resolver's fuel-conserving derivation cache cannot make the two
/// engines diverge on fuel accounting.
fn policies() -> [(&'static str, ResolutionPolicy); 4] {
    let depth = 4096;
    [
        ("paper", ResolutionPolicy::paper().with_max_depth(depth)),
        (
            "paper-nocache",
            ResolutionPolicy::paper()
                .without_cache()
                .with_max_depth(depth),
        ),
        (
            "most-specific",
            ResolutionPolicy::paper()
                .with_most_specific()
                .with_max_depth(depth),
        ),
        (
            "env-extension",
            ResolutionPolicy::paper()
                .with_env_extension()
                .with_max_depth(depth),
        ),
    ]
}

#[test]
fn subtyping_engine_agrees_on_1000_generated_programs() {
    let decls = genprog::data_prelude();
    let mut r = genprog::rng(0x5B7E);
    let gen = genprog::GenConfig::default();
    let mut sites = 0u64;
    for i in 0..1000 {
        let p = genprog::gen_program_with(&mut r, &gen, &decls);
        walk_query_sites(&p.expr, &mut |env, query| {
            sites += 1;
            for (pname, policy) in policies() {
                if let Err(detail) = cross_check(env, query, &policy) {
                    panic!(
                        "program {i} [{pname}] query `{query}`: {detail}\n{}",
                        p.expr
                    );
                }
            }
        });
    }
    // The generator emits queries liberally; a silent walker would
    // make this test vacuous.
    assert!(sites > 1000, "only {sites} query sites in 1000 programs");
}

#[test]
fn subtyping_engine_agrees_on_synthetic_workload_families() {
    // The same four-policy agreement over the seeded env-level
    // workload families (chains, wide frames, deep stacks, poly
    // decoys, partial resolution, higher-kinded constructors).
    for seed in 0..200u64 {
        let n = 1 + (seed / 7) as usize % 24;
        let (family, env, query) = match seed % 7 {
            0 => ("chain", genprog::chain_env(n).0, genprog::chain_env(n).1),
            1 => {
                let (e, q) = genprog::wide_env(n * 4, (seed % 5) as f64 / 4.0);
                ("wide", e, q)
            }
            2 => {
                let (e, q) = genprog::deep_stack_env(n * 2);
                ("deep_stack", e, q)
            }
            3 => {
                let (e, q) = genprog::poly_env(n);
                ("poly", e, q)
            }
            4 => {
                let (e, q) = genprog::poly_wide_env(n);
                ("poly_wide", e, q)
            }
            5 => {
                let (e, q) = genprog::partial_env(n.min(12), n.min(12) / 2);
                ("partial", e, q)
            }
            _ => {
                let (e, q) = genprog::hk_nested_env(n.min(12));
                ("hk_nested", e, q)
            }
        };
        for (pname, policy) in policies() {
            if let Err(detail) = cross_check(&env, &query, &policy) {
                panic!("seed {seed} [{family}/{pname}]: {detail}");
            }
        }
    }
}

#[test]
fn evidence_shape_matches_exactly_not_just_success() {
    // Spot-check that agreement is structural: the subtyping proof
    // converts into the logic resolver's very derivation — same rule
    // references, same instantiations, same premise tree.
    let policy = ResolutionPolicy::paper().with_max_depth(4096);
    for n in [1usize, 4, 9] {
        let (env, q) = genprog::partial_env(n + 2, n);
        let logic = resolve(&env, &q, &policy).expect("workload resolves");
        let sub = subtype_resolve(&env, &q, &policy).expect("subtyping resolves");
        let converted = sub.to_resolution(env.depth());
        assert_eq!(*logic, converted, "partial_env({}, {n})", n + 2);
        assert_eq!(logic.steps(), sub.steps());
    }
}
