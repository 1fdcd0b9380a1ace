//! Warm/cold equivalence property: a warm [`Session`] must produce
//! the same values, types, errors, and resolution derivations as a
//! cold per-program pipeline run of the sugared equivalent
//! `let x̄ = ē in implicit {…} in program`, under every resolution
//! policy.
//!
//! Gensym counters advance differently warm vs cold (the warm session
//! elaborates the prelude once, the cold run re-elaborates it per
//! program), so evidence-variable *names* differ; values print
//! name-free and errors are compared with digits stripped.
//!
//! A *restarted* leg builds a session, serializes it to an artifact,
//! drops it, and rehydrates it via [`Session::from_artifact`]; the
//! rehydrated session must be observationally equal to the
//! same-process warm session (and hence to cold) on every program, on
//! both the compiled and opsem legs.

use genprog::{data_prelude, gen_program_with, rng, GenConfig};
use implicit_core::resolve::{resolve, ResolutionPolicy};
use implicit_core::syntax::Expr;
use implicit_core::ImplicitEnv;
use implicit_opsem::Interpreter;
use implicit_pipeline::{Prelude, Session};

/// Strips decimal digits so gensym suffixes (`ev17`, `a42`) compare
/// equal across warm and cold runs.
fn normalize(s: &str) -> String {
    s.chars().filter(|c| !c.is_ascii_digit()).collect()
}

fn policies() -> Vec<(&'static str, ResolutionPolicy)> {
    vec![
        ("paper", ResolutionPolicy::paper()),
        ("no-cache", ResolutionPolicy::paper().without_cache()),
        (
            "most-specific",
            ResolutionPolicy::paper().with_most_specific(),
        ),
        (
            "env-extension",
            ResolutionPolicy::paper().with_env_extension(),
        ),
    ]
}

const SEEDS_PER_POLICY: u64 = 250;
const CHAIN: usize = 6;

#[test]
fn warm_session_is_observationally_equal_to_cold_runs() {
    let decls = data_prelude();
    let config = GenConfig::default();
    let prelude = Prelude::chain(CHAIN);
    let mut checked = 0u64;

    for (pname, policy) in policies() {
        let mut sess = Session::new(&decls, policy.clone(), &prelude)
            .unwrap_or_else(|e| panic!("[{pname}] prelude failed: {e}"));
        // Compiled-backend legs, one per optimization configuration:
        // superinstructions + dictionary IC, superinstructions only
        // (the default), and plain unfused bytecode. All three must be
        // observationally equal to the warm tree walker.
        let mut vm_ic = Session::new_configured(&decls, policy.clone(), &prelude, true, true)
            .unwrap_or_else(|e| panic!("[{pname}] prelude failed: {e}"));
        let mut vm_plain = Session::new(&decls, policy.clone(), &prelude)
            .unwrap_or_else(|e| panic!("[{pname}] prelude failed: {e}"));
        let mut vm_nofuse = Session::new_configured(&decls, policy.clone(), &prelude, false, false)
            .unwrap_or_else(|e| panic!("[{pname}] prelude failed: {e}"));
        // Restarted leg: serialize → drop → rehydrate. The builder
        // session is dropped before rehydration, so the restarted
        // session shares no in-memory state with it.
        let restart_bytes = {
            let mut b = Session::new(&decls, policy.clone(), &prelude)
                .unwrap_or_else(|e| panic!("[{pname}] prelude failed: {e}"));
            b.to_artifact()
        };
        let mut restarted =
            Session::from_artifact(&decls, &policy, &prelude, true, false, &restart_bytes)
                .unwrap_or_else(|e| panic!("[{pname}] rehydration failed: {e}"));
        for seed in 0..SEEDS_PER_POLICY {
            let mut r = rng(0xC0FFEE ^ seed);
            let prog = gen_program_with(&mut r, &config, &decls);
            let wrapped = prelude.wrap(prog.expr.clone(), prog.ty.clone());

            // Elaboration pipeline: warm vs cold.
            let warm = sess.run(&prog.expr);
            let cold = implicit_elab::run_with(&decls, &wrapped, &policy);
            match (&warm, &cold) {
                (Ok(w), Ok(c)) => {
                    assert_eq!(
                        w.value.to_string(),
                        c.value.to_string(),
                        "[{pname}/{seed}] value mismatch on {}",
                        prog.expr
                    );
                    assert_eq!(
                        w.source_type.to_string(),
                        c.source_type.to_string(),
                        "[{pname}/{seed}] source type mismatch"
                    );
                    assert_eq!(
                        w.target_type.to_string(),
                        c.target_type.to_string(),
                        "[{pname}/{seed}] target type mismatch"
                    );
                }
                (Err(we), Err(ce)) => {
                    assert_eq!(
                        normalize(&we.to_string()),
                        normalize(&ce.to_string()),
                        "[{pname}/{seed}] error mismatch on {}",
                        prog.expr
                    );
                }
                (w, c) => panic!(
                    "[{pname}/{seed}] warm {:?} vs cold {:?} on {}",
                    w.as_ref().map(|o| o.value.to_string()),
                    c.as_ref().map(|o| o.value.to_string()),
                    prog.expr
                ),
            }

            // Operational-semantics leg: warm session interpreter
            // (persistent memo) vs a cold interpreter on the sugared
            // program.
            let warm_op = sess.run_opsem(&prog.expr);
            let cold_op = Interpreter::new(&decls)
                .with_policy(policy.clone())
                .eval(&wrapped);
            match (&warm_op, &cold_op) {
                (Ok(w), Ok(c)) => assert_eq!(
                    w.to_string(),
                    c.to_string(),
                    "[{pname}/{seed}] opsem value mismatch on {}",
                    prog.expr
                ),
                (Err(we), Err(ce)) => assert_eq!(
                    normalize(&we.to_string()),
                    normalize(&ce.to_string()),
                    "[{pname}/{seed}] opsem error mismatch on {}",
                    prog.expr
                ),
                (w, c) => panic!(
                    "[{pname}/{seed}] opsem warm {:?} vs cold {:?} on {}",
                    w.as_ref().map(|v| v.to_string()),
                    c.as_ref().map(|v| v.to_string()),
                    prog.expr
                ),
            }
            // Restarted opsem leg: the rehydrated interpreter (with
            // its imported memo roots) must agree with the warm one.
            let restart_op = restarted.run_opsem(&prog.expr);
            match (&warm_op, &restart_op) {
                (Ok(w), Ok(r)) => assert_eq!(
                    w.to_string(),
                    r.to_string(),
                    "[{pname}/{seed}] restarted opsem value mismatch on {}",
                    prog.expr
                ),
                (Err(we), Err(re)) => assert_eq!(
                    normalize(&we.to_string()),
                    normalize(&re.to_string()),
                    "[{pname}/{seed}] restarted opsem error mismatch on {}",
                    prog.expr
                ),
                (w, r) => panic!(
                    "[{pname}/{seed}] opsem warm {:?} vs restarted {:?} on {}",
                    w.as_ref().map(|v| v.to_string()),
                    r.as_ref().map(|v| v.to_string()),
                    prog.expr
                ),
            }
            // Compiled legs: every optimization configuration of the
            // bytecode backend must match the warm tree-walk outcome.
            let legs = [
                ("vm+ic", vm_ic.run_compiled(&prog.expr)),
                ("vm", vm_plain.run_compiled(&prog.expr)),
                ("vm-nofuse", vm_nofuse.run_compiled(&prog.expr)),
                ("restarted", restarted.run_compiled(&prog.expr)),
            ];
            match &warm {
                Ok(w) => {
                    for (lname, leg) in &legs {
                        let l = leg.as_ref().unwrap_or_else(|e| {
                            panic!(
                                "[{pname}/{seed}] {lname} errored `{e}` where the \
                                 tree walker succeeded on {}",
                                prog.expr
                            )
                        });
                        assert_eq!(
                            l.value.to_string(),
                            w.value.to_string(),
                            "[{pname}/{seed}] {lname} value mismatch on {}",
                            prog.expr
                        );
                        assert_eq!(
                            l.source_type.to_string(),
                            w.source_type.to_string(),
                            "[{pname}/{seed}] {lname} source type mismatch"
                        );
                    }
                }
                Err(_) => {
                    // Backend error *text* may differ tree vs VM, but
                    // every compiled leg must fail alike.
                    let msgs: Vec<String> = legs
                        .iter()
                        .map(|(lname, leg)| match leg {
                            Err(e) => normalize(&e.to_string()),
                            Ok(o) => panic!(
                                "[{pname}/{seed}] {lname} produced {} where the \
                                 tree walker errored on {}",
                                o.value, prog.expr
                            ),
                        })
                        .collect();
                    assert!(
                        msgs.windows(2).all(|w| w[0] == w[1]),
                        "[{pname}/{seed}] compiled legs disagree on the error: {msgs:?}"
                    );
                }
            }
            checked += 1;
        }

        // The IC leg must have genuinely exercised the dictionary
        // cache: a repeated ground prelude query hits.
        let probe = Expr::binop(
            implicit_core::syntax::BinOp::Add,
            Expr::Snd(Expr::query_simple(Prelude::chain_head(CHAIN)).into()),
            Expr::Int(7),
        );
        vm_ic
            .run_compiled(&probe)
            .unwrap_or_else(|e| panic!("[{pname}] probe failed: {e}"));
        let hits_before = vm_ic.dict_counters().0;
        vm_ic.run_compiled(&probe).unwrap();
        assert!(
            vm_ic.dict_counters().0 > hits_before,
            "[{pname}] dictionary IC never hit on a repeated ground query"
        );

        // Derivation leg: ground prelude queries resolved against the
        // warm environment (cache and all) must produce exactly the
        // derivation a freshly built environment produces.
        let mut cold_env = ImplicitEnv::new();
        for rho in sess.context() {
            cold_env.push(vec![rho.clone()]);
        }
        for depth in 0..=CHAIN {
            let q = Prelude::chain_head(depth).promote();
            let warm_d = resolve(sess.env(), &q, &policy);
            let cold_d = resolve(&cold_env, &q, &policy);
            match (&warm_d, &cold_d) {
                (Ok(w), Ok(c)) => assert_eq!(
                    w,
                    c,
                    "[{pname}] derivation for ?{} differs warm vs cold",
                    Prelude::chain_head(depth)
                ),
                (Err(_), Err(_)) => {}
                _ => panic!("[{pname}] derivation outcome differs for depth {depth}"),
            }
        }
    }

    assert!(
        checked >= 1000,
        "property must cover at least 1000 programs, covered {checked}"
    );

    // The warm sessions must actually have been warm: re-running a
    // prelude query in a fresh session shows cross-program cache hits.
    let mut sess = Session::new(&decls, ResolutionPolicy::paper(), &prelude).unwrap();
    let q = Expr::binop(
        implicit_core::syntax::BinOp::Add,
        Expr::Snd(Expr::query_simple(Prelude::chain_head(CHAIN)).into()),
        Expr::Int(1),
    );
    sess.run(&q).unwrap();
    let first = sess.cache_counters();
    sess.run(&q).unwrap();
    let second = sess.cache_counters();
    assert!(
        second.hits > first.hits,
        "prelude-level queries must hit the warm cache on the 2nd program"
    );
}
