//! Backend-agreement differential test: for generated λ⇒ programs,
//! the bytecode VM, the tree-walking System F evaluator, and the
//! direct operational semantics must compute the same value — under
//! every resolution policy, since each policy may elaborate to a
//! *different* System F term (different evidence), and the VM has to
//! agree with the tree-walker on whichever term it is handed. The VM
//! runs the compiled code after a trip through the artifact wire
//! format, whose decoder bounds-checks every operand: it must accept
//! everything the compiler emits.

use implicit_core::resolve::ResolutionPolicy;
use implicit_core::wire::{Dec, Enc};
use implicit_opsem::Interpreter;
use systemf::wire::{SfDec, SfEnc};
use systemf::{Compiler, Vm};

const PROGRAMS: usize = 1000;

/// The four policies the pipeline exposes.
fn policies() -> [(&'static str, ResolutionPolicy); 4] {
    [
        ("paper", ResolutionPolicy::paper()),
        ("paper-nocache", ResolutionPolicy::paper().without_cache()),
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

#[test]
fn vm_agrees_with_tree_walk_and_opsem_under_all_policies() {
    // The tree-walker and elaborator recurse on the host stack, so
    // mirror the pipeline driver's worker stack here; the VM itself
    // needs none of it (see `vm_deep.rs`).
    std::thread::Builder::new()
        .stack_size(64 * 1024 * 1024)
        .spawn(body)
        .expect("spawn")
        .join()
        .expect("agreement test thread");
}

fn body() {
    let decls = genprog::data_prelude();
    let mut r = genprog::rng(0xB14_CAFE);
    let cfg = genprog::GenConfig::default();
    for i in 0..PROGRAMS {
        let p = genprog::gen_program_with(&mut r, &cfg, &decls);
        for (name, policy) in &policies() {
            let out = implicit_elab::run_with(&decls, &p.expr, policy)
                .unwrap_or_else(|e| panic!("program {i} [{name}]: elaboration leg failed: {e}"));
            let tree = out.value.to_string();

            let mut compiler = Compiler::new();
            let main = compiler
                .compile(&out.target)
                .unwrap_or_else(|e| panic!("program {i} [{name}]: compile failed: {e}"));
            let mut enc = Enc::new();
            SfEnc::new(&mut enc).code_parts(&compiler.export_parts(&compiler.snapshot()));
            let bytes = enc.finish();
            let mut dec = Dec::new(&bytes).expect("checksum");
            let parts = SfDec::new(&mut dec).code_parts().unwrap_or_else(|e| {
                panic!(
                    "program {i} [{name}]: decoder rejected compiled code: {e}\n{}",
                    p.expr
                )
            });
            let vm = Vm::new()
                .run(Compiler::from_parts(parts).code(), main, &[])
                .unwrap_or_else(|e| panic!("program {i} [{name}]: vm failed: {e}\n{}", p.expr));
            assert_eq!(
                vm.to_string(),
                tree,
                "program {i} [{name}]: vm vs tree-walk on\n{}",
                p.expr
            );

            let opsem = Interpreter::new(&decls)
                .with_policy(policy.clone())
                .eval(&p.expr)
                .unwrap_or_else(|e| panic!("program {i} [{name}]: opsem failed: {e}\n{}", p.expr));
            assert_eq!(
                opsem.to_string(),
                tree,
                "program {i} [{name}]: opsem vs elaboration on\n{}",
                p.expr
            );
        }
    }
}
