//! Pins on the outputs through which derivations reach users:
//! `implicitc --emit explain` (the derivation text, with scope numbers
//! counted from the innermost frame) and the `--metrics` tables (with
//! their derivation-cache hit and miss counts), on every example that
//! queries and on programs whose cached derivations are hit again
//! under deeper scopes. `tests/pins/derivation_outputs.txt` holds the
//! expected stdout of each case, one `== <case>` section each.
//!
//! `--emit explain` resolves under `--policy`, as evaluation does.

use std::path::Path;
use std::process::Command;

const IMPLICITC: &str = env!("CARGO_BIN_EXE_implicitc");

/// `(case, implicitc arguments)`, in the order of the expected file.
fn cases() -> Vec<(String, Vec<&'static str>)> {
    let programs = [
        "examples/trace/t1_query.imp",
        "examples/trace/t2_recursive.imp",
        "examples/trace/t3_scoped.imp",
        "tests/pins/batch_p1.imp",
        "tests/pins/batch_p2.imp",
        "tests/pins/batch_p3.imp",
        "tests/pins/batch_p4.imp",
        "tests/pins/cross_depth.imp",
        "tests/pins/chain3_scoped.imp",
    ];
    let mut cases = Vec::new();
    for p in programs {
        cases.push((format!("explain {p}"), vec!["--emit", "explain", p]));
    }
    for backend in ["tree", "vm"] {
        for p in programs {
            cases.push((
                format!("metrics {backend} {p}"),
                vec!["--metrics", "--backend", backend, p],
            ));
        }
        cases.push((
            format!("metrics {backend} --batch examples/batch"),
            vec![
                "--batch",
                "examples/batch",
                "--jobs",
                "1",
                "--metrics",
                "--backend",
                backend,
            ],
        ));
    }
    cases
}

#[test]
fn explain_and_metrics_outputs_are_pinned() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(root.join("tests/pins/derivation_outputs.txt"))
        .expect("read the pinned outputs");
    let mut sections = want.split("== ").skip(1);
    for (case, args) in cases() {
        let out = Command::new(IMPLICITC)
            .args(&args)
            .current_dir(root)
            .output()
            .expect("run implicitc");
        assert!(out.status.success(), "{case}: {out:?}");
        let got = format!("{case}\n{}", String::from_utf8(out.stdout).unwrap());
        let section = sections
            .next()
            .unwrap_or_else(|| panic!("no pin for {case}"));
        assert_eq!(got, section, "{case}");
    }
    assert!(sections.next().is_none(), "pins without a case");
}

#[test]
fn explain_resolves_under_the_chosen_policy() {
    // A polymorphic identity and an exact `Int -> Int` rule in one
    // frame: the paper policy rejects the overlap, and most-specific
    // picks the exact rule, in evaluation and in its explanation.
    let program = "implicit {rule (forall a. a -> a) (\\x : a. x) : forall a. a -> a, \
                   (\\x : Int. x + 1) : Int -> Int} in ?(Int -> Int) 1 : Int";
    let run = |emit: &str| {
        let out = Command::new(IMPLICITC)
            .args(["--policy", "most-specific", "--emit", emit, "-e", program])
            .output()
            .expect("run implicitc");
        assert!(out.status.success(), "{emit}: {out:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    assert_eq!(run("value"), "2 : Int\n");
    let explain = run("explain");
    assert!(
        explain.starts_with("Int -> Int  ⇐ rule #0 of scope 0\n"),
        "{explain}"
    );
}
