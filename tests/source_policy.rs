//! `implicitc` on source-language programs type-checks their λ⇒
//! encoding once, under `--policy` (and `--strict`): the front end no
//! longer checks it first under the paper's policy, which made
//! `--policy` unreachable for any program the paper's policy rejects.

use std::process::{Command, Output};

const IMPLICITC: &str = env!("CARGO_BIN_EXE_implicitc");

/// `show 3`, where `show`'s query `Int -> String` sees an exact rule
/// and a polymorphic one in the same scope.
const OVERLAP: &str = "let show : forall a. {a -> String} => a -> String = ? in\n\
                       let showInt' : Int -> String = \\n. showInt n in\n\
                       let showAny : forall a. a -> String = \\x. \"any\" in\n\
                       implicit {showInt', showAny} in show 3\n";

fn run(policy: &[&str]) -> Output {
    Command::new(IMPLICITC)
        .args(policy)
        .args(["--lang", "source", "-e", OVERLAP])
        .output()
        .expect("run implicitc")
}

#[test]
fn most_specific_resolves_the_overlap_in_both_semantics() {
    let out = run(&["--policy", "most-specific"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), "\"3\" : String\n");
}

#[test]
fn the_paper_policy_reports_the_overlap() {
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "implicitc: cannot resolve `Int -> String`: overlapping rules for `Int -> String`: \
         `Int -> String`, `forall a. a -> String`\n"
    );
}
