//! `implicitc --batch` end to end: a prelude that cannot be parsed or
//! built is reported once, on one stderr line, before any program runs
//! and before anything is saved to the artifact store — whatever the
//! worker count, with or without `--cache-dir`. Each worker parses and
//! builds the prelude itself, so this pins that the workers' errors
//! collapse to the one line a single up-front check would print. An
//! option value that does not exist is refused before any of that.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const IMPLICITC: &str = env!("CARGO_BIN_EXE_implicitc");

/// A fresh batch directory under the system temp dir holding
/// `prelude` and two small programs.
fn batch_dir(name: &str, prelude: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("batch-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("prelude.imp"), prelude).unwrap();
    std::fs::write(dir.join("p1.imp"), "?(Int) + 1\n").unwrap();
    std::fs::write(dir.join("p2.imp"), "2 + 3\n").unwrap();
    dir
}

fn run_batch(dir: &Path, jobs: usize, store: Option<&Path>) -> Output {
    let mut cmd = Command::new(IMPLICITC);
    cmd.arg("--batch")
        .arg(dir)
        .arg("--jobs")
        .arg(jobs.to_string());
    if let Some(store) = store {
        cmd.arg("--cache-dir").arg(store);
    }
    cmd.output().expect("run implicitc")
}

fn artifacts_in(store: &Path) -> Vec<PathBuf> {
    match std::fs::read_dir(store) {
        Ok(entries) => entries
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "iart"))
            .collect(),
        Err(_) => Vec::new(),
    }
}

fn assert_prelude_error(name: &str, prelude: &str, want: &str) {
    let dir = batch_dir(name, prelude);
    for jobs in [1, 2] {
        for cached in [false, true] {
            let store = dir.join("store");
            let out = run_batch(&dir, jobs, cached.then_some(store.as_path()));
            let stderr = String::from_utf8_lossy(&out.stderr);
            let case = format!("{name}, --jobs {jobs}, cache {cached}");
            assert_eq!(stderr.lines().collect::<Vec<_>>(), [want], "{case}");
            assert_eq!(String::from_utf8_lossy(&out.stdout), "", "{case}");
            assert_eq!(out.status.code(), Some(1), "{case}");
            assert_eq!(artifacts_in(&store), Vec::<PathBuf>::new(), "{case}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn prelude_parse_error_is_reported_once() {
    assert_prelude_error(
        "parse",
        "let base : Int = in\nunit\n",
        "implicitc: prelude: parse error at 1:18: unexpected keyword `in`",
    );
}

#[test]
fn prelude_declaration_error_is_reported_once() {
    // Reading the declarations alone fails here, with the whole
    // parse's error.
    assert_prelude_error(
        "declaration",
        "interface A = { x : Int }\ninterface A = { y : Int }\nunit\n",
        "implicitc: prelude: parse error at 2:1: type `A` is already declared",
    );
}

#[test]
fn prelude_let_type_mismatch_is_reported_once() {
    assert_prelude_error(
        "let-mismatch",
        "let base : Int = true in\nunit\n",
        "implicitc: prelude: prelude rejected: let `base` declared `Int` \
         but its binding has type `Bool`",
    );
}

#[test]
fn failing_implicit_binding_is_reported_once() {
    assert_prelude_error(
        "implicit-fails",
        "let base : Int = 40 in\nimplicit {base / 0 : Int} in unit : Unit\n",
        "implicitc: prelude: prelude failed: division by zero",
    );
}

#[test]
fn valid_prelude_runs_every_program() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/batch");
    for jobs in [1, 2] {
        let out = run_batch(&dir, jobs, None);
        assert!(out.status.success(), "--jobs {jobs}: {out:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            format!(
                "p1_query.imp: 42 : Int\n\
                 p2_pair.imp: (42, 43) : Int * Int\n\
                 p3_project.imp: 85 : Int\n\
                 p4_let.imp: 84 : Int\n\
                 batch: 4 programs, 0 failed (jobs={jobs})\n"
            )
        );
    }
    let out = Command::new(IMPLICITC)
        .args(["--backend", "vm-stack", "--batch"])
        .arg(&dir)
        .output()
        .expect("run implicitc");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "--backend: expected tree|vm\n"
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout), "");
}
