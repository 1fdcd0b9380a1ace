//! `implicitc` on deeply nested text: both parsers stop at
//! `implicit_core::parse::MAX_NESTING` levels with one parse error,
//! before building anything deeper, where an unbounded parser would
//! overflow the main thread's stack and abort the process.

use std::process::Command;

const IMPLICITC: &str = env!("CARGO_BIN_EXE_implicitc");

#[test]
fn a_hundred_thousand_nested_parentheses_are_one_parse_error() {
    let n = 100_000;
    let dir = std::env::temp_dir().join(format!("deep-input-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (file, error) in [
        ("deep.imp", "parse error"),
        ("deep.si", "source parse error"),
    ] {
        let path = dir.join(file);
        std::fs::write(&path, format!("{}1{}", "(".repeat(n), ")".repeat(n))).unwrap();
        let out = Command::new(IMPLICITC)
            .arg(&path)
            .output()
            .expect("run implicitc");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            stderr.lines().collect::<Vec<_>>(),
            [format!(
                "implicitc: {error} at 1:1025: nesting deeper than 1024"
            )],
            "{file}"
        );
        assert_eq!(out.status.code(), Some(1), "{file}");
        assert!(out.stdout.is_empty(), "{file}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tracecheck_reports_two_hundred_thousand_open_brackets_as_invalid() {
    let path = std::env::temp_dir().join(format!("deep-trace-{}.json", std::process::id()));
    std::fs::write(&path, "[".repeat(200_000)).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_tracecheck"))
        .arg(&path)
        .output()
        .expect("run tracecheck");
    let _ = std::fs::remove_file(&path);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout: {stdout}");
    assert!(stdout.contains(": INVALID: "), "stdout: {stdout}");
}
