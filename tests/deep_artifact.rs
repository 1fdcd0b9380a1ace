//! `implicitc --cache-dir` on a checksum-valid artifact nested 200,000
//! levels deep in each recursive decoder: core types, rule types and
//! expressions, System F types, expressions and values, and opsem
//! values. Every decoder stops at `implicit_core::wire::MAX_DECODE_DEPTH`
//! with a decode error, so the store load is one counted fallback and a
//! cold build, single-shot (decoding on the main thread) and under
//! `--batch` (on a worker), where an unbounded decoder would overflow
//! the stack and abort the process.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use implicit_core::wire::{fnv64, Enc};
use systemf::wire::SfEnc;

const IMPLICITC: &str = env!("CARGO_BIN_EXE_implicitc");
const LEVELS: usize = 200_000;

/// Magic, version, content key, policy, ISA, knobs and fresh-symbol
/// watermark: the bytes before an artifact's prelude section.
const HEADER: usize = 38;

fn implicitc(args: &[&str], dir: &Path) -> Output {
    Command::new(IMPLICITC)
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run implicitc")
}

/// A batch directory with one program and no prelude, and its store
/// after a cold run: one artifact, of the empty prelude.
fn cold_store(tag: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("deep-artifact-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("batch")).unwrap();
    std::fs::write(dir.join("batch/p.imp"), "1 + 2\n").unwrap();
    let out = implicitc(&["--batch", "batch", "--cache-dir", "store"], &dir);
    assert!(out.status.success(), "{out:?}");
    let artifact = std::fs::read_dir(dir.join("store"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "iart"))
        .expect("the cold run saved an artifact");
    (dir, artifact)
}

/// `body` repeated `LEVELS` times between `prefix` and `leaf`.
fn nested(prefix: &[u8], body: &[u8], leaf: &[u8]) -> Vec<u8> {
    let mut out = prefix.to_vec();
    for _ in 0..LEVELS {
        out.extend_from_slice(body);
    }
    out.extend_from_slice(leaf);
    out
}

fn u64s(n: usize, v: u64) -> Vec<u8> {
    (0..n).flat_map(|_| v.to_le_bytes()).collect()
}

fn sym(name: &str) -> Vec<u8> {
    let mut e = Enc::new();
    e.sym(implicit_core::symbol::Symbol::intern(name));
    e.buf().to_vec()
}

/// The crafted payloads after the header, one per recursive decoder.
/// `sf` is the empty prelude's sections up to its System F globals
/// count; `op` its sections up to its opsem term environment.
fn payloads(sf: &[u8], op: &[u8]) -> Vec<(&'static str, Vec<u8>)> {
    // One `let x : τ = e` in the prelude section.
    let first_let = [u64s(1, 1), sym("x")].concat();
    let int_ty = [1u8, 1];
    let closure = |body: Vec<u8>| [sf, &u64s(1, 1), &[6], &sym("p")[..], &[1], &body].concat();
    vec![
        // Dec::ty — [[…[Int]…]]
        ("type", nested(&first_let, &[1, 7], &int_ty)),
        // Dec::rule — a rule type whose context nests rule types
        (
            "rule type",
            nested(
                &[&first_let[..], &[1, 12]].concat(),
                &[1, 0, 0, 0, 0, 1, 0, 0, 0],
                &[1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1],
            ),
        ),
        // Dec::expr — fst (fst (… x))
        (
            "expression",
            nested(&[&first_let[..], &int_ty].concat(), &[15], &[4]),
        ),
        // SfDec::value — a global (0, (0, …))
        (
            "System F value",
            nested(&[sf, &u64s(1, 1)].concat(), &[4, 1], &[0]),
        ),
        // SfDec::fexpr — a global closure whose body is fst (fst …)
        ("System F expression", closure(nested(&[], &[13, 1], &[3]))),
        // SfDec::ftype — a global closure `\p : [[…]]. …`
        (
            "System F type",
            closure(nested(&[&[5][..], &sym("q")].concat(), &[7], &[1])),
        ),
        // OpDec::value — a let bound to (0, (0, …)) in the opsem
        // environment
        (
            "opsem value",
            nested(
                &[op, &u64s(1, 1), &[0], &sym("x"), &[0]].concat(),
                &[4, 1],
                &[0],
            ),
        ),
    ]
}

fn with_checksum(mut body: Vec<u8>) -> Vec<u8> {
    let h = fnv64(&body);
    body.extend_from_slice(&h.to_le_bytes());
    body
}

#[test]
fn deep_artifacts_are_one_counted_fallback_not_an_abort() {
    let (dir, artifact) = cold_store("levels");
    let sound = std::fs::read(&artifact).unwrap();
    // The empty prelude's sections: six empty lists (prelude lets and
    // implicits, binders, context, evidence, binding metadata), the
    // compiled code, then the System F globals.
    let decoded = implicit_pipeline::artifact::decode(&sound).unwrap();
    let mut code = Enc::new();
    SfEnc::new(&mut code).code_parts(&decoded.code_parts);
    let sf_at = HEADER + 6 * 8 + code.buf().len();
    assert_eq!(&sound[HEADER..HEADER + 48], &u64s(6, 0)[..]);
    // After the globals: an empty System F environment (count, tail
    // tag), no dictionary binders or entries, an empty derivation
    // table and cache, then the opsem environment.
    let op_at = sf_at + 8 + 9 + 8 + 8 + 4 + 8;
    assert_eq!(&sound[sf_at..op_at], &[0u8; 45][..]);
    let header = &sound[..HEADER];
    let sf = &sound[HEADER..sf_at];
    let op = &sound[HEADER..op_at];

    for (class, payload) in payloads(sf, op) {
        let crafted = with_checksum([header, &payload].concat());
        std::fs::write(&artifact, &crafted).unwrap();
        let out = implicitc(&["--batch", "batch", "--cache-dir", "store"], &dir);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{class}: {out:?}");
        assert!(stdout.contains("p.imp: 3 : Int"), "{class}: {stdout}");
        assert!(
            stdout.contains("cache: exact=0 incremental=0 cold=1, fallbacks=1"),
            "{class}: {stdout}"
        );

        std::fs::write(&artifact, &crafted).unwrap();
        let out = implicitc(&["--cache-dir", "store", "-e", "1 + 2"], &dir);
        assert_eq!(out.status.code(), Some(0), "{class} (single-shot): {out:?}");
        assert_eq!(String::from_utf8_lossy(&out.stdout), "3 : Int\n", "{class}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("cache: cold build"),
            "{class}: {out:?}"
        );
        // The cold build wrote the sound artifact back.
        assert_eq!(std::fs::read(&artifact).unwrap(), sound, "{class}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
