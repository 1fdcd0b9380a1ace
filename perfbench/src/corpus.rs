//! Seeded workload inputs and their reference outputs.
//!
//! Every generator here is a pure function of the seed, so the same
//! seed writes byte-identical files. Reference outputs never come from
//! the path under test: source programs get theirs from the formatters
//! below, chain and loop programs from the closed form `depth + j`,
//! and generated core programs from an in-process run of the
//! operational semantics (`Interpreter::eval`), which `implicitc`
//! checks its elaborated result against but does not print.

use std::path::Path;

use genprog::{gen_program, rng, GenConfig};
use implicit_bench::{
    batch_program, eq_source_program, perfect_source_program, show_source_program, vm_batch_program,
};
use implicit_core::symbol::Symbol;
use implicit_core::syntax::{BinOp, Expr, Type};
use implicit_pipeline::service::prelude_source;
use implicit_pipeline::Prelude;
use rand::rngs::StdRng;
use rand::RngCore;

/// One input file and the line `implicitc` must print for it
/// (`value : type`).
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    /// File name, extension included (`.si` source, `.imp` core).
    pub name: String,
    /// File contents.
    pub source: String,
    /// Expected `value : type` output.
    pub expected: String,
}

/// Chain depth of the warm-batch and restart preludes.
pub const BATCH_DEPTH: usize = 48;
/// Loop iterations of a warm-batch or restart loop program.
pub const BATCH_ITERS: i64 = 2000;
/// Chain depth of the daemon's prelude tenants.
pub const DAEMON_DEPTH: usize = 12;
/// Loop iterations of a daemon loop request.
pub const DAEMON_ITERS: i64 = 200;

/// `n` quantiles evenly spaced over `[0, 1]`, both ends included, in an
/// order shuffled by `r`. Every seed gets the same sizes, so the
/// largest program (which sets the peak memory) and the share of large
/// ones are the same for all seeds; the seed decides their order.
fn shuffled_grid(r: &mut StdRng, n: usize) -> Vec<f64> {
    let mut u: Vec<f64> = (0..n)
        .map(|k| k as f64 / n.saturating_sub(1).max(1) as f64)
        .collect();
    for i in (1..n).rev() {
        u.swap(i, (r.next_u64() % (i as u64 + 1)) as usize);
    }
    u
}

/// Log-uniform integer in `[lo, hi]` at quantile `u`.
fn log_uniform(lo: usize, hi: usize, u: f64) -> usize {
    let (a, b) = ((lo as f64).ln(), (hi as f64).ln());
    ((a + u * (b - a)).exp().round() as usize).clamp(lo, hi)
}

/// Uniform integer in `[lo, hi]` at quantile `u`.
fn uniform(lo: usize, hi: usize, u: f64) -> usize {
    (lo + (u * (hi - lo + 1) as f64) as usize).min(hi)
}

/// The expected output of [`show_source_program`]`(n)`.
pub fn show_expected(n: usize) -> String {
    let items: Vec<String> = (1..=n.max(1)).map(|i| i.to_string()).collect();
    format!("\"{}\" : String", items.join(","))
}

/// The expected output of [`perfect_source_program`]`(depth)`: level
/// `k` of the spine holds a complete binary tree of `2^k` integers,
/// numbered left to right across the whole spine, printed as nested
/// `<front,back>` pairs.
pub fn perfect_expected(depth: usize) -> String {
    fn tree(d: usize, next: &mut u64) -> String {
        if d == 0 {
            *next += 1;
            (*next - 1).to_string()
        } else {
            let front = tree(d - 1, next);
            let back = tree(d - 1, next);
            format!("<{front},{back}>")
        }
    }
    let mut next = 1;
    let mut parts: Vec<String> = (0..depth).map(|k| tree(k, &mut next)).collect();
    parts.push("Nil".to_owned());
    format!("\"{}\" : String", parts.join(" :: "))
}

/// Draws generated core programs that print and parse back to the
/// same tree and whose operational-semantics run succeeds, paired
/// with that run's `value : type`.
pub struct GenStream {
    rng: StdRng,
    config: GenConfig,
}

impl GenStream {
    /// A stream seeded by `seed` (streams for different purposes pass
    /// different seeds so they never share programs).
    pub fn new(seed: u64) -> GenStream {
        GenStream {
            rng: rng(seed),
            config: GenConfig::default(),
        }
    }

    /// The next accepted program, as `(printed source, expected)`.
    pub fn next_program(&mut self) -> (String, String) {
        loop {
            let g = gen_program(&mut self.rng, &self.config);
            let printed = g.expr.to_string();
            let reparsed = implicit_core::parse::parse_program(&printed);
            let roundtrips = matches!(&reparsed, Ok((d, e)) if d.is_empty() && *e == g.expr);
            if !roundtrips {
                continue;
            }
            let decls = implicit_core::syntax::Declarations::new();
            if let Ok(v) = implicit_opsem::eval(&decls, &g.expr) {
                return (printed, format!("{v} : {}", g.ty));
            }
        }
    }
}

/// The cold-cli corpus: `count` programs in a fixed rotation of six
/// slots, three source (`eq`, `show`, `perfect`) and three generated
/// core programs, so every prefix is half source and half core. Source
/// sizes are a [`shuffled_grid`] over each range: `eq` nesting
/// d ∈ [2, 8], `show` length n ∈ [20, 800] log-uniform, `perfect`
/// depth d ∈ [3, 9] (size 2^d, so log-uniform in size).
pub fn cold_cli(seed: u64, count: usize) -> Vec<Program> {
    let mut r = rng(seed);
    // Slot `s` of the rotation holds this many of the `count` programs.
    let mut grid = |slot: usize| shuffled_grid(&mut r, (count + 5 - slot) / 6);
    let sizes = [grid(0), grid(2), grid(4)];
    let mut gen = GenStream::new(seed ^ 0x0C01_DC11);
    (0..count)
        .map(|i| {
            let k = i / 6;
            let (source, expected, ext) = match i % 6 {
                0 => {
                    let d = uniform(2, 8, sizes[0][k]);
                    (eq_source_program(d), "true : Bool".to_owned(), "si")
                }
                2 => {
                    let n = log_uniform(20, 800, sizes[1][k]);
                    (show_source_program(n), show_expected(n), "si")
                }
                4 => {
                    let d = uniform(3, 9, sizes[2][k]);
                    (perfect_source_program(d), perfect_expected(d), "si")
                }
                _ => {
                    let (src, expected) = gen.next_program();
                    (src, expected, "imp")
                }
            };
            Program {
                name: format!("p{i:05}.{ext}"),
                source,
                expected,
            }
        })
        .collect()
}

/// `e + base`: a program that reads the restart prelude's `let`.
fn plus_base(e: Expr) -> Expr {
    Expr::binop(BinOp::Add, e, Expr::var(Symbol::intern("base")))
}

/// Prints a chain or loop program and checks that it parses back to
/// the same tree (the CLI and the daemon only ever see the text).
fn printed(e: &Expr) -> String {
    let text = e.to_string();
    let back = implicit_core::parse::parse_expr(&text)
        .unwrap_or_else(|err| panic!("generated program `{text}` does not parse: {err}"));
    assert!(&back == e, "generated program `{text}` does not round-trip");
    text
}

/// The warm-batch directory: the chain-48 prelude plus `count`
/// programs in a rotation of three — a chain query (`batch_program`,
/// a derivation-cache hit after the first), a VM-bound loop
/// (`vm_batch_program` with 2000 iterations), and a generated program
/// (fresh shapes, nothing shared).
pub fn warm_batch(seed: u64, count: usize) -> (String, Vec<Program>) {
    let mut r = rng(seed);
    let mut gen = GenStream::new(seed ^ 0x000B_A7C4);
    let programs = (0..count)
        .map(|i| {
            let j = (r.next_u64() % 1000) as i64;
            let chain_expected = format!("{} : Int", BATCH_DEPTH as i64 + j);
            let (source, expected) = match i % 3 {
                0 => (printed(&batch_program(BATCH_DEPTH, j)), chain_expected),
                1 => (
                    printed(&vm_batch_program(BATCH_DEPTH, BATCH_ITERS, j)),
                    chain_expected,
                ),
                _ => gen.next_program(),
            };
            Program {
                name: format!("p{i:04}.imp"),
                source,
                expected,
            }
        })
        .collect();
    (prelude_source(&Prelude::chain(BATCH_DEPTH)), programs)
}

/// The restart prelude `let base : Int = k in <chain-48>` as source.
pub fn restart_prelude(k: i64) -> String {
    let mut p = Prelude::chain(BATCH_DEPTH);
    p.lets
        .push((Symbol::intern("base"), Type::Int, Expr::Int(k)));
    prelude_source(&p)
}

/// The restart batch under prelude `k`: eight programs alternating a
/// chain query and a loop, each adding the prelude's `base`, so an
/// edit of `k` changes every expected answer. The sources depend on
/// the seed only.
pub fn restart_programs(seed: u64, k: i64) -> Vec<Program> {
    let mut r = rng(seed ^ 0x08E5_7A87);
    (0..8)
        .map(|i| {
            let j = (r.next_u64() % 1000) as i64;
            let e = if i % 2 == 0 {
                batch_program(BATCH_DEPTH, j)
            } else {
                vm_batch_program(BATCH_DEPTH, BATCH_ITERS, j)
            };
            Program {
                name: format!("p{i}.imp"),
                source: printed(&plus_base(e)),
                expected: format!("{} : Int", BATCH_DEPTH as i64 + j + k),
            }
        })
        .collect()
}

/// A daemon chain query (`batch_program` on the chain-12 tenant)
/// and its expected value.
pub fn daemon_chain(j: i64) -> (String, String) {
    (
        printed(&batch_program(DAEMON_DEPTH, j)),
        (DAEMON_DEPTH as i64 + j).to_string(),
    )
}

/// A daemon loop request (200 iterations) and its expected value.
pub fn daemon_loop(j: i64) -> (String, String) {
    (
        printed(&vm_batch_program(DAEMON_DEPTH, DAEMON_ITERS, j)),
        (DAEMON_DEPTH as i64 + j).to_string(),
    )
}

/// Writes `programs` (and an optional `prelude.imp`) into `dir`,
/// creating it, and leaves a file that already holds the right bytes
/// alone (see [`crate::workloads::Ctx::setup`]).
pub fn write_dir(dir: &Path, prelude: Option<&str>, programs: &[Program]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let files = prelude.map(|p| ("prelude.imp", p)).into_iter().chain(
        programs
            .iter()
            .map(|p| (p.name.as_str(), p.source.as_str())),
    );
    for (name, text) in files {
        let path = dir.join(name);
        if std::fs::read(&path).ok().as_deref() != Some(text.as_bytes()) {
            std::fs::write(&path, text)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_files_different_seed_different_files() {
        // Inside the package, so the test writes only within the checkout.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join(format!("corpus-test-{}", std::process::id()));
        let read_all = |d: &Path| {
            let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(d)
                .unwrap()
                .map(|e| {
                    let p = e.unwrap().path();
                    let name = p.file_name().unwrap().to_string_lossy().into_owned();
                    (name, std::fs::read(&p).unwrap())
                })
                .collect();
            files.sort();
            files
        };
        let mut snapshots = Vec::new();
        for (i, seed) in [3u64, 3, 4].into_iter().enumerate() {
            let (prelude, mut programs) = warm_batch(seed, 9);
            programs.extend(cold_cli(seed, 12));
            let d = dir.join(i.to_string());
            write_dir(&d, Some(&prelude), &programs).unwrap();
            snapshots.push(read_all(&d));
        }
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(
            snapshots[0], snapshots[1],
            "same seed must give identical files"
        );
        assert_ne!(
            snapshots[0], snapshots[2],
            "a new seed must change the files"
        );
    }

    #[test]
    fn cold_cli_is_half_source_with_the_same_sizes_for_every_seed() {
        let sources = |seed| {
            let mut s: Vec<String> = cold_cli(seed, 60)
                .into_iter()
                .filter(|p| p.name.ends_with(".si"))
                .map(|p| p.source)
                .collect();
            s.sort();
            s
        };
        let one = sources(1);
        assert_eq!(one.len(), 30);
        assert_eq!(one, sources(2));
        // The grid includes both ends of each size range.
        assert!(one.contains(&perfect_source_program(9)));
        assert!(one.contains(&show_source_program(800)));
    }

    #[test]
    fn formatters_agree_with_the_pipeline() {
        for (src, expected) in [
            (show_source_program(5), show_expected(5)),
            (perfect_source_program(3), perfect_expected(3)),
        ] {
            let c = implicit_source::compile(&src).unwrap();
            let out = implicit_elab::run(&c.decls, &c.core).unwrap();
            assert_eq!(format!("{} : {}", out.value, c.ty), expected);
        }
        assert_eq!(perfect_expected(2), "\"1 :: <2,3> :: Nil\" : String");
    }
}
