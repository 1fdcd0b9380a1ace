//! # `implicit-bench` — benchmark workloads
//!
//! Shared programs for the Criterion benchmark targets (`benches/`).
//! The workload families themselves live in [`genprog`]; this crate
//! adds the source-language programs used by the end-to-end pipeline
//! benchmarks and re-exports everything the bench targets need.
//!
//! See `EXPERIMENTS.md` at the repository root for the experiment
//! index (B1–B17) and recorded results; the end-to-end benchmark of
//! the user paths lives in `perfbench/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use genprog::{
    chain_env, chain_program, deep_stack_env, distinct_type, partial_env, poly_env, poly_wide_env,
    wide_env, wild_workload, WildConfig, WildHistogram, WildWorkload,
};

use std::rc::Rc;
use std::time::Instant;

use implicit_core::resolve::ResolutionPolicy;
use implicit_core::syntax::{BinOp, Declarations, Expr, Type};
use implicit_pipeline::{run_batch_scoped, Backend, Prelude, Session};

pub mod report;

/// One B13 batch program: `snd(?T_depth) + j`, where `T_depth` is the
/// head of [`Prelude::chain`]. Resolving the query is a `depth`-deep
/// recursive derivation; the program evaluates to `depth + j`.
pub fn batch_program(depth: usize, j: i64) -> Expr {
    Expr::binop(
        BinOp::Add,
        Expr::Snd(Expr::query_simple(Prelude::chain_head(depth)).into()),
        Expr::Int(j),
    )
}

/// Runs the B13 batch **cold**: every program is desugared to its
/// standalone equivalent (`prelude.wrap`) and pushed through a fresh
/// one-shot pipeline, re-elaborating and re-evaluating the prelude
/// each time. Returns the checksum of all program values.
pub fn run_batch_cold(depth: usize, programs: usize, workers: usize) -> i64 {
    let jobs: Vec<i64> = (0..programs as i64).collect();
    run_batch_scoped(jobs, workers, |_, source| {
        let decls = Declarations::new();
        let prelude = Prelude::chain(depth);
        let policy = ResolutionPolicy::paper();
        let mut sum = 0i64;
        for (_, j) in source {
            let wrapped = prelude.wrap(batch_program(depth, j), Type::Int);
            let out = implicit_elab::run_with(&decls, &wrapped, &policy).expect("cold batch run");
            sum += out.value.to_string().parse::<i64>().expect("int value");
        }
        sum
    })
    .into_iter()
    .sum()
}

/// Runs the B13 batch **warm**: each worker builds one
/// [`Session`] (prelude typechecked, elaborated, and evaluated once;
/// interner snapshotted; caches warm) and runs every program as a
/// copy-on-write extension of it. Returns the checksum of all
/// program values — identical to [`run_batch_cold`]'s by the
/// session-equivalence property.
pub fn run_batch_warm(depth: usize, programs: usize, workers: usize) -> i64 {
    let jobs: Vec<i64> = (0..programs as i64).collect();
    run_batch_scoped(jobs, workers, |_, source| {
        let decls = Declarations::new();
        let prelude = Prelude::chain(depth);
        let mut session = Session::new(&decls, ResolutionPolicy::paper(), &prelude)
            .expect("chain prelude is valid");
        let mut sum = 0i64;
        for (_, j) in source {
            let out = session
                .run(&batch_program(depth, j))
                .expect("warm batch run");
            sum += out.value.to_string().parse::<i64>().expect("int value");
        }
        sum
    })
    .into_iter()
    .sum()
}

/// The checksum both batch runners must produce for a
/// `depth`/`programs` configuration: program `j` evaluates to
/// `depth + j`.
pub fn batch_checksum(depth: usize, programs: usize) -> i64 {
    (0..programs as i64).map(|j| depth as i64 + j).sum()
}

/// Builds the warmed B16 chain-prelude artifact once: a session is
/// constructed cold, one probe program is run per leg (tree and
/// compiled) so the derivation cache, runtime memo, and compiled
/// prelude all carry state, and the session is serialized. This is
/// the "previous process" half of a warm restart — its cost is the
/// one-time install, not part of the restarted batch.
pub fn chain_artifact(depth: usize) -> Vec<u8> {
    let decls = Declarations::new();
    let prelude = Prelude::chain(depth);
    let mut session =
        Session::new(&decls, ResolutionPolicy::paper(), &prelude).expect("chain prelude is valid");
    session.run(&batch_program(depth, 0)).expect("warmup run");
    session
        .run_compiled(&batch_program(depth, 0))
        .expect("warmup compiled run");
    session.to_artifact()
}

/// Runs the B13 batch through sessions **rehydrated** from `bytes`
/// ([`chain_artifact`]) — the B16 `warm_restart` series. Each worker
/// deserializes the prelude state instead of re-typechecking,
/// re-elaborating, re-evaluating, and re-compiling it, then runs
/// every program under `backend` as a copy-on-write extension.
/// Returns the same checksum as the other batch runners.
pub fn run_batch_restarted(
    depth: usize,
    programs: usize,
    workers: usize,
    bytes: &[u8],
    backend: Backend,
) -> i64 {
    let jobs: Vec<i64> = (0..programs as i64).collect();
    run_batch_scoped(jobs, workers, |_, source| {
        let decls = Declarations::new();
        let prelude = Prelude::chain(depth);
        let policy = ResolutionPolicy::paper();
        let mut session = Session::from_artifact(&decls, &policy, &prelude, true, false, bytes)
            .expect("chain artifact rehydrates");
        let mut sum = 0i64;
        for (_, j) in source {
            let out = session
                .run_with_backend(&batch_program(depth, j), backend)
                .expect("restarted batch run");
            sum += out.value.to_string().parse::<i64>().expect("int value");
        }
        sum
    })
    .into_iter()
    .sum()
}

/// Runs the B13 batch warm under an explicit backend (the
/// same-process comparison leg for B16): one [`Session`] per worker,
/// built cold in-process, every program a copy-on-write extension.
pub fn run_batch_warm_backend(
    depth: usize,
    programs: usize,
    workers: usize,
    backend: Backend,
) -> i64 {
    let jobs: Vec<i64> = (0..programs as i64).collect();
    run_batch_scoped(jobs, workers, |_, source| {
        let decls = Declarations::new();
        let prelude = Prelude::chain(depth);
        let mut session = Session::new(&decls, ResolutionPolicy::paper(), &prelude)
            .expect("chain prelude is valid");
        let mut sum = 0i64;
        for (_, j) in source {
            let out = session
                .run_with_backend(&batch_program(depth, j), backend)
                .expect("warm batch run");
            sum += out.value.to_string().parse::<i64>().expect("int value");
        }
        sum
    })
    .into_iter()
    .sum()
}

/// Runs one warm single-worker batch with a metrics sink installed
/// and returns the unified snapshot — the per-series metrics row
/// source for the B13/B14 tables. The checksum is asserted inside.
pub fn batch_metrics(
    depth: usize,
    iters: Option<i64>,
    programs: usize,
    backend: Backend,
) -> implicit_core::trace::MetricsRegistry {
    use implicit_core::trace::{MetricsSink, SharedSink};
    let decls = Declarations::new();
    let prelude = Prelude::chain(depth);
    let mut session =
        Session::new_configured(&decls, ResolutionPolicy::paper(), &prelude, true, true)
            .expect("chain prelude is valid");
    session.set_trace(Some(SharedSink::new(MetricsSink::new())));
    let mut sum = 0i64;
    for j in 0..programs as i64 {
        let program = match iters {
            Some(iters) => vm_batch_program(depth, iters, j),
            None => batch_program(depth, j),
        };
        let out = session
            .run_with_backend(&program, backend)
            .expect("metrics batch run");
        sum += out.value.to_string().parse::<i64>().expect("int value");
    }
    assert_eq!(sum, batch_checksum(depth, programs));
    session.metrics()
}

/// One B14 program: a unary `fix` countdown that makes `iters`
/// recursive calls before returning [`batch_program`]'s
/// `snd(?T_depth) + j`:
///
/// ```text
/// (fix go : Int -> Int. \n. if n <= 0 then snd(?T_depth) + j
///                           else go (n - 1)) iters
/// ```
///
/// Resolution and elaboration cost are the same as B13's program, but
/// evaluation is dominated by the loop — so timing this batch under
/// [`Backend::Tree`] vs [`Backend::Vm`] compares the System F
/// evaluators themselves. Evaluates to `depth + j`, like
/// [`batch_program`].
pub fn vm_batch_program(depth: usize, iters: i64, j: i64) -> Expr {
    let go = implicit_core::symbol::Symbol::intern("go");
    let n = implicit_core::symbol::Symbol::intern("n");
    let int_to_int = Type::arrow(Type::Int, Type::Int);
    let body = Expr::if_(
        Expr::binop(BinOp::Le, Expr::var(n), Expr::Int(0)),
        batch_program(depth, j),
        Expr::app(
            Expr::var(go),
            Expr::binop(BinOp::Sub, Expr::var(n), Expr::Int(1)),
        ),
    );
    let looped = Expr::Fix(go, int_to_int, Rc::new(Expr::lam(n, Type::Int, body)));
    Expr::app(looped, Expr::Int(iters))
}

/// Runs the B14 batch **cold** under the chosen backend: every
/// program rebuilds its [`Session`] from scratch, so the prelude is
/// re-elaborated, re-evaluated and (for [`Backend::Vm`]) re-compiled
/// each time. Returns the checksum of all program values.
pub fn run_vm_batch_cold(
    depth: usize,
    iters: i64,
    programs: usize,
    workers: usize,
    backend: Backend,
) -> i64 {
    let jobs: Vec<i64> = (0..programs as i64).collect();
    run_batch_scoped(jobs, workers, |_, source| {
        let decls = Declarations::new();
        let prelude = Prelude::chain(depth);
        let mut sum = 0i64;
        for (_, j) in source {
            let mut session = Session::new(&decls, ResolutionPolicy::paper(), &prelude)
                .expect("chain prelude is valid");
            let out = session
                .run_with_backend(&vm_batch_program(depth, iters, j), backend)
                .expect("cold vm batch run");
            sum += out.value.to_string().parse::<i64>().expect("int value");
        }
        sum
    })
    .into_iter()
    .sum()
}

/// Runs the B14 batch **warm** under the chosen backend: one
/// [`Session`] per worker (prelude compiled once for [`Backend::Vm`],
/// with per-program code rolled back after each run), with
/// superinstruction fusion and the dictionary inline cache enabled —
/// the full warm-path configuration the B14 table measures. Returns
/// the checksum of all program values — identical to
/// [`run_vm_batch_cold`]'s.
pub fn run_vm_batch_warm(
    depth: usize,
    iters: i64,
    programs: usize,
    workers: usize,
    backend: Backend,
) -> i64 {
    let jobs: Vec<i64> = (0..programs as i64).collect();
    run_batch_scoped(jobs, workers, |_, source| {
        let decls = Declarations::new();
        let prelude = Prelude::chain(depth);
        let mut session =
            Session::new_configured(&decls, ResolutionPolicy::paper(), &prelude, true, true)
                .expect("chain prelude is valid");
        let mut sum = 0i64;
        for (_, j) in source {
            let out = session
                .run_with_backend(&vm_batch_program(depth, iters, j), backend)
                .expect("warm vm batch run");
            sum += out.value.to_string().parse::<i64>().expect("int value");
        }
        sum
    })
    .into_iter()
    .sum()
}

/// Per-round times, in seconds, of two workloads timed alternately.
pub struct Interleaved {
    a: Vec<f64>,
    b: Vec<f64>,
}

impl Interleaved {
    /// Times `a` and `b` in `rounds` alternating rounds (`a`, `b`, `a`,
    /// `b`, …) after one untimed call of each. A change in host load
    /// then reaches both sides of their ratio alike; timing one series
    /// after the other lets it move the numerator and the denominator
    /// apart.
    pub fn time(rounds: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> Interleaved {
        let timed = |f: &mut dyn FnMut()| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        };
        a();
        b();
        let (mut ta, mut tb) = (Vec::with_capacity(rounds), Vec::with_capacity(rounds));
        for _ in 0..rounds {
            ta.push(timed(&mut a));
            tb.push(timed(&mut b));
        }
        Interleaved { a: ta, b: tb }
    }

    /// The median over rounds of `a`'s time divided by `b`'s.
    pub fn ratio(&self) -> f64 {
        let mut r: Vec<f64> = self.a.iter().zip(&self.b).map(|(a, b)| a / b).collect();
        r.sort_by(f64::total_cmp);
        let mid = r.len() / 2;
        if r.len() % 2 == 1 {
            r[mid]
        } else {
            (r[mid - 1] + r[mid]) / 2.0
        }
    }

    /// Each side's fastest round, `(a, b)`.
    pub fn best(&self) -> (f64, f64) {
        let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        (min(&self.a), min(&self.b))
    }
}

/// The Figure-"Encoding the Equality Type Class" program (§5),
/// parameterized by how deeply the compared pairs nest: depth 0
/// compares `Int`s, depth `d` compares `d`-times-nested pairs —
/// resolution work grows linearly with `d`.
pub fn eq_source_program(depth: usize) -> String {
    let mut value = String::from("1");
    for _ in 0..depth {
        value = format!("({value}, {value})");
    }
    format!(
        r#"
interface Eq a = {{ eq : a -> a -> Bool }}
let eqv : forall a. {{Eq a}} => a -> a -> Bool = eq ? in
let eqInt : Eq Int = Eq {{ eq = \x. \y. x == y }} in
let eqPair : forall a b. {{Eq a, Eq b}} => Eq (a * b) =
  Eq {{ eq = \x. \y. eqv (fst x) (fst y) && eqv (snd x) (snd y) }} in
implicit eqInt, eqPair in eqv {value} {value}
"#
    )
}

/// The §5 higher-order pretty-printing program, parameterized by
/// list length.
pub fn show_source_program(len: usize) -> String {
    let items: String = (1..=len.max(1)).map(|i| format!("{i} :: ")).collect();
    format!(
        r#"
let show : forall a. {{a -> String}} => a -> String = ? in
let showInt' : Int -> String = \n. showInt n in
let comma : forall a. {{a -> String}} => [a] -> String =
  fix go : [a] -> String. \xs.
    case xs of
      nil -> ""
    | h :: t -> (case t of nil -> show h | h2 :: t2 -> show h ++ "," ++ go t)
in
let o : {{Int -> String, {{Int -> String}} => [Int] -> String}} => String =
  show ({items}nil)
in
implicit showInt' in (implicit comma in o)
"#
    )
}

/// The §1 `Perfect` program at the given tree depth: the value at
/// depth d contains 2^d − 1 integers, and compiling it exercises
/// data-type kind inference, higher-kinded resolution and
/// polymorphic recursion.
pub fn perfect_source_program(depth: usize) -> String {
    fn value(d: usize, next: &mut i64) -> String {
        if d == 0 {
            let v = *next;
            *next += 1;
            v.to_string()
        } else {
            let f = value(d - 1, next);
            let b = value(d - 1, next);
            format!("Twice {{ front = {f}, back = {b} }}")
        }
    }
    fn spine(d: usize, depth: usize, next: &mut i64) -> String {
        if d == depth {
            "PNil".to_owned()
        } else {
            let head = value(d, next);
            let tail = spine(d + 1, depth, next);
            format!("PCons ({head}) ({tail})")
        }
    }
    let mut counter = 1;
    let tree = spine(0, depth, &mut counter);
    format!(
        r#"
data Perfect f a = PNil | PCons a (Perfect f (f a))
interface Twice a = {{ front : a, back : a }}
let show : forall a. {{a -> String}} => a -> String = ? in
let showInt' : Int -> String = \n. showInt n in
let showTwice : forall a. {{a -> String}} => Twice a -> String =
  \t. "<" ++ show (front t) ++ "," ++ show (back t) ++ ">" in
letrec showPerfect : forall f a.
    {{forall b. {{b -> String}} => f b -> String, a -> String}}
      => Perfect f a -> String =
  \t. match t {{ PNil -> "Nil" | PCons x rest -> show x ++ " :: " ++ showPerfect rest }}
in
implicit showInt', showTwice in showPerfect (({tree}) : Perfect Twice Int)
"#
    )
}

// ---------------------------------------------------------------
// B15: wild (production-shaped) resolution throughput
// ---------------------------------------------------------------

/// Which resolution engine a B15 series exercises.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WildEngine {
    /// The logic resolver with the derivation cache disabled.
    LogicNoCache,
    /// The logic resolver with the derivation cache (cold at the start
    /// of the run, warming as the hot queries repeat).
    Logic,
    /// The intersection-subtyping resolver, with the environment
    /// translated to intersections once per run (the analog of a warm
    /// compiled prelude) and the head-constructor pre-filter on.
    Subtyping,
    /// The intersection-subtyping resolver with the pre-filter
    /// disabled: every member of every intersection is scanned, as
    /// the resolver did before the index existed.
    SubtypingScan,
}

impl WildEngine {
    /// Stable series label for tables and reports.
    pub fn label(self) -> &'static str {
        match self {
            WildEngine::LogicNoCache => "logic, cache off",
            WildEngine::Logic => "logic, cached",
            WildEngine::Subtyping => "subtyping, head-indexed",
            WildEngine::SubtypingScan => "subtyping, linear scan",
        }
    }
}

/// One B15 run: builds the seeded wild workload fresh (so the cached
/// series starts cold), then resolves every query `passes` times with
/// the chosen engine. Returns the total `TyRes` step count — the
/// cross-engine checksum (all engines must agree derivation-for-
/// derivation, so their step totals are equal).
pub fn run_wild(seed: u64, config: &WildConfig, engine: WildEngine, passes: usize) -> u64 {
    let w = wild_workload(seed, config);
    let depth = 4096;
    let policy = match engine {
        WildEngine::LogicNoCache => ResolutionPolicy::paper()
            .without_cache()
            .with_max_depth(depth),
        _ => ResolutionPolicy::paper().with_max_depth(depth),
    };
    let sigma = match engine {
        WildEngine::Subtyping | WildEngine::SubtypingScan => {
            implicit_core::subtyping::translate_env(&w.env)
        }
        _ => Vec::new(),
    };
    let mut steps = 0u64;
    for _ in 0..passes {
        for q in &w.queries {
            steps += match engine {
                WildEngine::Subtyping => {
                    implicit_core::subtyping::subtype_resolve_translated(&sigma, q, &policy)
                        .unwrap_or_else(|e| panic!("wild query `{q}` failed: {e:?}"))
                        .steps() as u64
                }
                WildEngine::SubtypingScan => {
                    implicit_core::subtyping::subtype_resolve_translated_scan(&sigma, q, &policy)
                        .unwrap_or_else(|e| panic!("wild query `{q}` failed: {e:?}"))
                        .steps() as u64
                }
                _ => implicit_core::resolve::resolve(&w.env, q, &policy)
                    .unwrap_or_else(|e| panic!("wild query `{q}` failed: {e:?}"))
                    .steps() as u64,
            };
        }
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_programs_compile_and_run_at_every_depth() {
        for d in [0, 1, 3] {
            let src = eq_source_program(d);
            let c = implicit_source::compile(&src).unwrap_or_else(|e| panic!("depth {d}: {e}"));
            let out = implicit_elab::run(&c.decls, &c.core).unwrap();
            assert_eq!(out.value.to_string(), "true", "depth {d}");
        }
    }

    #[test]
    fn perfect_programs_compile_and_run() {
        let src = perfect_source_program(2);
        let c = implicit_source::compile(&src).unwrap();
        let out = implicit_elab::run(&c.decls, &c.core).unwrap();
        assert_eq!(out.value.to_string(), "\"1 :: <2,3> :: Nil\"");
    }

    #[test]
    fn show_programs_compile_and_run() {
        let src = show_source_program(4);
        let c = implicit_source::compile(&src).unwrap();
        let out = implicit_elab::run(&c.decls, &c.core).unwrap();
        assert_eq!(out.value.to_string(), "\"1,2,3,4\"");
    }

    #[test]
    fn vm_batch_runners_agree_on_the_checksum_under_both_backends() {
        // Small so the debug-build sanity check stays quick; the real
        // B14 series runs in release via `benches/vm.rs` and
        // `tests/vm_table.rs`.
        let (depth, iters, programs) = (6, 50, 12);
        let expect = batch_checksum(depth, programs);
        for backend in [Backend::Tree, Backend::Vm] {
            assert_eq!(
                run_vm_batch_cold(depth, iters, programs, 1, backend),
                expect,
                "cold {backend}"
            );
            assert_eq!(
                run_vm_batch_warm(depth, iters, programs, 1, backend),
                expect,
                "warm {backend}"
            );
            assert_eq!(
                run_vm_batch_warm(depth, iters, programs, 4, backend),
                expect,
                "warm {backend} x4"
            );
        }
    }

    #[test]
    fn wild_engines_agree_on_the_step_checksum() {
        // Small shape so the debug-build sanity check stays quick; the
        // real B15 series runs in release via `benches/wild.rs`.
        let config = WildConfig {
            rules_per_frame: 40,
            frames: 3,
            max_chain: 8,
            skew: 1.2,
            queries: 12,
            hot_fraction: 0.75,
        };
        for seed in [0u64, 5] {
            let expect = run_wild(seed, &config, WildEngine::LogicNoCache, 2);
            assert!(expect > 0);
            assert_eq!(expect, run_wild(seed, &config, WildEngine::Logic, 2));
            assert_eq!(expect, run_wild(seed, &config, WildEngine::Subtyping, 2));
            assert_eq!(
                expect,
                run_wild(seed, &config, WildEngine::SubtypingScan, 2)
            );
        }
    }

    #[test]
    fn batch_runners_agree_on_the_checksum() {
        // Small depth so the debug-build sanity check stays quick; the
        // real B13 series runs in release via `benches/batch.rs`.
        let (depth, programs) = (6, 24);
        let expect = batch_checksum(depth, programs);
        assert_eq!(run_batch_cold(depth, programs, 1), expect);
        assert_eq!(run_batch_warm(depth, programs, 1), expect);
        assert_eq!(run_batch_warm(depth, programs, 4), expect);
    }
}
