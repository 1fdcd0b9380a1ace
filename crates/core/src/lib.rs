//! # `implicit-core` — the implicit calculus λ⇒
//!
//! A faithful implementation of the core calculus from *"The Implicit
//! Calculus: A New Foundation for Generic Programming"* (Oliveira,
//! Schrijvers, Choi, Lee, Yi — PLDI 2012): a minimal calculus in which
//! *implicit values* are fetched **by type** from a lexically scoped
//! implicit environment, via a logic-programming-style resolution
//! mechanism that supports recursive, polymorphic, **higher-order**
//! and **partial** resolution.
//!
//! ## Modules and their paper counterparts
//!
//! | Module | Paper artifact |
//! |--------|----------------|
//! | [`syntax`] | §3.1 grammar (types, rule types, expressions) |
//! | [`alpha`] | α-equivalence for rule-type sets |
//! | [`subst`] | Appendix "Substitutions" |
//! | [`unify`] | Appendix "Unification" (one-way matching) |
//! | [`env`](mod@env) | implicit environments Δ and lookup `Δ⟨τ⟩` |
//! | [`intern`](mod@intern) | hash-consed types (performance layer, no paper counterpart) |
//! | [`list`] | persistent list values of both interpreters (no paper counterpart) |
//! | [`resolve`](mod@resolve) | the resolution judgment `Δ ⊢r ρ` (rule `TyRes`) |
//! | [`typeck`] | Figure "Type System" |
//! | [`termination`] | Appendix A termination conditions |
//! | [`coherence`] | companion note on overlapping rules |
//! | [`logic`] | §3.2 logical interpretation, Theorem 1 |
//! | [`parse`] / [`pretty`] | concrete syntax |
//! | [`trace`](mod@trace) / [`counters`] | structured tracing/metrics (observability layer, no paper counterpart) |
//! | [`json`] | the JSON value, renderer and parser every surface shares (no paper counterpart) |
//!
//! ## Quick example
//!
//! The paper's first worked example — fetch an `Int` and a `Bool`
//! implicitly, build a pair — type-checks like this:
//!
//! ```
//! use implicit_core::parse::parse_expr;
//! use implicit_core::syntax::{Declarations, Type};
//! use implicit_core::typeck::Typechecker;
//!
//! let e = parse_expr(
//!     "implicit {1 : Int, true : Bool} in (?(Int) + 1, not ?(Bool)) : Int * Bool",
//! ).unwrap();
//! let decls = Declarations::new();
//! let ty = Typechecker::new(&decls).check_closed(&e).unwrap();
//! assert_eq!(ty, Type::prod(Type::Int, Type::Bool));
//! ```
//!
//! Evaluation is provided by the sibling crates: `implicit-elab`
//! elaborates into System F (the paper's dynamic semantics), and
//! `implicit-opsem` interprets λ⇒ directly with runtime resolution.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Error enums carry full types/rule types for precise diagnostics;
// they are constructed on cold paths only, so the large-Err lint's
// boxing advice would cost clarity for no measurable gain.
#![allow(clippy::result_large_err)]

pub mod alpha;
pub mod coherence;
pub mod counters;
pub mod env;
pub mod intern;
pub mod json;
pub mod list;
pub mod logic;
pub mod parse;
pub mod pretty;
pub mod resolve;
pub mod subst;
pub mod subtyping;
pub mod symbol;
pub mod syntax;
pub mod termination;
pub mod trace;
pub mod typeck;
pub mod unify;
pub mod wire;

pub use env::{ImplicitEnv, OverlapPolicy};
pub use resolve::{resolve, resolve_with, Resolution, ResolutionPolicy};
pub use symbol::Symbol;
pub use syntax::{Declarations, Expr, RuleType, Type};
pub use trace::{
    chrome_trace_json, ChromeSink, CollectSink, FanSink, MetricsRegistry, MetricsSink, NullSink,
    Phase, SharedSink, TraceEvent, TraceSink,
};
pub use typeck::{TypeError, Typechecker};
