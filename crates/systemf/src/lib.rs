//! # `systemf` — the System F elaboration target
//!
//! The implicit calculus gives its dynamic semantics by a
//! type-directed translation into System F (§4 of the paper):
//! implicit contexts become explicit λ-parameters, quantifiers become
//! `Λ` binders, and every query is statically resolved to evidence.
//! This crate provides the target language: System F with the same
//! host fragment as λ⇒ (ints, bools, strings, pairs, lists, nominal
//! records, `if`, `fix`, primitive operators), a type checker
//! (appendix Figure "System F Type System") and a call-by-value
//! big-step evaluator.
//!
//! ```
//! use systemf::syntax::{FDeclarations, FExpr, FType};
//! use systemf::{eval::eval, typeck::typecheck};
//! use implicit_core::symbol::Symbol;
//!
//! // (Λα. λ(x:α). (x,x)) Int 3
//! let a = Symbol::intern("a");
//! let pair = FExpr::ty_abs([a], FExpr::lam("x", FType::Var(a),
//!     FExpr::Pair(FExpr::var("x").into(), FExpr::var("x").into())));
//! let e = FExpr::app(FExpr::TyApp(pair.into(), FType::Int), FExpr::Int(3));
//! let ty = typecheck(&FDeclarations::new(), &e).unwrap();
//! assert_eq!(ty, FType::prod(FType::Int, FType::Int));
//! assert_eq!(eval(&e).unwrap().to_string(), "(3, 3)");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod compile;
pub mod eval;
pub mod syntax;
pub mod typeck;
pub mod vm;
pub mod wire;

pub use compile::{CodeObject, CodeSnapshot, CompileError, Compiler, Isa};
pub use eval::{eval, EvalError, Evaluator, Value, MAX_EVAL_DEPTH};
pub use syntax::{FDeclarations, FExpr, FInterfaceDecl, FType};
pub use typeck::{typecheck, FTypeError};
pub use vm::{compile_and_run, Vm, VmStats};
