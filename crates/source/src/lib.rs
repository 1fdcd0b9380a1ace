//! # `implicit-source` — the §5 source language
//!
//! A small but realistic source language layered on λ⇒, reproducing
//! §5 of the paper: **interfaces** (simple record types encoding
//! simple concepts), annotated polymorphic **`let`**, **`implicit`**
//! scoping, the inferred **query `?`**, and **implicit
//! instantiation** — using a let-bound value automatically fires the
//! type applications and context queries its scheme demands. Unlike
//! Haskell it supports local and nested scoping; unlike both Haskell
//! and Scala it supports **higher-order rules**.
//!
//! The pipeline is exactly the paper's: parse → infer simple types →
//! encode type-directedly into λ⇒ ([`translate`]); resolution is then
//! performed by the core type checker / elaborator, never here
//! ([`compile`] runs the core type checker under the paper's policy).
//!
//! ```
//! use implicit_source::compile;
//!
//! let out = compile(
//!     "interface Eq a = { eq : a -> a -> Bool }\n\
//!      let eqInt : Eq Int = Eq { eq = \\x. \\y. x == y } in\n\
//!      implicit eqInt in eq ? 1 2",
//! ).unwrap();
//! assert_eq!(out.ty, implicit_core::syntax::Type::Bool);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Error enums carry full types/rule types for precise diagnostics;
// they are constructed on cold paths only, so the large-Err lint's
// boxing advice would cost clarity for no measurable gain.
#![allow(clippy::result_large_err)]

pub mod ast;
pub mod infer;
pub mod parse;

use std::fmt;

use implicit_core::syntax::{Declarations, Expr, Type};
use implicit_core::typeck::Typechecker;

pub use ast::{scheme, SExpr, SProgram};
pub use infer::{translate_expr, translate_program, SrcError, Translator};
pub use parse::{parse_source_expr, parse_source_program, SrcParseError};

/// A compiled source program: the interface declarations, the λ⇒
/// encoding, and its type.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// Interface declarations (shared by all later stages).
    pub decls: Declarations,
    /// The λ⇒ encoding of the program.
    pub core: Expr,
    /// The program's type (checked by the core type system, i.e.
    /// all queries resolved).
    pub ty: Type,
}

/// A front-end error.
#[derive(Clone, Debug)]
pub enum CompileError {
    /// Parsing failed.
    Parse(SrcParseError),
    /// Inference / encoding failed.
    Infer(SrcError),
    /// The λ⇒ encoding failed to type-check (usually: a query could
    /// not be resolved).
    Core(implicit_core::typeck::TypeError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "{e}"),
            CompileError::Infer(e) => write!(f, "{e}"),
            CompileError::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Parses a source program and encodes it in λ⇒, without
/// type-checking the encoding: the caller checks it (and so resolves
/// its queries) under the policy it chooses.
///
/// # Errors
///
/// Returns a [`CompileError::Parse`] or [`CompileError::Infer`].
pub fn translate(src: &str) -> Result<(Declarations, Expr), CompileError> {
    let prog = parse_source_program(src).map_err(CompileError::Parse)?;
    let (_, core) = translate_program(&prog).map_err(CompileError::Infer)?;
    Ok((prog.decls, core))
}

/// Compiles a source program to λ⇒ ([`translate`]) and type-checks
/// the result under the paper's policy (resolving all implicit
/// queries).
///
/// # Errors
///
/// Returns a [`CompileError`] describing the failing stage.
pub fn compile(src: &str) -> Result<Compiled, CompileError> {
    let (decls, core) = translate(src)?;
    let ty = Typechecker::new(&decls)
        .check_closed(&core)
        .map_err(CompileError::Core)?;
    Ok(Compiled { decls, core, ty })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_interface_pipeline_typechecks() {
        let out = compile(
            "interface Eq a = { eq : a -> a -> Bool }\n\
             let eqInt : Eq Int = Eq { eq = \\x. \\y. x == y } in\n\
             implicit eqInt in eq ? 1 2",
        )
        .unwrap();
        assert_eq!(out.ty, Type::Bool);
    }

    #[test]
    fn missing_instance_fails_at_core_resolution() {
        let err = compile(
            "interface Eq a = { eq : a -> a -> Bool }\n\
             eq ? 1 2",
        )
        .unwrap_err();
        assert!(matches!(err, CompileError::Core(_)), "got {err:?}");
    }

    #[test]
    fn polymorphic_let_with_context() {
        let out = compile(
            "interface Eq a = { eq : a -> a -> Bool }\n\
             let eqv : forall a. {Eq a} => a -> a -> Bool = \\x. \\y. eq ? x y in\n\
             let eqInt : Eq Int = Eq { eq = \\x. \\y. x == y } in\n\
             implicit eqInt in eqv 3 4",
        )
        .unwrap();
        assert_eq!(out.ty, Type::Bool);
    }

    #[test]
    fn structural_concepts_work() {
        // §5: functions as implicit values (structural matching).
        let out = compile(
            "let show : forall a. {a -> String} => a -> String = ? in\n\
             let showInt' : Int -> String = \\n. showInt n in\n\
             implicit showInt' in show 42",
        )
        .unwrap();
        assert_eq!(out.ty, Type::Str);
    }

    #[test]
    fn monomorphic_let_needs_no_annotation() {
        // The §5.2 type-inference extension: `let x = e in …`.
        let out = compile(
            "let double = \\x : Int. x * 2 in\n\
             let six = double 3 in\n\
             implicit six in (? : Int) + double 10",
        )
        .unwrap();
        assert_eq!(out.ty, Type::Int);
        let v = implicit_elab::run(&out.decls, &out.core).unwrap().value;
        assert_eq!(v.to_string(), "26");
    }

    #[test]
    fn monomorphic_let_infers_lambda_domains_from_use() {
        let out = compile("let inc = \\x. x + 1 in inc 41").unwrap();
        assert_eq!(out.ty, Type::Int);
    }

    #[test]
    fn data_types_constructors_and_match() {
        let out = compile(
            "data Shape = Circle Int | Square Int Int
             let area = \\s. match s { Circle r -> r * r | Square w h -> w * h } in
             area (Square 3 4) + area (Circle 5)",
        )
        .unwrap();
        assert_eq!(out.ty, Type::Int);
        let v = implicit_elab::run(&out.decls, &out.core).unwrap().value;
        assert_eq!(v.to_string(), "37");
    }

    #[test]
    fn parametric_data_types_infer_arguments() {
        let out = compile(
            "data Opt a = None | Some a
             let get = \\o. match o { None -> 0 | Some x -> x } in
             get (Some 41) + get None + 1",
        )
        .unwrap();
        assert_eq!(out.ty, Type::Int);
        let v = implicit_elab::run(&out.decls, &out.core).unwrap().value;
        assert_eq!(v.to_string(), "42");
    }

    #[test]
    fn letrec_supports_plain_recursion_too() {
        let out = compile(
            "letrec len : forall a. [a] -> Int =
               \\xs. case xs of nil -> 0 | h :: t -> 1 + len t
             in len (1 :: 2 :: 3 :: nil) + len (true :: nil)",
        )
        .unwrap();
        assert_eq!(out.ty, Type::Int);
        let v = implicit_elab::run(&out.decls, &out.core).unwrap().value;
        assert_eq!(v.to_string(), "4");
    }

    #[test]
    fn letrec_rejects_non_function_monomorphic_bodies() {
        let err = compile("letrec x : Int = x + 1 in x").unwrap_err();
        assert!(matches!(err, CompileError::Infer(_)), "got {err:?}");
    }

    #[test]
    fn match_arms_must_agree_in_type() {
        let err = compile(
            "data Opt a = None | Some a
             match Some 1 { None -> 0 | Some x -> true }",
        )
        .unwrap_err();
        assert!(matches!(err, CompileError::Infer(_)), "got {err:?}");
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(matches!(compile("let ="), Err(CompileError::Parse(_))));
    }

    #[test]
    fn inference_errors_are_reported() {
        assert!(matches!(compile("1 + true"), Err(CompileError::Infer(_))));
    }
}
