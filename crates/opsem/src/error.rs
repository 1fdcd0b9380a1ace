//! Runtime errors of the operational semantics.
//!
//! These are exactly the failure modes catalogued in the extended
//! report's §"Runtime Errors and Coherence Failures": lookup failures
//! (no matching rule / multiple matching rules), ambiguous
//! instantiations, plus the engineering backstops (fuel, stuck states
//! for ill-typed input).

use std::fmt;

use implicit_core::symbol::Symbol;
use implicit_core::syntax::{RuleType, Type};

/// A runtime error.
#[derive(Clone, Debug)]
pub enum OpsemError {
    /// Lookup failure: no rule in the runtime environment matches.
    NoMatch(Type),
    /// Lookup failure: several rules in one rule set match.
    Overlap {
        /// Queried type.
        target: Type,
        /// Competing rule types.
        candidates: Vec<RuleType>,
    },
    /// Resolution matched a rule without determining all of its
    /// quantifiers.
    AmbiguousInstantiation {
        /// The offending rule.
        rule: RuleType,
    },
    /// Resolution exceeded its depth bound.
    DepthExceeded {
        /// The query.
        query: RuleType,
        /// Configured bound.
        max_depth: usize,
    },
    /// Evaluation exceeded its step budget.
    OutOfFuel,
    /// Integer division or remainder by zero.
    DivisionByZero,
    /// Unbound term variable (elaboration/typing bug).
    UnboundVar(Symbol),
    /// Evaluation reached a stuck state (only possible for ill-typed
    /// input).
    Stuck(String),
    /// Evaluation nested deeper than [`crate::MAX_EVAL_DEPTH`].
    TooDeep,
}

impl fmt::Display for OpsemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpsemError::NoMatch(t) => write!(f, "no rule matches type `{t}` at runtime"),
            OpsemError::Overlap { target, candidates } => write!(
                f,
                "overlapping rules for `{target}` at runtime: {}",
                candidates
                    .iter()
                    .map(|r| format!("`{r}`"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            OpsemError::AmbiguousInstantiation { rule } => {
                write!(f, "ambiguous instantiation of rule `{rule}` at runtime")
            }
            OpsemError::DepthExceeded { query, max_depth } => write!(
                f,
                "runtime resolution of `{query}` exceeded depth {max_depth}"
            ),
            OpsemError::OutOfFuel => f.write_str("evaluation exceeded its step budget"),
            OpsemError::DivisionByZero => f.write_str("division by zero"),
            OpsemError::UnboundVar(x) => write!(f, "unbound variable `{x}` at runtime"),
            OpsemError::Stuck(m) => write!(f, "evaluation stuck: {m}"),
            OpsemError::TooDeep => write!(
                f,
                "evaluation nested deeper than {} levels",
                crate::MAX_EVAL_DEPTH
            ),
        }
    }
}

impl std::error::Error for OpsemError {}
