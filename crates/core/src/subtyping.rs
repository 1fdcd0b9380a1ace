//! Resolution as **intersection subtyping via modus ponens** — an
//! independent decision procedure for the resolution judgment.
//!
//! Marntirosian, Schrijvers, Oliveira and Karachalias ("Resolution as
//! Intersection Subtyping via Modus Ponens", see `PAPERS.md`) show
//! that the λ⇒ resolution judgment `Δ ⊢r ρ` can be recast as a
//! *subtyping* problem: read each rule type `∀ᾱ. π ⇒ τ` as an
//! (implication) type, read the implicit environment as an ordered
//! **intersection** of the translated rules, and decide the query by
//! an algorithmic subtyping relation extended with a *modus ponens*
//! rule — from `σ ≤ π → τ` and `σ ≤ π` conclude `σ ≤ τ`. Focused
//! proof search for that relation makes exactly the same committed
//! choices as the paper's Fig. 5 resolver, so the two procedures
//! agree on success, evidence shape, and failure.
//!
//! This module implements that second decision procedure end to end:
//!
//! * [`IType`] — intersection-calculus types: atoms, implications
//!   `π̄ → τ`, and quantified types `∀ᾱ. σ`;
//! * [`translate_rule`] / [`itype_to_rule`] — the (invertible)
//!   translation between rule types and implication types;
//! * [`Intersection`] / [`translate_env`] — contexts and environments
//!   as *ordered* intersections (order carries scope proximity, which
//!   the subtyping algorithm must respect to stay coherent);
//! * [`subtype_resolve`] — the modus-ponens subtyping algorithm,
//!   producing an [`MpStep`] proof term that converts losslessly into
//!   the logic resolver's [`Resolution`] via [`MpStep::to_resolution`];
//! * [`check_member`] / [`unique_members`] / [`most_specific_members`]
//!   / [`stable_query`] — the Appendix A termination measures and the
//!   companion-note coherence conditions, recomputed on the
//!   *translated* forms but reporting payloads identical to
//!   [`crate::termination`] / [`crate::coherence`].
//!
//! The point of the exercise is differential testing: the conformance
//! harness (`crates/conformance`) runs this resolver as a fifth
//! oracle leg against elaboration, the operational semantics, the
//! derivation cache, and the bytecode VM. Because this procedure
//! shares *no control flow* with [`crate::resolve`] — no derivation
//! cache, a different recursion structure — a bug in either engine
//! surfaces as a [`SubProof`]/[`Resolution`] mismatch on some
//! generated seed. The one structure the engines now share is the
//! head-constructor pre-filter over intersection members (built from
//! the same [`crate::intern::head_key`]); to keep the differential
//! honest, [`subtype_resolve_translated_scan`] preserves the
//! unindexed every-member scan as a baseline the indexed path is
//! tested against.
//!
//! ## Design notes on exact agreement
//!
//! The subtyping search is committed-choice, like the resolver: it
//! never backtracks across members or scopes. Scope order is
//! assumption frames innermost-first (under the environment-extension
//! policy), then environment frames innermost-first; within a scope
//! it consults a head-constructor index to visit only the members
//! whose conclusion head could match (a sound pre-filter: every
//! skipped member would fail unification on its rigid head), in frame
//! order, and applies the same 0/1/many commitment: descend, commit,
//! or fail via the [`OverlapPolicy`]. Nested rule types in conclusion
//! position stay atomic ([`IType::Atom`] can hold a
//! [`Type::Rule`](crate::syntax::Type::Rule)) because the resolver's
//! matching treats rule-typed heads opaquely.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::rc::Rc;

use crate::alpha;
use crate::coherence::CoherenceError;
use crate::env::{ImplicitEnv, LookupError, OverlapPolicy};
use crate::intern::{head_key, HeadKey};
use crate::resolve::{Premise, Resolution, ResolutionPolicy, ResolveError, RuleRef};
use crate::subst::{freshen_rule, TySubst};
use crate::syntax::{Expr, RuleType, TyVar, Type};
use crate::termination::TerminationViolation;
use crate::unify;

// ---------------------------------------------------------------------------
// Intersection-calculus types and the translation
// ---------------------------------------------------------------------------

/// A type of the target intersection calculus.
///
/// The translation image of a rule type `∀ᾱ. {ρ̄} ⇒ τ` is
/// `∀ᾱ. (⟦ρ̄⟧ → τ)`; context-free, unquantified rules collapse to the
/// bare atom `τ`. Conclusions are always atoms — possibly a
/// higher-order [`Type::Rule`](crate::syntax::Type::Rule) atom, which
/// stays opaque exactly as the resolver treats rule-typed heads.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum IType {
    /// An atomic type (a λ⇒ type, matched structurally).
    Atom(Type),
    /// An implication `π̄ → τ`: the premises (in stored order) imply
    /// the conclusion.
    Impl(Vec<IType>, Box<IType>),
    /// A quantified type `∀ᾱ. σ` (binders in stored order).
    All(Vec<TyVar>, Box<IType>),
}

impl IType {
    /// The conclusion atom, premise translations, and quantifiers of
    /// a translation-image type (the canonical `∀ᾱ.(π̄ → τ)` shape).
    ///
    /// # Panics
    ///
    /// Panics when the type is not in translation-image form (e.g. a
    /// hand-built `All` whose body is another `All`). Everything this
    /// module constructs is in image form.
    fn parts(&self) -> (&[TyVar], &[IType], &Type) {
        let (vars, body) = match self {
            IType::All(vs, b) => (vs.as_slice(), b.as_ref()),
            other => (&[][..], other),
        };
        let (premises, concl) = match body {
            IType::Impl(ps, c) => (ps.as_slice(), c.as_ref()),
            other => (&[][..], other),
        };
        match concl {
            IType::Atom(t) => (vars, premises, t),
            _ => panic!("IType not in translation-image form"),
        }
    }

    /// Free type variables, respecting `All` binders (same order as
    /// [`RuleType::ftv`] — `BTreeSet` iteration).
    pub fn ftv(&self) -> BTreeSet<TyVar> {
        fn go(it: &IType, acc: &mut BTreeSet<TyVar>) {
            match it {
                IType::Atom(t) => acc.extend(t.ftv()),
                IType::Impl(ps, c) => {
                    ps.iter().for_each(|p| go(p, acc));
                    go(c, acc);
                }
                IType::All(vs, b) => {
                    let mut inner = BTreeSet::new();
                    go(b, &mut inner);
                    for v in vs {
                        inner.remove(v);
                    }
                    acc.extend(inner);
                }
            }
        }
        let mut acc = BTreeSet::new();
        go(self, &mut acc);
        acc
    }
}

impl fmt::Display for IType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IType::Atom(t) => write!(f, "{t}"),
            IType::Impl(ps, c) => {
                for p in ps {
                    match p {
                        IType::Atom(_) => write!(f, "{p} -> ")?,
                        _ => write!(f, "({p}) -> ")?,
                    }
                }
                write!(f, "{c}")
            }
            IType::All(vs, b) => {
                write!(f, "forall")?;
                for v in vs {
                    write!(f, " {v}")?;
                }
                write!(f, ". {b}")
            }
        }
    }
}

/// Translates a rule type into its implication type.
///
/// `∀ᾱ. {ρ̄} ⇒ τ` becomes `∀ᾱ. (⟦ρ̄⟧ → τ)`; empty quantifier lists
/// and empty contexts produce no `All`/`Impl` wrapper, so simple
/// types translate to bare atoms. The translation commutes with
/// substitution and is inverted exactly by [`itype_to_rule`].
pub fn translate_rule(rho: &RuleType) -> IType {
    let concl = IType::Atom(rho.head().clone());
    let body = if rho.context().is_empty() {
        concl
    } else {
        IType::Impl(
            rho.context().iter().map(translate_rule).collect(),
            Box::new(concl),
        )
    };
    if rho.vars().is_empty() {
        body
    } else {
        IType::All(rho.vars().to_vec(), Box::new(body))
    }
}

/// Inverts [`translate_rule`].
///
/// Because translation preserves the (already canonicalized) premise
/// order of the source rule, the round trip is the identity:
/// `itype_to_rule(&translate_rule(ρ)) == ρ`.
pub fn itype_to_rule(it: &IType) -> RuleType {
    let (vars, premises, concl) = it.parts();
    RuleType::new(
        vars.to_vec(),
        premises.iter().map(itype_to_rule).collect(),
        concl.clone(),
    )
}

/// One member of an intersection: the translated type together with
/// its source rule (kept so evidence and diagnostics can speak the
/// resolver's language losslessly).
#[derive(Clone, Debug)]
pub struct Member {
    /// The translated implication type.
    pub itype: IType,
    /// The rule it was translated from.
    pub source: RuleType,
}

/// An *ordered* intersection of translated rules — the image of one
/// context/frame. Order is significant: it carries the within-frame
/// rule positions that evidence refers to.
///
/// Alongside the members, the intersection carries a head-constructor
/// index built once at translation time: `buckets[k]` holds the
/// ascending member indices whose conclusion head has the
/// non-wildcard key `k`, and `wildcard` the indices of
/// variable-headed members (which can match any target). Selection
/// visits only admitted members, in frame order, so the scan is
/// O(admitted) instead of O(members).
#[derive(Clone, Debug, Default)]
pub struct Intersection {
    /// Members in frame order.
    pub members: Vec<Member>,
    buckets: HashMap<HeadKey, Vec<usize>>,
    wildcard: Vec<usize>,
}

impl Intersection {
    /// Translates a context (one environment frame) memberwise and
    /// builds the head-constructor index.
    pub fn from_context(rules: &[RuleType]) -> Intersection {
        let mut buckets: HashMap<HeadKey, Vec<usize>> = HashMap::new();
        let mut wildcard = Vec::new();
        for (ix, rule) in rules.iter().enumerate() {
            match head_key(rule.head()) {
                HeadKey::Wildcard => wildcard.push(ix),
                key => buckets.entry(key).or_default().push(ix),
            }
        }
        Intersection {
            members: rules
                .iter()
                .map(|r| Member {
                    itype: translate_rule(r),
                    source: r.clone(),
                })
                .collect(),
            buckets,
            wildcard,
        }
    }

    /// Ascending indices of the concrete-headed members admitted for
    /// a target with the given key. A variable-headed target is
    /// matched only by variable-headed members: a rigid conclusion
    /// head can never unify with it.
    fn specific(&self, target_key: HeadKey) -> &[usize] {
        if target_key == HeadKey::Wildcard {
            &[]
        } else {
            self.buckets
                .get(&target_key)
                .map(Vec::as_slice)
                .unwrap_or(&[])
        }
    }
}

impl fmt::Display for Intersection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.members.is_empty() {
            return write!(f, "T"); // the empty intersection (top)
        }
        for (i, m) in self.members.iter().enumerate() {
            if i > 0 {
                write!(f, " & ")?;
            }
            match &m.itype {
                IType::Atom(_) => write!(f, "{}", m.itype)?,
                _ => write!(f, "({})", m.itype)?,
            }
        }
        Ok(())
    }
}

/// Translates a whole environment into a stack of intersections,
/// **innermost frame first** — index `i` here is the frame the
/// resolver's `RuleRef::Env { level: n − 1 − i, .. }` names in an
/// environment of `n` frames.
pub fn translate_env(env: &ImplicitEnv) -> Vec<Intersection> {
    env.frames_innermost_first()
        .map(|(_, rules)| Intersection::from_context(rules))
        .collect()
}

// ---------------------------------------------------------------------------
// Proof terms
// ---------------------------------------------------------------------------

/// Which intersection a modus-ponens step selected its member from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scope {
    /// Environment frame `i` (0 = innermost): [`RuleRef::Env`] at
    /// level `n − 1 − i` of an environment `n` frames deep.
    Env(usize),
    /// Assumption intersection pushed at recursion level `l` by the
    /// environment-extension policy, as in [`RuleRef::Extension`].
    Assumption(usize),
}

/// A premise proof inside an [`MpStep`].
#[derive(Clone, PartialEq, Debug)]
pub enum SubProof {
    /// The premise is α-present in the goal's own context and stays
    /// abstract — the subtyping axiom `π ≤ π` (partial resolution).
    Axiom {
        /// Position in the goal's context.
        index: usize,
        /// The premise type.
        rho: RuleType,
    },
    /// The premise was proved by a nested modus-ponens step.
    ModusPonens(Box<MpStep>),
}

/// One modus-ponens step: a member of the environment intersection
/// whose (instantiated) conclusion matches the goal head, plus proofs
/// of its instantiated premises.
#[derive(Clone, PartialEq, Debug)]
pub struct MpStep {
    /// The goal this step proves.
    pub goal: RuleType,
    /// The scope the member was selected from.
    pub scope: Scope,
    /// The member's position within its intersection.
    pub member: usize,
    /// The member's source rule (pre-instantiation).
    pub source: RuleType,
    /// Quantifier instantiation, in binder order.
    pub type_args: Vec<Type>,
    /// Premise proofs, in the member's stored premise order.
    pub premises: Vec<SubProof>,
}

impl MpStep {
    /// Number of modus-ponens steps in the proof (1 + recursive
    /// steps) — the analog of [`Resolution::steps`].
    pub fn steps(&self) -> usize {
        1 + self
            .premises
            .iter()
            .map(|p| match p {
                SubProof::Axiom { .. } => 0,
                SubProof::ModusPonens(s) => s.steps(),
            })
            .sum::<usize>()
    }

    /// `true` if any step selected from an assumption intersection
    /// (only possible under the environment-extension policy).
    pub fn uses_assumption(&self) -> bool {
        matches!(self.scope, Scope::Assumption(_))
            || self.premises.iter().any(|p| match p {
                SubProof::Axiom { .. } => false,
                SubProof::ModusPonens(s) => s.uses_assumption(),
            })
    }

    /// Converts the subtyping proof, found in an environment
    /// `env_depth` frames deep, into the logic resolver's derivation
    /// language. The conversion is structural and lossless: agreement
    /// tests compare `subtype_resolve(..).map(|s| s.to_resolution(n))`
    /// against [`crate::resolve::resolve`] with `==`.
    pub fn to_resolution(&self, env_depth: usize) -> Resolution {
        Resolution {
            query: self.goal.clone(),
            rule: match self.scope {
                Scope::Env(frame) => RuleRef::Env {
                    level: env_depth - 1 - frame,
                    index: self.member,
                },
                Scope::Assumption(level) => RuleRef::Extension {
                    level,
                    index: self.member,
                },
            },
            rule_type: self.source.clone(),
            type_args: self.type_args.clone(),
            premises: self
                .premises
                .iter()
                .map(|p| match p {
                    SubProof::Axiom { index, rho } => Premise::Assumed {
                        index: *index,
                        rho: rho.clone(),
                    },
                    SubProof::ModusPonens(s) => {
                        Premise::Derived(Rc::new(s.to_resolution(env_depth)))
                    }
                })
                .collect(),
            env_depth,
        }
    }
}

// ---------------------------------------------------------------------------
// The modus-ponens subtyping algorithm
// ---------------------------------------------------------------------------

/// Decides `Δ ≤ ρ` — whether the environment, read as an ordered
/// intersection, subsumes the queried rule type — and returns the
/// modus-ponens proof.
///
/// This is the fifth-leg entry point: structurally independent of
/// [`crate::resolve::resolve`] (no head-index buckets, no derivation
/// cache) yet in exact agreement with it on success, evidence (via
/// [`MpStep::to_resolution`]), and failure, for every
/// [`ResolutionPolicy`] including the environment-extension variant.
///
/// # Errors
///
/// Fails with the resolver's own [`ResolveError`] payloads: `Lookup`
/// when no member's conclusion matches (or matching is ambiguous
/// under the overlap policy), `DepthExceeded` when the proof would
/// exceed `policy.max_depth` modus-ponens nestings.
pub fn subtype_resolve(
    env: &ImplicitEnv,
    query: &RuleType,
    policy: &ResolutionPolicy,
) -> Result<MpStep, ResolveError> {
    let sigma = translate_env(env);
    subtype_resolve_translated(&sigma, query, policy)
}

/// [`subtype_resolve`] over a pre-translated environment (innermost
/// intersection first, as produced by [`translate_env`]). Lets
/// callers amortize translation across many queries.
///
/// # Errors
///
/// See [`subtype_resolve`].
pub fn subtype_resolve_translated(
    sigma: &[Intersection],
    query: &RuleType,
    policy: &ResolutionPolicy,
) -> Result<MpStep, ResolveError> {
    let mut assumptions: Vec<Intersection> = Vec::new();
    prove(
        sigma,
        &mut assumptions,
        query,
        policy,
        policy.max_depth,
        true,
    )
}

/// [`subtype_resolve_translated`] with the head-constructor pre-filter
/// disabled: every member of every intersection is scanned, exactly
/// as the resolver did before the index existed. Kept as the baseline
/// the indexed path is differentially tested against (same
/// derivations, same errors) and as the linear-scan leg of the B15
/// benchmark.
///
/// # Errors
///
/// See [`subtype_resolve`].
pub fn subtype_resolve_translated_scan(
    sigma: &[Intersection],
    query: &RuleType,
    policy: &ResolutionPolicy,
) -> Result<MpStep, ResolveError> {
    let mut assumptions: Vec<Intersection> = Vec::new();
    prove(
        sigma,
        &mut assumptions,
        query,
        policy,
        policy.max_depth,
        false,
    )
}

/// A selected member, instantiated: its position, source rule, type
/// arguments, and instantiated premises.
type Selected = (usize, RuleType, Vec<Type>, Vec<RuleType>);

/// A [`Selected`] member plus the scope it was committed to in.
type ScopedSelected = (Scope, usize, RuleType, Vec<Type>, Vec<RuleType>);

fn prove(
    sigma: &[Intersection],
    assumptions: &mut Vec<Intersection>,
    goal: &RuleType,
    policy: &ResolutionPolicy,
    fuel: usize,
    indexed: bool,
) -> Result<MpStep, ResolveError> {
    if fuel == 0 {
        return Err(ResolveError::DepthExceeded {
            query: goal.clone(),
            max_depth: policy.max_depth,
        });
    }

    let target = goal.head();
    let (scope, member, source, type_args, inst_premises) =
        select(sigma, assumptions, target, policy, indexed).map_err(|error| {
            ResolveError::Lookup {
                query: goal.clone(),
                error,
            }
        })?;

    // Premise proofs: α-present-in-goal premises close by the axiom
    // (partial resolution); the rest recurse, under the extension
    // policy with the goal's context pushed as the nearest
    // assumption intersection.
    let mut premises = Vec::with_capacity(inst_premises.len());
    for rho in &inst_premises {
        match alpha::context_position(goal.context(), rho) {
            Some(index) => premises.push(SubProof::Axiom {
                index,
                rho: rho.clone(),
            }),
            None => {
                let sub = if policy.env_extension {
                    assumptions.push(Intersection::from_context(goal.context()));
                    let sub = prove(sigma, assumptions, rho, policy, fuel - 1, indexed);
                    assumptions.pop();
                    sub
                } else {
                    prove(sigma, assumptions, rho, policy, fuel - 1, indexed)
                };
                premises.push(SubProof::ModusPonens(Box::new(sub?)));
            }
        }
    }

    Ok(MpStep {
        goal: goal.clone(),
        scope,
        member,
        source,
        type_args,
        premises,
    })
}

/// Selects the member whose conclusion proves `target`, scanning
/// assumption intersections innermost-first (extension policy only),
/// then environment intersections innermost-first. Commits to the
/// first intersection with any match; errors within an intersection
/// propagate (no fallthrough past an ambiguous scope — the resolver's
/// committed choice).
fn select(
    sigma: &[Intersection],
    assumptions: &[Intersection],
    target: &Type,
    policy: &ResolutionPolicy,
    indexed: bool,
) -> Result<ScopedSelected, LookupError> {
    if policy.env_extension {
        for (level_rev, inter) in assumptions.iter().rev().enumerate() {
            let level = assumptions.len() - 1 - level_rev;
            if let Some((ix, source, args, prems)) =
                select_in(inter, target, policy.overlap, indexed)?
            {
                return Ok((Scope::Assumption(level), ix, source, args, prems));
            }
        }
    }
    for (frame_ix, inter) in sigma.iter().enumerate() {
        if let Some((ix, source, args, prems)) = select_in(inter, target, policy.overlap, indexed)?
        {
            return Ok((Scope::Env(frame_ix), ix, source, args, prems));
        }
    }
    Err(LookupError::NoMatch(target.clone()))
}

/// One intersection's match-and-commit step. With `indexed` the
/// head-constructor index narrows the scan to members whose
/// conclusion head could unify with `target` (plus the
/// variable-headed members); without it every member is visited. Both
/// paths visit admitted members in ascending frame order, so matches —
/// and therefore selections, overlap candidate lists, and every other
/// observable — are identical.
fn select_in(
    inter: &Intersection,
    target: &Type,
    policy: OverlapPolicy,
    indexed: bool,
) -> Result<Option<Selected>, LookupError> {
    if indexed {
        let specific = inter.specific(head_key(target));
        if inter.wildcard.is_empty() {
            select_among(inter, specific.iter().copied(), target, policy)
        } else if specific.is_empty() {
            select_among(inter, inter.wildcard.iter().copied(), target, policy)
        } else {
            let merged = merge_sorted(specific, &inter.wildcard);
            select_among(inter, merged.into_iter(), target, policy)
        }
    } else {
        select_among(inter, 0..inter.members.len(), target, policy)
    }
}

/// Merges two ascending index slices into one ascending vector.
fn merge_sorted(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Matches `target` against the conclusions of the given members (in
/// ascending index order) and applies the 0/1/many commitment.
fn select_among(
    inter: &Intersection,
    indices: impl Iterator<Item = usize>,
    target: &Type,
    policy: OverlapPolicy,
) -> Result<Option<Selected>, LookupError> {
    // (member index, freshened source + θ); `None` for
    // quantifier-free members, whose freshening is the identity.
    let mut matches: Vec<(usize, Option<(RuleType, TySubst)>)> = Vec::new();
    for ix in indices {
        let m = &inter.members[ix];
        let (vars, _premises, concl) = m.itype.parts();
        if vars.is_empty() {
            if unify::match_type(concl, target, &[]).is_some() {
                matches.push((ix, None));
            }
        } else {
            // Freshen the quantifiers apart from the target. The
            // translation commutes with substitution, so freshening
            // the source and re-translating *is* freshening the
            // member's implication type.
            let (fresh, _) = freshen_rule(&m.source);
            let fit = translate_rule(&fresh);
            let (fvars, _, fconcl) = fit.parts();
            if let Some(theta) = unify::match_type(fconcl, target, fvars) {
                matches.push((ix, Some((fresh, theta))));
            }
        }
    }
    let (index, instance) = match matches.len() {
        0 => return Ok(None),
        1 => matches.pop().expect("len checked"),
        _ => match policy {
            OverlapPolicy::Forbid => return Err(overlap_error(inter, &matches, target)),
            OverlapPolicy::MostSpecific => match pick_most_specific(inter, &matches) {
                Some(winner_pos) => matches.swap_remove(winner_pos),
                None => return Err(overlap_error(inter, &matches, target)),
            },
        },
    };
    match instance {
        None => {
            let source = &inter.members[index].source;
            Ok(Some((
                index,
                source.clone(),
                Vec::new(),
                source.context().to_vec(),
            )))
        }
        Some((fresh, theta)) => {
            // Every quantifier must be determined by the match.
            let mut type_args = Vec::with_capacity(fresh.vars().len());
            for v in fresh.vars() {
                match theta.get(*v) {
                    Some(t) => type_args.push(t.clone()),
                    None => {
                        return Err(LookupError::AmbiguousInstantiation {
                            rule: inter.members[index].source.clone(),
                        })
                    }
                }
            }
            let inst_premises = theta.apply_context(fresh.context());
            Ok(Some((
                index,
                inter.members[index].source.clone(),
                type_args,
                inst_premises,
            )))
        }
    }
}

fn overlap_error(
    inter: &Intersection,
    matches: &[(usize, Option<(RuleType, TySubst)>)],
    target: &Type,
) -> LookupError {
    LookupError::Overlap {
        target: target.clone(),
        candidates: matches
            .iter()
            .map(|(ix, _)| inter.members[*ix].source.clone())
            .collect(),
    }
}

/// `m1` is at least as specific as `m2` when `m2`'s conclusion
/// matches `m1`'s (the conclusion of `m1` is an instance of `m2`'s).
fn member_at_least_as_specific(m1: &RuleType, m2: &RuleType) -> bool {
    let (f1, _) = freshen_rule(m1);
    let (f2, _) = freshen_rule(m2);
    let c1 = translate_rule(&f1);
    let c2 = translate_rule(&f2);
    let (_, _, a1) = c1.parts();
    let (vars2, _, a2) = c2.parts();
    unify::match_type(a2, a1, vars2).is_some()
}

fn pick_most_specific(
    inter: &Intersection,
    matches: &[(usize, Option<(RuleType, TySubst)>)],
) -> Option<usize> {
    'outer: for (i, (ixi, _)) in matches.iter().enumerate() {
        let ri = &inter.members[*ixi].source;
        for (j, (ixj, _)) in matches.iter().enumerate() {
            if i != j && !member_at_least_as_specific(ri, &inter.members[*ixj].source) {
                continue 'outer;
            }
        }
        // Tied with a non-α-equivalent rival that is also as specific
        // as everything ⇒ no *single* most specific member.
        for (j, (ixj, _)) in matches.iter().enumerate() {
            let rj = &inter.members[*ixj].source;
            if i != j && member_at_least_as_specific(rj, ri) && !alpha::alpha_eq(ri, rj) {
                return None;
            }
        }
        return Some(i);
    }
    None
}

// ---------------------------------------------------------------------------
// Termination and coherence guards on the translated forms
// ---------------------------------------------------------------------------

/// Appendix A termination conditions, recomputed on a translated
/// member: every premise conclusion strictly smaller than the
/// member's conclusion, no variable occurring more often in a premise
/// conclusion than in the member's, recursively. Reports the same
/// [`TerminationViolation`] payloads as
/// [`crate::termination::check_rule`] on the member's source.
///
/// # Errors
///
/// Returns the first violated condition.
pub fn check_member(member: &Member) -> Result<(), TerminationViolation> {
    check_itype(&member.itype, &member.source)
}

fn check_itype(it: &IType, source: &RuleType) -> Result<(), TerminationViolation> {
    let (vars, premises, concl) = it.parts();
    let head_size = concl.size();
    // Condition-1 variable set: the binders plus anything free, in
    // the same order as the source-level check (binders first).
    let mut all_vars: Vec<TyVar> = vars.to_vec();
    for v in it.ftv() {
        if !all_vars.contains(&v) {
            all_vars.push(v);
        }
    }
    for p in premises {
        let (pvars, _, patom) = p.parts();
        if patom.size() >= head_size {
            return Err(TerminationViolation::PremiseNotSmaller {
                rule: source.clone(),
                premise: itype_to_rule(p),
                premise_size: patom.size(),
                head_size,
            });
        }
        for &v in &all_vars {
            let p_occ = if pvars.contains(&v) {
                0 // the premise's own binders mask
            } else {
                patom.occurrences(v)
            };
            if p_occ > concl.occurrences(v) {
                return Err(TerminationViolation::VariableGrows {
                    rule: source.clone(),
                    premise: itype_to_rule(p),
                    var: v,
                });
            }
        }
        check_itype(p, &itype_to_rule(p))?;
    }
    Ok(())
}

/// [`check_member`] over every member of every intersection,
/// innermost intersection first — the analog of
/// [`crate::termination::check_env`].
///
/// # Errors
///
/// Returns the first violated condition.
pub fn check_translation(sigma: &[Intersection]) -> Result<(), TerminationViolation> {
    for inter in sigma {
        for m in &inter.members {
            check_member(m)?;
        }
    }
    Ok(())
}

/// The most general common instance of two member conclusions, if
/// their conclusions unify once freshened apart — the analog of
/// [`crate::coherence::common_instance`].
pub fn member_meet(m1: &Member, m2: &Member) -> Option<Type> {
    let (f1, _) = freshen_rule(&m1.source);
    let (f2, _) = freshen_rule(&m2.source);
    let c1 = translate_rule(&f1);
    let c2 = translate_rule(&f2);
    let (_, _, a1) = c1.parts();
    let (_, _, a2) = c2.parts();
    let theta = unify::mgu(a1, a2)?;
    Some(theta.apply_type(a1))
}

/// Pairwise non-overlap of an intersection's member conclusions —
/// the analog of [`crate::coherence::unique_instances`], with
/// identical error payloads.
///
/// # Errors
///
/// Returns the first overlapping pair with a witness instance.
pub fn unique_members(inter: &Intersection) -> Result<(), CoherenceError> {
    for (i, m1) in inter.members.iter().enumerate() {
        for m2 in &inter.members[i + 1..] {
            if let Some(witness) = member_meet(m1, m2) {
                return Err(CoherenceError::OverlappingInstances {
                    left: m1.source.clone(),
                    right: m2.source.clone(),
                    witness,
                });
            }
        }
    }
    Ok(())
}

/// Every overlapping member pair is covered by a member whose
/// conclusion is a renaming of their meet — the analog of
/// [`crate::coherence::exists_most_specific`], with identical error
/// payloads.
///
/// # Errors
///
/// Returns the first uncovered pair with their meet.
pub fn most_specific_members(inter: &Intersection) -> Result<(), CoherenceError> {
    for (i, m1) in inter.members.iter().enumerate() {
        for m2 in &inter.members[i + 1..] {
            let Some(meet) = member_meet(m1, m2) else {
                continue;
            };
            let covered = inter
                .members
                .iter()
                .any(|m| conclusion_is_variant_of(m, &meet));
            if !covered {
                return Err(CoherenceError::NoMostSpecific {
                    left: m1.source.clone(),
                    right: m2.source.clone(),
                    meet,
                });
            }
        }
    }
    Ok(())
}

/// The member's conclusion matches `ty` by a renaming only (every
/// quantifier maps to a distinct variable).
fn conclusion_is_variant_of(m: &Member, ty: &Type) -> bool {
    let (f, _) = freshen_rule(&m.source);
    let fit = translate_rule(&f);
    let (fvars, _, fconcl) = fit.parts();
    let Some(theta) = unify::match_type(fconcl, ty, fvars) else {
        return false;
    };
    let mut seen = BTreeSet::new();
    fvars.iter().all(|v| match theta.get(*v) {
        None => true,
        Some(Type::Var(w)) => seen.insert(*w),
        Some(_) => false,
    })
}

/// Query stability over the translated environment — the analog of
/// [`crate::coherence::query_stability`], with identical error
/// payloads: a non-ground query whose statically selected member
/// could be stolen by a unifiable conclusion in a *strictly nearer*
/// intersection is unstable.
///
/// # Errors
///
/// Returns [`CoherenceError::UnstableQuery`] naming the static winner
/// and the nearer rival.
pub fn stable_query(
    sigma: &[Intersection],
    query: &RuleType,
    policy: &ResolutionPolicy,
) -> Result<(), CoherenceError> {
    // The statically chosen member, by the same committed scan the
    // prover uses (environment scopes only, as in the source-level
    // check). Unresolvable or ambiguous queries are reported by
    // resolution itself.
    let mut winner: Option<(usize, RuleType)> = None;
    for (frame_ix, inter) in sigma.iter().enumerate() {
        match select_in(inter, query.head(), policy.overlap, true) {
            Ok(Some((_, source, _, _))) => {
                winner = Some((frame_ix, source));
                break;
            }
            Ok(None) => continue,
            Err(_) => return Ok(()),
        }
    }
    let Some((winner_frame, winner_rule)) = winner else {
        return Ok(());
    };
    if query.head().ftv().is_empty() {
        return Ok(()); // ground queries cannot be destabilized
    }
    for (frame_ix, inter) in sigma.iter().enumerate() {
        if frame_ix >= winner_frame {
            break;
        }
        for m in &inter.members {
            let (f, _) = freshen_rule(&m.source);
            let fit = translate_rule(&f);
            let (_, _, fconcl) = fit.parts();
            if unify::mgu(fconcl, query.head()).is_some() {
                return Err(CoherenceError::UnstableQuery {
                    query: query.clone(),
                    winner: winner_rule,
                    rival: m.source.clone(),
                });
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Query-site walking and engine cross-checking
// ---------------------------------------------------------------------------

/// Visits every `?(ρ)` query site of a term, maintaining the implicit
/// environment exactly as the type checker does (each `RuleAbs`
/// pushes its rule's context as the nearest frame for its body). The
/// callback receives the environment in force at the site and the
/// queried rule type.
///
/// This is the shared substrate of the differential fifth oracle leg:
/// the conformance harness, `implicitc --xcheck`, and the agreement
/// property tests all walk programs with it and [`cross_check`] each
/// site.
pub fn walk_query_sites(expr: &Expr, f: &mut impl FnMut(&ImplicitEnv, &RuleType)) {
    fn walk(env: &mut ImplicitEnv, e: &Expr, f: &mut impl FnMut(&ImplicitEnv, &RuleType)) {
        match e {
            Expr::Query(rho) => f(env, rho),
            Expr::RuleAbs(rho, body) => {
                env.push(rho.context().to_vec());
                walk(env, body, f);
                env.pop();
            }
            Expr::Lam(_, _, b) | Expr::UnOp(_, b) | Expr::Fst(b) | Expr::Snd(b) => {
                walk(env, b, f);
            }
            Expr::App(a, b) | Expr::BinOp(_, a, b) | Expr::Pair(a, b) | Expr::Cons(a, b) => {
                walk(env, a, f);
                walk(env, b, f);
            }
            Expr::TyApp(a, _) => walk(env, a, f),
            Expr::RuleApp(g, args) => {
                walk(env, g, f);
                for (a, _) in args {
                    walk(env, a, f);
                }
            }
            Expr::If(a, b, c) => {
                walk(env, a, f);
                walk(env, b, f);
                walk(env, c, f);
            }
            Expr::ListCase {
                scrut, nil, cons, ..
            } => {
                walk(env, scrut, f);
                walk(env, nil, f);
                walk(env, cons, f);
            }
            Expr::Fix(_, _, b) => walk(env, b, f),
            Expr::Make(_, _, fields) => {
                for (_, fe) in fields {
                    walk(env, fe, f);
                }
            }
            Expr::Proj(a, _) => walk(env, a, f),
            Expr::Inject(_, _, args) => {
                for a in args {
                    walk(env, a, f);
                }
            }
            Expr::Match(scrut, arms) => {
                walk(env, scrut, f);
                for arm in arms {
                    walk(env, &arm.body, f);
                }
            }
            Expr::Int(_)
            | Expr::Bool(_)
            | Expr::Str(_)
            | Expr::Unit
            | Expr::Var(_)
            | Expr::Nil(_) => {}
        }
    }
    let mut env = ImplicitEnv::new();
    walk(&mut env, expr, f);
}

/// Cross-checks the logic resolver against the subtyping resolver on
/// one query: both must succeed with structurally identical evidence
/// (via [`MpStep::to_resolution`]) or fail with identical errors.
///
/// Callers should use ample `max_depth`: the logic resolver's
/// derivation cache can conserve fuel on repeated sub-queries, so the
/// engines are only fuel-equivalent when neither runs out (or the
/// cache is off).
///
/// # Errors
///
/// Returns a human-readable description of the disagreement.
pub fn cross_check(
    env: &ImplicitEnv,
    query: &RuleType,
    policy: &ResolutionPolicy,
) -> Result<(), String> {
    let logic = crate::resolve::resolve(env, query, policy);
    let sub = subtype_resolve(env, query, policy);
    match (logic, sub) {
        (Ok(r), Ok(s)) => {
            let converted = s.to_resolution(env.depth());
            if *r == converted {
                Ok(())
            } else {
                Err(format!(
                    "evidence differs for `{query}`:\n{}\nvs subtyping\n{}",
                    r.explain(),
                    converted.explain()
                ))
            }
        }
        (Err(le), Err(se)) => {
            if le == se {
                Ok(())
            } else {
                Err(format!(
                    "errors differ for `{query}`: logic `{le}` vs subtyping `{se}`"
                ))
            }
        }
        (Ok(r), Err(se)) => Err(format!(
            "logic resolves `{query}` ({} steps) but subtyping fails: {se}",
            r.steps()
        )),
        (Err(le), Ok(s)) => Err(format!(
            "subtyping resolves `{query}` ({} steps) but logic fails: {le}",
            s.steps()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve::resolve;
    use crate::symbol::Symbol;
    use crate::{coherence, termination};

    fn v(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn tv(s: &str) -> Type {
        Type::var(v(s))
    }

    fn check_agreement(env: &ImplicitEnv, query: &RuleType, policy: &ResolutionPolicy) {
        let logic = resolve(env, query, policy);
        let sub = subtype_resolve(env, query, policy);
        match (logic, sub) {
            (Ok(r), Ok(s)) => assert_eq!(
                *r,
                s.to_resolution(env.depth()),
                "evidence mismatch for {query}"
            ),
            (Err(le), Err(se)) => assert_eq!(le, se, "error mismatch for {query}"),
            (l, s) => panic!("outcome mismatch for {query}: logic {l:?} vs subtyping {s:?}"),
        }
    }

    #[test]
    fn translation_round_trips() {
        let rules = vec![
            Type::Int.promote(),
            RuleType::mono(vec![Type::Int.promote()], Type::Bool),
            RuleType::new(
                vec![v("a")],
                vec![Type::var(v("a")).promote()],
                Type::prod(tv("a"), tv("a")),
            ),
            // Higher-order premise: {{Int} ⇒ Bool} ⇒ Str
            RuleType::mono(
                vec![RuleType::mono(vec![Type::Int.promote()], Type::Bool)],
                Type::Str,
            ),
        ];
        for rho in &rules {
            assert_eq!(&itype_to_rule(&translate_rule(rho)), rho);
        }
    }

    #[test]
    fn simple_and_recursive_queries_agree() {
        let env = ImplicitEnv::with_frame(vec![
            Type::Int.promote(),
            RuleType::mono(vec![Type::Int.promote()], Type::Bool),
            RuleType::mono(vec![Type::Bool.promote()], Type::Str),
        ]);
        for policy in [
            ResolutionPolicy::paper(),
            ResolutionPolicy::paper().without_cache(),
            ResolutionPolicy::paper().with_most_specific(),
        ] {
            check_agreement(&env, &Type::Str.promote(), &policy);
            check_agreement(&env, &Type::Bool.promote(), &policy);
            check_agreement(&env, &Type::Unit.promote(), &policy); // NoMatch
        }
    }

    #[test]
    fn polymorphic_instantiation_agrees() {
        // ∀a. {a} ⇒ a × a, plus Int — the paper's pair example.
        let env = ImplicitEnv::with_frame(vec![
            Type::Int.promote(),
            RuleType::new(
                vec![v("a")],
                vec![Type::var(v("a")).promote()],
                Type::prod(tv("a"), tv("a")),
            ),
        ]);
        let query = Type::prod(Type::Int, Type::Int).promote();
        let policy = ResolutionPolicy::paper();
        check_agreement(&env, &query, &policy);
        let proof = subtype_resolve(&env, &query, &policy).unwrap();
        assert_eq!(proof.type_args, vec![Type::Int]);
        assert_eq!(proof.steps(), 2);
    }

    #[test]
    fn partial_resolution_closes_by_axiom() {
        // Query {Int} ⇒ Bool against {Int} ⇒ Bool: the Int premise is
        // α-present in the query's own context and stays abstract.
        let env =
            ImplicitEnv::with_frame(vec![RuleType::mono(vec![Type::Int.promote()], Type::Bool)]);
        let query = RuleType::mono(vec![Type::Int.promote()], Type::Bool);
        let policy = ResolutionPolicy::paper();
        check_agreement(&env, &query, &policy);
        let proof = subtype_resolve(&env, &query, &policy).unwrap();
        assert!(matches!(
            proof.premises[0],
            SubProof::Axiom { index: 0, .. }
        ));
    }

    #[test]
    fn no_backtracking_commits_and_gets_stuck() {
        // Nearest frame's {Bool} ⇒ Str shadows the resolvable outer
        // one; Bool is unresolvable, and neither engine backtracks.
        let mut env = ImplicitEnv::with_frame(vec![Type::Str.promote()]);
        env.push(vec![RuleType::mono(vec![Type::Bool.promote()], Type::Str)]);
        let policy = ResolutionPolicy::paper();
        check_agreement(&env, &Type::Str.promote(), &policy);
        let err = subtype_resolve(&env, &Type::Str.promote(), &policy).unwrap_err();
        match err {
            ResolveError::Lookup { query, error } => {
                assert_eq!(query, Type::Bool.promote());
                assert_eq!(error, LookupError::NoMatch(Type::Bool));
            }
            other => panic!("expected stuck lookup, got {other}"),
        }
    }

    #[test]
    fn env_extension_agrees_including_assumption_levels() {
        // {Bool} ⇒ Int resolvable as the *rule query* {Bool} ⇒ Int
        // only by assuming Bool during recursion.
        let env =
            ImplicitEnv::with_frame(vec![RuleType::mono(vec![Type::Bool.promote()], Type::Int)]);
        let query = RuleType::mono(vec![Type::Bool.promote()], Type::Int);
        let ext = ResolutionPolicy::paper().with_env_extension();
        check_agreement(&env, &query, &ext);
        // And a two-level variant through an intermediate rule.
        let env2 = ImplicitEnv::with_frame(vec![
            RuleType::mono(vec![Type::Bool.promote()], Type::Int),
            RuleType::mono(vec![Type::Int.promote()], Type::Str),
        ]);
        let query2 = RuleType::mono(vec![Type::Bool.promote()], Type::Str);
        check_agreement(&env2, &query2, &ext);
        let proof = subtype_resolve(&env2, &query2, &ext).unwrap();
        assert!(proof.uses_assumption());
    }

    #[test]
    fn fuel_exhaustion_reports_the_same_subquery() {
        // {Int} ⇒ Int loops; both engines burn fuel identically
        // (compare cache-off, since a cache hit conserves fuel).
        let env =
            ImplicitEnv::with_frame(vec![RuleType::mono(vec![Type::Int.promote()], Type::Int)]);
        let policy = ResolutionPolicy::paper().without_cache().with_max_depth(7);
        check_agreement(&env, &Type::Int.promote(), &policy);
    }

    #[test]
    fn overlap_and_ambiguity_payloads_agree() {
        let overlapping = ImplicitEnv::with_frame(vec![
            RuleType::new(vec![v("a")], vec![], Type::arrow(tv("a"), Type::Int)),
            RuleType::new(vec![v("a")], vec![], Type::arrow(Type::Int, tv("a"))),
        ]);
        let q = Type::arrow(Type::Int, Type::Int).promote();
        check_agreement(&overlapping, &q, &ResolutionPolicy::paper());
        check_agreement(
            &overlapping,
            &q,
            &ResolutionPolicy::paper().with_most_specific(),
        );
        // Underdetermined quantifier: ∀a. Int (a unused).
        let ambiguous =
            ImplicitEnv::with_frame(vec![RuleType::new(vec![v("a")], vec![], Type::Int)]);
        check_agreement(&ambiguous, &Type::Int.promote(), &ResolutionPolicy::paper());
    }

    #[test]
    fn guards_match_source_level_checks() {
        // Termination: {Int × Int} ⇒ Int violates the size measure.
        let bad = RuleType::mono(vec![Type::prod(Type::Int, Type::Int).promote()], Type::Int);
        let member = Member {
            itype: translate_rule(&bad),
            source: bad.clone(),
        };
        assert_eq!(
            check_member(&member).unwrap_err(),
            termination::check_rule(&bad).unwrap_err()
        );
        // Variable growth: ∀a. {a × a} ⇒ (a × Int) × Int.
        let grows = RuleType::new(
            vec![v("a")],
            vec![Type::prod(tv("a"), tv("a")).promote()],
            Type::prod(Type::prod(tv("a"), Type::Int), Type::Int),
        );
        let gm = Member {
            itype: translate_rule(&grows),
            source: grows.clone(),
        };
        assert_eq!(
            check_member(&gm).unwrap_err(),
            termination::check_rule(&grows).unwrap_err()
        );
        // Coherence: overlapping conclusions with a witness.
        let r1 = RuleType::new(vec![v("a")], vec![], Type::arrow(tv("a"), Type::Int));
        let r2 = RuleType::new(vec![v("a")], vec![], Type::arrow(Type::Int, tv("a")));
        let inter = Intersection::from_context(&[r1.clone(), r2.clone()]);
        assert_eq!(
            unique_members(&inter).unwrap_err(),
            coherence::unique_instances(&[r1.clone(), r2.clone()]).unwrap_err()
        );
        assert_eq!(
            most_specific_members(&inter).unwrap_err(),
            coherence::exists_most_specific(&[r1, r2]).unwrap_err()
        );
    }

    #[test]
    fn indexed_prefilter_agrees_with_full_scan() {
        // A frame mixing rigid heads, a variable-headed (wildcard)
        // member, and an unresolvable premise chain, plus an outer
        // frame — exercises bucket hits, bucket misses with wildcard
        // fallback, and merged candidate ordering.
        let mut env = ImplicitEnv::with_frame(vec![
            Type::Str.promote(),
            RuleType::new(vec![v("a")], vec![Type::var(v("a")).promote()], tv("a")),
        ]);
        env.push(vec![
            Type::Int.promote(),
            RuleType::mono(vec![Type::Int.promote()], Type::Bool),
            RuleType::new(
                vec![v("a")],
                vec![Type::var(v("a")).promote()],
                Type::prod(tv("a"), tv("a")),
            ),
            RuleType::mono(vec![Type::Unit.promote()], Type::list(Type::Int)),
        ]);
        let sigma = translate_env(&env);
        let queries = [
            Type::Int.promote(),
            Type::Bool.promote(),
            Type::Str.promote(),
            Type::prod(Type::Int, Type::Int).promote(),
            Type::prod(Type::Bool, Type::Bool).promote(),
            Type::list(Type::Int).promote(), // stuck on Unit
            Type::arrow(Type::Int, Type::Bool).promote(), // wildcard only
            tv("zz_free").promote(),         // variable-headed target
        ];
        // Depth-capped: the wildcard member loops on variable-headed
        // targets, and the default 512 frames of `prove` outgrow the
        // debug-profile test stack.
        for policy in [
            ResolutionPolicy::paper().with_max_depth(64),
            ResolutionPolicy::paper()
                .with_most_specific()
                .with_max_depth(64),
            ResolutionPolicy::paper()
                .with_env_extension()
                .with_max_depth(64),
            ResolutionPolicy::paper().with_max_depth(3),
        ] {
            for q in &queries {
                let indexed = subtype_resolve_translated(&sigma, q, &policy);
                let scan = subtype_resolve_translated_scan(&sigma, q, &policy);
                assert_eq!(indexed, scan, "indexed/scan divergence for {q}");
            }
        }
        // Overlap error payloads (candidate order) must also agree.
        let overlapping = translate_env(&ImplicitEnv::with_frame(vec![
            RuleType::new(vec![v("a")], vec![], Type::arrow(tv("a"), Type::Int)),
            RuleType::new(vec![v("a")], vec![], Type::arrow(Type::Int, tv("a"))),
        ]));
        let q = Type::arrow(Type::Int, Type::Int).promote();
        let policy = ResolutionPolicy::paper();
        assert_eq!(
            subtype_resolve_translated(&overlapping, &q, &policy),
            subtype_resolve_translated_scan(&overlapping, &q, &policy),
        );
    }

    #[test]
    fn stability_guard_matches_source_level_check() {
        let mut env = ImplicitEnv::with_frame(vec![RuleType::new(
            vec![v("b")],
            vec![],
            Type::prod(tv("b"), Type::Int),
        )]);
        env.push(vec![Type::prod(Type::Int, Type::Int).promote()]);
        let sigma = translate_env(&env);
        let policy = ResolutionPolicy::paper();
        // Free query a × Int: unstable, same payload both ways.
        let free = Type::prod(tv("zz_free"), Type::Int).promote();
        assert_eq!(
            stable_query(&sigma, &free, &policy).unwrap_err(),
            coherence::query_stability(&env, &free, &policy).unwrap_err()
        );
        // Ground query: stable both ways.
        let ground = Type::prod(Type::Int, Type::Int).promote();
        assert!(stable_query(&sigma, &ground, &policy).is_ok());
        assert!(coherence::query_stability(&env, &ground, &policy).is_ok());
    }
}
