//! # `implicit-elab` — type-directed elaboration of λ⇒ into System F
//!
//! The paper's dynamic semantics (§4, Figure "Type-directed
//! Translation to System F"): implicit contexts become explicit
//! λ-parameters, rule-type quantifiers become `Λ` binders, and every
//! query is resolved *statically* to System F evidence — Wadler &
//! Blott's dictionary-passing translation, generalized to arbitrary
//! types.
//!
//! The crate exposes
//!
//! * [`translate_type`] — the type translation `|·|`
//!   (`|∀ᾱ.{ρ₁,…,ρₙ} ⇒ τ| = ∀ᾱ.|ρ₁| → … → |ρₙ| → |τ|`);
//! * [`Elaborator`] — the main judgment
//!   `Γ ∣ Δ ⊢ e : τ ⇝ E`, including the resolution-with-evidence
//!   judgment `Δ ⊢r ρ ⇝ E` (rule `TrRes`);
//! * [`elaborate`] / [`run`] — whole-program convenience wrappers;
//! * [`check_preservation`] — an executable instance of the paper's
//!   type-preservation theorem: elaborate, then type-check the output
//!   in System F and compare against `|τ|`.
//!
//! ```
//! use implicit_core::parse::parse_expr;
//! use implicit_core::syntax::Declarations;
//! use implicit_elab::run;
//!
//! // §2, E1: returns (2, false).
//! let e = parse_expr(
//!     "implicit {1 : Int, true : Bool} in (?(Int) + 1, not ?(Bool)) : Int * Bool",
//! ).unwrap();
//! let out = run(&Declarations::new(), &e).unwrap();
//! assert_eq!(out.value.to_string(), "(2, false)");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Error enums carry full types/rule types for precise diagnostics;
// they are constructed on cold paths only, so the large-Err lint's
// boxing advice would cost clarity for no measurable gain.
#![allow(clippy::result_large_err)]

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::rc::Rc;

use implicit_core::alpha;
use implicit_core::env::ImplicitEnv;
use implicit_core::intern::{self, InternSnapshot, RuleId};
use implicit_core::resolve::{
    derivation_within, resolve, Premise, Resolution, ResolutionPolicy, RuleRef,
};
use implicit_core::subst::TySubst;
use implicit_core::symbol::{base_name, fresh, Symbol};
use implicit_core::syntax::{Declarations, Expr, RuleType, TyVar, Type, UnOp};
use implicit_core::trace::TraceEvent;
use implicit_core::typeck::{types_equal, TypeError};
use systemf::eval::{EvalError, Evaluator, Value};
use systemf::syntax::{FDeclarations, FExpr, FInterfaceDecl, FType};
use systemf::typeck::FTypeError;

/// An elaboration error.
#[derive(Clone, Debug)]
#[allow(clippy::large_enum_variant)] // cold path; precision over size
pub enum ElabError {
    /// The source program is ill-typed.
    Type(TypeError),
    /// The resolution derivation uses the environment-extension
    /// policy, for which no evidence exists (§3.2: "we do not have
    /// any value-level evidence for π").
    ExtensionNotElaborable,
}

impl fmt::Display for ElabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElabError::Type(e) => write!(f, "{e}"),
            ElabError::ExtensionNotElaborable => f.write_str(
                "resolution used the environment-extension rule, which has no evidence \
                 translation",
            ),
        }
    }
}

impl std::error::Error for ElabError {}

impl From<TypeError> for ElabError {
    fn from(e: TypeError) -> ElabError {
        ElabError::Type(e)
    }
}

/// The type translation `|τ|` (Figure "Type-directed Translation").
///
/// Rule types become quantified curried function types over the
/// translated context (in its canonical order); an empty context
/// contributes no parameters.
pub fn translate_type(ty: &Type) -> FType {
    match ty {
        Type::Var(a) => FType::Var(*a),
        Type::Int => FType::Int,
        Type::Bool => FType::Bool,
        Type::Str => FType::Str,
        Type::Unit => FType::Unit,
        Type::Arrow(a, b) => FType::arrow(translate_type(a), translate_type(b)),
        Type::Prod(a, b) => FType::prod(translate_type(a), translate_type(b)),
        Type::List(a) => FType::list(translate_type(a)),
        Type::Con(n, args) => FType::Con(*n, args.iter().map(translate_type).collect()),
        Type::VarApp(f, args) => FType::VarApp(*f, args.iter().map(translate_type).collect()),
        Type::Ctor(c) => FType::Ctor(*c),
        Type::Rule(r) => translate_rule_type(r),
    }
}

/// `|∀ᾱ.{ρ₁,…,ρₙ} ⇒ τ| = ∀ᾱ.|ρ₁| → … → |ρₙ| → |τ|`.
pub fn translate_rule_type(rho: &RuleType) -> FType {
    let body = FType::arrows(
        rho.context().iter().map(translate_rule_type),
        translate_type(rho.head()),
    );
    FType::forall(rho.vars().iter().copied(), body)
}

/// Translates the interface and data declarations.
pub fn translate_decls(decls: &Declarations) -> FDeclarations {
    let mut out = FDeclarations::new();
    for d in decls.iter() {
        out.declare(FInterfaceDecl {
            name: d.name,
            vars: d.vars.clone(),
            fields: d
                .fields
                .iter()
                .map(|(u, t)| (*u, translate_type(t)))
                .collect(),
        });
    }
    for d in decls.iter_datas() {
        out.declare_data(systemf::syntax::FDataDecl {
            name: d.name,
            params: d.params.iter().map(|(v, _)| *v).collect(),
            ctors: d
                .ctors
                .iter()
                .map(|(c, tys)| (*c, tys.iter().map(translate_type).collect()))
                .collect(),
        });
    }
    out
}

/// A session-lifetime **dictionary inline cache** for implicit-query
/// sites — the dynamic analogue of the derivation cache.
///
/// A warm session owns one of these (shared with its [`Elaborator`]
/// via [`Elaborator::set_dict_cache`]). When an implicit query is
/// *ground and context-free* — its evidence is a plain first-order
/// value, not a `Λ`/`λ` abstraction — and its resolution commits only
/// to prelude-frame rules, the session may *promote* the evaluated
/// evidence to a compiled-backend global; later elaborations of the
/// same query (keyed by interned [`RuleId`]) then emit a single
/// global load instead of rebuilding and re-evaluating the evidence
/// term.
///
/// Correctness hinges on the hit condition: a hit requires the
/// *current* resolution of the query (resolution always runs; it is
/// cheap under the derivation cache) to still be prelude-pure
/// ([`derivation_within`]). A program that shadows a prelude rule
/// resolves to its own deeper frame, fails that check, and gets
/// fresh evidence — so rollback of per-program frames needs no
/// explicit invalidation sweep. Entries are keyed by interned ids,
/// which an arena trim can orphan; [`DictCache::retain_covered`]
/// drops exactly the entries a truncation would dangle (ids below
/// the watermark are stable across truncation).
#[derive(Default, Debug)]
pub struct DictCache {
    /// Environment depth of the session prelude: a derivation is
    /// promotable iff it only references frames below this.
    prelude_depth: usize,
    /// Promoted queries: interned query id → evidence global.
    entries: HashMap<RuleId, Symbol>,
    /// Evidence awaiting promotion, recorded at miss time and drained
    /// by the session after the program's code extension rolls back.
    pending: Vec<(RuleType, FExpr)>,
    /// Bumped by every change to `entries`; see [`DictCache::version`].
    version: u64,
    hits: u64,
    misses: u64,
}

impl DictCache {
    /// An empty cache for a prelude `prelude_depth` frames deep.
    pub fn new(prelude_depth: usize) -> DictCache {
        DictCache {
            prelude_depth,
            ..DictCache::default()
        }
    }

    /// `true` for queries whose evidence a dictionary global can
    /// stand in for: no quantifiers, no context (evidence is not an
    /// abstraction), and a ground head (no free type variables, so
    /// one interned id names one semantic query).
    pub fn cacheable(rho: &RuleType) -> bool {
        rho.vars().is_empty() && rho.context().is_empty() && intern::rule_is_ground(rho)
    }

    /// Number of promoted entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing has been promoted yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(hits, misses)` counted over cacheable query sites.
    pub fn counters(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// The promoted global for `rho`, if any, counting a hit.
    fn lookup_hit(&mut self, id: RuleId) -> Option<Symbol> {
        let g = self.entries.get(&id).copied();
        if g.is_some() {
            self.hits += 1;
        }
        g
    }

    /// Registers a promoted evidence global for `rho`.
    pub fn insert(&mut self, rho: &RuleType, global: Symbol) {
        self.entries.insert(intern::rule_id(rho), global);
        self.version += 1;
    }

    /// Version stamp of the promoted entries: bumped by every insert,
    /// import and [`DictCache::retain_covered`] removal, and by nothing
    /// else (hits, misses and pending evidence leave it alone). A
    /// warm session promotes a global with every insert, so the stamp
    /// also covers the promoted globals.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Drains the evidence recorded for promotion since the last
    /// call, deduplicated by query id (a program may contain the same
    /// query site many times).
    pub fn take_pending(&mut self) -> Vec<(RuleType, FExpr)> {
        let mut seen: std::collections::HashSet<RuleId> = std::collections::HashSet::new();
        std::mem::take(&mut self.pending)
            .into_iter()
            .filter(|(rho, _)| {
                let id = intern::rule_id(rho);
                seen.insert(id) && !self.entries.contains_key(&id)
            })
            .collect()
    }

    /// The prelude depth this cache was created for.
    pub fn prelude_depth(&self) -> usize {
        self.prelude_depth
    }

    /// Exports promoted entries as `(query, global)` pairs for
    /// session artifacts, sorted by global name so the export is
    /// deterministic. Entries whose interned id `snap` does not cover
    /// are skipped (they name program-local queries).
    pub fn export_entries(&self, snap: &InternSnapshot) -> Vec<(RuleType, Symbol)> {
        let mut out: Vec<(RuleType, Symbol)> = self
            .entries
            .iter()
            .filter(|(id, _)| snap.covers_rule(**id))
            .filter_map(|(id, g)| intern::rule_of(*id).map(|rho| (rho, *g)))
            .collect();
        out.sort_by_key(|(_, g)| g.as_str());
        out
    }

    /// Imports entries exported by [`DictCache::export_entries`].
    /// Counters and pending promotions are untouched.
    pub fn import_entries(&mut self, entries: Vec<(RuleType, Symbol)>) {
        for (rho, g) in entries {
            self.insert(&rho, g);
        }
    }

    /// Drops entries whose interned query id a truncation to `snap`
    /// would orphan. Must be called *before* the truncation, while
    /// the ids still index the live arena; surviving ids are stable
    /// because truncation keeps a prefix.
    pub fn retain_covered(&mut self, snap: &InternSnapshot) {
        let before = self.entries.len();
        self.entries.retain(|id, _| snap.covers_rule(*id));
        if self.entries.len() != before {
            self.version += 1;
        }
        self.pending.clear();
    }
}

/// The elaborator: a combined type checker and translator
/// implementing `Γ ∣ Δ ⊢ e : τ ⇝ E`.
pub struct Elaborator<'d> {
    decls: &'d Declarations,
    policy: ResolutionPolicy,
    trace: Option<implicit_core::trace::SharedSink>,
    /// Dictionary inline cache, installed by a warm session's
    /// compiled path (see [`DictCache`]).
    dict: Option<Rc<RefCell<DictCache>>>,
}

struct State {
    gamma: Vec<(Symbol, Type)>,
    /// Resolution environment (types only).
    delta: ImplicitEnv,
    /// Evidence variables, frame-aligned with `delta`: outermost
    /// first, entries in the stored (canonical) context order.
    evidence: Vec<Vec<Symbol>>,
    tyvars: BTreeSet<TyVar>,
    /// Arities of in-scope type variables (absent = kind `*`).
    kinds: std::collections::BTreeMap<TyVar, usize>,
}

impl State {
    /// Evidence variable for `RuleRef::Env { level, index }`.
    fn evidence_var(&self, level: usize, index: usize) -> Option<Symbol> {
        self.evidence.get(level)?.get(index).copied()
    }
}

impl<'d> Elaborator<'d> {
    /// An elaborator with the paper's default resolution policy.
    pub fn new(decls: &'d Declarations) -> Elaborator<'d> {
        Elaborator {
            decls,
            policy: ResolutionPolicy::paper(),
            trace: None,
            dict: None,
        }
    }

    /// An elaborator with a custom resolution policy.
    pub fn with_policy(decls: &'d Declarations, policy: ResolutionPolicy) -> Elaborator<'d> {
        Elaborator {
            decls,
            policy,
            trace: None,
            dict: None,
        }
    }

    /// Reports every resolution this elaborator performs as
    /// structured trace events through `sink` (see
    /// [`implicit_core::trace`]).
    pub fn with_trace(mut self, sink: implicit_core::trace::SharedSink) -> Elaborator<'d> {
        self.trace = Some(sink);
        self
    }

    /// Installs or clears the trace sink on an existing elaborator
    /// (the warm-session entry point).
    pub fn set_trace(&mut self, sink: Option<implicit_core::trace::SharedSink>) {
        self.trace = sink;
    }

    /// Installs or clears the dictionary inline cache. While a cache
    /// is attached, ground context-free queries whose resolution is
    /// prelude-pure elaborate to a promoted evidence global when the
    /// cache holds one (emitting [`TraceEvent::IcHit`]), and are
    /// recorded for promotion otherwise ([`TraceEvent::IcMiss`]).
    /// Only a session's *compiled* path should attach the cache: the
    /// promoted globals exist in the session compiler's global table,
    /// not in a tree-walker environment.
    pub fn set_dict_cache(&mut self, dict: Option<Rc<RefCell<DictCache>>>) {
        self.dict = dict;
    }

    /// Emits a dictionary-IC hit/miss marker through the trace sink.
    fn emit_ic(&self, hit: bool, rho: &RuleType) {
        if let Some(sink) = &self.trace {
            let mut sink = sink.clone();
            if implicit_core::trace::TraceSink::enabled(&sink) {
                let query = rho.to_string();
                implicit_core::trace::TraceSink::event(
                    &mut sink,
                    if hit {
                        TraceEvent::IcHit { query }
                    } else {
                        TraceEvent::IcMiss { query }
                    },
                );
            }
        }
    }

    /// Elaborates a closed expression, returning its λ⇒ type and its
    /// System F translation.
    ///
    /// # Errors
    ///
    /// [`ElabError::Type`] when the program is ill-typed or a query
    /// cannot be resolved; [`ElabError::ExtensionNotElaborable`] when
    /// the policy's environment extension was used.
    pub fn elaborate(&self, e: &Expr) -> Result<(Type, FExpr), ElabError> {
        let mut delta = ImplicitEnv::new();
        self.elaborate_with_env(&mut delta, &[], &[], e)
    }

    /// Elaborates `e` under a caller-owned implicit environment and
    /// term context — the warm-session entry point.
    ///
    /// `delta` is borrowed for the duration of the call and handed
    /// back with whatever its derivation cache learned, so a
    /// long-lived session reuses prelude-level derivations across
    /// programs (elaboration pushes and pops frames in a balanced
    /// way, and the cache's scope-aware invalidation keeps entries
    /// that only used surviving frames). `evidence` must be
    /// frame-aligned with `delta` (outermost first, entries in each
    /// frame's stored canonical context order): it supplies the
    /// System F evidence variable for every rule already in scope.
    /// `gamma` provides the types of free term variables (a prelude's
    /// `let` bindings).
    ///
    /// # Errors
    ///
    /// See [`Elaborator::elaborate`].
    ///
    /// # Panics
    ///
    /// Debug builds assert that `delta` and `evidence` have the same
    /// number of frames.
    pub fn elaborate_with_env(
        &self,
        delta: &mut ImplicitEnv,
        evidence: &[Vec<Symbol>],
        gamma: &[(Symbol, Type)],
        e: &Expr,
    ) -> Result<(Type, FExpr), ElabError> {
        debug_assert_eq!(
            delta.depth(),
            evidence.len(),
            "evidence frames must align with the implicit environment"
        );
        let mut st = State {
            gamma: gamma.to_vec(),
            delta: std::mem::take(delta),
            evidence: evidence.to_vec(),
            tyvars: BTreeSet::new(),
            kinds: std::collections::BTreeMap::new(),
        };
        let out = self.elab(&mut st, e);
        *delta = st.delta;
        out
    }

    fn elab(&self, st: &mut State, e: &Expr) -> Result<(Type, FExpr), ElabError> {
        match e {
            Expr::Int(n) => Ok((Type::Int, FExpr::Int(*n))),
            Expr::Bool(b) => Ok((Type::Bool, FExpr::Bool(*b))),
            Expr::Str(s) => Ok((Type::Str, FExpr::Str(s.clone()))),
            Expr::Unit => Ok((Type::Unit, FExpr::Unit)),
            Expr::Var(x) => {
                let t = st
                    .gamma
                    .iter()
                    .rev()
                    .find(|(y, _)| y == x)
                    .map(|(_, t)| t.clone())
                    .ok_or(TypeError::UnboundVar(*x))?;
                Ok((t, FExpr::Var(*x)))
            }
            Expr::Lam(x, t, body) => {
                st.gamma.push((*x, t.clone()));
                let out = self.elab(st, body);
                st.gamma.pop();
                let (bt, be) = out?;
                Ok((
                    Type::arrow(t.clone(), bt),
                    FExpr::Lam(*x, translate_type(t), be.into()),
                ))
            }
            Expr::App(f, a) => {
                let (tf, ef) = self.elab(st, f)?;
                let (ta, ea) = self.elab(st, a)?;
                match tf {
                    Type::Arrow(dom, cod) => {
                        if !types_equal(&dom, &ta) {
                            return Err(TypeError::Mismatch {
                                expected: (*dom).clone(),
                                found: ta,
                                context: "function application".into(),
                            }
                            .into());
                        }
                        Ok(((*cod).clone(), FExpr::app(ef, ea)))
                    }
                    other => Err(TypeError::NotAFunction(other).into()),
                }
            }
            Expr::Query(rho) => {
                if !rho.is_unambiguous() {
                    return Err(TypeError::Ambiguous(rho.clone()).into());
                }
                let res = match &self.trace {
                    Some(sink) => {
                        let mut sink = sink.clone();
                        implicit_core::resolve::resolve_with(
                            &st.delta,
                            rho,
                            &self.policy,
                            &mut sink,
                        )
                        .map_err(TypeError::from)?
                    }
                    None => resolve(&st.delta, rho, &self.policy).map_err(TypeError::from)?,
                };
                // Dictionary inline cache: resolution always runs
                // (cheap under the derivation cache, and its events
                // keep the trace stream IC-transparent); the cache
                // only decides whether the *evidence* is a promoted
                // global or a fresh term. The hit condition re-checks
                // prelude-purity of the current derivation, so a
                // program shadowing a prelude rule can never observe
                // a stale dictionary.
                if let Some(dict) = &self.dict {
                    if DictCache::cacheable(rho) {
                        let pure =
                            derivation_within(&res, st.delta.depth(), dict.borrow().prelude_depth);
                        if pure {
                            if let Some(g) = dict.borrow_mut().lookup_hit(intern::rule_id(rho)) {
                                self.emit_ic(true, rho);
                                return Ok((rho.to_type(), FExpr::Var(g)));
                            }
                        }
                        dict.borrow_mut().misses += 1;
                        self.emit_ic(false, rho);
                        if pure {
                            let ev = self.evidence_of(st, &res)?;
                            dict.borrow_mut().pending.push((rho.clone(), ev.clone()));
                            return Ok((rho.to_type(), ev));
                        }
                    }
                }
                let ev = self.evidence_of(st, &res)?;
                Ok((rho.to_type(), ev))
            }
            Expr::RuleAbs(rho, body) => {
                // Rename binders apart from anything in scope, as in
                // the type checker.
                let used: BTreeSet<TyVar> = st
                    .tyvars
                    .iter()
                    .copied()
                    .chain(st.gamma.iter().flat_map(|(_, t)| t.ftv()))
                    .chain(st.delta.ftv())
                    .collect();
                let (rho, body) = if rho.vars().iter().any(|v| used.contains(v)) {
                    let mut sub = TySubst::new();
                    let mut new_vars = Vec::new();
                    for v in rho.vars() {
                        if used.contains(v) {
                            let nv = fresh(base_name(*v));
                            sub.bind(*v, Type::Var(nv));
                            new_vars.push(nv);
                        } else {
                            new_vars.push(*v);
                        }
                    }
                    (
                        RuleType::new(
                            new_vars,
                            sub.apply_context(rho.context()),
                            sub.apply_type(rho.head()),
                        ),
                        sub.apply_expr(body),
                    )
                } else {
                    ((**rho).clone(), (**body).clone())
                };
                if !rho.is_unambiguous() {
                    return Err(TypeError::Ambiguous(rho.clone()).into());
                }
                // TrRule: Λᾱ. λ(x̄:|ρ̄|). E
                let ev_vars: Vec<Symbol> = rho.context().iter().map(|_| fresh("ev")).collect();
                let binder_kinds = implicit_core::typeck::infer_binder_kinds(self.decls, &rho)?;
                for v in rho.vars() {
                    st.tyvars.insert(*v);
                    st.kinds
                        .insert(*v, binder_kinds.get(v).copied().unwrap_or(0));
                }
                st.delta.push(rho.context().to_vec());
                st.evidence.push(ev_vars.clone());
                let out = self.elab(st, &body);
                st.evidence.pop();
                st.delta.pop();
                for v in rho.vars() {
                    st.tyvars.remove(v);
                    st.kinds.remove(v);
                }
                let (bt, be) = out?;
                if !types_equal(&bt, rho.head()) {
                    return Err(TypeError::Mismatch {
                        expected: rho.head().clone(),
                        found: bt,
                        context: "rule abstraction body".into(),
                    }
                    .into());
                }
                let lams = ev_vars
                    .iter()
                    .zip(rho.context())
                    .rev()
                    .fold(be, |acc, (x, r)| {
                        FExpr::Lam(*x, translate_rule_type(r), acc.into())
                    });
                let wrapped = FExpr::ty_abs(rho.vars().iter().copied(), lams);
                Ok((rho.to_type(), wrapped))
            }
            Expr::TyApp(f, args) => {
                let (tf, ef) = self.elab(st, f)?;
                let Type::Rule(rho) = tf else {
                    return Err(TypeError::NotARule(tf).into());
                };
                if rho.vars().len() != args.len() {
                    return Err(TypeError::ArityMismatch {
                        what: format!("type application of `{rho}`"),
                        expected: rho.vars().len(),
                        found: args.len(),
                    }
                    .into());
                }
                let fixed = coerce_type_arguments(self.decls, &rho, args)?;
                let theta = TySubst::bind_all(rho.vars(), &fixed);
                let out_ty = Type::rule(RuleType::new(
                    Vec::new(),
                    theta.apply_context(rho.context()),
                    theta.apply_type(rho.head()),
                ));
                let out_e = FExpr::ty_apps(ef, fixed.iter().map(translate_type));
                Ok((out_ty, out_e))
            }
            Expr::RuleApp(f, args) => {
                let (tf, ef) = self.elab(st, f)?;
                let Type::Rule(rho) = tf else {
                    return Err(TypeError::NotARule(tf).into());
                };
                if !rho.vars().is_empty() {
                    return Err(TypeError::PolymorphicRuleApplication((*rho).clone()).into());
                }
                // Elaborate each argument, then order them to match
                // the context (and thus the λ-binder order of the
                // rule's elaboration).
                let mut elaborated: Vec<(String, FExpr)> = Vec::with_capacity(args.len());
                for (arg, arho) in args {
                    let (got, ea) = self.elab(st, arg)?;
                    let want = arho.to_type();
                    if !types_equal(&got, &want) {
                        return Err(TypeError::Mismatch {
                            expected: want,
                            found: got,
                            context: "rule application argument".into(),
                        }
                        .into());
                    }
                    elaborated.push((alpha::canonical_key(arho), ea));
                }
                let supplied: Vec<RuleType> = args.iter().map(|(_, r)| r.clone()).collect();
                let mut ordered = Vec::with_capacity(rho.context().len());
                for want in rho.context() {
                    let key = alpha::canonical_key(want);
                    match elaborated.iter().position(|(k, _)| *k == key) {
                        Some(ix) => ordered.push(elaborated.remove(ix).1),
                        None => {
                            return Err(TypeError::ContextMismatch {
                                expected: rho.context().to_vec(),
                                supplied,
                            }
                            .into())
                        }
                    }
                }
                if !elaborated.is_empty() {
                    return Err(TypeError::ContextMismatch {
                        expected: rho.context().to_vec(),
                        supplied,
                    }
                    .into());
                }
                Ok((rho.head().clone(), FExpr::apps(ef, ordered)))
            }
            Expr::If(c, t, f) => {
                let (tc, ec) = self.elab(st, c)?;
                if !types_equal(&tc, &Type::Bool) {
                    return Err(TypeError::Mismatch {
                        expected: Type::Bool,
                        found: tc,
                        context: "if condition".into(),
                    }
                    .into());
                }
                let (tt, et) = self.elab(st, t)?;
                let (tf2, ef) = self.elab(st, f)?;
                if !types_equal(&tt, &tf2) {
                    return Err(TypeError::Mismatch {
                        expected: tt,
                        found: tf2,
                        context: "if branches".into(),
                    }
                    .into());
                }
                Ok((tt, FExpr::If(ec.into(), et.into(), ef.into())))
            }
            Expr::BinOp(op, a, b) => {
                let (ta, ea) = self.elab(st, a)?;
                let (tb, eb) = self.elab(st, b)?;
                let tout = check_binop(*op, ta, tb)?;
                Ok((tout, FExpr::BinOp(*op, ea.into(), eb.into())))
            }
            Expr::UnOp(op, a) => {
                let (ta, ea) = self.elab(st, a)?;
                let (dom, cod) = match op {
                    UnOp::Not => (Type::Bool, Type::Bool),
                    UnOp::Neg => (Type::Int, Type::Int),
                    UnOp::IntToStr => (Type::Int, Type::Str),
                };
                if !types_equal(&ta, &dom) {
                    return Err(TypeError::Mismatch {
                        expected: dom,
                        found: ta,
                        context: format!("operand of {op:?}"),
                    }
                    .into());
                }
                Ok((cod, FExpr::UnOp(*op, ea.into())))
            }
            Expr::Pair(a, b) => {
                let (ta, ea) = self.elab(st, a)?;
                let (tb, eb) = self.elab(st, b)?;
                Ok((Type::prod(ta, tb), FExpr::Pair(ea.into(), eb.into())))
            }
            Expr::Fst(a) => {
                let (ta, ea) = self.elab(st, a)?;
                match ta {
                    Type::Prod(l, _) => Ok(((*l).clone(), FExpr::Fst(ea.into()))),
                    other => Err(TypeError::NotAPair(other).into()),
                }
            }
            Expr::Snd(a) => {
                let (ta, ea) = self.elab(st, a)?;
                match ta {
                    Type::Prod(_, r) => Ok(((*r).clone(), FExpr::Snd(ea.into()))),
                    other => Err(TypeError::NotAPair(other).into()),
                }
            }
            Expr::Nil(t) => Ok((Type::list(t.clone()), FExpr::Nil(translate_type(t)))),
            Expr::Cons(h, t) => {
                let (th, eh) = self.elab(st, h)?;
                let (tt, et) = self.elab(st, t)?;
                match &tt {
                    Type::List(el) if types_equal(el, &th) => {
                        Ok((tt.clone(), FExpr::Cons(eh.into(), et.into())))
                    }
                    Type::List(el) => Err(TypeError::Mismatch {
                        expected: (**el).clone(),
                        found: th,
                        context: "cons head".into(),
                    }
                    .into()),
                    _ => Err(TypeError::NotAList(tt).into()),
                }
            }
            Expr::ListCase {
                scrut,
                nil,
                head,
                tail,
                cons,
            } => {
                let (ts, es) = self.elab(st, scrut)?;
                let Type::List(el) = ts else {
                    return Err(TypeError::NotAList(ts).into());
                };
                let (tn, en) = self.elab(st, nil)?;
                st.gamma.push((*head, (*el).clone()));
                st.gamma.push((*tail, Type::List(el)));
                let out = self.elab(st, cons);
                st.gamma.pop();
                st.gamma.pop();
                let (tc, ec) = out?;
                if !types_equal(&tn, &tc) {
                    return Err(TypeError::Mismatch {
                        expected: tn,
                        found: tc,
                        context: "case branches".into(),
                    }
                    .into());
                }
                Ok((
                    tn,
                    FExpr::ListCase {
                        scrut: es.into(),
                        nil: en.into(),
                        head: *head,
                        tail: *tail,
                        cons: ec.into(),
                    },
                ))
            }
            Expr::Fix(x, t, body) => {
                if !matches!(t, Type::Arrow(_, _) | Type::Rule(_)) {
                    return Err(TypeError::FixNotFunction(t.clone()).into());
                }
                st.gamma.push((*x, t.clone()));
                let out = self.elab(st, body);
                st.gamma.pop();
                let (tb, eb) = out?;
                if !types_equal(&tb, t) {
                    return Err(TypeError::Mismatch {
                        expected: t.clone(),
                        found: tb,
                        context: "fix body".into(),
                    }
                    .into());
                }
                Ok((t.clone(), FExpr::Fix(*x, translate_type(t), eb.into())))
            }
            Expr::Make(name, targs, fields) => {
                let decl = self
                    .decls
                    .lookup(*name)
                    .ok_or(TypeError::UnknownInterface(*name))?;
                if decl.vars.len() != targs.len() {
                    return Err(TypeError::ArityMismatch {
                        what: format!("interface `{name}`"),
                        expected: decl.vars.len(),
                        found: targs.len(),
                    }
                    .into());
                }
                if fields.len() != decl.fields.len() {
                    return Err(TypeError::BadRecordLiteral {
                        interface: *name,
                        reason: format!(
                            "expected {} field(s), found {}",
                            decl.fields.len(),
                            fields.len()
                        ),
                    }
                    .into());
                }
                let mut out_fields = Vec::with_capacity(fields.len());
                for (u, fe) in fields {
                    let want = decl.field_type(*u, targs).ok_or(TypeError::UnknownField {
                        interface: *name,
                        field: *u,
                    })?;
                    let (got, ee) = self.elab(st, fe)?;
                    if !types_equal(&got, &want) {
                        return Err(TypeError::Mismatch {
                            expected: want,
                            found: got,
                            context: format!("field `{u}` of `{name}`"),
                        }
                        .into());
                    }
                    out_fields.push((*u, ee));
                }
                Ok((
                    Type::Con(*name, targs.clone()),
                    FExpr::Make(
                        *name,
                        targs.iter().map(translate_type).collect(),
                        out_fields,
                    ),
                ))
            }
            Expr::Proj(rec, field) => {
                let (tr, er) = self.elab(st, rec)?;
                let Type::Con(name, targs) = tr else {
                    return Err(TypeError::NotARecord(tr).into());
                };
                let decl = self
                    .decls
                    .lookup(name)
                    .ok_or(TypeError::UnknownInterface(name))?;
                let t = decl
                    .field_type(*field, &targs)
                    .ok_or(TypeError::UnknownField {
                        interface: name,
                        field: *field,
                    })?;
                Ok((t, FExpr::Proj(er.into(), *field)))
            }
            Expr::Inject(ctor, targs, args) => self.elab_inject(st, *ctor, targs, args),
            Expr::Match(scrut, arms) => self.elab_match(st, scrut, arms),
        }
    }

    /// `Expr::Inject` elaboration, out of line to keep the recursive
    /// elaborator's stack frames small.
    #[inline(never)]
    fn elab_inject(
        &self,
        st: &mut State,
        ctor: Symbol,
        targs: &[Type],
        args: &[Expr],
    ) -> Result<(Type, FExpr), ElabError> {
        let (data, _) = self
            .decls
            .lookup_ctor(ctor)
            .ok_or(TypeError::UnknownCtor(ctor))?;
        let data = data.clone();
        if data.params.len() != targs.len() {
            return Err(TypeError::ArityMismatch {
                what: format!("data type `{}`", data.name),
                expected: data.params.len(),
                found: targs.len(),
            }
            .into());
        }
        // Coerce constructor-kind arguments (mirrors typeck).
        let fixed: Vec<Type> = data
            .params
            .iter()
            .zip(targs)
            .map(|((_, k), t)| match t {
                Type::Con(n, a) if *k > 0 && a.is_empty() => {
                    Type::Ctor(implicit_core::syntax::TyCon::Named(*n))
                }
                other => other.clone(),
            })
            .collect();
        let want = data
            .ctor_arg_types(ctor, &fixed)
            .expect("ctor just looked up");
        if want.len() != args.len() {
            return Err(TypeError::ArityMismatch {
                what: format!("constructor `{ctor}`"),
                expected: want.len(),
                found: args.len(),
            }
            .into());
        }
        let mut f_args = Vec::with_capacity(args.len());
        for (w, a) in want.iter().zip(args) {
            let (got, ea) = self.elab(st, a)?;
            if !types_equal(&got, w) {
                return Err(TypeError::Mismatch {
                    expected: w.clone(),
                    found: got,
                    context: format!("argument of constructor `{ctor}`"),
                }
                .into());
            }
            f_args.push(ea);
        }
        Ok((
            Type::Con(data.name, fixed.clone()),
            FExpr::Inject(ctor, fixed.iter().map(translate_type).collect(), f_args),
        ))
    }

    /// `Expr::Match` elaboration, out of line to keep the recursive
    /// elaborator's stack frames small.
    #[inline(never)]
    fn elab_match(
        &self,
        st: &mut State,
        scrut: &Expr,
        arms: &[implicit_core::syntax::MatchArm],
    ) -> Result<(Type, FExpr), ElabError> {
        let (ts, es) = self.elab(st, scrut)?;
        let Type::Con(name, targs) = &ts else {
            return Err(TypeError::NotAData(ts).into());
        };
        let Some(data) = self.decls.lookup_data(*name).cloned() else {
            return Err(TypeError::NotAData(ts.clone()).into());
        };
        let mut remaining: Vec<Symbol> = data.ctors.iter().map(|(c, _)| *c).collect();
        let mut result: Option<Type> = None;
        let mut f_arms = Vec::with_capacity(arms.len());
        for arm in arms {
            let Some(pos) = remaining.iter().position(|c| *c == arm.ctor) else {
                return Err(TypeError::BadMatch {
                    data: *name,
                    reason: format!("unexpected arm `{}`", arm.ctor),
                }
                .into());
            };
            remaining.remove(pos);
            let want = data
                .ctor_arg_types(arm.ctor, targs)
                .expect("arm ctor exists");
            if want.len() != arm.binders.len() {
                return Err(TypeError::BadMatch {
                    data: *name,
                    reason: format!("binder count for `{}`", arm.ctor),
                }
                .into());
            }
            for (b, w) in arm.binders.iter().zip(&want) {
                st.gamma.push((*b, w.clone()));
            }
            let out = self.elab(st, &arm.body);
            for _ in &arm.binders {
                st.gamma.pop();
            }
            let (got, eb) = out?;
            match &result {
                None => result = Some(got),
                Some(prev) if types_equal(prev, &got) => {}
                Some(prev) => {
                    return Err(TypeError::Mismatch {
                        expected: prev.clone(),
                        found: got,
                        context: "match arms".into(),
                    }
                    .into())
                }
            }
            f_arms.push(systemf::syntax::FMatchArm {
                ctor: arm.ctor,
                binders: arm.binders.clone(),
                body: eb,
            });
        }
        if !remaining.is_empty() {
            return Err(TypeError::BadMatch {
                data: *name,
                reason: "non-exhaustive match".into(),
            }
            .into());
        }
        let result = result.ok_or(TypeError::BadMatch {
            data: *name,
            reason: "empty match".into(),
        })?;
        Ok((result, FExpr::Match(es.into(), f_arms)))
    }

    /// Rule `TrRes`: turns a resolution derivation into System F
    /// evidence `Λᾱ. λ(x̄:|ρ̄|). (E Ē)`.
    fn evidence_of(&self, st: &State, res: &Resolution) -> Result<FExpr, ElabError> {
        // Fresh binders for the query's own (assumed) context.
        let binders: Vec<Symbol> = res.query.context().iter().map(|_| fresh("q")).collect();
        let body = self.evidence_body(st, res, &binders)?;
        let lams = binders
            .iter()
            .zip(res.query.context())
            .rev()
            .fold(body, |acc, (x, r)| {
                FExpr::Lam(*x, translate_rule_type(r), acc.into())
            });
        Ok(FExpr::ty_abs(res.query.vars().iter().copied(), lams))
    }

    fn evidence_body(
        &self,
        st: &State,
        res: &Resolution,
        binders: &[Symbol],
    ) -> Result<FExpr, ElabError> {
        let base_var = match res.rule {
            RuleRef::Env { level, index } => st
                .evidence_var(level, index)
                .expect("resolution refers to a frame the elaborator pushed"),
            RuleRef::Extension { .. } => return Err(ElabError::ExtensionNotElaborable),
        };
        // x |τ̄| — instantiate the rule's quantifiers…
        let base = FExpr::ty_apps(
            FExpr::Var(base_var),
            res.type_args.iter().map(translate_type),
        );
        // …then apply the premise evidence in the rule's stored
        // premise order.
        let mut args = Vec::with_capacity(res.premises.len());
        for p in &res.premises {
            match p {
                Premise::Assumed { index, .. } => args.push(FExpr::Var(binders[*index])),
                Premise::Derived(inner) => args.push(self.evidence_of(st, inner)?),
            }
        }
        Ok(FExpr::apps(base, args))
    }
}

/// Coerces type arguments to the kinds their quantifiers demand:
/// bare interface names given for arrow-kinded binders become
/// constructor references (mirroring the type checker).
fn coerce_type_arguments(
    decls: &Declarations,
    rho: &RuleType,
    args: &[Type],
) -> Result<Vec<Type>, TypeError> {
    use implicit_core::syntax::TyCon;
    let kinds = implicit_core::typeck::infer_binder_kinds(decls, rho)?;
    let mut out = Vec::with_capacity(args.len());
    for (v, arg) in rho.vars().iter().zip(args) {
        let k = kinds.get(v).copied().unwrap_or(0);
        let fixed = match (k, arg) {
            (0, _) => arg.clone(),
            (_, Type::Con(n, a)) if a.is_empty() => {
                let decl = decls.lookup(*n).ok_or(TypeError::UnknownInterface(*n))?;
                if decl.vars.len() != k {
                    return Err(TypeError::ArityMismatch {
                        what: format!("constructor `{n}`"),
                        expected: k,
                        found: decl.vars.len(),
                    });
                }
                Type::Ctor(TyCon::Named(*n))
            }
            (_, other) => other.clone(),
        };
        out.push(fixed);
    }
    Ok(out)
}

fn check_binop(op: implicit_core::syntax::BinOp, ta: Type, tb: Type) -> Result<Type, TypeError> {
    use implicit_core::syntax::BinOp::*;
    let err = |expected: Type, found: Type| TypeError::Mismatch {
        expected,
        found,
        context: format!("operand of `{}`", op.symbol()),
    };
    match op {
        Add | Sub | Mul | Div | Mod => {
            if !types_equal(&ta, &Type::Int) {
                return Err(err(Type::Int, ta));
            }
            if !types_equal(&tb, &Type::Int) {
                return Err(err(Type::Int, tb));
            }
            Ok(Type::Int)
        }
        Lt | Le => {
            if !types_equal(&ta, &Type::Int) {
                return Err(err(Type::Int, ta));
            }
            if !types_equal(&tb, &Type::Int) {
                return Err(err(Type::Int, tb));
            }
            Ok(Type::Bool)
        }
        And | Or => {
            if !types_equal(&ta, &Type::Bool) {
                return Err(err(Type::Bool, ta));
            }
            if !types_equal(&tb, &Type::Bool) {
                return Err(err(Type::Bool, tb));
            }
            Ok(Type::Bool)
        }
        Concat => {
            if !types_equal(&ta, &Type::Str) {
                return Err(err(Type::Str, ta));
            }
            if !types_equal(&tb, &Type::Str) {
                return Err(err(Type::Str, tb));
            }
            Ok(Type::Str)
        }
        Eq => {
            if !matches!(ta, Type::Int | Type::Bool | Type::Str) {
                return Err(err(Type::Int, ta));
            }
            if !types_equal(&ta, &tb) {
                return Err(err(ta, tb));
            }
            Ok(Type::Bool)
        }
    }
}

/// Elaborates a closed program with the paper's default policy.
///
/// # Errors
///
/// See [`Elaborator::elaborate`].
pub fn elaborate(decls: &Declarations, e: &Expr) -> Result<(Type, FExpr), ElabError> {
    Elaborator::new(decls).elaborate(e)
}

/// The output of a full run: elaborate, type-check in System F,
/// evaluate.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// The λ⇒ type of the source expression.
    pub source_type: Type,
    /// The System F elaboration.
    pub target: FExpr,
    /// The System F type of the elaboration.
    pub target_type: FType,
    /// The computed value.
    pub value: Value,
}

/// An error from [`run`].
#[derive(Clone, Debug)]
pub enum RunError {
    /// Elaboration failed.
    Elab(ElabError),
    /// The elaborated term was ill-typed in System F — a violation of
    /// the type-preservation theorem (a bug, if it ever happens).
    PreservationViolated(FTypeError),
    /// Evaluation failed.
    Eval(EvalError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Elab(e) => write!(f, "{e}"),
            RunError::PreservationViolated(e) => {
                write!(f, "type preservation violated: {e}")
            }
            RunError::Eval(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Elaborates, verifies type preservation, and evaluates (the paper's
/// `eval(e) = V` dynamic semantics).
///
/// # Errors
///
/// Returns a [`RunError`] describing which stage failed.
pub fn run(decls: &Declarations, e: &Expr) -> Result<RunOutput, RunError> {
    run_with(decls, e, &ResolutionPolicy::paper())
}

/// [`run`] under a custom resolution policy.
///
/// # Errors
///
/// Returns a [`RunError`] describing which stage failed.
pub fn run_with(
    decls: &Declarations,
    e: &Expr,
    policy: &ResolutionPolicy,
) -> Result<RunOutput, RunError> {
    let (source_type, target) = Elaborator::with_policy(decls, policy.clone())
        .elaborate(e)
        .map_err(RunError::Elab)?;
    let fdecls = translate_decls(decls);
    let target_type =
        systemf::typecheck(&fdecls, &target).map_err(RunError::PreservationViolated)?;
    let value = Evaluator::new().eval(&target).map_err(RunError::Eval)?;
    Ok(RunOutput {
        source_type,
        target,
        target_type,
        value,
    })
}

/// Executable type preservation (the paper's Theorem): elaborates
/// `e`, type-checks the System F output, and checks the result is
/// α-equal to `|τ|`.
///
/// # Errors
///
/// Returns a human-readable description of the first violated stage.
pub fn check_preservation(decls: &Declarations, e: &Expr) -> Result<(), String> {
    let (ty, fe) = elaborate(decls, e).map_err(|err| format!("elaboration failed: {err}"))?;
    let fdecls = translate_decls(decls);
    let fty = systemf::typecheck(&fdecls, &fe)
        .map_err(|err| format!("elaborated term ill-typed: {err}\nterm: {fe}"))?;
    let want = translate_type(&ty);
    if fty.alpha_eq(&want) {
        Ok(())
    } else {
        Err(format!(
            "elaborated type `{fty}` differs from translated type `{want}`"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use implicit_core::parse::parse_expr;
    use implicit_core::syntax::BinOp;

    fn v(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn tv(s: &str) -> Type {
        Type::var(v(s))
    }

    fn run0(src: &str) -> RunOutput {
        let e = parse_expr(src).unwrap();
        run(&Declarations::new(), &e).unwrap()
    }

    #[test]
    fn e1_returns_2_false() {
        let out = run0("implicit {1 : Int, true : Bool} in (?(Int) + 1, not ?(Bool)) : Int * Bool");
        assert_eq!(out.value.to_string(), "(2, false)");
        assert_eq!(out.target_type, FType::prod(FType::Int, FType::Bool));
    }

    #[test]
    fn e2_higher_order_returns_3_4() {
        let out = run0(
            "implicit {3 : Int, rule ({Int} => Int * Int) ((?(Int), ?(Int) + 1)) : {Int} => Int * Int} \
             in ?(Int * Int) : Int * Int",
        );
        assert_eq!(out.value.to_string(), "(3, 4)");
    }

    #[test]
    fn e3_polymorphic_rules() {
        let out = run0(
            "implicit {3 : Int, true : Bool, rule (forall a. {a} => a * a) ((?(a), ?(a))) : forall a. {a} => a * a} \
             in (?(Int * Int), ?(Bool * Bool)) : (Int * Int) * (Bool * Bool)",
        );
        assert_eq!(out.value.to_string(), "((3, 3), (true, true))");
    }

    #[test]
    fn e5_higher_order_polymorphic_composition() {
        let out = run0(
            "implicit {3 : Int, rule (forall a. {a} => a * a) ((?(a), ?(a))) : forall a. {a} => a * a} \
             in ?((Int * Int) * (Int * Int)) : (Int * Int) * (Int * Int)",
        );
        assert_eq!(out.value.to_string(), "((3, 3), (3, 3))");
    }

    #[test]
    fn e6_nested_scoping_returns_2() {
        let out = run0(
            "implicit {1 : Int} in \
               (implicit {true : Bool, rule ({Bool} => Int) (if ?(Bool) then 2 else 0) : {Bool} => Int} \
                in ?(Int) : Int) : Int",
        );
        assert_eq!(out.value.to_string(), "2");
    }

    #[test]
    fn e7_overlapping_rules_nearest_wins() {
        // Polymorphic values enter the environment as rule
        // abstractions with empty contexts (the paper's informal
        // `λx.x : ∀α.α→α`).
        let out = run0(
            "implicit {rule (forall a. a -> a) ((\\x : a. x)) : forall a. a -> a} in \
               (implicit {(\\n : Int. n + 1) : Int -> Int} in ?(Int -> Int) 1 : Int) : Int",
        );
        assert_eq!(out.value.to_string(), "2");
        let out2 = run0(
            "implicit {(\\n : Int. n + 1) : Int -> Int} in \
               (implicit {rule (forall a. a -> a) ((\\x : a. x)) : forall a. a -> a} in ?(Int -> Int) 1 : Int) : Int",
        );
        assert_eq!(out2.value.to_string(), "1");
    }

    #[test]
    fn paper_section4_elaboration_shape() {
        // rule(∀α.{α} ⇒ α×α)((?α,?α))  ⇝  Λα. λ(x:α). (x, x)
        let rho = RuleType::new(
            vec![v("alpha")],
            vec![tv("alpha").promote()],
            Type::prod(tv("alpha"), tv("alpha")),
        );
        let e = Expr::rule_abs(
            rho,
            Expr::pair(
                Expr::query_simple(tv("alpha")),
                Expr::query_simple(tv("alpha")),
            ),
        );
        let (_, fe) = elaborate(&Declarations::new(), &e).unwrap();
        match fe {
            FExpr::TyAbs(a, body) => match &*body {
                FExpr::Lam(x, FType::Var(b), inner) => {
                    assert_eq!(a, *b);
                    match &**inner {
                        FExpr::Pair(l, r) => {
                            assert_eq!(**l, FExpr::Var(*x));
                            assert_eq!(**r, FExpr::Var(*x));
                        }
                        other => panic!("unexpected pair body {other:?}"),
                    }
                }
                other => panic!("unexpected lambda {other:?}"),
            },
            other => panic!("unexpected elaboration {other:?}"),
        }
    }

    #[test]
    fn paper_section4_resolution_evidence_shape() {
        // Δ = Int:x1, (∀α.{α}⇒α×α):x2 ⊢r Int×Int ⇝ x2 Int x1.
        let out = run0(
            "implicit {7 : Int, rule (forall a. {a} => a * a) ((?(a), ?(a))) : forall a. {a} => a * a} \
             in ?(Int * Int) : Int * Int",
        );
        assert_eq!(out.value.to_string(), "(7, 7)");
        // The evidence appears as an application of the rule evidence
        // variable to the type argument and the Int evidence.
        let printed = out.target.to_string();
        assert!(
            printed.contains("[Int]"),
            "no type application in {printed}"
        );
    }

    #[test]
    fn partial_resolution_elaborates() {
        // E10: Bool; ∀α.{Bool,α}⇒α×α ⊢r {Int} ⇒ Int×Int, then apply
        // the partially resolved rule to 5.
        let src = "implicit {true : Bool, \
                     rule (forall a. {Bool, a} => a * a) ((?(a), ?(a))) : forall a. {Bool, a} => a * a} \
                   in (?({Int} => Int * Int) with {5 : Int}) : Int * Int";
        let out = run0(src);
        assert_eq!(out.value.to_string(), "(5, 5)");
    }

    #[test]
    fn preservation_on_paper_examples() {
        let sources = [
            "implicit {1 : Int, true : Bool} in (?(Int) + 1, not ?(Bool)) : Int * Bool",
            "implicit {3 : Int, rule (forall a. {a} => a * a) ((?(a), ?(a))) : forall a. {a} => a * a} \
             in ?((Int * Int) * (Int * Int)) : (Int * Int) * (Int * Int)",
            "(\\x : Int. x + 1) 41",
            "fix f : Int -> Int. \\n : Int. if n <= 0 then 1 else n * f (n - 1)",
        ];
        for src in sources {
            let e = parse_expr(src).unwrap();
            check_preservation(&Declarations::new(), &e)
                .unwrap_or_else(|err| panic!("{src}: {err}"));
        }
    }

    #[test]
    fn unresolvable_queries_fail_to_elaborate() {
        let e = parse_expr("?(Int)").unwrap();
        assert!(matches!(
            elaborate(&Declarations::new(), &e),
            Err(ElabError::Type(TypeError::Resolution(_)))
        ));
    }

    #[test]
    fn extension_policy_is_rejected_with_clear_error() {
        let rho = RuleType::new(
            vec![v("a")],
            vec![tv("a").promote()],
            Type::prod(tv("a"), tv("a")),
        );
        let pair_abs = Expr::rule_abs(
            rho.clone(),
            Expr::pair(Expr::query_simple(tv("a")), Expr::query_simple(tv("a"))),
        );
        let query = RuleType::mono(
            vec![Type::Int.promote()],
            Type::prod(
                Type::prod(Type::Int, Type::Int),
                Type::prod(Type::Int, Type::Int),
            ),
        );
        let e = Expr::implicit(
            vec![(pair_abs, rho)],
            Expr::Query(query.clone()),
            query.to_type(),
        );
        let policy = ResolutionPolicy::paper().with_env_extension();
        let err = Elaborator::with_policy(&Declarations::new(), policy)
            .elaborate(&e)
            .unwrap_err();
        assert!(matches!(err, ElabError::ExtensionNotElaborable));
    }

    #[test]
    fn type_translation_matches_paper() {
        // |∀α.{α} ⇒ α×α| = ∀α. α → α×α
        let rho = RuleType::new(
            vec![v("a")],
            vec![tv("a").promote()],
            Type::prod(tv("a"), tv("a")),
        );
        let t = translate_rule_type(&rho);
        let want = FType::forall(
            [v("a")],
            FType::arrow(
                FType::Var(v("a")),
                FType::prod(FType::Var(v("a")), FType::Var(v("a"))),
            ),
        );
        assert!(t.alpha_eq(&want));
        // Empty contexts contribute no parameters.
        assert_eq!(translate_type(&Type::Int), FType::Int);
    }

    #[test]
    fn binop_elaboration_runs() {
        let e = Expr::binop(BinOp::Add, Expr::Int(1), Expr::Int(2));
        let out = run(&Declarations::new(), &e).unwrap();
        assert_eq!(out.value.to_string(), "3");
    }
}
