//! Resolution: the judgment `Δ ⊢r ρ` (rule `TyRes`, §3.2).
//!
//! Resolution is the novel mechanism of λ⇒. Given a queried rule type
//! `ρ = ∀ᾱ. π ⇒ τ`, rule `TyRes`:
//!
//! 1. looks up `Δ⟨τ⟩ = π′ ⇒ τ` — a rule whose head matches the
//!    queried head, respecting nested scopes;
//! 2. recursively resolves `π′ − π`: premises of the found rule that
//!    the query does not itself assume. Premises in `π ∩ π′` stay
//!    abstract — this is **partial resolution**.
//!
//! Simple types are handled by promotion (`τ` as `∀∅.{} ⇒ τ`), which
//! makes `TyRes` behave like recursive type-class resolution; proper
//! rule types match whole rules, possibly partially resolved. The
//! unified rule subsumes both `SimpleRes` and `RuleRes` of §3.2.
//!
//! The resolver returns a full [`Resolution`] *derivation* rather than
//! a boolean: elaboration (crate `implicit-elab`) turns the derivation
//! into System F evidence, the operational semantics replays it at
//! runtime, and tests inspect it.
//!
//! Two deliberately rejected alternatives from §3.2 are available as
//! [`ResolutionPolicy`] switches so that their trade-offs can be
//! reproduced: backtracking is *never* performed (the paper rejects
//! it outright), but the *environment-extension* variant — which
//! resolves `Char ⇒ Int` from `{Char ⇒ Int}` by assuming the queried
//! context during recursive resolution — can be enabled with
//! [`ResolutionPolicy::with_env_extension`].

use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use crate::alpha;
use crate::env::{ImplicitEnv, LookupError, OverlapPolicy};
use crate::syntax::{RuleType, Type};
use crate::trace::{NullSink, TraceEvent, TraceSink};

/// Resolution configuration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ResolutionPolicy {
    /// Overlap handling within one frame.
    pub overlap: OverlapPolicy,
    /// Enables the §3.2 environment-extension variant ("we have
    /// considered another definition of resolution"): recursive
    /// premises may use the queried context as additional nearest
    /// assumptions. Off by default, as in the paper.
    pub env_extension: bool,
    /// Recursion fuel. The termination conditions of Appendix A
    /// guarantee termination for checked environments; the fuel turns
    /// non-termination of unchecked environments (e.g. the
    /// `{Char}⇒Int, {Int}⇒Char` loop) into an error.
    pub max_depth: usize,
    /// Consults the environment's memoized derivation cache
    /// (on by default). Resolution is deterministic, so a cache hit
    /// returns a derivation identical to the one a fresh search would
    /// build — modulo one observable: a hit does not re-consume
    /// recursion fuel, so a derivation cached under ample fuel can be
    /// replayed under a tighter [`max_depth`](Self::max_depth).
    /// Ignored (off) under the environment-extension variant, whose
    /// assumption frames are not environment-stable.
    pub cache: bool,
}

impl Default for ResolutionPolicy {
    fn default() -> ResolutionPolicy {
        ResolutionPolicy {
            overlap: OverlapPolicy::Forbid,
            env_extension: false,
            max_depth: 512,
            cache: true,
        }
    }
}

impl ResolutionPolicy {
    /// The paper's resolution: no overlap, no environment extension.
    pub fn paper() -> ResolutionPolicy {
        ResolutionPolicy::default()
    }

    /// Enables most-specific overlap resolution (companion note).
    pub fn with_most_specific(mut self) -> ResolutionPolicy {
        self.overlap = OverlapPolicy::MostSpecific;
        self
    }

    /// Enables the environment-extension variant of §3.2.
    pub fn with_env_extension(mut self) -> ResolutionPolicy {
        self.env_extension = true;
        self
    }

    /// Overrides the recursion fuel.
    pub fn with_max_depth(mut self, depth: usize) -> ResolutionPolicy {
        self.max_depth = depth;
        self
    }

    /// Disables the memoized derivation cache (e.g. to measure raw
    /// resolution cost, or to rule the cache out while debugging).
    pub fn without_cache(mut self) -> ResolutionPolicy {
        self.cache = false;
        self
    }
}

/// Which rule a resolution step used.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RuleRef {
    /// A rule from the implicit environment, named by its frame's
    /// *level* (a de Bruijn level: 0 = the outermost frame) and its
    /// position in that frame. Scopes pushed later leave levels alone,
    /// so one derivation names the same rules at every depth above
    /// the frames it used.
    Env {
        /// Frame level (0 = outermost).
        level: usize,
        /// Rule position within the frame.
        index: usize,
    },
    /// A rule from an *assumption frame* pushed by the
    /// environment-extension policy; `level` is the recursion level
    /// that pushed the frame (0 = the original query). Only produced
    /// when [`ResolutionPolicy::env_extension`] is on; elaboration
    /// rejects derivations containing these.
    Extension {
        /// Recursion level whose queried context was assumed.
        level: usize,
        /// Premise position within that context.
        index: usize,
    },
}

/// Evidence for one premise of the rule used by a resolution step.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Premise {
    /// The premise is α-equivalent to a premise of the *query's* own
    /// context and stays abstract (partial resolution): `index` is
    /// its position in the queried context.
    Assumed {
        /// Position in the queried context π.
        index: usize,
        /// The premise type.
        rho: RuleType,
    },
    /// The premise was recursively resolved. Derivations are shared:
    /// this is the sub-query's own derivation, as the derivation
    /// cache holds it, so a derivation is a DAG with one node per
    /// distinct proof step.
    Derived(Rc<Resolution>),
}

impl Premise {
    /// The premise's rule type.
    pub fn rho(&self) -> &RuleType {
        match self {
            Premise::Assumed { rho, .. } => rho,
            Premise::Derived(r) => &r.query,
        }
    }
}

/// A resolution derivation: one `TyRes` application and the evidence
/// for its recursive premises.
///
/// Cloning is shallow: premises are shared `Rc` nodes. Two derivations
/// are `==` when they are the same proof, node for node; the display
/// field [`Resolution::env_depth`] takes no part.
#[derive(Clone, Debug)]
pub struct Resolution {
    /// The resolved query `∀ᾱ. π ⇒ τ`.
    pub query: RuleType,
    /// The environment rule used.
    pub rule: RuleRef,
    /// The stored rule as found (pre-instantiation).
    pub rule_type: RuleType,
    /// Instantiation of the rule's quantifiers, in binder order.
    pub type_args: Vec<Type>,
    /// Evidence for the instantiated context `θπ′`, in the rule's
    /// stored premise order (aligned with the rule's elaborated
    /// λ-binders).
    pub premises: Vec<Premise>,
    /// Frames in the environment the query was resolved against.
    /// Display only: [`Resolution::explain`] prints a level `l` as
    /// scope `env_depth − 1 − l`, counted from the innermost frame.
    /// [`resolve`] sets it on the derivation it returns; a shared
    /// premise keeps the value of wherever it was first derived, and
    /// is printed with its root's.
    pub env_depth: usize,
}

impl PartialEq for Resolution {
    fn eq(&self, other: &Resolution) -> bool {
        self.query == other.query
            && self.rule == other.rule
            && self.rule_type == other.rule_type
            && self.type_args == other.type_args
            && self.premises == other.premises
    }
}

/// `Rc<Resolution>` compares shared premises by pointer first.
impl Eq for Resolution {}

impl Resolution {
    /// Number of `TyRes` steps in the derivation (1 + recursive
    /// steps). Useful for tests and benchmarks.
    pub fn steps(&self) -> usize {
        1 + self
            .premises
            .iter()
            .map(|p| match p {
                Premise::Assumed { .. } => 0,
                Premise::Derived(r) => r.steps(),
            })
            .sum::<usize>()
    }

    /// `true` if any step was *partial* (kept an assumed premise while
    /// recursively resolving others).
    pub fn is_partial(&self) -> bool {
        let here = self
            .premises
            .iter()
            .any(|p| matches!(p, Premise::Assumed { .. }))
            && self
                .premises
                .iter()
                .any(|p| matches!(p, Premise::Derived(_)));
        here || self.premises.iter().any(|p| match p {
            Premise::Derived(r) => r.is_partial(),
            Premise::Assumed { .. } => false,
        })
    }

    /// Renders the derivation as an indented, human-readable
    /// explanation — useful for diagnostics and teaching.
    ///
    /// ```text
    /// (Int * Int) * (Int * Int)  ⇐ rule #0 of scope 0 [Int * Int]
    ///   Int * Int  ⇐ rule #0 of scope 0 [Int]
    ///     Int  ⇐ rule #0 of scope 1
    /// ```
    pub fn explain(&self) -> String {
        fn go(res: &Resolution, env_depth: usize, depth: usize, out: &mut String) {
            out.push_str(&"  ".repeat(depth));
            out.push_str(&res.query.to_string());
            match res.rule {
                RuleRef::Env { level, index } => {
                    let scope = env_depth.saturating_sub(level + 1);
                    out.push_str(&format!("  ⇐ rule #{index} of scope {scope}"));
                }
                RuleRef::Extension { level, index } => {
                    out.push_str(&format!("  ⇐ assumption #{index} at level {level}"));
                }
            }
            if !res.type_args.is_empty() {
                out.push_str(" [");
                for (i, t) in res.type_args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&t.to_string());
                }
                out.push(']');
            }
            out.push('\n');
            for p in &res.premises {
                match p {
                    Premise::Assumed { rho, .. } => {
                        out.push_str(&"  ".repeat(depth + 1));
                        out.push_str(&format!("{rho}  (assumed — partial resolution)\n"));
                    }
                    Premise::Derived(inner) => go(inner, env_depth, depth + 1, out),
                }
            }
        }
        let mut out = String::new();
        go(self, self.env_depth, 0, &mut out);
        out
    }

    /// Aggregate work counters for this derivation against `env`
    /// (post-hoc; resolution itself is not instrumented). Lookup
    /// consults, in every frame up to and including the hit frame,
    /// only the rules the frame's head-constructor index admits for
    /// the queried head (the hit frame is consulted completely among
    /// those, for the `no_overlap` check), so `rules_tried` reflects
    /// the matching work the derivation caused. Cache counters are
    /// the environment's ([`crate::env::ImplicitEnv::cache_counters`]).
    pub fn stats(&self, env: &crate::env::ImplicitEnv) -> ResolutionStats {
        let mut stats = ResolutionStats::default();
        fn go(res: &Resolution, env: &crate::env::ImplicitEnv, stats: &mut ResolutionStats) {
            stats.steps += 1;
            if let Some(frame) = innermost_frame(env, &res.rule) {
                stats.frames_scanned += frame + 1;
                let target = res.query.head();
                stats.rules_tried += (0..=frame)
                    .map(|f| env.frame_candidate_count(env.depth() - 1 - f, target))
                    .sum::<usize>();
                stats.max_frame_reached = stats.max_frame_reached.max(frame);
            }
            for p in &res.premises {
                match p {
                    Premise::Assumed { .. } => stats.assumed += 1,
                    Premise::Derived(inner) => go(inner, env, stats),
                }
            }
        }
        go(self, env, &mut stats);
        stats
    }

    /// `true` if the derivation uses an extension-frame rule and thus
    /// cannot be elaborated.
    pub fn uses_extension(&self) -> bool {
        matches!(self.rule, RuleRef::Extension { .. })
            || self.premises.iter().any(|p| match p {
                Premise::Derived(r) => r.uses_extension(),
                Premise::Assumed { .. } => false,
            })
    }
}

/// Aggregate work counters for a resolution derivation (see
/// [`Resolution::stats`]).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct ResolutionStats {
    /// `TyRes` applications.
    pub steps: usize,
    /// Frames visited across all lookups.
    pub frames_scanned: usize,
    /// Candidate rules match-tested across all lookups.
    pub rules_tried: usize,
    /// Premises discharged by partial resolution.
    pub assumed: usize,
    /// Deepest frame index any lookup descended to.
    pub max_frame_reached: usize,
}

/// Resolution failure.
#[derive(Clone, Debug, PartialEq)]
pub enum ResolveError {
    /// Lookup failed at some (sub-)query.
    Lookup {
        /// The sub-query whose lookup failed.
        query: RuleType,
        /// The underlying lookup error.
        error: LookupError,
    },
    /// The recursion fuel ran out — the environment admits a
    /// non-terminating resolution (see Appendix A).
    DepthExceeded {
        /// The original query.
        query: RuleType,
        /// The configured fuel.
        max_depth: usize,
    },
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolveError::Lookup { query, error } => {
                write!(f, "cannot resolve `{query}`: {error}")
            }
            ResolveError::DepthExceeded { query, max_depth } => write!(
                f,
                "resolution of `{query}` exceeded depth {max_depth} (non-terminating rules?)"
            ),
        }
    }
}

impl std::error::Error for ResolveError {}

/// Resolves `query` against `env` (judgment `Δ ⊢r ρ`).
///
/// # Errors
///
/// Returns [`ResolveError::Lookup`] when some (sub-)query has no,
/// or no unambiguous, matching rule, and
/// [`ResolveError::DepthExceeded`] when recursion exceeds the policy's
/// fuel.
///
/// # Examples
///
/// ```
/// use implicit_core::env::ImplicitEnv;
/// use implicit_core::resolve::{resolve, ResolutionPolicy};
/// use implicit_core::symbol::Symbol;
/// use implicit_core::syntax::{RuleType, Type};
///
/// // §3.2 Example: Int; ∀α.{α} ⇒ α×α ⊢r Int × Int
/// let a = Symbol::intern("alpha");
/// let mut env = ImplicitEnv::new();
/// env.push(vec![Type::Int.promote()]);
/// env.push(vec![RuleType::new(
///     vec![a],
///     vec![Type::Var(a).promote()],
///     Type::prod(Type::Var(a), Type::Var(a)),
/// )]);
/// let query = Type::prod(Type::Int, Type::Int).promote();
/// let res = resolve(&env, &query, &ResolutionPolicy::paper()).unwrap();
/// assert_eq!(res.steps(), 2); // pair rule, then the Int value
/// ```
pub fn resolve(
    env: &ImplicitEnv,
    query: &RuleType,
    policy: &ResolutionPolicy,
) -> Result<Rc<Resolution>, ResolveError> {
    resolve_with(env, query, policy, &mut NullSink)
}

/// [`resolve`], reporting the search as structured
/// [`TraceEvent`]s through `sink`.
///
/// The recursion is generic over the sink so that the default
/// [`NullSink`] path ([`resolve`]) monomorphizes every
/// `if sink.enabled()` guard away; enabled tracing typically passes
/// `&mut dyn TraceSink`. A derivation-cache hit emits
/// [`TraceEvent::CacheHit`] and then *replays* the cached derivation
/// through the same emission helpers a fresh search uses, so traces
/// differ between cache-off and cache-warm runs only in the
/// `CacheHit`/`CacheMiss` markers.
///
/// The derivation returned carries this environment's depth as its
/// [`Resolution::env_depth`]. A cached derivation hit at another depth
/// is returned as a copy of its root node that carries this one (its
/// premises stay shared); every other hit is the cached `Rc` itself.
///
/// # Errors
///
/// As for [`resolve`].
pub fn resolve_with<S: TraceSink + ?Sized>(
    env: &ImplicitEnv,
    query: &RuleType,
    policy: &ResolutionPolicy,
    sink: &mut S,
) -> Result<Rc<Resolution>, ResolveError> {
    let mut assumptions: Vec<Vec<RuleType>> = Vec::new();
    let res = resolve_rec(env, query, policy, policy.max_depth, &mut assumptions, sink)?;
    if res.env_depth == env.depth() {
        return Ok(res);
    }
    Ok(Rc::new(Resolution {
        env_depth: env.depth(),
        ..Resolution::clone(&res)
    }))
}

fn resolve_rec<S: TraceSink + ?Sized>(
    env: &ImplicitEnv,
    query: &RuleType,
    policy: &ResolutionPolicy,
    fuel: usize,
    assumptions: &mut Vec<Vec<RuleType>>,
    sink: &mut S,
) -> Result<Rc<Resolution>, ResolveError> {
    let depth = policy.max_depth - fuel;
    if sink.enabled() {
        sink.event(TraceEvent::QueryEnter {
            query: query.to_string(),
            depth,
            measure: query.head().size(),
        });
    }
    if fuel == 0 {
        let err = ResolveError::DepthExceeded {
            query: query.clone(),
            max_depth: policy.max_depth,
        };
        if sink.enabled() {
            sink.event(TraceEvent::QueryFailed {
                query: query.to_string(),
                error: err.to_string(),
            });
        }
        return Err(err);
    }

    // Memoization: resolution is deterministic and — without the
    // extension variant — never changes the environment mid-search,
    // so every (query, overlap policy) pair resolves the same way
    // until a push shadows it (the entry is shelved until that frame
    // pops) or a pop removes a rule it used. Sub-queries hit this
    // path too, so a cached derivation short-circuits whole subtrees
    // and becomes, shared, the premise of the derivation that asked.
    let use_cache = policy.cache && !policy.env_extension;
    if use_cache {
        if let Some(res) = env.cache_lookup(query, policy.overlap) {
            if sink.enabled() {
                sink.event(TraceEvent::CacheHit {
                    query: query.to_string(),
                });
                replay_events(env, &res, depth, sink, false);
            }
            return Ok(res);
        }
        if sink.enabled() {
            sink.event(TraceEvent::CacheMiss {
                query: query.to_string(),
            });
        }
    }

    let target = query.head();

    // Under the environment-extension policy, assumption frames are
    // nearer than the environment (the variant rule reads Δ,π̄).
    let hit = match lookup_with_assumptions(env, target, policy, assumptions) {
        Ok(hit) => hit,
        Err(error) => {
            let err = ResolveError::Lookup {
                query: query.clone(),
                error,
            };
            if sink.enabled() {
                sink.event(TraceEvent::QueryFailed {
                    query: query.to_string(),
                    error: err.to_string(),
                });
            }
            return Err(err);
        }
    };

    let (rule_ref, rule_type, type_args, inst_context) = hit;
    if sink.enabled() {
        emit_lookup_events(env, query, &rule_ref, &rule_type, sink);
    }

    // Partial resolution: premises α-present in the queried context
    // stay abstract; the rest are resolved recursively.
    let mut premises = Vec::with_capacity(inst_context.len());
    for rho in &inst_context {
        match alpha::context_position(query.context(), rho) {
            Some(index) => {
                if sink.enabled() {
                    sink.event(TraceEvent::PremiseAssumed {
                        index,
                        rho: rho.to_string(),
                    });
                }
                premises.push(Premise::Assumed {
                    index,
                    rho: rho.clone(),
                });
            }
            None => {
                let r = if policy.env_extension {
                    assumptions.push(query.context().to_vec());
                    let r = resolve_rec(env, rho, policy, fuel - 1, assumptions, sink);
                    assumptions.pop();
                    r
                } else {
                    resolve_rec(env, rho, policy, fuel - 1, assumptions, sink)
                };
                match r {
                    Ok(inner) => premises.push(Premise::Derived(inner)),
                    Err(err) => {
                        // Close this query's span too: every
                        // QueryEnter is matched by QueryResolved or
                        // QueryFailed, even through propagation.
                        if sink.enabled() {
                            sink.event(TraceEvent::QueryFailed {
                                query: query.to_string(),
                                error: err.to_string(),
                            });
                        }
                        return Err(err);
                    }
                }
            }
        }
    }

    let res = Rc::new(Resolution {
        query: query.clone(),
        rule: rule_ref,
        rule_type,
        type_args,
        premises,
        env_depth: env.depth(),
    });
    if use_cache {
        env.cache_insert(query, policy.overlap, &res);
    }
    if sink.enabled() {
        sink.event(TraceEvent::QueryResolved {
            query: query.to_string(),
            steps: res.steps(),
        });
    }
    Ok(res)
}

/// Emits the candidate-scan events a successful lookup performed:
/// in every frame up to and including the hit frame, each rule the
/// head index admits for the query head — the committed one as
/// [`TraceEvent::CandidateAdmitted`], the rest as
/// [`TraceEvent::CandidateRejected`] (no match, or lost the
/// most-specific comparison). Reconstructed from the environment
/// post-hoc (the same enumeration [`Resolution::stats`] counts), so
/// the fresh-search path and the cache-replay path emit identical
/// streams by construction.
fn emit_lookup_events<S: TraceSink + ?Sized>(
    env: &ImplicitEnv,
    query: &RuleType,
    rule: &RuleRef,
    rule_type: &RuleType,
    sink: &mut S,
) {
    let target = query.head();
    match *rule {
        RuleRef::Env { level, index } => {
            let Some(frame) = innermost_frame(env, rule) else {
                return;
            };
            for f in 0..=frame {
                let at = env.depth() - 1 - f;
                for ix in env.frame_candidate_indices(at, target) {
                    if at == level && ix == index {
                        sink.event(TraceEvent::CandidateAdmitted {
                            frame: f,
                            index: ix,
                            rule: rule_type.to_string(),
                        });
                    } else {
                        let r = env
                            .frame_rule(at, ix)
                            .map(|r| r.to_string())
                            .unwrap_or_default();
                        sink.event(TraceEvent::CandidateRejected {
                            frame: f,
                            index: ix,
                            rule: r,
                        });
                    }
                }
            }
        }
        RuleRef::Extension { level, index } => {
            sink.event(TraceEvent::AssumptionUsed {
                level,
                index,
                rule: rule_type.to_string(),
            });
        }
    }
}

/// Replays a (cached) derivation as the event stream a fresh search
/// would have produced, minus the cache markers: candidate scans,
/// assumed premises, recursive sub-queries, and the final
/// `QueryResolved`. `enter` controls whether the node's own
/// `QueryEnter` is emitted (the cache-hit site has already emitted
/// it before consulting the cache).
fn replay_events<S: TraceSink + ?Sized>(
    env: &ImplicitEnv,
    res: &Resolution,
    depth: usize,
    sink: &mut S,
    enter: bool,
) {
    if enter {
        sink.event(TraceEvent::QueryEnter {
            query: res.query.to_string(),
            depth,
            measure: res.query.head().size(),
        });
    }
    emit_lookup_events(env, &res.query, &res.rule, &res.rule_type, sink);
    for p in &res.premises {
        match p {
            Premise::Assumed { index, rho } => sink.event(TraceEvent::PremiseAssumed {
                index: *index,
                rho: rho.to_string(),
            }),
            Premise::Derived(inner) => replay_events(env, inner, depth + 1, sink, true),
        }
    }
    sink.event(TraceEvent::QueryResolved {
        query: res.query.to_string(),
        steps: res.steps(),
    });
}

/// The innermost-first position, in `env`, of the frame an
/// environment rule reference names: how trace events and
/// [`Resolution::stats`] number it. `None` for extension rules and for
/// levels `env` does not have.
fn innermost_frame(env: &ImplicitEnv, rule: &RuleRef) -> Option<usize> {
    match *rule {
        RuleRef::Env { level, .. } => env.depth().checked_sub(level + 1),
        RuleRef::Extension { .. } => None,
    }
}

/// The facts the derivation cache needs to invalidate an entry: the
/// head key of every type the derivation looked up (a pushed frame
/// shelves the entry iff it holds a rule admitting one of them), and
/// the deepest level of any rule used (a pop to it or below kills the
/// entry). `None` for derivations that are not environment-stable:
/// those using an assumption-frame rule of the extension variant, or
/// a level at or beyond `depth`.
pub(crate) type CacheFacts = Option<(Vec<crate::intern::HeadKey>, usize)>;

/// Computes [`CacheFacts`] for derivations, once per distinct node:
/// a node's facts are its own head and level joined with its
/// premises'. One memo may serve many derivations of one DAG, as an
/// import of a whole derivation table does. It is keyed by node
/// address, so the derivations it has seen must outlive it.
pub(crate) struct FactsMemo {
    depth: usize,
    facts: HashMap<*const Resolution, CacheFacts>,
}

impl FactsMemo {
    /// A memo for derivations used at environment depth `depth`.
    pub(crate) fn new(depth: usize) -> FactsMemo {
        FactsMemo {
            depth,
            facts: HashMap::new(),
        }
    }

    /// The facts of `res`, visiting only nodes not visited before.
    /// Iterative, so a deep derivation costs heap, not stack.
    pub(crate) fn facts(&mut self, res: &Resolution) -> CacheFacts {
        let mut stack: Vec<(&Resolution, bool)> = vec![(res, false)];
        while let Some((node, expanded)) = stack.pop() {
            let ptr: *const Resolution = node;
            if self.facts.contains_key(&ptr) {
                continue;
            }
            if !expanded {
                stack.push((node, true));
                for p in &node.premises {
                    if let Premise::Derived(inner) = p {
                        if !self.facts.contains_key(&Rc::as_ptr(inner)) {
                            stack.push((inner, false));
                        }
                    }
                }
                continue;
            }
            let facts = self.join(node);
            self.facts.insert(ptr, facts);
        }
        self.facts[&(res as *const Resolution)].clone()
    }

    /// One node's facts, from its premises' (already memoized).
    fn join(&self, node: &Resolution) -> CacheFacts {
        let RuleRef::Env { level, .. } = node.rule else {
            return None;
        };
        if level >= self.depth {
            return None;
        }
        let mut keys = vec![crate::intern::head_key(node.query.head())];
        let mut max_level = level;
        for p in &node.premises {
            if let Premise::Derived(inner) = p {
                let (pk, pl) = self.facts[&Rc::as_ptr(inner)].as_ref()?;
                for k in pk {
                    if !keys.contains(k) {
                        keys.push(*k);
                    }
                }
                max_level = max_level.max(*pl);
            }
        }
        Some((keys, max_level))
    }
}

/// [`CacheFacts`] of one derivation, for an environment `depth` frames
/// deep.
pub(crate) fn derivation_cache_facts(res: &Resolution, depth: usize) -> CacheFacts {
    FactsMemo::new(depth).facts(res)
}

/// `true` iff every rule `res` committed to lives in the outermost
/// `prelude_depth` frames of an environment currently `depth` frames
/// deep (and no policy extension or dangling frame reference is
/// involved). This is the stability condition a session's dictionary
/// inline cache checks before answering an implicit-query site with
/// promoted evidence: a program that shadows a prelude rule produces
/// a derivation referencing its own (deeper) frame, which fails this
/// predicate and forces a miss.
pub fn derivation_within(res: &Resolution, depth: usize, prelude_depth: usize) -> bool {
    derivation_cache_facts(res, depth).is_some_and(|(_, max_level)| max_level < prelude_depth)
}

type RawHit = (RuleRef, RuleType, Vec<Type>, Vec<RuleType>);

fn lookup_with_assumptions(
    env: &ImplicitEnv,
    target: &Type,
    policy: &ResolutionPolicy,
    assumptions: &[Vec<RuleType>],
) -> Result<RawHit, LookupError> {
    if policy.env_extension {
        // Assumption frames, innermost (most recently pushed) first.
        for (level_rev, frame) in assumptions.iter().rev().enumerate() {
            let level = assumptions.len() - 1 - level_rev;
            if let Some((index, rule, args, ctx)) =
                crate::env::lookup_in_frame(frame, target, policy.overlap)?
            {
                return Ok((RuleRef::Extension { level, index }, rule, args, ctx));
            }
        }
    }
    let hit = env.lookup(target, policy.overlap)?;
    Ok((
        RuleRef::Env {
            level: env.depth() - 1 - hit.frame,
            index: hit.index,
        },
        hit.rule,
        hit.type_args,
        hit.context,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::Symbol;

    fn v(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn tv(s: &str) -> Type {
        Type::var(v(s))
    }

    fn pair_rule() -> RuleType {
        // ∀a. {a} ⇒ a × a
        RuleType::new(
            vec![v("a")],
            vec![tv("a").promote()],
            Type::prod(tv("a"), tv("a")),
        )
    }

    fn p() -> ResolutionPolicy {
        ResolutionPolicy::paper()
    }

    #[test]
    fn simple_recursive_resolution() {
        // §3.2 Example 1.
        let mut env = ImplicitEnv::new();
        env.push(vec![Type::Int.promote()]);
        env.push(vec![pair_rule()]);
        let res = resolve(&env, &Type::prod(Type::Int, Type::Int).promote(), &p()).unwrap();
        assert_eq!(res.steps(), 2);
        assert!(!res.is_partial());
        // First step used the pair rule from the innermost frame.
        assert_eq!(res.rule, RuleRef::Env { level: 1, index: 0 });
        assert_eq!(res.type_args, vec![Type::Int]);
    }

    #[test]
    fn rule_type_resolution_without_recursion() {
        // §3.2 Example 2: querying {Int} ⇒ Int × Int matches the rule
        // wholesale; the Int premise stays abstract.
        let mut env = ImplicitEnv::new();
        env.push(vec![Type::Int.promote()]);
        env.push(vec![pair_rule()]);
        let query = RuleType::mono(vec![Type::Int.promote()], Type::prod(Type::Int, Type::Int));
        let res = resolve(&env, &query, &p()).unwrap();
        assert_eq!(res.steps(), 1, "no recursive resolution may happen");
        assert_eq!(res.premises.len(), 1);
        assert!(matches!(res.premises[0], Premise::Assumed { index: 0, .. }));
    }

    #[test]
    fn partial_resolution() {
        // §3.2 Example 3: Bool; ∀α.{Bool,α} ⇒ α×α ⊢r {Int} ⇒ Int×Int.
        let rule = RuleType::new(
            vec![v("a")],
            vec![Type::Bool.promote(), tv("a").promote()],
            Type::prod(tv("a"), tv("a")),
        );
        let mut env = ImplicitEnv::new();
        env.push(vec![Type::Bool.promote()]);
        env.push(vec![rule]);
        let query = RuleType::mono(vec![Type::Int.promote()], Type::prod(Type::Int, Type::Int));
        let res = resolve(&env, &query, &p()).unwrap();
        assert!(res.is_partial());
        assert_eq!(res.steps(), 2); // Bool resolved, Int assumed
        let kinds: Vec<bool> = res
            .premises
            .iter()
            .map(|pr| matches!(pr, Premise::Assumed { .. }))
            .collect();
        assert_eq!(kinds.iter().filter(|b| **b).count(), 1);
        assert_eq!(kinds.iter().filter(|b| !**b).count(), 1);
    }

    #[test]
    fn polymorphic_query_resolves_against_polymorphic_rule() {
        // §2: ?(∀α. {α} ⇒ α×α) with the same rule in scope.
        let env = ImplicitEnv::with_frame(vec![pair_rule()]);
        let res = resolve(&env, &pair_rule(), &p()).unwrap();
        assert_eq!(res.steps(), 1);
        assert!(matches!(res.premises[0], Premise::Assumed { .. }));
    }

    #[test]
    fn no_backtracking_gets_stuck() {
        // §3.2 "semantic resolution": Char; Char⇒Int; Bool⇒Int ⊬ Int.
        // (Char modeled as Str.)
        let mut env = ImplicitEnv::new();
        env.push(vec![Type::Str.promote()]);
        env.push(vec![RuleType::mono(vec![Type::Str.promote()], Type::Int)]);
        env.push(vec![RuleType::mono(vec![Type::Bool.promote()], Type::Int)]);
        let err = resolve(&env, &Type::Int.promote(), &p()).unwrap_err();
        match err {
            ResolveError::Lookup { query, .. } => assert_eq!(query, Type::Bool.promote()),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn exact_context_match_needs_no_extension() {
        // §3.2: Char; Char⇒Int; Bool⇒Int ⊢r Char⇒Int. With Bool⇒Int
        // as the *nearest* rule, lookup commits to it and its Bool
        // premise cannot be discharged: both the paper rule and the
        // extension variant fail (no backtracking, ever).
        let mut env = ImplicitEnv::new();
        env.push(vec![Type::Str.promote()]);
        env.push(vec![RuleType::mono(vec![Type::Str.promote()], Type::Int)]);
        env.push(vec![RuleType::mono(vec![Type::Bool.promote()], Type::Int)]);
        let query = RuleType::mono(vec![Type::Str.promote()], Type::Int);
        assert!(resolve(&env, &query, &p()).is_err());
        assert!(resolve(&env, &query, &p().with_env_extension()).is_err());
        // With Char⇒Int nearest, already the *paper* rule succeeds —
        // the premise is α-equal to the queried context and stays
        // assumed (partial resolution subsumes this case).
        let mut env2 = ImplicitEnv::new();
        env2.push(vec![RuleType::mono(vec![Type::Bool.promote()], Type::Int)]);
        env2.push(vec![RuleType::mono(vec![Type::Str.promote()], Type::Int)]);
        let res = resolve(&env2, &query, &p()).unwrap();
        assert_eq!(res.steps(), 1);
        assert!(matches!(res.premises[0], Premise::Assumed { .. }));
    }

    #[test]
    fn env_extension_uses_assumptions_recursively() {
        // Where the §3.2 extension variant genuinely adds power:
        // recursive sub-goals may consume the queried context. With
        // only the pair rule in scope, {Int} ⇒ (Int×Int)×(Int×Int)
        // needs the assumed Int *two levels down* — the paper rule
        // cannot reach it (assumptions are only consulted by the
        // α-equality test at the top), the extension rule can.
        let env = ImplicitEnv::with_frame(vec![pair_rule()]);
        let query = RuleType::mono(
            vec![Type::Int.promote()],
            Type::prod(
                Type::prod(Type::Int, Type::Int),
                Type::prod(Type::Int, Type::Int),
            ),
        );
        assert!(resolve(&env, &query, &p()).is_err());
        let res = resolve(&env, &query, &p().with_env_extension()).unwrap();
        assert!(res.uses_extension());
        fn find_extension(r: &Resolution) -> bool {
            matches!(r.rule, RuleRef::Extension { .. })
                || r.premises.iter().any(|pr| match pr {
                    Premise::Derived(d) => find_extension(d),
                    Premise::Assumed { .. } => false,
                })
        }
        assert!(find_extension(&res));
    }

    #[test]
    fn nontermination_is_cut_by_fuel() {
        // Appendix A: {Char}⇒Int and {Int}⇒Char loop forever.
        let mut env = ImplicitEnv::new();
        env.push(vec![
            RuleType::mono(vec![Type::Str.promote()], Type::Int),
            RuleType::mono(vec![Type::Int.promote()], Type::Str),
        ]);
        let err = resolve(&env, &Type::Int.promote(), &p().with_max_depth(64)).unwrap_err();
        assert!(matches!(err, ResolveError::DepthExceeded { .. }));
    }

    #[test]
    fn higher_order_plus_polymorphic_composes() {
        // §2: Int and ∀α.{α}⇒α×α resolve ((Int×Int)×(Int×Int)).
        let env = ImplicitEnv::with_frame(vec![Type::Int.promote(), pair_rule()]);
        let t = Type::prod(
            Type::prod(Type::Int, Type::Int),
            Type::prod(Type::Int, Type::Int),
        );
        let res = resolve(&env, &t.promote(), &p()).unwrap();
        // pair rule at (Int×Int), then pair rule at Int, then Int.
        assert_eq!(res.steps(), 3);
    }

    #[test]
    fn derivation_records_scope_of_each_step() {
        let mut env = ImplicitEnv::new();
        env.push(vec![Type::Int.promote()]); // level 0 (outer)
        env.push(vec![pair_rule()]); // level 1 (inner)
        let res = resolve(&env, &Type::prod(Type::Int, Type::Int).promote(), &p()).unwrap();
        assert_eq!(res.rule, RuleRef::Env { level: 1, index: 0 });
        match &res.premises[0] {
            Premise::Derived(inner) => {
                assert_eq!(inner.rule, RuleRef::Env { level: 0, index: 0 });
            }
            other => panic!("unexpected premise {other:?}"),
        }
    }

    #[test]
    fn a_hit_shares_the_cached_derivation_at_every_depth() {
        let mut env = ImplicitEnv::new();
        env.push(vec![Type::Int.promote()]);
        env.push(vec![pair_rule()]);
        let pair = Type::prod(Type::Int, Type::Int).promote();
        let quad = Type::prod(
            Type::prod(Type::Int, Type::Int),
            Type::prod(Type::Int, Type::Int),
        )
        .promote();
        let first = resolve(&env, &pair, &p()).unwrap();
        // A sub-query's cached derivation is its parent's premise.
        let outer = resolve(&env, &quad, &p()).unwrap();
        let Premise::Derived(inner) = &outer.premises[0] else {
            panic!("the pair premise is derived");
        };
        assert!(Rc::ptr_eq(inner, &first));
        // One frame deeper, the hit keeps its levels and its premises;
        // only the scope numbers printed move out by one.
        env.push(vec![Type::Bool.promote()]);
        let deeper = resolve(&env, &pair, &p()).unwrap();
        assert_eq!(deeper, first);
        assert_eq!(deeper.env_depth, 3);
        let (Premise::Derived(a), Premise::Derived(b)) = (&deeper.premises[0], &first.premises[0])
        else {
            panic!("the Int premise is derived");
        };
        assert!(Rc::ptr_eq(a, b));
        assert_eq!(
            deeper.explain(),
            "Int * Int  ⇐ rule #0 of scope 1 [Int]\n  Int  ⇐ rule #0 of scope 2\n"
        );
        let fresh = resolve(&env, &pair, &p().without_cache()).unwrap();
        assert_eq!(fresh, deeper);
        assert_eq!(fresh.explain(), deeper.explain());
    }

    #[test]
    fn explain_renders_the_derivation_tree() {
        let mut env = ImplicitEnv::new();
        env.push(vec![Type::Int.promote()]);
        env.push(vec![pair_rule()]);
        let res = resolve(&env, &Type::prod(Type::Int, Type::Int).promote(), &p()).unwrap();
        let text = res.explain();
        assert!(text.contains("Int * Int"), "got {text}");
        assert!(text.contains("scope 0"), "got {text}");
        assert!(text.contains("scope 1"), "got {text}");
        assert!(text.contains("[Int]"), "got {text}");
    }

    #[test]
    fn stats_count_steps_and_scanning_work() {
        let mut env = ImplicitEnv::new();
        env.push(vec![Type::Int.promote()]); // innermost-first frame 1
        env.push(vec![pair_rule()]); // innermost-first frame 0
        let res = resolve(&env, &Type::prod(Type::Int, Type::Int).promote(), &p()).unwrap();
        let stats = res.stats(&env);
        assert_eq!(stats.steps, 2);
        assert_eq!(stats.assumed, 0);
        assert_eq!(stats.max_frame_reached, 1);
        // Pair rule: scans frame 0 (1 admitted rule). Int: scans
        // frames 0 and 1, but frame 0's head index admits nothing for
        // Int (its one rule is Prod-headed), so only 1 rule is tried.
        assert_eq!(stats.frames_scanned, 1 + 2);
        assert_eq!(stats.rules_tried, 2);
    }

    #[test]
    fn stats_count_assumed_premises() {
        let rule = RuleType::new(
            vec![v("a")],
            vec![Type::Bool.promote(), tv("a").promote()],
            Type::prod(tv("a"), tv("a")),
        );
        let mut env = ImplicitEnv::new();
        env.push(vec![Type::Bool.promote()]);
        env.push(vec![rule]);
        let query = RuleType::mono(vec![Type::Int.promote()], Type::prod(Type::Int, Type::Int));
        let res = resolve(&env, &query, &p()).unwrap();
        assert_eq!(res.stats(&env).assumed, 1);
    }

    #[test]
    fn resolve_error_displays_helpfully() {
        let env = ImplicitEnv::new();
        let err = resolve(&env, &Type::Int.promote(), &p()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("cannot resolve"), "got: {msg}");
        assert!(msg.contains("Int"), "got: {msg}");
    }
}
