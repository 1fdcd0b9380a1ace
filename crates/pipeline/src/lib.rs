//! Warm-session batch engine.
//!
//! A [`Session`] typechecks and elaborates a *prelude* — implicit rule
//! bindings plus ordinary `let` bindings — exactly once, snapshots the
//! interning arena and the implicit environment, and then runs each
//! subsequent program as a cheap copy-on-write extension of that
//! snapshot:
//!
//! * the prelude's [`ImplicitEnv`] frame and its **derivation cache**
//!   survive across programs (a program's own, deeper frames only
//!   discard the entries that depended on them; what they shadow is
//!   shelved and put back when they pop), so prelude-level queries
//!   are cache hits from the second program on;
//! * the elaborated prelude evidence is evaluated once and re-bound
//!   from a persistent System F environment instead of re-elaborated
//!   and re-evaluated per program;
//! * the prelude binders' types are translated to System F once, and
//!   every program's target term is preservation-checked open against
//!   that resident context, so the check costs what the program
//!   costs, not what the prelude's types cost;
//! * the operational-semantics leg keeps one [`Interpreter`] whose
//!   runtime resolution memo is keyed by persistent-stack identity —
//!   the prelude frame is the *same* `Rc` for every program, so
//!   runtime resolutions memoize across programs too;
//! * between programs the session can roll the thread-local interning
//!   arena back to its prelude watermark ([`Session::trim`]), purging
//!   cache/memo entries whose ids the rollback would orphan.
//!
//! Semantically a warm run of `e` is equivalent to the cold one-shot
//! pipeline on the sugared program `let x̄ = ē in implicit {ē′:ρ̄} in e`
//! (see [`Prelude::wrap`]); the conformance harness and the
//! `warm_cold_equivalence` property test check value-for-value
//! agreement under every resolution policy.
//!
//! [`driver`] adds a std-only work-stealing batch driver that runs N
//! programs across M worker threads, each worker holding its own
//! `Session` built from the same (Send-safe) prelude recipe.

// Error values carry full expressions/types for diagnostics; they are
// cold-path, so precision wins over `Result` size (same policy as the
// core and elab crates).
#![allow(clippy::result_large_err)]

pub mod artifact;
pub mod driver;
pub mod service;

use std::cell::RefCell;
use std::rc::Rc;

use implicit_core::env::{CacheCounters, EnvSnapshot, ImplicitEnv};
use implicit_core::intern::{self, InternSnapshot};
use implicit_core::resolve::ResolutionPolicy;
use implicit_core::symbol::{fresh, fresh_watermark};
use implicit_core::syntax::{Declarations, Expr, RuleType, Type};
use implicit_core::trace::{
    FanSink, MetricsRegistry, MetricsSink, Phase, SharedSink, TraceEvent, TraceSink,
};
use implicit_elab::{translate_decls, translate_rule_type, translate_type, DictCache, Elaborator};
use implicit_elab::{ElabError, RunError, RunOutput};
use implicit_opsem::{ImplStack, Interpreter, OpsemError, VarEnv};
use systemf::compile::CodeSnapshot;
use systemf::eval::Env as FEnv;
use systemf::typeck::typecheck_open;
use systemf::{CompileError, Compiler, Evaluator, FDeclarations, FExpr, FType, Isa, Vm};

pub use driver::{run_batch_scoped, run_batch_scoped_then, spawn_service_worker, JobSource};

use implicit_core::symbol::Symbol;

/// How many *new* interned nodes programs may leave behind before the
/// end of one ([`Session::maybe_trim`], or a resolve-only daemon
/// tenant's request) rolls the arena back to its base watermark.
const TRIM_THRESHOLD: usize = 1 << 15;

/// A batch prelude: ordinary `let` bindings (evaluated once, in
/// order, each visible to the later ones) plus implicit rule bindings
/// brought into scope for every program.
///
/// Each implicit binding opens its own scope nested inside the
/// previous ones — binding `k` may query the types of bindings
/// `0..k`, and a later α-equal binding shadows an earlier one —
/// exactly the cold sugar
/// `implicit {e₀:ρ₀} in implicit {e₁:ρ₁} in … in body`.
#[derive(Clone, Debug, Default)]
pub struct Prelude {
    /// `let x : τ = e` bindings, outermost first.
    pub lets: Vec<(Symbol, Type, Expr)>,
    /// `implicit {e : ρ}` bindings, outermost first.
    pub implicits: Vec<(Expr, RuleType)>,
}

impl Prelude {
    /// The empty prelude (a warm session over it degenerates to the
    /// cold pipeline plus a persistent interner).
    pub fn new() -> Prelude {
        Prelude::default()
    }

    /// A prelude of implicit bindings only.
    pub fn implicits(implicits: Vec<(Expr, RuleType)>) -> Prelude {
        Prelude {
            lets: Vec::new(),
            implicits,
        }
    }

    /// The cold one-shot program equivalent to running `body : τ`
    /// inside this prelude:
    /// `let x̄ = ē in implicit {e₀:ρ₀} in … in implicit {eₙ:ρₙ} in body`.
    pub fn wrap(&self, body: Expr, body_ty: Type) -> Expr {
        let mut e = body;
        for (arg, arho) in self.implicits.iter().rev() {
            e = Expr::implicit(vec![(arg.clone(), arho.clone())], e, body_ty.clone());
        }
        for (x, ty, bound) in self.lets.iter().rev() {
            e = Expr::let_(*x, ty.clone(), bound.clone(), e);
        }
        e
    }

    /// Deconstructs the sugared form produced by [`Prelude::wrap`]
    /// back into a prelude — the on-disk `prelude.imp` convention for
    /// batch compilation: outer `let x : τ = e in …` wrappers, then
    /// single-binding `implicit {e : ρ} in …` wrappers, terminated by
    /// the unit literal (`unit` in the concrete syntax).
    ///
    /// Multi-binding `implicit a, b in …` wrappers are rejected: a
    /// flat frame elaborates every binding in the *outer* scope,
    /// which a session (one nested scope per binding) cannot
    /// represent faithfully.
    ///
    /// # Errors
    ///
    /// Returns a description of the first wrapper that does not fit
    /// the convention.
    pub fn from_wrapped(e: &Expr) -> Result<Prelude, String> {
        let mut lets = Vec::new();
        let mut cur = e;
        while let Expr::App(f, bound) = cur {
            match &**f {
                Expr::Lam(x, ty, body) => {
                    lets.push((*x, ty.clone(), (**bound).clone()));
                    cur = body;
                }
                _ => {
                    return Err("prelude: expected `let`/`implicit` wrappers around `()`, \
                         found a plain application"
                        .to_owned())
                }
            }
        }
        let mut implicits = Vec::new();
        loop {
            match cur {
                Expr::RuleApp(f, args) => match &**f {
                    Expr::RuleAbs(_, body) => {
                        if args.len() != 1 {
                            return Err(format!(
                                "prelude: `implicit` wrappers must bind one value each \
                                 (found {}); split `implicit a, b in …` into nested \
                                 single-binding wrappers",
                                args.len()
                            ));
                        }
                        let (a, r) = &args[0];
                        implicits.push((a.clone(), r.clone()));
                        cur = body;
                    }
                    _ => {
                        return Err("prelude: expected `implicit {e : ρ} in …` wrappers, \
                             found a rule application"
                            .to_owned())
                    }
                },
                Expr::Unit => {
                    return Ok(Prelude { lets, implicits });
                }
                other => {
                    return Err(format!(
                        "prelude: body must be the unit literal \
                         (the prelude only *binds*; programs supply the bodies), found `{other}`"
                    ))
                }
            }
        }
    }

    /// The B13 chain-workload prelude: `T₀ = Int`, `Tₖ = T₍ₖ₋₁₎ × Int`,
    /// with an `Int` binding for `T₀` and a *rule* binding
    /// `{T₍ₖ₋₁₎} ⇒ Tₖ` (evidence `(?T₍ₖ₋₁₎, k)`) for every `k ≥ 1` —
    /// so resolving `?Tₙ` is an `n`-deep recursive derivation that a
    /// warm session caches (and runtime-memoizes) across programs.
    pub fn chain(n: usize) -> Prelude {
        let mut implicits = Vec::with_capacity(n + 1);
        let mut ty = Type::Int;
        implicits.push((Expr::Int(0), ty.clone().promote()));
        for k in 1..=n {
            let prev = ty.clone();
            ty = Type::prod(prev.clone(), Type::Int);
            let rho = RuleType::mono(vec![prev.promote()], ty.clone());
            let body = Expr::pair(Expr::query_simple(prev.clone()), Expr::Int(k as i64));
            implicits.push((Expr::rule_abs(rho.clone(), body), rho));
        }
        Prelude {
            lets: Vec::new(),
            implicits,
        }
    }

    /// The head type of the deepest [`Prelude::chain`] binding.
    pub fn chain_head(n: usize) -> Type {
        let mut ty = Type::Int;
        for _ in 0..n {
            ty = Type::prod(ty, Type::Int);
        }
        ty
    }
}

/// An error constructing a [`Session`] — the prelude itself failed to
/// elaborate, typecheck, or evaluate.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // cold path; precision over size
pub enum SessionError {
    /// A prelude binding was rejected (declared-type mismatch,
    /// runtime failure while computing its evidence, …).
    Prelude(String),
    /// A prelude binding failed one of the pipeline stages.
    Run(RunError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Prelude(msg) => write!(f, "prelude rejected: {msg}"),
            SessionError::Run(e) => write!(f, "prelude failed: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<RunError> for SessionError {
    fn from(e: RunError) -> SessionError {
        SessionError::Run(e)
    }
}

/// Which System F evaluator a session (or the CLI) should use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// The `Rc`-cloning tree-walking evaluator ([`systemf::eval`]).
    #[default]
    Tree,
    /// The closure-converted bytecode VM ([`systemf::vm`]) —
    /// compiled prelude cached per session, constant host stack.
    Vm,
}

impl Backend {
    /// Parses a `--backend` flag value.
    pub fn parse(s: &str) -> Option<Backend> {
        match s {
            "tree" => Some(Backend::Tree),
            "vm" => Some(Backend::Vm),
            _ => None,
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::Tree => f.write_str("tree"),
            Backend::Vm => f.write_str("vm"),
        }
    }
}

/// A warm compilation session over a fixed declaration set, policy,
/// and [`Prelude`]. See the module docs for what is shared between
/// programs.
///
/// Sessions are single-threaded (the interning arena is thread-local
/// and evidence values are `Rc`-based); a batch run builds one per
/// worker from a shared recipe ([`driver::run_batch_scoped`]).
pub struct Session<'d> {
    decls: &'d Declarations,
    policy: ResolutionPolicy,
    elab: Elaborator<'d>,
    fdecls: FDeclarations,
    /// Prelude frame (if any) + warm derivation cache.
    env: ImplicitEnv,
    /// Evidence variable frames aligned with `env`'s frames.
    evidence: Vec<Vec<Symbol>>,
    /// Prelude `let` bindings, in scope for every program.
    gamma: Vec<(Symbol, Type)>,
    /// The prelude's implicit context in canonical (binder) order.
    context: Vec<RuleType>,
    /// System F environment binding `gamma` names and evidence vars.
    fenv: FEnv,
    /// Compiled backend: prelude bindings compiled once, their values
    /// in `vm_globals` (parallel to the compiler's global table);
    /// per-program code is an extension rolled back to `code_base`.
    compiler: Compiler,
    vm_globals: Vec<systemf::Value>,
    code_base: CodeSnapshot,
    /// Dictionary inline cache for the compiled path (attached to the
    /// elaborator only while `dict_ic` is on; see
    /// [`Session::set_dict_ic`]).
    dict: Rc<RefCell<DictCache>>,
    dict_ic: bool,
    /// The System F typing context preservation is checked against,
    /// translated once: the `gamma` lets, the evidence binders at
    /// their translated rule types, then the promoted dictionary
    /// globals (parallel to their `vm_globals` registrations).
    fcontext: Vec<(Symbol, FType)>,
    /// Operational-semantics leg: one interpreter whose memo persists.
    interp: Interpreter<'d>,
    venv: VarEnv,
    istack: ImplStack,
    intern_base: InternSnapshot,
    env_base: EnvSnapshot,
    /// Session-internal metrics accumulator. Phase and evaluator
    /// events and the program and trim counts are always folded in;
    /// resolution-grain events join when a trace sink is installed
    /// (they are only emitted then).
    metrics: Rc<RefCell<MetricsSink>>,
    /// The caller's sink, if any (see [`Session::set_trace`]).
    trace: Option<SharedSink>,
    /// The prelude this session was built from, kept for artifact
    /// serialization and incremental-rebuild diffing.
    prelude: Prelude,
    /// Per-binding dependency read-sets (indices of earlier prelude
    /// bindings each binding's evidence reads), for incremental
    /// artifact invalidation.
    binding_meta: Vec<artifact::BindingMeta>,
    /// Fresh-symbol watermark covering every `fresh` name this
    /// session's persistent state can embed (evidence and promoted
    /// dictionary globals). Serialized so a rehydrating process can
    /// raise its own counter past it.
    fresh_base: u64,
    /// Per-opcode dispatch profiling for compiled runs (see
    /// [`Session::set_profile_dispatch`]).
    profile_dispatch: bool,
    /// Dispatch counts accumulated across profiled compiled runs.
    dispatch_counts: std::collections::HashMap<&'static str, u64>,
    /// Content key of this session's artifact, computed at most once
    /// (see [`Session::content_key`]).
    key: Option<u64>,
    /// The store directory known to hold this session's artifact, and
    /// the state version it held it at (see [`Session::persist`]).
    stored: Option<artifact::Stored>,
}

impl<'d> Session<'d> {
    /// Builds a warm session: elaborates, typechecks, and evaluates
    /// every prelude binding once (through both the elaboration and
    /// the operational-semantics pipelines), pushes the prelude frame,
    /// and records the interner/environment watermarks.
    ///
    /// # Errors
    ///
    /// Returns a [`SessionError`] if any prelude binding is rejected
    /// or fails a pipeline stage.
    pub fn new(
        decls: &'d Declarations,
        policy: ResolutionPolicy,
        prelude: &Prelude,
    ) -> Result<Session<'d>, SessionError> {
        Session::new_configured(decls, policy, prelude, true, false)
    }

    /// [`Session::new`] with the optimization knobs chosen up front:
    /// `fusion` selects superinstruction lowering for *all* code this
    /// session compiles (including the prelude, which
    /// [`Session::set_fusion`] cannot reach — it is compiled here),
    /// and `dict_ic` starts the dictionary inline cache enabled.
    ///
    /// # Errors
    ///
    /// See [`Session::new`].
    pub fn new_configured(
        decls: &'d Declarations,
        policy: ResolutionPolicy,
        prelude: &Prelude,
        fusion: bool,
        dict_ic: bool,
    ) -> Result<Session<'d>, SessionError> {
        let mut compiler = Compiler::new();
        compiler.set_fusion(fusion);
        let mut s = Session::empty(decls, policy, compiler, Vec::new(), dict_ic);
        s.bind_prelude(prelude, None)?;
        s.seal(Vec::new());
        Ok(s)
    }

    /// A session over no bindings that holds `compiler` and the values
    /// of its globals: what [`Session::bind_prelude`] extends and
    /// [`artifact::assemble`] fills in. Its watermarks wait for
    /// [`Session::seal`].
    fn empty(
        decls: &'d Declarations,
        policy: ResolutionPolicy,
        compiler: Compiler,
        vm_globals: Vec<systemf::Value>,
        dict_ic: bool,
    ) -> Session<'d> {
        let env = ImplicitEnv::new();
        Session {
            decls,
            elab: Elaborator::with_policy(decls, policy.clone()),
            fdecls: translate_decls(decls),
            interp: Interpreter::new(decls).with_policy(policy.clone()),
            policy,
            env_base: env.snapshot(),
            env,
            evidence: Vec::new(),
            gamma: Vec::new(),
            context: Vec::new(),
            fenv: FEnv::new(),
            code_base: compiler.snapshot(),
            compiler,
            vm_globals,
            dict: Rc::new(RefCell::new(DictCache::new(0))),
            dict_ic,
            fcontext: Vec::new(),
            venv: VarEnv::new(),
            istack: ImplStack::new(),
            intern_base: intern::snapshot(),
            metrics: Rc::new(RefCell::new(MetricsSink::new())),
            trace: None,
            prelude: Prelude::new(),
            binding_meta: Vec::new(),
            fresh_base: 0,
            profile_dispatch: false,
            dispatch_counts: std::collections::HashMap::new(),
            key: None,
            stored: None,
        }
    }

    /// Binds `prelude` onto this empty session in order, each binding
    /// under the ones before it, as the cold sugar
    /// `let x̄ = ē in implicit {e₀:ρ₀} in … in body` does: implicit `k`
    /// opens its own scope, so it may query implicits `0..k`.
    ///
    /// A binding `reuse` holds clean takes its tree value, opsem value
    /// or frame, read-set and evidence name from the old artifact. Any
    /// other is elaborated, checked against its declared type,
    /// preservation-checked, evaluated on the tree-walker, compiled and
    /// run on the VM, given its read-set, and evaluated under the
    /// operational semantics. It takes a new global slot, or, in a
    /// rebuild, overwrites the slot it already has. Returns how many
    /// bindings were reused.
    fn bind_prelude(
        &mut self,
        prelude: &Prelude,
        reuse: Option<&artifact::Reuse>,
    ) -> Result<usize, SessionError> {
        let nlets = prelude.lets.len();
        let mut reused = 0;
        for (i, (x, ty, bound)) in prelude.lets.iter().enumerate() {
            if let Some(r) = reuse.filter(|r| !r.dirty[i]) {
                self.fenv = self.fenv.bind(*x, r.values[i].clone());
                self.venv = self.venv.bind(*x, r.let_values[i].clone());
                self.binding_meta.push(r.reads[i].clone());
                reused += 1;
            } else {
                let (got, fb) = self
                    .elab
                    .elaborate_with_env(&mut ImplicitEnv::new(), &[], &self.gamma, bound)
                    .map_err(RunError::Elab)?;
                if !intern::types_equal(&got, ty) {
                    return Err(SessionError::Prelude(format!(
                        "let `{x}` declared `{ty}` but its binding has type `{got}`"
                    )));
                }
                let v = self.check_and_eval(&fb)?;
                self.fenv = self.fenv.bind(*x, v);
                self.compile_binding(i, *x, &fb)?;
                let vo = self
                    .interp
                    .eval_in(&self.venv, &ImplStack::new(), bound)
                    .map_err(|e| {
                        SessionError::Prelude(format!("let `{x}` diverged in opsem: {e}"))
                    })?;
                self.venv = self.venv.bind(*x, vo);
            }
            self.gamma.push((*x, ty.clone()));
            self.fcontext.push((*x, translate_type(ty)));
        }
        for (j, (arg, arho)) in prelude.implicits.iter().enumerate() {
            let i = nlets + j;
            let sym = if let Some(r) = reuse.filter(|r| !r.dirty[i]) {
                self.fenv = self.fenv.bind(r.evidence[j], r.values[i].clone());
                self.istack = self.istack.pushed((*r.frames[j]).clone());
                self.binding_meta.push(r.reads[i].clone());
                reused += 1;
                r.evidence[j]
            } else {
                let (got, ea) = self
                    .elab
                    .elaborate_with_env(&mut self.env, &self.evidence, &self.gamma, arg)
                    .map_err(RunError::Elab)?;
                if !intern::types_equal(&got, &arho.to_type()) {
                    return Err(SessionError::Prelude(format!(
                        "implicit binding declared `{arho}` but has type `{got}`"
                    )));
                }
                let v = self.check_and_eval(&ea)?;
                // Minted here, after the preservation check (whose type
                // substitutions mint names too) and before compiling:
                // moving it renumbers the later fresh names, and with
                // them the bytes of every artifact.
                let sym = reuse.map_or_else(|| fresh("ev"), |r| r.evidence[j]);
                self.fenv = self.fenv.bind(sym, v);
                self.compile_binding(i, sym, &ea)?;
                let av = self
                    .interp
                    .eval_in(&self.venv, &self.istack, arg)
                    .map_err(|e| {
                        SessionError::Prelude(format!("implicit binding `{arho}` in opsem: {e}"))
                    })?;
                self.istack = self.istack.pushed(vec![(arho.clone(), av)]);
                sym
            };
            self.env.push(vec![arho.clone()]);
            self.evidence.push(vec![sym]);
            self.context.push(arho.clone());
            self.fcontext.push((sym, translate_rule_type(arho)));
        }
        self.prelude = prelude.clone();
        // Covers every `fresh` name the bindings' state can embed, so a
        // saved artifact carries it and a loader cannot mint them again.
        self.fresh_base = fresh_watermark();
        Ok(reused)
    }

    /// Preservation-checks an elaborated binding against the bindings
    /// before it, then evaluates it on the tree-walker.
    fn check_and_eval(&self, fe: &FExpr) -> Result<systemf::Value, SessionError> {
        typecheck_open(&self.fdecls, &self.fcontext, fe).map_err(RunError::PreservationViolated)?;
        Ok(Evaluator::new()
            .eval_in(&self.fenv, fe)
            .map_err(RunError::Eval)?)
    }

    /// Compiles binding `i`'s elaborated term and runs it on the VM
    /// against the globals before it, stores the value in global slot
    /// `i` (registering it under `name` when the slot is new), and
    /// records the binding's read-set.
    fn compile_binding(&mut self, i: usize, name: Symbol, fe: &FExpr) -> Result<(), SessionError> {
        let funcs = self.compiler.code().funcs.len();
        let v = compile_eval(&mut self.compiler, &self.vm_globals, fe)?;
        if let Some(slot) = self.vm_globals.get_mut(i) {
            *slot = v;
        } else {
            self.compiler.add_global(name);
            self.vm_globals.push(v);
        }
        let code = self.compiler.code();
        let reads = artifact::binding_reads(&self.fcontext, fe, code, funcs..code.funcs.len());
        self.binding_meta.push(reads);
        Ok(())
    }

    /// Finishes a session once its bindings and imports are in place:
    /// creates its dictionary cache over `dict_entries`, roots the
    /// runtime memo at the prelude stack, and takes the interner,
    /// environment and code watermarks, so ids interned by any import
    /// lie below them and a trim keeps them.
    fn seal(&mut self, dict_entries: Vec<(RuleType, Symbol)>) {
        let mut dict = DictCache::new(self.evidence.len());
        dict.import_entries(dict_entries);
        self.dict = Rc::new(RefCell::new(dict));
        self.interp.set_memo_root(&self.istack);
        self.intern_base = intern::snapshot();
        self.env_base = self.env.snapshot();
        self.code_base = self.compiler.snapshot();
    }

    /// [`Session::new_configured`] for callers that still pass the
    /// compiled backend's instruction set. There is one
    /// ([`Isa::Register`]), so `isa` changes nothing. Kept because the
    /// benchmark package (`perfbench/`) builds sessions through it.
    ///
    /// # Errors
    ///
    /// See [`Session::new`].
    pub fn new_configured_isa(
        decls: &'d Declarations,
        policy: ResolutionPolicy,
        prelude: &Prelude,
        fusion: bool,
        dict_ic: bool,
        _isa: Isa,
    ) -> Result<Session<'d>, SessionError> {
        Session::new_configured(decls, policy, prelude, fusion, dict_ic)
    }

    /// Folds `n` artifact-load fallbacks (corrupt/stale/mismatched
    /// artifacts that forced a cold build; see [`crate::artifact`])
    /// into this session's metrics.
    pub fn note_artifact_fallbacks(&mut self, n: u64) {
        self.metrics.borrow_mut().metrics.artifact_fallbacks += n;
    }

    /// Installs (or clears, with `None`) a trace sink: pipeline phase
    /// spans, evaluator events, resolution events from the
    /// elaboration leg, and runtime-memo events from the opsem leg
    /// all flow to `sink`. Resolution and memo events are also folded
    /// into the session's own [`Session::metrics`] snapshot while a
    /// sink is installed.
    pub fn set_trace(&mut self, sink: Option<SharedSink>) {
        match &sink {
            Some(user) => {
                let fan = FanSink {
                    sinks: vec![SharedSink::from_rc(self.metrics.clone()), user.clone()],
                };
                let fan = SharedSink::new(fan);
                self.elab.set_trace(Some(fan.clone()));
                self.interp.set_trace(Some(fan));
            }
            None => {
                self.elab.set_trace(None);
                self.interp.set_trace(None);
            }
        }
        self.trace = sink;
    }

    /// The unified [`MetricsRegistry`] snapshot for this session:
    /// cache and memo counters, session program/trim counts, and
    /// evaluator fuel are always live; resolution-grain counters
    /// (queries, candidates) fill in while a trace sink is installed.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = self.metrics.borrow().metrics;
        m.set_cache_counters(self.env.cache_counters());
        let (memo_hits, memo_misses) = self.interp.memo_counters();
        m.memo_hits = memo_hits;
        m.memo_misses = memo_misses;
        let (ic_hits, ic_misses) = self.dict.borrow().counters();
        m.ic_hits = ic_hits;
        m.ic_misses = ic_misses;
        m
    }

    /// Bumps session-level counters in the session's own registry.
    fn count(&self, bump: impl FnOnce(&mut MetricsRegistry)) {
        bump(&mut self.metrics.borrow_mut().metrics);
    }

    /// Folds an event into the session metrics and forwards it to the
    /// installed sink, if any.
    fn emit(&mut self, ev: TraceEvent) {
        self.metrics.borrow_mut().metrics.record(&ev);
        if let Some(sink) = &self.trace {
            let mut sink = sink.clone();
            if sink.enabled() {
                sink.event(ev);
            }
        }
    }

    /// The declarations this session compiles against.
    pub fn decls(&self) -> &'d Declarations {
        self.decls
    }

    /// The resolution policy in force.
    pub fn policy(&self) -> &ResolutionPolicy {
        &self.policy
    }

    /// The warm implicit environment (prelude frame + derivation
    /// cache) — read-only access for stats and derivation replay.
    pub fn env(&self) -> &ImplicitEnv {
        &self.env
    }

    /// The prelude's implicit context, canonical order.
    pub fn context(&self) -> &[RuleType] {
        &self.context
    }

    /// Derivation-cache counters of the warm environment. On the
    /// second and later programs, prelude-level queries show up here
    /// as hits.
    pub fn cache_counters(&self) -> CacheCounters {
        self.env.cache_counters()
    }

    /// `(hits, misses)` of the opsem leg's runtime resolution memo.
    pub fn memo_counters(&self) -> (u64, u64) {
        self.interp.memo_counters()
    }

    /// Enables or disables the **dictionary inline cache** on the
    /// compiled path ([`Session::run_compiled`]): ground context-free
    /// queries whose resolution is prelude-pure get their evaluated
    /// evidence promoted to a session global, and later occurrences
    /// compile to a single global load. Off by default; the tree and
    /// opsem legs are never affected. Disabling detaches the cache
    /// but keeps promoted entries, so re-enabling resumes warm.
    pub fn set_dict_ic(&mut self, on: bool) {
        if on != self.dict_ic {
            // The knob is part of the content key and the artifact.
            self.forget_artifact();
        }
        self.dict_ic = on;
    }

    /// `(hits, misses)` of the dictionary inline cache.
    pub fn dict_counters(&self) -> (u64, u64) {
        self.dict.borrow().counters()
    }

    /// Number of promoted dictionary entries.
    pub fn dict_entries(&self) -> usize {
        self.dict.borrow().len()
    }

    /// Superinstruction knob for the session compiler: affects code
    /// compiled from now on (existing code keeps its shape). For a
    /// fusion-free session build the session with this off before
    /// running anything — already-compiled prelude functions are not
    /// re-lowered.
    pub fn set_fusion(&mut self, on: bool) {
        if on != self.compiler.fusion_enabled() {
            self.forget_artifact();
        }
        self.compiler.set_fusion(on);
    }

    /// Cumulative superinstruction statistics of the session compiler.
    pub fn fusion_stats(&self) -> &systemf::compile::FusionStats {
        self.compiler.fusion_stats()
    }

    /// Turns per-opcode dispatch profiling on for every subsequent
    /// compiled run; counts accumulate across runs (see
    /// [`Session::dispatch_histogram`]). Off by default — the
    /// unprofiled dispatch loop carries no counting overhead.
    pub fn set_profile_dispatch(&mut self, on: bool) {
        self.profile_dispatch = on;
    }

    /// Dispatch counts accumulated by profiled compiled runs, sorted
    /// by count descending (mnemonic ascending on ties).
    pub fn dispatch_histogram(&self) -> Vec<(&'static str, u64)> {
        let mut v: Vec<(&'static str, u64)> =
            self.dispatch_counts.iter().map(|(k, n)| (*k, *n)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v
    }

    /// Per-function frame widths (registers per activation window) of
    /// everything this session has compiled — the register-pressure
    /// companion to the dispatch histogram.
    pub fn frame_widths(&self) -> Vec<u16> {
        self.compiler
            .code()
            .funcs
            .iter()
            .map(|f| f.nslots)
            .collect()
    }

    /// Runs one program through elaborate → preservation-check →
    /// evaluate, reusing every warm structure. Equivalent to
    /// `implicit_elab::run_with(decls, &prelude.wrap(e, τ), policy)`
    /// up to evidence-variable naming.
    ///
    /// # Errors
    ///
    /// Returns the same [`RunError`] stages as the cold pipeline.
    pub fn run(&mut self, e: &Expr) -> Result<RunOutput, RunError> {
        // The dictionary IC rewrites query sites to compiled-backend
        // globals, which a tree-walker environment cannot resolve —
        // the tree leg always elaborates with the cache detached.
        self.elab.set_dict_cache(None);
        let out = self.run_inner(e);
        // Elaboration pushes/pops its own frames even on error, but be
        // defensive: never let a failed program leak frames into the
        // warm environment.
        let base = self.env_base;
        self.env.restore(&base);
        self.count(|m| m.programs += 1);
        self.maybe_trim();
        out
    }

    fn run_inner(&mut self, e: &Expr) -> Result<RunOutput, RunError> {
        let (source_type, target, target_type) = self.elaborate_and_check(e)?;
        self.emit(TraceEvent::PhaseStart { phase: Phase::Eval });
        let mut ev = Evaluator::new();
        let value = ev.eval_in(&self.fenv, &target);
        self.emit(TraceEvent::TreeEval {
            fuel: ev.fuel_used(),
        });
        self.emit(TraceEvent::PhaseEnd { phase: Phase::Eval });
        let value = value.map_err(RunError::Eval)?;
        Ok(RunOutput {
            source_type,
            target,
            target_type,
            value,
        })
    }

    /// Elaborates `e` under the warm environment and typechecks the
    /// open target term against the resident System F context
    /// (preservation), returning the source type, the target term,
    /// and its type.
    fn elaborate_and_check(&mut self, e: &Expr) -> Result<(Type, FExpr, FType), RunError> {
        self.emit(TraceEvent::PhaseStart {
            phase: Phase::Elaborate,
        });
        let elaborated =
            self.elab
                .elaborate_with_env(&mut self.env, &self.evidence, &self.gamma, e);
        self.emit(TraceEvent::PhaseEnd {
            phase: Phase::Elaborate,
        });
        let (source_type, target) = elaborated.map_err(RunError::Elab)?;
        self.emit(TraceEvent::PhaseStart {
            phase: Phase::Preservation,
        });
        let checked = typecheck_open(&self.fdecls, &self.fcontext, &target);
        self.emit(TraceEvent::PhaseEnd {
            phase: Phase::Preservation,
        });
        let target_type = checked.map_err(RunError::PreservationViolated)?;
        Ok((source_type, target, target_type))
    }

    /// Runs one program like [`Session::run`], but evaluates the
    /// elaborated term on the bytecode VM against the session's
    /// compiled prelude: the program compiles as an extension of the
    /// warm code object (prelude bindings are [`Instr::Global`] loads
    /// of already-computed values) and the extension is rolled back
    /// afterwards, mirroring the interner's watermark discipline.
    ///
    /// # Errors
    ///
    /// Returns the same [`RunError`] stages as [`Session::run`].
    ///
    /// [`Instr::Global`]: systemf::compile::Instr::Global
    pub fn run_compiled(&mut self, e: &Expr) -> Result<RunOutput, RunError> {
        self.elab
            .set_dict_cache(self.dict_ic.then(|| self.dict.clone()));
        let out = self.run_compiled_inner(e);
        self.elab.set_dict_cache(None);
        let base = self.env_base;
        self.env.restore(&base);
        let code_base = self.code_base;
        self.compiler.rollback(&code_base);
        // Promote after the per-program extension is gone, so the
        // dictionaries' code and globals become part of the session
        // watermark instead of being swept by the next rollback.
        self.promote_dicts();
        self.count(|m| {
            m.programs += 1;
            m.compiled_programs += 1;
        });
        self.maybe_trim();
        out
    }

    /// Compiles and evaluates the evidence the dictionary IC recorded
    /// this program, registering each value as a session global. The
    /// evaluation happens against prelude globals only (the evidence
    /// is prelude-pure by construction), in scratch code space that
    /// becomes part of the session watermark on success.
    ///
    /// Only *first-order* values are promoted: a dictionary that
    /// evaluates to a closure would pin compiled function indices and
    /// is skipped (`try_eq` on the value with itself is the
    /// first-order test the equality primitive already defines).
    /// Evidence that fails to evaluate — possible when its query site
    /// sat in a branch the program never took — is skipped silently;
    /// the query keeps elaborating to fresh evidence, preserving the
    /// cold semantics exactly.
    fn promote_dicts(&mut self) {
        if !self.dict_ic {
            return;
        }
        let pending = self.dict.borrow_mut().take_pending();
        let promoted_any = !pending.is_empty();
        for (query, ev) in pending {
            let snap = self.compiler.snapshot();
            match compile_eval(&mut self.compiler, &self.vm_globals, &ev) {
                Ok(v) if v.try_eq(&v) == Some(true) => {
                    let g = fresh("dict");
                    self.compiler.add_global(g);
                    self.vm_globals.push(v);
                    // IC-hit targets name `g` free; type it for the
                    // preservation check like any prelude binder.
                    self.fcontext.push((g, translate_rule_type(&query)));
                    self.dict.borrow_mut().insert(&query, g);
                    self.code_base = self.compiler.snapshot();
                }
                _ => self.compiler.rollback(&snap),
            }
        }
        if promoted_any {
            // Promotions mint fresh `dict` globals; widen the
            // serialized watermark so artifacts cover them.
            self.fresh_base = self.fresh_base.max(fresh_watermark());
        }
    }

    fn run_compiled_inner(&mut self, e: &Expr) -> Result<RunOutput, RunError> {
        let (source_type, target, target_type) = self.elaborate_and_check(e)?;
        self.emit(TraceEvent::PhaseStart {
            phase: Phase::Compile,
        });
        let (scanned0, fused0) = {
            let fs = self.compiler.fusion_stats();
            (fs.instrs_scanned, fs.fused)
        };
        let compiled = self.compiler.compile(&target);
        let (scanned1, fused1) = {
            let fs = self.compiler.fusion_stats();
            (fs.instrs_scanned, fs.fused)
        };
        self.emit(TraceEvent::Fusion {
            scanned: scanned1 - scanned0,
            fused: fused1 - fused0,
        });
        self.emit(TraceEvent::PhaseEnd {
            phase: Phase::Compile,
        });
        let main = compiled.map_err(|err| RunError::Eval(compile_error_to_eval(err)))?;
        self.emit(TraceEvent::PhaseStart { phase: Phase::Vm });
        let mut vm = Vm::new();
        vm.set_profile(self.profile_dispatch);
        let value = vm.run(self.compiler.code(), main, &self.vm_globals);
        if self.profile_dispatch {
            for (mnemonic, n) in vm.dispatch_histogram() {
                *self.dispatch_counts.entry(mnemonic).or_insert(0) += n;
            }
        }
        let stats = vm.stats();
        self.emit(TraceEvent::VmRun {
            fuel: stats.fuel_used,
            tail_calls: stats.tail_calls,
            fix_unfolds: stats.fix_unfolds,
            match_ic_hits: stats.match_ic_hits,
            match_ic_misses: stats.match_ic_misses,
        });
        self.emit(TraceEvent::PhaseEnd { phase: Phase::Vm });
        let value = value.map_err(RunError::Eval)?;
        Ok(RunOutput {
            source_type,
            target,
            target_type,
            value,
        })
    }

    /// Runs one program on the chosen [`Backend`].
    ///
    /// # Errors
    ///
    /// See [`Session::run`].
    pub fn run_with_backend(&mut self, e: &Expr, backend: Backend) -> Result<RunOutput, RunError> {
        match backend {
            Backend::Tree => self.run(e),
            Backend::Vm => self.run_compiled(e),
        }
    }

    /// Elaborates and preservation-checks one program without
    /// evaluating it, returning its λ⇒ type. Rolls back exactly like
    /// [`Session::run`] — the typecheck-only route of the daemon
    /// protocol.
    ///
    /// # Errors
    ///
    /// [`RunError::Elab`] / [`RunError::PreservationViolated`] as in
    /// [`Session::run`]; evaluation errors cannot occur.
    pub fn typecheck(&mut self, e: &Expr) -> Result<Type, RunError> {
        self.elab.set_dict_cache(None);
        let out = self.elaborate_and_check(e).map(|(ty, _, _)| ty);
        let base = self.env_base;
        self.env.restore(&base);
        self.count(|m| m.programs += 1);
        self.maybe_trim();
        out
    }

    /// Runs one program through the runtime-resolution semantics,
    /// with a full fuel budget but the session's persistent memo.
    ///
    /// # Errors
    ///
    /// Returns an [`OpsemError`] exactly as a cold interpreter would.
    pub fn run_opsem(&mut self, e: &Expr) -> Result<implicit_opsem::Value, OpsemError> {
        self.run_opsem_with_fuel(e, implicit_opsem::DEFAULT_FUEL)
    }

    /// [`Session::run_opsem`] under an explicit fuel budget — the
    /// daemon's per-request opsem budget ([`OpsemError::OutOfFuel`]
    /// maps to the protocol's `fuel_exhausted`).
    ///
    /// # Errors
    ///
    /// See [`Session::run_opsem`].
    pub fn run_opsem_with_fuel(
        &mut self,
        e: &Expr,
        fuel: u64,
    ) -> Result<implicit_opsem::Value, OpsemError> {
        self.interp.refuel(fuel);
        self.count(|m| m.opsem_programs += 1);
        self.emit(TraceEvent::PhaseStart {
            phase: Phase::Opsem,
        });
        let out = self.interp.eval_in(&self.venv, &self.istack, e);
        self.emit(TraceEvent::PhaseEnd {
            phase: Phase::Opsem,
        });
        self.maybe_trim();
        out
    }

    /// Ends a program: forgets the interner's pointer-memo pins
    /// ([`intern::forget_pins`]), and rolls the arena back to the
    /// prelude watermark if the last program(s) left more than
    /// [`TRIM_THRESHOLD`] nodes behind, first purging every cache/memo
    /// entry whose interned id the rollback would orphan.
    pub fn maybe_trim(&mut self) {
        if end_program(&self.intern_base) {
            self.trim();
        }
    }

    /// Restores the prelude watermarks after an *aborted* program — a
    /// panic caught mid-run skipped the entry points' own rollback.
    /// Pops any leaked environment frames, sweeps the per-program
    /// code extension, and rolls the arena back, leaving the session
    /// exactly on its warm snapshot. Used by the daemon's
    /// `catch_unwind` containment ([`crate::service`]).
    pub fn recover(&mut self) {
        let base = self.env_base;
        self.env.restore(&base);
        let code_base = self.code_base;
        self.compiler.rollback(&code_base);
        self.trim();
    }

    /// Folds an externally accumulated counter snapshot (e.g. the
    /// daemon's resolve-route [`MetricsRegistry`]) into this
    /// session's metrics.
    pub fn fold_metrics(&mut self, m: &MetricsRegistry) {
        self.metrics.borrow_mut().metrics.merge(m);
    }

    /// Unconditional arena rollback; see [`Session::maybe_trim`].
    pub fn trim(&mut self) {
        let base = self.intern_base;
        self.interp.retain_memo(|id| base.covers_rule(id));
        // Dictionary entries are keyed by interned rule id; drop the
        // ones the truncation would orphan *before* truncating (ids
        // below the watermark are prefix-stable). Their globals stay
        // registered — harmless dead weight, re-promoted on demand.
        self.dict.borrow_mut().retain_covered(&base);
        trim_arena(&base, &self.env);
        self.count(|m| m.trims += 1);
    }
}

/// Ends one program on this thread's interning arena: forgets the
/// pointer memo's pins ([`intern::forget_pins`]) and reports whether
/// the arena has grown more than [`TRIM_THRESHOLD`] nodes past `base`,
/// so the caller should [`trim_arena`] back to it.
fn end_program(base: &InternSnapshot) -> bool {
    intern::forget_pins();
    let (types, rules) = intern::arena_len();
    types > base.type_count() + TRIM_THRESHOLD || rules > base.rule_count() + TRIM_THRESHOLD
}

/// Rolls the arena back to `base`, first dropping the derivation-cache
/// entries of `env` whose query the rollback would orphan. Any other
/// cache keyed by interned ids must be purged before this call.
fn trim_arena(base: &InternSnapshot, env: &ImplicitEnv) {
    env.retain_cache(|id| base.covers_rule(id));
    intern::truncate_to(base);
}

/// Compiles an elaborated prelude binding and evaluates it on the VM
/// against the globals registered so far.
fn compile_eval(
    compiler: &mut Compiler,
    globals: &[systemf::Value],
    fe: &FExpr,
) -> Result<systemf::Value, SessionError> {
    let main = compiler
        .compile(fe)
        .map_err(|e| SessionError::Run(RunError::Eval(compile_error_to_eval(e))))?;
    Vm::new()
        .run(compiler.code(), main, globals)
        .map_err(|e| SessionError::Run(RunError::Eval(e)))
}

/// A compile error on elaborated input can only be an unbound
/// variable, which the tree-walker would also report (just later, at
/// evaluation time).
fn compile_error_to_eval(e: CompileError) -> systemf::EvalError {
    match e {
        CompileError::Unbound(x) => systemf::EvalError::UnboundVar(x),
    }
}

/// A convenience error type unifying both legs for batch reporting.
#[derive(Debug)]
pub enum BatchError {
    /// The elaboration leg failed.
    Run(RunError),
    /// The operational-semantics leg failed.
    Opsem(OpsemError),
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::Run(e) => write!(f, "{e}"),
            BatchError::Opsem(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BatchError {}

/// Re-exported so downstream crates name one `ElabError` type.
pub type Elab = ElabError;

#[cfg(test)]
mod tests {
    use super::*;
    use implicit_core::syntax::BinOp;

    /// Chain preludes drive derivations a dozen-plus recursion levels
    /// deep through resolve/elaborate/eval; debug-build frames for
    /// that interleaving overflow the default test-thread stack.
    fn with_big_stack(f: impl FnOnce() + Send + 'static) {
        std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn(f)
            .unwrap()
            .join()
            .unwrap();
    }

    fn chain_query_program(n: usize, j: i64) -> Expr {
        // snd(?T_n) + j — resolving ?T_n walks the whole chain.
        Expr::binop(
            BinOp::Add,
            Expr::Snd(Expr::query_simple(Prelude::chain_head(n)).into()),
            Expr::Int(j),
        )
    }

    #[test]
    fn warm_session_matches_cold_pipeline_on_the_chain_workload() {
        with_big_stack(|| {
            let decls = Declarations::default();
            let prelude = Prelude::chain(12);
            let mut sess = Session::new(&decls, ResolutionPolicy::paper(), &prelude).unwrap();
            for j in 0..8 {
                let e = chain_query_program(12, j);
                let warm = sess.run(&e).unwrap();
                let cold = implicit_elab::run_with(
                    &decls,
                    &prelude.wrap(e.clone(), Type::Int),
                    &ResolutionPolicy::paper(),
                )
                .unwrap();
                assert_eq!(warm.value.to_string(), cold.value.to_string());
                assert_eq!(warm.source_type.to_string(), cold.source_type.to_string());
                assert_eq!(
                    warm.target_type.to_string(),
                    cold.target_type.to_string(),
                    "stripped wrapper type must match the cold elaboration type"
                );
                let vo = sess.run_opsem(&e).unwrap();
                assert_eq!(vo.to_string(), warm.value.to_string());
            }
        });
    }

    #[test]
    fn second_program_hits_the_warm_derivation_cache() {
        with_big_stack(|| {
            let decls = Declarations::default();
            let prelude = Prelude::chain(10);
            let mut sess = Session::new(&decls, ResolutionPolicy::paper(), &prelude).unwrap();
            sess.run(&chain_query_program(10, 0)).unwrap();
            let after_first = sess.cache_counters();
            sess.run(&chain_query_program(10, 1)).unwrap();
            let after_second = sess.cache_counters();
            assert!(
                after_second.hits > after_first.hits,
                "prelude-level queries must be cache hits on the 2nd program \
                 (first {after_first:?}, second {after_second:?})"
            );
        });
    }

    #[test]
    fn second_program_hits_the_runtime_memo() {
        with_big_stack(|| {
            let decls = Declarations::default();
            let prelude = Prelude::chain(10);
            let mut sess = Session::new(&decls, ResolutionPolicy::paper(), &prelude).unwrap();
            sess.run_opsem(&chain_query_program(10, 0)).unwrap();
            let (h1, _) = sess.memo_counters();
            sess.run_opsem(&chain_query_program(10, 1)).unwrap();
            let (h2, _) = sess.memo_counters();
            assert!(
                h2 > h1,
                "runtime resolutions must memoize across programs ({h1} → {h2})"
            );
        });
    }

    #[test]
    fn lets_are_in_scope_and_evaluated_once() {
        let decls = Declarations::default();
        let prelude = Prelude {
            lets: vec![(
                Symbol::from("base"),
                Type::Int,
                Expr::binop(BinOp::Mul, Expr::Int(6), Expr::Int(7)),
            )],
            implicits: vec![(Expr::var("base"), Type::Int.promote())],
        };
        let mut sess = Session::new(&decls, ResolutionPolicy::paper(), &prelude).unwrap();
        let e = Expr::binop(BinOp::Add, Expr::var("base"), Expr::query_simple(Type::Int));
        let warm = sess.run(&e).unwrap();
        assert_eq!(warm.value.to_string(), "84");
        let cold = implicit_elab::run(&decls, &prelude.wrap(e.clone(), Type::Int)).unwrap();
        assert_eq!(cold.value.to_string(), "84");
        assert_eq!(sess.run_opsem(&e).unwrap().to_string(), "84");
    }

    #[test]
    fn later_alpha_equal_bindings_shadow_earlier_ones() {
        let decls = Declarations::default();
        let prelude = Prelude::implicits(vec![
            (Expr::Int(1), Type::Int.promote()),
            (Expr::Int(2), Type::Int.promote()),
        ]);
        let mut sess = Session::new(&decls, ResolutionPolicy::paper(), &prelude).unwrap();
        let e = Expr::query_simple(Type::Int);
        let warm = sess.run(&e).unwrap();
        let cold = implicit_elab::run(&decls, &prelude.wrap(e.clone(), Type::Int)).unwrap();
        assert_eq!(warm.value.to_string(), "2", "inner scope wins");
        assert_eq!(cold.value.to_string(), "2");
        assert_eq!(sess.run_opsem(&e).unwrap().to_string(), "2");
    }

    #[test]
    fn trim_rolls_the_arena_back_and_keeps_results_correct() {
        with_big_stack(|| {
            let decls = Declarations::default();
            let prelude = Prelude::chain(8);
            let mut sess = Session::new(&decls, ResolutionPolicy::paper(), &prelude).unwrap();
            let (base_types, _) = intern::arena_len();
            for j in 0..4 {
                sess.run(&chain_query_program(8, j)).unwrap();
            }
            // Force growth past the prelude watermark, then trim.
            for k in 0..64 {
                let mut t = Type::Str;
                for _ in 0..k {
                    t = Type::prod(t, Type::Bool);
                }
                intern::type_id(&t);
            }
            sess.trim();
            let (types_after, _) = intern::arena_len();
            assert!(
                types_after <= base_types,
                "trim must roll the arena back to the prelude watermark \
                 ({base_types} → {types_after})"
            );
            // And the session still answers correctly afterwards.
            let warm = sess.run(&chain_query_program(8, 5)).unwrap();
            let cold =
                implicit_elab::run(&decls, &prelude.wrap(chain_query_program(8, 5), Type::Int))
                    .unwrap();
            assert_eq!(warm.value.to_string(), cold.value.to_string());
            assert!(sess.metrics().trims >= 1);
        });
    }

    #[test]
    fn compiled_backend_matches_the_tree_walker_and_rolls_back() {
        with_big_stack(|| {
            let decls = Declarations::default();
            let prelude = Prelude::chain(8);
            let mut sess = Session::new(&decls, ResolutionPolicy::paper(), &prelude).unwrap();
            let funcs_base = sess.compiler.code().funcs.len();
            for j in 0..6 {
                let e = chain_query_program(8, j);
                let vm = sess.run_compiled(&e).unwrap();
                let tree = sess.run(&e).unwrap();
                assert_eq!(vm.value.to_string(), tree.value.to_string());
                assert_eq!(vm.source_type.to_string(), tree.source_type.to_string());
                assert_eq!(vm.target_type.to_string(), tree.target_type.to_string());
                assert_eq!(
                    sess.compiler.code().funcs.len(),
                    funcs_base,
                    "per-program code must be rolled back to the prelude watermark"
                );
            }
            assert_eq!(sess.metrics().compiled_programs, 6);
        });
    }

    #[test]
    fn run_with_backend_dispatches() {
        let decls = Declarations::default();
        let prelude = Prelude::implicits(vec![(Expr::Int(5), Type::Int.promote())]);
        let mut sess = Session::new(&decls, ResolutionPolicy::paper(), &prelude).unwrap();
        let e = Expr::binop(BinOp::Add, Expr::query_simple(Type::Int), Expr::Int(2));
        let t = sess.run_with_backend(&e, Backend::Tree).unwrap();
        let v = sess.run_with_backend(&e, Backend::Vm).unwrap();
        assert_eq!(t.value.to_string(), "7");
        assert_eq!(v.value.to_string(), "7");
        assert_eq!(Backend::parse("vm"), Some(Backend::Vm));
        assert_eq!(Backend::parse("tree"), Some(Backend::Tree));
        assert_eq!(Backend::parse("jit"), None);
        assert_eq!(Backend::parse("vm-stack"), None);
        assert_eq!(Backend::Vm.to_string(), "vm");
    }

    #[test]
    fn from_wrapped_round_trips_the_prelude_convention() {
        let mut prelude = Prelude::chain(3);
        prelude
            .lets
            .push((Symbol::from("b"), Type::Int, Expr::Int(7)));
        let wrapped = prelude.wrap(Expr::Unit, Type::Unit);
        let back = Prelude::from_wrapped(&wrapped).unwrap();
        assert_eq!(back.lets.len(), 1);
        assert_eq!(back.implicits.len(), prelude.implicits.len());
        assert_eq!(back.wrap(Expr::Unit, Type::Unit), wrapped);
        // Non-unit terminal bodies are rejected: the prelude binds,
        // programs supply the bodies.
        assert!(Prelude::from_wrapped(&prelude.wrap(Expr::Int(1), Type::Int)).is_err());
    }

    #[test]
    fn elaboration_errors_leave_the_session_reusable() {
        let decls = Declarations::default();
        let prelude = Prelude::chain(4);
        let mut sess = Session::new(&decls, ResolutionPolicy::paper(), &prelude).unwrap();
        // Unresolvable query: Str is not in the prelude.
        let bad = Expr::query_simple(Type::Str);
        assert!(sess.run(&bad).is_err());
        let good = chain_query_program(4, 3);
        let warm = sess.run(&good).unwrap();
        let cold = implicit_elab::run(&decls, &prelude.wrap(good.clone(), Type::Int)).unwrap();
        assert_eq!(warm.value.to_string(), cold.value.to_string());
    }
}
