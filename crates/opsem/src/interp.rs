//! The big-step operational semantics (extended report, Figure
//! "Operational Semantics").
//!
//! Unlike the elaboration semantics, resolution here happens **at
//! runtime**: a query walks the runtime implicit environment Σ — a
//! stack of rule sets `η = {ρ:v}` — matches a rule closure by type,
//! recursively resolves the part of its context the query does not
//! assume, and either evaluates the closure body (ground queries) or
//! returns a *partially resolved* closure `⟨ρ, θe′, θΣ′, v̄ ∪ θη′⟩`
//! (rule-typed queries).
//!
//! The runtime errors of the extended report's §"Runtime Errors and
//! Coherence Failures" are all represented: lookup failure (no
//! match / overlap), ambiguous instantiation, and — via fuel —
//! non-termination.

use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use implicit_core::env::OverlapPolicy;
use implicit_core::intern;
use implicit_core::list::List;
use implicit_core::resolve::ResolutionPolicy;
use implicit_core::subst::{freshen_rule, TySubst};
use implicit_core::symbol::fresh;
use implicit_core::syntax::{BinOp, Declarations, Expr, RuleType, Type, UnOp};
use implicit_core::unify;

use crate::error::OpsemError;
use crate::value::{Closure, ImplStack, Lookup, RuleClosure, Subst, Value, VarEnv};

/// The step budget a fresh [`Interpreter`] starts with; sessions
/// [`Interpreter::refuel`] to this between programs.
pub const DEFAULT_FUEL: u64 = 10_000_000;

/// How deeply [`Interpreter::eval_in`] and
/// [`Interpreter::resolve_value`] may nest, together. The interpreter
/// recurses on the host stack once per level, so a deep non-tail
/// recursion in the program would overflow it and abort the process;
/// past this bound evaluation returns [`OpsemError::TooDeep`] instead.
/// Sized so that every shape of recursion runs at the bound on the
/// 64 MiB stack of daemon tenants and `--batch` workers (release
/// build).
pub const MAX_EVAL_DEPTH: usize = 30_000;

/// The interpreter.
pub struct Interpreter<'d> {
    decls: &'d Declarations,
    policy: ResolutionPolicy,
    fuel: u64,
    memo: RuntimeMemo,
    insts: InstMemo,
    trace: Option<implicit_core::trace::SharedSink>,
    depth: usize,
}

/// Memo key: the identity of every frame in the runtime stack
/// (innermost first) plus the interned query. Frames are persistent
/// `Rc` cells that are never mutated, so pointer equality of the whole
/// chain identifies the environment exactly; the entry pins a clone of
/// the stack so no frame address can be reused while the entry lives.
type MemoKey = (Vec<usize>, intern::RuleId);

/// A memo of runtime resolutions `Σ ⊢r ρ ⇓ v`, keyed by exact stack
/// identity — the runtime analogue of the core derivation cache.
/// Persistent stacks make invalidation unnecessary: pushing a frame
/// yields a new outer `Rc` and hence a new key.
struct RuntimeMemo {
    entries: HashMap<MemoKey, (Value, ImplStack)>,
    order: VecDeque<MemoKey>,
    capacity: usize,
    /// Bumped by every change to an entry `root` covers; see
    /// [`Interpreter::memo_version`].
    version: u64,
    /// Frame identities, innermost first, of the stack whose rooted
    /// entries `version` counts ([`Interpreter::set_memo_root`]);
    /// `None` counts every entry.
    root: Option<Vec<usize>>,
    hits: u64,
    misses: u64,
}

/// Whether `key` is rooted in the stack whose frame identities are
/// `root`: its frames are that stack's outermost ones. `None` roots
/// every key.
fn rooted(root: &Option<Vec<usize>>, key: &MemoKey) -> bool {
    match root {
        None => true,
        Some(full) => {
            let (n, k) = (full.len(), key.0.len());
            k <= n && key.0[..] == full[n - k..]
        }
    }
}

impl RuntimeMemo {
    fn new() -> RuntimeMemo {
        RuntimeMemo {
            entries: HashMap::new(),
            order: VecDeque::new(),
            capacity: implicit_core::env::DEFAULT_CACHE_CAPACITY,
            version: 0,
            root: None,
            hits: 0,
            misses: 0,
        }
    }

    fn key(ienv: &ImplStack, query: &RuleType) -> MemoKey {
        (frame_ids(ienv), intern::rule_id(query))
    }

    fn lookup(&mut self, key: &MemoKey) -> Option<Value> {
        match self.entries.get(key) {
            Some((v, _)) => {
                self.hits += 1;
                Some(v.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, key: MemoKey, pin: ImplStack, v: Value) {
        if self.capacity == 0 {
            return;
        }
        if rooted(&self.root, &key) {
            self.version += 1;
        }
        if self.entries.insert(key.clone(), (v, pin)).is_some() {
            // Overwrote an existing entry; its `order` slot stands.
            return;
        }
        self.order.push_back(key);
        while self.entries.len() > self.capacity {
            match self.order.pop_front() {
                Some(old) => {
                    if rooted(&self.root, &old) {
                        self.version += 1;
                    }
                    self.entries.remove(&old);
                }
                None => break,
            }
        }
    }
}

/// The identities of `stack`'s frames, innermost first.
fn frame_ids(stack: &ImplStack) -> Vec<usize> {
    stack
        .frames_innermost_first()
        .map(|rc| Rc::as_ptr(rc) as *const () as usize)
        .collect()
}

/// OpInst key: the identity of the rule closure and the type
/// arguments it is applied to.
type InstKey = (usize, Vec<Type>);

/// A memo of OpInst results, `⟨ρ, e, Σ, η⟩[τ̄]`, one per rule closure
/// and type arguments. OpInst is a pure function of the closure, the
/// types and the interpreter's declarations: it takes no tick and
/// reads no runtime environment, so a shared result is the result.
/// (Fresh binder names, where a substitution would capture, make two
/// computations differ only up to α-equivalence.) Each entry pins its
/// closure, so no closure address is reused while its entries live.
/// FIFO-bounded like [`RuntimeMemo`]; never exported, so it carries
/// no version.
struct InstMemo {
    entries: HashMap<InstKey, (Rc<RuleClosure>, Rc<RuleClosure>)>,
    order: VecDeque<InstKey>,
}

impl InstMemo {
    fn new() -> InstMemo {
        InstMemo {
            entries: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    fn insert(&mut self, key: InstKey, pin: Rc<RuleClosure>, inst: Rc<RuleClosure>) {
        self.order.push_back(key.clone());
        self.entries.insert(key, (pin, inst));
        if self.order.len() > implicit_core::env::DEFAULT_CACHE_CAPACITY {
            if let Some(old) = self.order.pop_front() {
                self.entries.remove(&old);
            }
        }
    }
}

/// One runtime-memo entry rooted in a persistent prelude stack,
/// exported for session artifacts (see `implicit-pipeline`).
///
/// Frame identity does not survive serialization, so the key is
/// reduced to the *depth* of the prelude-stack prefix it covered; the
/// importer re-keys against the rebuilt stack's frame `Rc`s.
#[derive(Clone, Debug)]
pub struct MemoExport {
    /// Number of outermost prelude frames the memo key covered.
    pub depth: usize,
    /// The memoized query.
    pub query: RuleType,
    /// The resolved value.
    pub value: Value,
}

impl<'d> Interpreter<'d> {
    /// An interpreter with the paper's resolution policy and a
    /// generous step budget.
    pub fn new(decls: &'d Declarations) -> Interpreter<'d> {
        Interpreter {
            decls,
            policy: ResolutionPolicy::paper(),
            fuel: DEFAULT_FUEL,
            memo: RuntimeMemo::new(),
            insts: InstMemo::new(),
            trace: None,
            depth: 0,
        }
    }

    /// Reports runtime-memo activity as structured trace events
    /// through `sink` (see [`implicit_core::trace`]); `None` clears.
    pub fn set_trace(&mut self, sink: Option<implicit_core::trace::SharedSink>) {
        self.trace = sink;
    }

    /// `(hits, misses)` of the runtime resolution memo, cumulative
    /// over this interpreter's lifetime.
    pub fn memo_counters(&self) -> (u64, u64) {
        (self.memo.hits, self.memo.misses)
    }

    /// Overrides the resolution policy.
    pub fn with_policy(mut self, policy: ResolutionPolicy) -> Interpreter<'d> {
        self.policy = policy;
        self
    }

    /// Overrides the step budget.
    pub fn with_fuel(mut self, fuel: u64) -> Interpreter<'d> {
        self.fuel = fuel;
        self
    }

    /// Resets the remaining step budget in place. A long-lived
    /// session calls this between programs so each one gets the full
    /// budget while the runtime memo (and its cross-program hits)
    /// survives.
    pub fn refuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Keeps only the memoized resolutions whose query id satisfies
    /// `keep`. Counters are untouched; the version moves if a rooted
    /// entry went.
    ///
    /// Required before rolling the interning arena back to an
    /// [`intern::InternSnapshot`]: memo keys embed [`intern::RuleId`]s,
    /// and an id the truncation orphans could be reassigned to a
    /// different query later (pass `|id| snap.covers_rule(id)`).
    pub fn retain_memo(&mut self, keep: impl Fn(intern::RuleId) -> bool) {
        let memo = &mut self.memo;
        let mut moved = false;
        memo.entries.retain(|k, _| {
            let kept = keep(k.1);
            moved |= !kept && rooted(&memo.root, k);
            kept
        });
        memo.order.retain(|k| keep(k.1));
        if moved {
            memo.version += 1;
        }
    }

    /// Makes [`Interpreter::memo_version`] count only the entries
    /// rooted in `stack`, the ones [`Interpreter::export_memo_roots`]
    /// of `stack` sees. A warm session calls it with its prelude
    /// stack, so a program's own frames never move the version.
    pub fn set_memo_root(&mut self, stack: &ImplStack) {
        self.memo.root = Some(frame_ids(stack));
    }

    /// Version stamp of the runtime memo: bumped by every insert of a
    /// rooted entry (see [`Interpreter::set_memo_root`]; before it is
    /// called every entry is rooted), every eviction or
    /// [`Interpreter::retain_memo`] removal of one, and every
    /// [`Interpreter::import_memo_roots`] entry, and by nothing else.
    /// Two observations with the same stamp see the same
    /// [`Interpreter::export_memo_roots`] of the root stack.
    pub fn memo_version(&self) -> u64 {
        self.memo.version
    }

    /// Exports the runtime-memo entries rooted in the prelude stack
    /// `stack`: entries whose frame-identity key is a prefix (by
    /// depth) of `stack`'s frames. Entries keyed by program-local
    /// frames are skipped — their `Rc` identities die with this
    /// process. Iterates in insertion order so the export (and any
    /// artifact embedding it) is deterministic.
    pub fn export_memo_roots(&self, stack: &ImplStack) -> Vec<MemoExport> {
        let root = Some(frame_ids(stack));
        let mut out = Vec::new();
        for key in &self.memo.order {
            if !rooted(&root, key) {
                continue;
            }
            let k = key.0.len();
            let Some(query) = intern::rule_of(key.1) else {
                continue;
            };
            let Some((value, _pin)) = self.memo.entries.get(key) else {
                continue;
            };
            out.push(MemoExport {
                depth: k,
                query,
                value: value.clone(),
            });
        }
        out
    }

    /// Imports memo entries exported by [`Interpreter::export_memo_roots`],
    /// re-keying them against the rebuilt prelude stack `stack` (whose
    /// frame `Rc`s are this process's identities for those frames).
    /// Entries deeper than `stack` are dropped.
    pub fn import_memo_roots(&mut self, stack: &ImplStack, roots: Vec<MemoExport>) {
        for root in roots {
            if root.depth > stack.depth() {
                continue;
            }
            let pin = stack.truncated(root.depth);
            let key = RuntimeMemo::key(&pin, &root.query);
            self.memo.insert(key, pin, root.value);
        }
    }

    /// Evaluates a closed expression.
    ///
    /// # Errors
    ///
    /// Returns an [`OpsemError`] on runtime resolution failure,
    /// primitive failure, or fuel exhaustion.
    pub fn eval(&mut self, e: &Expr) -> Result<Value, OpsemError> {
        self.eval_in(&VarEnv::new(), &ImplStack::new(), e)
    }

    fn tick(&mut self) -> Result<(), OpsemError> {
        if self.fuel == 0 {
            return Err(OpsemError::OutOfFuel);
        }
        self.fuel -= 1;
        Ok(())
    }

    /// The judgment `Σ ⊢ e ⇓ v` (with the term environment made
    /// explicit for the host fragment).
    pub fn eval_in(
        &mut self,
        venv: &VarEnv,
        ienv: &ImplStack,
        e: &Expr,
    ) -> Result<Value, OpsemError> {
        self.enter()?;
        let out = self.step(venv, ienv, e);
        self.depth -= 1;
        out
    }

    /// Enters one more level of host-stack recursion: an evaluation
    /// or a runtime resolution, which nest through each other.
    fn enter(&mut self) -> Result<(), OpsemError> {
        if self.depth == MAX_EVAL_DEPTH {
            return Err(OpsemError::TooDeep);
        }
        self.depth += 1;
        Ok(())
    }

    /// One level of [`Interpreter::eval_in`].
    fn step(&mut self, venv: &VarEnv, ienv: &ImplStack, e: &Expr) -> Result<Value, OpsemError> {
        self.tick()?;
        match e {
            Expr::Int(n) => Ok(Value::Int(*n)),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Str(s) => Ok(Value::Str(Rc::from(s.as_str()))),
            Expr::Unit => Ok(Value::Unit),
            Expr::Var(x) => match venv.get(*x) {
                Some(Lookup::Done(v)) => Ok(v),
                Some(Lookup::Rec { body, ienv, env }) => {
                    let env2 = env.bind_rec(*x, body.clone(), ienv.clone());
                    self.eval_in(&env2, &ienv, &body)
                }
                None => Err(OpsemError::UnboundVar(*x)),
            },
            Expr::Lam(x, _, b) => Ok(Value::Closure(Rc::new(Closure {
                param: *x,
                body: b.clone(),
                venv: venv.clone(),
                ienv: ienv.clone(),
            }))),
            Expr::App(f, a) => {
                let vf = self.eval_in(venv, ienv, f)?;
                let va = self.eval_in(venv, ienv, a)?;
                self.apply(vf, va)
            }
            // OpQuery
            Expr::Query(rho) => self.resolve_value(ienv, rho, self.policy.max_depth),
            // OpRule: build a closure with an empty partial context.
            Expr::RuleAbs(rho, b) => Ok(Value::Rule(Rc::new(RuleClosure {
                rty: (**rho).clone(),
                body: b.clone(),
                venv: venv.clone(),
                ienv: ienv.clone(),
                partial: Vec::new(),
            }))),
            // OpInst: strip the quantifiers, substitute throughout.
            Expr::TyApp(f, args) => {
                let vf = self.eval_in(venv, ienv, f)?;
                let Value::Rule(rc) = vf else {
                    return Err(OpsemError::Stuck(format!(
                        "type application of non-rule value {vf}"
                    )));
                };
                if rc.rty.vars().len() != args.len() {
                    return Err(OpsemError::Stuck(format!(
                        "type application arity: rule `{}` applied to {} argument(s)",
                        rc.rty,
                        args.len()
                    )));
                }
                let inst = self.instantiate(&rc, args);
                if inst.rty.context().is_empty() {
                    // The instantiated type `{} ⇒ τ` is identified
                    // with `τ` (the calculus collapses trivial rule
                    // types), so force the body now — exactly what
                    // the elaboration `E |τ̄|` does in System F.
                    let inner = inst.ienv.pushed(inst.partial.clone());
                    self.eval_in(&inst.venv, &inner, &inst.body)
                } else {
                    Ok(Value::Rule(inst))
                }
            }
            // OpRApp: supply the context and run the body under
            // Σ′; ({ρ̄:v̄} ∪ η′).
            Expr::RuleApp(f, args) => {
                let vf = self.eval_in(venv, ienv, f)?;
                let Value::Rule(rc) = vf else {
                    return Err(OpsemError::Stuck(format!(
                        "rule application of non-rule value {vf}"
                    )));
                };
                if !rc.rty.vars().is_empty() {
                    return Err(OpsemError::Stuck(format!(
                        "rule application of still-polymorphic rule `{}`",
                        rc.rty
                    )));
                }
                let mut frame: Vec<(RuleType, Value)> =
                    Vec::with_capacity(args.len() + rc.partial.len());
                for (ae, arho) in args {
                    let av = self.eval_in(venv, ienv, ae)?;
                    push_distinct(&mut frame, arho.clone(), av);
                }
                for (r, v) in &rc.partial {
                    push_distinct(&mut frame, r.clone(), v.clone());
                }
                let inner = rc.ienv.pushed(frame);
                self.eval_in(&rc.venv, &inner, &rc.body)
            }
            Expr::If(c, t, f) => match self.eval_in(venv, ienv, c)? {
                Value::Bool(true) => self.eval_in(venv, ienv, t),
                Value::Bool(false) => self.eval_in(venv, ienv, f),
                other => Err(OpsemError::Stuck(format!("if on {other}"))),
            },
            Expr::BinOp(op, a, b) => {
                let va = self.eval_in(venv, ienv, a)?;
                let vb = self.eval_in(venv, ienv, b)?;
                binop(*op, va, vb)
            }
            Expr::UnOp(op, a) => {
                let va = self.eval_in(venv, ienv, a)?;
                match (op, va) {
                    (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
                    (UnOp::Neg, Value::Int(n)) => Ok(Value::Int(-n)),
                    (UnOp::IntToStr, Value::Int(n)) => Ok(Value::Str(Rc::from(n.to_string()))),
                    (op, v) => Err(OpsemError::Stuck(format!("{op:?} on {v}"))),
                }
            }
            Expr::Pair(a, b) => Ok(Value::Pair(
                Rc::new(self.eval_in(venv, ienv, a)?),
                Rc::new(self.eval_in(venv, ienv, b)?),
            )),
            // Elimination forms take their payload by move when the
            // scrutinee value is uniquely owned (the common case for
            // freshly built intermediates), falling back to a clone
            // only for shared values.
            Expr::Fst(a) => match self.eval_in(venv, ienv, a)? {
                Value::Pair(l, _) => Ok(Rc::try_unwrap(l).unwrap_or_else(|rc| (*rc).clone())),
                other => Err(OpsemError::Stuck(format!("fst on {other}"))),
            },
            Expr::Snd(a) => match self.eval_in(venv, ienv, a)? {
                Value::Pair(_, r) => Ok(Rc::try_unwrap(r).unwrap_or_else(|rc| (*rc).clone())),
                other => Err(OpsemError::Stuck(format!("snd on {other}"))),
            },
            Expr::Nil(_) => Ok(Value::List(List::new())),
            Expr::Cons(h, t) => {
                let vh = self.eval_in(venv, ienv, h)?;
                match self.eval_in(venv, ienv, t)? {
                    Value::List(xs) => Ok(Value::List(List::cons(vh, xs))),
                    other => Err(OpsemError::Stuck(format!("cons onto {other}"))),
                }
            }
            Expr::ListCase {
                scrut,
                nil,
                head,
                tail,
                cons,
            } => match self.eval_in(venv, ienv, scrut)? {
                Value::List(xs) => match xs.split_first() {
                    Some((h, rest)) => {
                        let env2 = venv.bind(*head, h.clone()).bind(*tail, Value::List(rest));
                        self.eval_in(&env2, ienv, cons)
                    }
                    None => self.eval_in(venv, ienv, nil),
                },
                other => Err(OpsemError::Stuck(format!("case on {other}"))),
            },
            Expr::Fix(x, _, b) => {
                let env2 = venv.bind_rec(*x, b.clone(), ienv.clone());
                self.eval_in(&env2, ienv, b)
            }
            Expr::Make(name, _, fields) => {
                if self.decls.lookup(*name).is_none() {
                    return Err(OpsemError::Stuck(format!("unknown interface `{name}`")));
                }
                let mut out = Vec::with_capacity(fields.len());
                for (u, fe) in fields {
                    out.push((*u, self.eval_in(venv, ienv, fe)?));
                }
                Ok(Value::Record {
                    name: *name,
                    fields: Rc::new(out),
                })
            }
            Expr::Inject(ctor, _, args) => {
                if self.decls.lookup_ctor(*ctor).is_none() {
                    return Err(OpsemError::Stuck(format!("unknown constructor `{ctor}`")));
                }
                let mut out = Vec::with_capacity(args.len());
                for a in args {
                    out.push(self.eval_in(venv, ienv, a)?);
                }
                Ok(Value::Data {
                    ctor: *ctor,
                    fields: Rc::new(out),
                })
            }
            Expr::Match(scrut, arms) => match self.eval_in(venv, ienv, scrut)? {
                Value::Data { ctor, fields } => {
                    let Some(arm) = arms.iter().find(|a| a.ctor == ctor) else {
                        return Err(OpsemError::Stuck(format!("no arm for `{ctor}`")));
                    };
                    if arm.binders.len() != fields.len() {
                        return Err(OpsemError::Stuck(format!(
                            "arm `{ctor}` binder count mismatch"
                        )));
                    }
                    let mut env2 = venv.clone();
                    match Rc::try_unwrap(fields) {
                        Ok(owned) => {
                            for (b, v) in arm.binders.iter().zip(owned) {
                                env2 = env2.bind(*b, v);
                            }
                        }
                        Err(shared) => {
                            for (b, v) in arm.binders.iter().zip(shared.iter()) {
                                env2 = env2.bind(*b, v.clone());
                            }
                        }
                    }
                    self.eval_in(&env2, ienv, &arm.body)
                }
                other => Err(OpsemError::Stuck(format!("match on {other}"))),
            },
            Expr::Proj(rec, field) => match self.eval_in(venv, ienv, rec)? {
                Value::Record { name, fields } => {
                    let Some(pos) = fields.iter().position(|(u, _)| u == field) else {
                        return Err(OpsemError::Stuck(format!(
                            "record {name} has no field {field}"
                        )));
                    };
                    Ok(match Rc::try_unwrap(fields) {
                        Ok(mut owned) => owned.swap_remove(pos).1,
                        Err(shared) => shared[pos].1.clone(),
                    })
                }
                other => Err(OpsemError::Stuck(format!("projection on {other}"))),
            },
        }
    }

    /// Applies a function value.
    ///
    /// # Errors
    ///
    /// Returns [`OpsemError::Stuck`] when `f` is not a function.
    pub fn apply(&mut self, f: Value, a: Value) -> Result<Value, OpsemError> {
        match f {
            Value::Closure(c) => {
                let env2 = c.venv.bind(c.param, a);
                self.eval_in(&env2, &c.ienv, &c.body)
            }
            other => Err(OpsemError::Stuck(format!("apply non-function {other}"))),
        }
    }

    /// OpInst, computed once per rule closure and type arguments when
    /// [`ResolutionPolicy::cache`] is on (see [`InstMemo`]): the §5
    /// encoding instantiates a let-bound polymorphic value at every
    /// use, and each instantiation substitutes the closure's body and
    /// every captured environment.
    fn instantiate(&mut self, rc: &Rc<RuleClosure>, args: &[Type]) -> Rc<RuleClosure> {
        if !self.policy.cache {
            return Rc::new(instantiate(self.decls, rc, args));
        }
        let key = (Rc::as_ptr(rc) as usize, args.to_vec());
        if let Some((_, inst)) = self.insts.entries.get(&key) {
            return inst.clone();
        }
        let inst = Rc::new(instantiate(self.decls, rc, args));
        self.insts.insert(key, rc.clone(), inst.clone());
        inst
    }

    /// Runtime resolution `Σ ⊢r ρ ⇓ v` (rule `DynRes`).
    ///
    /// When [`ResolutionPolicy::cache`] is on (the default), successful
    /// resolutions are memoized per `(stack identity, query)`; a memo
    /// hit returns the shared value without re-running lookup or the
    /// closure body, so it consumes one tick rather than the full
    /// evaluation's budget (fuel is an engineering backstop, not an
    /// observable of the semantics).
    pub fn resolve_value(
        &mut self,
        ienv: &ImplStack,
        query: &RuleType,
        depth: usize,
    ) -> Result<Value, OpsemError> {
        self.enter()?;
        let out = self.resolve_step(ienv, query, depth);
        self.depth -= 1;
        out
    }

    /// One level of [`Interpreter::resolve_value`].
    fn resolve_step(
        &mut self,
        ienv: &ImplStack,
        query: &RuleType,
        depth: usize,
    ) -> Result<Value, OpsemError> {
        self.tick()?;
        if depth == 0 {
            return Err(OpsemError::DepthExceeded {
                query: query.clone(),
                max_depth: self.policy.max_depth,
            });
        }
        if !self.policy.cache {
            return self.resolve_value_uncached(ienv, query, depth);
        }
        let key = RuntimeMemo::key(ienv, query);
        if let Some(v) = self.memo.lookup(&key) {
            self.emit_memo(query, true);
            return Ok(v);
        }
        self.emit_memo(query, false);
        let v = self.resolve_value_uncached(ienv, query, depth)?;
        self.memo.insert(key, ienv.clone(), v.clone());
        Ok(v)
    }

    /// Emits a memo hit/miss event when a trace sink is installed.
    fn emit_memo(&mut self, query: &RuleType, hit: bool) {
        use implicit_core::trace::{TraceEvent, TraceSink};
        if let Some(sink) = &self.trace {
            let mut sink = sink.clone();
            if sink.enabled() {
                let query = query.to_string();
                sink.event(if hit {
                    TraceEvent::MemoHit { query }
                } else {
                    TraceEvent::MemoMiss { query }
                });
            }
        }
    }

    fn resolve_value_uncached(
        &mut self,
        ienv: &ImplStack,
        query: &RuleType,
        depth: usize,
    ) -> Result<Value, OpsemError> {
        let target = query.head();
        let (stored_rty, matched) = lookup_runtime(ienv, target, self.policy.overlap)?;

        match matched {
            Value::Rule(rc) => {
                // Freshen the closure's quantifiers, match the head.
                let (fresh_rty, renaming) = freshen_rule(&rc.rty);
                let Some(theta_f) = unify::match_type(fresh_rty.head(), target, fresh_rty.vars())
                else {
                    // lookup_runtime already matched; this indicates a
                    // frame with a stale key.
                    return Err(OpsemError::Stuck(format!(
                        "environment entry `{stored_rty}` stopped matching `{target}`"
                    )));
                };
                // Every quantifier must be determined (ambiguous
                // instantiation check of the extended report).
                for v in fresh_rty.vars() {
                    if theta_f.get(*v).is_none() {
                        return Err(OpsemError::AmbiguousInstantiation {
                            rule: rc.rty.clone(),
                        });
                    }
                }
                let full = theta_f.compose(&renaming);
                let inst_context = full.apply_context(rc.rty.context());
                // θπ′ − π: resolve premises the query does not assume.
                // Instantiation may collapse several premises onto one
                // type (e.g. ∀a b.{Eq a, Eq b} at a = b); by coherence
                // their evidence is identical, so collapsed premises
                // are resolved once — a frame with two entries of the
                // same type would be an overlap error at the next
                // query.
                let mut resolved: Vec<(RuleType, Value)> = Vec::new();
                for rho_i in &inst_context {
                    if implicit_core::alpha::context_position(query.context(), rho_i).is_some() {
                        continue;
                    }
                    if resolved
                        .iter()
                        .any(|(r, _)| implicit_core::alpha::alpha_eq(r, rho_i))
                    {
                        continue;
                    }
                    let vi = self.resolve_value(ienv, rho_i, depth - 1)?;
                    resolved.push((rho_i.clone(), vi));
                }
                let body = Rc::new(full.apply_expr(&rc.body));
                // One pass over the captured environments: their
                // frames and closures are shared, and each is
                // substituted once.
                let mut pass = Subst::new(&full);
                let venv = pass.venv(&rc.venv);
                let cenv = pass.stack(&rc.ienv);
                let mut partial: Vec<(RuleType, Value)> = resolved;
                for (r, v) in pass.partial(&rc.partial) {
                    push_distinct(&mut partial, r, v);
                }
                if query.is_trivial() {
                    // Ground query: the context is fully resolved;
                    // run the body now.
                    let inner = cenv.pushed(partial);
                    self.eval_in(&venv, &inner, &body)
                } else {
                    // Rule-typed query: return the partially resolved
                    // closure ⟨ρ, θe′, θΣ′, v̄ ∪ θη′⟩.
                    Ok(Value::Rule(Rc::new(RuleClosure {
                        rty: query.clone(),
                        body,
                        venv,
                        ienv: cenv,
                        partial,
                    })))
                }
            }
            plain => {
                if query.is_trivial() {
                    Ok(plain)
                } else {
                    // A first-order value answering a rule-typed
                    // query: wrap it in a constant closure that
                    // ignores the assumed context.
                    let boxed = fresh("boxed");
                    Ok(Value::Rule(Rc::new(RuleClosure {
                        rty: query.clone(),
                        body: Rc::new(Expr::Var(boxed)),
                        venv: VarEnv::new().bind(boxed, plain),
                        ienv: ImplStack::new(),
                        partial: Vec::new(),
                    })))
                }
            }
        }
    }
}

/// Pushes an entry unless an α-equal rule type is already present —
/// substitution-collapsed duplicates carry identical evidence by
/// coherence, and duplicated types in one rule set are lookup errors.
fn push_distinct(frame: &mut Vec<(RuleType, Value)>, rho: RuleType, v: Value) {
    if !frame
        .iter()
        .any(|(r, _)| implicit_core::alpha::alpha_eq(r, &rho))
    {
        frame.push((rho, v));
    }
}

/// OpInst: `⟨∀ᾱ.π ⇒ τ, e, Σ, η⟩[τ̄] = [ᾱ↦τ̄]⟨π ⇒ τ, e, Σ, η⟩`.
///
/// Bare interface names supplied for arrow-kinded quantifiers are
/// coerced to constructor references, as in the type checker.
fn instantiate(decls: &Declarations, rc: &RuleClosure, args: &[Type]) -> RuleClosure {
    use implicit_core::syntax::TyCon;
    let kinds = implicit_core::typeck::infer_binder_kinds(decls, &rc.rty).unwrap_or_default();
    let args: Vec<Type> = rc
        .rty
        .vars()
        .iter()
        .zip(args)
        .map(|(v, a)| match (kinds.get(v).copied().unwrap_or(0), a) {
            (k, Type::Con(n, empty)) if k > 0 && empty.is_empty() => Type::Ctor(TyCon::Named(*n)),
            _ => a.clone(),
        })
        .collect();
    let args = &args[..];
    let theta = TySubst::bind_all(rc.rty.vars(), args);
    let mut pass = Subst::new(&theta);
    RuleClosure {
        rty: RuleType::new(
            Vec::new(),
            theta.apply_context(rc.rty.context()),
            theta.apply_type(rc.rty.head()),
        ),
        body: Rc::new(theta.apply_expr(&rc.body)),
        venv: pass.venv(&rc.venv),
        ienv: pass.stack(&rc.ienv),
        partial: pass.partial(&rc.partial),
    }
}

/// Runtime lookup `Σ⟨τ⟩ = v`: innermost frame with at least one
/// match decides; within a frame the match must be unique (or
/// uniquely most specific).
fn lookup_runtime(
    ienv: &ImplStack,
    target: &Type,
    policy: OverlapPolicy,
) -> Result<(RuleType, Value), OpsemError> {
    let target_key = intern::head_key(target);
    for frame in ienv.frames_innermost_first() {
        let mut matches: Vec<usize> = Vec::new();
        for (ix, (rho, _)) in frame.iter().enumerate() {
            // Head-constructor pre-filter: a rule whose head key does
            // not admit the target's key cannot match.
            if !intern::head_key(rho.head()).admits(target_key) {
                continue;
            }
            let hit = if rho.vars().is_empty() {
                // Freshening is the identity for var-less rules, so
                // match the stored rule directly (the matcher short-
                // circuits ground heads by interned id).
                unify::head_matches(rho, target).is_some()
            } else {
                let (fresh_rho, _) = freshen_rule(rho);
                unify::head_matches(&fresh_rho, target).is_some()
            };
            if hit {
                matches.push(ix);
            }
        }
        match matches.len() {
            0 => continue,
            1 => {
                let (r, v) = &frame[matches[0]];
                return Ok((r.clone(), v.clone()));
            }
            _ => {
                // Exact evidence takes priority: when instantiation
                // makes a supplied context entry collide with a more
                // general rule (the `Perfect`-instance pattern:
                // `(f a) → String` vs `∀b.{b→String} ⇒ f b → String`
                // at `a := b`), the entry whose type *is* the queried
                // type is the one the positional elaboration
                // semantics used, so runtime lookup prefers it.
                // Genuinely incomparable overlap still errors (or
                // defers to the most-specific policy).
                let exact: Vec<usize> = matches
                    .iter()
                    .copied()
                    .filter(|&i| {
                        let rty = &frame[i].0;
                        rty.vars().is_empty()
                            && rty.context().is_empty()
                            && implicit_core::alpha::alpha_eq_type(rty.head(), target)
                    })
                    .collect();
                if exact.len() == 1 {
                    let (r, v) = &frame[exact[0]];
                    return Ok((r.clone(), v.clone()));
                }
                if policy == OverlapPolicy::MostSpecific {
                    if let Some(win) = pick_most_specific_runtime(frame, &matches) {
                        let (r, v) = &frame[win];
                        return Ok((r.clone(), v.clone()));
                    }
                }
                return Err(OpsemError::Overlap {
                    target: target.clone(),
                    candidates: matches.iter().map(|&i| frame[i].0.clone()).collect(),
                });
            }
        }
    }
    Err(OpsemError::NoMatch(target.clone()))
}

fn pick_most_specific_runtime(frame: &[(RuleType, Value)], matches: &[usize]) -> Option<usize> {
    let specific = |i: usize, j: usize| {
        let (fi, _) = freshen_rule(&frame[i].0);
        let (fj, _) = freshen_rule(&frame[j].0);
        unify::match_type(fj.head(), fi.head(), fj.vars()).is_some()
    };
    'outer: for &i in matches {
        for &j in matches {
            if i != j && !specific(i, j) {
                continue 'outer;
            }
        }
        for &j in matches {
            if i != j && specific(j, i) && !implicit_core::alpha::alpha_eq(&frame[i].0, &frame[j].0)
            {
                return None;
            }
        }
        return Some(i);
    }
    None
}

fn binop(op: BinOp, a: Value, b: Value) -> Result<Value, OpsemError> {
    use BinOp::*;
    match (op, &a, &b) {
        (Add, Value::Int(x), Value::Int(y)) => Ok(Value::Int(x.wrapping_add(*y))),
        (Sub, Value::Int(x), Value::Int(y)) => Ok(Value::Int(x.wrapping_sub(*y))),
        (Mul, Value::Int(x), Value::Int(y)) => Ok(Value::Int(x.wrapping_mul(*y))),
        (Div, Value::Int(_), Value::Int(0)) | (Mod, Value::Int(_), Value::Int(0)) => {
            Err(OpsemError::DivisionByZero)
        }
        (Div, Value::Int(x), Value::Int(y)) => Ok(Value::Int(x.wrapping_div(*y))),
        (Mod, Value::Int(x), Value::Int(y)) => Ok(Value::Int(x.wrapping_rem(*y))),
        (Lt, Value::Int(x), Value::Int(y)) => Ok(Value::Bool(x < y)),
        (Le, Value::Int(x), Value::Int(y)) => Ok(Value::Bool(x <= y)),
        (And, Value::Bool(x), Value::Bool(y)) => Ok(Value::Bool(*x && *y)),
        (Or, Value::Bool(x), Value::Bool(y)) => Ok(Value::Bool(*x || *y)),
        (Concat, Value::Str(x), Value::Str(y)) => {
            Ok(Value::Str(Rc::from(format!("{x}{y}").as_str())))
        }
        (Eq, a, b) => a
            .try_eq(b)
            .map(Value::Bool)
            .ok_or_else(|| OpsemError::Stuck("equality on closures".into())),
        (op, a, b) => Err(OpsemError::Stuck(format!("{op:?} on {a} and {b}"))),
    }
}

/// Evaluates a closed expression with default settings.
///
/// # Errors
///
/// See [`Interpreter::eval`].
pub fn eval(decls: &Declarations, e: &Expr) -> Result<Value, OpsemError> {
    Interpreter::new(decls).eval(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use implicit_core::parse::parse_expr;
    use implicit_core::symbol::Symbol;

    fn pair_rule(interp: &mut Interpreter<'_>) -> Rc<RuleClosure> {
        let e = parse_expr("rule (forall a. {a} => a * a) ((?(a), ?(a)))").unwrap();
        match interp.eval(&e).unwrap() {
            Value::Rule(rc) => rc,
            other => panic!("expected a rule closure, got {other}"),
        }
    }

    #[test]
    fn a_closure_is_instantiated_once_per_type_arguments() {
        let decls = Declarations::new();
        let mut interp = Interpreter::new(&decls);
        let rc = pair_rule(&mut interp);
        let at_int = interp.instantiate(&rc, &[Type::Int]);
        assert_eq!(at_int.rty.head(), &Type::prod(Type::Int, Type::Int));
        assert!(Rc::ptr_eq(&at_int, &interp.instantiate(&rc, &[Type::Int])));
        let at_bool = interp.instantiate(&rc, &[Type::Bool]);
        assert!(!Rc::ptr_eq(&at_int, &at_bool));
        assert_eq!(at_bool.rty.head(), &Type::prod(Type::Bool, Type::Bool));
    }

    #[test]
    fn instantiation_is_memoised_only_with_the_cache_on() {
        let decls = Declarations::new();
        let mut interp =
            Interpreter::new(&decls).with_policy(ResolutionPolicy::paper().without_cache());
        let rc = pair_rule(&mut interp);
        let a = interp.instantiate(&rc, &[Type::Int]);
        assert!(!Rc::ptr_eq(&a, &interp.instantiate(&rc, &[Type::Int])));
    }

    #[test]
    fn the_instantiation_memo_evicts_its_oldest_entry() {
        let decls = Declarations::new();
        let mut interp = Interpreter::new(&decls);
        let rc = pair_rule(&mut interp);
        let at = |i: usize| [Type::var(Symbol::intern(&format!("inst{i}")))];
        let first = interp.instantiate(&rc, &at(0));
        for i in 1..=implicit_core::env::DEFAULT_CACHE_CAPACITY {
            interp.instantiate(&rc, &at(i));
        }
        assert_eq!(
            interp.insts.entries.len(),
            implicit_core::env::DEFAULT_CACHE_CAPACITY
        );
        assert!(!Rc::ptr_eq(&first, &interp.instantiate(&rc, &at(0))));
    }
}
