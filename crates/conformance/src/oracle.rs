//! The three-way semantic oracle.
//!
//! Every seed is pushed through three independent implementations of
//! the paper's semantics, which must agree:
//!
//! * **(a) Elaboration** — elaborate to System F, type-check the
//!   output (the §4 preservation theorem, checked dynamically), and
//!   evaluate call-by-value — under the paper policy with the
//!   derivation cache on, off, and under the most-specific overlap
//!   policy (generated programs are overlap-free, so all three must
//!   produce the same value and type).
//! * **(b) Direct operational semantics** — the runtime-resolution
//!   interpreter, with its runtime memo on and off.
//! * **(b′) Compiled backend** — the elaborated System F term is also
//!   closure-converted to bytecode and run on the [`systemf::vm`]
//!   virtual machine, which must print the same value as the
//!   tree-walking evaluator, the reference it is checked against.
//! * **(c) Resolution** — a seed-derived environment/query workload
//!   resolved under each [`ResolutionPolicy`] with the derivation
//!   cache on and off; the full [`Resolution`] derivations and their
//!   [`ResolutionStats`]-visible work counters must be identical.
//! * **(d) Intersection subtyping** — every query site in the program
//!   (and every env-level workload query) is also decided by the
//!   structurally independent resolution-as-intersection-subtyping
//!   algorithm ([`implicit_core::subtyping`]), which must reproduce
//!   the logic resolver's outcome, evidence, and failure payloads
//!   exactly.
//!
//! Any disagreement or crash is a [`Divergence`], categorized for
//! triage and for the shrinker's "still diverges the same way"
//! predicate.

use std::fmt;

use implicit_core::resolve::{resolve, Resolution, ResolutionPolicy};
use implicit_core::syntax::{Declarations, Expr, RuleType, Type};
use implicit_core::typeck::{types_equal, Typechecker};
use implicit_opsem::Interpreter;

/// Divergence categories (stable labels; the shrinker preserves the
/// category while minimizing).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DivergenceKind {
    /// The generator emitted an ill-typed program.
    IllTyped,
    /// The checker's type differs from the generator's declared type.
    TypeDrift,
    /// Elaboration failed on a well-typed program.
    ElabFailed,
    /// The elaborated term was ill-typed in System F (§4 preservation
    /// theorem violated).
    PreservationViolated,
    /// System F evaluation of the elaborated term failed (type-safety
    /// violation).
    ElabEvalFailed,
    /// The direct operational semantics failed where elaboration
    /// succeeded.
    OpsemFailed,
    /// Elaboration and the operational semantics computed different
    /// values (coherence violation).
    ValueMismatch,
    /// Cache/memo on vs. off changed an observable result.
    CacheMismatch,
    /// A resolution-policy variant changed the result on an
    /// overlap-free program.
    PolicyMismatch,
    /// The env-level resolution oracle saw differing derivations or
    /// work counters.
    ResolutionMismatch,
    /// A warm [`implicit_pipeline::Session`] run disagreed with the
    /// cold one-shot pipeline on the sugared equivalent program.
    WarmColdMismatch,
    /// The bytecode VM disagreed with (or failed where) the
    /// tree-walking System F evaluator (succeeded).
    VmMismatch,
    /// The intersection-subtyping resolver disagreed with the logic
    /// resolver — different outcome, evidence, or failure payload.
    SubtypingMismatch,
    /// A session rehydrated from a serialized artifact
    /// ([`implicit_pipeline::Session::from_artifact`]) disagreed with
    /// the same-process warm session on a program.
    RestartMismatch,
    /// An `implicitd` tenant serving the program over the wire
    /// ([`implicit_pipeline::service`]) disagreed with the in-process
    /// warm session.
    DaemonMismatch,
}

impl DivergenceKind {
    /// The stable machine-readable label.
    pub fn label(self) -> &'static str {
        match self {
            DivergenceKind::IllTyped => "ill_typed",
            DivergenceKind::TypeDrift => "type_drift",
            DivergenceKind::ElabFailed => "elab_failed",
            DivergenceKind::PreservationViolated => "preservation_violated",
            DivergenceKind::ElabEvalFailed => "elab_eval_failed",
            DivergenceKind::OpsemFailed => "opsem_failed",
            DivergenceKind::ValueMismatch => "value_mismatch",
            DivergenceKind::CacheMismatch => "cache_mismatch",
            DivergenceKind::PolicyMismatch => "policy_mismatch",
            DivergenceKind::ResolutionMismatch => "resolution_mismatch",
            DivergenceKind::WarmColdMismatch => "warm_cold_mismatch",
            DivergenceKind::VmMismatch => "vm_mismatch",
            DivergenceKind::SubtypingMismatch => "subtyping_mismatch",
            DivergenceKind::RestartMismatch => "restart_mismatch",
            DivergenceKind::DaemonMismatch => "daemon_mismatch",
        }
    }
}

impl fmt::Display for DivergenceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A detected divergence.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Category.
    pub kind: DivergenceKind,
    /// Human-readable description of the disagreement.
    pub detail: String,
}

impl Divergence {
    fn new(kind: DivergenceKind, detail: impl Into<String>) -> Divergence {
        Divergence {
            kind,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.detail)
    }
}

/// What the program oracle observed when all legs agreed.
#[derive(Clone, Debug)]
pub struct ProgramVerdict {
    /// The agreed value (printed form).
    pub value: String,
    /// The agreed λ⇒ type (printed form).
    pub ty: String,
    /// Runtime memo counters `(hits, misses)` of the memo-on opsem
    /// leg.
    pub memo: (u64, u64),
}

/// Runs the program legs of the oracle: elaboration (cache on / off /
/// most-specific) vs. the direct operational semantics (memo on /
/// off), plus the §4 preservation check.
///
/// # Errors
///
/// Returns the first [`Divergence`] found.
pub fn run_program_oracle(
    decls: &Declarations,
    expr: &Expr,
    declared_ty: &Type,
) -> Result<ProgramVerdict, Divergence> {
    // Leg 0: the λ⇒ type system accepts the program at the declared
    // type.
    let checked = Typechecker::new(decls)
        .check_closed(expr)
        .map_err(|e| Divergence::new(DivergenceKind::IllTyped, e.to_string()))?;
    if !types_equal(&checked, declared_ty) {
        return Err(Divergence::new(
            DivergenceKind::TypeDrift,
            format!("declared `{declared_ty}`, checked `{checked}`"),
        ));
    }

    // Leg (a): elaboration under three policies. `run_with` already
    // type-checks the System F output (preservation) before
    // evaluating.
    let policies: [(&str, ResolutionPolicy); 3] = [
        ("paper+cache", ResolutionPolicy::paper()),
        ("paper-nocache", ResolutionPolicy::paper().without_cache()),
        (
            "most-specific",
            ResolutionPolicy::paper().with_most_specific(),
        ),
    ];
    let mut elab_value: Option<String> = None;
    let mut elab_ty: Option<String> = None;
    let mut elab_target: Option<systemf::FExpr> = None;
    for (name, policy) in &policies {
        let out = implicit_elab::run_with(decls, expr, policy).map_err(|e| {
            let kind = match &e {
                implicit_elab::RunError::Elab(_) => DivergenceKind::ElabFailed,
                implicit_elab::RunError::PreservationViolated(_) => {
                    DivergenceKind::PreservationViolated
                }
                implicit_elab::RunError::Eval(_) => DivergenceKind::ElabEvalFailed,
            };
            Divergence::new(kind, format!("[{name}] {e}"))
        })?;
        let v = out.value.to_string();
        let t = out.source_type.to_string();
        match (&elab_value, &elab_ty) {
            (None, _) => {
                elab_value = Some(v);
                elab_ty = Some(t);
                elab_target = Some(out.target);
            }
            (Some(v0), Some(t0)) => {
                if *v0 != v || *t0 != t {
                    let kind = if *name == "most-specific" {
                        DivergenceKind::PolicyMismatch
                    } else {
                        DivergenceKind::CacheMismatch
                    };
                    return Err(Divergence::new(
                        kind,
                        format!("[{name}] value `{v}` type `{t}` vs baseline `{v0}` `{t0}`"),
                    ));
                }
            }
            _ => unreachable!("value and type are set together"),
        }
    }
    let value = elab_value.expect("at least one policy ran");

    // Leg (b′): the same elaborated term, closure-converted to
    // bytecode and run on the VM. The tree-walker already evaluated
    // the term, so a compile or run failure here is as much a
    // divergence as a differing value.
    let target = elab_target.expect("target kept alongside the baseline value");
    match systemf::compile_and_run(&target) {
        Ok(vm_value) => {
            let vm_value = vm_value.to_string();
            if vm_value != value {
                return Err(Divergence::new(
                    DivergenceKind::VmMismatch,
                    format!("vm `{vm_value}` vs tree-walk `{value}`"),
                ));
            }
        }
        Err(e) => {
            return Err(Divergence::new(
                DivergenceKind::VmMismatch,
                format!("vm failed where tree-walk succeeded: {e}"),
            ));
        }
    }

    // Leg (b): the direct operational semantics, memo on and off.
    let mut memo_on = Interpreter::new(decls);
    let v_on = memo_on
        .eval(expr)
        .map_err(|e| Divergence::new(DivergenceKind::OpsemFailed, format!("[memo-on] {e}")))?;
    let memo = memo_on.memo_counters();
    if v_on.to_string() != value {
        return Err(Divergence::new(
            DivergenceKind::ValueMismatch,
            format!("opsem `{v_on}` vs elaboration `{value}`"),
        ));
    }
    let mut memo_off =
        Interpreter::new(decls).with_policy(ResolutionPolicy::paper().without_cache());
    let v_off = memo_off
        .eval(expr)
        .map_err(|e| Divergence::new(DivergenceKind::OpsemFailed, format!("[memo-off] {e}")))?;
    if v_off.to_string() != v_on.to_string() {
        return Err(Divergence::new(
            DivergenceKind::CacheMismatch,
            format!("opsem memo-off `{v_off}` vs memo-on `{v_on}`"),
        ));
    }

    // Leg (d): the intersection-subtyping resolver, cross-checked at
    // every query site of the program against the logic resolver —
    // same successes (identical evidence after [`MpStep`] →
    // [`Resolution`] conversion) and same failures (equal error
    // values). Ample depth keeps the two engines fuel-equivalent (the
    // logic resolver's derivation cache conserves fuel on repeated
    // sub-queries; the subtyping prover has no cache).
    check_subtyping_sites(expr)?;

    Ok(ProgramVerdict {
        value,
        ty: checked.to_string(),
        memo,
    })
}

/// Cross-checks the subtyping resolver against the logic resolver at
/// every query site of `expr`, under the paper and most-specific
/// policies.
fn check_subtyping_sites(expr: &Expr) -> Result<(), Divergence> {
    let policies = [
        ("paper", ResolutionPolicy::paper().with_max_depth(4096)),
        (
            "most-specific",
            ResolutionPolicy::paper()
                .with_most_specific()
                .with_max_depth(4096),
        ),
    ];
    let mut failure: Option<Divergence> = None;
    implicit_core::subtyping::walk_query_sites(expr, &mut |env, query| {
        if failure.is_some() {
            return;
        }
        for (pname, policy) in &policies {
            if let Err(detail) = implicit_core::subtyping::cross_check(env, query, policy) {
                failure = Some(Divergence::new(
                    DivergenceKind::SubtypingMismatch,
                    format!("[{pname}] query `{query}`: {detail}"),
                ));
                return;
            }
        }
    });
    match failure {
        Some(d) => Err(d),
        None => Ok(()),
    }
}

/// Strips decimal digits so gensym suffixes (`ev17`, `a42`) compare
/// equal across warm and cold runs, whose gensym counters differ.
fn normalize(s: &str) -> String {
    s.chars().filter(|c| !c.is_ascii_digit()).collect()
}

/// The warm-session leg: runs the program through a long-lived
/// [`implicit_pipeline::Session`] (shared interner, warm derivation
/// cache, persistent runtime memo) and demands agreement — in both
/// the elaboration and the operational semantics — with a cold
/// one-shot run of the sugared equivalent `prelude.wrap(expr, τ)`.
///
/// # Errors
///
/// Returns a [`DivergenceKind::WarmColdMismatch`] divergence on any
/// disagreement.
pub fn run_session_oracle(
    decls: &Declarations,
    session: &mut implicit_pipeline::Session<'_>,
    prelude: &implicit_pipeline::Prelude,
    expr: &Expr,
    declared_ty: &Type,
) -> Result<(), Divergence> {
    let wrapped = prelude.wrap(expr.clone(), declared_ty.clone());
    let policy = session.policy().clone();

    let warm = session.run(expr);
    let cold = implicit_elab::run_with(decls, &wrapped, &policy);
    match (&warm, &cold) {
        (Ok(w), Ok(c)) => {
            if w.value.to_string() != c.value.to_string() {
                return Err(Divergence::new(
                    DivergenceKind::WarmColdMismatch,
                    format!("warm value `{}` vs cold `{}`", w.value, c.value),
                ));
            }
            if w.source_type.to_string() != c.source_type.to_string() {
                return Err(Divergence::new(
                    DivergenceKind::WarmColdMismatch,
                    format!("warm type `{}` vs cold `{}`", w.source_type, c.source_type),
                ));
            }
        }
        (Err(we), Err(ce)) => {
            if normalize(&we.to_string()) != normalize(&ce.to_string()) {
                return Err(Divergence::new(
                    DivergenceKind::WarmColdMismatch,
                    format!("warm error `{we}` vs cold `{ce}`"),
                ));
            }
        }
        (w, c) => {
            return Err(Divergence::new(
                DivergenceKind::WarmColdMismatch,
                format!(
                    "warm {} vs cold {}",
                    if w.is_ok() { "succeeded" } else { "failed" },
                    if c.is_ok() { "succeeded" } else { "failed" }
                ),
            ));
        }
    }

    let warm_op = session.run_opsem(expr);
    let cold_op = Interpreter::new(decls).with_policy(policy).eval(&wrapped);
    match (&warm_op, &cold_op) {
        (Ok(w), Ok(c)) => {
            if w.to_string() != c.to_string() {
                return Err(Divergence::new(
                    DivergenceKind::WarmColdMismatch,
                    format!("warm opsem `{w}` vs cold `{c}`"),
                ));
            }
        }
        (Err(we), Err(ce)) => {
            if normalize(&we.to_string()) != normalize(&ce.to_string()) {
                return Err(Divergence::new(
                    DivergenceKind::WarmColdMismatch,
                    format!("warm opsem error `{we}` vs cold `{ce}`"),
                ));
            }
        }
        (w, c) => {
            return Err(Divergence::new(
                DivergenceKind::WarmColdMismatch,
                format!(
                    "warm opsem {} vs cold {}",
                    if w.is_ok() { "succeeded" } else { "failed" },
                    if c.is_ok() { "succeeded" } else { "failed" }
                ),
            ));
        }
    }
    Ok(())
}

/// The rehydrated-session leg: a [`implicit_pipeline::Session`]
/// rebuilt from a serialized artifact (another process's warm state,
/// in spirit) must agree with the same-process warm session on every
/// program, in both the elaboration and the operational semantics.
/// Both sessions restore to their base state after each run, so
/// re-running the warm session here is observationally free.
///
/// # Errors
///
/// Returns a [`DivergenceKind::RestartMismatch`] divergence on any
/// disagreement.
pub fn run_restart_oracle(
    warm: &mut implicit_pipeline::Session<'_>,
    restarted: &mut implicit_pipeline::Session<'_>,
    expr: &Expr,
) -> Result<(), Divergence> {
    let w = warm.run(expr);
    let r = restarted.run(expr);
    match (&w, &r) {
        (Ok(w), Ok(r)) => {
            if w.value.to_string() != r.value.to_string()
                || w.source_type.to_string() != r.source_type.to_string()
            {
                return Err(Divergence::new(
                    DivergenceKind::RestartMismatch,
                    format!(
                        "warm `{} : {}` vs restarted `{} : {}`",
                        w.value, w.source_type, r.value, r.source_type
                    ),
                ));
            }
        }
        (Err(we), Err(re)) => {
            if normalize(&we.to_string()) != normalize(&re.to_string()) {
                return Err(Divergence::new(
                    DivergenceKind::RestartMismatch,
                    format!("warm error `{we}` vs restarted `{re}`"),
                ));
            }
        }
        (w, r) => {
            return Err(Divergence::new(
                DivergenceKind::RestartMismatch,
                format!(
                    "warm {} vs restarted {}",
                    if w.is_ok() { "succeeded" } else { "failed" },
                    if r.is_ok() { "succeeded" } else { "failed" }
                ),
            ));
        }
    }
    let w_op = warm.run_opsem(expr);
    let r_op = restarted.run_opsem(expr);
    match (&w_op, &r_op) {
        (Ok(w), Ok(r)) => {
            if w.to_string() != r.to_string() {
                return Err(Divergence::new(
                    DivergenceKind::RestartMismatch,
                    format!("warm opsem `{w}` vs restarted `{r}`"),
                ));
            }
        }
        (Err(we), Err(re)) => {
            if normalize(&we.to_string()) != normalize(&re.to_string()) {
                return Err(Divergence::new(
                    DivergenceKind::RestartMismatch,
                    format!("warm opsem error `{we}` vs restarted `{re}`"),
                ));
            }
        }
        (w, r) => {
            return Err(Divergence::new(
                DivergenceKind::RestartMismatch,
                format!(
                    "warm opsem {} vs restarted {}",
                    if w.is_ok() { "succeeded" } else { "failed" },
                    if r.is_ok() { "succeeded" } else { "failed" }
                ),
            ));
        }
    }
    Ok(())
}

/// Renders a warm-session error the way the daemon would frame it
/// (`kind: detail`, see `run_error_json` in
/// [`implicit_pipeline::service`]), so the daemon leg can compare
/// error outcomes string-to-string.
fn daemon_err_string(e: &implicit_elab::RunError) -> String {
    use implicit_elab::RunError;
    let kind = match e {
        RunError::Elab(_) => "elab_error",
        RunError::PreservationViolated(_) => "preservation_violated",
        RunError::Eval(_) => "eval_error",
    };
    format!("{kind}: {e}")
}

/// The daemon-service leg: an `implicitd` tenant — same declarations
/// and prelude as the warm session, but living behind the framed JSON
/// protocol on its own thread — must agree with the in-process warm
/// session on every program it can be asked about.
///
/// The daemon serves *source text*, so both sides run the program as
/// its printed text parses back. Fresh binders (`g%12`) print as their
/// base name, so that tree can differ from `expr` by a renaming of
/// binders. Returns `Ok(false)`, the leg skipped, only when the
/// printed text does not parse at all; callers count those.
///
/// # Errors
///
/// Returns a [`DivergenceKind::DaemonMismatch`] divergence on any
/// disagreement — including transport-level failures, which should
/// never happen on a healthy daemon.
pub fn run_daemon_oracle(
    client: &mut implicit_pipeline::service::Client,
    tenant: &str,
    warm: &mut implicit_pipeline::Session<'_>,
    expr: &Expr,
) -> Result<bool, Divergence> {
    let printed = expr.to_string();
    let Ok(reparsed) = implicit_core::parse::parse_expr(&printed) else {
        return Ok(false);
    };
    let w = warm.run(&reparsed);
    let d = client.eval(tenant, &printed);
    match (&w, &d) {
        (Ok(w), Ok((value, ty))) => {
            if w.value.to_string() != *value || w.source_type.to_string() != *ty {
                return Err(Divergence::new(
                    DivergenceKind::DaemonMismatch,
                    format!(
                        "warm `{} : {}` vs daemon `{value} : {ty}`",
                        w.value, w.source_type
                    ),
                ));
            }
        }
        (Err(we), Err(de)) => {
            if normalize(&daemon_err_string(we)) != normalize(de) {
                return Err(Divergence::new(
                    DivergenceKind::DaemonMismatch,
                    format!("warm error `{we}` vs daemon `{de}`"),
                ));
            }
        }
        (w, d) => {
            return Err(Divergence::new(
                DivergenceKind::DaemonMismatch,
                format!(
                    "warm {} vs daemon {}",
                    if w.is_ok() { "succeeded" } else { "failed" },
                    match d {
                        Ok(_) => "succeeded".to_owned(),
                        Err(e) => format!("failed (`{e}`)"),
                    }
                ),
            ));
        }
    }
    Ok(true)
}

/// What the resolution oracle observed when all legs agreed.
#[derive(Clone, Debug)]
pub struct ResolutionVerdict {
    /// The workload family used.
    pub family: &'static str,
    /// `TyRes` steps of the agreed derivation.
    pub steps: usize,
}

/// Builds the seed's environment/query workload. Families rotate by
/// seed so a sweep covers chains, wide frames, deep stacks,
/// polymorphic decoys, partial resolution and higher-kinded
/// (`VarApp`) constructor matching.
pub fn resolution_workload(seed: u64) -> (&'static str, implicit_core::ImplicitEnv, RuleType) {
    let n = 1 + (seed / 7) as usize % 24;
    match seed % 7 {
        0 => {
            let (env, q) = genprog::chain_env(n);
            ("chain", env, q)
        }
        1 => {
            let (env, q) = genprog::wide_env(n * 4, (seed % 5) as f64 / 4.0);
            ("wide", env, q)
        }
        2 => {
            let (env, q) = genprog::deep_stack_env(n * 2);
            ("deep_stack", env, q)
        }
        3 => {
            let (env, q) = genprog::poly_env(n);
            ("poly", env, q)
        }
        4 => {
            let (env, q) = genprog::poly_wide_env(n);
            ("poly_wide", env, q)
        }
        5 => {
            let (env, q) = genprog::partial_env(n.min(12), n.min(12) / 2);
            ("partial", env, q)
        }
        _ => {
            let (env, q) = genprog::hk_nested_env(n.min(12));
            ("hk_nested", env, q)
        }
    }
}

/// Runs the env-level resolution leg: the seed's workload resolved
/// under each policy with the derivation cache off, on (cold), and on
/// (warm, replayed from cache). Derivations must be structurally
/// identical and their stats must agree on every cache-independent
/// counter.
///
/// # Errors
///
/// Returns a [`Divergence`] of kind
/// [`DivergenceKind::ResolutionMismatch`] on any disagreement.
pub fn run_resolution_oracle(seed: u64) -> Result<ResolutionVerdict, Divergence> {
    let (family, env, query) = resolution_workload(seed);
    let depth = 4096;
    let mismatch = |detail: String| Divergence::new(DivergenceKind::ResolutionMismatch, detail);

    let mut agreed_steps = 0;
    for (pname, policy) in [
        ("paper", ResolutionPolicy::paper().with_max_depth(depth)),
        (
            "most-specific",
            ResolutionPolicy::paper()
                .with_most_specific()
                .with_max_depth(depth),
        ),
    ] {
        let off = resolve(&env, &query, &policy.clone().without_cache())
            .map_err(|e| mismatch(format!("[{family}/{pname}] cache-off failed: {e}")))?;
        let cold = resolve(&env, &query, &policy)
            .map_err(|e| mismatch(format!("[{family}/{pname}] cache-cold failed: {e}")))?;
        let warm = resolve(&env, &query, &policy)
            .map_err(|e| mismatch(format!("[{family}/{pname}] cache-warm failed: {e}")))?;
        check_derivations_agree(family, pname, &env, &off, &cold)
            .and_then(|_| check_derivations_agree(family, pname, &env, &off, &warm))?;
        agreed_steps = off.steps();
    }

    // The §3.2 environment-extension variant is strictly more
    // permissive: it must succeed wherever the paper rule does, and
    // when its derivation uses no assumption-frame rule it must be the
    // very same derivation.
    let ext_policy = ResolutionPolicy::paper()
        .with_env_extension()
        .with_max_depth(depth);
    let paper = resolve(
        &env,
        &query,
        &ResolutionPolicy::paper().with_max_depth(depth),
    );
    let ext = resolve(&env, &query, &ext_policy);
    match (paper, ext) {
        (Ok(p), Ok(e)) => {
            if !e.uses_extension() && p != e {
                return Err(mismatch(format!(
                    "[{family}/env-extension] non-extension derivation differs:\n{}\nvs\n{}",
                    p.explain(),
                    e.explain()
                )));
            }
        }
        (Ok(p), Err(e)) => {
            return Err(mismatch(format!(
                "[{family}/env-extension] paper resolves ({} steps) but extension fails: {e}",
                p.steps()
            )));
        }
        // Extension-only successes and double failures are consistent.
        (Err(_), _) => {}
    }

    Ok(ResolutionVerdict {
        family,
        steps: agreed_steps,
    })
}

/// Runs the env-level subtyping leg: the seed's resolution workload
/// decided by the intersection-subtyping resolver under all four
/// policies, cross-checked against the logic resolver (same outcome,
/// evidence, and failure payload), plus agreement of the source-level
/// termination/coherence guards with their translated counterparts.
///
/// # Errors
///
/// Returns a [`Divergence`] of kind
/// [`DivergenceKind::SubtypingMismatch`] on any disagreement.
pub fn run_subtyping_oracle(seed: u64) -> Result<ResolutionVerdict, Divergence> {
    let (family, env, query) = resolution_workload(seed);
    let depth = 4096;
    let mismatch = |detail: String| Divergence::new(DivergenceKind::SubtypingMismatch, detail);

    let mut agreed_steps = 0;
    for (pname, policy) in [
        ("paper", ResolutionPolicy::paper().with_max_depth(depth)),
        (
            "paper-nocache",
            ResolutionPolicy::paper()
                .without_cache()
                .with_max_depth(depth),
        ),
        (
            "most-specific",
            ResolutionPolicy::paper()
                .with_most_specific()
                .with_max_depth(depth),
        ),
        (
            "env-extension",
            ResolutionPolicy::paper()
                .with_env_extension()
                .with_max_depth(depth),
        ),
    ] {
        implicit_core::subtyping::cross_check(&env, &query, &policy)
            .map_err(|detail| mismatch(format!("[{family}/{pname}] {detail}")))?;
        if pname == "paper" {
            if let Ok(sub) = implicit_core::subtyping::subtype_resolve(&env, &query, &policy) {
                agreed_steps = sub.steps();
            }
        }
    }

    // The translated guards must accept/reject exactly like the
    // source-level termination and coherence checks.
    let sigma = implicit_core::subtyping::translate_env(&env);
    let translated = implicit_core::subtyping::check_translation(&sigma);
    let source: Result<(), _> = env
        .frames_innermost_first()
        .flat_map(|(_, frame)| frame.iter())
        .try_for_each(implicit_core::termination::check_rule);
    match (&translated, &source) {
        (Ok(()), Ok(())) => {}
        (Err(t), Err(s)) if t == s => {}
        (t, s) => {
            return Err(mismatch(format!(
                "[{family}] guard verdicts differ: translated {t:?} vs source {s:?}"
            )));
        }
    }

    Ok(ResolutionVerdict {
        family,
        steps: agreed_steps,
    })
}

/// What the wild-mode oracle observed when all legs agreed.
#[derive(Clone, Debug)]
pub struct WildVerdict {
    /// Shape statistics of the generated workload (merged into the
    /// sweep's coverage histogram).
    pub histogram: genprog::WildHistogram,
    /// Total `TyRes` steps across all queries.
    pub steps: usize,
}

/// Runs the wild-mode oracle: a production-shaped
/// [`genprog::wild_workload`] (field-study scope sizes, Zipf head
/// skew, conversion chains, hot/cold query mix) where every query is
/// resolved cache-off / cold / warm by the logic resolver and decided
/// by the subtyping resolver, all four in exact agreement.
///
/// # Errors
///
/// Returns a [`DivergenceKind::ResolutionMismatch`] divergence when
/// the logic resolver disagrees with itself across cache modes, and a
/// [`DivergenceKind::SubtypingMismatch`] when the subtyping leg
/// disagrees.
pub fn run_wild_oracle(seed: u64, config: &genprog::WildConfig) -> Result<WildVerdict, Divergence> {
    let w = genprog::wild_workload(seed, config);
    let policy = ResolutionPolicy::paper().with_max_depth(4096);
    let nocache = policy.clone().without_cache();

    let mut steps = 0usize;
    for (i, query) in w.queries.iter().enumerate() {
        let off = resolve(&w.env, query, &nocache).map_err(|e| {
            Divergence::new(
                DivergenceKind::ResolutionMismatch,
                format!("[wild/q{i}] cache-off failed on `{query}`: {e}"),
            )
        })?;
        // Cold and warm hits share one environment: the first resolve
        // fills the derivation cache, the second replays it.
        for mode in ["cold", "warm"] {
            let on = resolve(&w.env, query, &policy).map_err(|e| {
                Divergence::new(
                    DivergenceKind::ResolutionMismatch,
                    format!("[wild/q{i}] cache-{mode} failed on `{query}`: {e}"),
                )
            })?;
            check_derivations_agree("wild", mode, &w.env, &off, &on)?;
        }
        implicit_core::subtyping::cross_check(&w.env, query, &policy).map_err(|detail| {
            Divergence::new(
                DivergenceKind::SubtypingMismatch,
                format!("[wild/q{i}] {detail}"),
            )
        })?;
        steps += off.steps();
    }

    Ok(WildVerdict {
        histogram: w.histogram,
        steps,
    })
}

fn check_derivations_agree(
    family: &str,
    pname: &str,
    env: &implicit_core::ImplicitEnv,
    a: &Resolution,
    b: &Resolution,
) -> Result<(), Divergence> {
    if a != b {
        return Err(Divergence::new(
            DivergenceKind::ResolutionMismatch,
            format!(
                "[{family}/{pname}] derivations differ:\n{}\nvs\n{}",
                a.explain(),
                b.explain()
            ),
        ));
    }
    let (sa, sb) = (a.stats(env), b.stats(env));
    if sa != sb {
        return Err(Divergence::new(
            DivergenceKind::ResolutionMismatch,
            format!("[{family}/{pname}] stats differ: {sa:?} vs {sb:?}"),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use genprog::{gen_program_with, rng, GenConfig};

    #[test]
    fn oracle_agrees_on_paper_examples() {
        let decls = Declarations::new();
        for src in [
            "implicit {1 : Int, true : Bool} in (?(Int) + 1, not ?(Bool)) : Int * Bool",
            "implicit {3 : Int, rule (forall a. {a} => a * a) ((?(a), ?(a))) : forall a. {a} => a * a} \
             in ?((Int * Int) * (Int * Int)) : (Int * Int) * (Int * Int)",
        ] {
            let e = implicit_core::parse::parse_expr(src).unwrap();
            let ty = Typechecker::new(&decls).check_closed(&e).unwrap();
            let v = run_program_oracle(&decls, &e, &ty).unwrap_or_else(|d| panic!("{src}: {d}"));
            assert!(!v.value.is_empty());
        }
    }

    #[test]
    fn oracle_flags_type_drift() {
        let decls = Declarations::new();
        let e = Expr::Int(1);
        let d = run_program_oracle(&decls, &e, &Type::Bool).unwrap_err();
        assert_eq!(d.kind, DivergenceKind::TypeDrift);
    }

    #[test]
    fn oracle_flags_ill_typed() {
        let decls = Declarations::new();
        let e = Expr::binop(
            implicit_core::syntax::BinOp::Add,
            Expr::Int(1),
            Expr::Bool(true),
        );
        let d = run_program_oracle(&decls, &e, &Type::Int).unwrap_err();
        assert_eq!(d.kind, DivergenceKind::IllTyped);
    }

    #[test]
    fn oracle_agrees_on_generated_programs() {
        let decls = genprog::data_prelude();
        let mut r = rng(0x5EED);
        for i in 0..150 {
            let p = gen_program_with(&mut r, &GenConfig::default(), &decls);
            run_program_oracle(&decls, &p.expr, &p.ty)
                .unwrap_or_else(|d| panic!("program {i} diverged: {d}\n{}", p.expr));
        }
    }

    #[test]
    fn resolution_oracle_agrees_across_families() {
        for seed in 0..100 {
            let v = run_resolution_oracle(seed).unwrap_or_else(|d| panic!("seed {seed}: {d}"));
            assert!(v.steps > 0, "seed {seed} family {}", v.family);
        }
    }

    #[test]
    fn subtyping_oracle_agrees_across_families() {
        for seed in 0..100 {
            let v = run_subtyping_oracle(seed).unwrap_or_else(|d| panic!("seed {seed}: {d}"));
            assert!(v.steps > 0, "seed {seed} family {}", v.family);
        }
    }

    #[test]
    fn wild_oracle_agrees_on_field_study_shapes() {
        let cfg = genprog::WildConfig::field_study();
        for seed in 0..4 {
            let v = run_wild_oracle(seed, &cfg).unwrap_or_else(|d| panic!("seed {seed}: {d}"));
            assert!(v.steps > 0, "seed {seed}");
            assert!(v.histogram.total_rules() >= 100, "seed {seed}");
        }
    }
}
