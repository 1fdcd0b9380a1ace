//! # `genprog` — generators for environments, queries and programs
//!
//! Deterministic *workload families* (used by the benchmark harness
//! to reproduce the scaling experiments in `EXPERIMENTS.md`) and
//! seeded *random well-typed program* generators (used by the
//! property-test suites to exercise type preservation, semantic
//! agreement and resolution stability on thousands of programs).
//!
//! All randomness is driven by a caller-supplied [`rand::Rng`], so
//! every workload is reproducible from its seed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use implicit_core::env::ImplicitEnv;
use implicit_core::resolve::{resolve, ResolutionPolicy};
use implicit_core::symbol::{fresh, Symbol};
use implicit_core::syntax::{BinOp, Expr, RuleType, Type, UnOp};

/// A seeded RNG for reproducible workloads.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

// ---------------------------------------------------------------
// Deterministic workload families (benchmarks)
// ---------------------------------------------------------------

/// A pairwise-distinct family of simple types: `Tₖ = Listᵏ(Int)`.
pub fn distinct_type(k: usize) -> Type {
    let mut t = Type::Int;
    for _ in 0..k {
        t = Type::list(t);
    }
    t
}

/// A resolution *chain* of length `n`: rules
/// `{T₀}⇒T₁, {T₁}⇒T₂, …` plus the base value type `T₀ = Int`, where
/// `Tₖ = Listᵏ(Int)`. Resolving `Tₙ` performs exactly `n + 1`
/// `TyRes` steps.
pub fn chain_env(n: usize) -> (ImplicitEnv, RuleType) {
    let mut frame: Vec<RuleType> = vec![Type::Int.promote()];
    for k in 1..=n {
        frame.push(RuleType::mono(
            vec![distinct_type(k - 1).promote()],
            distinct_type(k),
        ));
    }
    (ImplicitEnv::with_frame(frame), distinct_type(n).promote())
}

/// A single *wide* frame with `n` unrelated monomorphic rules plus
/// the queried one at the configured position.
///
/// `position` is a fraction in `[0, 1]`: 0 puts the match first in
/// the frame, 1 last (lookup scans the frame linearly, so this
/// controls scan distance).
pub fn wide_env(n: usize, position: f64) -> (ImplicitEnv, RuleType) {
    let target = Type::prod(Type::Bool, Type::Bool);
    let ix = ((n as f64) * position.clamp(0.0, 1.0)) as usize;
    let mut frame = Vec::with_capacity(n + 1);
    for k in 0..n {
        frame.push(distinct_type(k + 1).promote());
        if k + 1 == ix {
            frame.push(target.promote());
        }
    }
    if ix == 0 || ix > n {
        frame.insert(0, target.promote());
    }
    (ImplicitEnv::with_frame(frame), target.promote())
}

/// A *deep stack* of `n` frames with the match in the outermost
/// frame: lookup must descend through every scope.
pub fn deep_stack_env(n: usize) -> (ImplicitEnv, RuleType) {
    let mut env = ImplicitEnv::new();
    env.push(vec![Type::Int.promote()]); // outermost: the match
    for k in 0..n {
        env.push(vec![distinct_type(k + 1).promote()]);
    }
    (env, Type::Int.promote())
}

/// A *wide* frame whose `n` decoys all share the query's head
/// constructor and are polymorphic, so a head-constructor index
/// cannot rule them out: each lookup must attempt unification with
/// every decoy (`∀a. a * Listᵏ⁺¹(a)` never matches `Bool * Bool`
/// because the second component disagrees). This is the regime where
/// only derivation caching — not indexing — can amortize lookup.
pub fn poly_wide_env(n: usize) -> (ImplicitEnv, RuleType) {
    let target = Type::prod(Type::Bool, Type::Bool);
    let mut frame = Vec::with_capacity(n + 1);
    for k in 0..n {
        let a = Symbol::intern("gw_a");
        let mut second = Type::var(a);
        for _ in 0..=k {
            second = Type::list(second);
        }
        frame.push(RuleType::new(
            vec![a],
            vec![],
            Type::prod(Type::var(a), second),
        ));
    }
    frame.push(target.promote());
    (ImplicitEnv::with_frame(frame), target.promote())
}

/// `n` *polymorphic* candidate rules with distinct head shapes plus
/// the structural pair rule; the query requires matching against all
/// non-matching candidates in the same frame.
pub fn poly_env(n: usize) -> (ImplicitEnv, RuleType) {
    let mut frame = Vec::with_capacity(n + 2);
    for k in 0..n {
        // ∀a. [Listᵏ(a)] → Int — heads that never match a product.
        let a = Symbol::intern("gp_a");
        let mut head = Type::var(a);
        for _ in 0..k {
            head = Type::list(head);
        }
        frame.push(RuleType::new(vec![a], vec![], Type::arrow(head, Type::Int)));
    }
    let a = Symbol::intern("gp_b");
    frame.push(RuleType::new(
        vec![a],
        vec![Type::var(a).promote()],
        Type::prod(Type::var(a), Type::var(a)),
    ));
    frame.push(Type::Int.promote());
    let query = Type::prod(Type::Int, Type::Int).promote();
    (ImplicitEnv::with_frame(frame), query)
}

/// A higher-order workload: a rule with a context of `n` premises of
/// which `assumed` are assumed by the query (partial resolution) and
/// the rest must be recursively resolved.
pub fn partial_env(n: usize, assumed: usize) -> (ImplicitEnv, RuleType) {
    assert!(assumed <= n, "cannot assume more premises than exist");
    let premises: Vec<RuleType> = (0..n).map(|k| distinct_type(k + 1).promote()).collect();
    let head = Type::prod(Type::Bool, Type::Bool);
    let rule = RuleType::mono(premises.clone(), head.clone());
    let mut frame: Vec<RuleType> = premises[assumed..].to_vec(); // resolvable premises
    frame.push(rule);
    let query = RuleType::mono(premises[..assumed].to_vec(), head);
    (ImplicitEnv::with_frame(frame), query)
}

/// A higher-kinded workload: the §1-shaped container rule
/// `∀b. {b → String} ⇒ f b → String` plus the element rule
/// `a → String` (with `f`, `a` free skolems); the query asks for a
/// shower of the `n`-fold nesting `fⁿ a → String`, which resolves in
/// `n + 1` steps through constructor matching.
pub fn hk_nested_env(n: usize) -> (ImplicitEnv, RuleType) {
    let f = Symbol::intern("gp_hk_f");
    let a = Symbol::intern("gp_hk_a");
    let b = Symbol::intern("gp_hk_b");
    let container = RuleType::new(
        vec![b],
        vec![Type::arrow(Type::Var(b), Type::Str).promote()],
        Type::arrow(Type::var_app(f, vec![Type::Var(b)]), Type::Str),
    );
    let elem = Type::arrow(Type::Var(a), Type::Str).promote();
    let env = ImplicitEnv::with_frame(vec![container, elem]);
    let mut t = Type::Var(a);
    for _ in 0..n.max(1) {
        t = Type::var_app(f, vec![t]);
    }
    (env, Type::arrow(t, Type::Str).promote())
}

/// The λ⇒ *program* corresponding to [`chain_env`]: nested rule
/// abstractions whose innermost body queries the chain's end. Useful
/// for end-to-end (elaborate+evaluate vs. interpret) comparisons.
pub fn chain_program(n: usize) -> Expr {
    // implicit {0 : Int, step₁ : {T₀}⇒T₁, …} in ?Tₙ
    let mut args: Vec<(Expr, RuleType)> = vec![(Expr::Int(0), Type::Int.promote())];
    for k in 1..=n {
        let prem = distinct_type(k - 1);
        let rty = RuleType::mono(vec![prem.clone().promote()], distinct_type(k));
        // rule({T_{k-1}} ⇒ Tₖ)( ?T_{k-1} :: nil )
        let body = Expr::Cons(
            Expr::query_simple(prem.clone()).into(),
            Expr::Nil(prem).into(),
        );
        args.push((Expr::rule_abs(rty.clone(), body), rty));
    }
    Expr::implicit(args, Expr::query_simple(distinct_type(n)), distinct_type(n))
}

// ---------------------------------------------------------------
// "Wild" production-shaped workloads (Scala-implicits field study)
// ---------------------------------------------------------------

/// Knobs for [`wild_workload`]: scope shapes drawn from the
/// Krikava/Miller/Vitek field study of Scala implicits (PAPERS.md) —
/// huge flat import scopes, Zipf-skewed head-constructor popularity,
/// conversion chains, deep lexical nesting, and a hot/cold query mix.
#[derive(Clone, Debug)]
pub struct WildConfig {
    /// Rules in the outermost "import" frame (the field study's
    /// hundreds-of-implicits-in-scope regime).
    pub rules_per_frame: usize,
    /// Lexical nesting depth: one big import frame plus `frames - 1`
    /// smaller local frames (each about an eighth of the import
    /// frame).
    pub frames: usize,
    /// Cap on conversion-chain length; rules per head constructor
    /// decay Zipf-like from this, so a few constructors own long
    /// chains and the tail is singletons.
    pub max_chain: usize,
    /// Zipf exponent of the head-constructor popularity skew.
    pub skew: f64,
    /// Queries in the workload.
    pub queries: usize,
    /// Fraction of queries drawn from the small *hot* set (repeated
    /// chain-end lookups, the cache-friendly regime); the rest are
    /// cold one-offs, skewed toward fresh instantiations.
    pub hot_fraction: f64,
}

impl WildConfig {
    /// The default production shape: a 160-rule import scope, 4-deep
    /// nesting, chains up to 12, 32 queries at 75% hot.
    pub fn field_study() -> WildConfig {
        WildConfig {
            rules_per_frame: 160,
            frames: 4,
            max_chain: 12,
            skew: 1.2,
            queries: 32,
            hot_fraction: 0.75,
        }
    }
}

impl Default for WildConfig {
    fn default() -> WildConfig {
        WildConfig::field_study()
    }
}

/// Shape statistics of one generated wild workload, for coverage
/// tests and the B15 bench table.
#[derive(Clone, Debug, Default)]
pub struct WildHistogram {
    /// Rules per frame, outermost first.
    pub rules_per_frame: Vec<usize>,
    /// Head-constructor popularity, most popular first (count ties
    /// break by name for determinism).
    pub head_constructors: Vec<(String, u64)>,
    /// Context-free ground value rules.
    pub base_rules: u64,
    /// Single-premise conversion rules (`{C τᵢ₋₁} ⇒ C τᵢ`).
    pub conversion_rules: u64,
    /// Polymorphic constructor rules (`∀a. {a} ⇒ P a`).
    pub poly_rules: u64,
    /// Cross-frame bridge rules (premise resolved in an outer frame).
    pub bridge_rules: u64,
    /// Queries drawn from the hot set.
    pub hot_queries: u64,
    /// Cold one-off queries.
    pub cold_queries: u64,
    /// Longest conversion chain emitted.
    pub max_chain_len: u64,
}

impl WildHistogram {
    /// Total rules across frames.
    pub fn total_rules(&self) -> u64 {
        self.rules_per_frame.iter().map(|&n| n as u64).sum()
    }

    /// The most popular head constructor and its rule count.
    pub fn top_constructor(&self) -> Option<(&str, u64)> {
        self.head_constructors
            .first()
            .map(|(name, n)| (name.as_str(), *n))
    }

    /// A markdown table of the constructor-popularity skew (top
    /// `rows` constructors), for `EXPERIMENTS.md` and the B15 bench
    /// output.
    pub fn render_table(&self, rows: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("| head constructor | rules |\n|---|---|\n");
        for (name, n) in self.head_constructors.iter().take(rows) {
            let _ = writeln!(out, "| {name} | {n} |");
        }
        let tail: u64 = self
            .head_constructors
            .iter()
            .skip(rows)
            .map(|(_, n)| n)
            .sum();
        if tail > 0 {
            let _ = writeln!(
                out,
                "| …{} more | {tail} |",
                self.head_constructors.len() - rows
            );
        }
        out
    }
}

/// A production-shaped environment/query workload.
#[derive(Clone, Debug)]
pub struct WildWorkload {
    /// The environment: one huge import frame under smaller local
    /// frames.
    pub env: ImplicitEnv,
    /// The queries, hot/cold mixed in generation order. Every query
    /// resolves by construction (the oracle legs demand success).
    pub queries: Vec<RuleType>,
    /// Shape statistics.
    pub histogram: WildHistogram,
}

/// One conversion chain: `len` rules with head constructor `ctor`
/// over payloads `T₀ … T₍len−1₎`.
struct WildChain {
    ctor: Symbol,
    len: usize,
}

/// Builds one frame as a set of conversion chains with Zipf-skewed
/// lengths: constructor `k` gets `max_chain / (k+1)^skew` rules
/// (clamped to ≥ 1, jittered ±1), so the head histogram has a heavy
/// head and a long singleton tail, as in the field study.
fn wild_frame(
    prefix: &str,
    budget: usize,
    max_chain: usize,
    skew: f64,
    r: &mut impl Rng,
    hist: &mut WildHistogram,
) -> (Vec<RuleType>, Vec<WildChain>) {
    let mut rules = Vec::with_capacity(budget);
    let mut chains = Vec::new();
    let mut k = 0usize;
    while rules.len() < budget {
        let zipf = (max_chain as f64) / ((k + 1) as f64).powf(skew.max(0.0));
        let jitter = r.gen_range(0..=1usize);
        let len = (zipf.round() as usize + jitter)
            .clamp(1, max_chain)
            .min(budget - rules.len());
        let ctor = Symbol::intern(&format!("{prefix}C{k}"));
        // Base value rule: `C T₀` out of thin air…
        rules.push(Type::Con(ctor, vec![distinct_type(0)]).promote());
        hist.base_rules += 1;
        // …then the conversion chain `{C Tᵢ₋₁} ⇒ C Tᵢ`.
        for i in 1..len {
            rules.push(RuleType::mono(
                vec![Type::Con(ctor, vec![distinct_type(i - 1)]).promote()],
                Type::Con(ctor, vec![distinct_type(i)]),
            ));
            hist.conversion_rules += 1;
        }
        hist.max_chain_len = hist.max_chain_len.max(len as u64);
        chains.push(WildChain { ctor, len });
        k += 1;
    }
    (rules, chains)
}

/// Generates a seeded wild workload: a [`WildConfig::rules_per_frame`]-
/// rule import frame under `frames − 1` smaller local frames (with
/// polymorphic constructor rules and cross-frame bridges), plus a
/// hot/cold query mix over chain ends, mid-chain targets, and
/// polymorphic instantiations. Deterministic in `(seed, config)`.
pub fn wild_workload(seed: u64, config: &WildConfig) -> WildWorkload {
    let mut r = rng(seed.wrapping_mul(0x9E37_79B9).wrapping_add(0x571D));
    let mut hist = WildHistogram::default();
    let mut env = ImplicitEnv::new();
    // (frame label, chains, poly ctors) per frame, outermost first.
    let mut frames: Vec<(Vec<WildChain>, Vec<Symbol>)> = Vec::new();

    let frame_count = config.frames.max(1);
    for f in 0..frame_count {
        let budget = if f == 0 {
            config.rules_per_frame.max(1)
        } else {
            (config.rules_per_frame / 8).max(4)
        };
        let prefix = format!("Wf{f}");
        let (mut rules, chains) = wild_frame(
            &prefix,
            budget,
            config.max_chain.max(1),
            config.skew,
            &mut r,
            &mut hist,
        );
        // Polymorphic constructor rules: `∀a. {a} ⇒ P a` — the
        // typeclass-shaped tail that head indexing cannot fully
        // discriminate.
        let mut polys = Vec::new();
        for j in 0..2 {
            let p = Symbol::intern(&format!("{prefix}P{j}"));
            let a = Symbol::intern("wild_a");
            rules.push(RuleType::new(
                vec![a],
                vec![Type::var(a).promote()],
                Type::Con(p, vec![Type::var(a)]),
            ));
            hist.poly_rules += 1;
            polys.push(p);
        }
        // Cross-frame bridges (local frames only): the local rule's
        // premise is the *outer* import frame's top chain end, so
        // resolving the bridge head descends the scope stack.
        if f > 0 {
            if let Some((outer_chains, _)) = frames.first() {
                let top = &outer_chains[0];
                let b = Symbol::intern(&format!("{prefix}B"));
                rules.push(RuleType::mono(
                    vec![Type::Con(top.ctor, vec![distinct_type(top.len - 1)]).promote()],
                    Type::Con(b, vec![distinct_type(top.len)]),
                ));
                hist.bridge_rules += 1;
            }
        }
        hist.rules_per_frame.push(rules.len());
        env.push(rules);
        frames.push((chains, polys));
    }

    // Head-constructor histogram over the whole environment.
    {
        let mut counts: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
        for (_, frame) in env.frames_innermost_first() {
            for rule in frame.iter() {
                let label = match rule.head() {
                    Type::Con(sym, _) => sym.as_str().to_owned(),
                    other => other.to_string(),
                };
                *counts.entry(label).or_default() += 1;
            }
        }
        let mut pairs: Vec<(String, u64)> = counts.into_iter().collect();
        pairs.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        hist.head_constructors = pairs;
    }

    // The hot set: chain ends of the import frame's two most popular
    // constructors, plus the innermost bridge head (a deep-descent
    // repeat customer).
    let import_chains = &frames[0].0;
    let mut hot: Vec<RuleType> = import_chains
        .iter()
        .take(2)
        .map(|c| Type::Con(c.ctor, vec![distinct_type(c.len - 1)]).promote())
        .collect();
    if frame_count > 1 && hist.bridge_rules > 0 {
        let top = &import_chains[0];
        let b = Symbol::intern(&format!("Wf{}B", frame_count - 1));
        hot.push(Type::Con(b, vec![distinct_type(top.len)]).promote());
    }

    let mut queries = Vec::with_capacity(config.queries);
    for _ in 0..config.queries {
        if r.gen_bool(config.hot_fraction.clamp(0.0, 1.0)) {
            let q = hot[r.gen_range(0..hot.len())].clone();
            hist.hot_queries += 1;
            queries.push(q);
        } else {
            // A cold one-off: a random chain position in a random
            // frame, optionally wrapped in a polymorphic constructor
            // (a fresh instantiation the cache has never seen).
            let f = r.gen_range(0..frames.len());
            let (chains, polys) = &frames[f];
            let c = &chains[r.gen_range(0..chains.len())];
            let depth = r.gen_range(0..c.len);
            let mut target = Type::Con(c.ctor, vec![distinct_type(depth)]);
            if r.gen_bool(0.4) {
                let p = polys[r.gen_range(0..polys.len())];
                target = Type::Con(p, vec![target]);
            }
            hist.cold_queries += 1;
            queries.push(target.promote());
        }
    }

    WildWorkload {
        env,
        queries,
        histogram: hist,
    }
}

// ---------------------------------------------------------------
// Random well-typed programs (property tests)
// ---------------------------------------------------------------

/// Configuration for the random program generator.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Maximum expression depth.
    pub max_depth: usize,
    /// Probability of wrapping a subterm in a new `implicit` scope.
    pub scope_prob: f64,
    /// Probability of answering a request with a query (when
    /// resolvable).
    pub query_prob: f64,
    /// Probability of data-typed constructs (`con`/`match`, applied
    /// type constructors) at eligible positions. Only effective when
    /// generating against declarations containing the
    /// [`data_prelude`] types; ignored otherwise.
    pub data_prob: f64,
    /// Probability of emitting a (guaranteed-terminating) `fix`
    /// recursion at `Int` positions — a countdown loop or a length
    /// fold over a list at a random element type.
    pub fix_prob: f64,
    /// Maximum nesting depth of `implicit` scopes. Bounds the frame
    /// stack that resolution (and the derivation cache) must handle.
    pub max_scope_depth: usize,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            max_depth: 5,
            scope_prob: 0.3,
            query_prob: 0.5,
            data_prob: 0.3,
            fix_prob: 0.15,
            max_scope_depth: 4,
        }
    }
}

implicit_core::counter_table! {
    /// Per-construct emission counters, accumulated while generating.
    ///
    /// The conformance harness aggregates these across a sweep to prove
    /// that the generator actually exercises every syntax construct it
    /// claims to cover (the "generator coverage histogram" of the run
    /// report).
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    #[allow(missing_docs)] // field names are the histogram labels
    pub struct GenCounters {
        {
            int_lit: u64,
            bool_lit: u64,
            str_lit: u64,
            binop: u64,
            if_then_else: u64,
            pair: u64,
            list: u64,
            query: u64,
            implicit_scope: u64,
            poly_rule: u64,
            hk_rule: u64,
            hk_query: u64,
            inject: u64,
            match_arms: u64,
            fix_rec: u64,
            list_case: u64,
            applied_ctor_type: u64,
            /// Deepest implicit-scope nesting reached (a max, not a sum).
            max_scope_depth: u64 = max,
            /// Rules emitted across wild-mode frames.
            wild_rules: u64,
            /// Wild-mode queries drawn from the hot set.
            wild_hot_queries: u64,
            /// Wild-mode cold one-off queries.
            wild_cold_queries: u64,
            /// Longest wild-mode conversion chain (a max, not a sum).
            wild_max_chain: u64 = max,
        }
    }
}

impl GenCounters {
    /// Folds a wild workload's histogram into the counters (the
    /// wild-mode sweep's coverage rows).
    pub fn record_wild(&mut self, hist: &WildHistogram) {
        self.wild_rules += hist.total_rules();
        self.wild_hot_queries += hist.hot_queries;
        self.wild_cold_queries += hist.cold_queries;
        self.wild_max_chain = self.wild_max_chain.max(hist.max_chain_len);
    }
}

/// A generated well-typed program.
#[derive(Clone, Debug)]
pub struct GenProgram {
    /// The program.
    pub expr: Expr,
    /// Its type.
    pub ty: Type,
    /// What the generator emitted while building it.
    pub counters: GenCounters,
}

/// Generates a random closed, well-typed λ⇒ program whose queries
/// are all resolvable. Programs combine literals, arithmetic,
/// pairs, conditionals, nested `implicit` scopes, polymorphic rules,
/// recursion and queries. Data-typed constructs are disabled (no
/// declarations are in scope); use [`gen_program_with`] with the
/// [`data_prelude`] for the full construct set.
pub fn gen_program(rng: &mut impl Rng, config: &GenConfig) -> GenProgram {
    let decls = implicit_core::syntax::Declarations::new();
    gen_program_with(rng, config, &decls)
}

/// Generates a random closed, well-typed λ⇒ program against the
/// given declarations. When `decls` contains the [`data_prelude`]
/// types, the generator additionally emits applied type constructors
/// (`GpOpt(τ)`), `con`/`match`, and a higher-kinded container rule
/// (`∀b. {b → String} ⇒ GpOpt(b) → String`) with queries that
/// exercise it — the S20/S23 feature set.
pub fn gen_program_with(
    rng: &mut impl Rng,
    config: &GenConfig,
    decls: &implicit_core::syntax::Declarations,
) -> GenProgram {
    let has_data = decls.lookup_data(Symbol::intern("GpOpt")).is_some()
        && decls.lookup_data(Symbol::intern("GpColor")).is_some();
    let mut g = Gen {
        rng,
        config: config.clone(),
        env: ImplicitEnv::new(),
        policy: ResolutionPolicy::paper(),
        counters: GenCounters::default(),
        scope_depth: 0,
        has_data,
    };
    let ty = g.gen_type(2);
    let expr = g.gen_expr(&ty, config.max_depth);
    GenProgram {
        expr,
        ty,
        counters: g.counters,
    }
}

struct Gen<'r, R: Rng> {
    rng: &'r mut R,
    config: GenConfig,
    env: ImplicitEnv,
    policy: ResolutionPolicy,
    counters: GenCounters,
    scope_depth: usize,
    has_data: bool,
}

fn gp_opt(elem: Type) -> Type {
    Type::Con(Symbol::intern("GpOpt"), vec![elem])
}

fn gp_color() -> Type {
    Type::Con(Symbol::intern("GpColor"), vec![])
}

impl<R: Rng> Gen<'_, R> {
    fn gen_type(&mut self, depth: usize) -> Type {
        if depth == 0 {
            return match self.rng.gen_range(0..3) {
                0 => Type::Int,
                1 => Type::Bool,
                _ => Type::Str,
            };
        }
        let data = self.has_data && self.rng.gen_bool(self.config.data_prob);
        match self.rng.gen_range(0..if data { 7 } else { 5 }) {
            0 => Type::Int,
            1 => Type::Bool,
            2 => Type::Str,
            3 => Type::prod(self.gen_type(depth - 1), self.gen_type(depth - 1)),
            4 => Type::list(self.gen_type(depth - 1)),
            5 => {
                self.counters.applied_ctor_type += 1;
                gp_opt(self.gen_type(depth - 1))
            }
            _ => {
                self.counters.applied_ctor_type += 1;
                gp_color()
            }
        }
    }

    fn resolvable(&self, ty: &Type) -> bool {
        resolve(&self.env, &ty.promote(), &self.policy).is_ok()
    }

    fn gen_expr(&mut self, ty: &Type, depth: usize) -> Expr {
        // Possibly wrap in a new implicit scope that provides this
        // type (and possibly structural / higher-kinded rules).
        if depth > 0
            && self.scope_depth < self.config.max_scope_depth
            && self.rng.gen_bool(self.config.scope_prob)
        {
            return self.gen_scope(ty, depth);
        }
        // Possibly answer with a query.
        if self.rng.gen_bool(self.config.query_prob) && self.resolvable(ty) {
            self.counters.query += 1;
            return Expr::query_simple(ty.clone());
        }
        // Possibly route the answer through an exhaustive match on a
        // data scrutinee (any target type can be matched *into*).
        if depth > 1 && self.has_data && self.rng.gen_bool(self.config.data_prob) {
            return self.gen_match_wrap(ty, depth);
        }
        // Possibly compute an Int by guaranteed-terminating recursion.
        if depth > 1 && *ty == Type::Int && self.rng.gen_bool(self.config.fix_prob) {
            return self.gen_fix_int(depth);
        }
        // Possibly branch on a generated condition.
        if depth > 1 && self.rng.gen_bool(0.15) {
            self.counters.if_then_else += 1;
            let c = self.gen_expr(&Type::Bool, depth - 1);
            let t = self.gen_expr(ty, depth - 1);
            let f = self.gen_expr(ty, depth - 1);
            return Expr::if_(c, t, f);
        }
        // A String can be rendered through the higher-kinded container
        // rule when one is in scope: ?(GpOpt(Int) → String) applied to
        // a freshly injected option.
        if depth > 1
            && *ty == Type::Str
            && self.has_data
            && self.rng.gen_bool(self.config.data_prob)
        {
            let shower = Type::arrow(gp_opt(Type::Int), Type::Str);
            if self.resolvable(&shower) {
                self.counters.hk_query += 1;
                self.counters.query += 1;
                let arg = self.gen_literalish(&gp_opt(Type::Int), depth.saturating_sub(2));
                return Expr::app(Expr::query_simple(shower), arg);
            }
        }
        self.gen_literalish(ty, depth)
    }

    fn gen_scope(&mut self, ty: &Type, depth: usize) -> Expr {
        let mut args: Vec<(Expr, RuleType)> = Vec::new();
        let mut frame: Vec<RuleType> = Vec::new();
        // A base value of a random simple type.
        let base_ty = self.gen_type(1);
        let base = self.gen_literalish(&base_ty, 0);
        args.push((base, base_ty.clone().promote()));
        frame.push(base_ty.promote());
        // Sometimes add the structural pair rule.
        if self.rng.gen_bool(0.5) {
            let a = fresh("g");
            let rty = RuleType::new(
                vec![a],
                vec![Type::var(a).promote()],
                Type::prod(Type::var(a), Type::var(a)),
            );
            let body = Expr::pair(
                Expr::query_simple(Type::var(a)),
                Expr::query_simple(Type::var(a)),
            );
            // Only add when it keeps the frame overlap-free: the pair
            // rule overlaps a product base value.
            if !matches!(frame[0].head(), Type::Prod(_, _)) {
                self.counters.poly_rule += 1;
                args.push((Expr::rule_abs(rty.clone(), body), rty.clone()));
                frame.push(rty);
            }
        }
        // Sometimes add the §1-shaped container rule over an applied
        // type constructor — ∀b. {b → String} ⇒ GpOpt(b) → String —
        // together with the Int element shower it recursively needs.
        if self.has_data && self.rng.gen_bool(self.config.data_prob) {
            let (elem_e, elem_r, hk_e, hk_r) = self.container_rule_pair();
            self.counters.hk_rule += 1;
            args.push((elem_e, elem_r.clone()));
            frame.push(elem_r);
            args.push((hk_e, hk_r.clone()));
            frame.push(hk_r);
        }
        self.env.push(frame);
        self.scope_depth += 1;
        self.counters.implicit_scope += 1;
        self.counters.max_scope_depth = self.counters.max_scope_depth.max(self.scope_depth as u64);
        let body = self.gen_expr(ty, depth - 1);
        self.scope_depth -= 1;
        self.env.pop();
        Expr::implicit(args, body, ty.clone())
    }

    /// The element shower `λn:Int. intToStr n : Int → String` and the
    /// higher-kinded container rule
    /// `rule(∀b. {b → String} ⇒ GpOpt(b) → String)(λo. match o …)`.
    fn container_rule_pair(&mut self) -> (Expr, RuleType, Expr, RuleType) {
        let n = fresh("gn");
        let elem_r = Type::arrow(Type::Int, Type::Str).promote();
        let elem_e = Expr::lam(
            n,
            Type::Int,
            Expr::UnOp(UnOp::IntToStr, std::rc::Rc::new(Expr::Var(n))),
        );
        let b = fresh("gb");
        let hk_r = RuleType::new(
            vec![b],
            vec![Type::arrow(Type::var(b), Type::Str).promote()],
            Type::arrow(gp_opt(Type::var(b)), Type::Str),
        );
        let o = fresh("go");
        let x = fresh("gx");
        self.counters.query += 1;
        let hk_body = Expr::lam(
            o,
            gp_opt(Type::var(b)),
            Expr::Match(
                std::rc::Rc::new(Expr::Var(o)),
                vec![
                    implicit_core::syntax::MatchArm {
                        ctor: Symbol::intern("GpNone"),
                        binders: vec![],
                        body: Expr::Str("none".into()),
                    },
                    implicit_core::syntax::MatchArm {
                        ctor: Symbol::intern("GpSome"),
                        binders: vec![x],
                        body: Expr::app(
                            Expr::query_simple(Type::arrow(Type::var(b), Type::Str)),
                            Expr::Var(x),
                        ),
                    },
                ],
            ),
        );
        self.counters.match_arms += 2;
        let hk_e = Expr::rule_abs(hk_r.clone(), hk_body);
        (elem_e, elem_r, hk_e, hk_r)
    }

    /// Routes a value of type `ty` through an exhaustive match on a
    /// random data scrutinee.
    fn gen_match_wrap(&mut self, ty: &Type, depth: usize) -> Expr {
        if self.rng.gen_bool(0.5) {
            // match on GpColor: three arms of the target type.
            let color = ["GpRed", "GpGreen", "GpBlue"][self.rng.gen_range(0..3usize)];
            self.counters.inject += 1;
            self.counters.match_arms += 3;
            let scrut = Expr::Inject(Symbol::intern(color), vec![], vec![]);
            let arms = ["GpRed", "GpGreen", "GpBlue"]
                .iter()
                .map(|c| implicit_core::syntax::MatchArm {
                    ctor: Symbol::intern(c),
                    binders: vec![],
                    body: self.gen_expr(ty, depth - 1),
                })
                .collect();
            Expr::Match(std::rc::Rc::new(scrut), arms)
        } else {
            // match on GpOpt(τ): the Some arm can use the payload when
            // the element type is the target type itself.
            let elem = if self.rng.gen_bool(0.5) {
                ty.clone()
            } else {
                self.gen_type(1)
            };
            let scrut = self.gen_literalish(&gp_opt(elem.clone()), depth.saturating_sub(1));
            let x = fresh("gm");
            let some_body = if elem == *ty && self.rng.gen_bool(0.8) {
                Expr::Var(x)
            } else {
                self.gen_expr(ty, depth - 1)
            };
            self.counters.match_arms += 2;
            Expr::Match(
                std::rc::Rc::new(scrut),
                vec![
                    implicit_core::syntax::MatchArm {
                        ctor: Symbol::intern("GpNone"),
                        binders: vec![],
                        body: self.gen_expr(ty, depth - 1),
                    },
                    implicit_core::syntax::MatchArm {
                        ctor: Symbol::intern("GpSome"),
                        binders: vec![x],
                        body: some_body,
                    },
                ],
            )
        }
    }

    /// A guaranteed-terminating `Int` recursion: either a countdown
    /// loop or a length fold over a freshly generated list (recursion
    /// over a polymorphic container, instantiated at a random element
    /// type per program).
    fn gen_fix_int(&mut self, depth: usize) -> Expr {
        self.counters.fix_rec += 1;
        if self.rng.gen_bool(0.5) {
            // (fix f : Int → Int. λn. if n ≤ 0 then base else step + f (n−1)) k
            self.counters.if_then_else += 1;
            let f = fresh("gf");
            let n = fresh("gn");
            let base = self.gen_literalish(&Type::Int, depth.saturating_sub(2));
            let step = self.gen_literalish(&Type::Int, depth.saturating_sub(2));
            let fty = Type::arrow(Type::Int, Type::Int);
            let body = Expr::lam(
                n,
                Type::Int,
                Expr::if_(
                    Expr::binop(BinOp::Le, Expr::Var(n), Expr::Int(0)),
                    base,
                    Expr::binop(
                        BinOp::Add,
                        step,
                        Expr::app(
                            Expr::Var(f),
                            Expr::binop(BinOp::Sub, Expr::Var(n), Expr::Int(1)),
                        ),
                    ),
                ),
            );
            let k = self.rng.gen_range(0..5);
            Expr::app(Expr::Fix(f, fty, std::rc::Rc::new(body)), Expr::Int(k))
        } else {
            // (fix len : [τ] → Int. λxs. case xs of nil → 0 | h::t → 1 + len t) list
            self.counters.list_case += 1;
            let elem = self.gen_type(1);
            let len = fresh("gl");
            let xs = fresh("gxs");
            let h = fresh("gh");
            let t = fresh("gt");
            let fty = Type::arrow(Type::list(elem.clone()), Type::Int);
            let body = Expr::lam(
                xs,
                Type::list(elem.clone()),
                Expr::ListCase {
                    scrut: std::rc::Rc::new(Expr::Var(xs)),
                    nil: std::rc::Rc::new(Expr::Int(0)),
                    head: h,
                    tail: t,
                    cons: std::rc::Rc::new(Expr::binop(
                        BinOp::Add,
                        Expr::Int(1),
                        Expr::app(Expr::Var(len), Expr::Var(t)),
                    )),
                },
            );
            let list = self.gen_literalish(&Type::list(elem), depth.saturating_sub(2));
            Expr::app(Expr::Fix(len, fty, std::rc::Rc::new(body)), list)
        }
    }

    fn gen_literalish(&mut self, ty: &Type, depth: usize) -> Expr {
        match ty {
            Type::Int => {
                if depth > 0 && self.rng.gen_bool(0.5) {
                    self.counters.binop += 1;
                    let a = self.gen_expr(&Type::Int, depth - 1);
                    let b = self.gen_expr(&Type::Int, depth - 1);
                    let op = [BinOp::Add, BinOp::Sub, BinOp::Mul][self.rng.gen_range(0..3usize)];
                    Expr::binop(op, a, b)
                } else {
                    self.counters.int_lit += 1;
                    Expr::Int(self.rng.gen_range(-100..100))
                }
            }
            Type::Bool => {
                if depth > 0 && self.rng.gen_bool(0.4) {
                    self.counters.binop += 1;
                    let a = self.gen_expr(&Type::Int, depth - 1);
                    let b = self.gen_expr(&Type::Int, depth - 1);
                    Expr::binop(BinOp::Lt, a, b)
                } else {
                    self.counters.bool_lit += 1;
                    Expr::Bool(self.rng.gen_bool(0.5))
                }
            }
            Type::Str => {
                if depth > 0 && self.rng.gen_bool(0.4) {
                    Expr::UnOp(
                        UnOp::IntToStr,
                        std::rc::Rc::new(self.gen_expr(&Type::Int, depth - 1)),
                    )
                } else {
                    self.counters.str_lit += 1;
                    let n = self.rng.gen_range(0..100);
                    Expr::Str(format!("s{n}"))
                }
            }
            Type::Prod(a, b) => {
                self.counters.pair += 1;
                let ea = self.gen_expr(a, depth.saturating_sub(1));
                let eb = self.gen_expr(b, depth.saturating_sub(1));
                Expr::pair(ea, eb)
            }
            Type::List(el) => {
                self.counters.list += 1;
                let n = self.rng.gen_range(0..3);
                let items = (0..n)
                    .map(|_| self.gen_expr(el, depth.saturating_sub(1)))
                    .collect();
                Expr::list((**el).clone(), items)
            }
            Type::Con(name, targs) if self.has_data => {
                self.counters.inject += 1;
                if name.as_str() == "GpColor" {
                    let color = ["GpRed", "GpGreen", "GpBlue"][self.rng.gen_range(0..3usize)];
                    Expr::Inject(Symbol::intern(color), vec![], vec![])
                } else if name.as_str() == "GpOpt" && targs.len() == 1 {
                    if depth > 0 && self.rng.gen_bool(0.7) {
                        let payload = self.gen_expr(&targs[0], depth - 1);
                        Expr::Inject(Symbol::intern("GpSome"), targs.clone(), vec![payload])
                    } else {
                        Expr::Inject(Symbol::intern("GpNone"), targs.clone(), vec![])
                    }
                } else {
                    self.gen_literalish_fallback(ty)
                }
            }
            // If-wrapping keeps other types inhabitable too.
            other => {
                self.counters.if_then_else += 1;
                let c = self.gen_expr(&Type::Bool, depth.saturating_sub(1));
                let t = self.gen_literalish_fallback(other);
                let f = self.gen_literalish_fallback(other);
                Expr::if_(c, t, f)
            }
        }
    }

    fn gen_literalish_fallback(&mut self, ty: &Type) -> Expr {
        match ty {
            Type::Int => Expr::Int(0),
            Type::Bool => Expr::Bool(false),
            Type::Str => Expr::Str(String::new()),
            Type::Unit => Expr::Unit,
            Type::Prod(a, b) => Expr::pair(
                self.gen_literalish_fallback(a),
                self.gen_literalish_fallback(b),
            ),
            Type::List(el) => Expr::Nil((**el).clone()),
            Type::Arrow(a, b) => {
                let x = fresh("x");
                Expr::Lam(x, (**a).clone(), self.gen_literalish_fallback(b).into())
            }
            Type::Con(name, targs) if name.as_str() == "GpOpt" && targs.len() == 1 => {
                Expr::Inject(Symbol::intern("GpNone"), targs.clone(), vec![])
            }
            Type::Con(name, targs) if name.as_str() == "GpColor" && targs.is_empty() => {
                Expr::Inject(Symbol::intern("GpRed"), vec![], vec![])
            }
            _ => Expr::Unit,
        }
    }
}

/// A fixed declaration prelude for data-typed random programs: a
/// simple enum and an option-like container.
pub fn data_prelude() -> implicit_core::syntax::Declarations {
    let mut decls = implicit_core::syntax::Declarations::new();
    let color = implicit_core::syntax::DataDecl::infer(
        Symbol::intern("GpColor"),
        vec![],
        vec![
            (Symbol::intern("GpRed"), vec![]),
            (Symbol::intern("GpGreen"), vec![]),
            (Symbol::intern("GpBlue"), vec![]),
        ],
    )
    .expect("well-kinded");
    decls.declare_data(color).expect("fresh name");
    let opt = implicit_core::syntax::DataDecl::infer(
        Symbol::intern("GpOpt"),
        vec![Symbol::intern("gp_opt_a")],
        vec![
            (Symbol::intern("GpNone"), vec![]),
            (
                Symbol::intern("GpSome"),
                vec![Type::Var(Symbol::intern("gp_opt_a"))],
            ),
        ],
    )
    .expect("well-kinded");
    decls.declare_data(opt).expect("fresh name");
    decls
}

/// Generates a random well-typed program over the [`data_prelude`]
/// declarations, mixing the full construct set of
/// [`gen_program_with`] with a guaranteed `con`/`match` wrapper (so
/// every data program exercises `Inject` and `Match` at least once).
pub fn gen_data_program(rng: &mut impl Rng, config: &GenConfig) -> GenProgram {
    let decls = data_prelude();
    let mut base = gen_program_with(rng, config, &decls);
    base.counters.inject += 2;
    base.counters.match_arms += 5;
    // Wrap the generated program in data-typed scaffolding: inject it
    // into GpOpt and match it back, and branch on a random GpColor.
    let color = ["GpRed", "GpGreen", "GpBlue"][rng.gen_range(0..3usize)];
    let scrut = Expr::Inject(Symbol::intern(color), vec![], vec![]);
    let color_pick = Expr::Match(
        std::rc::Rc::new(scrut),
        vec![
            implicit_core::syntax::MatchArm {
                ctor: Symbol::intern("GpRed"),
                binders: vec![],
                body: Expr::Int(0),
            },
            implicit_core::syntax::MatchArm {
                ctor: Symbol::intern("GpGreen"),
                binders: vec![],
                body: Expr::Int(1),
            },
            implicit_core::syntax::MatchArm {
                ctor: Symbol::intern("GpBlue"),
                binders: vec![],
                body: Expr::Int(2),
            },
        ],
    );
    let x = fresh("gpx");
    let wrapped = Expr::Match(
        std::rc::Rc::new(Expr::Inject(
            Symbol::intern("GpSome"),
            vec![base.ty.clone()],
            vec![base.expr],
        )),
        vec![
            implicit_core::syntax::MatchArm {
                ctor: Symbol::intern("GpNone"),
                binders: vec![],
                body: Expr::pair(Expr::Int(-1), gen_fallback(&base.ty)),
            },
            implicit_core::syntax::MatchArm {
                ctor: Symbol::intern("GpSome"),
                binders: vec![x],
                body: Expr::pair(color_pick, Expr::Var(x)),
            },
        ],
    );
    GenProgram {
        expr: wrapped,
        ty: Type::prod(Type::Int, base.ty),
        counters: base.counters,
    }
}

fn gen_fallback(ty: &Type) -> Expr {
    match ty {
        Type::Int => Expr::Int(0),
        Type::Bool => Expr::Bool(false),
        Type::Str => Expr::Str(String::new()),
        Type::Unit => Expr::Unit,
        Type::Prod(a, b) => Expr::pair(gen_fallback(a), gen_fallback(b)),
        Type::List(el) => Expr::Nil((**el).clone()),
        Type::Con(name, targs) if name.as_str() == "GpOpt" && targs.len() == 1 => {
            Expr::Inject(Symbol::intern("GpNone"), targs.clone(), vec![])
        }
        Type::Con(name, _) if name.as_str() == "GpColor" => {
            Expr::Inject(Symbol::intern("GpRed"), vec![], vec![])
        }
        _ => Expr::Unit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_env_resolves_in_n_plus_one_steps() {
        for n in [0, 1, 5, 20] {
            let (env, q) = chain_env(n);
            let res = resolve(&env, &q, &ResolutionPolicy::paper().with_max_depth(4096)).unwrap();
            assert_eq!(res.steps(), n + 1, "chain length {n}");
        }
    }

    #[test]
    fn wide_env_resolves_everywhere() {
        for pos in [0.0, 0.5, 1.0] {
            let (env, q) = wide_env(64, pos);
            assert!(resolve(&env, &q, &ResolutionPolicy::paper()).is_ok());
        }
    }

    #[test]
    fn deep_stack_env_descends() {
        let (env, q) = deep_stack_env(32);
        let res = resolve(&env, &q, &ResolutionPolicy::paper()).unwrap();
        assert_eq!(res.steps(), 1);
        match res.rule {
            // The outermost frame, 32 frames below the innermost.
            implicit_core::resolve::RuleRef::Env { level, .. } => assert_eq!(level, 0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn poly_env_resolves() {
        let (env, q) = poly_env(16);
        assert!(resolve(&env, &q, &ResolutionPolicy::paper()).is_ok());
    }

    #[test]
    fn partial_env_mixes_assumed_and_derived() {
        let (env, q) = partial_env(6, 3);
        let res = resolve(&env, &q, &ResolutionPolicy::paper()).unwrap();
        assert!(res.is_partial());
        let assumed = res
            .premises
            .iter()
            .filter(|p| matches!(p, implicit_core::resolve::Premise::Assumed { .. }))
            .count();
        assert_eq!(assumed, 3);
    }

    #[test]
    fn chain_programs_typecheck() {
        let decls = implicit_core::syntax::Declarations::new();
        for n in [0, 3, 8] {
            let e = chain_program(n);
            implicit_core::typeck::Typechecker::new(&decls)
                .check_closed(&e)
                .unwrap_or_else(|err| panic!("chain {n}: {err}"));
        }
    }

    #[test]
    fn generated_programs_typecheck() {
        let decls = implicit_core::syntax::Declarations::new();
        let mut r = rng(42);
        for i in 0..200 {
            let p = gen_program(&mut r, &GenConfig::default());
            let got = implicit_core::typeck::Typechecker::new(&decls)
                .check_closed(&p.expr)
                .unwrap_or_else(|err| panic!("program {i} ill-typed: {err}\n{}", p.expr));
            assert!(
                implicit_core::typeck::types_equal(&got, &p.ty),
                "program {i}: expected {}, got {got}",
                p.ty
            );
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = gen_program(&mut rng(7), &GenConfig::default());
        let b = gen_program(&mut rng(7), &GenConfig::default());
        assert_eq!(format!("{}", a.expr), format!("{}", b.expr));
        assert_eq!(a.counters, b.counters);
    }

    #[test]
    fn data_aware_programs_typecheck_with_full_construct_set() {
        let decls = data_prelude();
        let mut r = rng(2024);
        let mut total = GenCounters::default();
        for i in 0..300 {
            let p = gen_program_with(&mut r, &GenConfig::default(), &decls);
            let got = implicit_core::typeck::Typechecker::new(&decls)
                .check_closed(&p.expr)
                .unwrap_or_else(|err| panic!("program {i} ill-typed: {err}\n{}", p.expr));
            assert!(
                implicit_core::typeck::types_equal(&got, &p.ty),
                "program {i}: expected {}, got {got}",
                p.ty
            );
            total.merge(&p.counters);
        }
        // The v2 construct set is actually exercised across a sweep.
        assert!(total.inject > 0, "no constructor applications emitted");
        assert!(total.match_arms > 0, "no matches emitted");
        assert!(total.fix_rec > 0, "no recursion emitted");
        assert!(total.hk_rule > 0, "no higher-kinded rules emitted");
        assert!(total.applied_ctor_type > 0, "no applied constructors");
        assert!(total.query > 0 && total.implicit_scope > 0);
    }

    #[test]
    fn scope_depth_knob_bounds_nesting() {
        let cfg = GenConfig {
            scope_prob: 0.95,
            max_depth: 8,
            max_scope_depth: 2,
            ..GenConfig::default()
        };
        let mut r = rng(11);
        for _ in 0..100 {
            let p = gen_program(&mut r, &cfg);
            assert!(p.counters.max_scope_depth <= 2);
        }
    }

    #[test]
    fn counters_merge_sums_and_maxes() {
        let mut a = GenCounters {
            int_lit: 3,
            max_scope_depth: 1,
            ..GenCounters::default()
        };
        let b = GenCounters {
            int_lit: 4,
            query: 2,
            max_scope_depth: 5,
            ..GenCounters::default()
        };
        a.merge(&b);
        assert_eq!(a.int_lit, 7);
        assert_eq!(a.query, 2);
        assert_eq!(a.max_scope_depth, 5);
        assert_eq!(a.as_pairs().len(), 22);
    }

    /// Acceptance criterion for the wild mode: the default
    /// (field-study) shape emits ≥100 rules in at least one frame,
    /// with a skewed head-constructor histogram — the most popular
    /// constructor owns several rules while the tail is singletons.
    #[test]
    fn wild_coverage_histogram_is_production_shaped() {
        for seed in 0..8u64 {
            let w = wild_workload(seed, &WildConfig::field_study());
            let hist = &w.histogram;
            // One huge import frame…
            let biggest = *hist.rules_per_frame.iter().max().unwrap();
            assert!(
                biggest >= 100,
                "seed {seed}: biggest frame has only {biggest} rules"
            );
            assert_eq!(hist.rules_per_frame.len(), 4);
            assert_eq!(hist.total_rules(), env_rule_count(&w.env) as u64);
            // …with Zipf-skewed head popularity: the top constructor
            // owns a long chain, the tail is singletons, and the gap
            // between them is wide.
            let (_, top) = hist.top_constructor().unwrap();
            let (_, bottom) = *hist.head_constructors.last().unwrap();
            assert!(
                top >= 8 && bottom <= 2 && top >= 4 * bottom,
                "seed {seed}: skew too flat (top {top}, bottom {bottom})"
            );
            let singletons = hist
                .head_constructors
                .iter()
                .filter(|(_, n)| *n == 1)
                .count();
            assert!(
                singletons * 2 >= hist.head_constructors.len(),
                "seed {seed}: tail not singleton-heavy ({singletons} of {})",
                hist.head_constructors.len()
            );
            // Deep conversion chains and every rule category present.
            assert!(hist.max_chain_len >= 8, "seed {seed}");
            assert!(hist.base_rules > 0 && hist.conversion_rules > 0);
            assert!(hist.poly_rules > 0 && hist.bridge_rules > 0);
            // Hot/cold mix roughly matches the configured fraction.
            assert_eq!(hist.hot_queries + hist.cold_queries, 32);
            assert!(hist.hot_queries >= 16, "seed {seed}: {hist:?}");
            // The rendered table is well-formed markdown.
            let table = hist.render_table(5);
            assert!(table.starts_with("| head constructor | rules |"));
            assert!(table.contains("more"));
        }
    }

    fn env_rule_count(env: &ImplicitEnv) -> usize {
        env.frames_innermost_first()
            .map(|(_, frame)| frame.len())
            .sum()
    }

    /// Every wild query resolves (the oracle legs demand success),
    /// under both the logic resolver and the subtyping resolver, with
    /// identical evidence.
    #[test]
    fn wild_queries_all_resolve_and_engines_agree() {
        let policy = ResolutionPolicy::paper().with_max_depth(4096);
        for seed in [0u64, 1, 7, 42] {
            let w = wild_workload(seed, &WildConfig::field_study());
            for q in &w.queries {
                let res = resolve(&w.env, q, &policy)
                    .unwrap_or_else(|e| panic!("seed {seed}, query {q}: {e:?}"));
                let sub = implicit_core::subtyping::subtype_resolve(&w.env, q, &policy)
                    .unwrap_or_else(|e| panic!("seed {seed}, query {q} (subtyping): {e:?}"));
                assert_eq!(
                    *res,
                    sub.to_resolution(w.env.depth()),
                    "seed {seed}, query {q}"
                );
            }
        }
    }

    /// The wild environment passes the source-level termination and
    /// coherence guards — production-shaped, not pathological.
    #[test]
    fn wild_env_passes_guards() {
        let w = wild_workload(3, &WildConfig::field_study());
        for (_, frame) in w.env.frames_innermost_first() {
            for rule in frame.iter() {
                implicit_core::termination::check_rule(rule)
                    .unwrap_or_else(|e| panic!("{rule}: {e:?}"));
            }
            implicit_core::coherence::unique_instances(frame)
                .unwrap_or_else(|e| panic!("overlap: {e:?}"));
        }
    }

    #[test]
    fn wild_workload_is_deterministic_per_seed() {
        let cfg = WildConfig::field_study();
        let a = wild_workload(9, &cfg);
        let b = wild_workload(9, &cfg);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.histogram.head_constructors, b.histogram.head_constructors);
        let c = wild_workload(10, &cfg);
        assert_ne!(a.queries, c.queries);
    }

    #[test]
    fn record_wild_folds_histogram_into_counters() {
        let w = wild_workload(0, &WildConfig::field_study());
        let mut counters = GenCounters::default();
        counters.record_wild(&w.histogram);
        assert_eq!(counters.wild_rules, w.histogram.total_rules());
        assert_eq!(counters.wild_hot_queries + counters.wild_cold_queries, 32);
        assert_eq!(counters.wild_max_chain, w.histogram.max_chain_len);
    }
}
