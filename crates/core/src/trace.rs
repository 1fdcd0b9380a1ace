//! Structured tracing and unified metrics for the whole pipeline.
//!
//! Every stage of the system — resolution ([`crate::resolve`]), the
//! typechecker, elaboration, both evaluators, and the batch driver —
//! reports what it does as [`TraceEvent`]s through a [`TraceSink`].
//! The design goals, in order:
//!
//! 1. **Zero cost when disabled.** The hot resolution path is generic
//!    over the sink ([`crate::resolve::resolve_with`]); the default
//!    [`NullSink`] has an `#[inline(always)] fn enabled() -> false`,
//!    so every `if sink.enabled() { … }` guard — and the event
//!    construction behind it, including its `String` payloads — is
//!    statically dead code in the monomorphized default path used by
//!    [`crate::resolve::resolve`]. Enabled tracing goes through
//!    `&mut dyn TraceSink` (or the [`SharedSink`] handle) and pays
//!    for what it observes.
//! 2. **Deterministic streams.** Events carry *no* wall-clock data
//!    and no interner ids — payloads are pretty-printed types and
//!    structural counters — so two runs of the same program produce
//!    byte-identical event streams. Timestamps are added sink-side
//!    (see [`ChromeSink`]) where nondeterminism is expected.
//! 3. **Cache transparency.** A derivation-cache hit *replays* the
//!    cached derivation through the same emission helpers a fresh
//!    search uses, so a cache-warm stream differs from a cache-off
//!    stream only in [`TraceEvent::CacheHit`]/[`TraceEvent::CacheMiss`]
//!    markers — a property pinned by `crates/pipeline/tests/`
//!    `trace_determinism.rs`.
//!
//! [`MetricsRegistry`] is the unified counter snapshot: resolution
//! work, the environment's cache counters, the opsem runtime-memo
//! counters, a session's program and trim counts, the VM's
//! fuel/tail-call/fix-unfold counters, and the batch driver's
//! job/steal counts. It is declared once, as a
//! [`counter_table!`](crate::counter_table), and filled directly or
//! by feeding it events ([`MetricsSink`]).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use crate::json::Json;

/// A pipeline stage delimited by [`TraceEvent::PhaseStart`] /
/// [`TraceEvent::PhaseEnd`] spans.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Surface-syntax parsing.
    Parse,
    /// Type checking (λ⇒ judgment `Γ;Δ ⊢ e : ρ`).
    Typecheck,
    /// Elaboration to System F.
    Elaborate,
    /// The §4 preservation check on the elaborated term.
    Preservation,
    /// Bytecode compilation of the elaborated term.
    Compile,
    /// Tree-walking System F evaluation.
    Eval,
    /// Bytecode-VM execution.
    Vm,
    /// Direct operational-semantics evaluation.
    Opsem,
    /// One-off prelude construction in a warm session.
    Prelude,
}

impl Phase {
    /// Stable lower-case name, used as the Chrome-trace span name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Typecheck => "typecheck",
            Phase::Elaborate => "elaborate",
            Phase::Preservation => "preservation",
            Phase::Compile => "compile",
            Phase::Eval => "eval",
            Phase::Vm => "vm",
            Phase::Opsem => "opsem",
            Phase::Prelude => "prelude",
        }
    }
}

/// One structured observation from some pipeline stage.
///
/// Payloads are deliberately self-contained (pretty-printed types,
/// plain counters): no interner ids, no wall-clock values, nothing
/// that could differ between two runs of the same program.
#[derive(Clone, PartialEq, Debug)]
pub enum TraceEvent {
    /// A pipeline phase began.
    PhaseStart {
        /// The phase.
        phase: Phase,
    },
    /// A pipeline phase finished.
    PhaseEnd {
        /// The phase.
        phase: Phase,
    },
    /// Resolution entered a (sub-)query (`Δ ⊢r ρ`).
    QueryEnter {
        /// The query, pretty-printed.
        query: String,
        /// Recursion depth (0 = the original query).
        depth: usize,
        /// Termination measure: the size `|τ|` of the query head,
        /// the quantity Appendix A requires to strictly decrease.
        measure: usize,
    },
    /// The derivation cache held a derivation for this query.
    CacheHit {
        /// The query, pretty-printed.
        query: String,
    },
    /// The derivation cache had no entry for this query.
    CacheMiss {
        /// The query, pretty-printed.
        query: String,
    },
    /// Lookup match-tested an environment rule and committed to it.
    CandidateAdmitted {
        /// Frame index, innermost-first.
        frame: usize,
        /// Rule position within the frame.
        index: usize,
        /// The stored rule, pretty-printed.
        rule: String,
    },
    /// Lookup match-tested an environment rule the head index
    /// admitted, but did not commit to it (no match, or lost the
    /// most-specific comparison).
    CandidateRejected {
        /// Frame index, innermost-first.
        frame: usize,
        /// Rule position within the frame.
        index: usize,
        /// The stored rule, pretty-printed.
        rule: String,
    },
    /// Lookup used an assumption frame of the §3.2
    /// environment-extension variant.
    AssumptionUsed {
        /// Recursion level whose queried context was assumed.
        level: usize,
        /// Premise position within that context.
        index: usize,
        /// The assumed rule, pretty-printed.
        rule: String,
    },
    /// A premise stayed abstract by partial resolution.
    PremiseAssumed {
        /// Position in the queried context π.
        index: usize,
        /// The premise, pretty-printed.
        rho: String,
    },
    /// A (sub-)query resolved successfully.
    QueryResolved {
        /// The query, pretty-printed.
        query: String,
        /// `TyRes` steps in its derivation.
        steps: usize,
    },
    /// A (sub-)query failed to resolve.
    QueryFailed {
        /// The query, pretty-printed.
        query: String,
        /// The failure, rendered.
        error: String,
    },
    /// The opsem runtime memo held a value for a resolution.
    MemoHit {
        /// The resolved rule type, pretty-printed.
        query: String,
    },
    /// The opsem runtime memo had no value for a resolution.
    MemoMiss {
        /// The resolved rule type, pretty-printed.
        query: String,
    },
    /// The session's dictionary inline cache answered an
    /// implicit-query site with an already-promoted evidence global
    /// (the dynamic analogue of a derivation-cache hit).
    IcHit {
        /// The query, pretty-printed.
        query: String,
    },
    /// The dictionary inline cache had no reusable entry for this
    /// query site (cold site, non-ground query, or an entry
    /// invalidated by shadowing/rollback).
    IcMiss {
        /// The query, pretty-printed.
        query: String,
    },
    /// One bytecode compile finished its superinstruction pass.
    Fusion {
        /// Instructions scanned by the peephole pass.
        scanned: u64,
        /// Adjacent pairs fused into superinstructions.
        fused: u64,
    },
    /// One tree-walking System F evaluation finished.
    TreeEval {
        /// Fuel charged (evaluation steps).
        fuel: u64,
    },
    /// One bytecode-VM execution finished.
    VmRun {
        /// Fuel charged (frame pushes + tail calls).
        fuel: u64,
        /// Tail calls that reused the running frame.
        tail_calls: u64,
        /// `fix` unfolds answered by the per-closure unfold cache.
        fix_unfolds: u64,
        /// Match dispatches answered by the match-site inline cache.
        match_ic_hits: u64,
        /// Match dispatches that fell back to the linear arm scan.
        match_ic_misses: u64,
    },
    /// A batch-driver worker picked up a job.
    JobStart {
        /// Worker index.
        worker: usize,
        /// Job index within the batch.
        job: usize,
        /// Whether the job was stolen from a sibling's deque.
        stolen: bool,
    },
    /// A batch-driver worker finished a job.
    JobFinish {
        /// Worker index.
        worker: usize,
        /// Job index within the batch.
        job: usize,
        /// Whether the job succeeded.
        ok: bool,
    },
}

impl TraceEvent {
    /// Stable lower-snake event name (the Chrome-trace `name`).
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::PhaseStart { phase } | TraceEvent::PhaseEnd { phase } => phase.name(),
            TraceEvent::QueryEnter { .. } => "query_enter",
            TraceEvent::CacheHit { .. } => "cache_hit",
            TraceEvent::CacheMiss { .. } => "cache_miss",
            TraceEvent::CandidateAdmitted { .. } => "candidate_admitted",
            TraceEvent::CandidateRejected { .. } => "candidate_rejected",
            TraceEvent::AssumptionUsed { .. } => "assumption_used",
            TraceEvent::PremiseAssumed { .. } => "premise_assumed",
            TraceEvent::QueryResolved { .. } => "query_resolved",
            TraceEvent::QueryFailed { .. } => "query_failed",
            TraceEvent::MemoHit { .. } => "memo_hit",
            TraceEvent::MemoMiss { .. } => "memo_miss",
            TraceEvent::IcHit { .. } => "ic_hit",
            TraceEvent::IcMiss { .. } => "ic_miss",
            TraceEvent::Fusion { .. } => "fusion",
            TraceEvent::TreeEval { .. } => "tree_eval",
            TraceEvent::VmRun { .. } => "vm_run",
            TraceEvent::JobStart { .. } => "job_start",
            TraceEvent::JobFinish { .. } => "job_finish",
        }
    }

    /// Stable event category (the Chrome-trace `cat`).
    pub fn category(&self) -> &'static str {
        match self {
            TraceEvent::PhaseStart { .. } | TraceEvent::PhaseEnd { .. } => "phase",
            TraceEvent::QueryEnter { .. }
            | TraceEvent::CacheHit { .. }
            | TraceEvent::CacheMiss { .. }
            | TraceEvent::CandidateAdmitted { .. }
            | TraceEvent::CandidateRejected { .. }
            | TraceEvent::AssumptionUsed { .. }
            | TraceEvent::PremiseAssumed { .. }
            | TraceEvent::QueryResolved { .. }
            | TraceEvent::QueryFailed { .. } => "resolution",
            TraceEvent::MemoHit { .. } | TraceEvent::MemoMiss { .. } => "memo",
            TraceEvent::IcHit { .. } | TraceEvent::IcMiss { .. } => "ic",
            TraceEvent::Fusion { .. } => "compile",
            TraceEvent::TreeEval { .. } | TraceEvent::VmRun { .. } => "eval",
            TraceEvent::JobStart { .. } | TraceEvent::JobFinish { .. } => "driver",
        }
    }

    /// `true` for the cache markers a warm stream adds over a
    /// cache-off stream (`cache_hit` / `cache_miss`, and the
    /// dictionary-IC `ic_hit` / `ic_miss` pair, which likewise only
    /// report cache state without changing observable semantics).
    pub fn is_cache_marker(&self) -> bool {
        matches!(
            self,
            TraceEvent::CacheHit { .. }
                | TraceEvent::CacheMiss { .. }
                | TraceEvent::IcHit { .. }
                | TraceEvent::IcMiss { .. }
        )
    }

    /// The event's payload as (key, value) argument pairs, used for
    /// the Chrome-trace `args` object.
    fn args(&self) -> Vec<(&'static str, Json)> {
        let text = |s: &String| Json::Str(s.clone());
        let num = |n: u64| Json::Int(n as i64);
        match self {
            TraceEvent::PhaseStart { .. } | TraceEvent::PhaseEnd { .. } => vec![],
            TraceEvent::QueryEnter {
                query,
                depth,
                measure,
            } => vec![
                ("query", text(query)),
                ("depth", num(*depth as u64)),
                ("measure", num(*measure as u64)),
            ],
            TraceEvent::CandidateAdmitted { frame, index, rule }
            | TraceEvent::CandidateRejected { frame, index, rule } => vec![
                ("frame", num(*frame as u64)),
                ("index", num(*index as u64)),
                ("rule", text(rule)),
            ],
            TraceEvent::AssumptionUsed { level, index, rule } => vec![
                ("level", num(*level as u64)),
                ("index", num(*index as u64)),
                ("rule", text(rule)),
            ],
            TraceEvent::PremiseAssumed { index, rho } => {
                vec![("index", num(*index as u64)), ("rho", text(rho))]
            }
            TraceEvent::QueryResolved { query, steps } => {
                vec![("query", text(query)), ("steps", num(*steps as u64))]
            }
            TraceEvent::QueryFailed { query, error } => {
                vec![("query", text(query)), ("error", text(error))]
            }
            TraceEvent::CacheHit { query }
            | TraceEvent::CacheMiss { query }
            | TraceEvent::MemoHit { query }
            | TraceEvent::MemoMiss { query }
            | TraceEvent::IcHit { query }
            | TraceEvent::IcMiss { query } => vec![("query", text(query))],
            TraceEvent::Fusion { scanned, fused } => {
                vec![("scanned", num(*scanned)), ("fused", num(*fused))]
            }
            TraceEvent::TreeEval { fuel } => vec![("fuel", num(*fuel))],
            TraceEvent::VmRun {
                fuel,
                tail_calls,
                fix_unfolds,
                match_ic_hits,
                match_ic_misses,
            } => vec![
                ("fuel", num(*fuel)),
                ("tail_calls", num(*tail_calls)),
                ("fix_unfolds", num(*fix_unfolds)),
                ("match_ic_hits", num(*match_ic_hits)),
                ("match_ic_misses", num(*match_ic_misses)),
            ],
            TraceEvent::JobStart {
                worker,
                job,
                stolen,
            } => vec![
                ("worker", num(*worker as u64)),
                ("job", num(*job as u64)),
                ("stolen", Json::Bool(*stolen)),
            ],
            TraceEvent::JobFinish { worker, job, ok } => vec![
                ("worker", num(*worker as u64)),
                ("job", num(*job as u64)),
                ("ok", Json::Bool(*ok)),
            ],
        }
    }
}

/// Receiver of [`TraceEvent`]s.
///
/// Instrumented code guards every emission with
/// `if sink.enabled() { sink.event(…) }`, so a sink whose `enabled`
/// is statically `false` ([`NullSink`]) costs nothing — including the
/// payload construction, which happens inside the guard.
pub trait TraceSink {
    /// Whether this sink wants events at all. Implementations should
    /// make this trivially inlinable.
    fn enabled(&self) -> bool {
        true
    }

    /// Receives one event. Only called when [`enabled`](Self::enabled)
    /// is `true`.
    fn event(&mut self, ev: TraceEvent);
}

/// The default sink: statically disabled, compiles to nothing.
#[derive(Clone, Copy, Default, Debug)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn event(&mut self, _ev: TraceEvent) {}
}

/// A sink that appends every event to a vector — the test workhorse.
#[derive(Clone, Default, Debug)]
pub struct CollectSink {
    /// Events in arrival order.
    pub events: Vec<TraceEvent>,
}

impl CollectSink {
    /// An empty collector.
    pub fn new() -> CollectSink {
        CollectSink::default()
    }

    /// The collected events with cache markers removed — the shape
    /// the cache-off/cache-warm equivalence property compares.
    pub fn without_cache_markers(&self) -> Vec<TraceEvent> {
        self.events
            .iter()
            .filter(|e| !e.is_cache_marker())
            .cloned()
            .collect()
    }
}

impl TraceSink for CollectSink {
    fn event(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }
}

/// A cheap clonable handle on a shared sink, for components that hold
/// a sink across calls (the typechecker, the elaborator, a warm
/// `Session`) rather than threading `&mut` through deep recursion.
#[derive(Clone)]
pub struct SharedSink {
    inner: Rc<RefCell<dyn TraceSink>>,
}

impl SharedSink {
    /// Wraps a sink in a fresh shared handle.
    pub fn new(sink: impl TraceSink + 'static) -> SharedSink {
        SharedSink {
            inner: Rc::new(RefCell::new(sink)),
        }
    }

    /// Wraps an existing shared cell, letting the caller keep its own
    /// typed handle to read results back out.
    pub fn from_rc<T: TraceSink + 'static>(rc: Rc<RefCell<T>>) -> SharedSink {
        SharedSink { inner: rc }
    }
}

impl std::fmt::Debug for SharedSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSink").finish_non_exhaustive()
    }
}

impl TraceSink for SharedSink {
    fn enabled(&self) -> bool {
        self.inner.borrow().enabled()
    }

    fn event(&mut self, ev: TraceEvent) {
        self.inner.borrow_mut().event(ev);
    }
}

/// Fans events out to any number of shared sinks.
#[derive(Clone, Default, Debug)]
pub struct FanSink {
    /// The receiving sinks.
    pub sinks: Vec<SharedSink>,
}

impl TraceSink for FanSink {
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    fn event(&mut self, ev: TraceEvent) {
        for s in &mut self.sinks {
            if s.enabled() {
                s.event(ev.clone());
            }
        }
    }
}

/// A timestamped event row: `(tid, microseconds, event)`.
pub type ChromeRow = (u64, u64, TraceEvent);

/// A sink that timestamps events against a shared clock, for export
/// in Chrome trace-event format. Wall-clock data lives only here —
/// the events themselves stay deterministic.
#[derive(Debug)]
pub struct ChromeSink {
    start: Instant,
    tid: u64,
    /// `(microseconds since clock start, event)` in arrival order.
    pub rows: Vec<(u64, TraceEvent)>,
}

impl ChromeSink {
    /// A sink with its own clock, on Chrome thread id 1.
    pub fn new() -> ChromeSink {
        ChromeSink::with_clock(Instant::now(), 1)
    }

    /// A sink stamping against `start` and tagging rows with `tid` —
    /// batch workers share one clock and use their worker index.
    pub fn with_clock(start: Instant, tid: u64) -> ChromeSink {
        ChromeSink {
            start,
            tid,
            rows: Vec::new(),
        }
    }

    /// The rows as `(tid, ts, event)` triples for
    /// [`chrome_trace_json`].
    pub fn into_rows(self) -> Vec<ChromeRow> {
        let tid = self.tid;
        self.rows
            .into_iter()
            .map(|(ts, ev)| (tid, ts, ev))
            .collect()
    }
}

impl Default for ChromeSink {
    fn default() -> ChromeSink {
        ChromeSink::new()
    }
}

impl TraceSink for ChromeSink {
    fn event(&mut self, ev: TraceEvent) {
        let ts = self.start.elapsed().as_micros() as u64;
        self.rows.push((ts, ev));
    }
}

/// Renders timestamped rows as a Chrome trace-event JSON document
/// (the `{"traceEvents": […]}` object format understood by
/// `about:tracing` and Perfetto).
///
/// Phase events become `B`/`E` duration spans; everything else
/// becomes a thread-scoped instant (`"ph":"i"`, `"s":"t"`) with the
/// payload under `args`.
pub fn chrome_trace_json(rows: &[ChromeRow]) -> String {
    let events = rows
        .iter()
        .map(|(tid, ts, ev)| {
            let ph = match ev {
                TraceEvent::PhaseStart { .. } => "B",
                TraceEvent::PhaseEnd { .. } => "E",
                _ => "i",
            };
            let mut fields = vec![
                ("name", Json::Str(ev.name().to_owned())),
                ("cat", Json::Str(ev.category().to_owned())),
                ("ph", Json::Str(ph.to_owned())),
                ("ts", Json::Int(*ts as i64)),
                ("pid", Json::Int(1)),
                ("tid", Json::Int(*tid as i64)),
            ];
            if ph == "i" {
                fields.push(("s", Json::Str("t".to_owned())));
            }
            let args = ev.args();
            if !args.is_empty() {
                fields.push(("args", Json::obj(args)));
            }
            Json::obj(fields)
        })
        .collect();
    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".to_owned())),
    ])
    .render()
}

crate::counter_table! {
    /// The unified counter snapshot: one place for every number the
    /// pipeline reports — resolution work, the derivation cache, the
    /// opsem memo, the evaluators, a session's programs, and the batch
    /// driver.
    ///
    /// Fill it by feeding events through a [`MetricsSink`], by direct
    /// increments, or both; [`merge`](Self::merge) combines snapshots
    /// (e.g. across batch workers). The sections below are the
    /// sections of the `implicitc --metrics` table.
    #[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
    pub struct MetricsRegistry {
        if (queries, queries_failed) {
            /// Resolution (sub-)queries entered.
            queries: u64,
            /// Queries that resolved.
            queries_resolved: u64 => "  resolved",
            /// Queries that failed.
            queries_failed: u64 => "  failed",
            /// Deepest query recursion observed.
            max_query_depth: usize = max => "  max depth",
            /// Candidate rules match-tested and committed to.
            candidates_admitted: u64,
            /// Candidate rules match-tested and passed over.
            candidates_rejected: u64,
            /// Premises discharged by partial resolution.
            premises_assumed: u64,
        }
        if (cache_hits, cache_misses) {
            /// Derivation-cache hits.
            cache_hits: u64,
            /// Derivation-cache misses.
            cache_misses: u64,
            /// Derivation-cache evictions.
            cache_evictions: u64,
        } rate "cache hit rate" (cache_hits, cache_misses)
        if (memo_hits, memo_misses) {
            /// Opsem runtime-memo hits.
            memo_hits: u64,
            /// Opsem runtime-memo misses.
            memo_misses: u64,
        }
        if (ic_hits, ic_misses) {
            /// Dictionary inline-cache hits at implicit-query sites.
            ic_hits: u64,
            /// Dictionary inline-cache misses at implicit-query sites.
            ic_misses: u64,
        } rate "ic hit rate" (ic_hits, ic_misses)
        if (instrs_scanned) {
            /// Instructions scanned by the superinstruction pass.
            instrs_scanned: u64,
            /// Adjacent instruction pairs fused into superinstructions.
            instrs_fused: u64,
        }
        if (tree_runs) {
            /// Tree-walking evaluations completed.
            tree_runs: u64,
            /// Fuel charged across tree-walking evaluations.
            tree_fuel: u64,
        }
        if (vm_runs) {
            /// Bytecode-VM executions completed.
            vm_runs: u64,
            /// Fuel charged across VM executions.
            vm_fuel: u64,
            /// VM tail calls that reused the running frame.
            vm_tail_calls: u64,
            /// VM `fix` unfolds answered by the unfold cache.
            vm_fix_unfolds: u64,
            /// VM match dispatches answered by the match-site inline cache.
            vm_match_ic_hits: u64,
            /// VM match dispatches that fell back to the linear arm scan.
            vm_match_ic_misses: u64,
        }
        if (programs) {
            /// Programs a session ran.
            programs: u64,
            /// Programs additionally run under the operational semantics.
            opsem_programs: u64 => "  opsem",
            /// Programs run on the bytecode VM.
            compiled_programs: u64 => "  compiled",
            /// Session arena trims.
            trims: u64,
        }
        if (jobs) {
            /// Batch jobs completed.
            jobs: u64,
            /// Batch jobs obtained by stealing.
            steals: u64,
        }
        if (artifact_fallbacks) {
            /// Session artifacts that failed to load (truncated,
            /// corrupted, or key/version mismatch) and fell back to a
            /// cold build.
            artifact_fallbacks: u64,
        }
    }
}

impl MetricsRegistry {
    /// An all-zero snapshot.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Folds one event into the counters.
    pub fn record(&mut self, ev: &TraceEvent) {
        match ev {
            TraceEvent::PhaseStart { .. } | TraceEvent::PhaseEnd { .. } => {}
            TraceEvent::QueryEnter { depth, .. } => {
                self.queries += 1;
                self.max_query_depth = self.max_query_depth.max(*depth);
            }
            TraceEvent::CacheHit { .. } => self.cache_hits += 1,
            TraceEvent::CacheMiss { .. } => self.cache_misses += 1,
            TraceEvent::CandidateAdmitted { .. } | TraceEvent::AssumptionUsed { .. } => {
                self.candidates_admitted += 1;
            }
            TraceEvent::CandidateRejected { .. } => self.candidates_rejected += 1,
            TraceEvent::PremiseAssumed { .. } => self.premises_assumed += 1,
            TraceEvent::QueryResolved { .. } => self.queries_resolved += 1,
            TraceEvent::QueryFailed { .. } => self.queries_failed += 1,
            TraceEvent::MemoHit { .. } => self.memo_hits += 1,
            TraceEvent::MemoMiss { .. } => self.memo_misses += 1,
            TraceEvent::IcHit { .. } => self.ic_hits += 1,
            TraceEvent::IcMiss { .. } => self.ic_misses += 1,
            TraceEvent::Fusion { scanned, fused } => {
                self.instrs_scanned += scanned;
                self.instrs_fused += fused;
            }
            TraceEvent::TreeEval { fuel } => {
                self.tree_runs += 1;
                self.tree_fuel += fuel;
            }
            TraceEvent::VmRun {
                fuel,
                tail_calls,
                fix_unfolds,
                match_ic_hits,
                match_ic_misses,
            } => {
                self.vm_runs += 1;
                self.vm_fuel += fuel;
                self.vm_tail_calls += tail_calls;
                self.vm_fix_unfolds += fix_unfolds;
                self.vm_match_ic_hits += match_ic_hits;
                self.vm_match_ic_misses += match_ic_misses;
            }
            TraceEvent::JobStart { stolen, .. } => {
                if *stolen {
                    self.steals += 1;
                }
            }
            TraceEvent::JobFinish { .. } => self.jobs += 1,
        }
    }

    /// Overwrites the cache counters from an environment snapshot.
    pub fn set_cache_counters(&mut self, counters: crate::env::CacheCounters) {
        self.cache_hits = counters.hits;
        self.cache_misses = counters.misses;
        self.cache_evictions = counters.evictions;
    }
}

/// A sink that folds every event into a [`MetricsRegistry`].
#[derive(Clone, Copy, Default, Debug)]
pub struct MetricsSink {
    /// The accumulated counters.
    pub metrics: MetricsRegistry,
}

impl MetricsSink {
    /// A sink with zeroed counters.
    pub fn new() -> MetricsSink {
        MetricsSink::default()
    }
}

impl TraceSink for MetricsSink {
    fn event(&mut self, ev: TraceEvent) {
        self.metrics.record(&ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled() {
        assert!(!NullSink.enabled());
    }

    #[test]
    fn collect_sink_orders_events() {
        let mut s = CollectSink::new();
        s.event(TraceEvent::PhaseStart {
            phase: Phase::Parse,
        });
        s.event(TraceEvent::PhaseEnd {
            phase: Phase::Parse,
        });
        assert_eq!(s.events.len(), 2);
        assert_eq!(s.events[0].name(), "parse");
    }

    #[test]
    fn cache_marker_filter() {
        let mut s = CollectSink::new();
        s.event(TraceEvent::CacheMiss {
            query: "Int".into(),
        });
        s.event(TraceEvent::QueryResolved {
            query: "Int".into(),
            steps: 1,
        });
        assert_eq!(s.without_cache_markers().len(), 1);
    }

    #[test]
    fn fan_delivers_to_all() {
        let a = Rc::new(RefCell::new(CollectSink::new()));
        let b = Rc::new(RefCell::new(MetricsSink::new()));
        let mut fan = FanSink {
            sinks: vec![
                SharedSink::from_rc(a.clone()),
                SharedSink::from_rc(b.clone()),
            ],
        };
        fan.event(TraceEvent::QueryResolved {
            query: "Int".into(),
            steps: 3,
        });
        assert_eq!(a.borrow().events.len(), 1);
        assert_eq!(b.borrow().metrics.queries_resolved, 1);
    }

    #[test]
    fn metrics_record_and_merge() {
        let mut m = MetricsRegistry::new();
        m.record(&TraceEvent::QueryEnter {
            query: "Int".into(),
            depth: 3,
            measure: 1,
        });
        m.record(&TraceEvent::VmRun {
            fuel: 10,
            tail_calls: 4,
            fix_unfolds: 2,
            match_ic_hits: 3,
            match_ic_misses: 1,
        });
        m.record(&TraceEvent::IcHit {
            query: "Int".into(),
        });
        m.record(&TraceEvent::Fusion {
            scanned: 30,
            fused: 6,
        });
        m.record(&TraceEvent::JobStart {
            worker: 0,
            job: 7,
            stolen: true,
        });
        m.record(&TraceEvent::JobFinish {
            worker: 0,
            job: 7,
            ok: true,
        });
        let mut total = MetricsRegistry::new();
        total.merge(&m);
        total.merge(&m);
        assert_eq!(total.queries, 2);
        assert_eq!(total.max_query_depth, 3);
        assert_eq!(total.vm_fuel, 20);
        assert_eq!(total.vm_match_ic_hits, 6);
        assert_eq!(total.ic_hits, 2);
        assert_eq!(total.instrs_fused, 12);
        assert_eq!(total.steals, 2);
        assert_eq!(total.jobs, 2);
        let table = total.render_table();
        assert!(table.contains("queries"), "got: {table}");
        assert!(table.contains("vm fuel"), "got: {table}");
    }

    #[test]
    fn chrome_json_shape() {
        let rows = vec![
            (
                1,
                0,
                TraceEvent::PhaseStart {
                    phase: Phase::Typecheck,
                },
            ),
            (
                1,
                5,
                TraceEvent::QueryResolved {
                    query: "Int \"x\"".into(),
                    steps: 1,
                },
            ),
            (
                1,
                9,
                TraceEvent::PhaseEnd {
                    phase: Phase::Typecheck,
                },
            ),
        ];
        let json = chrome_trace_json(&rows);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"B\""), "got: {json}");
        assert!(json.contains("\"ph\":\"E\""), "got: {json}");
        assert!(json.contains("\"ph\":\"i\""), "got: {json}");
        assert!(json.contains("\\\"x\\\""), "escaping: {json}");
        assert!(json.contains("\"ts\":5"), "got: {json}");
    }
}
