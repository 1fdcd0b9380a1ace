//! The traced replay's span recorder.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each layer's public functions, plus the pipeline's existing
//! `PhaseStart`/`PhaseEnd` events, which [`ClockSink`] turns into
//! spans when installed with `Session::set_trace`. Spans stay in
//! memory and are written out once, at the end of the run.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use implicit_core::trace::{Phase, SharedSink, TraceEvent, TraceSink};
use implicit_pipeline::service::Json;

/// Name of the root span that brackets one end-to-end unit.
pub const UNIT: &str = "unit";

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer name (`core.parse`, `systemf.vm`, …) or [`UNIT`].
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The end-to-end unit (program, invocation, request) it belongs to.
    pub unit: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    unit: u64,
}

/// A shared handle on the span recorder. Off, every call is a no-op.
#[derive(Clone)]
pub struct Tracer(Rc<RefCell<Recorder>>);

impl Tracer {
    /// A recorder, initially off.
    pub fn new() -> Tracer {
        Tracer(Rc::new(RefCell::new(Recorder {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            unit: 0,
        })))
    }

    /// Switches recording on or off.
    pub fn set_on(&self, on: bool) {
        self.0.borrow_mut().on = on;
    }

    /// Opens a span; the returned token closes it.
    pub fn begin(&self, name: &'static str) -> Option<usize> {
        let mut r = self.0.borrow_mut();
        if !r.on {
            return None;
        }
        let now = r.origin.elapsed().as_nanos() as u64;
        let id = r.spans.len();
        let parent = r.open.last().copied();
        let unit = r.unit;
        r.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            unit,
        });
        r.open.push(id);
        Some(id)
    }

    /// Closes the span `begin` opened (and any it left open inside).
    pub fn end(&self, token: Option<usize>) {
        let Some(id) = token else { return };
        let mut r = self.0.borrow_mut();
        let now = r.origin.elapsed().as_nanos() as u64;
        while let Some(top) = r.open.pop() {
            r.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`. No borrow of the recorder
    /// is held while `f` runs, so `f` may record spans of its own.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let token = self.begin(name);
        let out = f();
        self.end(token);
        out
    }

    /// Runs `f` as end-to-end unit `unit`: every span recorded inside
    /// carries that id, under one root span named [`UNIT`].
    pub fn unit<T>(&self, unit: u64, f: impl FnOnce() -> T) -> T {
        self.0.borrow_mut().unit = unit;
        self.span(UNIT, f)
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.0.borrow().spans.clone()
    }

    /// A trace sink that turns pipeline phase events into spans.
    pub fn sink(&self) -> SharedSink {
        SharedSink::new(ClockSink {
            tracer: self.clone(),
            open: Vec::new(),
        })
    }
}

/// The layer a pipeline phase belongs to.
pub fn phase_layer(phase: Phase) -> &'static str {
    match phase {
        Phase::Parse => "core.parse",
        Phase::Typecheck => "core.typeck",
        Phase::Elaborate => "elab",
        Phase::Preservation => "systemf.typeck",
        Phase::Compile => "systemf.compile",
        Phase::Eval => "systemf.eval",
        Phase::Vm => "systemf.vm",
        Phase::Opsem => "opsem",
        Phase::Prelude => "pipeline.session.build",
    }
}

/// Clocks `PhaseStart`/`PhaseEnd` into spans; ignores everything else.
struct ClockSink {
    tracer: Tracer,
    open: Vec<Option<usize>>,
}

impl TraceSink for ClockSink {
    fn event(&mut self, ev: TraceEvent) {
        match ev {
            TraceEvent::PhaseStart { phase } => {
                self.open.push(self.tracer.begin(phase_layer(phase)))
            }
            TraceEvent::PhaseEnd { .. } => {
                if let Some(token) = self.open.pop() {
                    self.tracer.end(token);
                }
            }
            _ => {}
        }
    }
}

/// Each span's self time: its duration minus the part of it that its
/// children cover (children are clipped to the parent and merged, so
/// back-to-back and nested children are each counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut intervals: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| {
                    let c = &spans[k];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| a < b)
                .collect();
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in intervals {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Self and inclusive time summed per unit and layer, plus each
/// unit's total time.
pub struct LayerTimes {
    /// `unit → layer → self ns`.
    pub per_unit: BTreeMap<u64, BTreeMap<&'static str, u64>>,
    /// `unit → layer → inclusive ns`.
    pub inclusive: BTreeMap<u64, BTreeMap<&'static str, u64>>,
    /// `unit → root-span ns`.
    pub unit_ns: BTreeMap<u64, u64>,
}

fn median_over_units(m: &BTreeMap<u64, BTreeMap<&'static str, u64>>, layer: &str) -> f64 {
    let v: Vec<f64> = m
        .values()
        .filter_map(|by_layer| by_layer.get(layer).map(|&ns| ns as f64))
        .collect();
    crate::stats::median(&v)
}

impl LayerTimes {
    /// Folds recorded spans by unit and layer.
    pub fn from_spans(spans: &[Span]) -> LayerTimes {
        let selfs = self_times(spans);
        let mut per_unit: BTreeMap<u64, BTreeMap<&'static str, u64>> = BTreeMap::new();
        let mut inclusive: BTreeMap<u64, BTreeMap<&'static str, u64>> = BTreeMap::new();
        let mut unit_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for (s, own) in spans.iter().zip(selfs) {
            if s.name == UNIT && s.parent.is_none() {
                *unit_ns.entry(s.unit).or_default() += s.duration();
            }
            *per_unit
                .entry(s.unit)
                .or_default()
                .entry(s.name)
                .or_default() += own;
            *inclusive
                .entry(s.unit)
                .or_default()
                .entry(s.name)
                .or_default() += s.duration();
        }
        LayerTimes {
            per_unit,
            inclusive,
            unit_ns,
        }
    }

    /// Median over the units where `layer` ran of its per-unit self
    /// time, in nanoseconds (0 if it never ran).
    pub fn median_self_ns(&self, layer: &str) -> f64 {
        median_over_units(&self.per_unit, layer)
    }

    /// Median over the units where `layer` ran of its per-unit
    /// inclusive time (children included), in nanoseconds.
    pub fn median_inclusive_ns(&self, layer: &str) -> f64 {
        median_over_units(&self.inclusive, layer)
    }

    /// Total self time of `layer` across all units, in nanoseconds.
    pub fn total_self_ns(&self, layer: &str) -> u64 {
        self.per_unit.values().filter_map(|m| m.get(layer)).sum()
    }

    /// The share of unit time that some layer's self time accounts
    /// for — what is left is time spent between layer calls.
    pub fn coverage(&self) -> f64 {
        let total: u64 = self.unit_ns.values().sum();
        if total == 0 {
            return 0.0;
        }
        1.0 - self.total_self_ns(UNIT) as f64 / total as f64
    }
}

/// The trace file: one object per span.
pub fn trace_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::Str(s.name.to_owned())),
                    ("start_ns", Json::Int(s.start_ns as i64)),
                    ("end_ns", Json::Int(s.end_ns as i64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                    ),
                    ("unit", Json::Int(s.unit as i64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            unit: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_back_to_back_children() {
        let spans = vec![
            span(UNIT, 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 30, 60, Some(0)),  // back to back with `a`
            span("c", 35, 45, Some(2)),  // nested in `b`
            span("d", 90, 120, Some(0)), // overruns the parent: clipped
        ];
        assert_eq!(
            self_times(&spans),
            vec![100 - 20 - 30 - 10, 20, 30 - 10, 10, 30]
        );
        let layers = LayerTimes::from_spans(&spans);
        assert_eq!(layers.total_self_ns(UNIT), 40);
        assert!((layers.coverage() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span(UNIT, 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 40, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60);
    }

    #[test]
    fn recorder_nests_and_is_silent_when_off() {
        let t = Tracer::new();
        t.unit(1, || t.span("a", || ()));
        assert!(t.spans().is_empty());
        t.set_on(true);
        t.unit(7, || t.span("a", || t.span("b", || ())));
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.unit == 7 && s.start_ns <= s.end_ns));
    }

    #[test]
    fn clock_sink_balances_session_phase_spans() {
        use implicit_core::resolve::ResolutionPolicy;
        use implicit_core::syntax::Declarations;
        use implicit_pipeline::{Backend, Prelude, Session};

        let decls = Declarations::new();
        let prelude = Prelude::chain(3);
        let mut session = Session::new_configured_isa(
            &decls,
            ResolutionPolicy::paper(),
            &prelude,
            true,
            false,
            systemf::Isa::Register,
        )
        .unwrap();
        let t = Tracer::new();
        t.set_on(true);
        session.set_trace(Some(t.sink()));
        let out = t.unit(0, || {
            session
                .run_with_backend(&implicit_bench::batch_program(3, 4), Backend::Vm)
                .unwrap()
        });
        assert_eq!(out.value.to_string(), "7");
        let spans = t.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                UNIT,
                "elab",
                "systemf.typeck",
                "systemf.compile",
                "systemf.vm"
            ]
        );
        // Every phase closed, inside the unit, one after the other.
        for w in spans[1..].windows(2) {
            assert!(w[0].end_ns <= w[1].start_ns);
        }
        assert!(spans[1..].iter().all(|s| s.parent == Some(0)));
        assert!(spans[1..].iter().all(|s| s.end_ns <= spans[0].end_ns));
    }
}
