//! `implicitc` — a compiler driver for the implicit calculus.
//!
//! ```text
//! implicitc [OPTIONS] <FILE>
//! implicitc [OPTIONS] -e "<PROGRAM>"
//! implicitc [OPTIONS] --batch <DIR> [--jobs <M>]
//!
//! Options:
//!   --lang core|source     input language (default: by extension —
//!                          .imp/.lc = core λ⇒, .si = source; else core)
//!   --emit value|type|core|systemf|explain
//!                          what to print (default: value)
//!   --semantics elab|opsem|both
//!                          evaluation route (default: both, compared)
//!   --policy paper|most-specific|env-extension
//!   --backend tree|vm      how the elaborated System F term is
//!                          evaluated: the tree-walking evaluator
//!                          (default) or the closure-converted
//!                          register bytecode VM
//!   --strict               enable strict static checks (termination,
//!                          coherence)
//!   --batch <DIR>          compile every core program (*.imp, *.lc)
//!                          in DIR through one warm session per
//!                          worker; DIR/prelude.imp (optional) holds
//!                          shared declarations plus `let`/`implicit`
//!                          bindings wrapped around `unit`, compiled
//!                          once per worker instead of once per
//!                          program
//!   --jobs <M>             batch worker threads (default 1), fed by
//!                          a work-stealing deque
//!   --cache-dir <D>        persistent artifact store: sessions are
//!                          loaded from content-addressed prelude
//!                          snapshots in D when one matches (falling
//!                          back to an incremental rebuild on a
//!                          prelude edit, and a cold build otherwise)
//!                          and saved back only when a run changed
//!                          what the snapshot keeps. In
//!                          single-program mode the program's leading
//!                          `let`/`implicit` wrappers form the cached
//!                          prelude; in batch mode it is
//!                          DIR/prelude.imp, and D also maps each
//!                          prelude text it has seen to its snapshot,
//!                          so an unchanged prelude.imp loads without
//!                          being parsed. Requires --emit value.
//!   --trace <FILE>         write a Chrome trace-event JSON file
//!                          (open in about:tracing or Perfetto):
//!                          phase spans, per-query resolution events,
//!                          cache/memo traffic, VM counters, and — in
//!                          batch mode — per-worker job lanes
//!   --metrics              print the unified metrics table (queries,
//!                          candidates, cache/memo hit rates, fuel)
//!                          after the result
//!   --vm-stats             print VM execution statistics after the
//!                          result: the per-opcode dispatch histogram,
//!                          register-count/frame-width stats, and the
//!                          compiler's fusion totals (instructions
//!                          scanned, fusion rate, emitted
//!                          superinstructions by mnemonic); requires
//!                          --backend vm
//!   --xcheck               cross-check every query site with the
//!                          intersection-subtyping resolver (the
//!                          conformance harness's fifth leg): the
//!                          logic and subtyping engines must produce
//!                          identical evidence or identical failures
//! ```
//!
//! Exit status 0 on success, 1 on any error (reported to stderr).
//! Once every output is written the process exits at once: it does
//! not drop the sessions it built or wait for its worker threads to
//! finish exiting.

use std::cell::RefCell;
use std::io::Write;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;

use implicit_core::resolve::ResolutionPolicy;
use implicit_core::syntax::{Declarations, Expr};
use implicit_core::trace::{
    chrome_trace_json, ChromeRow, ChromeSink, FanSink, MetricsRegistry, MetricsSink, Phase,
    SharedSink, TraceEvent, TraceSink,
};
use implicit_core::typeck::Typechecker;
use implicit_pipeline::Backend;

struct Options {
    lang: Lang,
    emit: Emit,
    semantics: Semantics,
    policy: ResolutionPolicy,
    backend: Backend,
    strict: bool,
    input: Option<Input>,
    batch: Option<String>,
    connect: Option<String>,
    cache_dir: Option<String>,
    jobs: usize,
    trace: Option<String>,
    metrics: bool,
    vm_stats: bool,
    xcheck: bool,
}

#[derive(PartialEq, Clone, Copy)]
enum Lang {
    Core,
    Source,
    Auto,
}

#[derive(PartialEq, Clone, Copy)]
enum Emit {
    Value,
    Type,
    Core,
    SystemF,
    Explain,
}

#[derive(PartialEq, Clone, Copy)]
enum Semantics {
    Elab,
    Opsem,
    Both,
}

enum Input {
    File(String),
    Inline(String),
}

fn usage() -> String {
    "usage: implicitc [--lang core|source] [--emit value|type|core|systemf|explain] \
     [--semantics elab|opsem|both] [--policy paper|most-specific|env-extension] \
     [--backend tree|vm] [--strict] [--trace <file.json>] [--metrics] [--vm-stats] \
     [--xcheck] [--cache-dir <d>] [--connect <host:port>] \
     (<file> | -e <program> | --batch <dir> [--jobs <m>])"
        .to_owned()
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        lang: Lang::Auto,
        emit: Emit::Value,
        semantics: Semantics::Both,
        policy: ResolutionPolicy::paper(),
        backend: Backend::Tree,
        strict: false,
        input: None,
        batch: None,
        connect: None,
        cache_dir: None,
        jobs: 1,
        trace: None,
        metrics: false,
        vm_stats: false,
        xcheck: false,
    };
    let mut input: Option<Input> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--lang" => {
                opts.lang = match it.next().map(String::as_str) {
                    Some("core") => Lang::Core,
                    Some("source") => Lang::Source,
                    other => return Err(format!("--lang: expected core|source, got {other:?}")),
                }
            }
            "--emit" => {
                opts.emit = match it.next().map(String::as_str) {
                    Some("value") => Emit::Value,
                    Some("type") => Emit::Type,
                    Some("core") => Emit::Core,
                    Some("systemf") => Emit::SystemF,
                    Some("explain") => Emit::Explain,
                    other => {
                        return Err(format!(
                            "--emit: expected value|type|core|systemf|explain, got {other:?}"
                        ))
                    }
                }
            }
            "--semantics" => {
                opts.semantics = match it.next().map(String::as_str) {
                    Some("elab") => Semantics::Elab,
                    Some("opsem") => Semantics::Opsem,
                    Some("both") => Semantics::Both,
                    other => {
                        return Err(format!(
                            "--semantics: expected elab|opsem|both, got {other:?}"
                        ))
                    }
                }
            }
            "--policy" => {
                opts.policy = match it.next().map(String::as_str) {
                    Some("paper") => ResolutionPolicy::paper(),
                    Some("most-specific") => ResolutionPolicy::paper().with_most_specific(),
                    Some("env-extension") => ResolutionPolicy::paper().with_env_extension(),
                    other => {
                        return Err(format!(
                            "--policy: expected paper|most-specific|env-extension, got {other:?}"
                        ))
                    }
                }
            }
            "--backend" => {
                opts.backend = match it.next().map(String::as_str).and_then(Backend::parse) {
                    Some(b) => b,
                    None => return Err("--backend: expected tree|vm".to_owned()),
                }
            }
            "--strict" => opts.strict = true,
            "--batch" => {
                let dir = it
                    .next()
                    .ok_or_else(|| "--batch needs a directory argument".to_owned())?;
                opts.batch = Some(dir.clone());
            }
            "--connect" => {
                let addr = it
                    .next()
                    .ok_or_else(|| "--connect needs a host:port argument".to_owned())?;
                opts.connect = Some(addr.clone());
            }
            "--cache-dir" => {
                let dir = it
                    .next()
                    .ok_or_else(|| "--cache-dir needs a directory argument".to_owned())?;
                opts.cache_dir = Some(dir.clone());
            }
            "--jobs" => {
                let arg = it
                    .next()
                    .ok_or_else(|| "--jobs needs a thread count".to_owned())?;
                opts.jobs = match arg.parse::<usize>() {
                    Ok(m) if m >= 1 => m,
                    _ => return Err(format!("--jobs: expected a count ≥ 1, got `{arg}`")),
                }
            }
            "--trace" => {
                let path = it
                    .next()
                    .ok_or_else(|| "--trace needs an output file argument".to_owned())?;
                opts.trace = Some(path.clone());
            }
            "--metrics" => opts.metrics = true,
            "--vm-stats" => opts.vm_stats = true,
            "--xcheck" => opts.xcheck = true,
            "-e" => {
                let prog = it
                    .next()
                    .ok_or_else(|| "-e needs a program argument".to_owned())?;
                input = Some(Input::Inline(prog.clone()));
            }
            "--help" | "-h" => return Err(usage()),
            other if !other.starts_with('-') => input = Some(Input::File(other.to_owned())),
            other => return Err(format!("unknown option `{other}`\n{}", usage())),
        }
    }
    if opts.batch.is_some() {
        if input.is_some() {
            return Err("--batch takes its programs from the directory; \
                 drop the <file> / -e argument"
                .to_owned());
        }
        if opts.emit != Emit::Value {
            return Err("--batch only supports --emit value".to_owned());
        }
        if opts.lang == Lang::Source {
            return Err("--batch compiles core programs (*.imp, *.lc) only".to_owned());
        }
    } else {
        opts.input = Some(input.ok_or_else(usage)?);
    }
    if opts.vm_stats && opts.backend != Backend::Vm {
        return Err("--vm-stats requires --backend vm".to_owned());
    }
    if opts.xcheck && opts.batch.is_some() {
        return Err("--xcheck verifies a single program; drop --batch".to_owned());
    }
    if opts.cache_dir.is_some() && opts.emit != Emit::Value {
        return Err("--cache-dir caches evaluation sessions; it requires --emit value".to_owned());
    }
    if opts.connect.is_some() {
        if opts.emit != Emit::Value && opts.emit != Emit::Type {
            return Err("--connect supports --emit value|type only".to_owned());
        }
        if opts.lang == Lang::Source {
            return Err("--connect speaks core programs only".to_owned());
        }
        if opts.cache_dir.is_some() {
            return Err(
                "--connect: the artifact store lives daemon-side; drop --cache-dir".to_owned(),
            );
        }
        if opts.xcheck || opts.vm_stats || opts.trace.is_some() {
            return Err("--connect is a thin client; drop --xcheck/--vm-stats/--trace".to_owned());
        }
    }
    Ok(opts)
}

/// Everything `--vm-stats` prints, collected from whichever mode ran
/// (one compiler + VM in single-program mode; merged across warm
/// worker sessions in batch mode).
struct VmReport {
    fusion: systemf::compile::FusionStats,
    /// Per-opcode dispatch counts, sorted descending.
    histogram: Vec<(&'static str, u64)>,
    /// Registers per compiled function frame.
    frame_widths: Vec<u16>,
}

/// Prints the `--vm-stats` report: the per-opcode dispatch histogram,
/// register-count/frame-width stats, and the compiler's cumulative
/// fusion totals with the emitted superinstruction mix.
fn print_vm_stats(report: &VmReport) {
    println!("vm stats:");
    let dispatched: u64 = report.histogram.iter().map(|(_, n)| n).sum();
    println!("  instrs dispatched: {dispatched}");
    println!("  dispatch histogram:");
    for (mnemonic, n) in &report.histogram {
        let pct = 100.0 * *n as f64 / dispatched.max(1) as f64;
        println!("    {mnemonic:<32} {n:>10} ({pct:.1}%)");
    }
    let widths = &report.frame_widths;
    let widest = widths.iter().copied().max().unwrap_or(0);
    let total: u64 = widths.iter().map(|w| u64::from(*w)).sum();
    let mean = total as f64 / widths.len().max(1) as f64;
    println!(
        "  frames: {} functions, {mean:.1} registers/frame mean, {widest} widest",
        widths.len()
    );
    let fs = &report.fusion;
    println!("  instrs scanned: {}", fs.instrs_scanned);
    let pct = if fs.instrs_scanned == 0 {
        0.0
    } else {
        100.0 * fs.fused as f64 / fs.instrs_scanned as f64
    };
    println!("  instrs fused away: {} ({pct:.1}%)", fs.fused);
    let mut kinds: Vec<(&str, u64)> = fs.fused_by_kind.iter().map(|(k, v)| (*k, *v)).collect();
    kinds.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    println!("  superinstructions emitted:");
    for (kind, n) in kinds {
        println!("    {kind:<32} {n}");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match (&opts.connect, &opts.batch) {
        (Some(addr), _) => run_connect_mode(&opts, addr),
        (None, Some(dir)) => run_batch_mode(&opts, dir),
        (None, None) => run(&opts),
    };
    exit_now(outcome)
}

/// Ends the process once every output line, trace file and store
/// write is complete: reports `outcome`, flushes stdout and stderr and
/// exits, without tearing down what the run built — the operating
/// system reclaims it faster than dropping it would.
fn exit_now(outcome: Result<(), String>) -> ! {
    let code = match outcome {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("implicitc: {e}");
            1
        }
    };
    let _ = std::io::stdout().flush();
    let _ = std::io::stderr().flush();
    std::process::exit(code)
}

/// Observability plumbing for single-program mode: an always-present
/// metrics accumulator plus an optional Chrome-trace recorder, fanned
/// into one shared sink that every pipeline stage writes through. The
/// sink is `None` (and every `emit` a no-op) unless `--trace` or
/// `--metrics` was given.
struct Tracer {
    sink: Option<SharedSink>,
    chrome: Option<Rc<RefCell<ChromeSink>>>,
    metrics: Rc<RefCell<MetricsSink>>,
}

impl Tracer {
    fn new(opts: &Options) -> Tracer {
        let metrics = Rc::new(RefCell::new(MetricsSink::new()));
        if opts.trace.is_none() && !opts.metrics {
            return Tracer {
                sink: None,
                chrome: None,
                metrics,
            };
        }
        let mut sinks = vec![SharedSink::from_rc(metrics.clone())];
        let chrome = opts
            .trace
            .as_ref()
            .map(|_| Rc::new(RefCell::new(ChromeSink::new())));
        if let Some(c) = &chrome {
            sinks.push(SharedSink::from_rc(c.clone()));
        }
        Tracer {
            sink: Some(SharedSink::new(FanSink { sinks })),
            chrome,
            metrics,
        }
    }

    fn emit(&self, ev: TraceEvent) {
        if let Some(sink) = &self.sink {
            let mut sink = sink.clone();
            sink.event(ev);
        }
    }

    /// Brackets `f` in a `PhaseStart`/`PhaseEnd` pair (balanced even
    /// when `f`'s result is an error the caller then propagates).
    fn span<T>(&self, phase: Phase, f: impl FnOnce() -> T) -> T {
        self.emit(TraceEvent::PhaseStart { phase });
        let out = f();
        self.emit(TraceEvent::PhaseEnd { phase });
        out
    }

    /// Writes the Chrome trace and/or prints the metrics table, as
    /// requested on the command line.
    fn finish(&self, opts: &Options) -> Result<(), String> {
        if let Some(path) = &opts.trace {
            let chrome = self.chrome.as_ref().expect("--trace allocates a recorder");
            let rows = std::mem::replace(&mut *chrome.borrow_mut(), ChromeSink::new()).into_rows();
            std::fs::write(path, chrome_trace_json(&rows))
                .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        }
        if opts.metrics {
            print!("{}", self.metrics.borrow().metrics.render_table());
        }
        Ok(())
    }
}

fn run(opts: &Options) -> Result<(), String> {
    let input = opts.input.as_ref().expect("single-program mode has input");
    let (src, lang) = match input {
        Input::File(path) => {
            let src =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            let lang = match opts.lang {
                Lang::Auto if path.ends_with(".si") => Lang::Source,
                Lang::Auto => Lang::Core,
                other => other,
            };
            (src, lang)
        }
        Input::Inline(src) => {
            let lang = if opts.lang == Lang::Auto {
                Lang::Core
            } else {
                opts.lang
            };
            (src.clone(), lang)
        }
    };

    let tracer = Tracer::new(opts);

    // Front end: obtain declarations and a core expression.
    let (decls, core): (Declarations, Expr) = tracer.span(Phase::Parse, || match lang {
        // Checked once, below, under `--policy` and `--strict`.
        Lang::Source => implicit_source::translate(&src).map_err(|e| e.to_string()),
        _ => implicit_core::parse::parse_program(&src).map_err(|e| e.to_string()),
    })?;

    // Type checking (with the chosen policy and strictness).
    let checker = Typechecker::with_policy(&decls, opts.policy.clone());
    let checker = if opts.strict {
        checker.strict()
    } else {
        checker
    };
    let checker = match &tracer.sink {
        Some(sink) => checker.with_trace(sink.clone()),
        None => checker,
    };
    let ty = tracer.span(Phase::Typecheck, || {
        checker.check_closed(&core).map_err(|e| e.to_string())
    })?;

    // --xcheck: decide every query site with both the logic resolver
    // and the intersection-subtyping resolver (the conformance
    // harness's fifth leg) and demand identical evidence/failures.
    if opts.xcheck {
        let policy = opts.policy.clone().with_max_depth(4096);
        let mut sites = 0usize;
        let mut mismatch: Option<String> = None;
        implicit_core::subtyping::walk_query_sites(&core, &mut |env, query| {
            sites += 1;
            if mismatch.is_none() {
                if let Err(detail) = implicit_core::subtyping::cross_check(env, query, &policy) {
                    mismatch = Some(format!("query `{query}`: {detail}"));
                }
            }
        });
        if let Some(detail) = mismatch {
            return Err(format!("xcheck: engines disagree — {detail}"));
        }
        eprintln!("xcheck: {sites} query site(s), logic ≡ subtyping");
    }

    match opts.emit {
        Emit::Type => {
            println!("{ty}");
            return tracer.finish(opts);
        }
        Emit::Core => {
            println!("{core}");
            return tracer.finish(opts);
        }
        Emit::Explain => {
            explain_queries(&core, &opts.policy);
            return tracer.finish(opts);
        }
        Emit::SystemF => {
            let (_, fe) = implicit_elab::elaborate(&decls, &core).map_err(|e| e.to_string())?;
            println!("{fe}");
            return tracer.finish(opts);
        }
        Emit::Value => {}
    }

    // --cache-dir: run through a session loaded-or-built from the
    // persistent artifact store instead of the one-shot pipeline.
    if let Some(dir) = &opts.cache_dir {
        return run_single_cached(opts, dir, &decls, &core, &ty.to_string(), &tracer);
    }

    let mut vm_report: Option<VmReport> = None;
    let elab_value = if opts.semantics != Semantics::Opsem {
        let mut elab = implicit_elab::Elaborator::with_policy(&decls, opts.policy.clone());
        if let Some(sink) = &tracer.sink {
            elab.set_trace(Some(sink.clone()));
        }
        let (_, target) = tracer.span(Phase::Elaborate, || {
            elab.elaborate(&core).map_err(|e| e.to_string())
        })?;
        let fdecls = implicit_elab::translate_decls(&decls);
        tracer
            .span(Phase::Preservation, || systemf::typecheck(&fdecls, &target))
            .map_err(|e| format!("type preservation violated: {e}"))?;
        let v = match opts.backend {
            Backend::Tree => {
                let mut ev = systemf::Evaluator::new();
                tracer
                    .span(Phase::Eval, || {
                        let value = ev.eval(&target);
                        tracer.emit(TraceEvent::TreeEval {
                            fuel: ev.fuel_used(),
                        });
                        value
                    })
                    .map_err(|e| e.to_string())?
                    .to_string()
            }
            // The VM evaluates instead of (not after) the
            // tree-walker, so deep recursion never touches the host
            // stack; preservation is still checked before erasure.
            Backend::Vm => {
                let mut compiler = systemf::Compiler::new();
                let main = tracer
                    .span(Phase::Compile, || compiler.compile(&target))
                    .map_err(|e| format!("vm: {e}"))?;
                let mut vm = systemf::Vm::new();
                vm.set_profile(opts.vm_stats);
                let v = tracer
                    .span(Phase::Vm, || {
                        let value = vm.run(compiler.code(), main, &[]);
                        let stats = vm.stats();
                        tracer.emit(TraceEvent::VmRun {
                            fuel: stats.fuel_used,
                            tail_calls: stats.tail_calls,
                            fix_unfolds: stats.fix_unfolds,
                            match_ic_hits: stats.match_ic_hits,
                            match_ic_misses: stats.match_ic_misses,
                        });
                        value
                    })
                    .map_err(|e| format!("vm: {e}"))?
                    .to_string();
                if opts.vm_stats {
                    vm_report = Some(VmReport {
                        fusion: compiler.fusion_stats().clone(),
                        histogram: vm.dispatch_histogram(),
                        frame_widths: compiler.code().funcs.iter().map(|f| f.nslots).collect(),
                    });
                }
                v
            }
        };
        Some(v)
    } else {
        None
    };
    let opsem_value = if opts.semantics != Semantics::Elab {
        let mut interp = implicit_opsem::Interpreter::new(&decls).with_policy(opts.policy.clone());
        if let Some(sink) = &tracer.sink {
            interp.set_trace(Some(sink.clone()));
        }
        Some(
            tracer
                .span(Phase::Opsem, || interp.eval(&core))
                .map_err(|e| e.to_string())?
                .to_string(),
        )
    } else {
        None
    };
    match (elab_value, opsem_value) {
        (Some(a), Some(b)) => {
            if a != b {
                return Err(format!("semantics disagree: elaboration {a} vs opsem {b}"));
            }
            println!("{a} : {ty}");
        }
        (Some(a), None) | (None, Some(a)) => println!("{a} : {ty}"),
        (None, None) => unreachable!("one semantics is always selected"),
    }
    if let Some(report) = &vm_report {
        print_vm_stats(report);
    }
    tracer.finish(opts)
}

/// Peels the program's leading `let`/`implicit` wrappers into a
/// cacheable [`implicit_pipeline::Prelude`] (lets first, then
/// single-binding implicits — the session convention) and returns the
/// residual body. Splitting stops at the first non-wrapper node, so
/// any program splits; a program with no wrappers yields the empty
/// prelude, whose artifact is trivial but still valid.
fn split_prelude(e: &Expr) -> (implicit_pipeline::Prelude, Expr) {
    let mut prelude = implicit_pipeline::Prelude::new();
    let mut cur = e;
    while let Expr::App(f, bound) = cur {
        match &**f {
            Expr::Lam(x, ty, body) => {
                prelude.lets.push((*x, ty.clone(), (**bound).clone()));
                cur = body;
            }
            _ => break,
        }
    }
    loop {
        match cur {
            Expr::RuleApp(f, args) if args.len() == 1 => match &**f {
                Expr::RuleAbs(_, body) => {
                    let (a, r) = &args[0];
                    prelude.implicits.push((a.clone(), r.clone()));
                    cur = body;
                }
                _ => break,
            },
            _ => break,
        }
    }
    (prelude, cur.clone())
}

/// One human-readable line describing how the store satisfied a load.
fn outcome_line(outcome: &implicit_pipeline::artifact::LoadOutcome) -> String {
    use implicit_pipeline::artifact::LoadOutcome;
    match outcome {
        LoadOutcome::Exact => "exact artifact hit (no phase re-ran)".to_owned(),
        LoadOutcome::Incremental(s) => format!(
            "incremental rebuild ({}/{} bindings reused, {} cache entries retained)",
            s.bindings_reused, s.bindings_total, s.cache_entries_retained
        ),
        LoadOutcome::Cold => "cold build (artifact saved)".to_owned(),
    }
}

/// Single-program `--cache-dir` mode: the program's leading wrappers
/// become the session prelude, loaded-or-built through the artifact
/// store ([`implicit_pipeline::artifact::load_or_build`] — exact hit,
/// incremental rebuild on a prelude edit, or cold build); the
/// residual body then runs through the session under the chosen
/// `--semantics` and `--backend`.
fn run_single_cached(
    opts: &Options,
    dir: &str,
    decls: &Declarations,
    core: &Expr,
    ty: &str,
    tracer: &Tracer,
) -> Result<(), String> {
    let (prelude, body) = split_prelude(core);
    let store = implicit_pipeline::artifact::ArtifactStore::new(dir)
        .map_err(|e| format!("--cache-dir `{dir}`: {e}"))?;
    let (mut session, outcome) = implicit_pipeline::artifact::load_or_build(
        &store,
        decls,
        &opts.policy,
        &prelude,
        true,
        false,
    )
    .map_err(|e| e.to_string())?;
    eprintln!(
        "cache: {} ({} lets, {} implicits)",
        outcome_line(&outcome),
        prelude.lets.len(),
        prelude.implicits.len()
    );
    if let Some(sink) = &tracer.sink {
        session.set_trace(Some(sink.clone()));
    }
    session.set_profile_dispatch(opts.vm_stats);
    let elab_value = if opts.semantics != Semantics::Opsem {
        Some(
            session
                .run_with_backend(&body, opts.backend)
                .map_err(|e| e.to_string())?
                .value
                .to_string(),
        )
    } else {
        None
    };
    let opsem_value = if opts.semantics != Semantics::Elab {
        Some(
            session
                .run_opsem(&body)
                .map_err(|e| e.to_string())?
                .to_string(),
        )
    } else {
        None
    };
    match (elab_value, opsem_value) {
        (Some(a), Some(b)) => {
            if a != b {
                return Err(format!("semantics disagree: elaboration {a} vs opsem {b}"));
            }
            println!("{a} : {ty}");
        }
        (Some(a), None) | (None, Some(a)) => println!("{a} : {ty}"),
        (None, None) => unreachable!("one semantics is always selected"),
    }
    if opts.vm_stats {
        let mut histogram = session.dispatch_histogram();
        histogram.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        print_vm_stats(&VmReport {
            fusion: session.fusion_stats().clone(),
            histogram,
            frame_widths: session.frame_widths(),
        });
    }
    session.set_trace(None);
    // Best-effort: writes only if running the body taught the
    // session something its artifact keeps.
    let _ = session.persist(&store);
    // The process ends next (`exit_now`): leave the session undropped.
    std::mem::forget(session);
    tracer.finish(opts)
}

/// Parses a batch prelude source into the session prelude
/// ([`implicit_pipeline::Prelude::from_wrapped`] convention:
/// `let`/`implicit` wrappers around `unit`).
fn parse_batch_prelude(src: &str) -> Result<implicit_pipeline::Prelude, String> {
    let (_, expr) =
        implicit_core::parse::parse_program(src).map_err(|e| format!("prelude: {e}"))?;
    implicit_pipeline::Prelude::from_wrapped(&expr)
}

/// Runs one batch program against a worker's warm session, honoring
/// `--semantics`. Returns the printable result line body.
fn run_batch_program(
    session: &mut implicit_pipeline::Session<'_>,
    semantics: Semantics,
    backend: Backend,
    src: &str,
) -> Result<String, String> {
    let (pdecls, expr) = implicit_core::parse::parse_program(src).map_err(|e| e.to_string())?;
    if !pdecls.is_empty() {
        return Err(
            "batch programs must not declare types; declare them in prelude.imp".to_owned(),
        );
    }
    let elab = if semantics != Semantics::Opsem {
        Some(
            session
                .run_with_backend(&expr, backend)
                .map_err(|e| e.to_string())?,
        )
    } else {
        None
    };
    let opsem = if semantics != Semantics::Elab {
        Some(
            session
                .run_opsem(&expr)
                .map_err(|e| e.to_string())?
                .to_string(),
        )
    } else {
        None
    };
    match (elab, opsem) {
        (Some(o), Some(v)) => {
            let ev = o.value.to_string();
            if ev != v {
                return Err(format!("semantics disagree: elaboration {ev} vs opsem {v}"));
            }
            Ok(format!("{ev} : {}", o.source_type))
        }
        (Some(o), None) => Ok(format!("{} : {}", o.value, o.source_type)),
        (None, Some(v)) => Ok(v),
        (None, None) => unreachable!("one semantics is always selected"),
    }
}

/// A scanned batch directory: `(name, source)` programs in name
/// order, plus the shared prelude source if present.
type BatchScan = (Vec<(String, String)>, Option<String>);

/// Scans a batch directory: core programs (`*.imp`, `*.lc`) in name
/// order, plus the shared `prelude.imp`/`prelude.lc` source if
/// present.
fn scan_batch_dir(dir: &str) -> Result<BatchScan, String> {
    let mut programs: Vec<(String, String)> = Vec::new();
    let mut prelude_src: Option<String> = None;
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read directory `{dir}`: {e}"))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = match path.file_name().and_then(|n| n.to_str()) {
            Some(n) => n.to_owned(),
            None => continue,
        };
        let is_core = name.ends_with(".imp") || name.ends_with(".lc");
        if !is_core {
            continue;
        }
        let src = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
        if name == "prelude.imp" || name == "prelude.lc" {
            prelude_src = Some(src);
        } else {
            programs.push((name, src));
        }
    }
    if programs.is_empty() {
        return Err(format!("no core programs (*.imp, *.lc) in `{dir}`"));
    }
    programs.sort_by(|a, b| a.0.cmp(&b.0));
    Ok((programs, prelude_src))
}

/// `--connect` mode: run as a thin client of a resident `implicitd`
/// (DESIGN.md §S32) — programs are shipped as source over the framed
/// JSON protocol and evaluated in a daemon-side warm tenant, so the
/// client process does no compilation at all. Batch directories open
/// one shared tenant for their `prelude.imp`; `--jobs` fans requests
/// out over that many concurrent connections.
fn run_connect_mode(opts: &Options, addr: &str) -> Result<(), String> {
    use implicit_pipeline::service::Client;
    let connect = || Client::connect(addr).map_err(|e| format!("--connect `{addr}`: {e}"));
    match &opts.batch {
        None => {
            let input = opts.input.as_ref().expect("single-program mode has input");
            let src = match input {
                Input::File(path) => std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read `{path}`: {e}"))?,
                Input::Inline(src) => src.clone(),
            };
            // Split out declarations locally: the daemon tenant takes
            // them (with an empty binding prelude) at `open`, and the
            // request ships only the expression.
            let (decls, expr) =
                implicit_core::parse::parse_program(&src).map_err(|e| e.to_string())?;
            if !decls.is_empty() {
                return Err(
                    "--connect programs must not declare types; put declarations in a \
                     batch prelude.imp"
                        .to_owned(),
                );
            }
            let tenant = format!("cli-{}", std::process::id());
            let mut c = connect()?;
            c.open_prelude(
                &tenant,
                &implicit_pipeline::service::prelude_source(&implicit_pipeline::Prelude::new()),
                opts.backend,
            )?;
            let program = expr.to_string();
            let out = match opts.emit {
                Emit::Type => c.typecheck(&tenant, &program),
                _ => c.eval(&tenant, &program).map(|(v, t)| format!("{v} : {t}")),
            };
            let closed = c.close(&tenant);
            let line = out?;
            closed?;
            println!("{line}");
            Ok(())
        }
        Some(dir) => {
            let (programs, prelude_src) = scan_batch_dir(dir)?;
            let tenant = format!("batch-{}", std::process::id());
            let prelude_src = prelude_src.unwrap_or_else(|| {
                implicit_pipeline::service::prelude_source(&implicit_pipeline::Prelude::new())
            });
            let mut c = connect()?;
            let load = c.open_prelude(&tenant, &prelude_src, opts.backend)?;
            println!("daemon: {addr} tenant {tenant} ({load} load)");

            let total = programs.len();
            let jobs = opts.jobs.min(total.max(1));
            let next = std::sync::atomic::AtomicUsize::new(0);
            let programs = &programs;
            let next = &next;
            let tenant = &tenant;
            // Per worker: (program index, name, outcome line).
            type WorkerResults = Vec<(usize, String, Result<String, String>)>;
            let results: Vec<WorkerResults> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..jobs)
                    .map(|_| {
                        s.spawn(move || {
                            let mut out = Vec::new();
                            let mut client = match connect() {
                                Ok(c) => c,
                                Err(e) => {
                                    // Report the failure on every
                                    // program this worker would
                                    // have pulled.
                                    loop {
                                        let ix =
                                            next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                        if ix >= programs.len() {
                                            return out;
                                        }
                                        out.push((ix, programs[ix].0.clone(), Err(e.clone())));
                                    }
                                }
                            };
                            loop {
                                let ix = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                if ix >= programs.len() {
                                    return out;
                                }
                                let (name, src) = &programs[ix];
                                let r = client.eval(tenant, src).map(|(v, t)| format!("{v} : {t}"));
                                out.push((ix, name.clone(), r));
                            }
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let mut lines: Vec<Option<(String, Result<String, String>)>> =
                (0..total).map(|_| None).collect();
            for worker in results {
                for (ix, name, r) in worker {
                    lines[ix] = Some((name, r));
                }
            }
            let mut failures = 0usize;
            for slot in lines {
                let (name, r) = slot.expect("every program ran exactly once");
                match r {
                    Ok(line) => println!("{name}: {line}"),
                    Err(e) => {
                        failures += 1;
                        println!("{name}: error: {e}");
                    }
                }
            }
            println!("batch: {total} programs, {failures} failed (jobs={jobs})");
            c.close(tenant)?;
            if failures > 0 {
                return Err(format!("{failures} of {total} programs failed"));
            }
            Ok(())
        }
    }
}

/// `--batch` mode: compiles every core program in the directory
/// through warm sessions — one [`implicit_pipeline::Session`] per
/// worker thread, fed from a work-stealing deque — and prints one
/// result line per program in file order.
fn run_batch_mode(opts: &Options, dir: &str) -> Result<(), String> {
    let (programs, prelude_src) = scan_batch_dir(dir)?;

    // The artifact store fails once here, not per worker. The prelude
    // is parsed and built by each worker (declarations and session
    // values are `Rc`-based and cannot cross threads); a worker that
    // cannot build it returns the error, reported once below.
    if let Some(d) = &opts.cache_dir {
        implicit_pipeline::artifact::ArtifactStore::new(d)
            .map_err(|e| format!("--cache-dir `{d}`: {e}"))?;
    }

    let total = programs.len();
    let semantics = opts.semantics;
    let backend = opts.backend;
    let policy = &opts.policy;
    let prelude_src = prelude_src.as_deref();
    let tracing = opts.trace.is_some();
    let observe = tracing || opts.metrics;
    // One wall clock shared by every worker's Chrome recorder, so the
    // per-worker lanes line up on a common time axis.
    let clock = Instant::now();
    let vm_stats = opts.vm_stats;
    let cache_dir = opts.cache_dir.as_deref();
    let work = |worker: usize, source: &mut implicit_pipeline::JobSource<'_, (String, String)>| {
        let store = cache_dir.map(|d| {
            implicit_pipeline::artifact::ArtifactStore::new(d)
                .expect("cache dir validated before dispatch")
        });
        // The declarations come from the prelude's header; with a
        // store, the rest is parsed only if the store has not seen
        // these bytes.
        let decls = match prelude_src {
            Some(src) => implicit_core::parse::parse_declarations(src)
                .map_err(|e| format!("prelude: {e}"))?,
            None => Declarations::new(),
        };
        let prelude =
            || prelude_src.map_or(Ok(implicit_pipeline::Prelude::new()), parse_batch_prelude);
        let (mut session, load) = match &store {
            // Warm-start workers from the on-disk artifact store: the
            // first worker to arrive builds and saves, the rest (and
            // every later process) rehydrate without re-running any
            // phase.
            Some(store) => {
                use implicit_pipeline::artifact::{
                    load_or_build, load_or_build_source, LoadOutcome, SourceLoadError,
                };
                let (session, outcome) = match prelude_src {
                    Some(src) => {
                        load_or_build_source(store, &decls, policy, src, true, false, prelude)
                            .map_err(|e| match e {
                                SourceLoadError::Parse(e) => e,
                                SourceLoadError::Build(e) => format!("prelude: {e}"),
                            })?
                    }
                    None => load_or_build(store, &decls, policy, &prelude()?, true, false)
                        .map_err(|e| format!("prelude: {e}"))?,
                };
                let label = match outcome {
                    LoadOutcome::Exact => "exact",
                    LoadOutcome::Incremental(_) => "incremental",
                    LoadOutcome::Cold => "cold",
                };
                (session, Some(label))
            }
            None => (
                implicit_pipeline::Session::new(&decls, policy.clone(), &prelude()?)
                    .map_err(|e| format!("prelude: {e}"))?,
                None,
            ),
        };
        session.set_profile_dispatch(vm_stats);
        let chrome =
            tracing.then(|| Rc::new(RefCell::new(ChromeSink::with_clock(clock, worker as u64))));
        if let Some(c) = &chrome {
            session.set_trace(Some(SharedSink::from_rc(c.clone())));
        } else if observe {
            // Metrics only: any enabled sink switches resolution-grain
            // counting on; the session keeps the counts itself.
            session.set_trace(Some(SharedSink::new(MetricsSink::new())));
        }
        let mut jobreg = MetricsRegistry::new();
        let mut out: Vec<(usize, String, Result<String, String>)> = Vec::new();
        let mut steals_seen = 0usize;
        while let Some((ix, (name, src))) = source.next() {
            let stolen = source.steals > steals_seen;
            steals_seen = source.steals;
            if observe {
                let ev = TraceEvent::JobStart {
                    worker,
                    job: ix,
                    stolen,
                };
                jobreg.record(&ev);
                if let Some(c) = &chrome {
                    c.borrow_mut().event(ev);
                }
            }
            let r = run_batch_program(&mut session, semantics, backend, &src);
            if observe {
                let ev = TraceEvent::JobFinish {
                    worker,
                    job: ix,
                    ok: r.is_ok(),
                };
                jobreg.record(&ev);
                if let Some(c) = &chrome {
                    c.borrow_mut().event(ev);
                }
            }
            out.push((ix, name, r));
        }
        session.set_trace(None);
        let mut registry = session.metrics();
        registry.merge(&jobreg);
        let rows: Vec<ChromeRow> = chrome
            .map(|c| std::mem::replace(&mut *c.borrow_mut(), ChromeSink::new()).into_rows())
            .unwrap_or_default();
        let fusion = session.fusion_stats().clone();
        let histogram = session.dispatch_histogram();
        let widths = session.frame_widths();
        // Write the drained worker's state back to the shared store
        // if this batch taught it something the artifact keeps, so the
        // *next* batch run (any process) exact-hits a warmer image.
        if let Some(store) = &store {
            let _ = session.persist(store);
        }
        // The process ends once every worker's output is reported
        // (`exit_now`): leave the session undropped.
        std::mem::forget(session);
        Ok((out, rows, registry, fusion, histogram, widths, load))
    };
    implicit_pipeline::run_batch_scoped_then(programs, opts.jobs, work, |outcomes| {
        exit_now(report_batch(opts, total, outcomes))
    });
    unreachable!("the batch report ends the process")
}

/// One batch worker's output: its programs' results, trace rows,
/// counters, VM statistics and store outcome.
type WorkerOutcome = Result<
    (
        Vec<(usize, String, Result<String, String>)>,
        Vec<ChromeRow>,
        MetricsRegistry,
        systemf::compile::FusionStats,
        Vec<(&'static str, u64)>,
        Vec<u16>,
        Option<&'static str>,
    ),
    String,
>;

/// Prints a drained batch: the trace file, one line per program in
/// file order, the summary and store lines, and the requested tables.
fn report_batch(opts: &Options, total: usize, outcomes: Vec<WorkerOutcome>) -> Result<(), String> {
    let mut lines: Vec<Option<(String, Result<String, String>)>> =
        (0..total).map(|_| None).collect();
    let mut rows: Vec<ChromeRow> = Vec::new();
    let mut registry = MetricsRegistry::new();
    let mut fusion = systemf::compile::FusionStats::default();
    let mut dispatch: std::collections::HashMap<&'static str, u64> =
        std::collections::HashMap::new();
    let mut frame_widths: Vec<u16> = Vec::new();
    let (mut exact, mut incremental, mut cold) = (0usize, 0usize, 0usize);
    for (
        worker_out,
        worker_rows,
        worker_registry,
        worker_fusion,
        worker_hist,
        worker_widths,
        worker_load,
    ) in outcomes.into_iter().collect::<Result<Vec<_>, String>>()?
    {
        for (ix, name, r) in worker_out {
            lines[ix] = Some((name, r));
        }
        rows.extend(worker_rows);
        registry.merge(&worker_registry);
        fusion.merge(&worker_fusion);
        for (mnemonic, n) in worker_hist {
            *dispatch.entry(mnemonic).or_insert(0) += n;
        }
        frame_widths.extend(worker_widths);
        match worker_load {
            Some("exact") => exact += 1,
            Some("incremental") => incremental += 1,
            Some("cold") => cold += 1,
            _ => {}
        }
    }
    if let Some(path) = &opts.trace {
        rows.sort_by_key(|row| (row.1, row.0));
        std::fs::write(path, chrome_trace_json(&rows))
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    let mut failures = 0usize;
    for slot in lines {
        let (name, r) = slot.expect("every program compiled exactly once");
        match r {
            Ok(line) => println!("{name}: {line}"),
            Err(e) => {
                failures += 1;
                println!("{name}: error: {e}");
            }
        }
    }
    println!(
        "batch: {total} programs, {failures} failed (jobs={})",
        opts.jobs
    );
    if opts.cache_dir.is_some() {
        // Per-worker store ladder outcomes plus decode-failure count;
        // the cache smoke harness asserts `fallbacks=0` on warm runs.
        println!(
            "cache: exact={exact} incremental={incremental} cold={cold}, fallbacks={}",
            registry.artifact_fallbacks
        );
    }
    if opts.metrics {
        print!("{}", registry.render_table());
    }
    if opts.vm_stats {
        let mut histogram: Vec<(&'static str, u64)> = dispatch.into_iter().collect();
        histogram.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        print_vm_stats(&VmReport {
            fusion,
            histogram,
            frame_widths,
        });
    }
    if failures > 0 {
        return Err(format!("{failures} of {total} programs failed"));
    }
    Ok(())
}

/// Prints a resolution explanation for every query site of the
/// program, each resolved under `policy` in the environment the rule
/// abstractions around it open, as the type checker resolves it.
fn explain_queries(core: &Expr, policy: &ResolutionPolicy) {
    let mut out = Vec::new();
    implicit_core::subtyping::walk_query_sites(core, &mut |env, rho| {
        out.push(match implicit_core::resolve::resolve(env, rho, policy) {
            Ok(res) => {
                let stats = res.stats(env);
                format!(
                    "{}steps: {}, rules tried: {}, assumed: {}\n",
                    res.explain(),
                    stats.steps,
                    stats.rules_tried,
                    stats.assumed
                )
            }
            Err(err) => format!("?({rho}) — unresolved: {err}\n"),
        });
    });
    if out.is_empty() {
        println!("(no queries)");
    }
    for block in out {
        println!("{block}");
    }
}
