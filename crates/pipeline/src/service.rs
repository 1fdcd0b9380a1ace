//! `implicitd` — a resident resolution/compile service.
//!
//! The warm [`Session`](crate::Session) machinery is batch-shaped:
//! build, drain a job list, exit. This module turns it into a
//! long-running daemon serving parse/typecheck/resolve/eval requests
//! over a localhost TCP socket, with:
//!
//! * **length-prefixed JSON framing** — a 4-byte big-endian length
//!   followed by one JSON document ([`read_frame`]/[`write_frame`];
//!   the document is an [`implicit_core::json`] value, re-exported
//!   here as [`Json`] and [`parse_json`]),
//!   hard-capped at [`MAX_FRAME`] with initial allocations clamped
//!   through [`implicit_core::wire::cap`] so a hostile length prefix
//!   cannot balloon memory before a single payload byte arrives;
//! * **multi-tenant named sessions** — one compiled prelude per
//!   tenant, loaded through the [`crate::artifact`] store ladder when
//!   a cache directory is configured; every request is a copy-on-write
//!   extension of the tenant's snapshot and rolls back afterwards
//!   (the same watermark discipline batch mode uses);
//! * **thread-per-tenant execution** — sessions are `Rc`-based and
//!   [`Session::trim`](crate::Session::trim) truncates the
//!   *thread-local* interning arena to the session's own watermark,
//!   so two sessions must never share a thread; each tenant owns a
//!   dedicated resident worker (spawned on the batch driver's deep
//!   stack, [`crate::driver::spawn_service_worker`]) and its requests
//!   serialize on that thread while distinct tenants run in parallel;
//! * **admission control** — each tenant fronts a bounded queue;
//!   when it is full the connection thread rejects the request with a
//!   structured `overloaded` error instead of queueing unboundedly;
//! * **per-request budgets** — an optional `deadline_ms` is stamped
//!   at admission and re-checked at dequeue (expired work is shed
//!   with `deadline_exceeded`, not run), and the opsem route takes an
//!   explicit fuel budget (`fuel_exhausted` on overrun);
//! * **a `metrics` request** — renders one [`MetricsRegistry`] row per
//!   open tenant, their merge with every closed tenant's final
//!   counters, and the daemon's own wire/admission counters.
//!
//! Request handling on tenant threads is wrapped in `catch_unwind`:
//! a panicking program produces a structured `internal_panic` error
//! and a [`Session::recover`](crate::Session::recover) rollback, never
//! a dead tenant. The protocol grammar and the request state machine
//! are documented in DESIGN.md §S32.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use implicit_core::env::ImplicitEnv;
use implicit_core::intern::{self, InternSnapshot};
pub use implicit_core::json::{parse_json, Json};
use implicit_core::parse::{parse_declarations, parse_expr, parse_program, parse_rule_type};
use implicit_core::resolve::{resolve, ResolutionPolicy};
use implicit_core::syntax::{Declarations, Expr, RuleType, Type};
use implicit_core::trace::MetricsRegistry;
use implicit_core::wire;

use crate::artifact::{load_or_build_source, ArtifactStore, LoadOutcome, SourceLoadError};
use crate::driver::spawn_service_worker;
use crate::{Backend, Prelude, Session};

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Hard cap on one frame's payload (1 MiB) — programs, preludes, and
/// metric dumps all fit with orders of magnitude to spare, and a
/// hostile length prefix is rejected before any payload allocation.
pub const MAX_FRAME: usize = 1 << 20;

/// A framing failure while reading from the wire.
#[derive(Debug)]
pub enum FrameError {
    /// Clean EOF on a frame boundary (the peer closed).
    Closed,
    /// The stream ended mid-header or mid-payload.
    Truncated,
    /// The declared length exceeds [`MAX_FRAME`].
    Oversized(usize),
    /// Transport failure.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => f.write_str("connection closed"),
            FrameError::Truncated => f.write_str("truncated frame"),
            FrameError::Oversized(n) => write!(f, "oversized frame ({n} bytes > {MAX_FRAME})"),
            FrameError::Io(e) => write!(f, "frame i/o: {e}"),
        }
    }
}

/// Writes one length-prefixed frame (4-byte big-endian length, then
/// the payload) and flushes.
///
/// # Errors
///
/// Transport errors, or `InvalidInput` if the payload exceeds
/// [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("payload {} exceeds MAX_FRAME", payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame. The initial buffer reservation is
/// clamped through [`wire::cap`], so a lying length prefix cannot
/// pre-allocate more than 64 KiB — larger (honest) payloads grow the
/// buffer as bytes actually arrive.
///
/// # Errors
///
/// [`FrameError::Closed`] on EOF at a frame boundary,
/// [`FrameError::Truncated`] mid-frame, [`FrameError::Oversized`] for
/// a declared length beyond [`MAX_FRAME`].
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut hdr = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut hdr[got..]) {
            Ok(0) => {
                return Err(if got == 0 {
                    FrameError::Closed
                } else {
                    FrameError::Truncated
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(hdr) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::Oversized(len));
    }
    let mut buf = Vec::with_capacity(wire::cap(len));
    match r.take(len as u64).read_to_end(&mut buf) {
        Ok(_) => {}
        Err(e) if e.kind() == io::ErrorKind::Interrupted => return Err(FrameError::Truncated),
        Err(e) => return Err(FrameError::Io(e)),
    }
    if buf.len() < len {
        return Err(FrameError::Truncated);
    }
    Ok(buf)
}

// ---------------------------------------------------------------------------
// Configuration and counters
// ---------------------------------------------------------------------------

/// A thread-safe recipe for the declaration set tenants compile
/// against when their `open` request embeds none (declarations are
/// arena-interned and must be built on the tenant's own thread).
pub type DeclSource = Arc<dyn Fn() -> Declarations + Send + Sync>;

/// Daemon configuration. `Default` binds an ephemeral localhost port
/// with no artifact store and the paper resolution policy.
#[derive(Clone)]
pub struct DaemonConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Maximum simultaneously open tenants; `open` beyond this is
    /// rejected with `tenants_exhausted`.
    pub max_tenants: usize,
    /// Bounded per-tenant request queue depth; a full queue rejects
    /// with `overloaded` (admission control, not backpressure-by-
    /// blocking).
    pub queue_cap: usize,
    /// Artifact store directory for tenant preludes (the
    /// exact/incremental/cold load ladder); `None` builds cold.
    pub cache_dir: Option<PathBuf>,
    /// Resolution policy for every tenant.
    pub policy: ResolutionPolicy,
    /// Superinstruction fusion for tenant sessions.
    pub fusion: bool,
    /// Dictionary inline cache for tenant sessions.
    pub dict_ic: bool,
    /// Declarations for tenants whose prelude source declares none.
    pub decls: DeclSource,
    /// Accepts the fault-injection `poison` op (tests only): a
    /// deliberate tenant-thread panic proving the `catch_unwind`
    /// containment and rollback path.
    pub enable_poison: bool,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            addr: "127.0.0.1:0".to_owned(),
            max_tenants: 8,
            queue_cap: 64,
            cache_dir: None,
            policy: ResolutionPolicy::paper(),
            fusion: true,
            dict_ic: false,
            decls: Arc::new(Declarations::new),
            enable_poison: false,
        }
    }
}

implicit_core::counter_table! {
    /// Daemon-level counters (wire health, admission control, panics) —
    /// the service-plane complement to the per-tenant
    /// [`MetricsRegistry`] snapshots. All monotone.
    #[derive(Debug, Default)]
    pub struct DaemonCounters {
        {
            /// Connections accepted.
            connections: AtomicU64,
            /// Well-framed requests received.
            requests: AtomicU64,
            /// Requests answered `ok`.
            ok: AtomicU64,
            /// Requests answered with a structured error.
            errors: AtomicU64,
            /// Requests shed by admission control (tenant queue full).
            rejected_overload: AtomicU64,
            /// Requests shed at dequeue because their deadline had passed.
            expired_deadline: AtomicU64,
            /// Frames rejected for a declared length beyond [`MAX_FRAME`].
            oversized_frames: AtomicU64,
            /// Frames that were truncated or held unparseable JSON.
            bad_frames: AtomicU64,
            /// Tenant-thread panics contained by `catch_unwind`.
            panics: AtomicU64,
            /// Tenants opened.
            tenants_opened: AtomicU64,
            /// Tenants closed.
            tenants_closed: AtomicU64,
        }
    }
}

// ---------------------------------------------------------------------------
// Protocol plumbing
// ---------------------------------------------------------------------------

/// Builds an error response: `{"ok":false,"error":kind,"detail":…}`.
/// `kind` is the stable machine-readable class; `detail` is prose.
pub fn error_json(kind: &str, detail: &str) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str(kind.to_owned())),
        ("detail", Json::Str(detail.to_owned())),
    ])
}

/// Builds a success response: `{"ok":true, fields…}`.
fn ok_json(fields: Vec<(&str, Json)>) -> Json {
    let mut all = vec![("ok", Json::Bool(true))];
    all.extend(fields);
    Json::obj(all)
}

/// The prelude wire convention: the `open` request transmits a
/// prelude as ordinary program source in the `prelude.imp` shape —
/// optional declarations, then the [`Prelude::wrap`] sugar around the
/// unit literal. [`Prelude::from_wrapped`] recovers it on the tenant
/// thread.
pub fn prelude_source(p: &Prelude) -> String {
    p.wrap(Expr::Unit, Type::Unit).to_string()
}

/// Work shipped to a tenant thread.
enum TenantOp {
    /// Elaborate + preservation-check + evaluate on the tenant's
    /// backend; reply with value and type.
    Eval { src: String },
    /// Elaborate + preservation-check only; reply with the type.
    Typecheck { src: String },
    /// Runtime-resolution semantics under an explicit fuel budget.
    Opsem { src: String, fuel: u64 },
    /// Environment-level resolution; reply with steps + derivation.
    Resolve { query: String, depth: Option<usize> },
    /// Deliberate panic (fault-injection; gated by
    /// [`DaemonConfig::enable_poison`]).
    Poison,
}

struct TenantJob {
    op: TenantOp,
    /// Stamped at admission from the request's `deadline_ms`;
    /// re-checked at dequeue.
    deadline: Option<Instant>,
    reply: mpsc::Sender<Json>,
}

/// A connection thread's handle on a resident tenant.
struct TenantHandle {
    tx: SyncSender<TenantJob>,
    join: Option<JoinHandle<()>>,
}

/// Shared daemon state.
struct Inner {
    config: DaemonConfig,
    /// The bound address — the protocol `shutdown` op dials it once
    /// to pop the accept loop out of its blocking `accept`.
    addr: SocketAddr,
    counters: DaemonCounters,
    tenants: Mutex<HashMap<String, TenantHandle>>,
    metrics: Mutex<TenantMetrics>,
    shutdown: AtomicBool,
}

/// What the `metrics` op reports about tenants.
#[derive(Default)]
struct TenantMetrics {
    /// Last-published snapshot per open tenant (each cumulative).
    live: HashMap<String, MetricsRegistry>,
    /// The final counters of every closed tenant, summed, so the
    /// merged view stays monotone across the daemon's lifetime while
    /// the per-tenant rows stay as few as the open tenants.
    closed: MetricsRegistry,
}

/// What a tenant thread serves: a full compile session (prelude
/// source) or a resolve-only implicit environment (rule-type frames,
/// the `wild_workload` shape, which carries no evidence terms).
enum TenantSpec {
    Prelude { source: String, backend: Backend },
    Frames { frames: Vec<Vec<String>> },
}

// ---------------------------------------------------------------------------
// Daemon
// ---------------------------------------------------------------------------

/// A running daemon: an accept loop, one thread per connection, one
/// resident worker per tenant. Dropping the handle shuts it down.
pub struct Daemon {
    addr: SocketAddr,
    inner: Arc<Inner>,
    accept: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Binds and starts serving.
    ///
    /// # Errors
    ///
    /// Socket bind/configuration failures.
    pub fn start(config: DaemonConfig) -> io::Result<Daemon> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            config,
            addr,
            counters: DaemonCounters::default(),
            tenants: Mutex::new(HashMap::new()),
            metrics: Mutex::new(TenantMetrics::default()),
            shutdown: AtomicBool::new(false),
        });
        let accept_inner = inner.clone();
        let accept = std::thread::Builder::new()
            .name("implicitd-accept".to_owned())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_inner.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // Responses are written as header + payload;
                    // without NODELAY, Nagle holds the payload until
                    // the client's delayed ACK (~40 ms per request).
                    stream.set_nodelay(true).ok();
                    accept_inner
                        .counters
                        .connections
                        .fetch_add(1, Ordering::Relaxed);
                    let conn_inner = accept_inner.clone();
                    // Parsing recurses per nesting level; wild-mode
                    // programs are deep enough to outgrow the 2 MiB
                    // default.
                    let _ = std::thread::Builder::new()
                        .name("implicitd-conn".to_owned())
                        .stack_size(16 << 20)
                        .spawn(move || serve_connection(stream, conn_inner));
                }
            })?;
        Ok(Daemon {
            addr,
            inner,
            accept: Some(accept),
        })
    }

    /// The bound socket address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon-plane counters.
    pub fn counters(&self) -> &DaemonCounters {
        &self.inner.counters
    }

    /// Blocks until the accept loop exits — i.e. until some client
    /// sends `{"op":"shutdown"}` (or [`Daemon::shutdown`] is called
    /// from another thread). The `implicitd` main thread parks here.
    pub fn wait(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Stops accepting, closes every tenant (flushing artifacts), and
    /// joins the accept loop. Idempotent.
    pub fn shutdown(&mut self) {
        if self.inner.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        close_all_tenants(&self.inner);
        // Wake the accept loop so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Drops every tenant's sender (ending its request loop) and joins
/// the worker threads; each tenant flushes its artifact on the way
/// out.
fn close_all_tenants(inner: &Inner) {
    let handles: Vec<TenantHandle> = inner
        .tenants
        .lock()
        .unwrap()
        .drain()
        .map(|(_, h)| h)
        .collect();
    for mut h in handles {
        let join = h.join.take();
        // Dropping the handle drops its sender, ending the tenant's
        // request loop once queued jobs drain.
        drop(h);
        if let Some(j) = join {
            let _ = j.join();
            inner
                .counters
                .tenants_closed
                .fetch_add(1, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------------

fn serve_connection(mut stream: TcpStream, inner: Arc<Inner>) {
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(p) => p,
            Err(FrameError::Closed) => return,
            Err(FrameError::Oversized(n)) => {
                inner
                    .counters
                    .oversized_frames
                    .fetch_add(1, Ordering::Relaxed);
                // Best-effort error reply; the stream is desynced
                // after an oversized header, so close either way.
                let resp = error_json("oversized_frame", &format!("{n} bytes > {MAX_FRAME}"));
                let _ = write_frame(&mut stream, resp.render().as_bytes());
                return;
            }
            Err(FrameError::Truncated) | Err(FrameError::Io(_)) => {
                inner.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        let req = match std::str::from_utf8(&payload)
            .map_err(|e| e.to_string())
            .and_then(parse_json)
        {
            Ok(j) => j,
            Err(e) => {
                inner.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
                let resp = error_json("bad_frame", &format!("unparseable request: {e}"));
                let _ = write_frame(&mut stream, resp.render().as_bytes());
                // A frame that framed correctly but held garbage
                // leaves the stream in sync; keep serving.
                continue;
            }
        };
        inner.counters.requests.fetch_add(1, Ordering::Relaxed);
        let (resp, hangup) = dispatch(&req, &inner);
        let counter = if resp.get("ok").and_then(Json::as_bool) == Some(true) {
            &inner.counters.ok
        } else {
            &inner.counters.errors
        };
        counter.fetch_add(1, Ordering::Relaxed);
        if write_frame(&mut stream, resp.render().as_bytes()).is_err() {
            return;
        }
        if hangup {
            return;
        }
    }
}

/// Routes one request; returns the response and whether the
/// connection should close afterwards.
fn dispatch(req: &Json, inner: &Arc<Inner>) -> (Json, bool) {
    let Some(op) = req.str_field("op") else {
        return (error_json("bad_request", "missing `op`"), false);
    };
    if inner.shutdown.load(Ordering::Acquire) && op != "ping" {
        return (error_json("shutdown", "daemon is shutting down"), true);
    }
    match op {
        "ping" => (ok_json(vec![("pong", Json::Bool(true))]), false),
        "parse" => (handle_parse(req), false),
        "open" => (handle_open(req, inner), false),
        "close" => (handle_close(req, inner), false),
        "metrics" => (handle_metrics(inner), false),
        "shutdown" => {
            inner.shutdown.store(true, Ordering::Release);
            close_all_tenants(inner);
            // Pop the accept loop out of its blocking `accept` so it
            // observes the flag and exits.
            let _ = TcpStream::connect(inner.addr);
            (ok_json(vec![("stopped", Json::Bool(true))]), true)
        }
        "eval" | "typecheck" | "opsem" | "resolve" | "poison" => handle_tenant_op(op, req, inner),
        other => (
            error_json("bad_request", &format!("unknown op `{other}`")),
            false,
        ),
    }
}

/// `parse`: syntax-check a program on the connection thread (no
/// tenant state touched) and echo the pretty-printed form.
fn handle_parse(req: &Json) -> Json {
    let Some(src) = req.str_field("program") else {
        return error_json("bad_request", "parse: missing `program`");
    };
    match parse_program(src) {
        Ok((decls, expr)) => ok_json(vec![
            ("has_decls", Json::Bool(!decls.is_empty())),
            ("printed", Json::Str(expr.to_string())),
        ]),
        Err(e) => error_json("parse_error", &e.to_string()),
    }
}

fn handle_open(req: &Json, inner: &Arc<Inner>) -> Json {
    let Some(name) = req.str_field("tenant") else {
        return error_json("bad_request", "open: missing `tenant`");
    };
    let spec = if let Some(source) = req.str_field("prelude") {
        let backend = match req.str_field("backend") {
            None => Backend::Vm,
            Some(b) => match Backend::parse(b) {
                Some(b) => b,
                None => return error_json("bad_request", &format!("open: unknown backend `{b}`")),
            },
        };
        TenantSpec::Prelude {
            source: source.to_owned(),
            backend,
        }
    } else if let Some(frames) = req.get("frames").and_then(Json::as_arr) {
        let mut parsed = Vec::with_capacity(frames.len());
        for f in frames {
            let Some(rules) = f.as_arr() else {
                return error_json("bad_request", "open: `frames` must be arrays of rule types");
            };
            let mut frame = Vec::with_capacity(rules.len());
            for r in rules {
                match r.as_str() {
                    Some(s) => frame.push(s.to_owned()),
                    None => {
                        return error_json(
                            "bad_request",
                            "open: `frames` must be arrays of rule-type strings",
                        )
                    }
                }
            }
            parsed.push(frame);
        }
        TenantSpec::Frames { frames: parsed }
    } else {
        return error_json("bad_request", "open: need `prelude` or `frames`");
    };

    let (ready_tx, ready_rx) = mpsc::channel::<Result<String, String>>();
    {
        let mut tenants = inner.tenants.lock().unwrap();
        if tenants.contains_key(name) {
            return error_json("tenant_exists", &format!("tenant `{name}` is already open"));
        }
        if tenants.len() >= inner.config.max_tenants {
            return error_json(
                "tenants_exhausted",
                &format!("tenant capacity {} reached", inner.config.max_tenants),
            );
        }
        let (tx, rx) = mpsc::sync_channel::<TenantJob>(inner.config.queue_cap.max(1));
        let thread_inner = inner.clone();
        let thread_name = name.to_owned();
        let join = match spawn_service_worker(format!("tenant-{name}"), move || {
            tenant_main(thread_name, spec, thread_inner, rx, ready_tx)
        }) {
            Ok(j) => j,
            Err(e) => return error_json("internal", &format!("spawn tenant: {e}")),
        };
        tenants.insert(
            name.to_owned(),
            TenantHandle {
                tx,
                join: Some(join),
            },
        );
    }
    // Wait for the prelude build outside the lock: other tenants keep
    // serving while this one compiles (or loads from the store).
    match ready_rx.recv() {
        Ok(Ok(load)) => {
            inner
                .counters
                .tenants_opened
                .fetch_add(1, Ordering::Relaxed);
            ok_json(vec![
                ("tenant", Json::Str(name.to_owned())),
                ("load", Json::Str(load)),
            ])
        }
        // The failing tenant thread removed its own record before
        // reporting, so the name is immediately reusable.
        Ok(Err(detail)) => error_json("open_failed", &detail),
        Err(mpsc::RecvError) => {
            remove_tenant_record(inner, name);
            error_json("open_failed", "tenant thread died during build")
        }
    }
}

fn handle_close(req: &Json, inner: &Arc<Inner>) -> Json {
    let Some(name) = req.str_field("tenant") else {
        return error_json("bad_request", "close: missing `tenant`");
    };
    let handle = inner.tenants.lock().unwrap().remove(name);
    match handle {
        None => error_json("unknown_tenant", &format!("no tenant `{name}`")),
        Some(mut h) => {
            let join = h.join.take();
            // Dropping the sender ends the tenant's request loop after
            // the queued jobs drain; it flushes its artifact on exit.
            drop(h);
            if let Some(j) = join {
                let _ = j.join();
            }
            inner
                .counters
                .tenants_closed
                .fetch_add(1, Ordering::Relaxed);
            ok_json(vec![("closed", Json::Str(name.to_owned()))])
        }
    }
}

fn handle_metrics(inner: &Arc<Inner>) -> Json {
    let metrics = inner.metrics.lock().unwrap();
    let mut merged = metrics.closed;
    for m in metrics.live.values() {
        merged.merge(m);
    }
    let mut tenants: Vec<(String, Json)> = metrics
        .live
        .iter()
        .map(|(name, m)| (name.clone(), m.to_json()))
        .collect();
    tenants.sort_by(|a, b| a.0.cmp(&b.0));
    ok_json(vec![
        ("daemon", inner.counters.to_json()),
        ("merged", merged.to_json()),
        ("tenants", Json::Obj(tenants)),
        ("table", Json::Str(merged.render_table())),
    ])
}

/// Admits a tenant-bound request: builds the job, `try_send`s it into
/// the tenant's bounded queue, and waits for the reply.
fn handle_tenant_op(op: &str, req: &Json, inner: &Arc<Inner>) -> (Json, bool) {
    let Some(name) = req.str_field("tenant") else {
        return (
            error_json("bad_request", &format!("{op}: missing `tenant`")),
            false,
        );
    };
    let tenant_op = match build_tenant_op(op, req, inner) {
        Ok(t) => t,
        Err(resp) => return (resp, false),
    };
    let deadline = req
        .int_field("deadline_ms")
        .map(|ms| Instant::now() + std::time::Duration::from_millis(ms.max(0) as u64));
    let (reply_tx, reply_rx) = mpsc::channel::<Json>();
    let job = TenantJob {
        op: tenant_op,
        deadline,
        reply: reply_tx,
    };
    {
        let tenants = inner.tenants.lock().unwrap();
        let Some(handle) = tenants.get(name) else {
            return (
                error_json("unknown_tenant", &format!("no tenant `{name}`")),
                false,
            );
        };
        match handle.tx.try_send(job) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => {
                inner
                    .counters
                    .rejected_overload
                    .fetch_add(1, Ordering::Relaxed);
                return (
                    error_json(
                        "overloaded",
                        &format!("tenant `{name}` queue is full; retry later"),
                    ),
                    false,
                );
            }
            Err(TrySendError::Disconnected(_)) => {
                return (
                    error_json("unknown_tenant", &format!("tenant `{name}` is gone")),
                    false,
                );
            }
        }
    }
    match reply_rx.recv() {
        Ok(resp) => (resp, false),
        // The tenant died mid-request (e.g. its thread was closed
        // under us); structured error rather than a hang.
        Err(mpsc::RecvError) => (
            error_json(
                "tenant_lost",
                &format!("tenant `{name}` dropped the request"),
            ),
            false,
        ),
    }
}

/// Parses the tenant-bound operation out of the request (connection
/// thread: strings only — expressions intern on the tenant's arena).
fn build_tenant_op(op: &str, req: &Json, inner: &Arc<Inner>) -> Result<TenantOp, Json> {
    match op {
        "eval" | "typecheck" | "opsem" => {
            let Some(src) = req.str_field("program") else {
                return Err(error_json(
                    "bad_request",
                    &format!("{op}: missing `program`"),
                ));
            };
            Ok(match op {
                "eval" => TenantOp::Eval {
                    src: src.to_owned(),
                },
                "typecheck" => TenantOp::Typecheck {
                    src: src.to_owned(),
                },
                _ => TenantOp::Opsem {
                    src: src.to_owned(),
                    fuel: req
                        .int_field("fuel")
                        .map(|f| f.max(0) as u64)
                        .unwrap_or(implicit_opsem::DEFAULT_FUEL),
                },
            })
        }
        "resolve" => {
            let Some(query) = req.str_field("query") else {
                return Err(error_json("bad_request", "resolve: missing `query`"));
            };
            Ok(TenantOp::Resolve {
                query: query.to_owned(),
                depth: req.int_field("depth").map(|d| d.max(0) as usize),
            })
        }
        "poison" => {
            if inner.config.enable_poison {
                Ok(TenantOp::Poison)
            } else {
                Err(error_json("bad_request", "poison: not enabled"))
            }
        }
        _ => unreachable!("routed ops only"),
    }
}

// ---------------------------------------------------------------------------
// Tenant threads
// ---------------------------------------------------------------------------

/// Tenant worker entry point: builds the tenant state on this
/// thread's own (deep) stack, reports readiness, then serves jobs
/// until every sender is dropped. The declarations are a local so the
/// session may borrow them — the same self-contained-frame pattern
/// the batch driver's workers use.
fn tenant_main(
    name: String,
    spec: TenantSpec,
    inner: Arc<Inner>,
    rx: Receiver<TenantJob>,
    ready: mpsc::Sender<Result<String, String>>,
) {
    match spec {
        TenantSpec::Frames { frames } => {
            tenant_frames_main(name, frames, inner, rx, ready);
        }
        TenantSpec::Prelude { source, backend } => {
            tenant_prelude_main(name, source, backend, inner, rx, ready);
        }
    }
    // Whatever happens, never leave an un-notified opener hanging.
}

/// Resolve-only tenant: an [`implicit_core::env::ImplicitEnv`] built
/// from rule-type frames (the `wild_workload` shape), no evidence, no
/// evaluator.
fn tenant_frames_main(
    name: String,
    frames: Vec<Vec<String>>,
    inner: Arc<Inner>,
    rx: Receiver<TenantJob>,
    ready: mpsc::Sender<Result<String, String>>,
) {
    let frames = match FramesEnv::new(&frames) {
        Ok(f) => f,
        Err(e) => {
            let _ = ready.send(Err(e));
            remove_tenant_record(&inner, &name);
            return;
        }
    };
    let _ = ready.send(Ok("frames".to_owned()));
    let policy = inner.config.policy.clone();
    let mut metrics = MetricsRegistry::new();
    while let Ok(job) = rx.recv() {
        if expired(&job, &inner) {
            continue;
        }
        let resp = match job.op {
            TenantOp::Resolve { query, depth } => {
                resolve_op(&frames.env, &policy, &query, depth, &mut metrics)
            }
            TenantOp::Poison => {
                inner.counters.panics.fetch_add(1, Ordering::Relaxed);
                error_json("internal_panic", "tenant request panicked (contained)")
            }
            _ => error_json(
                "unsupported",
                "resolve-only tenant (opened with `frames`); use `resolve`",
            ),
        };
        if frames.end_request() {
            metrics.trims += 1;
        }
        metrics.set_cache_counters(frames.env.cache_counters());
        publish_metrics(&inner, &name, &metrics);
        let _ = job.reply.send(resp);
    }
    retire_metrics(&inner, &name, &metrics);
}

/// A resolve-only tenant's state: the environment its frames build,
/// and the arena watermark taken once they are pushed.
struct FramesEnv {
    env: ImplicitEnv,
    base: InternSnapshot,
}

impl FramesEnv {
    /// Parses and pushes `frames`, outermost first.
    fn new(frames: &[Vec<String>]) -> Result<FramesEnv, String> {
        let mut env = ImplicitEnv::new();
        for frame in frames {
            let rules = frame
                .iter()
                .map(|src| parse_rule_type(src).map_err(|e| format!("frame rule `{src}`: {e}")))
                .collect::<Result<Vec<RuleType>, _>>()?;
            env.push(rules);
        }
        Ok(FramesEnv {
            env,
            base: intern::snapshot(),
        })
    }

    /// Ends a request the way [`Session::maybe_trim`] ends a program:
    /// forgets the pins and, once the arena has outgrown the base,
    /// trims back to it. Returns whether it trimmed.
    fn end_request(&self) -> bool {
        let trim = crate::end_program(&self.base);
        if trim {
            crate::trim_arena(&self.base, &self.env);
        }
        trim
    }
}

/// Full compile tenant: a warm [`Session`] over the transmitted
/// prelude, loaded through the artifact-store ladder when one is
/// configured, re-saved on close.
fn tenant_prelude_main(
    name: String,
    source: String,
    backend: Backend,
    inner: Arc<Inner>,
    rx: Receiver<TenantJob>,
    ready: mpsc::Sender<Result<String, String>>,
) {
    // Parse on this thread: declarations and prelude types intern on
    // the tenant's own arena. The declarations come from the text's
    // header; with a store, the rest is parsed only if the store has
    // not seen these bytes.
    let parsed_decls = match parse_declarations(&source) {
        Ok(d) => d,
        Err(e) => {
            let _ = ready.send(Err(format!("prelude: {e}")));
            remove_tenant_record(&inner, &name);
            return;
        }
    };
    let prelude = || match parse_program(&source) {
        Ok((_, wrapped)) => Prelude::from_wrapped(&wrapped),
        Err(e) => Err(format!("prelude: {e}")),
    };
    let decls = if parsed_decls.is_empty() {
        (inner.config.decls)()
    } else {
        parsed_decls
    };
    let policy = inner.config.policy.clone();
    let (fusion, dict_ic) = (inner.config.fusion, inner.config.dict_ic);
    let store = inner
        .config
        .cache_dir
        .as_ref()
        .and_then(|d| ArtifactStore::new(d).ok());
    let built = match &store {
        Some(store) => load_or_build_source(
            store, &decls, &policy, &source, fusion, dict_ic, prelude,
        )
        .map_err(|e| match e {
            SourceLoadError::Parse(e) => e,
            SourceLoadError::Build(e) => e.to_string(),
        }),
        None => prelude().and_then(|prelude| {
            Session::new_configured(&decls, policy.clone(), &prelude, fusion, dict_ic)
                .map(|s| (s, LoadOutcome::Cold))
                .map_err(|e| e.to_string())
        }),
    };
    let (mut session, outcome) = match built {
        Ok(b) => b,
        Err(e) => {
            let _ = ready.send(Err(e));
            remove_tenant_record(&inner, &name);
            return;
        }
    };
    let load = match outcome {
        LoadOutcome::Exact => "exact",
        LoadOutcome::Incremental(_) => "incremental",
        LoadOutcome::Cold => "cold",
    };
    let _ = ready.send(Ok(load.to_owned()));
    publish_metrics(&inner, &name, &session.metrics());

    while let Ok(job) = rx.recv() {
        if expired(&job, &inner) {
            continue;
        }
        let op = job.op;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_session_op(&mut session, backend, &inner.config.policy, op)
        }));
        let resp = match outcome {
            Ok(resp) => resp,
            Err(_) => {
                inner.counters.panics.fetch_add(1, Ordering::Relaxed);
                // A panic may have skipped the per-run rollback; put
                // the session back on its prelude watermarks before
                // the next request.
                session.recover();
                error_json("internal_panic", "tenant request panicked (contained)")
            }
        };
        // Every request ends as a program does, `resolve` included.
        session.maybe_trim();
        publish_metrics(&inner, &name, &session.metrics());
        let _ = job.reply.send(resp);
    }

    // Channel closed (tenant `close`, or daemon shutdown): flush what
    // the tenant learned back to the shared store so the next open —
    // in this process or the next — gets an exact hit on it.
    if let Some(store) = &store {
        let _ = session.persist(store);
    }
    retire_metrics(&inner, &name, &session.metrics());
}

/// Deadline check at dequeue: replies `deadline_exceeded` and counts
/// the shed without running the job.
fn expired(job: &TenantJob, inner: &Inner) -> bool {
    if let Some(d) = job.deadline {
        if Instant::now() > d {
            inner
                .counters
                .expired_deadline
                .fetch_add(1, Ordering::Relaxed);
            let _ = job.reply.send(error_json(
                "deadline_exceeded",
                "request deadline passed before execution",
            ));
            return true;
        }
    }
    false
}

/// Runs one op against the tenant session. Every route rolls back to
/// the prelude watermarks (inside the `Session` entry points), so
/// failures cannot leak state into the next request.
fn run_session_op(
    session: &mut Session<'_>,
    backend: Backend,
    policy: &ResolutionPolicy,
    op: TenantOp,
) -> Json {
    match op {
        TenantOp::Eval { src } => match parse_expr(&src) {
            Err(e) => error_json("parse_error", &e.to_string()),
            Ok(e) => match session.run_with_backend(&e, backend) {
                Ok(out) => ok_json(vec![
                    ("value", Json::Str(out.value.to_string())),
                    ("type", Json::Str(out.source_type.to_string())),
                ]),
                Err(e) => run_error_json(&e),
            },
        },
        TenantOp::Typecheck { src } => match parse_expr(&src) {
            Err(e) => error_json("parse_error", &e.to_string()),
            Ok(e) => match session.typecheck(&e) {
                Ok(ty) => ok_json(vec![("type", Json::Str(ty.to_string()))]),
                Err(e) => run_error_json(&e),
            },
        },
        TenantOp::Opsem { src, fuel } => match parse_expr(&src) {
            Err(e) => error_json("parse_error", &e.to_string()),
            Ok(e) => match session.run_opsem_with_fuel(&e, fuel) {
                Ok(v) => ok_json(vec![("value", Json::Str(v.to_string()))]),
                Err(implicit_opsem::OpsemError::OutOfFuel) => error_json(
                    "fuel_exhausted",
                    &format!("opsem budget of {fuel} steps exhausted"),
                ),
                Err(e) => error_json("opsem_error", &e.to_string()),
            },
        },
        TenantOp::Resolve { query, depth } => {
            let mut metrics = MetricsRegistry::new();
            let resp = resolve_op(session.env(), policy, &query, depth, &mut metrics);
            session.fold_metrics(&metrics);
            resp
        }
        TenantOp::Poison => panic!("poisoned request (fault injection)"),
    }
}

/// Environment-level resolution shared by both tenant kinds.
fn resolve_op(
    env: &ImplicitEnv,
    policy: &ResolutionPolicy,
    query: &str,
    depth: Option<usize>,
    metrics: &mut MetricsRegistry,
) -> Json {
    let q = match parse_rule_type(query) {
        Ok(q) => q,
        Err(e) => return error_json("parse_error", &e.to_string()),
    };
    let policy = match depth {
        Some(d) => policy.clone().with_max_depth(d),
        None => policy.clone(),
    };
    metrics.queries += 1;
    match resolve(env, &q, &policy) {
        Ok(res) => {
            metrics.queries_resolved += 1;
            ok_json(vec![
                ("steps", Json::Int(res.steps() as i64)),
                ("derivation", Json::Str(res.explain())),
            ])
        }
        Err(e) => {
            metrics.queries_failed += 1;
            error_json("unresolved", &e.to_string())
        }
    }
}

/// Maps a pipeline [`crate::RunError`]-shaped failure to its stable
/// protocol error class.
fn run_error_json(e: &implicit_elab::RunError) -> Json {
    use implicit_elab::RunError;
    let kind = match e {
        RunError::Elab(_) => "elab_error",
        RunError::PreservationViolated(_) => "preservation_violated",
        RunError::Eval(_) => "eval_error",
    };
    error_json(kind, &e.to_string())
}

/// Publishes the tenant's metrics snapshot (replacing its previous
/// one — each snapshot is cumulative, so the map stays monotone).
fn publish_metrics(inner: &Inner, name: &str, m: &MetricsRegistry) {
    inner
        .metrics
        .lock()
        .unwrap()
        .live
        .insert(name.to_owned(), *m);
}

/// A closing tenant's last act: folds its final counters into the
/// closed tenants' sum and drops its row, under one lock, so no
/// `metrics` reply sees them twice or not at all.
fn retire_metrics(inner: &Inner, name: &str, m: &MetricsRegistry) {
    let mut metrics = inner.metrics.lock().unwrap();
    metrics.live.remove(name);
    metrics.closed.merge(m);
}

/// Drops the tenants-map record of a tenant whose build failed, so
/// the name can be reused. Runs on the failing tenant's own thread;
/// the opener joins the handle it removed (never this thread's own
/// entry, which it already took).
fn remove_tenant_record(inner: &Inner, name: &str) {
    let mut tenants = inner.tenants.lock().unwrap();
    if let Some(mut h) = tenants.remove(name) {
        // Joining self would deadlock; the handle is dropped instead
        // (the thread is exiting anyway).
        h.join.take();
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// A blocking protocol client: one framed request, one framed
/// response. Used by `implicitc --connect`, the conformance daemon
/// leg, and the bench/fault/soak suites.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client { stream })
    }

    /// Sends one request and reads one response.
    ///
    /// # Errors
    ///
    /// Transport or framing failures, or an unparseable response —
    /// all rendered as strings (protocol-level errors come back as
    /// `ok:false` responses, not `Err`).
    pub fn request(&mut self, req: &Json) -> Result<Json, String> {
        write_frame(&mut self.stream, req.render().as_bytes()).map_err(|e| e.to_string())?;
        let payload = read_frame(&mut self.stream).map_err(|e| e.to_string())?;
        let text = std::str::from_utf8(&payload).map_err(|e| e.to_string())?;
        parse_json(text)
    }

    /// `ping` round trip.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn ping(&mut self) -> Result<bool, String> {
        let r = self.request(&Json::obj(vec![("op", Json::Str("ping".into()))]))?;
        Ok(r.get("pong").and_then(Json::as_bool) == Some(true))
    }

    /// Opens a compile tenant over prelude source; returns the load
    /// outcome (`exact` / `incremental` / `cold`).
    ///
    /// # Errors
    ///
    /// Transport failures or an `ok:false` response.
    pub fn open_prelude(
        &mut self,
        tenant: &str,
        prelude: &str,
        backend: Backend,
    ) -> Result<String, String> {
        let r = self.request(&Json::obj(vec![
            ("op", Json::Str("open".into())),
            ("tenant", Json::Str(tenant.into())),
            ("prelude", Json::Str(prelude.into())),
            ("backend", Json::Str(backend.to_string())),
        ]))?;
        expect_ok(&r)?;
        Ok(r.str_field("load").unwrap_or("unknown").to_owned())
    }

    /// Opens a resolve-only tenant over rule-type frames.
    ///
    /// # Errors
    ///
    /// Transport failures or an `ok:false` response.
    pub fn open_frames(&mut self, tenant: &str, frames: &[Vec<String>]) -> Result<(), String> {
        let frames = Json::Arr(
            frames
                .iter()
                .map(|f| Json::Arr(f.iter().map(|r| Json::Str(r.clone())).collect()))
                .collect(),
        );
        let r = self.request(&Json::obj(vec![
            ("op", Json::Str("open".into())),
            ("tenant", Json::Str(tenant.into())),
            ("frames", frames),
        ]))?;
        expect_ok(&r)
    }

    /// Evaluates program source on a tenant; returns `(value, type)`.
    ///
    /// # Errors
    ///
    /// Transport failures or an `ok:false` response (rendered
    /// `kind: detail`).
    pub fn eval(&mut self, tenant: &str, program: &str) -> Result<(String, String), String> {
        let r = self.request(&Json::obj(vec![
            ("op", Json::Str("eval".into())),
            ("tenant", Json::Str(tenant.into())),
            ("program", Json::Str(program.into())),
        ]))?;
        expect_ok(&r)?;
        Ok((
            r.str_field("value").unwrap_or_default().to_owned(),
            r.str_field("type").unwrap_or_default().to_owned(),
        ))
    }

    /// Typechecks program source on a tenant; returns the type.
    ///
    /// # Errors
    ///
    /// Transport failures or an `ok:false` response.
    pub fn typecheck(&mut self, tenant: &str, program: &str) -> Result<String, String> {
        let r = self.request(&Json::obj(vec![
            ("op", Json::Str("typecheck".into())),
            ("tenant", Json::Str(tenant.into())),
            ("program", Json::Str(program.into())),
        ]))?;
        expect_ok(&r)?;
        Ok(r.str_field("type").unwrap_or_default().to_owned())
    }

    /// Resolves a rule-type query on a tenant; returns
    /// `(steps, derivation)`.
    ///
    /// # Errors
    ///
    /// Transport failures or an `ok:false` response.
    pub fn resolve(&mut self, tenant: &str, query: &str) -> Result<(i64, String), String> {
        let r = self.request(&Json::obj(vec![
            ("op", Json::Str("resolve".into())),
            ("tenant", Json::Str(tenant.into())),
            ("query", Json::Str(query.into())),
        ]))?;
        expect_ok(&r)?;
        Ok((
            r.int_field("steps").unwrap_or(0),
            r.str_field("derivation").unwrap_or_default().to_owned(),
        ))
    }

    /// Fetches the daemon metrics document.
    ///
    /// # Errors
    ///
    /// Transport failures or an `ok:false` response.
    pub fn metrics(&mut self) -> Result<Json, String> {
        let r = self.request(&Json::obj(vec![("op", Json::Str("metrics".into()))]))?;
        expect_ok(&r)?;
        Ok(r)
    }

    /// Closes a tenant (flushes its artifact).
    ///
    /// # Errors
    ///
    /// Transport failures or an `ok:false` response.
    pub fn close(&mut self, tenant: &str) -> Result<(), String> {
        let r = self.request(&Json::obj(vec![
            ("op", Json::Str("close".into())),
            ("tenant", Json::Str(tenant.into())),
        ]))?;
        expect_ok(&r)
    }

    /// Asks the daemon to shut down.
    ///
    /// # Errors
    ///
    /// Transport failures or an `ok:false` response.
    pub fn shutdown(&mut self) -> Result<(), String> {
        let r = self.request(&Json::obj(vec![("op", Json::Str("shutdown".into()))]))?;
        expect_ok(&r)
    }

    /// The raw stream (fault-injection tests write broken frames).
    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }
}

/// Turns an `ok:false` response into `Err("kind: detail")`.
fn expect_ok(r: &Json) -> Result<(), String> {
    if r.get("ok").and_then(Json::as_bool) == Some(true) {
        Ok(())
    } else {
        Err(format!(
            "{}: {}",
            r.str_field("error").unwrap_or("unknown_error"),
            r.str_field("detail").unwrap_or("")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_and_reject_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert!(matches!(read_frame(&mut r), Err(FrameError::Closed)));

        // Oversized declared length: rejected before allocation.
        let mut big = ((MAX_FRAME + 1) as u32).to_be_bytes().to_vec();
        big.extend_from_slice(b"xx");
        let mut r = &big[..];
        assert!(matches!(read_frame(&mut r), Err(FrameError::Oversized(_))));

        // Truncated payload.
        let mut trunc = 10u32.to_be_bytes().to_vec();
        trunc.extend_from_slice(b"abc");
        let mut r = &trunc[..];
        assert!(matches!(read_frame(&mut r), Err(FrameError::Truncated)));

        // A lying-but-in-range length never pre-allocates more than
        // the wire cap.
        assert!(wire::cap(MAX_FRAME) <= 1 << 16);
    }

    #[test]
    fn prelude_source_roundtrips_the_chain() {
        let p = Prelude::chain(6);
        let src = prelude_source(&p);
        let (decls, wrapped) = parse_program(&src).expect("prelude source parses");
        assert!(decls.is_empty());
        let q = Prelude::from_wrapped(&wrapped).expect("wrapped form deconstructs");
        assert_eq!(q.implicits.len(), p.implicits.len());
        assert_eq!(q.lets.len(), 0);
        // And the re-wrapped source is stable.
        assert_eq!(prelude_source(&q), src);
    }

    #[test]
    fn a_frames_env_trims_back_to_its_base_and_answers_the_same() {
        let w = genprog::wild_workload(1, &genprog::WildConfig::field_study());
        let mut frames: Vec<Vec<String>> = w
            .env
            .frames_innermost_first()
            .map(|(_, rules)| rules.iter().map(ToString::to_string).collect())
            .collect();
        frames.reverse();
        let tenant = FramesEnv::new(&frames).unwrap();
        let base = (tenant.base.type_count(), tenant.base.rule_count());
        let policy = ResolutionPolicy::paper();
        let answers = || -> Vec<String> {
            w.queries
                .iter()
                .take(40)
                .map(|q| {
                    let mut m = MetricsRegistry::new();
                    let reply = resolve_op(&tenant.env, &policy, &q.to_string(), None, &mut m);
                    tenant.end_request();
                    reply.render()
                })
                .collect()
        };
        let before = answers();
        assert_eq!(intern::pinned(), (0, 0), "a request's pins end with it");

        // Distinct failing queries: products 32 deep whose lower half
        // spells `i` in `Int`/`Bool` bits and whose upper half repeats
        // it, so each query interns at least 16 new nodes.
        let failing = |i: u32| {
            (0..32).fold("Unit".to_owned(), |t, k| {
                let bit = if (i >> (k % 16)) & 1 == 1 {
                    "Int"
                } else {
                    "Bool"
                };
                format!("({bit} * {t})")
            })
        };
        let mut i = 0;
        loop {
            assert!(
                i < 8_000,
                "{i} queries never grew the arena past the threshold"
            );
            let mut m = MetricsRegistry::new();
            let reply = resolve_op(&tenant.env, &policy, &failing(i), None, &mut m);
            assert_eq!(reply.str_field("error"), Some("unresolved"));
            i += 1;
            if tenant.end_request() {
                break;
            }
            let (types, _) = intern::arena_len();
            assert!(types <= base.0 + crate::TRIM_THRESHOLD + 64);
        }
        assert_eq!(intern::arena_len(), base, "trimmed back to the base");
        assert_eq!(answers(), before);
    }

    #[test]
    fn daemon_loopback_serves_all_ops() {
        let dir = std::env::temp_dir().join(format!(
            "implicitd-test-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let mut daemon = Daemon::start(DaemonConfig {
            cache_dir: Some(dir.clone()),
            ..DaemonConfig::default()
        })
        .expect("daemon starts");
        let mut c = Client::connect(daemon.addr()).expect("client connects");
        assert!(c.ping().unwrap());

        let prelude = prelude_source(&Prelude::chain(2));
        let load = c.open_prelude("t", &prelude, Backend::Vm).unwrap();
        assert_eq!(load, "cold");

        // Warm eval resolves against the chain prelude.
        let (value, ty) = c.eval("t", "?(Int * Int)").unwrap();
        assert_eq!(value, "(0, 1)");
        assert_eq!(ty, "Int * Int");

        let ty = c.typecheck("t", "\\x: Int. x").unwrap();
        assert_eq!(ty, "Int -> Int");

        let (steps, derivation) = c.resolve("t", "(Int * Int) * Int").unwrap();
        assert!(steps >= 1, "derivation has steps, got {steps}");
        assert!(!derivation.is_empty());

        // Structured error, not a dropped connection.
        let err = c.eval("t", "definitely not a program ((").unwrap_err();
        assert!(err.starts_with("parse_error"), "got {err}");
        let err = c.eval("t", "?([Int])").unwrap_err();
        assert!(err.starts_with("elab_error"), "got {err}");

        // Metrics render and carry the tenant.
        let m = c.metrics().unwrap();
        assert!(m.get("tenants").and_then(|t| t.get("t")).is_some());
        assert!(
            m.get("daemon")
                .and_then(|d| d.int_field("requests"))
                .unwrap_or(0)
                > 0
        );

        // Close flushes the artifact; re-open is an exact hit.
        c.close("t").unwrap();
        let load = c.open_prelude("t", &prelude, Backend::Vm).unwrap();
        assert_eq!(load, "exact");
        c.close("t").unwrap();

        c.shutdown().unwrap();
        daemon.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn frames_tenant_resolves_wild_style_rules() {
        let mut daemon = Daemon::start(DaemonConfig::default()).expect("daemon starts");
        let mut c = Client::connect(daemon.addr()).expect("client connects");
        c.open_frames(
            "w",
            &[vec!["Int".to_owned(), "forall a. {a} => [a]".to_owned()]],
        )
        .unwrap();
        let (steps, _) = c.resolve("w", "[Int]").unwrap();
        assert_eq!(steps, 2, "rule + base premise");
        let err = c.resolve("w", "Bool").unwrap_err();
        assert!(err.starts_with("unresolved"), "got {err}");
        // Non-resolve ops are rejected with a structured error.
        let err = c.eval("w", "unit").unwrap_err();
        assert!(err.starts_with("unsupported"), "got {err}");
        c.close("w").unwrap();
        daemon.shutdown();
    }
}
