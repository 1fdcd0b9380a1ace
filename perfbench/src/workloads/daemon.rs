//! `daemon`: a spawned `implicitd --addr 127.0.0.1:0` under a closed
//! loop from two client connections with zero think time — the shape
//! of `implicitc --connect --jobs 2` and `conformance --daemon`, whose
//! callers wait for each reply.
//!
//! The mix: 45% `eval` of chain queries and 15% `eval` of 200-iteration
//! loops on a chain-12 prelude tenant, 39% `resolve` on a
//! `wild_workload(seed, field_study())` frames tenant (its 231-rule
//! scopes and 75% hot / 25% cold query schedule), and 1% `open` of a
//! fresh chain-12 tenant followed by `close` (the write path).

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use genprog::{rng, wild_workload, WildConfig};
use implicit_core::env::ImplicitEnv;
use implicit_core::parse::{parse_expr, parse_program, parse_rule_type};
use implicit_core::resolve::{resolve, ResolutionPolicy};
use implicit_pipeline::service::{
    parse_json, prelude_source, read_frame, write_frame, Client, Json,
};
use implicit_pipeline::{Backend, Prelude, Session};
use rand::RngCore;

use super::warm_batch::session_counters;
use super::{end_to_end, layer_metrics, ratio, Ctx, Layers, Replayed, Timed};
use crate::corpus::{daemon_chain, daemon_loop, DAEMON_DEPTH};
use crate::proc::Resident;
use crate::results::Report;
use crate::spans::Tracer;
use crate::stats::median;

const CLIENTS: usize = 2;
const TIMEOUT: Duration = Duration::from_secs(20);

/// A running `implicitd`. Dropping it shuts the daemon down through
/// the protocol and reaps the process (killing it if it hangs).
struct Daemon {
    process: Option<Resident>,
    addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Daemon {
    fn start(ctx: &Ctx) -> Result<Daemon, String> {
        let mut child = Command::new(&ctx.implicitd)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start implicitd: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let process = Resident { child };
        let (tx, rx) = mpsc::channel();
        // Reads the address line, then drains the pipe so the daemon
        // never blocks on a full one.
        let drain = std::thread::spawn(move || {
            let mut r = BufReader::new(stdout);
            let mut line = String::new();
            let _ = r.read_line(&mut line);
            let _ = tx.send(line);
            let _ = std::io::copy(&mut r, &mut std::io::sink());
        });
        let mut daemon = Daemon {
            process: Some(process),
            addr: String::new(),
            drain: Some(drain),
        };
        let line = rx
            .recv_timeout(TIMEOUT)
            .map_err(|_| "implicitd printed no address".to_owned())?;
        daemon.addr = line
            .trim()
            .strip_prefix("implicitd: listening on ")
            .ok_or_else(|| format!("unexpected implicitd banner `{}`", line.trim()))?
            .to_owned();
        Ok(daemon)
    }

    fn client(&self) -> Result<Client, String> {
        connect(&self.addr)
    }

    /// The daemon's peak resident set so far (`VmHWM`), in MiB.
    fn peak_rss_mb(&self) -> Result<f64, String> {
        let pid = self.process.as_ref().expect("running daemon").child.id();
        let path = format!("/proc/{pid}/status");
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().strip_suffix("kB"))
            .and_then(|kb| kb.trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM line"))
    }

    /// Reads the daemon counters, shuts it down, and reaps it.
    fn stop(mut self) -> Result<Json, String> {
        let mut c = self.client()?;
        let metrics = c.metrics()?;
        self.shutdown();
        Ok(metrics)
    }

    fn shutdown(&mut self) {
        if let Some(process) = self.process.take() {
            if let Ok(mut c) = self.client() {
                let _ = c.shutdown();
            }
            process.reap(TIMEOUT);
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// A client whose every reply must arrive within the timeout.
fn connect(addr: &str) -> Result<Client, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    c.stream()
        .set_read_timeout(Some(TIMEOUT))
        .map_err(|e| e.to_string())?;
    Ok(c)
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The wild frames tenant and each query's locally resolved answer.
struct Wild {
    frames: Vec<Vec<String>>,
    queries: Vec<(String, (i64, String))>,
}

impl Wild {
    fn new(seed: u64) -> Result<Wild, String> {
        let w = wild_workload(seed, &WildConfig::field_study());
        let mut frames: Vec<Vec<String>> = w
            .env
            .frames_innermost_first()
            .map(|(_, rules)| rules.iter().map(ToString::to_string).collect())
            .collect();
        frames.reverse();
        // The reference: the printed rules (what the daemon receives)
        // parsed back and resolved here, as the soak test does.
        let env = frames_env(&frames)?;
        let policy = ResolutionPolicy::paper();
        let queries = w
            .queries
            .iter()
            .map(|q| {
                let text = q.to_string();
                let parsed = parse_rule_type(&text).map_err(|e| e.to_string())?;
                let r = resolve(&env, &parsed, &policy).map_err(|e| format!("`{text}`: {e}"))?;
                Ok((text, (r.steps() as i64, r.explain())))
            })
            .collect::<Result<_, String>>()?;
        Ok(Wild { frames, queries })
    }
}

fn frames_env(frames: &[Vec<String>]) -> Result<ImplicitEnv, String> {
    let mut env = ImplicitEnv::new();
    for frame in frames {
        let rules = frame
            .iter()
            .map(|r| parse_rule_type(r).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        env.push(rules);
    }
    Ok(env)
}

/// What a request is and what its reply must say.
enum Kind {
    Eval {
        program: String,
        value: String,
    },
    Resolve {
        query: String,
        answer: (i64, String),
    },
    Open {
        tenant: String,
    },
}

struct Request {
    json: Json,
    kind: Kind,
}

fn s(text: &str) -> Json {
    Json::Str(text.to_owned())
}

/// One client's seeded request stream.
struct Schedule<'a> {
    rng: rand::rngs::StdRng,
    wild: &'a Wild,
    client: usize,
    n: usize,
}

impl Schedule<'_> {
    fn next_request(&mut self) -> Request {
        self.n += 1;
        let roll = self.rng.next_u64() % 100;
        let j = (self.rng.next_u64() % 1000) as i64;
        if roll < 60 {
            let (program, value) = if roll < 45 {
                daemon_chain(j)
            } else {
                daemon_loop(j)
            };
            Request {
                json: Json::obj(vec![
                    ("op", s("eval")),
                    ("tenant", s("chain")),
                    ("program", s(&program)),
                ]),
                kind: Kind::Eval { program, value },
            }
        } else if roll < 99 {
            // Each client walks the query schedule from its own offset.
            let qs = &self.wild.queries;
            let (query, answer) =
                qs[(self.n + self.client * qs.len() / CLIENTS) % qs.len()].clone();
            Request {
                json: Json::obj(vec![
                    ("op", s("resolve")),
                    ("tenant", s("wild")),
                    ("query", s(&query)),
                ]),
                kind: Kind::Resolve { query, answer },
            }
        } else {
            // One name per client, reopened each time: every open still
            // builds a fresh tenant, and the daemon's per-tenant metrics
            // table (which keeps closed tenants) stays short. With a new
            // name per open, the `metrics` reply would outgrow the 1 MiB
            // frame cap after a few thousand opens.
            let tenant = format!("open-{}", self.client);
            Request {
                json: Json::obj(vec![
                    ("op", s("open")),
                    ("tenant", s(&tenant)),
                    ("prelude", s(&chain_prelude())),
                    ("backend", s("vm")),
                ]),
                kind: Kind::Open { tenant },
            }
        }
    }
}

fn chain_prelude() -> String {
    prelude_source(&Prelude::chain(DAEMON_DEPTH))
}

fn ok(reply: &Json) -> bool {
    reply.get("ok").and_then(Json::as_bool) == Some(true)
}

/// Checks a reply against the request's reference answer.
fn verify(req: &Request, reply: &Json) -> Result<(), String> {
    let good = ok(reply)
        && match &req.kind {
            Kind::Eval { value, .. } => {
                reply.str_field("value") == Some(value) && reply.str_field("type") == Some("Int")
            }
            Kind::Resolve { answer, .. } => {
                reply.int_field("steps") == Some(answer.0)
                    && reply.str_field("derivation") == Some(answer.1.as_str())
            }
            Kind::Open { .. } => reply.str_field("load") == Some("cold"),
        };
    if good {
        Ok(())
    } else {
        Err(format!("{} → {}", req.json.render(), reply.render()))
    }
}

/// One answered request, kept for the traced replay.
struct Record {
    req: Request,
    reply: Json,
}

/// Drives one client for `requests` requests or until `deadline`;
/// returns latencies and, when `keep`, the requests with their
/// replies.
fn client_loop(
    mut c: Client,
    mut schedule: Schedule<'_>,
    requests: usize,
    deadline: Instant,
    keep: bool,
    report: &mut Report,
) -> (Vec<f64>, Vec<Record>) {
    let (mut latencies, mut records) = (Vec::new(), Vec::new());
    while latencies.len() < requests && Instant::now() < deadline {
        let req = schedule.next_request();
        let t = Instant::now();
        let reply = c.request(&req.json);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                // A broken connection ends this client's loop.
                report.check(Err(format!("transport: {e}")));
                break;
            }
        };
        report.check(verify(&req, &reply));
        latencies.push(ms);
        if let Kind::Open { tenant } = &req.kind {
            report.check(c.close(tenant));
        }
        if keep {
            records.push(Record { req, reply });
        }
    }
    (latencies, records)
}

/// Requests per connection in a lifetime's set-up.
const WARM_UP_REQUESTS: usize = 64;

/// One lifetime's set-up: starts a daemon, opens the mix's tenants,
/// connects the clients, and sends the same fixed requests
/// down every connection, one connection after the other. The fixed
/// warm-up matters: the daemon's peak resident set depends on which
/// requests its connection threads serve first, and with only a few
/// warm-up requests some seeded streams left it a quarter lower.
fn start_warm(ctx: &Ctx, wild: &Wild) -> Result<(Daemon, Vec<Client>), String> {
    let daemon = Daemon::start(ctx)?;
    let mut clients = (0..CLIENTS)
        .map(|_| daemon.client())
        .collect::<Result<Vec<_>, _>>()?;
    clients[0].open_prelude("chain", &chain_prelude(), Backend::Vm)?;
    clients[0].open_frames("wild", &wild.frames)?;
    let mut warm = Report::default();
    for c in &mut clients {
        let mut schedule = Schedule {
            rng: rng(0),
            wild,
            client: 0,
            n: 0,
        };
        for _ in 0..WARM_UP_REQUESTS {
            let req = schedule.next_request();
            let reply = c
                .request(&req.json)
                .map_err(|e| format!("warm-up request: {e}"))?;
            warm.check(verify(&req, &reply));
            if let Kind::Open { tenant } = &req.kind {
                c.close(tenant).map_err(|e| format!("warm-up close: {e}"))?;
            }
        }
    }
    match warm.failures.first() {
        Some(e) => Err(format!("warm-up request failed: {e}")),
        None => Ok((daemon, clients)),
    }
}

/// Requests (both connections together) in one daemon lifetime:
/// about two seconds on a 2-CPU host, so a run holds several lifetimes.
const REQUESTS: usize = 16_000;

/// Runs the workload.
///
/// A run is a series of daemon lifetimes. Each starts a fresh
/// `implicitd` (its set-up), sends its own seeded request streams for
/// a fixed number of requests, reads the daemon's peak resident set,
/// and shuts it down. The daemon's memory and speed change as it
/// serves, so fixing the request count keeps every lifetime, and every
/// commit's lifetimes, at the same age. The metrics are medians over
/// lifetimes. A new lifetime starts only while the last one's length
/// still fits in the time budget.
pub fn run(ctx: &Ctx, report: &mut Report, layers: &mut Layers) -> Result<(), String> {
    let wild = Wild::new(ctx.seed)?;
    // The repeated set-up leaves the first lifetime's daemon running;
    // each later lifetime's set-up is timed as well.
    let (mut setups, first) = ctx.setup(&mut |_| start_warm(ctx, &wild))?;
    let mut first = Some(first);
    let start = Instant::now();
    let deadline = start + ctx.e2e_budget();
    // Lifetimes end by request count; this only stops a daemon so slow
    // that one lifetime would overrun the budget twice over.
    let hard_stop = deadline + ctx.e2e_budget();
    let keep = ctx.trace;
    let (mut lifetimes, mut rss) = (Vec::<Timed>::new(), Vec::new());
    let (mut latencies, mut records) = (Vec::new(), Vec::new());
    let mut counters = [0.0; 3];
    loop {
        let last = lifetimes.last().map_or(0.0, |l| l.elapsed_s);
        if !lifetimes.is_empty() && Instant::now() + Duration::from_secs_f64(last) > deadline {
            break;
        }
        let (daemon, clients) = match first.take() {
            Some(warm) => warm,
            None => {
                let t = Instant::now();
                let warm = start_warm(ctx, &wild)?;
                setups.push(t.elapsed().as_secs_f64());
                warm
            }
        };
        let lifetime_start = Instant::now();
        let share = REQUESTS / clients.len();
        let per_client: Vec<(Vec<f64>, Vec<Record>, Report)> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .into_iter()
                .enumerate()
                .map(|(client, c)| {
                    let schedule = Schedule {
                        rng: rng(ctx.seed
                            ^ ((lifetimes.len() as u64) << 32)
                            ^ (0xD43_0000 + client as u64)),
                        wild: &wild,
                        client,
                        n: 0,
                    };
                    scope.spawn(move || {
                        let mut r = Report::default();
                        let (l, recs) = client_loop(c, schedule, share, hard_stop, keep, &mut r);
                        (l, recs, r)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut timed = Timed {
            elapsed_s: lifetime_start.elapsed().as_secs_f64(),
            ..Timed::default()
        };
        rss.push(daemon.peak_rss_mb()?);
        let c = daemon.stop().map_err(|e| format!("daemon metrics: {e}"))?;
        for (slot, name) in counters
            .iter_mut()
            .zip(["rejected_overload", "errors", "panics"])
        {
            *slot += c.get("daemon").and_then(|d| d.int_field(name)).unwrap_or(0) as f64;
        }
        for (l, recs, r) in per_client {
            timed.latencies_ms.extend(l);
            records.extend(recs);
            report.attempted += r.attempted;
            report.failed += r.failed;
            report.failures.extend(r.failures);
        }
        timed.work = timed.latencies_ms.len() as f64;
        latencies.extend_from_slice(&timed.latencies_ms);
        lifetimes.push(timed);
    }
    if !ctx.trace {
        end_to_end(report, &setups, &lifetimes, median(&rss));
        return Ok(());
    }

    for (metric, value) in [
        "pipeline.service.rejected_overload",
        "pipeline.service.errors",
        "pipeline.service.panics",
    ]
    .into_iter()
    .zip(counters)
    {
        layers.insert(metric, value);
    }
    replay_all(ctx, report, layers, &records, &wild, &latencies, start)
}

/// The client- and server-side JSON work of one round trip: the
/// client renders the request and parses the reply, the daemon parses
/// the request and renders the reply. Returns both wire texts.
fn json_round_trip(t: &Tracer, rec: &Record) -> Result<(String, String), String> {
    t.span("pipeline.service.json", || {
        let req_text = rec.req.json.render();
        parse_json(&req_text)?;
        let reply_text = rec.reply.render();
        parse_json(&reply_text)?;
        Ok((req_text, reply_text))
    })
}

/// Both frames of one round trip, through an in-memory buffer.
fn frame_round_trip(t: &Tracer, req: &str, reply: &str) -> Result<(), String> {
    t.span("pipeline.service.frame", || {
        for payload in [req, reply] {
            let mut wire = Vec::with_capacity(payload.len() + 4);
            write_frame(&mut wire, payload.as_bytes()).map_err(|e| e.to_string())?;
            let back = read_frame(&mut wire.as_slice()).map_err(|e| e.to_string())?;
            if back.len() != payload.len() {
                return Err("frame round trip lost bytes".to_owned());
            }
        }
        Ok(())
    })
}

/// Replays the recorded requests in process: JSON, framing, and the
/// same operation against a local warm `Session` (evals), a local
/// frames environment (resolves), or a fresh session build (opens).
/// The three request kinds replay one group after another, so only
/// one session is ever live on this thread.
fn replay_all(
    ctx: &Ctx,
    report: &mut Report,
    layers: &mut Layers,
    records: &[Record],
    wild: &Wild,
    e2e_ms: &[f64],
    start: Instant,
) -> Result<(), String> {
    let t = &ctx.tracer;
    let policy = ResolutionPolicy::paper();
    let mut replayed = Replayed::default();
    let end = start + Duration::from_secs_f64(ctx.seconds);
    let group = |want: fn(&Kind) -> bool| {
        records
            .iter()
            .enumerate()
            .filter(move |(_, r)| want(&r.req.kind))
            .map(|(i, r)| (i as u64, r))
    };
    let evals = group(|k| matches!(k, Kind::Eval { .. }));
    let resolves = group(|k| matches!(k, Kind::Resolve { .. }));
    let opens = group(|k| matches!(k, Kind::Open { .. }));
    let share = |n: usize| {
        let left = end.saturating_duration_since(Instant::now());
        Instant::now() + left.mul_f64(n as f64 / records.len().max(1) as f64)
    };

    // Evals against a warm chain-12 session.
    let mut cache = (0u64, 0u64);
    {
        let (decls, expr) = parse_program(&chain_prelude()).map_err(|e| e.to_string())?;
        let prelude = Prelude::from_wrapped(&expr)?;
        let mut session = Session::new_configured_isa(
            &decls,
            policy.clone(),
            &prelude,
            true,
            false,
            systemf::Isa::Register,
        )
        .map_err(|e| e.to_string())?;
        let n = evals.clone().count();
        replayed.run(ctx, report, share(n), evals, |rec, on| {
            let (req_text, reply_text) = json_round_trip(t, rec)?;
            frame_round_trip(t, &req_text, &reply_text)?;
            let Kind::Eval { program, value } = &rec.req.kind else {
                unreachable!("eval group")
            };
            session.set_trace(on.then(|| t.sink()));
            let out = t.span("pipeline.service.execute", || {
                let e = t
                    .span("core.parse", || parse_expr(program))
                    .map_err(|e| e.to_string())?;
                session
                    .run_with_backend(&e, Backend::Vm)
                    .map_err(|e| e.to_string())
            });
            session.set_trace(None);
            match out {
                Ok(o) if o.value.to_string() == *value => Ok(()),
                Ok(o) => Err(format!("replay of `{program}` gave {}", o.value)),
                Err(e) => Err(e),
            }
        });
        let m = session.metrics();
        session_counters(&m, layers);
        cache = (cache.0 + m.cache_hits, cache.1 + m.cache_misses);
    }

    // Resolves against the wild frames.
    {
        let env = frames_env(&wild.frames)?;
        let n = resolves.clone().count();
        replayed.run(ctx, report, share(n), resolves, |rec, _| {
            let (req_text, reply_text) = json_round_trip(t, rec)?;
            frame_round_trip(t, &req_text, &reply_text)?;
            let Kind::Resolve { query, answer } = &rec.req.kind else {
                unreachable!("resolve group")
            };
            let r = t.span("pipeline.service.execute", || {
                let q = t
                    .span("core.parse", || parse_rule_type(query))
                    .map_err(|e| e.to_string())?;
                t.span("core.resolve", || {
                    resolve(&env, &q, &policy).map_err(|e| e.to_string())
                })
            })?;
            if (r.steps() as i64, r.explain()) == *answer {
                Ok(())
            } else {
                Err(format!("replay of `{query}` resolved differently"))
            }
        });
        let c = env.cache_counters();
        cache = (cache.0 + c.hits, cache.1 + c.misses);
    }

    // Opens: a fresh session per request, dropped at once (`close`).
    replayed.run(ctx, report, end, opens, |rec, _| {
        let (req_text, reply_text) = json_round_trip(t, rec)?;
        frame_round_trip(t, &req_text, &reply_text)?;
        t.span("pipeline.service.execute", || {
            let (decls, expr) = t
                .span("core.parse", || parse_program(&chain_prelude()))
                .map_err(|e| e.to_string())?;
            let prelude = Prelude::from_wrapped(&expr)?;
            t.span("pipeline.session.build", || {
                Session::new_configured_isa(
                    &decls,
                    policy.clone(),
                    &prelude,
                    true,
                    false,
                    systemf::Isa::Register,
                )
                .map(drop)
                .map_err(|e| e.to_string())
            })
        })
    });

    let times = layer_metrics(ctx, &replayed, layers);
    layers.insert(
        "pipeline.service.json_us",
        times.median_self_ns("pipeline.service.json") * 1e-3,
    );
    layers.insert(
        "pipeline.service.frame_us",
        times.median_self_ns("pipeline.service.frame") * 1e-3,
    );
    layers.insert(
        "pipeline.service.execute_us",
        times.median_inclusive_ns("pipeline.service.execute") * 1e-3,
    );
    layers.insert(
        "pipeline.service.transport_queue_us",
        replayed.outside_ms(e2e_ms) * 1e3,
    );
    layers.insert("core.resolve.cache_hit_ratio", ratio(cache.0, cache.1));
    Ok(())
}
