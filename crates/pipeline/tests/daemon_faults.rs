//! Fault injection against a live `implicitd` daemon: malformed and
//! truncated frames, oversized payload declarations, mid-request
//! disconnects, fuel/deadline exhaustion, and a poisoned (panicking)
//! request. Every fault must come back as a structured error (or a
//! clean hangup) — never a daemon crash — and must leave no state
//! behind: the same tenant answers the same query identically before
//! and after every fault, pinned by derivation and metrics checks.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use implicit_pipeline::service::{
    error_json, prelude_source, Client, Daemon, DaemonConfig, Json, MAX_FRAME,
};
use implicit_pipeline::Backend;
use implicit_pipeline::Prelude;

fn daemon(poison: bool) -> Daemon {
    Daemon::start(DaemonConfig {
        enable_poison: poison,
        ..DaemonConfig::default()
    })
    .expect("daemon binds an ephemeral port")
}

fn open_chain(client: &mut Client, tenant: &str) {
    let load = client
        .open_prelude(tenant, &prelude_source(&Prelude::chain(3)), Backend::Vm)
        .expect("tenant opens");
    assert_eq!(load, "cold");
}

/// The canonical probe: resolves through the chain prelude, returning
/// `(value, type)` — identical before and after every fault.
fn probe(client: &mut Client, tenant: &str) -> (String, String) {
    client
        .eval(tenant, "?(Int * Int)")
        .expect("probe query resolves on a healthy tenant")
}

/// Reads one daemon counter via the metrics document.
fn counter(client: &mut Client, name: &str) -> i64 {
    let m = client.metrics().expect("metrics");
    m.get("daemon")
        .and_then(|d| d.int_field(name))
        .unwrap_or_else(|| panic!("counter `{name}` missing from {}", m.render()))
}

/// The tenant's resolution derivation — structural rollback witness.
fn derivation(client: &mut Client, tenant: &str) -> String {
    let (steps, derivation) = client
        .resolve(tenant, "Int * Int")
        .expect("probe resolution succeeds");
    assert!(steps >= 1);
    derivation
}

#[test]
fn malformed_json_gets_a_structured_error_and_the_stream_stays_usable() {
    let d = daemon(false);
    let mut c = Client::connect(d.addr()).unwrap();
    open_chain(&mut c, "t");
    let before = probe(&mut c, "t");

    // A well-formed frame carrying garbage: the daemon replies
    // `bad_frame` and keeps the connection (framing is still in
    // sync).
    let garbage = b"this is not json {{{";
    let mut frame = (garbage.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(garbage);
    c.stream().write_all(&frame).unwrap();
    let resp = read_response(c.stream());
    assert_eq!(
        resp.str_field("error"),
        Some("bad_frame"),
        "{}",
        resp.render()
    );

    // Same connection, next request: unaffected.
    assert_eq!(probe(&mut c, "t"), before);

    // Valid JSON that is not an object is also a bad frame, not a
    // panic.
    let payload = b"[1,2,3]";
    let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(payload);
    c.stream().write_all(&frame).unwrap();
    let resp = read_response(c.stream());
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(probe(&mut c, "t"), before);

    // An unknown op on a valid object is a structured bad_request.
    let r = c
        .request(&Json::obj(vec![("op", Json::Str("frobnicate".into()))]))
        .unwrap();
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(probe(&mut c, "t"), before);
    // So is an open naming a backend that does not exist.
    let r = c
        .request(&Json::obj(vec![
            ("op", Json::Str("open".into())),
            ("tenant", Json::Str("u".into())),
            ("prelude", Json::Str(prelude_source(&Prelude::chain(3)))),
            ("backend", Json::Str("vm-stack".into())),
        ]))
        .unwrap();
    assert_eq!(r.str_field("error"), Some("bad_request"), "{}", r.render());
    assert_eq!(probe(&mut c, "t"), before);
    // Only the unparseable frame counts as a bad frame; the JSON
    // array and the unknown op are protocol-level bad_requests.
    assert!(counter(&mut c, "bad_frames") >= 1);
}

/// Reads one length-prefixed response off a raw stream.
fn read_response(stream: &mut TcpStream) -> Json {
    use std::io::Read;
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).expect("response header");
    let len = u32::from_be_bytes(len) as usize;
    let mut buf = vec![0u8; len];
    stream.read_exact(&mut buf).expect("response payload");
    implicit_pipeline::service::parse_json(std::str::from_utf8(&buf).unwrap()).unwrap()
}

#[test]
fn truncated_frames_close_the_connection_but_not_the_daemon() {
    let d = daemon(false);
    let mut warm = Client::connect(d.addr()).unwrap();
    open_chain(&mut warm, "t");
    let before = probe(&mut warm, "t");

    // Half a header, then hang up.
    let mut s = TcpStream::connect(d.addr()).unwrap();
    s.write_all(&[0x00, 0x00]).unwrap();
    drop(s);

    // A full header promising more payload than ever arrives.
    let mut s = TcpStream::connect(d.addr()).unwrap();
    s.write_all(&1000u32.to_be_bytes()).unwrap();
    s.write_all(b"only a few bytes").unwrap();
    drop(s);

    // The resident tenant is untouched and the daemon still accepts.
    assert_eq!(probe(&mut warm, "t"), before);
    let mut fresh = Client::connect(d.addr()).unwrap();
    assert!(fresh.ping().unwrap());
    // Each truncated frame is counted on its own connection's thread,
    // which nothing here waits for: poll until the count shows.
    let deadline = Instant::now() + Duration::from_secs(10);
    while counter(&mut warm, "bad_frames") < 1 {
        assert!(Instant::now() < deadline, "no truncated frame was counted");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn oversized_frame_declarations_are_rejected_before_allocation() {
    let d = daemon(false);
    let mut warm = Client::connect(d.addr()).unwrap();
    open_chain(&mut warm, "t");
    let before = probe(&mut warm, "t");

    // Declare a frame far beyond MAX_FRAME (and beyond any sane
    // allocation): the daemon must reply `oversized_frame` without
    // ever allocating the declared length — `wire::cap` bounds the
    // pre-allocation and the oversize check fires before the body is
    // read at all.
    for declared in [(MAX_FRAME + 1) as u32, u32::MAX] {
        let mut s = TcpStream::connect(d.addr()).unwrap();
        s.write_all(&declared.to_be_bytes()).unwrap();
        // Best-effort error frame before close; the daemon cannot
        // resync after an oversized header, so the stream ends here.
        let resp = read_response(&mut s);
        assert_eq!(
            resp.str_field("error"),
            Some("oversized_frame"),
            "declared {declared}: {}",
            resp.render()
        );
    }
    assert_eq!(probe(&mut warm, "t"), before);
    assert!(counter(&mut warm, "oversized_frames") >= 2);

    // Client-side symmetry: `write_frame` refuses to send oversized
    // payloads instead of letting the daemon reject them.
    let huge = "x".repeat(MAX_FRAME + 1);
    let mut sink = Vec::new();
    let err = implicit_pipeline::service::write_frame(&mut sink, huge.as_bytes());
    assert!(err.is_err());
    assert!(sink.is_empty(), "oversized frame partially written");
}

#[test]
fn mid_request_disconnect_leaves_the_tenant_serving() {
    let d = daemon(false);
    let mut warm = Client::connect(d.addr()).unwrap();
    open_chain(&mut warm, "t");
    let before = probe(&mut warm, "t");
    let derivation_before = derivation(&mut warm, "t");

    // Send a valid request on its own connection, then vanish before
    // reading the reply. The tenant still runs the job; the write of
    // the response fails harmlessly.
    for _ in 0..4 {
        let mut s = TcpStream::connect(d.addr()).unwrap();
        let req = Json::obj(vec![
            ("op", Json::Str("eval".into())),
            ("tenant", Json::Str("t".into())),
            ("program", Json::Str("?(Int * Int)".into())),
        ])
        .render();
        let mut frame = (req.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(req.as_bytes());
        s.write_all(&frame).unwrap();
        drop(s);
    }

    // State pinned: same value, same derivation, daemon alive.
    assert_eq!(probe(&mut warm, "t"), before);
    assert_eq!(derivation(&mut warm, "t"), derivation_before);
}

#[test]
fn fuel_and_deadline_budgets_come_back_as_structured_errors() {
    let d = daemon(false);
    let mut c = Client::connect(d.addr()).unwrap();
    open_chain(&mut c, "t");
    let before = probe(&mut c, "t");

    // Opsem with a 1-step budget on a query that needs real work.
    let r = c
        .request(&Json::obj(vec![
            ("op", Json::Str("opsem".into())),
            ("tenant", Json::Str("t".into())),
            ("program", Json::Str("?(Int * Int)".into())),
            ("fuel", Json::Int(1)),
        ]))
        .unwrap();
    assert_eq!(
        r.str_field("error"),
        Some("fuel_exhausted"),
        "{}",
        r.render()
    );

    // The same program under the default budget succeeds — the
    // exhausted attempt left no residue.
    let r = c
        .request(&Json::obj(vec![
            ("op", Json::Str("opsem".into())),
            ("tenant", Json::Str("t".into())),
            ("program", Json::Str("?(Int * Int)".into())),
        ]))
        .unwrap();
    assert_eq!(
        r.get("ok").and_then(Json::as_bool),
        Some(true),
        "{}",
        r.render()
    );

    // A zero deadline expires at dequeue: the job is shed, not run.
    let r = c
        .request(&Json::obj(vec![
            ("op", Json::Str("eval".into())),
            ("tenant", Json::Str("t".into())),
            ("program", Json::Str("?(Int * Int)".into())),
            ("deadline_ms", Json::Int(0)),
        ]))
        .unwrap();
    assert_eq!(
        r.str_field("error"),
        Some("deadline_exceeded"),
        "{}",
        r.render()
    );
    assert!(counter(&mut c, "expired_deadline") >= 1);
    assert_eq!(probe(&mut c, "t"), before);
}

#[test]
fn poisoned_request_is_contained_and_rolls_back() {
    let d = daemon(true);
    let mut c = Client::connect(d.addr()).unwrap();
    open_chain(&mut c, "t");
    let before = probe(&mut c, "t");
    let derivation_before = derivation(&mut c, "t");
    let requests_before = counter(&mut c, "requests");

    // The poison op panics inside the tenant thread mid-request; the
    // daemon catches it, counts it, rolls the session back, and keeps
    // the tenant.
    let r = c
        .request(&Json::obj(vec![
            ("op", Json::Str("poison".into())),
            ("tenant", Json::Str("t".into())),
        ]))
        .unwrap();
    assert_eq!(
        r.str_field("error"),
        Some("internal_panic"),
        "{}",
        r.render()
    );
    assert!(counter(&mut c, "panics") >= 1);

    // Rollback isolation, pinned three ways: the probe value, the
    // resolution derivation, and forward-moving (not reset) counters.
    assert_eq!(probe(&mut c, "t"), before);
    assert_eq!(derivation(&mut c, "t"), derivation_before);
    assert!(counter(&mut c, "requests") > requests_before);

    // The tenant also still accepts *new* work after the panic.
    let ty = c.typecheck("t", "\\x: Int. x").unwrap();
    assert_eq!(ty, "Int -> Int");
}

#[test]
fn poison_is_gated_off_by_default() {
    let d = daemon(false);
    let mut c = Client::connect(d.addr()).unwrap();
    open_chain(&mut c, "t");
    let r = c
        .request(&Json::obj(vec![
            ("op", Json::Str("poison".into())),
            ("tenant", Json::Str("t".into())),
        ]))
        .unwrap();
    assert_eq!(r.str_field("error"), Some("bad_request"), "{}", r.render());
}

#[test]
fn poisoned_program_never_panics_the_daemon_even_under_repeats() {
    let d = daemon(true);
    let mut c = Client::connect(d.addr()).unwrap();
    open_chain(&mut c, "t");
    let before = probe(&mut c, "t");
    for _ in 0..8 {
        let r = c
            .request(&Json::obj(vec![
                ("op", Json::Str("poison".into())),
                ("tenant", Json::Str("t".into())),
            ]))
            .unwrap();
        assert_eq!(r.str_field("error"), Some("internal_panic"));
        assert_eq!(probe(&mut c, "t"), before);
    }
    assert!(counter(&mut c, "panics") >= 8);
    let _ = error_json("smoke", "error_json is exported for harnesses");
}

#[test]
fn deeply_nested_programs_are_parse_errors_not_stack_overflows() {
    let d = daemon(false);
    let mut c = Client::connect(d.addr()).unwrap();
    open_chain(&mut c, "t");
    let before = probe(&mut c, "t");
    let n = 20_000;
    let parens = format!("{}1{}", "(".repeat(n), ")".repeat(n));
    let sum = vec!["1"; 100_000].join(" + ");
    for program in [parens, sum] {
        assert!(program.len() < MAX_FRAME, "{} bytes", program.len());
        let r = c
            .request(&Json::obj(vec![
                ("op", Json::Str("eval".into())),
                ("tenant", Json::Str("t".into())),
                ("program", Json::Str(program)),
            ]))
            .unwrap();
        assert_eq!(r.str_field("error"), Some("parse_error"), "{}", r.render());
        let detail = r.render();
        assert!(detail.contains("nesting deeper than 1024"), "{detail}");
        assert_eq!(probe(&mut c, "t"), before);
    }
    assert_eq!(counter(&mut c, "panics"), 0);
}

#[test]
fn deep_recursion_is_an_evaluation_error_not_a_stack_overflow() {
    // Well typed and within fuel, but `sum`'s and `range`'s non-tail
    // recursions nest about 300,000 evaluation levels deep: the
    // tree-walking evaluator and the operational semantics used to
    // recurse until the tenant thread's stack overflowed, aborting
    // the daemon and every tenant with it.
    let program = "let range : Int -> [Int] = fix go : Int -> [Int]. \\n : Int. \
                   if n <= 0 then nil [Int] else n :: go (n - 1) in \
                   let sum : [Int] -> Int = fix s : [Int] -> Int. \\xs : [Int]. \
                   case xs of nil -> 0 | h :: t -> h + s t in sum (range 100000)";
    let d = daemon(false);
    let mut c = Client::connect(d.addr()).unwrap();
    open_chain(&mut c, "chain");
    let before = probe(&mut c, "chain");
    let load = c.open_prelude("t", "unit", Backend::Tree).unwrap();
    assert_eq!(load, "cold");
    for (op, code) in [("eval", "eval_error"), ("opsem", "opsem_error")] {
        let r = c
            .request(&Json::obj(vec![
                ("op", Json::Str(op.into())),
                ("tenant", Json::Str("t".into())),
                ("program", Json::Str(program.into())),
            ]))
            .unwrap();
        assert_eq!(r.str_field("error"), Some(code), "{}", r.render());
        let detail = r.render();
        assert!(detail.contains("evaluation nested deeper than"), "{detail}");
        assert_eq!(c.eval("t", "40 + 2").unwrap(), ("42".into(), "Int".into()));
        assert_eq!(probe(&mut c, "chain"), before);
    }
    assert_eq!(counter(&mut c, "panics"), 0);
}
