//! Pins the daemon's `resolve` replies (`steps` and the `derivation`
//! text) on a chain-12 prelude tenant and on a `wild_workload` frames
//! tenant. Clients compare these replies with a local `resolve`, so
//! the text — scope numbers counted from the innermost frame — must
//! not move, whether a derivation is derived afresh or served from
//! the tenant's derivation cache.

use genprog::{wild_workload, WildConfig};
use implicit_core::wire::fnv64;
use implicit_pipeline::service::{prelude_source, Client, Daemon, DaemonConfig};
use implicit_pipeline::{Backend, Prelude};

fn t(n: usize) -> String {
    Prelude::chain_head(n).to_string()
}

#[test]
fn chain_tenant_resolve_replies_are_pinned() {
    let mut daemon = Daemon::start(DaemonConfig::default()).expect("daemon starts");
    let mut c = Client::connect(daemon.addr()).expect("client connects");
    c.open_prelude("chain", &prelude_source(&Prelude::chain(12)), Backend::Vm)
        .expect("chain tenant opens");
    let queries = [
        t(3),
        t(12),
        t(0),
        t(3),
        format!("{{{}}} => {}", t(2), t(5)),
        t(12),
    ];
    let replies: Vec<String> = queries
        .iter()
        .map(|q| {
            let (steps, derivation) = c.resolve("chain", q).expect("chain query resolves");
            format!("{steps}\n{derivation}")
        })
        .collect();
    let want_t3 = "4\n\
        ((Int * Int) * Int) * Int  ⇐ rule #0 of scope 9\n  \
        (Int * Int) * Int  ⇐ rule #0 of scope 10\n    \
        Int * Int  ⇐ rule #0 of scope 11\n      \
        Int  ⇐ rule #0 of scope 12\n";
    assert_eq!(replies[0], want_t3);
    assert_eq!(replies[3], want_t3, "a cache hit replies as a fresh search");
    assert_eq!(replies[2], "1\nInt  ⇐ rule #0 of scope 12\n");
    assert_eq!(replies[1], replies[5]);
    assert!(replies[1].starts_with("13\n"), "{}", replies[1]);
    let all = replies.concat();
    assert_eq!(fnv64(all.as_bytes()), 0x5a5b_9260_5ae2_b71d, "{all}");
    c.shutdown().expect("shutdown");
    daemon.wait();
}

#[test]
fn wild_frames_tenant_resolve_replies_are_pinned() {
    let w = wild_workload(9_001, &WildConfig::field_study());
    let mut frames: Vec<Vec<String>> = w
        .env
        .frames_innermost_first()
        .map(|(_, rules)| rules.iter().map(ToString::to_string).collect())
        .collect();
    frames.reverse();
    let mut daemon = Daemon::start(DaemonConfig::default()).expect("daemon starts");
    let mut c = Client::connect(daemon.addr()).expect("client connects");
    c.open_frames("wild", &frames).expect("wild tenant opens");
    let mut all = String::new();
    let mut resolved = 0;
    for q in w.queries.iter().take(60) {
        match c.resolve("wild", &q.to_string()) {
            Ok((steps, derivation)) => {
                resolved += 1;
                all.push_str(&format!("{steps}\n{derivation}"));
            }
            Err(e) => all.push_str(&format!("error: {e}\n")),
        }
    }
    assert_eq!(resolved, 32, "{all}");
    assert_eq!(fnv64(all.as_bytes()), 0xd222_b6c5_41b6_cd09, "{all}");
    c.shutdown().expect("shutdown");
    daemon.wait();
}
