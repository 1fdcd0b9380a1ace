//! `implicitd` — the resident resolution/compile daemon.
//!
//! Serves parse/typecheck/resolve/eval requests over a localhost TCP
//! socket using the length-prefixed JSON protocol of
//! [`implicit_pipeline::service`] (DESIGN.md §S32). Tenants are named
//! warm sessions: one compiled prelude each, loaded through the
//! on-disk artifact store's exact/incremental/cold ladder when
//! `--cache-dir` is given, every request a copy-on-write extension
//! that rolls back afterwards.
//!
//! ```text
//! implicitd --addr 127.0.0.1:7878 --cache-dir .implicit-cache &
//! implicitc --connect 127.0.0.1:7878 --prelude prelude.imp --batch programs/
//! ```
//!
//! Drive it with `implicitc --connect`, or speak the protocol
//! directly: each frame is a 4-byte big-endian length followed by one
//! JSON object (`{"op":"ping"}`, `{"op":"open","tenant":…,
//! "prelude":…}`, `{"op":"eval","tenant":…,"program":…}`, …).

use std::process::ExitCode;

use implicit_core::counters::Counter;
use implicit_pipeline::service::{Daemon, DaemonConfig};

const USAGE: &str = "usage: implicitd [options]

options:
  --addr HOST:PORT     bind address (default 127.0.0.1:7878; port 0 = ephemeral)
  --cache-dir DIR      artifact store for tenant preludes (exact/incremental/cold ladder)
  --max-tenants N      tenant capacity; further opens get `tenants_exhausted` (default 8)
  --queue-cap N        per-tenant admission queue depth; a full queue
                       rejects with `overloaded` (default 64)
  --no-fusion          disable superinstruction fusion in tenant sessions
  --dict-ic            enable the dictionary inline cache in tenant sessions
  --help               this text

The daemon serves until a client sends {\"op\":\"shutdown\"}.";

fn main() -> ExitCode {
    let mut config = DaemonConfig {
        addr: "127.0.0.1:7878".to_owned(),
        ..DaemonConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let r: Result<(), String> = (|| {
            match arg.as_str() {
                "--addr" => config.addr = value("--addr")?,
                "--cache-dir" => config.cache_dir = Some(value("--cache-dir")?.into()),
                "--max-tenants" => {
                    config.max_tenants = value("--max-tenants")?
                        .parse()
                        .map_err(|e| format!("--max-tenants: {e}"))?
                }
                "--queue-cap" => {
                    config.queue_cap = value("--queue-cap")?
                        .parse()
                        .map_err(|e| format!("--queue-cap: {e}"))?
                }
                "--no-fusion" => config.fusion = false,
                "--dict-ic" => config.dict_ic = true,
                "--help" | "-h" => {
                    println!("{USAGE}");
                    std::process::exit(0);
                }
                other => return Err(format!("unknown option `{other}`\n{USAGE}")),
            }
            Ok(())
        })();
        if let Err(e) = r {
            eprintln!("implicitd: {e}");
            return ExitCode::FAILURE;
        }
    }

    let mut daemon = match Daemon::start(config) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("implicitd: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The smoke harness greps for this line and parses the address
    // out of it (the port may be ephemeral).
    println!("implicitd: listening on {}", daemon.addr());
    daemon.wait();
    let c = daemon.counters();
    println!(
        "implicitd: stopped ({} connections, {} requests, {} ok, {} errors)",
        c.connections.get(),
        c.requests.get(),
        c.ok.get(),
        c.errors.get(),
    );
    ExitCode::SUCCESS
}
