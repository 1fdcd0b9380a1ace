//! The `conformance` CLI: sharded differential sweeps and corpus
//! replay.

use std::path::PathBuf;
use std::process::ExitCode;

use conformance::{replay, run, RunnerConfig};

const USAGE: &str = "\
conformance — differential conformance harness for the implicit calculus

USAGE:
    conformance [--shards N] [--seeds A..B] [--corpus DIR]
                [--report FILE] [--fail-on-divergence] [--wild]
                [--cache-dir DIR]
    conformance --replay FILE

OPTIONS:
    --shards N             worker threads (default: 4)
    --seeds A..B           seed range, half-open (default: 0..1000)
    --corpus DIR           persist divergence reproducers here
    --report FILE          write the JSON run report here
    --fail-on-divergence   exit non-zero if any divergence was found
    --wild                 production-shaped wild-mode sweep: per-seed
                           field-study environments (hundreds of rules,
                           Zipf head skew, conversion chains) resolved
                           by the logic and subtyping engines
    --cache-dir DIR        load-or-build the rehydrated-session leg's
                           prelude artifact through this on-disk store
                           (exercises the cross-process warm-start
                           path; without it the leg round-trips the
                           artifact in memory)
    --daemon               seventh oracle leg: start an in-process
                           implicitd, open one tenant per shard, and
                           serve every round-trippable program over
                           the framed wire protocol, comparing against
                           the in-process warm session
    --replay FILE          re-run the oracle on a corpus .imp file
    --help                 show this help
";

struct Cli {
    shards: usize,
    seed_lo: u64,
    seed_hi: u64,
    corpus: Option<PathBuf>,
    report: Option<PathBuf>,
    fail_on_divergence: bool,
    wild: bool,
    cache_dir: Option<PathBuf>,
    daemon: bool,
    replay: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        shards: 4,
        seed_lo: 0,
        seed_hi: 1000,
        corpus: None,
        report: None,
        fail_on_divergence: false,
        wild: false,
        cache_dir: None,
        daemon: false,
        replay: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--shards" => {
                cli.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
                if cli.shards == 0 {
                    return Err("--shards must be at least 1".into());
                }
            }
            "--seeds" => {
                let v = value("--seeds")?;
                let (a, b) = v
                    .split_once("..")
                    .ok_or_else(|| format!("--seeds expects A..B, got `{v}`"))?;
                cli.seed_lo = a.parse().map_err(|e| format!("--seeds lower bound: {e}"))?;
                cli.seed_hi = b.parse().map_err(|e| format!("--seeds upper bound: {e}"))?;
                if cli.seed_hi < cli.seed_lo {
                    return Err(format!("--seeds range is empty: {v}"));
                }
            }
            "--corpus" => cli.corpus = Some(PathBuf::from(value("--corpus")?)),
            "--report" => cli.report = Some(PathBuf::from(value("--report")?)),
            "--fail-on-divergence" => cli.fail_on_divergence = true,
            "--wild" => cli.wild = true,
            "--cache-dir" => cli.cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
            "--daemon" => cli.daemon = true,
            "--replay" => cli.replay = Some(PathBuf::from(value("--replay")?)),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &cli.replay {
        return match replay(path) {
            Ok(verdict) => {
                println!("{verdict}");
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("{msg}");
                ExitCode::FAILURE
            }
        };
    }

    let config = RunnerConfig {
        seed_lo: cli.seed_lo,
        seed_hi: cli.seed_hi,
        shards: cli.shards,
        corpus_dir: cli.corpus.clone(),
        gen: genprog::GenConfig::default(),
        wild: cli.wild,
        cache_dir: cli.cache_dir.clone(),
        daemon: cli.daemon,
    };
    let report = match run(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "{}seeds {}..{} over {} shard(s): {} oracle runs in {} ms wall \
         ({:.0} programs/sec, {:.2}x shard speedup), {} divergence(s)",
        if cli.wild { "wild-mode " } else { "" },
        report.seed_lo,
        report.seed_hi,
        report.shards,
        report.total_programs(),
        report.wall_ms,
        report.programs_per_sec(),
        report.speedup(),
        report.divergences.len(),
    );
    let legs = report.total_leg_timings();
    println!(
        "  per-leg cpu time: {}",
        legs.as_pairs()
            .iter()
            .filter_map(|(name, us)| {
                let leg = name.strip_suffix("_us")?;
                Some(format!("{leg} {:.1} ms", *us as f64 / 1000.0))
            })
            .collect::<Vec<_>>()
            .join(", ")
    );
    if cli.daemon {
        println!(
            "  daemon leg skipped {} seed(s): printed program did not parse",
            legs.daemon_skips
        );
    }
    for d in &report.divergences {
        println!(
            "  {}: seed {} shard {} — {} ({} -> {} nodes{})",
            d.kind,
            d.seed,
            d.shard,
            d.detail,
            d.original_nodes,
            d.minimized_nodes,
            if d.replayable { ", replayable" } else { "" }
        );
    }

    if let Some(path) = &cli.report {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("error: writing report {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("report written to {}", path.display());
    }
    if let Some(dir) = &cli.corpus {
        if !report.divergences.is_empty() {
            println!("corpus written to {}", dir.display());
        }
    }

    if cli.fail_on_divergence && !report.divergences.is_empty() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
