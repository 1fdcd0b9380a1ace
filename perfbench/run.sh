#!/usr/bin/env bash
# Builds the shipped binaries and the benchmark from source, then runs
# the benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload cold-cli --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --compare a.jsonl b.jsonl
#
# Both builds share one target directory (CARGO_TARGET_DIR, default
# `target`), where the benchmark finds `release/implicitc` and
# `release/implicitd`.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --offline --manifest-path Cargo.toml --bin implicitc --bin implicitd
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml
# Not `exec`: the benchmark must start with no finished children on
# its account, since it reports the peak RSS of the ones it runs.
"$CARGO_TARGET_DIR/release/perfbench" "$@"
