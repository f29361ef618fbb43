#!/usr/bin/env bash
# Builds `p` and the benchmark harness, then runs the harness with the
# arguments given. See benchmark/README.md.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh [--seed N] [--seconds S] [--trace 1] [--rounds K] [--twice]
#   benchmark/run.sh compare BASE.json CHANGE.json
set -euo pipefail

cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"

# `p` comes from the root workspace, as a user builds it; the harness is
# a workspace of its own that shares the target directory, so the crates
# under test are compiled once.
cargo build --release --offline --quiet --bin p
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

export P_BENCHMARK_P_BIN="$CARGO_TARGET_DIR/release/p"
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
