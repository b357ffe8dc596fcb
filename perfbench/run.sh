#!/usr/bin/env bash
# Builds the benchmark from source, then runs it with the arguments given:
#
#   bash perfbench/run.sh --workload engine_high --seed 42 --seconds 15 --trace 0
#
# The build goes to $CARGO_TARGET_DIR (default .bench_build) and its output
# to stderr, so the last line on stdout is the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml >&2
# A fixed mmap threshold turns off glibc's dynamic one, which otherwise
# makes the peak resident set depend on the order of large frees (seen as
# a 90-105 MiB spread across seeds on fleet4_affinity) instead of on what
# the simulator keeps alive. Other allocators ignore the variable.
export GLIBC_TUNABLES=glibc.malloc.mmap_threshold=131072
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
