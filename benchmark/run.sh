#!/usr/bin/env bash
# The one command of the repo benchmark.
#
#   benchmark/run.sh [--seed N] [--quick]
#       builds, runs every workload in its own process (timed run, then
#       traced run), prints the table, writes benchmark/out/report.json,
#       and exits non-zero on any failed correctness check. --quick runs
#       1/100 of the ops: a smoke test of the harness, not for comparison.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of standard output is the
#       result object BENCHMARK.json describes.
#
# Builds --release --offline into benchmark/target, or into
# $CARGO_TARGET_DIR when that is set.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

# The run header: which code, which compiler.
rev="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [ "$rev" != unknown ] && [ -n "$(git -C "$here" status --porcelain 2>/dev/null)" ]; then
    rev="$rev-dirty"
fi
export GA_BENCH_GIT_REV="$rev"
export GA_BENCH_RUSTC="$(rustc -V)"

case " $* " in
    *" --workload "*) exec "$target/release/ga-benchmark" "$@" ;;
    *) exec "$target/release/ga-benchmark" all "$@" ;;
esac
