#!/usr/bin/env bash
# Runs the message-substrate microbenches and records the perf snapshot
# (BENCH_substrate.json at the repo root) that future PRs compare against.
#
# The snapshot contains, among others:
#   substrate/step_loop_bytes/n64        — zero-copy steady-state step
# plus the scaling series:
#   substrate/step_loop_bytes/n{256,1024}   — serial large-n step loops
#   substrate/step_loop_sharded/n1024s{1,2,4} — intra-run sharded variants
# whose ratio vs the serial n1024 row is the sharding speedup (bounded by
# the host's core count; s2/s4 ≈ s1 on a single-core machine), and
#   substrate/step_loop_pooled/n{64,256}s4  — small-n sharding on an
# explicit persistent Runtime pool, recording the win the old per-round
# thread::scope spawn overhead previously ate at these populations, and
#   substrate/step_loop_events/n64          — the same n=64 step loop with
# the telemetry event sink attached (one event per delivered message);
# its ratio vs step_loop_bytes/n64 is the cost of turning events on, and
# step_loop_bytes/n64 itself is the events-off row — with the sink
# disabled telemetry must stay within noise of the pre-telemetry loop, and
#   substrate/step_loop_sparse/n{4096,65536}  — one circulating token on a
# ring under quiescence-aware stepping: per-round cost is O(active), so
# the two rows must be flat in n (an O(n)-scan scheduler shows ~16×), and
#   substrate/step_loop_sparse/grid1m         — the same token on a
# 1000×1000 grid (n = 10⁶), with the process's Linux peak RSS recorded as
#   substrate/step_loop_sparse/grid1m_peak_rss_bytes
# so CSR-topology / inbox-arena memory regressions land in the snapshot, and
#   substrate/build_grid1m/streaming           — constructing the 10⁶-vertex
# grid via the streaming CSR builder (tier1's grid1m timeout smoke is the
# gate against a reintroduced per-vertex build), plus
#   substrate/build_ring1m/streaming           — the 10⁶-ring build, and
#   substrate/build_sim1m/{slab,boxed}         — one arena allocation vs 10⁶
# boxes for the n=10⁶ process table, and
#   substrate/step_loop_dense_active/n100000   — all-active n=10⁵ rounds
# sharded over 4 pool workers.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_substrate.json}"
case "$OUT" in
    /*) ;;
    *) OUT="$PWD/$OUT" ;;
esac
# cargo runs bench binaries from the package directory; hand it an
# absolute path so the snapshot lands at the repo root.
BENCH_JSON="$OUT" cargo bench --offline -p ga-bench --bench substrate_micro

echo
echo "wrote $OUT"
if command -v python3 >/dev/null; then
    python3 - "$OUT" <<'EOF'
import json, os, sys
data = json.load(open(sys.argv[1]))
ns = {b["name"]: b["ns_per_iter"] for b in data["benchmarks"]}
serial = ns.get("substrate/step_loop_bytes/n1024")
cores = os.cpu_count() or 1
if serial:
    for s in (1, 2, 4):
        sharded = ns.get(f"substrate/step_loop_sharded/n1024s{s}")
        if sharded:
            print(f"n1024 sharded x{s} vs serial: {serial / sharded:.2f}x "
                  f"(host has {cores} core(s))")
for n in (64, 256):
    base = ns.get(f"substrate/step_loop_bytes/n{n}")
    pooled = ns.get(f"substrate/step_loop_pooled/n{n}s4")
    if base and pooled:
        print(f"n{n} pooled 4-shard vs serial: {base / pooled:.2f}x "
              f"(host has {cores} core(s))")
events = ns.get("substrate/step_loop_events/n64")
base = ns.get("substrate/step_loop_bytes/n64")
if events and base:
    print(f"n64 telemetry events on vs off: {events / base:.2f}x "
          f"({(events / base - 1) * 100:+.1f}% overhead)")
small = ns.get("substrate/step_loop_sparse/n4096")
big = ns.get("substrate/step_loop_sparse/n65536")
if small and big:
    print(f"sparse token step n65536 vs n4096: {big / small:.2f}x "
          f"(flat = O(active) holds)")
grid = ns.get("substrate/step_loop_sparse/grid1m")
rss = ns.get("substrate/step_loop_sparse/grid1m_peak_rss_bytes")
if grid:
    extra = f", peak RSS {rss / 2**20:.0f} MiB" if rss else ""
    print(f"sparse token step at n=10^6 grid: {grid:.0f} ns/round{extra}")
streaming = ns.get("substrate/build_grid1m/streaming")
if streaming:
    print(f"grid 10^6 build: {streaming / 1e6:.1f} ms")
ring = ns.get("substrate/build_ring1m/streaming")
if ring:
    print(f"ring 10^6 build: {ring / 1e6:.1f} ms")
slab = ns.get("substrate/build_sim1m/slab")
boxed = ns.get("substrate/build_sim1m/boxed")
if slab and boxed:
    print(f"n=10^6 sim build slab vs boxed: {boxed / slab:.2f}x")
EOF
fi
