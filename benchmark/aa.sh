#!/usr/bin/env bash
# Is the benchmark steady enough for its own bounds? Same build throughout.
#
#   benchmark/aa.sh [--seed N]
#       A/A: two sets of five timed runs of every workload at seed N
#       (default 1), the sets alternating (A B A B ...). Prints, for every
#       end-to-end metric x workload, the two set medians, their relative
#       difference and the bound; fails if a difference exceeds its bound,
#       or if bytes_per_op or rounds_per_op is not the same number in all
#       ten runs. Run it at two seeds to see the counters repeat at both.
#       The whole-run rate and median op time follow without a bound:
#       they are per-layer metrics, shown here because this is where
#       their noise is measured.
#
#   benchmark/aa.sh --seeds
#       Spread: ten timed runs of every workload, each at another seed.
#       Prints the distance between the first and third quartile as a
#       share of the median, next to the bound and a third of it; fails
#       if a spread exceeds its bound.
#
# Raw result lines are kept in benchmark/out/aa_*.jsonl.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mode="${1:-aa}"
seed=1
if [ "$mode" = --seed ]; then
    mode=aa
    seed="${2:?--seed needs a value}"
fi

mkdir -p "$here/out"

workloads="play_n4f1 play_n10f3 sweep_small flood_ring100k"
seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$here/../BENCHMARK.json")"

one_run() { # workload seed file
    # Two lines a run: what it printed beside its metrics, and its result.
    "$here/run.sh" --workload "$1" --seed "$2" --seconds "$seconds" --trace 0 | tail -n 2 >> "$3"
}

case "$mode" in
    aa)
        rm -f "$here/out/aa_a.jsonl" "$here/out/aa_b.jsonl"
        for round in 1 2 3 4 5; do
            for set in a b; do
                for w in $workloads; do
                    echo "round $round, set $set: $w" >&2
                    one_run "$w" "$seed" "$here/out/aa_$set.jsonl"
                done
            done
        done
        ;;
    --seeds)
        rm -f "$here/out/aa_seeds.jsonl"
        for seed in 11 12 13 14 15 16 17 18 19 20; do
            for w in $workloads; do
                echo "seed $seed: $w" >&2
                one_run "$w" "$seed" "$here/out/aa_seeds.jsonl"
            done
        done
        ;;
    *)
        echo "usage: aa.sh [--seed N | --seeds]" >&2
        exit 1
        ;;
esac

python3 - "$mode" "$here" $workloads <<'PY'
import json, statistics, sys

mode, here, workloads = sys.argv[1], sys.argv[2], sys.argv[3:]
spec = json.load(open(f"{here}/../BENCHMARK.json"))
bounded = [(m["name"], m["bound"]) for m in spec["end_to_end"]]
unbounded = ["run.ops_per_s", "run.op_ms_p50"]
exact = ["bytes_per_op", "rounds_per_op"]


def load(path):
    """Per workload, each run's values by metric name (every pass runs the
    workloads in order, two lines a run)."""
    lines = [json.loads(line) for line in open(path)]
    runs = []
    for notes, result in zip(lines[0::2], lines[1::2]):
        if not result["correct"] or result["failed"]:
            sys.exit(f"{path}: a run failed its correctness checks")
        values = {k: v["value"] for k, v in result["metrics"].items()}
        values.update(notes["notes"])
        runs.append(values)
    return {w: runs[i :: len(workloads)] for i, w in enumerate(workloads)}


def rows():
    for w in workloads:
        for name, bound in bounded:
            yield w, name, bound
        for name in unbounded:
            yield w, name, None


failures = 0
if mode == "aa":
    a, b = load(f"{here}/out/aa_a.jsonl"), load(f"{here}/out/aa_b.jsonl")
    print(f"{'workload':<16}{'metric':<20}{'median A':>16}{'median B':>16}{'diff':>9}{'bound':>8}")
    for w, name, bound in rows():
        ma = statistics.median(r[name] for r in a[w])
        mb = statistics.median(r[name] for r in b[w])
        diff = abs(ma - mb) / ma
        over = bound is not None and diff > bound
        failures += over
        shown = "-" if bound is None else f"{bound:.2f}"
        print(f"{w:<16}{name:<20}{ma:>16.6f}{mb:>16.6f}{diff:>9.4f}{shown:>8}{'  EXCEEDS' if over else ''}")
    for w in workloads:
        for name in exact:
            seen = {r[name] for r in a[w] + b[w]}
            if len(seen) != 1:
                failures += 1
                print(f"{w} {name} does not repeat exactly: {sorted(seen)}")
    if not failures:
        print(f"{' and '.join(exact)} are the same number in all ten runs of every workload")
else:
    runs = load(f"{here}/out/aa_seeds.jsonl")
    print(f"{'workload':<16}{'metric':<20}{'median':>16}{'iqr/median':>12}{'bound/3':>9}{'bound':>8}")
    for w, name, bound in rows():
        v = [r[name] for r in runs[w]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q3 - q1) / med
        if bound is None:
            print(f"{w:<16}{name:<20}{med:>16.6f}{spread:>12.4f}{'-':>9}{'-':>8}")
            continue
        over = spread > bound
        failures += over
        flag = "  EXCEEDS" if over else ("  above a third" if spread > bound / 3 else "")
        print(f"{w:<16}{name:<20}{med:>16.6f}{spread:>12.4f}{bound / 3:>9.4f}{bound:>8.2f}{flag}")
sys.exit(1 if failures else 0)
PY
