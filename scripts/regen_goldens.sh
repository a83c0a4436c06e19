#!/usr/bin/env bash
# Regenerates every behaviour golden tier1 checks — and says which moved:
#
#   tests/golden/authority_seed1.sha256   authority summary + event JSONL
#   tests/golden/recovery_events.sha256   stabilize / unsupportive event JSONL
#   tests/golden/stabilize_summary.json     stabilize --no-records summary
#   tests/golden/unsupportive_summary.json  unsupportive --no-records summary
#   tests/golden/paper_summary.json         paper summary, records included
#   tests/golden/examples_summary.json      examples summary, records included
#   tests/golden/authority_plays.jsonl     what each authority processor decided,
#                                          play by play (tests/authority_plays.rs)
#
# It refuses a dirty tree, so what it writes is the output of a commit,
# and the diff it leaves holds goldens and nothing else: commit the code
# change, run this, read the list it prints against what the change was
# meant to move, then commit the goldens with the reason. The commands are
# the ones tier1 runs to produce the files it checks (its `_a` runs; the
# summaries and streams are byte-identical at any --workers / --shards,
# which tier1 proves); run tier1 afterwards.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ -n "$(git status --porcelain)" ]; then
    echo "regen_goldens: the working tree is dirty — commit or stash first" >&2
    exit 1
fi

cargo build --release --offline --bin scenario

./target/release/scenario run --suite authority --seeds 1 \
    --events target/scenario_auth_golden_events.jsonl > target/scenario_auth_golden.json

# The harsh frontier points censor by design and fail their verdicts
# (exit 2); exit 1 (usage / IO errors) still aborts.
run_recovery() {
    ./target/release/scenario run --suite "$1" --no-records --workers 4 \
        --out "$2" --events "$3" > /dev/null && rc=0 || rc=$?
    [ "$rc" -eq 0 ] || [ "$rc" -eq 2 ] || exit "$rc"
}
run_recovery stabilize target/scenario_stab_a.json target/scenario_stab_a_events.jsonl
run_recovery unsupportive target/scenario_unsup_a.json target/scenario_unsup_a_events.jsonl

for suite in paper examples; do
    ./target/release/scenario run --suite "$suite" --workers 1 > "target/scenario_${suite}_a.json"
done

cp target/scenario_stab_a.json tests/golden/stabilize_summary.json
cp target/scenario_unsup_a.json tests/golden/unsupportive_summary.json
cp target/scenario_paper_a.json tests/golden/paper_summary.json
cp target/scenario_examples_a.json tests/golden/examples_summary.json
(cd target && sha256sum scenario_auth_golden.json scenario_auth_golden_events.jsonl) \
    > tests/golden/authority_seed1.sha256
(cd target && sha256sum scenario_stab_a_events.jsonl scenario_unsup_a_events.jsonl) \
    > tests/golden/recovery_events.sha256

# The decision golden: the test writes what it computed before it compares
# (and fails here whenever the golden is about to move).
plays=target/tmp/authority_plays.jsonl
rm -f "$plays"
cargo test -q --offline --test authority_plays > /dev/null 2>&1 || true
[ -s "$plays" ] || { echo "regen_goldens: tests/authority_plays.rs wrote no $plays" >&2; exit 1; }
cp "$plays" tests/golden/authority_plays.jsonl

echo "==> goldens that moved"
for digests in tests/golden/authority_seed1.sha256 tests/golden/recovery_events.sha256; do
    git diff --no-color -U0 -- "$digests" \
        | sed -n "s|^+[0-9a-f]\{64\}  \(.*\)$|  \1  ($digests)|p"
done
for snapshot in tests/golden/{stabilize,unsupportive,paper,examples}_summary.json; do
    git diff --quiet -- "$snapshot" || echo "  $snapshot"
done
if ! git diff --quiet -- tests/golden/authority_plays.jsonl; then
    echo "  tests/golden/authority_plays.jsonl — decisions moved; its first changed lines:"
    git diff --no-color -U0 -- tests/golden/authority_plays.jsonl | grep '^[-+]{' | head -n 12 | sed 's/^/    /'
fi
if [ -z "$(git status --porcelain)" ]; then
    echo "  none"
fi
