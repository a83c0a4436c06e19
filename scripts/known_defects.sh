#!/usr/bin/env bash
# The known defects, one line each: every `#[ignore]`d test, run by name.
#
# Each ignored test pins a defect that a ROADMAP item closes (the fork, the
# flag divergence, the clock trap). This script runs each one alone with
# `--ignored --exact` and prints
#
#   name | item | first line of its panic message
#
# (a proptest's "proptest <path> " prefix dropped), or `passes` in the
# message's place. scripts/known_defects.expected pins the output and
# tier1 diffs against it: a defect that shows another way (a different
# first fork, a trap that no longer holds at some size) fails the gate by
# name, and so does a test that starts to pass. The change that makes one
# pass un-ignores it, names the item it closes, and drops its line here.
#
# The targets are named, not discovered, so nothing else ignored (such as
# a vendored doc example) is run; the script fails if the number of
# `#[ignore` attributes under tests/ and crates/ differs from the list.
set -euo pipefail
cd "$(dirname "$0")/.."

# cargo target | test name | ROADMAP item
targets=(
    "--test authority_fork|selective_reveal_never_forks_the_honest_records|1(c)"
    "--test authority_fork|a_reveal_withheld_from_one_processor_does_not_fork_the_records|1(c)"
    "-p game-authority --lib|distributed::tests::a_flipped_flag_heals|2(c)"
    "-p game-authority --lib|distributed::tests::pinners_cannot_hold_the_honest_clocks_apart|15"
    "-p game-authority --lib|distributed::tests::a_pinned_authority_still_records_plays|15"
)

declared=$(grep -rn --include='*.rs' '#\[ignore' tests crates | wc -l)
if [ "$declared" -ne "${#targets[@]}" ]; then
    echo "known_defects: $declared ignored tests under tests/ and crates/, ${#targets[@]} listed here" >&2
    exit 1
fi

for target in "${targets[@]}"; do
    IFS='|' read -r cargo_target name item <<< "$target"
    # shellcheck disable=SC2086 # the cargo target is several words
    if output=$(RUST_BACKTRACE=0 cargo test -q --offline $cargo_target -- \
        --ignored --exact "$name" 2>&1); then
        message=passes
    else
        message=$(printf '%s\n' "$output" \
            | awk 'found { print; exit } / panicked at / { found = 1 }' \
            | sed 's/^proptest [^ ]* //')
    fi
    echo "$name | $item | ${message:-no panic message}"
done
