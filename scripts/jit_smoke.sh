#!/bin/sh
# Tiered-execution smoke (make jit-smoke), docs/PERFORMANCE.md.
#
# The tier-invariance contract through the CLI: a run under the
# tree-walking reference and the same run under the template JIT must
# produce byte-identical traces and reports. Any divergence in
# verdicts, cost accounting, or event ordering shows up as a byte diff.
#   1. the fig. 2 false-submit guardrail on one node;
#   2. the fleet tail-latency guardrail on a 4-node fleet, whose
#      control monitor reads the merged view over every node shard —
#      once on one domain and once with --domains 2.
# Budget: well under 10s.
set -eu

ROOT=$(pwd)
GRC="$ROOT/_build/default/bin/grc.exe"
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fail() {
    echo "jit-smoke: $1" >&2
    exit 1
}

# same_under_tiers NAME ARGS...: run `grc run ARGS` under each tier
# and byte-diff the JIT's trace and stdout against the tree's.
same_under_tiers() {
    name=$1
    shift
    for tier in tree jit; do
        "$GRC" run "$@" --engine "$tier" \
            --trace "$TMP/$name-$tier.json" > "$TMP/$name-$tier.out" \
            || fail "$name: --engine $tier run failed"
    done
    cmp -s "$TMP/$name-tree.json" "$TMP/$name-jit.json" \
        || fail "$name: --engine jit trace diverged from the tree reference"
    # The report text only differs in the trace filename it echoes.
    sed "s/$name-jit\.json/$name-tree.json/" "$TMP/$name-jit.out" \
        | diff -u "$TMP/$name-tree.out" - \
        || fail "$name: --engine jit stdout diverged from the tree reference"
}

same_under_tiers listing2 specs/listing2.grd --until 3
same_under_tiers fleet specs/fleet_tail_latency.grd --nodes 4 --until 3
same_under_tiers fleet-d2 specs/fleet_tail_latency.grd --nodes 4 --until 3 --domains 2

echo "jit-smoke: OK (tree/jit traces and reports byte-identical, single node and 4-node fleet on 1 and 2 domains)"
