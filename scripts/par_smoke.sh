#!/bin/sh
# Parallel-runtime smoke (make par-smoke), docs/PARALLEL.md.
#
# End-to-end check of the fleet epoch runtime through the CLI:
#   1. `grc run --domains 2` produces a trace and report
#      byte-identical to `--domains 1` (the determinism contract: the
#      domain count sets only the degree of parallelism);
#   2. the fleet chaos soak passes with nodes on two domains —
#      invariants (merged-aggregate oracle, REPLACE bookkeeping, hook
#      exception accounting) checked at every epoch barrier while
#      faults land on node 0.
# Budget: well under 30s.
set -eu

ROOT=$(pwd)
GRC="$ROOT/_build/default/bin/grc.exe"
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fail() {
    echo "par-smoke: $1" >&2
    exit 1
}

# 1. --domains 1 vs --domains 2: byte-identical trace and stdout.
"$GRC" run specs/fleet_tail_latency.grd --nodes 3 --until 2 --domains 1 \
    --trace "$TMP/d1.json" > "$TMP/d1.out" \
    || fail "--domains 1 run failed"
"$GRC" run specs/fleet_tail_latency.grd --nodes 3 --until 2 --domains 2 \
    --trace "$TMP/d2.json" > "$TMP/d2.out" \
    || fail "--domains 2 run failed"
cmp -s "$TMP/d1.json" "$TMP/d2.json" \
    || fail "--domains 2 trace diverged from --domains 1"
# The report text only differs in the trace filename it echoes.
sed "s/d2\.json/d1.json/" "$TMP/d2.out" | diff -u "$TMP/d1.out" - \
    || fail "--domains 2 stdout diverged from --domains 1"

# 2. Fleet chaos soak with node event streams on two domains.
"$GRC" soak --scenario fleet --nodes 4 --domains 2 --runs 3 --duration 0.5 \
    > "$TMP/soak.out" \
    || { cat "$TMP/soak.out" >&2; fail "fleet soak under --domains 2 failed"; }

echo "par-smoke: OK (--domains 1 and 2 byte-identical; soak on 2 domains clean)"
