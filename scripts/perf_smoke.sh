#!/bin/sh
# Benchmark output smoke (make perf-smoke), perfbench/README.md.
#
# One short run of every benchmark workload at the pinned development
# seed. Each run validates every pass against the outputs pinned in
# perfbench/refs.json (sim events, checks, saves, violation-log and
# push-decision digests), so any library change that alters what the
# workloads compute fails here, not only in the benchmark pipeline.
# A workload passes when the run's last line reports "correct": true
# and "failed": 0. Budget: about 40s.
set -eu

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

for w in ingest check fleet-serve; do
    python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 0 > "$TMP/$w.out" \
        || { cat "$TMP/$w.out" >&2; echo "perf-smoke: $w: run failed" >&2; exit 1; }
    tail -n 1 "$TMP/$w.out" | python3 -c '
import json, sys
r = json.load(sys.stdin)
ok = r.get("correct") is True and r.get("failed") == 0
print("perf-smoke: %s: correct=%s failed=%s attempted=%s"
      % (sys.argv[1], r.get("correct"), r.get("failed"), r.get("attempted")))
sys.exit(0 if ok else 1)' "$w" \
        || { echo "perf-smoke: $w: outputs differ from perfbench/refs.json" >&2; exit 1; }
done
