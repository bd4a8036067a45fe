#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

Builds perfbench/src/perfbench.exe from the checkout this file sits
in, then runs passes of the workload (each pass is one process that
sets the workload up from a seed and runs a fixed simulated span)
until --seconds of host time are spent, cycling through three seeds
derived from --seed. Every pass's outputs are validated. Passes of one
seed run the same slices and pushes, so the run-phase metrics come
from each slice's and each push's fastest time over those passes,
scaled to a reference host speed that a fixed probe, timed at every
barrier, measures. Set-up (scaled the same way) and heap are medians
over passes.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer
profile (traced passes alternate with untraced ones, which give
trace.overhead_ratio). The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The line before it is
the run's record (host, commit, pass count, every metric's value and
the quartiles of the same statistic taken per pass), also written to
perfbench/results/.

Exit status: 0 on a completed run (even one whose outputs mismatch;
"correct" says so), 2 when the program cannot be built or a pass
crashes.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "src", "perfbench.exe")
REFS = os.path.join(HERE, "refs.json")
RESULTS = os.path.join(HERE, "results")
PASS_TIMEOUT_S = 60
# Passes cycle through this many seeds derived from --seed (the first
# is --seed itself), so a run's figures average over that many rigs,
# LinnOS models and input streams instead of resting on one.
SUBSEEDS = 3
# Every run sets up and measures at least this many times (traced runs:
# half of them traced), even past the time budget.
MIN_PASSES = 2 * SUBSEEDS

# Layer rows some workloads cannot fill from outside the program;
# printed in the run's table and kept in its record (see README.md).
PARTIAL_LAYER = {
    "hooks.fanout_ns": "ns",
    "store.merge_ns": "ns",
    "policy.train_s": "s",
    "model_error.RATE": "ratio",
    "model_error.STDDEV": "ratio",
    "model_error.MIN": "ratio",
    "model_error.SUM": "ratio",
    "model_error.DELTA": "ratio",
}

# The metrics BENCHMARK.json names, with their units: end-to-end ones with
# --trace 0, per-layer rows every workload fills with --trace 1.
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    _BENCH = json.load(f)
END_TO_END = {m["name"]: m["unit"] for m in _BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _BENCH["per_layer"]}
WORKLOADS = tuple(w["name"] for w in _BENCH["workloads"])

# The host speed probe's time (perfbench/src/probe.ml, Host_speed) that
# run-phase timings are scaled to: about its best-of-passes median on
# the 2-vCPU Xeon VM this benchmark was built on, when that VM ran fast.
SPEED_REF_MS = 0.04

# Outputs pinned per seed in refs.json and compared across passes.
PINNED = ("sim.events", "check.count", "store.saves", "violations_digest", "push_digest")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Builds the pass executable; returns False when the checkout cannot."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/src/perfbench.exe"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: build failed: {e}")
        return False
    if proc.returncode != 0 or not os.path.exists(EXE):
        log("perfbench: build failed:\n" + proc.stdout[-4000:])
        return False
    return True


def run_pass(workload, seed, traced):
    proc = subprocess.run(
        [EXE, workload, str(seed), "1" if traced else "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"pass exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def subseed(seed, j):
    return seed + j * 1000003


def pinned_outputs(p):
    o = p["outputs"]
    decisions = "\n".join(o["push_decisions"])
    return {
        "sim.events": o["sim.events"],
        "check.count": o["check.count"],
        "store.saves": o["store.saves"],
        "violations_digest": o["violations_digest"],
        "push_digest": hashlib.sha256(decisions.encode()).hexdigest()[:16],
    }


def decision_errors(p):
    """The push sequence every seed must produce: promote, rollback,
    reject, repeating, with every admitted rollout finished."""
    o = p["outputs"]
    errors = []
    kinds = ("promote", "rollback", "reject")
    for i, d in enumerate(o["push_decisions"]):
        kind, _, outcome = d.partition(" ")
        want = kinds[i % 3]
        ok = kind == want and (
            outcome.startswith("rejected") and "GRL003" in outcome
            if want == "reject" else outcome.startswith("admitted"))
        if not ok:
            errors.append(f"push {i}: expected {want}, got {d!r}")
    n = len(o["push_decisions"])
    if o["promotions"] != (n + 2) // 3:
        errors.append(f"promotions {o['promotions']} != {(n + 2) // 3}")
    if o["rollbacks"] != (n + 1) // 3:
        errors.append(f"rollbacks {o['rollbacks']} != {(n + 1) // 3}")
    if n < 1:
        errors.append("no pushes")
    return errors


def validate(passes, references):
    """Counts each pass's operations (slices + pushes) as failed when
    its outputs differ from its sub-seed's reference, or when its push
    decisions break the expected sequence."""
    attempted = failed = 0
    errors = []
    for i, p in enumerate(passes):
        ops = len(p["slices_ms"]) + len(p["push_ms"])
        attempted += ops
        got = pinned_outputs(p)
        reference = references[p["subseed"]]
        bad = [f"pass {i}: {k} = {got[k]!r}, expected {reference[k]!r}"
               for k in PINNED if got[k] != reference[k]]
        bad += [f"pass {i}: {e}" for e in decision_errors(p)]
        if not p["slices_ms"]:
            bad.append(f"pass {i}: no slices")
        if bad:
            failed += ops
            errors += bad
    return attempted, failed, errors


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100.0 * len(s)) - 1)]


def best_of_passes(passes, key):
    """Element-wise minimum over passes of one per-pass sample list.
    Passes of one seed run the same slices and pushes in the same
    order, so sample i of every pass times the same work; its fastest
    reading is the one the host slowed least."""
    return [min(xs) for xs in zip(*(p[key] for p in passes))]


def run_timings(slices, pushes, events, sim_s, scale):
    """The run-phase metrics of one slice and push series, scaled to
    the reference host speed."""
    run_s = sum(slices) / 1e3 * scale
    return {
        "host_s_per_sim_s": run_s / sim_s,
        "events_per_s": events / run_s,
        "slice_p50_ms": percentile(slices, 50) * scale,
        "slice_p99_ms": percentile(slices, 99) * scale,
        "push_p50_ms": percentile(pushes, 50) * scale,
        "push_p90_ms": percentile(pushes, 90) * scale,
    }


def pass_scale(p):
    return SPEED_REF_MS / statistics.median(p["speed_ms"])


def end_to_end(passes):
    """Run-phase timings from the best-of-passes slice and push series of
    every sub-seed, joined, and scaled by SPEED_REF_MS over the joined
    best-of-passes host speed probe; set-up, scaled the same way, and
    heap are medians over passes. Also returns the unscaled figures
    and, for the record, the quartiles of each statistic taken pass by
    pass (each pass scaled by its own probe)."""
    groups = [[p for p in passes if p["subseed"] == j] for j in range(SUBSEEDS)]
    sim_s = passes[0]["sim_s"] * SUBSEEDS
    events = sum(g[0]["outputs"]["sim.events"] for g in groups)
    slices = [x for g in groups for x in best_of_passes(g, "slices_ms")]
    pushes = [x for g in groups for x in best_of_passes(g, "push_ms")]
    speed_ms = statistics.median(x for g in groups for x in best_of_passes(g, "speed_ms"))
    setup_s = statistics.median(p["setup_s"] for p in passes)
    scale = SPEED_REF_MS / speed_ms
    values = dict(
        run_timings(slices, pushes, events, sim_s, scale),
        setup_s=setup_s * scale,
        top_heap_mb=statistics.median(p["top_heap_mb"] for p in passes))
    unscaled = dict(run_timings(slices, pushes, events, sim_s, 1.0), setup_s=setup_s)
    per_pass = [dict(run_timings(p["slices_ms"], p["push_ms"], p["outputs"]["sim.events"],
                                 p["sim_s"], pass_scale(p)),
                     setup_s=p["setup_s"] * pass_scale(p), top_heap_mb=p["top_heap_mb"])
                for p in passes]
    spread = {k: quartiles([pp[k] for pp in per_pass]) for k in values}
    host = {"speed_ms": speed_ms, "speed_ref_ms": SPEED_REF_MS, "unscaled": unscaled,
            "slices": len(slices), "pushes": len(pushes),
            "passes_per_subseed": [len(g) for g in groups]}
    return {k: values[k] for k in END_TO_END}, spread, host


def per_layer(traced, untraced):
    names = list(PER_LAYER) + list(PARTIAL_LAYER)
    values, spread, unfilled = {}, {}, []
    for name in names:
        if name == "trace.overhead_ratio":
            t = statistics.median(p["run_s"] / p["sim_s"] for p in traced)
            u = statistics.median(p["run_s"] / p["sim_s"] for p in untraced)
            vs = [t / u]
        else:
            vs = [p["layers"].get(name) for p in traced]
            vs = [v for v in vs if v is not None]
        if not vs:
            unfilled.append(name)
            continue
        values[name] = statistics.median(vs)
        spread[name] = quartiles(vs)
    return values, spread, unfilled


def host_record(workload, seed, trace, seconds, passes):
    commit = os.environ.get("PERFBENCH_COMMIT", "unknown")
    if commit == "unknown" and os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10).stdout.strip() or "unknown"
        except OSError:
            commit = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "ocaml": passes[0]["ocaml"],
        "commit": commit,
        "passes": len(passes),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-mismatch", action="store_true",
                    help="perturb the expected outputs; the run must report every "
                         "operation as failed")
    ap.add_argument("--pin", action="store_true",
                    help="record this seed's outputs in refs.json")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if not build():
        sys.exit(2)

    # Passes until the time budget is spent, in rounds of one pass per
    # sub-seed; traced runs alternate untraced and traced rounds.
    passes = []
    start = time.monotonic()
    try:
        while True:
            j = len(passes) % SUBSEEDS
            traced = args.trace == 1 and len(passes) // SUBSEEDS % 2 == 1
            t0 = time.monotonic()
            passes.append(dict(run_pass(args.workload, subseed(args.seed, j), traced),
                               subseed=j))
            elapsed = time.monotonic() - start
            mean = elapsed / len(passes)
            if len(passes) >= MIN_PASSES and elapsed + mean > args.seconds:
                break
            log(f"perfbench: pass {len(passes)} ({'traced' if traced else 'untraced'}) "
                f"{time.monotonic() - t0:.2f}s")
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as e:
        log(f"perfbench: {args.workload} seed {args.seed}: {e}")
        sys.exit(2)

    refs = {}
    if os.path.exists(REFS):
        with open(REFS) as f:
            refs = json.load(f)
    if args.pin:
        refs.setdefault(args.workload, {})[str(args.seed)] = pinned_outputs(passes[0])
        with open(REFS, "w") as f:
            json.dump(refs, f, indent=2, sort_keys=True)
            f.write("\n")
    pinned = refs.get(args.workload, {}).get(str(args.seed))
    references = [pinned_outputs(next(p for p in passes if p["subseed"] == j))
                  for j in range(SUBSEEDS)]
    if pinned:
        references[0] = dict(pinned)
    if args.inject_mismatch:
        for r in references:
            r["sim.events"] += 1
    attempted, failed, errors = validate(passes, references)
    for e in errors[:20]:
        log(f"perfbench: mismatch: {e}")

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    record = host_record(args.workload, args.seed, args.trace, args.seconds, passes)
    record["pinned_seed"] = pinned is not None
    record["fail_ratio"] = failed / attempted
    if args.trace == 0:
        values, spread, host = end_to_end(untraced)
        units = END_TO_END
        record["host_speed"] = host
        unfilled = []
    else:
        values, spread, unfilled = per_layer(traced, untraced)
        units = dict(PER_LAYER, **PARTIAL_LAYER)
        record["unfilled"] = unfilled
        missing = [k for k in PER_LAYER if k not in values]
        if missing:
            log(f"perfbench: layer rows missing on {args.workload}: {missing}")
            sys.exit(2)
    record["metrics"] = {
        k: {"value": v, "unit": units[k], "quartiles": list(spread[k]) if k in spread else None}
        for k, v in values.items()
    }

    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"fail_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    for k, v in values.items():
        q = spread.get(k)
        qs = f"  [q1 {q[0]:.6g}, q3 {q[2]:.6g}]" if q else ""
        print(f"  {k:32s} {v:14.6g} {units[k]:6s}{qs}")
    for k in unfilled:
        print(f"  {k:32s} {'n/a':>14s} {units[k]:6s}  (cannot be filled from outside on this workload)")

    os.makedirs(RESULTS, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps(record, sort_keys=True))

    wanted = END_TO_END if args.trace == 0 else PER_LAYER
    metrics = {k: {"value": values[k], "unit": u} for k, u in wanted.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
