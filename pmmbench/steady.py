#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs every workload RUNS times, alternating workloads (one pass runs each
workload once, with the pass's seed), optionally pausing between passes so
the runs spread over time. For each workload and end-to-end metric it
prints the median, the quartiles, min/max, the largest deviation from the
median and the quartile spread (Q3 - Q1) / median, against the metric's
bound. Quartiles are Python's statistics.quantiles(values, n=4).

Run from the repository root:

    python3 pmmbench/steady.py --runs 10 [--seed0 1] [--pause 0]
        [--save results.json]

--compare a.json b.json prints, per metric, how far the second set's
median moved from the first's.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(spec, workload, seed):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    started = time.time()
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
    wall = time.time() - started
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def report(spec, results):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload, runs in results.items():
        shares = sorted({(r["failed"], r["attempted"]) for r in runs})
        share = {round(f / a, 9) for f, a in shares}
        ok = all(r["correct"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, correct={ok}, failed/attempted={sorted(share)}, "
              f"wall {min(r['wall_s'] for r in runs):.1f}-{max(r['wall_s'] for r in runs):.1f} s")
        print(f"  {'metric':30} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} {'max':>12} "
              f"{'maxdev':>7} {'iqr':>7} {'bound':>6}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs if r["metrics"][name]["value"] is not None]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            maxdev = max(abs(v - med) for v in values) / abs(med) if med else float("nan")
            iqr = (q3 - q1) / abs(med) if med else float("nan")
            bound = bounds[name]
            flag = "ok" if iqr <= bound / 3 else ("within" if iqr <= bound else "WIDE")
            print(f"  {name:30} {med:12.6g} {q1:12.6g} {q3:12.6g} {min(values):12.6g} {max(values):12.6g} "
                  f"{maxdev:7.3f} {iqr:7.3f} {bound:>6} {flag}")


def compare(spec, a, b):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for workload in a:
        print(f"\n{workload}")
        for name, m in bounds.items():
            va = [r["metrics"][name]["value"] for r in a[workload]]
            vb = [r["metrics"][name]["value"] for r in b.get(workload, [])]
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            verdict = "ok" if worse <= m["bound"] else "WORSE"
            print(f"  {name:14} {ma:12.6g} -> {mb:12.6g}  worse by {worse:+.3f} (bound {m['bound']}) {verdict}")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--pause", type=float, default=0.0, help="seconds to wait between passes")
    p.add_argument("--save", default="")
    p.add_argument("--compare", nargs=2, default=None)
    args = p.parse_args()
    spec = load_spec()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        compare(spec, *sets)
        return
    names = [w["name"] for w in spec["workloads"]]
    results = {w: [] for w in names}
    for i in range(args.runs):
        for w in names:
            r = run_once(spec, w, args.seed0 + i)
            results[w].append(r)
            vals = " ".join(f"{k}={v['value']:.5g}" for k, v in r["metrics"].items() if v["value"] is not None)
            print(f"[{i + 1}/{args.runs}] {w} seed {args.seed0 + i}: correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']} {vals}", flush=True)
        if args.save:
            with open(args.save, "w") as f:
                json.dump(results, f)
        if args.pause and i + 1 < args.runs:
            time.sleep(args.pause)
    report(spec, results)


if __name__ == "__main__":
    main()
