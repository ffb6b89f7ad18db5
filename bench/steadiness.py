#!/usr/bin/env python3
"""Do two sets of runs of the same code agree within BENCHMARK.json's bounds?

    python3 bench/steadiness.py [--runs 10]

Each of the two sets runs every workload --runs times through bench/run.py
with --trace 0, seed i on the i-th run. For every end-to-end metric of every
workload it reports each set's median and spread (distance between the
first and third quartile, as a share of the median) and whether

  * each set's spread stays within the metric's bound, and
  * the two sets' medians differ by no more than the bound, either way;

and, for every workload, whether the share of failed operations is the same
in both sets and every run was correct.

Every run is printed and the whole report is written to
bench/results/steadiness.json. Exit code 1 when any of it fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]),
                                   "--trace", "0"]
    if cmd[0] in ("python3", "python"):
        cmd[0] = sys.executable
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:"
                           f" {proc.stderr[-1000:]}")
    out = json.loads(lines[-1])
    out["wall_s"] = wall
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    seeds = range(1, args.runs + 1)

    runs = {n: [[], []] for n in names}
    for s in range(2):
        for name in names:
            for seed in seeds:
                out = run_once(spec, name, seed)
                runs[name][s].append(out)
                vals = " ".join(f"{k}={v['value']:.5g}"
                                for k, v in out["metrics"].items())
                print(f"set {s + 1} {name} seed {seed}: correct="
                      f"{out['correct']} attempted={out['attempted']} "
                      f"failed={out['failed']} wall={out['wall_s']:.1f}s "
                      f"{vals}", flush=True)

    ok = True
    report = {"runs": runs, "metrics": {}}
    for name in names:
        sets = runs[name]
        shares = {(sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs))
                  for rs in sets}
        shares = {f / a for f, a in shares}
        same_share = len(shares) == 1
        correct = all(r["correct"] for rs in sets for r in rs)
        ok &= same_share and correct
        print(f"\n{name}: all correct {correct}; failed share "
              f"{sorted(shares)} same in every set: {same_share}")
        for m in spec["end_to_end"]:
            key = m["name"]
            vals = [[r["metrics"][key]["value"] for r in rs] for rs in sets]
            meds = [statistics.median(v) for v in vals]
            spreads = [spread(v) for v in vals]
            steady = all(x <= m["bound"] for x in spreads)
            agree = abs(meds[1] - meds[0]) / meds[0] <= m["bound"]
            ok &= steady and agree
            report["metrics"][f"{name}/{key}"] = {
                "medians": meds, "spreads": spreads, "bound": m["bound"],
                "steady": steady, "agree": agree}
            print(f"  {key:<14} medians " + " ".join(f"{x:.5g}" for x in meds)
                  + "  spreads " + " ".join(f"{x:.3f}" for x in spreads)
                  + f"  bound {m['bound']}  spread within bound: {steady}"
                  + f"  sets agree: {agree}")
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", "steadiness.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
