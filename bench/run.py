#!/usr/bin/env python3
"""reglab benchmark.

One workload, as the benchmark contract runs it:

    python3 bench/run.py --workload tate-table --seed 1 --seconds 24 --trace 0

prints one JSON line {"correct", "attempted", "failed", "metrics"} last on
stdout: the end-to-end metrics with --trace 0, the per-layer metrics of
layertrace.py with --trace 1. Every workload at once, each in its own
process, with a summary of metrics, operations and checks:

    python3 bench/run.py --all --seed 1 --seconds 24

Run from the root of a reglab checkout; reglab is imported from src/. An
untraced run also starts bench/worker.py processes: one on the frozen
reference copy, whose times give the host factor, and one for each further
set-up. The full record of a run (latencies, output digests, checks) goes to
bench/results/. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

from worker import Worker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, "work")
# Nominal length of one pass over a workload's catalogue, with the frozen
# reference's share, on the reference machine (2 cores, CPython 3.11); a run
# makes round(seconds / this) passes.
PASS_SECONDS = {"dihedral-verify": 32, "regulator-calls": 8, "tate-table": 16}
# items/s of one pass of the frozen reference copy on the reference machine:
# the unit in which host speed is stated (see host_factor).
REFERENCE_RATE = {"dihedral-verify": 1.8, "regulator-calls": 17.0,
                  "tate-table": 16.0}
SETUP_REPEATS = 9
END_TO_END = (("items_per_s", "items/s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


def _percentile(values, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def host_factor(name: str, items: int, reference_s: float) -> float:
    """How much slower the host runs now than when REFERENCE_RATE was taken,
    judged by the frozen reference's time for the same operations."""
    return REFERENCE_RATE[name] * reference_s / items


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 max_ops: int | None) -> dict:
    """One run; writes its full record and returns the result line."""
    from workloads import WORKLOADS, fresh_import

    workdir = os.path.join(WORK, name)
    if hasattr(os, "sched_setaffinity"):
        # one CPU for this process and its workers, so that all see the
        # same core's speed; the last, as the first tends to take the most
        # interrupts
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    # raises ImportError before any process is started
    t0 = time.perf_counter()
    reglab = fresh_import(os.path.join(ROOT, "src"), "reglab")
    wl = WORKLOADS[name](reglab, workdir, seed)
    setup_s = time.perf_counter() - t0
    ref = None if trace else Worker(name, seed, "reglab_ref")
    try:
        return _measure(name, seed, seconds, max_ops, reglab, wl, setup_s,
                        ref)
    finally:
        if ref is not None:
            ref.close()


def _measure(name, seed, seconds, max_ops, reglab, wl, setup_s, ref) -> dict:
    """The timed passes, the other set-ups and the checks, after the first
    set-up (wl, which took setup_s); no reference (ref None) means a traced
    run."""
    from inputs import mix
    from workloads import Checks

    trace = ref is None
    setup_times = [setup_s]
    if ref is not None:
        ref.setup()
    ops = wl.ops[:max_ops] if max_ops else wl.ops
    passes = max(1, round(seconds / PASS_SECONDS[name]))

    # the harness's own objects (catalogue, modules) need no collecting
    gc.freeze()
    tracer = None
    if trace:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
    checks = Checks()
    outputs = [[] for _ in ops]
    op_s = [[] for _ in ops]
    ref_s = [[] for _ in ops]
    errors = []
    spent = 0.0
    failed = 0
    # every pass takes the operations in its own seeded order; the frozen
    # reference runs the same operation right before or after (seeded), so
    # both see the host at the same speed, once per operation, in passes
    # taken in turn
    steps = []
    for p in range(passes):
        rng = random.Random(mix(seed, p))
        order = list(range(len(ops)))
        rng.shuffle(order)
        steps += [(i, ref is not None and (i + p) % passes == 0,
                   rng.randrange(2)) for i in order]
    # the other set-ups, each in a fresh interpreter like the first and
    # spread evenly over the run, so that they meet the host at the speed
    # the operations do; in other processes, so they add nothing to the peak
    fresh = 0 if trace else SETUP_REPEATS - 1
    setup_at = [round((k + 0.5) * len(steps) / fresh) for k in range(fresh)]

    def fresh_setups(step: int) -> None:
        for _ in range(setup_at.count(step)):
            worker = Worker(name, seed, "reglab")
            try:
                setup_times.append(worker.setup())
            finally:
                worker.close()

    cpu0 = time.process_time()
    for step, (i, paired, ref_first) in enumerate(steps):
        fresh_setups(step)
        op = ops[i]
        if paired and ref_first:
            ref_s[i].append(ref.run(i))
        t0 = time.perf_counter()
        try:
            out = wl.run(reglab, op)
        except Exception as exc:
            spent += time.perf_counter() - t0
            failed += 1
            what = f"{op.key}: {type(exc).__name__}: {exc}"[:500]
            errors.append(what)
            checks.expect(False, f"operation failed: {what}")
            continue
        dt = time.perf_counter() - t0
        spent += dt
        op_s[i].append(dt)
        outputs[i].append(out)
        if paired and not ref_first:
            ref_s[i].append(ref.run(i))
    fresh_setups(len(steps))
    cpu = time.process_time() - cpu0
    # reglab's own peak: the reference and the other set-ups run in other
    # processes, and the checks (which import sympy) come after
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    digests = []
    for op, outs in zip(ops, outputs):
        texts = [wl.text(o) for o in outs]
        shas = [hashlib.sha256(t.encode()).hexdigest() for t in texts]
        checks.expect(len(set(shas)) <= 1,
                      f"{op.key}: passes gave different outputs")
        digests.append({"op": op.key, "sha256": shas[0] if shas else None})
        if outs:
            wl.check(reglab, op, outs[0], checks)
    due = wl.oracle_due(ops)
    for oracle, n in due.items():
        made = checks.coverage.get(oracle, 0)
        checks.expect(made == n, f"oracle {oracle} compared {made} outputs "
                                 f"of the {n} it covers")
    combined = hashlib.sha256(
        "".join(f"{d['op']} {d['sha256']}\n" for d in digests).encode()
    ).hexdigest()

    # An operation's time is its least over the passes, and every time is
    # divided by a host factor: the shared host's speed drifts by a fifth
    # or more over minutes, which the frozen reference sees as well.
    done = [i for i, t in enumerate(op_s) if t and (trace or ref_s[i])]
    best = [min(op_s[i]) for i in done]
    items = sum(ops[i].items for i in done)
    raw_items_per_s = items / sum(best) if best else 0.0
    factor = 1.0
    if ref is not None and best:
        factor = host_factor(name, items, sum(min(ref_s[i]) for i in done))
    if best:
        e2e = {
            "items_per_s": raw_items_per_s * factor,
            "op_p50_ms": statistics.median(best) * 1000 / factor,
            "op_p90_ms": _percentile(best, 90) * 1000 / factor,
            "setup_s": statistics.median(setup_times) / factor,
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        e2e = {}
    units = dict(END_TO_END)
    if tracer:
        metrics = tracer.metrics(raw_items_per_s)
        os.makedirs(RESULTS, exist_ok=True)
        tracer.write(os.path.join(RESULTS, f"{name}-seed{seed}.spans"))
    else:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in e2e.items()}
    attempted = passes * len(ops)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "passes": passes, "ops_per_pass": len(ops), "attempted": attempted,
        "failed": failed, "errors": errors[:20], "items_per_pass": items,
        "measured_s": spent, "cpu_s": cpu, "checks_made": checks.made,
        "checks_failed": checks.failed, "check_failures": checks.failures,
        "oracle_coverage": checks.coverage, "oracle_due": due,
        "end_to_end": e2e, "host_factor": factor,
        "raw_items_per_s": raw_items_per_s, "setup_runs_s": setup_times,
        "op_latency_ms": {op.key: [x * 1000 for x in t]
                          for op, t in zip(ops, op_s)},
        "reference_latency_ms": {op.key: [x * 1000 for x in t]
                                 for op, t in zip(ops, ref_s)},
        "output_sha256": combined, "op_sha256": digests,
        "python": platform.python_version(), "cpus": os.cpu_count(),
    }
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    return {"correct": checks.failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own process; prints metrics, ops and checks."""
    from workloads import WORKLOADS

    bad = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.ops:
            cmd += ["--ops", str(args.ops)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        if proc.returncode != 0 and not lines:
            print(proc.stderr[-2000:])
            bad += 1
            continue
        result = json.loads(lines[-1])
        rec_path = os.path.join(
            RESULTS, f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(rec_path) as fh:
            rec = json.load(fh)
        for metric, mv in result["metrics"].items():
            print(f"  {metric:<52} {mv['value']:>14.6g} {mv['unit']}")
        print(f"  operations attempted {result['attempted']}, "
              f"failed {result['failed']}")
        print(f"  checks made {rec['checks_made']}, failed "
              f"{rec['checks_failed']}; oracle comparisons "
              f"{rec['oracle_coverage']} of {rec['oracle_due']}")
        for line in rec["check_failures"]:
            print(f"    {line}")
        print(f"  output sha256 {rec['output_sha256']}")
        if (proc.returncode != 0 or not result["correct"]
                or result["failed"]):
            bad += 1
    return 1 if bad else 0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each in its own process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="keep only the first N operations (smoke runs)")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("give --workload or --all")
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.ops)
    except ImportError as exc:
        sys.stderr.write(f"cannot import reglab: {exc}\n")
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
