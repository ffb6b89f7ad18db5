"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py

The oracle tests use closed forms only, with no reglab output involved; the
smoke tests run each workload at a tiny size through bench/run.py.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import inputs
import layertrace
import oracles
import run
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _block_sum(G: inputs.Group, subgroups) -> dict:
    """Z[G/H_1] + ... + Z[G/H_k] as module JSON."""
    blocks = [G.permutation_matrices(H) for H in subgroups]
    n = sum(len(b[0]) for b in blocks)
    action = []
    for g in range(G.order):
        A = [[0] * n for _ in range(n)]
        off = 0
        for b in blocks:
            for i, row in enumerate(b[g]):
                A[off + i][off:off + len(row)] = row
            off += len(b[g])
        action.append(A)
    return inputs.module_json(G, n, [], action)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_regulator_oracle_trivial_module(q):
    G = inputs.dihedral(q)
    Z = inputs.module_json(G, 1, [], [[[1]]] * G.order)
    assert oracles.regulator_constant(
        Z, inputs.dihedral_relation_terms(q)) == Fraction(1, q)


@pytest.mark.parametrize("q", [3, 5])
def test_regulator_oracle_permutation_sums(q):
    G = inputs.dihedral(q)
    reps = G.class_representatives()
    rotations = set(range(q))
    for family in ([reps[0]], [reps[1]], [reps[2], reps[3]],
                   [reps[1], reps[1], reps[0]], reps):
        want = Fraction(1)
        for H in family:
            if not set(H) <= rotations:
                want *= Fraction(2, len(H))
        got = oracles.regulator_constant(_block_sum(G, family),
                                         inputs.dihedral_relation_terms(q))
        assert got == want, family


@pytest.mark.parametrize("n,m", [(2, 2), (3, 3), (3, 9), (4, 2)])
def test_tate_oracle_trivial_cyclic_module(n, m):
    # Z/m with trivial C_n action: H^0 = Z/gcd(n, m) and H^-1 = Z/gcd(n, m)
    from math import gcd
    G = inputs.cyclic(n)
    M = inputs.module_json(G, 1, [[m]], [[[1]]] * n)
    g = gcd(n, m)
    assert oracles.tate_orders(M, tuple(range(n))) == (g, g)


def test_tate_oracle_induced_module_vanishes():
    # Z[G]/3 is induced from the trivial subgroup: every Tate group is 0
    G = inputs.product(inputs.cyclic(2), inputs.cyclic(2))
    free = _block_sum(G, [(0,)])
    M = inputs.module_json(G, 4, [[3 * (i == j) for j in range(4)]
                                  for i in range(4)],
                           [free["action"][str(g)] for g in range(4)])
    for H in G.class_representatives()[1:]:
        assert oracles.tate_orders(M, H) == (1, 1)


def test_primes_divide():
    assert oracles.primes_divide(Fraction(4, 9), 6)
    assert not oracles.primes_divide(Fraction(5, 3), 6)


def test_generator_is_seeded_and_canonical():
    G = inputs.dihedral(5)
    for profile in inputs.PROFILES:
        a = inputs.draw_module(G, profile, 7)
        assert a == inputs.draw_module(G, profile, 7)
        assert a["relations"] == inputs.hnf(a["relations"], a["rank"])


def test_benchmark_json_lists_every_traced_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == layertrace.metric_specs()
    assert len(spec["per_layer"]) <= 128


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--ops", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["dihedral-verify", "regulator-calls",
                                      "tate-table"])
def test_smoke_run(workload):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    out = _run(workload, 0)
    assert out["correct"] and out["attempted"] == 2 and out["failed"] == 0
    assert set(out["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_smoke_traced_run():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    out = _run("tate-table", 1)
    assert out["correct"] and out["failed"] == 0
    assert set(out["metrics"]) == {m["name"] for m in spec["per_layer"]}
    # the first modules are over C6, where degree 2 reduces to degree 0
    assert out["metrics"]["cohomology.tate.d0.calls"]["value"] > 0
    assert out["metrics"]["regulator.rc_qindex.calls"]["value"] == 0


class _FailingWorkload:
    """Two operations; the second raises, as a change that failed fast
    would."""

    ops = [workloads.Op("ok", 1, 0), workloads.Op("raises", 1, 1)]

    def run(self, reglab, op):
        if op.arg:
            raise RuntimeError("gave up early")
        return "out"

    text = staticmethod(str)

    def check(self, reglab, op, output, checks):
        checks.covered("oracle")

    @staticmethod
    def oracle_due(ops):
        return {"oracle": len(ops)}


class _ConstantReference:
    def setup(self):
        return 0.25

    def run(self, index):
        return 0.01


def test_failed_operation_fails_the_run():
    wl = _FailingWorkload()
    out = run._measure("tate-table", 999, 1, None, None, wl, 0.25,
                       _ConstantReference())
    assert out["failed"] == 1 and out["attempted"] == 2
    assert not out["correct"]
    with open(os.path.join(HERE, "results",
                           "tate-table-seed999-trace0.json")) as fh:
        record = json.load(fh)
    # the failure itself and the oracle comparison it left undone
    assert record["checks_failed"] == 2
