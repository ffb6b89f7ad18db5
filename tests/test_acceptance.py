"""Acceptance gate: the full verification contract at production scale.

Each criterion is one test that prints a single pass/fail line (visible with
`pytest -v -s` or in captured output). Everything is exact arithmetic — there
are no tolerances anywhere. Every regulator constant below is computed by two
independent routes (lattice pairing and map index) that must agree exactly or
the library itself aborts, so each passing line is also a cross-method check.
"""

import time
from fractions import Fraction

import pytest

from reglab import (
    build_phi,
    dihedral_relation,
    random_module,
    rc_pairing,
    rc_qindex,
    regulator_constant,
    run_suite,
    trivial_module,
    verify_identity,
)

SEED = 2026
_PROFILES = ("torsion_free", "finite", "mixed")


def _line(num, desc, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    tail = f"  [{extra}]" if extra else ""
    print(f"criterion {num:02d}: {status} — {desc}{tail}")
    assert ok, f"criterion {num} failed: {desc} {extra}"


def _by_check(reports):
    out = {}
    for rep in reports:
        out.setdefault(rep["check"], []).append(rep)
    return out


def _all_pass(reports):
    return all(rep["status"] == "pass" for rep in reports)


# ---------------------------------------------------------------------------
# shared suite runs (each used by several criteria)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def dihedral_run():
    t0 = time.perf_counter()
    result = run_suite("dihedral", q_list=(3, 5), trials=200, seed=SEED)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def duality_run():
    return run_suite("duality", trials=100, seed=SEED)


@pytest.fixture(scope="module")
def finite_run():
    return run_suite("finite", trials=100, seed=SEED)


@pytest.fixture(scope="module")
def oracle_run():
    return run_suite("cohomology-oracles", trials=100, seed=SEED)


@pytest.fixture(scope="module")
def brauer_run():
    return run_suite("brauer", seed=SEED)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_trivial_module_closed_form():
    """C(Z) = 1/q over each dihedral group, both routes, under 1s per q."""
    timings = []
    ok = True
    for q in (3, 5, 9, 15):
        t0 = time.perf_counter()
        rel = dihedral_relation(q)
        Z = trivial_module(rel.group)
        pairing = rc_pairing(Z, rel)
        qidx = rc_qindex(Z, rel, build_phi(rel, seed=SEED))
        elapsed = time.perf_counter() - t0
        timings.append(f"q={q}: {elapsed:.3f}s")
        ok = ok and pairing == Fraction(1, q) == qidx and elapsed < 1.0
    _line(1, "trivial module gives 1/q for q in {3,5,9,15}, both routes, <1s",
          ok, "; ".join(timings))


def test_criterion_02_dihedral_main_at_scale(dihedral_run):
    result, elapsed = dihedral_run
    by = _by_check(result["reports"])
    main = by.get("DIHEDRAL_MAIN", [])
    per_q = {q: [r for r in main if r["details"]["q"] == q] for q in (3, 5)}
    ok = (
        all(len(per_q[q]) >= 200 for q in (3, 5))
        and all({r["details"]["profile"] for r in per_q[q]} == set(_PROFILES)
                for q in (3, 5))
        and _all_pass(main)
        and elapsed < 600.0
    )
    _line(2, "main dihedral identity on 200 modules per q in {3,5}, "
             "all profiles, within 10 minutes",
          ok, f"{len(main)} checks in {elapsed:.1f}s")


def test_criterion_03_torsion_free_duality(duality_run):
    by = _by_check(duality_run["reports"])
    dual = by.get("DUAL1", [])
    per_group = {}
    for rep in dual:
        per_group.setdefault(rep["details"]["group"], []).append(rep)
    ok = (
        set(per_group) == {"V4", "D3", "D5"}
        and all(len(v) >= 100 for v in per_group.values())
        and _all_pass(dual)
    )
    counts = ", ".join(f"{g}: {len(v)}" for g, v in sorted(per_group.items()))
    _line(3, "torsion-free duality (C · C-dual · h0^2 = 1) on 100+ modules "
             "per group", ok, counts)


def test_criterion_04_finite_module_duality(finite_run):
    by = _by_check(finite_run["reports"])
    fdual = by.get("FINITE_DUAL", [])
    fdih = by.get("FINITE_DIHEDRAL", [])
    sdual = by.get("FINITE_SELF_DUAL", [])
    per_group = {}
    for rep in fdual:
        per_group.setdefault(rep["details"]["group"], []).append(rep)
    ok = (
        set(per_group) == {"V4", "D3", "D5"}
        and all(len(v) >= 100 for v in per_group.values())
        and len(fdih) >= 200  # 100 per dihedral group
        and len(sdual) >= 10
        and _all_pass(fdual) and _all_pass(fdih) and _all_pass(sdual)
    )
    _line(4, "finite-module duality and the dihedral refinement on 100+ "
             "modules per group; self-dual sums give C = 1",
          ok, f"{len(fdual)} dual, {len(fdih)} dihedral, "
              f"{len(sdual)} self-dual")


def test_criterion_05_degree_cancellation(dihedral_run):
    result, _ = dihedral_run
    by = _by_check(result["reports"])
    dcf = by.get("DCF", [])
    module_dcf = [r for r in dcf if "degree_-1" in r["details"]]
    kernel_dcf = [r for r in dcf if "kernel_degree_-1" in r["details"]]
    ok = (
        len(module_dcf) >= 400
        and len(kernel_dcf) >= 50
        and _all_pass(dcf)
    )
    _line(5, "degree cancellation in degrees -1 and 0, module form and "
             "kernel form on 50+ random equivariant maps",
          ok, f"{len(module_dcf)} modules, {len(kernel_dcf)} maps")


def test_criterion_06_valuation_bounds(dihedral_run):
    result, _ = dihedral_run
    by = _by_check(result["reports"])
    bounds = by.get("BOUNDS", [])
    per_q = {q: [r for r in bounds if r["details"]["q"] == q] for q in (3, 5)}
    # each report internally checks every prime dividing q and that no other
    # prime appears in C at all
    rows_ok = all(
        {row["ell"] for row in rep["details"]["bounds"]} == {q}
        for q in (3, 5) for rep in per_q[q]
    )
    ok = (
        all(len(per_q[q]) >= 200 for q in (3, 5))
        and rows_ok
        and _all_pass(bounds)
    )
    _line(6, "valuation bounds at every prime dividing q on every random "
             "module; no other prime enters C",
          ok, f"{len(bounds)} modules")


def test_criterion_07_rank_formula_vs_herbrand(oracle_run):
    by = _by_check(oracle_run["reports"])
    rosen = by.get("ROSEN_DUAL_PATH", [])
    modules_per_q = {}
    for rep in rosen:
        modules_per_q.setdefault(rep["details"]["q"], set()).add(
            rep["details"]["trial"])
    ok = (
        set(modules_per_q) == {9, 15}
        and all(len(v) >= 100 for v in modules_per_q.values())
        and _all_pass(rosen)
    )
    counts = ", ".join(f"q={q}: {len(v)} modules"
                       for q, v in sorted(modules_per_q.items()))
    _line(7, "fixed-point rank formula agrees with the Herbrand quotient "
             "valuation on 100+ modules per rotation order in {9,15}",
          ok, counts)


def test_criterion_08_cohomology_oracles(oracle_run):
    by = _by_check(oracle_run["reports"])
    shapiro = by.get("SHAPIRO", [])
    free = by.get("FREE_VANISHING", [])
    period = by.get("CYCLIC_PERIOD", [])
    modp = by.get("MODP_RANK", [])
    ok = (
        len(shapiro) > 0 and len(free) > 0 and len(period) > 0
        and len(modp) > 0
        and _all_pass(shapiro) and _all_pass(free)
        and _all_pass(period) and _all_pass(modp)
    )
    _line(8, "independent cohomology oracles: induced-module comparison, "
             "free-module vanishing, cyclic periodicity, mod-p ranks",
          ok, f"{len(shapiro)}+{len(free)}+{len(period)}+{len(modp)} checks")


def test_criterion_09_relation_lattices(brauer_run):
    by = _by_check(brauer_run["reports"])
    ok = (
        len(by.get("BRAUER_V4", [])) >= 1
        and len(by.get("BRAUER_CYCLIC", [])) >= 3
        and len(by.get("BRAUER_DIHEDRAL", [])) >= 2
        and len(by.get("BRAUER_BASIS_VALID", [])) >= 1
        and _all_pass(brauer_run["reports"])
    )
    _line(9, "relation lattices: Klein-four generator, empty cyclic lattices, "
             "dihedral relation recovered, every basis vector is a relation",
          ok, f"{brauer_run['summary']['checks']} checks")


def test_criterion_10_permutation_sum_values():
    reports = []
    for q in (3, 5):
        for t in range(50):
            reports.append(verify_identity("RCZS", q=q, seed=1000 * q + t))
    ok = all(rep["status"] == "pass" for rep in reports)
    _line(10, "closed-form value on 50+ random permutation-module sums "
              "per q in {3,5}", ok, f"{len(reports)} families")


def test_criterion_11_route_agreement_and_seed_independence():
    checked = 0
    ok = True
    for q in (3, 5):
        rel = dihedral_relation(q)
        G = rel.group
        for t in range(50):
            M = random_module(G, _PROFILES[t % 3], seed=SEED + t)
            # regulator_constant itself runs both routes and aborts on any
            # disagreement; two different map seeds must give the same value
            a = regulator_constant(M, rel, seed=0).value
            b = regulator_constant(M, rel, seed=SEED + 7 * t + 1).value
            ok = ok and a == b
            checked += 1
    _line(11, "both routes agree on every module and the value is "
              "independent of the comparison-map seed",
          ok and checked >= 100, f"{checked} modules x 2 seeds")
