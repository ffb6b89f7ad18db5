"""Deterministic verification suites.

Each suite draws seeded random inputs, runs a fixed set of exact checks and
returns one report dict per check, built by regulator.check_report. Reports
are plain JSON-ready data: {"check", "status", "lhs", "rhs",
"factorization", "seed", "module_digest", "details"}. Given the same (suite, params, seed) the output is byte-for-byte
reproducible. An internal disagreement between the two regulator routes
raises ConsistencyError out of the suite, on purpose: that failure mode means
the library itself is inconsistent and must abort loudly rather than count as
an ordinary failed check.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .arith import factorize, fraction_str, mix_seed, valuation
from .brauer import (
    BrauerRelation,
    brauer_relation_lattice,
    dihedral_relation,
    is_brauer_relation,
    relation_from_vector,
)
from .cohomology import herbrand, rosen_valuation, tate
from .errors import InputError
from .exactla import (
    GroupHom,
    IntMatrix,
    Lattice,
    PresentedAbelianGroup,
    _smith_split,
    dual_hom,
    qindex,
)
from .gmodules import (
    PROFILES,
    GModule,
    compress,
    direct_sum,
    finite_dual,
    norm_matrix,
    permutation_module,
    random_module,
    random_module_hom,
    torsion_decomposition,
    trivial_module,
)
from .groups import FiniteGroup, Subgroup, subgroup_class_representatives
from .jsonio import module_digest
from .regulator import check_report, regulator_constant, run_identity


def _identity_report(identity: str, digest, extra: dict, **inputs) -> dict:
    """An identity check as a suite report, its details extended by extra."""
    passed, lhs, rhs, details = run_identity(identity, **inputs)
    return check_report(passed, lhs, rhs, {**details, **extra},
                        seed=inputs["seed"], check=identity, module_digest=digest)


def _groups_with_relations() -> list[tuple[str, FiniteGroup, BrauerRelation]]:
    out = []
    v4 = FiniteGroup.product([FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)])
    lat = brauer_relation_lattice(v4)
    out.append(("V4", v4, relation_from_vector(v4, lat.basis_rows[0])))
    for q in (3, 5):
        rel = dihedral_relation(q)
        out.append((f"D{q}", rel.group, rel))
    return out


# ---------------------------------------------------------------------------
# the suites
# ---------------------------------------------------------------------------


def _suite_dihedral(q_list, trials, seed):
    trials = 200 if trials is None else trials
    q_list = (3, 5) if not q_list else q_list
    reports = []
    for q in q_list:
        rel = dihedral_relation(q)
        G = rel.group
        for t in range(trials):
            mseed = mix_seed(seed, 1, q, t)
            profile = PROFILES[t % 3]
            M = random_module(G, profile, seed=mseed)
            digest = module_digest(M)
            extra = {"q": q, "trial": t, "profile": profile}
            for identity in ("DIHEDRAL_MAIN", "DCF", "BOUNDS"):
                reports.append(_identity_report(identity, digest, extra,
                                                q=q, module=M, seed=mseed))
            if t % 4 == 0:
                if t % 8 == 0:
                    other = M
                else:
                    other = random_module(G, PROFILES[(t + 1) % 3],
                                          seed=mix_seed(mseed, 11))
                f = random_module_hom(M, other, seed=mseed)
                reports.append(_identity_report(
                    "DCF", digest, dict(extra, hom_target=module_digest(other)),
                    q=q, hom=f, seed=mseed))
            tors = torsion_decomposition(M).torsion
            if tors.abelian_group().order() > 1:
                reports.append(_identity_report(
                    "FINITE_DIHEDRAL", module_digest(tors), extra,
                    q=q, module=tors, seed=mseed))
    return reports


def _suite_duality(q_list, trials, seed):
    trials = 100 if trials is None else trials
    reports = []
    for name, G, rel in _groups_with_relations():
        for t in range(trials):
            mseed = mix_seed(seed, 2, G.order, t)
            M = random_module(G, "torsion_free", seed=mseed)
            reports.append(_identity_report(
                "DUAL1", module_digest(M), {"group": name, "trial": t},
                module=M, relation=rel, seed=mseed))
    return reports


def _suite_finite(q_list, trials, seed):
    trials = 100 if trials is None else trials
    reports = []
    for name, G, rel in _groups_with_relations():
        dihedral_q = G.order // 2 if name.startswith("D") else None
        for t in range(trials):
            mseed = mix_seed(seed, 3, G.order, t)
            M = random_module(G, "finite", seed=mseed)
            digest = module_digest(M)
            extra = {"group": name, "trial": t}
            reports.append(_identity_report("FINITE_DUAL", digest, extra,
                                            module=M, relation=rel, seed=mseed))
            if dihedral_q is not None:
                reports.append(_identity_report("FINITE_DIHEDRAL", digest, extra,
                                                q=dihedral_q, module=M, seed=mseed))
            if t % 10 == 0:
                N = direct_sum(M, finite_dual(M))
                dual_passed, dual_lhs, _, _ = run_identity(
                    "FINITE_DUAL", module=N, relation=rel, seed=mseed)
                c_value = regulator_constant(N, rel, seed=mseed).value
                passed = (dual_passed and dual_lhs == 1
                          and (dihedral_q is None or c_value == 1))
                reports.append(check_report(
                    passed, c_value, Fraction(1),
                    {"group": name, "trial": t, "dual_lhs": fraction_str(dual_lhs)},
                    seed=mseed, check="FINITE_SELF_DUAL",
                    module_digest=module_digest(N)))
    return reports


def _suite_bounds(q_list, trials, seed):
    trials = 100 if trials is None else trials
    q_list = (3, 5) if not q_list else q_list
    reports = []
    for q in q_list:
        G = dihedral_relation(q).group
        for t in range(trials):
            mseed = mix_seed(seed, 4, q, t)
            M = random_module(G, PROFILES[t % 3], seed=mseed)
            reports.append(_identity_report(
                "BOUNDS", module_digest(M),
                {"q": q, "trial": t, "profile": PROFILES[t % 3]},
                q=q, module=M, seed=mseed))
    return reports


def _gf_rank(rows, p: int) -> int:
    """Rank of an integer matrix over the field with p elements."""
    mat = [[x % p for x in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][c], p - 2, p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][c]:
                f = mat[r][c]
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def _mod_p_tate_orders(M: GModule, H: Subgroup, p: int) -> tuple[int, int]:
    """(|H^0|, |H^-1|) of an elementary abelian p-module by rank counting.

    Works on a minimal presentation, where the relations are p times the
    identity, so the module is literally a vector space over F_p and both
    orders come out of Gaussian elimination.
    """
    Mc = compress(M).module
    k = Mc.ambient_rank
    if k == 0:
        return 1, 1
    gens = H.generators()
    stacked = []
    hcols = [[] for _ in range(k)]
    for g in gens:
        A = Mc.action[g].entries
        for i in range(k):
            stacked.append([A[i][j] - (1 if i == j else 0) for j in range(k)])
    for h in H.elements:
        A = Mc.action[h].entries
        for i in range(k):
            hcols[i].extend(A[i][j] - (1 if i == j else 0) for j in range(k))
    norm = norm_matrix(Mc, H).entries
    dim_fixed = k - _gf_rank(stacked, p) if gens else k
    rank_norm = _gf_rank(list(norm), p)
    dim_aug = _gf_rank(hcols, p)
    h0 = p ** (dim_fixed - rank_norm)
    hm1 = p ** (k - rank_norm - dim_aug)
    return h0, hm1


def _suite_cohomology_oracles(q_list, trials, seed):
    trials = 100 if trials is None else trials
    reports = []
    v4 = FiniteGroup.product([FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)])
    zoo = [("D3", dihedral_relation(3).group), ("C6", FiniteGroup.cyclic(6)),
           ("V4", v4), ("D5", dihedral_relation(5).group)]

    # Shapiro: H^i(G, Z[G/H]) has the elementary divisors of H^i(H, Z)
    def inv_json(t):
        return [t[0], list(t[1])]

    for name, G in zoo:
        Z = trivial_module(G)
        for H in subgroup_class_representatives(G):
            P = permutation_module(G, H)
            for i in range(-1, 3):
                left = tate(P, G.full_subgroup(), i)
                right = tate(Z, H, i)
                reports.append(check_report(
                    left.invariants() == right.invariants(),
                    left.order(), right.order(),
                    {"group": name, "subgroup": list(H.elements), "degree": i,
                     "left": inv_json(left.invariants()),
                     "right": inv_json(right.invariants())},
                    seed=seed, check="SHAPIRO", module_digest=None))

    # free module vanishing: every Tate group of Z[G] is trivial
    for name, G in zoo:
        R = permutation_module(G, G.trivial_subgroup())
        for H in subgroup_class_representatives(G):
            for i in range(-1, 3):
                order = tate(R, H, i).order()
                reports.append(check_report(
                    order == 1, order, 1,
                    {"group": name, "subgroup": list(H.elements), "degree": i},
                    seed=seed, check="FREE_VANISHING", module_digest=None))

    # cyclic periodicity on random modules
    cyclics = [FiniteGroup.cyclic(4), FiniteGroup.cyclic(6),
               FiniteGroup.cyclic(9)]
    for t in range(trials):
        G = cyclics[t % len(cyclics)]
        mseed = mix_seed(seed, 5, G.order, t)
        M = random_module(G, PROFILES[t % 3], seed=mseed)
        digest = module_digest(M)
        for i in (-1, 0):
            a = tate(M, G.full_subgroup(), i)
            b = tate(M, G.full_subgroup(), i + 2)
            reports.append(check_report(
                a.invariants() == b.invariants(), a.order(), b.order(),
                {"order": G.order, "degree": i, "trial": t},
                seed=mseed, check="CYCLIC_PERIOD", module_digest=digest))

    # mod-p rank oracle on elementary abelian quotients
    hosts = [("D3", dihedral_relation(3).group), ("V4", v4),
             ("C6", FiniteGroup.cyclic(6))]
    for t in range(trials):
        name, G = hosts[t % len(hosts)]
        p = (2, 3)[t % 2]
        mseed = mix_seed(seed, 6, G.order, t)
        M = random_module(G, "finite", seed=mseed)
        n = M.ambient_rank
        pZ = Lattice.from_rows(n, ([p if i == j else 0 for j in range(n)] for i in range(n)))
        Me = GModule(G, n, M.relations + pZ, M.action)
        if Me.abelian_group().order() == 1:
            continue
        digest = module_digest(Me)
        for H in subgroup_class_representatives(G):
            want0, wantm1 = _mod_p_tate_orders(Me, H, p)
            got0 = tate(Me, H, 0).order()
            gotm1 = tate(Me, H, -1).order()
            reports.append(check_report(
                (got0, gotm1) == (want0, wantm1),
                Fraction(got0 * gotm1), Fraction(want0 * wantm1),
                {"group": name, "p": p, "subgroup": list(H.elements),
                 "h0": [got0, want0], "hm1": [gotm1, wantm1], "trial": t},
                seed=mseed, check="MODP_RANK", module_digest=digest))

    # Rosen's rank formula against the Herbrand quotient, dihedral rotations
    for q in (9, 15):
        G = FiniteGroup.dihedral(q)
        rotations = Subgroup(G, tuple(range(q)), validate=False)
        ells = sorted(factorize(q)) + [2]
        for t in range(trials):
            mseed = mix_seed(seed, 7, q, t)
            M = random_module(G, PROFILES[t % 3], seed=mseed)
            digest = module_digest(M)
            h = herbrand(M, rotations)
            for ell in ells:
                got = rosen_valuation(M, rotations, ell)
                want = valuation(h, ell)
                reports.append(check_report(
                    got == want, Fraction(got), Fraction(want),
                    {"q": q, "ell": ell, "trial": t},
                    seed=mseed, check="ROSEN_DUAL_PATH", module_digest=digest))
    return reports


def _suite_brauer(q_list, trials, seed):
    reports = []
    v4 = FiniteGroup.product([FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)])
    lat = brauer_relation_lattice(v4)
    reports.append(check_report(
        lat.basis_rows == ((1, -1, -1, -1, 2),),
        Fraction(lat.rank), Fraction(1),
        {"basis": [list(r) for r in lat.basis_rows]},
        seed=seed, check="BRAUER_V4", module_digest=None))
    for p in (2, 3, 5):
        lat = brauer_relation_lattice(FiniteGroup.cyclic(p))
        reports.append(check_report(
            lat.rank == 0, Fraction(lat.rank), Fraction(0), {"p": p},
            seed=seed, check="BRAUER_CYCLIC", module_digest=None))
    for q in (3, 5):
        G = FiniteGroup.dihedral(q)
        lat = brauer_relation_lattice(G)
        canonical = dihedral_relation(q).coefficient_vector()
        found = (lat.rank == 1
                 and (lat.basis_rows[0] == canonical
                      or tuple(-x for x in lat.basis_rows[0]) == canonical))
        reports.append(check_report(
            found, Fraction(lat.rank), Fraction(1),
            {"q": q, "basis": [list(r) for r in lat.basis_rows],
             "canonical": list(canonical)},
            seed=seed, check="BRAUER_DIHEDRAL", module_digest=None))
    zoo = [("V4", v4), ("D3", FiniteGroup.dihedral(3)),
           ("D5", FiniteGroup.dihedral(5)), ("D9", FiniteGroup.dihedral(9)),
           ("C6", FiniteGroup.cyclic(6)),
           ("C2xC4", FiniteGroup.product([FiniteGroup.cyclic(2),
                                          FiniteGroup.cyclic(4)])),
           ("C2xC2xC2", FiniteGroup.product([FiniteGroup.cyclic(2)] * 3))]
    for name, G in zoo:
        lat = brauer_relation_lattice(G)
        subs = subgroup_class_representatives(G)
        all_valid = True
        witness = None
        for row in lat.basis_rows:
            ok, bad = is_brauer_relation(G, list(zip(subs, row)))
            if not ok:
                all_valid = False
                witness = {"vector": list(row), "element": bad}
                break
        reports.append(check_report(
            all_valid, Fraction(lat.rank), Fraction(lat.rank),
            {"group": name, "rank": lat.rank, "witness": witness},
            seed=seed, check="BRAUER_BASIS_VALID", module_digest=None))
    return reports


def _random_finite_index_hom(rng) -> GroupHom:
    """Random hom between small presented groups, finite q-index by design."""
    k = rng.randrange(1, 4)
    m = rng.randrange(1, 4)
    F = IntMatrix([[rng.randrange(-4, 5) for _ in range(k)] for _ in range(m)])
    src_rel = [[rng.randrange(-4, 5) for _ in range(k)]
               for _ in range(rng.randrange(0, k + 1))]
    tgt_rows = [F.apply(r) for r in src_rel]
    tgt_rows += [[rng.randrange(-4, 5) for _ in range(m)]
                 for _ in range(rng.randrange(0, m + 1))]
    src = PresentedAbelianGroup(Lattice.from_rows(k, src_rel))
    tgt = PresentedAbelianGroup(Lattice.from_rows(m, tgt_rows))
    return GroupHom(src, tgt, F)


def _suite_qindex(q_list, trials, seed):
    trials = 200 if trials is None else trials
    reports = []
    rng = random.Random(mix_seed(seed, 8))
    done = 0
    attempts = 0
    while done < trials and attempts < 100 * trials:
        attempts += 1
        f = _random_finite_index_hom(rng)
        q = qindex(f)
        if q is None:
            continue
        tors, free = _smith_split(f)
        qt, qm = qindex(tors), qindex(free)
        qd = qindex(dual_hom(f))

        def fr_or_inf(x):
            return "inf" if x is None else fraction_str(x)

        reports.append(check_report(
            qt is not None and qm is not None and q == qt * qm,
            q, 0 if qt is None or qm is None else qt * qm,
            {"trial": done, "q": fraction_str(q), "q_tors": fr_or_inf(qt),
             "q_free": fr_or_inf(qm)},
            seed=seed, check="QINDEX_TORS_SPLIT", module_digest=None))
        reports.append(check_report(
            qd is not None and qt is not None and q == qd * qt,
            q, 0 if qd is None or qt is None else qd * qt,
            {"trial": done, "q": fraction_str(q), "q_dual": fr_or_inf(qd),
             "q_tors": fr_or_inf(qt)},
            seed=seed, check="QINDEX_DUAL_SPLIT", module_digest=None))
        done += 1
    return reports


_SUITES = {
    "dihedral": _suite_dihedral,
    "duality": _suite_duality,
    "finite": _suite_finite,
    "bounds": _suite_bounds,
    "cohomology-oracles": _suite_cohomology_oracles,
    "brauer": _suite_brauer,
    "qindex": _suite_qindex,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, q_list=None, trials: int | None = None,
              seed: int = 0) -> dict:
    """Run a named suite; returns {"suite", "params", "reports", "summary"}."""
    if name not in _SUITES:
        raise InputError(
            f"unknown suite {name!r}; expected one of {', '.join(SUITE_NAMES)}"
        )
    q_list = tuple(q_list) if q_list else ()
    for q in q_list:
        if q < 2 or q % 2 == 0:
            raise InputError("suite q values must be odd and greater than 1")
    if trials is not None and trials < 0:
        raise InputError(f"suite trials must be non-negative, not {trials}")
    reports = _SUITES[name](q_list, trials, seed)
    summary = {"pass": 0, "fail": 0, "error": 0, "checks": len(reports)}
    for rep in reports:
        summary[rep["status"]] += 1
    return {
        "suite": name,
        "params": {"q": list(q_list), "trials": trials, "seed": seed},
        "reports": reports,
        "summary": summary,
    }
