"""Tate cohomology: frozen small cases, enumeration oracles, route agreement."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reglab import (
    DegreeWindowError,
    FiniteGroup,
    GModule,
    IntMatrix,
    Lattice,
    ModuleHom,
    PresentedAbelianGroup,
    bounds_report,
    build_phi,
    compress,
    dihedral_relation,
    direct_sum,
    fixed_points,
    herbrand,
    induced_hom,
    induced_kernel_order,
    permutation_module,
    random_module,
    random_module_hom,
    restrict,
    rosen_valuation,
    smith_normal_form,
    subgroup_class_representatives,
    tate,
    torsion_decomposition,
    trivial_module,
)
from reglab import exactla
from reglab.arith import mix_seed
from reglab.cohomology import (
    _complex,
    _complex_data,
    _period,
    _reduce_degree,
    _resolution,
    _ring_columns,
)
from reglab.errors import InputError
from reglab.exactla import integer_kernel, qindex

from oracles import (
    a4,
    augmentation_all_kernel_order,
    augmentation_all_tate,
    cocycle_count_bruteforce,
    compose,
    fixed_and_norm_bruteforce,
    raw_induced_kernel_order,
    raw_tate,
    ring_matrix,
    shift_induced_kernel_order,
    shift_tate,
    table_induced_kernel_order,
    table_tate,
    two_pass_complex_data,
    zoo,
)


def V4():
    c2 = FiniteGroup.cyclic(2)
    return FiniteGroup.product([c2, c2])


def table_groups():
    """The groups that take the free resolution, with their abelianisations."""
    C = FiniteGroup.cyclic
    return [("V4", V4(), (2, 2)), ("C2xC4", FiniteGroup.product([C(2), C(4)]), (2, 4)),
            ("C2^3", FiniteGroup.product([C(2)] * 3), (2, 2, 2)),
            ("D4", FiniteGroup.dihedral(4), (2, 2)), ("D6", FiniteGroup.dihedral(6), (2, 2)),
            ("A4", a4(), (3,))]


def forced_table(M, H):
    """A copy of M, over its own copy of the group, whose restriction to H
    has no period, so that every degree in 1..2 is read between d_j and
    d_{j+1} of the free resolution; the group is copied because restrictions
    share the re-indexed group of H across every module over M.group."""
    G = FiniteGroup(M.group.mul, M.group.descriptor, validate=False)
    out = GModule(G, M.ambient_rank, M.relations, M.action)
    restrict(out, H).group._cache["period"] = None
    return out


def index2_sign_module(G, kernel_elements, modulus=0):
    kernel = set(kernel_elements)
    assert 2 * len(kernel) == G.order
    action = [IntMatrix([[1 if g in kernel else -1]]) for g in range(G.order)]
    rel = Lattice.from_rows(1, [[modulus]]) if modulus else None
    return GModule(G, 1, rel, action)


def diagonal_divisors(M):
    r = M.ambient_rank
    divs = [0] * r
    for row in M.relations.basis_rows:
        support = [j for j in range(r) if row[j]]
        assert len(support) == 1
        divs[support[0]] = row[support[0]]
    assert all(d > 0 for d in divs)
    return divs


# -- frozen small values


def test_trivial_module_over_cyclic_groups():
    for m in (2, 3, 4, 6):
        G = FiniteGroup.cyclic(m)
        Z = trivial_module(G)
        full = G.full_subgroup()
        assert tate(Z, full, 0).invariants() == (0, (m,))
        assert tate(Z, full, -1).order() == 1
        assert tate(Z, full, 1).order() == 1
        assert tate(Z, full, 2).invariants() == (0, (m,))


def test_sign_module_over_c2():
    G = FiniteGroup.cyclic(2)
    M = index2_sign_module(G, [0])
    full = G.full_subgroup()
    assert tate(M, full, 0).order() == 1
    assert tate(M, full, -1).invariants() == (0, (2,))
    assert tate(M, full, 1).invariants() == (0, (2,))
    assert tate(M, full, 2).order() == 1


def test_trivial_module_over_v4_and_degree_two_shift():
    G = V4()
    Z = trivial_module(G)
    full = G.full_subgroup()
    assert tate(Z, full, 0).invariants() == (0, (4,))
    assert tate(Z, full, -1).order() == 1
    assert tate(Z, full, 1).order() == 1
    # Schur-multiplier style check of the dimension shift
    assert tate(Z, full, 2).invariants() == (0, (2, 2))


def test_trivial_module_over_dihedral_groups():
    for q in (3, 5):
        G = FiniteGroup.dihedral(q)
        Z = trivial_module(G)
        full = G.full_subgroup()
        assert tate(Z, full, 0).invariants() == (0, (2 * q,))
        assert tate(Z, full, -1).order() == 1
        assert tate(Z, full, 1).order() == 1
        assert tate(Z, full, 2).invariants() == (0, (2,))


def test_degree_window_error_outside_range_for_v4():
    G = V4()
    Z = trivial_module(G)
    with pytest.raises(DegreeWindowError):
        tate(Z, G.full_subgroup(), 3)
    with pytest.raises(DegreeWindowError):
        tate(Z, G.full_subgroup(), -2)


def test_periodicity_of_cyclic_and_dihedral():
    Gc = FiniteGroup.cyclic(6)
    M = random_module(Gc, "mixed", 5, max_rank=6)
    full = Gc.full_subgroup()
    for i in (-1, 0, 1, 2):
        assert tate(M, full, i).invariants() == tate(M, full, i + 2).invariants()
    Gd = FiniteGroup.dihedral(3)
    M = random_module(Gd, "mixed", 5, max_rank=6)
    full = Gd.full_subgroup()
    for i in (-1, 0, 1, 2):
        assert tate(M, full, i).invariants() == tate(M, full, i + 4).invariants()


RECORDS = ("SmithForm", "FixedPointData", "Presentation", "TorsionDecomposition",
           "TateGroup", "PhiMap", "BoundsReport")


@pytest.mark.parametrize("name", RECORDS)
def test_records_refuse_assignment_and_tate_relabels_the_cached_group(name):
    G = FiniteGroup.dihedral(3)
    M = random_module(G, "mixed", 5, max_rank=6)
    C6 = FiniteGroup.cyclic(6)
    N = random_module(C6, "mixed", 5, max_rank=6)
    build = {
        "SmithForm": lambda: smith_normal_form(IntMatrix([[2, 4], [6, 8]])),
        "FixedPointData": lambda: fixed_points(M, G.full_subgroup()),
        "Presentation": lambda: compress(M),
        "TorsionDecomposition": lambda: torsion_decomposition(M),
        "TateGroup": lambda: tate(N, C6.full_subgroup(), 5),
        "PhiMap": lambda: build_phi(dihedral_relation(3)),
        "BoundsReport": lambda: bounds_report(M, 3, 3),
    }
    record = build[name]()
    assert type(record).__name__ == name
    for field in record._fields + ("unknown",):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    if name == "TateGroup":
        cached = tate(N, C6.full_subgroup(), -1)
        assert (record.degree, record.reduced_degree, cached.degree) == (5, -1, -1)
        assert record._replace(degree=-1) == cached


def test_trivial_subgroup_gives_trivial_groups():
    G = FiniteGroup.dihedral(3)
    M = random_module(G, "mixed", 2)
    for i in (-1, 0, 1, 2, 17):
        assert tate(M, G.trivial_subgroup(), i).order() == 1


def test_free_module_has_no_cohomology():
    for G in (FiniteGroup.cyclic(4), FiniteGroup.dihedral(3), V4()):
        reg = permutation_module(G, G.trivial_subgroup())
        for H in subgroup_class_representatives(G):
            for i in (-1, 0, 1, 2):
                assert tate(reg, H, i).order() == 1


def test_shapiro_isomorphism_across_routes():
    # cohomology of G on Z[G/H] equals cohomology of H on Z; the two sides
    # go through different computation routes, so this crosses them all
    for G in (FiniteGroup.dihedral(3), FiniteGroup.cyclic(6), V4()):
        Z = trivial_module(G)
        for H in subgroup_class_representatives(G):
            P = permutation_module(G, H)
            for i in (-1, 0, 1, 2):
                lhs = tate(P, G.full_subgroup(), i)
                rhs = tate(Z, H, i)
                assert lhs.invariants() == rhs.invariants(), (G.descriptor, H.elements, i)


def test_h1_against_cocycle_enumeration():
    G2 = FiniteGroup.cyclic(2)
    G3 = FiniteGroup.cyclic(3)
    G4 = FiniteGroup.cyclic(4)
    Gv = V4()
    Gd = FiniteGroup.dihedral(3)
    cases = [
        index2_sign_module(G2, [0], modulus=4),
        GModule(G2, 1, Lattice.from_rows(1, [[6]]), [IntMatrix([[1]])] * 2),
        GModule(G3, 1, Lattice.from_rows(1, [[9]]), [IntMatrix([[1]])] * 3),
        index2_sign_module(G4, [0, 2], modulus=3),
        GModule(G4, 1, Lattice.from_rows(1, [[4]]), [IntMatrix([[1]])] * 4),
        index2_sign_module(Gv, [0, 1], modulus=5),
        GModule(Gv, 1, Lattice.from_rows(1, [[2]]), [IntMatrix([[1]])] * 4),
        index2_sign_module(Gd, [0, 1, 2], modulus=4),
        GModule(Gd, 1, Lattice.from_rows(1, [[6]]), [IntMatrix([[1]])] * 6),
    ]
    # a rank-2 case on the table route: Z[V4/K] mod 2
    K = Gv.subgroup([0, 1])
    perm = permutation_module(Gv, K)
    cases.append(GModule(Gv, 2, Lattice.from_rows(2, [[2, 0], [0, 2]]), perm.action))
    for M in cases:
        G = M.group
        small = compress(M).module
        divs = diagonal_divisors(small)
        size = 1
        for d in divs:
            size *= d
        assert size ** (G.order - 1) <= 10**5
        z, b = cocycle_count_bruteforce(
            G.mul, [small.action[g].to_lists() for g in range(G.order)], divs
        )
        got = tate(small, G.full_subgroup(), 1).order()
        assert got * b == z


def test_h1_random_finite_modules_against_enumeration():
    rng = random.Random(17)
    for G in (FiniteGroup.cyclic(2), FiniteGroup.cyclic(3)):
        for _ in range(6):
            M = random_module(G, "finite", rng.randrange(10**6), max_rank=2)
            small = compress(M).module
            divs = diagonal_divisors(small)
            size = 1
            for d in divs:
                size *= d
            if size ** (G.order - 1) > 10**4:
                continue
            z, b = cocycle_count_bruteforce(
                G.mul, [small.action[g].to_lists() for g in range(G.order)], divs
            )
            assert tate(small, G.full_subgroup(), 1).order() * b == z


def test_table_route_agrees_with_fast_routes():
    # take away the period: cyclic degree 1 is then read off the resolution
    # instead of degree -1, and dihedral degree 2 between d2 and d3 instead of
    # as H_1 between the transposes of d2 and d1
    rng = random.Random(3)
    D = FiniteGroup.dihedral
    for G, degrees in ((FiniteGroup.cyclic(4), (1,)), (FiniteGroup.cyclic(6), (1,)),
                       (D(3), (1, 2)), (D(5), (1, 2)), (D(9), (1, 2))):
        full = G.full_subgroup()
        for _ in range(5):
            seed = rng.randrange(10**6)
            M = random_module(G, "mixed", seed, max_rank=5)
            N = random_module(G, "mixed", seed + 1, max_rank=5)
            f = random_module_hom(M, N, seed)
            ft = ModuleHom(forced_table(f.source, full), forced_table(f.target, full),
                           f.matrix)
            for i in degrees:
                assert (tate(ft.source, full, i).invariants()
                        == tate(f.source, full, i).invariants())
                assert induced_kernel_order(ft, full, i) == induced_kernel_order(f, full, i)


def test_a_route_forced_on_a_copy_stays_on_the_copy():
    # the copy's restriction carries the forced route; the shared group, and
    # every module read over it later, keeps its own
    G = FiniteGroup.dihedral(3)
    full = G.full_subgroup()
    M = trivial_module(G)
    forced = forced_table(M, full)
    assert _period(restrict(forced, full).group) is None
    shared = restrict(trivial_module(FiniteGroup.dihedral(3)), full).group
    assert shared is restrict(M, full).group
    assert _period(shared) == 4


def test_table_groups_match_the_shift_oracle():
    # production takes degrees 1 and 2 from the free resolution; the oracle
    # takes Cayley-table cochains, and degree 2 on the coinduced shift
    rng = random.Random(89)
    max_rank = {"V4": 4, "C2xC4": 3, "C2^3": 3, "D4": 3, "D6": 2, "A4": 2}
    for name, G, _ in table_groups():
        for profile in ("torsion_free", "finite", "mixed"):
            seed = rng.randrange(10**6)
            M = random_module(G, profile, seed, max_rank=max_rank[name])
            N = random_module(G, profile, seed + 1, max_rank=max_rank[name])
            f = random_module_hom(M, N, seed)
            H = G.full_subgroup()
            for i in (1, 2):
                assert tate(M, H, i).invariants() == table_tate(M, H, i).invariants()
                assert (induced_kernel_order(f, H, i)
                        == table_induced_kernel_order(f, H, i)), (name, profile, i)


def test_degree_two_of_the_trivial_module_is_the_dual_abelianisation():
    # H^2(G, Z) = Hom(G^ab, Q/Z), which is isomorphic to G^ab (K. Brown,
    # Cohomology of Groups, GTM 87, III.1)
    for name, G, ab in table_groups():
        got = tate(trivial_module(G), G.full_subgroup(), 2).invariants()
        assert got == (0, ab), name


def z_matrix(G, table):
    """A table of group-ring elements as the Z-linear map on the bases
    g e_i of the free modules, coordinate i * |G| + g."""
    h = G.order
    out = [[0] * (h * len(table)) for _ in range(h * len(table[0]))]
    for i, line in enumerate(table):
        for g in range(h):
            for c, elt in enumerate(line):
                for a, t in elt:
                    out[c * h + G.mul[g][t]][i * h + g] += a
    return IntMatrix(out, cols=h * len(table))


def test_resolution_is_exact_and_small():
    augmentation = lambda G: IntMatrix([[1] * G.order])
    ranks = {"V4": [2, 3, 4], "C2xC4": [2, 3, 4], "C2^3": [3, 6, 10],
             "D4": [2, 3, 4], "D6": [2, 3, 4], "A4": [2, 3, 3],
             "D3": [2, 3, 4], "D5": [2, 3, 4], "D9": [2, 3, 4]}
    dihedral = [(f"D{q}", FiniteGroup.dihedral(q), None) for q in (3, 5, 9)]
    for name, G, _ in table_groups() + dihedral:
        d = _resolution(G, 3)
        # pinned so that a wider resolution shows up as a failure
        assert [len(t) for t in d] == ranks[name]
        maps = [augmentation(G)] + [z_matrix(G, t) for t in d]
        for lower, upper in zip(maps, maps[1:]):
            assert lower @ upper == IntMatrix.zeros(lower.rows, upper.cols)
            assert Lattice.from_rows(upper.rows, upper.columns()) == integer_kernel(lower), name


def fresh(G):
    """A copy of G with empty caches, so that its restrictions and their
    resolutions are built anew."""
    return FiniteGroup(G.mul, G.descriptor, validate=False)


def test_resolution_grows_only_as_far_as_the_degree_reads():
    # dihedral degree 2 is H_1 between d2^T and d1^T, so it needs d1 and d2
    # only; over V4 degree 1 needs d2 and degree 2 needs d3
    for D in (FiniteGroup.dihedral(3), FiniteGroup.dihedral(5)):
        G = fresh(D)
        M = random_module(G, "mixed", 3, max_rank=4)
        tate(M, G.full_subgroup(), 2)
        assert len(restrict(M, G.full_subgroup()).group._cache["resolution"]) == 2
    G = fresh(V4())
    full = G.full_subgroup()
    M = random_module(G, "mixed", 3, max_rank=4)
    GH = restrict(M, full).group
    tate(M, full, 1)
    assert len(GH._cache["resolution"]) == 2
    tate(M, full, 2)
    assert len(GH._cache["resolution"]) == 3
    # grown in two steps, the maps are those of one build
    other = fresh(V4())
    assert GH._cache["resolution"] == _resolution(
        restrict(trivial_module(other), other.full_subgroup()).group, 3)


def test_one_pass_per_map_matches_two_eliminations_per_degree():
    # production reads degree j's boundaries off the pass that gives the
    # cycles of degree j - 1; the oracle eliminates twice in every degree
    C = FiniteGroup.cyclic
    D = FiniteGroup.dihedral
    groups = [C(6), C(9), D(3), D(5), D(9), V4(), FiniteGroup.product([C(2), C(4)]),
              FiniteGroup.product([C(2)] * 3), a4(), D(4)]
    rng = random.Random(83)
    for G in groups:
        for profile in ("torsion_free", "finite", "mixed"):
            M = random_module(G, profile, rng.randrange(10**6), max_rank=6)
            for H in subgroup_class_representatives(G)[1:]:
                R = restrict(M, H)
                periodic = [5] if _period(R.group) else []
                for d in [-1, 0, 1, 2] + periodic:
                    j = _reduce_degree(R.group, d)
                    assert _complex_data(R, j) == two_pass_complex_data(R, j), (G, H, d)


def test_each_map_takes_one_pass(monkeypatch):
    # per restricted module over its whole degree window: one preimage
    # echelon per upper map (the norm, d1, and d2 with d3 or the involuted
    # d1^T), and a Hermite pass of its own only for a lower map named by a
    # transpose; asked downwards or upwards, the counts are the same
    passes = {"echelon": 0, "hermite": 0}
    echelon, from_rows = exactla._preimage_echelon, Lattice.from_rows.__func__

    def counted_echelon(*args):
        passes["echelon"] += 1
        return echelon(*args)

    def counted_rows(cls, *args):
        passes["hermite"] += 1
        return from_rows(cls, *args)

    monkeypatch.setattr(exactla, "_preimage_echelon", counted_echelon)
    monkeypatch.setattr(Lattice, "from_rows", classmethod(counted_rows))
    expected = {2: (2, 0), None: (4, 1), 4: (4, 2)}
    seen = set()
    C = FiniteGroup.cyclic
    for G in (C(6), FiniteGroup.dihedral(3), FiniteGroup.dihedral(5), V4(),
              FiniteGroup.product([C(2), C(4)]), a4()):
        for order in ((2, 1, 0, -1), (-1, 0, 1, 2)):
            M = random_module(G, "mixed", 5, max_rank=5)
            for H in subgroup_class_representatives(G)[1:]:
                R = restrict(M, H)
                GH, period = R.group, _period(R.group)
                for d in order:  # the group's tables, built before counting
                    _complex(GH, _reduce_degree(GH, d))
                passes.update(echelon=0, hermite=0)
                for d in order:
                    _complex_data(R, _reduce_degree(GH, d))
                assert (passes["echelon"], passes["hermite"]) == expected[period], (G, H, order)
                seen.add(period)
    assert seen == set(expected)


def test_tate_groups_build_no_echelon_beyond_the_map_passes(monkeypatch):
    # U/V and its invariants are read off the two Hermite forms, so every
    # echelon behind tate(...).invariants() is built inside _complex_data
    import reglab.cohomology as cohomology
    made = {"all": 0, "passes": 0}
    init, complex_data = exactla._Echelon.__init__, cohomology._complex_data

    def counted_init(self, *args, **kwargs):
        made["all"] += 1
        init(self, *args, **kwargs)

    def counted_data(R, j):
        before = made["all"]
        out = complex_data(R, j)
        made["passes"] += made["all"] - before
        return out

    monkeypatch.setattr(exactla._Echelon, "__init__", counted_init)
    monkeypatch.setattr(cohomology, "_complex_data", counted_data)
    C = FiniteGroup.cyclic
    vanishing = 0
    for G in (C(6), FiniteGroup.dihedral(3), FiniteGroup.dihedral(5), V4(), a4()):
        subgroups = subgroup_class_representatives(G)[1:]
        for H in subgroups:  # the group's tables, built before counting
            GH = restrict(trivial_module(G), H).group
            for d in (-1, 0, 1, 2):
                _complex(GH, _reduce_degree(GH, d))
        for profile in ("torsion_free", "finite", "mixed"):
            M = random_module(G, profile, 7, max_rank=5)
            cohomology._minimal(M)  # the minimal presentation runs a Smith form
            made.update(all=0, passes=0)
            for H in subgroups:
                for d in (-1, 0, 1, 2):
                    tate(M, H, d).invariants()
            assert made["all"] == made["passes"], (G, profile)
            # a finite module of order prime to every |H| builds no cochain
            if M.is_finite() and all(gcd(M.order(), H.order) == 1 for H in subgroups):
                vanishing += 1
                assert made["all"] == 0, (G, profile)
            else:
                assert made["all"] > 0, (G, profile)
    assert vanishing > 0


def _ring_tables(GH):
    """The tables the complexes over GH read, by name: the norm, d1, d2 and
    the transposes of d1 and d2."""
    d1, d2 = _resolution(GH, 2)
    norm = _complex(GH, 0)[0][1]
    return {"norm": norm, "d1": d1, "d1T": [list(c) for c in zip(*d1)],
            "d2": d2, "d2T": [list(c) for c in zip(*d2)]}


_RING_GROUPS = [G for G in zoo() if G.order > 1]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(range(len(_RING_GROUPS))),
       st.sampled_from(("torsion_free", "finite", "mixed")), st.integers(0, 10**6),
       st.integers(2, 5), st.booleans(), st.sampled_from(("norm", "d1", "d1T", "d2", "d2T")))
def test_ring_columns_are_the_columns_of_the_row_built_matrix(index, profile, seed,
                                                              max_rank, involute, name):
    G = _RING_GROUPS[index]
    M = random_module(G, profile, seed, max_rank=max_rank)
    table = _ring_tables(G)[name]
    columns = _ring_columns(M, table, involute)
    assert columns == ring_matrix(M, table, involute).columns()
    assert all(type(col) is list for col in columns)


def test_tate_map_passes_build_no_checked_matrix(monkeypatch):
    # every map of a Tate complex reaches the echelon as its columns, with
    # no matrix through the entry-checking IntMatrix constructor
    import reglab.cohomology as cohomology
    seen = {"depth": 0, "checked": 0, "passes": 0}
    init, complex_data = IntMatrix.__init__, cohomology._complex_data

    def counted_init(self, *args, **kwargs):
        seen["checked"] += seen["depth"] > 0
        init(self, *args, **kwargs)

    def watched_data(R, j):
        seen["depth"] += 1
        seen["passes"] += 1
        try:
            return complex_data(R, j)
        finally:
            seen["depth"] -= 1

    monkeypatch.setattr(IntMatrix, "__init__", counted_init)
    monkeypatch.setattr(cohomology, "_complex_data", watched_data)
    C = FiniteGroup.cyclic
    for G in (C(6), FiniteGroup.dihedral(3), FiniteGroup.dihedral(5), V4(),
              FiniteGroup.product([C(2), C(4)]), a4()):
        subgroups = subgroup_class_representatives(G)[1:]
        for H in subgroups:  # the group's tables, built before watching
            GH = restrict(trivial_module(G), H).group
            for d in (-1, 0, 1, 2):
                _complex(GH, _reduce_degree(GH, d))
        for profile in ("torsion_free", "finite", "mixed"):
            M = random_module(G, profile, 13, max_rank=5)
            for H in subgroups:
                for d in (-1, 0, 1, 2):
                    tate(M, H, d)
    assert seen["passes"] > 0
    assert seen["checked"] == 0


def _mixed_sum(G, rank):
    """The direct sum of random_module(G, "mixed", s, max_rank=12) over
    s = 11, 12, ... until its rank reaches rank."""
    M, seed = random_module(G, "mixed", 11, max_rank=12), 12
    while M.ambient_rank < rank:
        M = direct_sum(M, random_module(G, "mixed", seed, max_rank=12))
        seed += 1
    return M


def test_tate_table_echelon_entries_stay_bounded(monkeypatch):
    # the entries above the pivots wait for canonical(), so only the
    # reduction at the pivots below each row bounds growth: these rank-44
    # tables (D4, C2xC4) peak at 59 and 69 bits with it, 638 and 335 without
    peak = [0]
    canonical = exactla._Echelon.canonical

    def watched(self, *args):
        peak[0] = max([peak[0]] + [abs(a).bit_length() for row in self.rows for a in row])
        return canonical(self, *args)

    monkeypatch.setattr(exactla._Echelon, "canonical", watched)
    for G in (FiniteGroup.dihedral(4),
              FiniteGroup.product([FiniteGroup.cyclic(2), FiniteGroup.cyclic(4)])):
        M = _mixed_sum(G, 40)
        assert M.ambient_rank == 44
        for H in subgroup_class_representatives(G)[1:]:
            for d in (-1, 0, 1, 2):
                tate(M, H, d)
    assert 0 < peak[0] <= 96


def test_dihedral_degree_two_is_h1_at_the_free_end():
    # H_1 sits between the transposes of d2 (F2 -> F1, three generators to
    # two) and d1 (F1 -> F0, two to one), with the involuted action
    for q in (3, 5, 9):
        G = FiniteGroup.dihedral(q)
        (_, lower), (_, upper), involute = _complex(G, 2)
        assert (len(lower), len(upper), involute) == (2, 1, True)
        assert [len(line) for line in lower] == [3, 3] and len(upper[0]) == 2


def test_degree_two_does_not_reuse_the_degree_minus_one_matrix():
    # both degrees act by the transpose of d1, degree 2 involuted and degree
    # -1 not; reading -1 first must leave degree 2 as on a fresh module
    rng = random.Random(7)
    for q in (3, 5):
        G = FiniteGroup.dihedral(q)
        full = G.full_subgroup()
        for profile in ("torsion_free", "finite", "mixed"):
            seed = rng.randrange(10**6)
            M = random_module(G, profile, seed, max_rank=5)
            fresh = random_module(G, profile, seed, max_rank=5)
            tate(M, full, -1)
            assert tate(M, full, 2).invariants() == tate(fresh, full, 2).invariants()
            f = random_module_hom(M, M, seed)
            g = random_module_hom(fresh, fresh, seed)
            induced_kernel_order(f, full, -1)
            assert induced_kernel_order(f, full, 2) == induced_kernel_order(g, full, 2)


def test_coinvariant_torsion_is_degree_minus_one():
    # for torsion-free M the torsion of M_H matches the norm-kernel quotient
    rng = random.Random(29)
    G = FiniteGroup.dihedral(3)
    ident = IntMatrix.identity
    for _ in range(6):
        M = random_module(G, "torsion_free", rng.randrange(10**6), max_rank=6)
        for H in subgroup_class_representatives(G):
            if H.order == 1:
                continue
            n = M.ambient_rank
            rows = []
            for h in H.elements:
                rows.extend((M.action[h] - ident(n)).columns())
            coinv = PresentedAbelianGroup(Lattice.from_rows(n, rows))
            assert coinv.torsion_divisors == tate(M, H, -1).invariants()[1]


def test_degree_minus_one_matches_the_all_elements_oracle():
    # production spans I_H M by the generators of H, the oracle by all of H
    C = FiniteGroup.cyclic
    groups = [C(6), C(9), FiniteGroup.dihedral(3), FiniteGroup.dihedral(5), V4(),
              FiniteGroup.product([C(2), C(4)]), FiniteGroup.product([C(2)] * 3),
              FiniteGroup.dihedral(4), a4()]
    rng = random.Random(61)
    for G in groups:
        for profile in ("torsion_free", "finite", "mixed"):
            seed = rng.randrange(10**6)
            M = random_module(G, profile, seed, max_rank=4)
            N = random_module(G, profile, seed + 1, max_rank=4)
            f = random_module_hom(M, N, seed)
            for H in subgroup_class_representatives(G)[1:]:
                assert (tate(M, H, -1).invariants()
                        == augmentation_all_tate(M, H).invariants()), (G, profile, H)
                assert (induced_kernel_order(f, H, -1)
                        == augmentation_all_kernel_order(f, H)), (G, profile, H)


def test_degree_zero_is_fixed_points_modulo_norms():
    # |H^0| = |M^H| |M/NM| / |M| by enumeration, and the cocycles are M^H
    groups = [FiniteGroup.cyclic(2), FiniteGroup.cyclic(4), FiniteGroup.dihedral(3)]
    rng = random.Random(67)
    for G in groups:
        for _ in range(4):
            M = compress(random_module(G, "finite", rng.randrange(10**6),
                                       max_rank=4)).module
            if M.order() > 2000:
                continue
            divs = diagonal_divisors(M)
            for H in subgroup_class_representatives(G):
                tables = [M.action[h].to_lists() for h in H.elements]
                fixed, coker = fixed_and_norm_bruteforce(range(H.order), tables, divs)
                T = tate(M, H, 0)
                assert T.order() * M.order() == fixed * coker, (G, H.elements)
                if H.order > 1:
                    R = restrict(M, H)
                    fixed_lattice = fixed_points(R, R.group.full_subgroup()).lattice
                    if gcd(M.order(), H.order) > 1:
                        assert T.numerator == fixed_lattice
                    else:
                        # known to vanish: no cochains, and the full
                        # cochains still have the fixed points as cocycles
                        assert raw_tate(M, H, 0).numerator == fixed_lattice
                        assert T.numerator == T.denominator == Lattice.zero(0)
                        assert (T.ambient_rank, T.group.generator_count) == (0, 0)


def test_herbrand_values_and_multiplicativity():
    G = FiniteGroup.cyclic(6)
    full = G.full_subgroup()
    Z = trivial_module(G)
    assert herbrand(Z, full) == 6
    assert herbrand(Z, G.subgroup([0, 2, 4])) == 3
    rng = random.Random(41)
    for _ in range(4):
        A = random_module(G, "mixed", rng.randrange(10**6), max_rank=4)
        B = random_module(G, "mixed", rng.randrange(10**6), max_rank=4)
        assert herbrand(direct_sum(A, B), full) == herbrand(A, full) * herbrand(B, full)


def test_herbrand_of_finite_module_is_one():
    rng = random.Random(43)
    for G in (FiniteGroup.cyclic(4), FiniteGroup.cyclic(6)):
        for _ in range(6):
            M = random_module(G, "finite", rng.randrange(10**6), max_rank=5)
            for H in subgroup_class_representatives(G):
                assert herbrand(M, H) == 1


def test_rosen_valuation_frozen_cases():
    G9 = FiniteGroup.cyclic(9)
    assert rosen_valuation(trivial_module(G9), G9.full_subgroup(), 3) == 2
    assert rosen_valuation(trivial_module(G9), G9.subgroup([0, 3, 6]), 3) == 1
    assert rosen_valuation(trivial_module(G9), G9.full_subgroup(), 2) == 0
    G3 = FiniteGroup.cyclic(3)
    reg = permutation_module(G3, G3.trivial_subgroup())
    assert rosen_valuation(reg, G3.full_subgroup(), 3) == 0


def test_rosen_valuation_matches_herbrand():
    rng = random.Random(59)
    for order, primes in ((6, (2, 3)), (9, (3,)), (15, (3, 5))):
        G = FiniteGroup.cyclic(order)
        full = G.full_subgroup()
        for _ in range(4):
            M = random_module(G, "mixed", rng.randrange(10**6), max_rank=6)
            h = herbrand(M, full)
            for ell in primes:
                v = 0
                x = Fraction(h)
                while x.numerator % ell == 0:
                    x /= ell
                    v += 1
                while x.denominator % ell == 0:
                    x *= ell
                    v -= 1
                assert rosen_valuation(M, full, ell) == v


def test_rosen_valuation_needs_cyclic_subgroup():
    G = FiniteGroup.dihedral(3)
    with pytest.raises(InputError, match="cyclic"):
        rosen_valuation(trivial_module(G), G.full_subgroup(), 2)


def test_induced_map_of_identity_is_identity():
    G = FiniteGroup.dihedral(3)
    M = random_module(G, "mixed", 4, max_rank=5)
    f = ModuleHom(M, M, IntMatrix.identity(M.ambient_rank))
    for H in subgroup_class_representatives(G):
        for i in (-1, 0, 1, 2):
            hom = induced_hom(f, H, i)
            assert qindex(hom) == 1
            assert induced_kernel_order(f, H, i) == 1


def test_induced_multiplication_on_trivial_module():
    G = FiniteGroup.dihedral(3)
    Z = trivial_module(G)
    full = G.full_subgroup()
    for m, k0, k2 in ((2, 2, 2), (3, 3, 1), (6, 6, 2)):
        f = ModuleHom(Z, Z, IntMatrix([[m]]))
        assert induced_kernel_order(f, full, 0) == k0
        assert induced_kernel_order(f, full, 2) == k2
        assert induced_kernel_order(f, full, 1) == 1
        assert induced_kernel_order(f, full, -1) == 1


def test_induced_composition_in_low_degrees():
    rng = random.Random(71)
    G = FiniteGroup.cyclic(4)
    full = G.full_subgroup()
    for _ in range(4):
        M = random_module(G, "mixed", rng.randrange(10**6), max_rank=4)
        scalars = (rng.randrange(1, 5), rng.randrange(1, 5))
        f = ModuleHom(M, M, IntMatrix([[scalars[0]]]).kron(IntMatrix.identity(M.ambient_rank)))
        g = ModuleHom(M, M, IntMatrix([[scalars[1]]]).kron(IntMatrix.identity(M.ambient_rank)))
        gf = ModuleHom(M, M, g.matrix @ f.matrix)
        for i in (-1, 0, 1):
            a = induced_hom(gf, full, i)
            b = compose(induced_hom(g, full, i), induced_hom(f, full, i))
            assert a.matrix == b.matrix


def test_induced_kernel_on_trivial_subgroup_is_one():
    G = FiniteGroup.dihedral(3)
    M = random_module(G, "mixed", 9, max_rank=4)
    f = ModuleHom(M, M, IntMatrix([[3]]).kron(IntMatrix.identity(M.ambient_rank)))
    assert induced_kernel_order(f, G.trivial_subgroup(), 0) == 1


def test_induced_kernel_order_builds_no_kron_coordinates_or_hom(monkeypatch):
    # with the Tate groups cached by a first call, each kernel is read off
    # the induced columns by the one reader alone
    G = FiniteGroup.dihedral(3)
    M = random_module(G, "mixed", 9, max_rank=4)
    f = ModuleHom(M, M, IntMatrix([[3]]).kron(IntMatrix.identity(M.ambient_rank)))
    cases = [(H, i) for H in subgroup_class_representatives(G) for i in (-1, 0, 1, 2)]
    expected = [induced_kernel_order(f, H, i) for H, i in cases]
    assert max(expected) > 1
    calls = []
    for owner, name in ((IntMatrix, "kron"), (Lattice, "coordinate_matrix"),
                        (exactla.GroupHom, "__init__")):
        method = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, _name=name, _method=method:
                            calls.append(_name) or _method(*args))
    assert [induced_kernel_order(f, H, i) for H, i in cases] == expected
    assert calls == []


def test_dihedral_degree_two_matches_the_coinduced_shift():
    # production takes H_1 of the free resolution; the oracle takes H^1 of
    # the coinduced shift
    rng = random.Random(83)
    for q, max_rank in ((3, 6), (5, 6), (7, 6), (9, 4)):
        G = FiniteGroup.dihedral(q)
        dihedral = [H for H in subgroup_class_representatives(G)
                    if H.order % 2 == 0 and H.order > 2]
        assert len(dihedral) == (2 if q == 9 else 1)
        for profile in ("torsion_free", "finite", "mixed") * 2:
            seed = rng.randrange(10**6)
            M = random_module(G, profile, seed, max_rank=max_rank)
            N = random_module(G, profile, seed + 1, max_rank=max_rank)
            f = random_module_hom(M, N, seed)
            for H in dihedral:
                for i in (2, -2, 6):
                    assert tate(M, H, i).invariants() == shift_tate(M, H, i).invariants()
                    assert (induced_kernel_order(f, H, i)
                            == shift_induced_kernel_order(f, H, i)), (q, profile, H.order, i)


def test_minimal_presentation_matches_raw_coordinates():
    # production computes on compress(M) when that drops a coordinate and
    # carries f across; the oracle stays in the coordinates of M
    rng = random.Random(113)
    C = FiniteGroup.cyclic
    groups = [("C6", C(6), 4), ("C9", C(9), 3), ("D3", FiniteGroup.dihedral(3), 4),
              ("D5", FiniteGroup.dihedral(5), 3), ("V4", FiniteGroup.product([C(2), C(2)]), 4),
              ("C2xC4", FiniteGroup.product([C(2), C(4)]), 3),
              ("C2^3", FiniteGroup.product([C(2)] * 3), 3),
              ("D4", FiniteGroup.dihedral(4), 3), ("A4", a4(), 3)]
    compressed = set()
    for name, G, max_rank in groups:
        for profile in ("torsion_free", "finite", "mixed") * 2:
            seed = rng.randrange(10**6)
            M = random_module(G, profile, seed, max_rank=max_rank)
            N = random_module(G, profile, seed + 1, max_rank=max_rank)
            small = random_module_hom(M, N, seed).matrix
            f = ModuleHom(M, N, compress(N).embed @ small @ compress(M).project)
            if compress(M).module.ambient_rank < M.ambient_rank:
                compressed.add(profile)
            for H in subgroup_class_representatives(G)[1:]:
                for i in (-1, 0, 1, 2):
                    assert (tate(M, H, i).invariants()
                            == raw_tate(M, H, i).invariants()), (name, profile, H, i)
                    assert (induced_kernel_order(f, H, i)
                            == raw_induced_kernel_order(f, H, i)), (name, profile, H, i)
    assert compressed == {"finite", "mixed"}


# -- finite modules of order prime to |H|: no cochains, no Tate groups


def _count_cochain_work(monkeypatch):
    """A list that records every compress, cochain complex, subquotient and
    echelon that tate builds from here on."""
    import reglab.cohomology as cohomology
    built = []
    for name in ("compress", "_complex_data", "subquotient_group"):
        real = getattr(cohomology, name)
        monkeypatch.setattr(cohomology, name, lambda *args, _name=name, _real=real:
                            built.append(_name) or _real(*args))
    init = exactla._Echelon.__init__
    monkeypatch.setattr(exactla._Echelon, "__init__", lambda self, *args:
                        built.append("_Echelon") or init(self, *args))
    return built


def test_finite_modules_of_order_prime_to_h_have_no_tate_groups(monkeypatch):
    # |H| and |M| annihilate every Tate group (Brown, III.10). The shortcut
    # builds nothing; raw_tate's full cochains and, for small M, enumeration
    # of degree 0 agree that the group is trivial. A pair with a common prime
    # is still computed on the cochains.
    built = _count_cochain_work(monkeypatch)
    seen = {True: 0, False: 0}
    for G in zoo():
        for seed in range(8):
            M = random_module(G, "finite", seed, max_rank=6)
            for H in subgroup_class_representatives(G)[1:]:
                GH = restrict(M, H).group
                coprime = gcd(M.order(), H.order) == 1
                seen[coprime] += 1
                if not coprime:
                    for d in (-1, 0, 1, 2):
                        assert (tate(M, H, d).invariants()
                                == raw_tate(M, H, d).invariants()), (G, seed, H, d)
                    continue
                degrees = range(-1, 6) if _period(GH) else range(-1, 3)
                before = len(built)
                for d in degrees:
                    T = tate(M, H, d)
                    assert T.numerator == T.denominator == Lattice.zero(0), (G, seed, H, d)
                    assert (T.ambient_rank, T.group.generator_count) == (0, 0)
                    assert (T.degree, T.reduced_degree) == (d, _reduce_degree(GH, d))
                assert len(built) == before, (G, seed, H, built[before:])
                for d in degrees:
                    assert raw_tate(M, H, d).order() == 1, (G, seed, H, d)
                if M.order() <= 2000:
                    Mc = compress(M).module
                    tables = [Mc.action[h].to_lists() for h in H.elements]
                    fixed, coker = fixed_and_norm_bruteforce(range(H.order), tables,
                                                             diagonal_divisors(Mc))
                    assert fixed * coker == M.order(), (G, seed, H)
    assert min(seen.values()) > 100, seen


def test_an_infinite_module_with_torsion_prime_to_h_keeps_its_groups():
    # Z + Z/3 over C2: the torsion is prime to |H| but the module is not
    # finite, and H^0 is Z/2 from the free summand
    G = FiniteGroup.cyclic(2)
    M = GModule(G, 2, [[0, 3]], [IntMatrix.identity(2)] * 2)
    full = G.full_subgroup()
    assert tate(M, full, 0).invariants() == (0, (2,))
    assert tate(M, full, -1).order() == 1


def _suite_hom_pairs(G, count):
    """(M, N, f) drawn as the dihedral suite's hom branch draws them, at
    trials t = 0, 4, 8, ...: N is M itself when 8 divides t."""
    profiles = ("torsion_free", "finite", "mixed")
    for t in range(0, 4 * count, 4):
        mseed = mix_seed(0, 1, G.order, t)
        M = random_module(G, profiles[t % 3], seed=mseed)
        N = M if t % 8 == 0 else random_module(G, profiles[(t + 1) % 3],
                                               seed=mix_seed(mseed, 11))
        yield M, N, random_module_hom(M, N, seed=mseed)


def test_maps_induced_from_or_to_a_vanishing_group_are_zero(monkeypatch):
    # a vanishing source, a vanishing target and both, over C6 and D3:
    # the kernel is the whole source, as on the full cochains of the oracle,
    # and induced_hom is the zero map on the two presentations
    built = _count_cochain_work(monkeypatch)
    seen = set()
    for G in (FiniteGroup.cyclic(6), FiniteGroup.dihedral(3)):
        for M, N, f in _suite_hom_pairs(G, 30):
            for H in subgroup_class_representatives(G)[1:]:
                sides = tuple(X.is_finite() and gcd(X.order(), H.order) == 1
                              for X in (M, N))
                if not any(sides):
                    continue
                seen.add(sides)
                for d in (-1, 0, 1, 2):
                    before = len(built)
                    n = induced_kernel_order(f, H, d)
                    hom = induced_hom(f, H, d)
                    if all(sides):
                        assert len(built) == before, (G, H, d, built[before:])
                    src, tgt = tate(f.source, H, d), tate(f.target, H, d)
                    assert n == src.order() == raw_induced_kernel_order(f, H, d)
                    assert hom.source.invariants() == src.invariants()
                    assert hom.target.invariants() == tgt.invariants()
                    assert not any(map(any, hom.matrix.entries))
                    assert qindex(hom) == Fraction(tgt.order(), src.order())
    assert seen == {(True, False), (False, True), (True, True)}


def test_vanishing_modules_keep_the_degree_rules():
    # the degree is folded or refused before the group is known to vanish
    V = V4()
    M = random_module(V, "finite", 7, max_rank=5)
    assert M.order() == 3
    with pytest.raises(DegreeWindowError):
        tate(M, V.full_subgroup(), 3)
    for H in subgroup_class_representatives(V)[1:-1]:  # the cyclic ones fold
        assert tate(M, H, 3).reduced_degree == -1
    D3 = FiniteGroup.dihedral(3)
    N = random_module(D3, "finite", 7)
    assert N.order() == 25
    T = tate(N, D3.full_subgroup(), 5)
    assert (T.degree, T.reduced_degree, T.order()) == (5, 1, 1)
