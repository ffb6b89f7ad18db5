"""Regulator constants: both computation routes, bounds, identity checks."""

import gc
import hashlib
import json
from fractions import Fraction

import pytest

from reglab import (
    ConsistencyError,
    GModule,
    InputError,
    IntMatrix,
    ResourceLimitError,
    ModuleHom,
    Subgroup,
    bounds_report,
    brauer_relation_lattice,
    build_phi,
    dihedral_relation,
    direct_sum,
    dual_module,
    finite_dual,
    fixed_points,
    compress,
    invariant_pairing,
    permutation_module,
    qindex,
    qindex_route,
    random_module,
    rc_pairing,
    rc_qindex,
    regulator_constant,
    relation_from_vector,
    torsion_decomposition,
    trivial_module,
    verify_identity,
)
import reglab.exactla as exactla
import reglab.gmodules as gmodules
import reglab.regulator as regulator
from reglab.brauer import BrauerRelation
from reglab.groups import FiniteGroup
from reglab.regulator import _check_equivariant, _fixed_qindex, _side_offsets

from oracles import a4, kronecker_qindex_homs, phi_sides, rc_qindex_kronecker


def v4_relation():
    G = FiniteGroup.product([FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)])
    lat = brauer_relation_lattice(G)
    return relation_from_vector(G, lat.basis_rows[0])


def test_phi_matrices_are_pinned():
    # build_phi adds c times each hom basis matrix straight into its rows and
    # draws the same coefficients in the same order; the digest of these 15
    # matrices was taken before it did
    h = hashlib.sha256()
    for rel in (dihedral_relation(3), dihedral_relation(5), v4_relation()):
        for seed in range(5):
            h.update(json.dumps(build_phi(rel, seed).matrix.to_lists()).encode())
    assert h.hexdigest() == "5ab9a5878956af46c598127e89f54c04e7642220a3d57d5aa94a34642b9a9000"


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("profile,seed,value", [("mixed", 3, Fraction(3)),
                                                ("finite", 3, Fraction(1, 9))])
def test_q_index_route_runs_on_the_primitive_relation(monkeypatch, k, profile,
                                                      seed, value):
    # k times the relation has constant C^k; phi is drawn for the relation
    # itself, and the pairing route still runs on the scaled one
    rel = dihedral_relation(3)
    scaled = BrauerRelation(rel.group, [(H, k * c) for H, c in rel.terms])
    M = random_module(rel.group, profile, seed=seed, max_rank=6)
    drawn = []
    monkeypatch.setattr(regulator, "build_phi",
                        lambda r, s=0: drawn.append(r.terms) or build_phi(r, s))
    assert qindex_route(M, scaled, seed=5) == value ** k
    assert drawn == [rel.terms]
    assert rc_pairing(M, scaled) == value ** k
    assert regulator_constant(M, scaled, seed=5).value == value ** k


def c2xc4():
    return FiniteGroup.product([FiniteGroup.cyclic(2), FiniteGroup.cyclic(4)])


def c2_cubed():
    return FiniteGroup.product([FiniteGroup.cyclic(2)] * 3)


# ---------------------------------------------------------------------------
# invariant pairing
# ---------------------------------------------------------------------------


def test_pairing_of_trivial_module_is_group_order():
    G = dihedral_relation(3).group
    assert invariant_pairing(trivial_module(G)).entries == ((6,),)


def test_pairing_of_regular_module_is_order_times_identity():
    G = FiniteGroup.cyclic(4)
    M = permutation_module(G, G.trivial_subgroup())
    assert invariant_pairing(M) == IntMatrix([[4]]).kron(IntMatrix.identity(4))


def test_pairing_is_invariant_under_the_action():
    G = dihedral_relation(5).group
    M = torsion_decomposition(compress(random_module(G, "mixed", seed=3)).module).free
    gram = invariant_pairing(M)
    for A in M.action:
        assert A.transpose() @ gram @ A == gram


# ---------------------------------------------------------------------------
# frozen values
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", [3, 5])
def test_trivial_module_constant_is_one_over_q(q):
    rel = dihedral_relation(q)
    rc = regulator_constant(trivial_module(rel.group), rel)
    assert rc.value == Fraction(1, q)
    assert rc.factorization == {q: -1}


def test_trivial_module_constant_over_v4():
    # factors 4/|H| with coefficients (1, -1, -1, -1, 2) telescope to 1/2
    rel = v4_relation()
    assert regulator_constant(trivial_module(rel.group), rel).value == Fraction(1, 2)


@pytest.mark.parametrize("q", [3, 5])
def test_free_module_constant_is_one(q):
    rel = dihedral_relation(q)
    G = rel.group
    M = permutation_module(G, G.trivial_subgroup())
    assert regulator_constant(M, rel).value == 1


def test_permutation_module_constants_match_subgroup_sizes():
    # C(Z[G/H]) is 1 for H inside the rotations and 2/|H| otherwise
    q = 3
    rel = dihedral_relation(q)
    G = rel.group
    expected = {
        (0,): Fraction(1),
        (0, 1, 2): Fraction(1),
        (0, 3): Fraction(1),
        tuple(range(6)): Fraction(1, 3),
    }
    for elems, want in expected.items():
        M = permutation_module(G, Subgroup(G, elems))
        assert regulator_constant(M, rel).value == want


def test_finite_module_constant_matches_fixed_point_product():
    # for finite M the defining product collapses to prod |M^H| ^ (-2 n_H)
    q = 3
    rel = dihedral_relation(q)
    G = rel.group
    for seed in range(6):
        M = random_module(G, "finite", seed=seed)
        want = Fraction(1)
        for H, coeff in rel.terms:
            size = fixed_points(compress(M).module, H).group.order()
            want *= Fraction(size) ** (-2 * coeff)
        assert regulator_constant(M, rel).value == want


# ---------------------------------------------------------------------------
# the two routes
# ---------------------------------------------------------------------------


def test_build_phi_is_deterministic_and_equivariant():
    rel = dihedral_relation(5)
    phi = build_phi(rel, seed=9)
    again = build_phi(rel, seed=9)
    assert phi.matrix == again.matrix
    P1, P2 = phi_sides(phi)
    assert P1.ambient_rank == P2.ambient_rank == 12
    ModuleHom(P1, P2, phi.matrix)  # revalidates equivariance


def test_phi_equivariance_check_rejects_one_changed_entry():
    rel = dihedral_relation(3)
    G = rel.group
    phi = build_phi(rel, seed=2)
    pos, neg = phi.p1_summands, phi.p2_summands
    sides = (pos, _side_offsets(G, pos), neg, _side_offsets(G, neg))
    _check_equivariant(G, phi.matrix, *sides)
    rows = phi.matrix.to_lists()
    rows[0][0] += 1
    with pytest.raises(ConsistencyError, match="not equivariant"):
        _check_equivariant(G, IntMatrix(rows), *sides)


def test_phi_seeds_give_the_same_constant():
    rel = dihedral_relation(3)
    G = rel.group
    M = random_module(G, "mixed", seed=21)
    base = rc_pairing(M, rel)
    for seed in (0, 1, 2, 17):
        assert rc_qindex(M, rel, build_phi(rel, seed)) == base


@pytest.mark.parametrize("profile", ["torsion_free", "finite", "mixed"])
@pytest.mark.parametrize("q", [3, 5])
def test_routes_agree_on_random_modules(q, profile):
    rel = dihedral_relation(q)
    for seed in range(3):
        M = random_module(rel.group, profile, seed=40 * q + seed)
        assert rc_pairing(M, rel) == rc_qindex(M, rel, build_phi(rel, seed))


def test_a_constant_off_the_primes_of_the_group_order_is_refused(monkeypatch):
    # |H| kills every Tate group, so every constant is made of primes of |G|;
    # routes that agree on 11/3 over D3 are both wrong
    rel = dihedral_relation(3)
    monkeypatch.setattr(regulator, "rc_pairing", lambda *args: Fraction(11, 3))
    monkeypatch.setattr(regulator, "qindex_route", lambda *args: Fraction(11, 3))
    with pytest.raises(ConsistencyError, match="11"):
        regulator_constant(trivial_module(rel.group), rel)


def test_routes_agree_over_v4():
    rel = v4_relation()
    for seed in range(3):
        M = random_module(rel.group, "mixed", seed=seed)
        regulator_constant(M, rel, seed=seed)  # raises on disagreement


def test_pairing_scale_does_not_change_the_constant(monkeypatch):
    rel = dihedral_relation(3)
    M = random_module(rel.group, "mixed", seed=11)
    base = rc_pairing(M, rel)
    pairing = regulator.invariant_pairing
    for scale in (2, 3, 7):
        monkeypatch.setattr(regulator, "invariant_pairing",
                            lambda mt, k=scale: IntMatrix([[k]]).kron(pairing(mt)))
        assert rc_pairing(M, rel) == base


def test_constant_is_multiplicative_over_direct_sums():
    rel = dihedral_relation(3)
    G = rel.group
    A = random_module(G, "mixed", seed=11)
    B = random_module(G, "torsion_free", seed=12)
    ca = regulator_constant(A, rel).value
    cb = regulator_constant(B, rel).value
    assert regulator_constant(direct_sum(A, B), rel).value == ca * cb


def test_qindex_rejects_mismatched_inputs():
    rel3 = dihedral_relation(3)
    rel5 = dihedral_relation(5)
    phi3 = build_phi(rel3, 0)
    M5 = trivial_module(rel5.group)
    with pytest.raises(InputError):
        rc_qindex(M5, rel5, phi3)
    with pytest.raises(InputError):
        rc_pairing(M5, rel3)


_ORACLE_RELATIONS = {
    "D3": lambda: dihedral_relation(3),
    "D5": lambda: dihedral_relation(5),
    "V4": v4_relation,
    "C2xC4": lambda: relation_from_vector(
        c2xc4(), brauer_relation_lattice(c2xc4()).basis_rows[0]),
}


@pytest.mark.parametrize("phi_seed", [0, 3])
@pytest.mark.parametrize("profile", ["torsion_free", "finite", "mixed"])
@pytest.mark.parametrize("name", sorted(_ORACLE_RELATIONS))
def test_qindex_homs_match_kronecker_oracle(monkeypatch, name, profile, phi_seed):
    # each q-index on sums of M^H equals the one on P (x) M, not only the
    # ratio: the reader's two results inside rc_qindex are recorded
    rel = _ORACLE_RELATIONS[name]()
    M = random_module(rel.group, profile, seed=5, max_rank=8)
    phi = build_phi(rel, phi_seed)
    read = []
    monkeypatch.setattr(regulator, "_fixed_qindex",
                        lambda *args: read.append(_fixed_qindex(*args)) or read[-1])
    value = rc_qindex(M, rel, phi)
    oracle_forward, oracle_backward = kronecker_qindex_homs(M, phi)
    assert read == [qindex(oracle_forward), qindex(oracle_backward)]
    assert value == rc_pairing(M, rel)


def test_qindex_refuses_a_map_off_the_fixed_points():
    # over C2 acting by diag(1, -1), the heads (1, 1) and (1, -1) send Z^2 to
    # diag(2, 0) and diag(0, 2) on two copies of M^G = Z x 0: an image of
    # the same rank as the target, with (0, 0, 0, 2) outside it
    G = FiniteGroup.cyclic(2)
    M = GModule(G, 2, None, [IntMatrix.identity(2), IntMatrix([[1, 0], [0, -1]])])
    full = G.full_subgroup()
    with pytest.raises(ConsistencyError, match="leaves the target fixed points"):
        _fixed_qindex(M, [[1, 1], [1, -1]], [G.trivial_subgroup()], [full, full])
    # the reader itself: Z -> Z^2 onto 0 x Z, against the target Z x 0
    Lattice = exactla.Lattice
    with pytest.raises(ConsistencyError, match="leaves the target fixed points"):
        exactla.map_orders([[0, 1]], Lattice.from_rows(2, [[1, 0]]), Lattice.zero(2),
                           Lattice.zero(1))


def test_qindex_refuses_a_map_that_drops_a_relation():
    # the swap does not stabilize 2Z x 0, so it sends the relation (2, 0)
    # outside the relations; the indices alone would read q = 1
    G = FiniteGroup.cyclic(2)
    M = GModule(G, 2, [[2, 0]], [IntMatrix.identity(2), IntMatrix([[0, 1], [1, 0]])])
    trivial = G.trivial_subgroup()
    with pytest.raises(ConsistencyError, match="relations into relations"):
        _fixed_qindex(M, [[0, 1]], [trivial], [trivial])
    # the reader itself: Z/2 -> Z sending 1 to 1
    Lattice = exactla.Lattice
    with pytest.raises(ConsistencyError, match="relations into relations"):
        exactla.map_orders([[1]], Lattice.full(1), Lattice.zero(1), Lattice.from_rows(1, [[2]]))


def test_qindex_refuses_a_map_with_an_infinite_cokernel():
    # the zero map on M^G = Z of the trivial module: image 0 of rank 0
    # against a target of rank 1, and all of Z as kernel
    G = FiniteGroup.cyclic(2)
    full = G.full_subgroup()
    with pytest.raises(ConsistencyError, match="infinite"):
        _fixed_qindex(trivial_module(G), [[0]], [full], [full])
    # the reader itself returns None on each infinite side: the zero map on
    # Z, Z^2 -> Z onto the first factor, Z -> Z^2 onto it, and 2 on Z
    Lattice = exactla.Lattice
    for columns, r, k, orders in (([[0]], 1, 1, (None, None)), ([[1], [0]], 1, 2, (1, None)),
                                  ([[1, 0]], 2, 1, (None, 1)), ([[2]], 1, 1, (2, 1))):
        assert exactla.map_orders(columns, Lattice.full(r), Lattice.zero(r),
                                  Lattice.zero(k)) == orders


def test_qindex_route_builds_no_checked_matrix_and_reads_no_coordinates(monkeypatch):
    # with compress and the fixed points cached by a first call, the two
    # q-indices are read off the ambient columns alone
    rel = dihedral_relation(5)
    M = random_module(rel.group, "mixed", seed=7)
    phi = build_phi(rel, 0)
    expected = rc_qindex(M, rel, phi)
    calls = []
    init = IntMatrix.__init__
    coordinate_matrix = exactla.Lattice.coordinate_matrix
    monkeypatch.setattr(IntMatrix, "__init__",
                        lambda self, *args, **kw: calls.append("IntMatrix")
                        or init(self, *args, **kw))
    monkeypatch.setattr(exactla.Lattice, "coordinate_matrix",
                        lambda self, vectors: calls.append("coordinate_matrix")
                        or coordinate_matrix(self, vectors))
    assert rc_qindex(M, rel, phi) == expected
    assert calls == []


def test_pairing_route_saturates_nothing(monkeypatch):
    # a cold pairing route takes the free quotient as blocks of the one
    # minimal presentation it computes; the torsion module of the same
    # compressed module needs no saturation and no sublattice coordinates
    rel = dihedral_relation(3)
    M = random_module(rel.group, "mixed", seed=3, max_rank=6)
    calls = []
    for module, name in ((exactla, "saturate"), (gmodules, "saturate"),
                         (exactla, "smith_normal_form"), (gmodules, "sublattice_action")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    value = rc_pairing(M, rel)
    assert calls == ["smith_normal_form"]
    calls.clear()
    dec = torsion_decomposition(compress(M).module)
    assert "saturate" not in calls and "sublattice_action" not in calls
    assert dec.torsion.ambient_rank == 1
    assert value == qindex_route(M, rel)


def test_regulator_call_leaves_no_module_to_the_cycle_collector():
    # the identity presentation of a module with no relations is not held
    # in the module's own cache, so a dropped module is freed by its count
    rel = dihedral_relation(3)
    M = random_module(rel.group, "torsion_free", seed=2, max_rank=6)
    assert M.relations.rank == 0
    gc.collect()
    gc.disable()
    try:
        regulator_constant(M, rel)
        del M
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = [obj for obj in gc.garbage if isinstance(obj, GModule)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert leaked == []


def test_qindex_route_stays_narrow(monkeypatch):
    # P (x) M needs 636 columns here; sums of M^H need 96
    rel = dihedral_relation(5)
    M = random_module(rel.group, "mixed", seed=7)
    phi = build_phi(rel, 0)
    expected = rc_pairing(M, rel)
    monkeypatch.setenv("REGLAB_LIMIT_COLS", "200")
    assert rc_qindex(M, rel, phi) == expected
    with pytest.raises(ResourceLimitError):
        rc_qindex_kronecker(M, phi)


def test_qindex_route_runs_no_smith_elimination(monkeypatch):
    # q-indices and orders come off Hermite pivots; compress, which keeps
    # its Smith coordinates, is cached before counting
    rel = dihedral_relation(5)
    M = random_module(rel.group, "mixed", seed=7)
    phi = build_phi(rel, 0)
    compress(M)
    calls = []
    diagonalize = exactla._diagonalize
    monkeypatch.setattr(exactla, "_diagonalize",
                        lambda *args: calls.append(args) or diagonalize(*args))
    value = rc_qindex(M, rel, phi)
    assert calls == []
    assert value == rc_pairing(M, rel)


def _wide_coverage_cases():
    cases = []
    for name, G in (("C2xC4", c2xc4()), ("C2^3", c2_cubed()), ("A4", a4())):
        for i, vec in enumerate(brauer_relation_lattice(G).basis_rows):
            cases.append(pytest.param(G, vec, id=f"{name}-{i}"))
    return cases


@pytest.mark.parametrize("profile", ["torsion_free", "finite", "mixed"])
@pytest.mark.parametrize("G, vec", _wide_coverage_cases())
def test_routes_agree_on_relation_lattice_bases(G, vec, profile):
    rel = relation_from_vector(G, vec)
    M = random_module(G, profile, seed=3)
    regulator_constant(M, rel)  # raises on disagreement


@pytest.mark.parametrize("identity, profile", [("DUAL1", "torsion_free"),
                                               ("FINITE_DUAL", "finite")])
@pytest.mark.parametrize("G, vec", _wide_coverage_cases() + [pytest.param(
    FiniteGroup.dihedral(9), dihedral_relation(9).coefficient_vector(), id="D9")])
def test_duality_identities_beyond_d3_d5_and_v4(G, vec, identity, profile):
    rel = relation_from_vector(G, vec)
    for seed in range(2):
        M = random_module(G, profile, seed=20 + seed)
        report = verify_identity(identity, module=M, relation=rel, seed=seed)
        assert report["status"] == "pass", report


@pytest.mark.parametrize("profile", ["torsion_free", "finite", "mixed"])
def test_routes_agree_over_d9(profile):
    rel = dihedral_relation(9)
    for seed in range(2):
        regulator_constant(random_module(rel.group, profile, seed=seed), rel,
                           seed=seed)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_bounds_for_trivial_module_at_three():
    rel = dihedral_relation(3)
    M = trivial_module(rel.group)
    rep = bounds_report(M, 3, 3, regulator_constant(M, rel).value)
    assert (rep.ell, rep.v, rep.L, rep.U) == (3, -1, 1, 1)
    assert rep.ok


def test_bounds_away_from_q_are_zero():
    rel = dihedral_relation(3)
    M = trivial_module(rel.group)
    rep = bounds_report(M, 3, 5, regulator_constant(M, rel).value)
    assert (rep.v, rep.L, rep.U) == (0, 0, 0)
    assert rep.ok


def test_bounds_hold_on_random_modules():
    for q in (3, 5):
        rel = dihedral_relation(q)
        for seed in range(4):
            M = random_module(rel.group, "mixed", seed=seed)
            value = regulator_constant(M, rel).value
            rep = bounds_report(M, q, q, value=value)
            assert rep.ok, rep
            for ell in (2, 7):
                other = bounds_report(M, q, ell, value=value)
                assert (other.v, other.L, other.U) == (0, 0, 0)


def test_bounds_reject_wrong_group():
    rel = dihedral_relation(3)
    with pytest.raises(InputError):
        bounds_report(trivial_module(rel.group), 5, 5, Fraction(1, 3))


# ---------------------------------------------------------------------------
# identity reports
# ---------------------------------------------------------------------------


def test_verify_rcz_report_shape():
    report = verify_identity("RCZ", q=3)
    assert report["status"] == "pass"
    assert report["lhs"] == "1/3" and report["rhs"] == "1/3"
    assert report["factorization"] == {"3": -1}
    assert report["identity"] == "RCZ"


@pytest.mark.parametrize("seed", range(6))
def test_verify_rczs_families(seed):
    assert verify_identity("RCZS", q=3, seed=seed)["status"] == "pass"


def test_verify_dual1_on_random_lattices():
    rel = dihedral_relation(3)
    for seed in range(3):
        M = random_module(rel.group, "torsion_free", seed=seed)
        report = verify_identity("DUAL1", module=M, relation=rel, seed=seed)
        assert report["status"] == "pass"
        assert report["lhs"] == "1"
    with pytest.raises(InputError):
        verify_identity("DUAL1", module=random_module(rel.group, "finite", seed=0),
                        relation=rel)


def test_verify_finite_identities():
    rel = dihedral_relation(3)
    for seed in range(3):
        M = random_module(rel.group, "finite", seed=60 + seed)
        assert verify_identity("FINITE_DUAL", module=M, relation=rel,
                               seed=seed)["status"] == "pass"
        assert verify_identity("FINITE_DIHEDRAL", q=3, module=M,
                               seed=seed)["status"] == "pass"


def test_self_dual_finite_module_has_constant_one():
    rel = dihedral_relation(3)
    for seed in range(3):
        M = random_module(rel.group, "finite", seed=80 + seed)
        N = direct_sum(M, finite_dual(M))
        assert regulator_constant(N, rel).value == 1


def test_dual_pair_of_lattices_multiplies_to_h0_power():
    rel = dihedral_relation(5)
    for seed in range(2):
        M = random_module(rel.group, "torsion_free", seed=seed)
        N = direct_sum(M, dual_module(M))
        report = verify_identity("DUAL1", module=N, relation=rel, seed=seed)
        assert report["status"] == "pass"


def test_verify_dcf_module_and_hom():
    rel = dihedral_relation(3)
    G = rel.group
    M = random_module(G, "finite", seed=90)
    assert verify_identity("DCF", q=3, module=M)["status"] == "pass"
    tm = trivial_module(G)
    f = ModuleHom(tm, tm, IntMatrix([[6]]))
    report = verify_identity("DCF", q=3, hom=f)
    assert report["status"] == "pass"
    assert set(report["details"]) == {"kernel_degree_-1", "kernel_degree_0"}


def test_verify_dihedral_main_worked_example():
    rel = dihedral_relation(3)
    report = verify_identity("DIHEDRAL_MAIN", q=3, module=trivial_module(rel.group))
    assert report["status"] == "pass"
    assert report["lhs"] == "1/3"
    assert report["details"]["h0"] == "3"
    assert report["details"]["h1"] == "1"


def test_verify_bounds_report_rows():
    rel = dihedral_relation(3)
    report = verify_identity("BOUNDS", q=3, module=trivial_module(rel.group))
    assert report["status"] == "pass"
    assert report["details"]["bounds"] == [
        {"ell": 3, "v": -1, "L": 1, "U": 1, "ok": True}
    ]


def _identity_inputs():
    """The objects the rows of _IDENTITY_ERRORS name."""
    d3, d5 = dihedral_relation(3).group, dihedral_relation(5).group
    tm = trivial_module(d3)
    return {"D3": tm, "D3 finite": random_module(d3, "finite", seed=0),
            "D5": trivial_module(d5), "D5 finite": random_module(d5, "finite", seed=0),
            "theta": dihedral_relation(3), "hom": ModuleHom(tm, tm, IntMatrix([[6]]))}


# every InputError verify_identity raises before a checker runs: an unknown
# identity and, per identity, each missing input, each input it does not
# take, a module of the wrong kind and a module over the wrong dihedral
# group; a string value names an object of _identity_inputs
_IDENTITY_ERRORS = [
    *((name, inputs, message) for name in ("RCZ", "RCZS") for inputs, message in (
        ({}, f"{name} needs q"),
        ({"q": 3, "module": "D3"}, f"{name} takes no module"),
        ({"q": 3, "relation": "theta"}, f"{name} takes no relation"),
        ({"q": 3, "hom": "hom"}, f"{name} takes no hom"),
        ({"q": 3, "prime": 3}, f"{name} takes no prime"))),
    *((name, inputs, message)
      for name, M, other in (("DUAL1", "D3", "finite"), ("FINITE_DUAL", "D3 finite", "D3"))
      for inputs, message in (
        ({"relation": "theta"}, f"{name} needs a module and a relation"),
        ({"module": M}, f"{name} needs a module and a relation"),
        ({"module": M, "relation": "theta", "q": 3}, f"{name} takes no q"),
        ({"module": M, "relation": "theta", "hom": "hom"}, f"{name} takes no hom"),
        ({"module": M, "relation": "theta", "prime": 3}, f"{name} takes no prime"))),
    ("DUAL1", {"module": "D3 finite", "relation": "theta"},
     "DUAL1 is about torsion-free modules"),
    ("FINITE_DUAL", {"module": "D3", "relation": "theta"},
     "FINITE_DUAL is about finite modules"),
    *((name, inputs, message)
      for name, M, wrong in (("FINITE_DIHEDRAL", "D3 finite", "D5 finite"),
                             ("DIHEDRAL_MAIN", "D3", "D5"), ("BOUNDS", "D3", "D5"))
      for inputs, message in (
        ({"module": M}, f"{name} needs q and a module"),
        ({"q": 3}, f"{name} needs q and a module"),
        ({"q": 3, "module": M, "relation": "theta"}, f"{name} takes no relation"),
        ({"q": 3, "module": M, "hom": "hom"}, f"{name} takes no hom"),
        ({"q": 3, "module": wrong}, "module does not live over the dihedral group"))),
    ("FINITE_DIHEDRAL", {"q": 3, "module": "D3", "prime": 3},
     "FINITE_DIHEDRAL takes no prime"),
    ("DIHEDRAL_MAIN", {"q": 3, "module": "D3", "prime": 3}, "DIHEDRAL_MAIN takes no prime"),
    ("FINITE_DIHEDRAL", {"q": 3, "module": "D3"}, "FINITE_DIHEDRAL is about finite modules"),
    ("DCF", {"module": "D3"}, "DCF needs q"),
    ("DCF", {"q": 3}, "DCF needs q and a module or a hom"),
    ("DCF", {"q": 3, "module": "D3", "relation": "theta"}, "DCF takes no relation"),
    ("DCF", {"q": 3, "module": "D3", "prime": 3}, "DCF takes no prime"),
    ("DCF", {"q": 3, "module": "D5"}, "module does not live over the dihedral group"),
    ("NO_SUCH_IDENTITY", {"q": 3}, "unknown identity 'NO_SUCH_IDENTITY'; expected one of "
     "RCZ, RCZS, DUAL1, FINITE_DUAL, FINITE_DIHEDRAL, DCF, DIHEDRAL_MAIN, BOUNDS"),
]


@pytest.mark.parametrize("identity, inputs, message", _IDENTITY_ERRORS)
def test_verify_identity_error_table(identity, inputs, message):
    objects = _identity_inputs()
    given = {k: objects[v] if isinstance(v, str) else v for k, v in inputs.items()}
    with pytest.raises(InputError) as err:
        verify_identity(identity, **given)
    assert str(err.value) == message


def test_a_misspelled_input_is_named():
    rel = dihedral_relation(3)
    M = trivial_module(rel.group)
    with pytest.raises(InputError, match="^DUAL1 takes no modul$"):
        verify_identity("DUAL1", modul=M, relation=rel)
    with pytest.raises(InputError, match="^RCZ takes no sed$"):
        verify_identity("RCZ", q=3, sed=1)
    # an input passed as None is not given
    assert verify_identity("RCZ", q=3, module=None, prime=None)["status"] == "pass"
