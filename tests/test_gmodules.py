"""Module layer: presentations, fixed points, duals, tensors, random draws."""

import random

import pytest

from reglab import (
    FiniteGroup,
    GModule,
    IntMatrix,
    Lattice,
    ModuleHom,
    PresentedAbelianGroup,
    ValidationError,
    compress,
    direct_sum,
    dual_module,
    equivariant_hom_basis,
    finite_dual,
    fixed_points,
    integer_kernel,
    module_hom_lattice,
    norm_matrix,
    permutation_module,
    random_module,
    restrict,
    subgroup_class_representatives,
    tensor_product,
    torsion_decomposition,
    trivial_module,
    validate_module,
)
from reglab import exactla, gmodules
from reglab.arith import mix_seed
from reglab.exactla import _Echelon, subquotient_group
from reglab.errors import ConsistencyError, InputError

from oracles import fixed_and_norm_bruteforce, saturated_torsion_decomposition, zoo


def diagonal_divisors(M):
    # relations of a compressed finite module are diagonal by construction
    r = M.ambient_rank
    divs = [0] * r
    for row in M.relations.basis_rows:
        support = [j for j in range(r) if row[j]]
        assert len(support) == 1
        divs[support[0]] = row[support[0]]
    assert all(d > 0 for d in divs)
    return divs


def test_regular_module_validates_all_pairs():
    G = FiniteGroup.dihedral(3)
    M = permutation_module(G, G.trivial_subgroup())
    validate_module(M, all_pairs=True)
    assert M.ambient_rank == 6
    assert M.is_torsion_free()
    assert M.free_rank() == 6


def test_coset_module_action_is_coset_permutation():
    G = FiniteGroup.dihedral(3)
    sigma = G.subgroup([0, 3])
    M = permutation_module(G, sigma)
    validate_module(M, all_pairs=True)
    assert M.ambient_rank == 3
    # the rotation r=1 cycles the three cosets
    A = M.action[1]
    image = [A.apply([1 if i == j else 0 for i in range(3)]) for j in range(3)]
    assert sorted(map(tuple, image)) == sorted(
        {tuple([1 if i == k else 0 for i in range(3)]) for k in range(3)}
    )
    assert A @ A @ A == IntMatrix.identity(3)


def test_trivial_module_fixed_everywhere():
    G = FiniteGroup.dihedral(5)
    M = trivial_module(G)
    validate_module(M, all_pairs=True)
    data = fixed_points(M, G.full_subgroup())
    assert data.rank == 1
    assert data.torsion_order() == 1


def test_validation_rejects_bad_identity():
    G = FiniteGroup.cyclic(2)
    with pytest.raises(ValidationError, match="identity"):
        validate_module(GModule(G, 1, None, [IntMatrix([[2]]), IntMatrix([[1]])]))


def test_validation_rejects_group_law_failure():
    G = FiniteGroup.cyclic(2)
    bad = GModule(G, 1, None, [IntMatrix([[1]]), IntMatrix([[2]])])
    with pytest.raises(ValidationError, match=r"^group law fails modulo relations "
                       r"at pair \(1, 1\), column 0$"):
        validate_module(bad)


def test_validation_accepts_a_group_law_that_holds_only_modulo_relations():
    # on Z/8, C2 acting by 3 squares to 9, not 1; the difference 8 is a relation
    G = FiniteGroup.cyclic(2)
    M = GModule(G, 1, Lattice.from_rows(1, [[8]]), [IntMatrix([[1]]), IntMatrix([[3]])])
    assert M.action[1] @ M.action[1] != M.action[0]
    validate_module(M)
    validate_module(M, all_pairs=True)


# the rows of 2 Z^6, the relations of Z[D3]/2
_EVEN = [[2 if i == j else 0 for j in range(6)] for i in range(6)]


def _broken_regular_d3(breaks, relations=None):
    """Z[D3] with entry (i, j) of A_g raised by d for each (g, i, j, d)."""
    G = FiniteGroup.dihedral(3)
    action = [A.to_lists() for A in permutation_module(G, G.trivial_subgroup()).action]
    for g, i, j, d in breaks:
        action[g][i][j] += d
    return GModule(G, 6, relations, [IntMatrix(a) for a in action])


def test_validation_names_the_first_failing_pair_and_column():
    # A_5 broken at entry (2, 3): A_1 A_3 = A_5 fails first, with h = 3
    bad = _broken_regular_d3([(5, 2, 3, 1)])
    assert bad.group.mul[1][3] == 5
    for kwargs in ({}, {"all_pairs": True}):
        with pytest.raises(ValidationError, match=r"^group law fails modulo relations "
                           r"at pair \(1, 3\), column 3$"):
            validate_module(bad, **kwargs)
    # on Z[D3]/2: A_2 is off by a relation and A_4 by a non-relation, so the
    # pairs (1, 1) and (1, 2) differ only modulo L and (1, 4) is the witness
    bad = _broken_regular_d3([(2, 0, 1, 2), (4, 3, 5, 1)], _EVEN)
    assert bad.action[1] @ bad.action[1] != bad.action[2]
    for kwargs in ({}, {"all_pairs": True}):
        with pytest.raises(ValidationError, match=r"^group law fails modulo relations "
                           r"at pair \(1, 4\), column 5$"):
            validate_module(bad, **kwargs)


def test_validation_accepts_products_off_by_relations_only():
    # on Z[D3]/2 two matrices off by even entries: the stacked products
    # differ from their targets, and every difference lies in L
    M = _broken_regular_d3([(2, 0, 1, 2), (4, 3, 5, -2)], _EVEN)
    G = M.group
    assert any(M.action[s] @ M.action[h] != M.action[G.mul[s][h]]
               for s in G.full_subgroup().generators() for h in range(G.order))
    validate_module(M)
    validate_module(M, all_pairs=True)


def test_validation_rejects_unstable_relations():
    G = FiniteGroup.cyclic(2)
    swap = IntMatrix([[0, 1], [1, 0]])
    bad = GModule(G, 2, Lattice.from_rows(2, [[2, 0]]),
                  [IntMatrix.identity(2), swap])
    with pytest.raises(ValidationError, match="stabilize"):
        validate_module(bad)


def test_validation_rejects_instability_off_the_generators():
    # C4 acting through generator 1: A_1 = 1 keeps L = Z(2, 0), A_2 = swap
    # does not; the generator check alone must still reject it
    G = FiniteGroup.cyclic(4)
    ident, swap = IntMatrix.identity(2), IntMatrix([[0, 1], [1, 0]])
    bad = GModule(G, 2, Lattice.from_rows(2, [[2, 0]]), [ident, ident, swap, ident])
    assert G.full_subgroup().generators() == (1,)
    assert bad.relations.contains(bad.action[1].apply((2, 0)))
    with pytest.raises(ValidationError):
        validate_module(bad)
    with pytest.raises(ValidationError, match="action matrix 2 does not stabilize"):
        validate_module(bad, all_pairs=True)


def test_sign_twist_of_regular_c2():
    # Z[C2] (x) sign is Z[C2] again, conjugated by diag(1, -1)
    G = FiniteGroup.cyclic(2)
    reg = permutation_module(G, G.trivial_subgroup())
    sign = GModule(G, 1, None, [IntMatrix([[1]]), IntMatrix([[-1]])])
    validate_module(sign)
    T = tensor_product(reg, sign)
    validate_module(T, all_pairs=True)
    Q = IntMatrix([[1, 0], [0, -1]])
    for g in range(2):
        assert T.action[g] == Q @ reg.action[g] @ Q


def test_fixed_points_of_regular_module_is_norm_line():
    G = FiniteGroup.dihedral(3)
    M = permutation_module(G, G.trivial_subgroup())
    data = fixed_points(M, G.full_subgroup())
    assert data.rank == 1
    assert data.lattice.basis_rows == ((1, 1, 1, 1, 1, 1),)


def test_fixed_points_of_coset_module_under_rotations():
    G = FiniteGroup.dihedral(3)
    rho = G.subgroup([0, 1, 2])
    sigma = G.subgroup([0, 3])
    M = permutation_module(G, sigma)
    data = fixed_points(M, rho)
    assert data.rank == 1
    assert data.lattice.basis_rows == ((1, 1, 1),)


def test_fixed_points_of_trivial_subgroup_is_everything():
    G = FiniteGroup.dihedral(3)
    M = permutation_module(G, G.subgroup([0, 3]))
    data = fixed_points(M, G.trivial_subgroup())
    assert data.rank == 3
    assert data.lattice == Lattice.full(3)


def test_norm_matrix_of_regular_module_is_all_ones():
    G = FiniteGroup.dihedral(3)
    M = permutation_module(G, G.trivial_subgroup())
    N = norm_matrix(M, G.full_subgroup())
    assert N == IntMatrix([[1] * 6 for _ in range(6)])


def test_fixed_points_and_norms_match_enumeration():
    for G in (FiniteGroup.cyclic(2), FiniteGroup.cyclic(4), FiniteGroup.dihedral(3)):
        for seed in range(8):
            M = random_module(G, "finite", seed, max_rank=3)
            small = compress(M).module
            if small.order() > 2000:
                continue
            divs = diagonal_divisors(small)
            for H in subgroup_class_representatives(G):
                tables = [small.action[h].to_lists() for h in H.elements]
                want_fixed, want_norm = fixed_and_norm_bruteforce(
                    range(len(H.elements)), tables, divs
                )
                got_fixed = fixed_points(small, H).group.order()
                assert got_fixed == want_fixed
                N = norm_matrix(small, H)
                coker = PresentedAbelianGroup(Lattice.from_rows(
                    small.ambient_rank,
                    N.columns() + list(small.relations.basis_rows)))
                assert coker.order() == want_norm


def test_abelian_group_is_the_subquotient_of_the_full_lattice(monkeypatch):
    # Z^n / L on the identity basis has the relations L itself, built with
    # no subquotient pass: the same lattice and invariants as Z^n / L
    cases = [random_module(G, profile, 5, max_rank=6)
             for G in zoo() for profile in ("torsion_free", "finite", "mixed")]
    refs = [subquotient_group(Lattice.full(M.ambient_rank), M.relations)
            for M in cases]

    def no_pass(U, V):
        raise AssertionError("subquotient pass run")

    with monkeypatch.context() as patch:
        patch.setattr(gmodules, "subquotient_group", no_pass)
        groups = [M.abelian_group() for M in cases]
    for A, ref in zip(groups, refs):
        assert A.relations == ref.relations
        assert A.relations._pivots == ref.relations._pivots
        assert A.invariants() == ref.invariants() and A.order() == ref.order()


def test_compress_roundtrip_properties():
    rng = random.Random(11)
    groups = [FiniteGroup.cyclic(3), FiniteGroup.dihedral(3), FiniteGroup.cyclic(6)]
    for trial in range(30):
        G = groups[trial % len(groups)]
        profile = ("torsion_free", "finite", "mixed")[trial % 3]
        M = random_module(G, profile, rng.randrange(10**6), max_rank=6)
        pres = compress(M)
        small, P, E = pres.module, pres.project, pres.embed
        validate_module(small)
        assert P @ E == IntMatrix.identity(small.ambient_rank)
        # embed . project is the identity of the quotient
        diff = IntMatrix.identity(M.ambient_rank) - E @ P
        for j in range(M.ambient_rank):
            assert M.relations.contains(diff.column(j))
        assert small.abelian_group().invariants() == M.abelian_group().invariants()


def test_compress_returns_a_minimal_presentation_as_it_is(monkeypatch):
    # diag(d) + 0 with 1 < d_1 | d_2 | ... is its own minimal presentation:
    # no Smith form runs, and the module comes back with its own caches
    cases = [(M, compress(M)) for M in (random_module(G, profile, 5, max_rank=6)
                                        for G in zoo()
                                        for profile in ("torsion_free", "finite", "mixed"))]

    def refused(L):
        raise AssertionError("Smith form run")

    monkeypatch.setattr(gmodules, "smith_coordinates", refused)
    for M, pres in cases:
        again = compress(pres.module)
        assert again.module is pres.module is compress(M).module
        assert again.project == again.embed == IntMatrix.identity(pres.module.ambient_rank)
    # a broken divisor chain, a unit divisor or an entry off the diagonal
    for rows in ([[2, 0], [0, 3]], [[1, 0]], [[2, 1]], [[0, 2]]):
        M = GModule(FiniteGroup.cyclic(1), 2, rows, [IntMatrix.identity(2)])
        with pytest.raises(AssertionError, match="Smith form run"):
            compress(M)


def test_torsion_decomposition_splits_invariants():
    rng = random.Random(23)
    G = FiniteGroup.dihedral(3)
    for trial in range(20):
        M = random_module(G, "mixed", rng.randrange(10**6), max_rank=6)
        dec = torsion_decomposition(M)
        validate_module(dec.torsion)
        validate_module(dec.free)
        assert dec.torsion.is_finite()
        assert dec.free.is_torsion_free()
        assert dec.free.relations.rank == 0
        rank, torsion = M.abelian_group().invariants()
        assert dec.free.ambient_rank == rank
        assert dec.torsion.abelian_group().invariants() == (0, torsion)
        # the torsion basis columns lie in the saturation
        sat = exactla.saturate(M.relations)
        for col in dec.tors_basis.columns():
            assert sat.contains(col)


def _module_fields(M):
    return (M.group, M.ambient_rank, M.relations.basis_rows, M.relations._pivots, M.action)


def test_torsion_decomposition_slices_the_minimal_presentation(monkeypatch):
    # on a minimal presentation, the blocks of compress are what the
    # saturation builds: the same torsion and free modules, torsion basis
    # and projection, with no saturation and no sublattice coordinates
    cases = [compress(random_module(G, profile, seed, max_rank=6)).module
             for G in zoo() for profile in ("torsion_free", "finite", "mixed")
             for seed in (5, 6)]
    refs = [saturated_torsion_decomposition(Mc) for Mc in cases]

    def refused(*args):
        raise AssertionError("saturation or sublattice coordinates used")

    monkeypatch.setattr(exactla, "saturate", refused)
    monkeypatch.setattr(gmodules, "sublattice_action", refused)
    for Mc, ref in zip(cases, refs):
        dec = torsion_decomposition(Mc)
        assert _module_fields(dec.torsion) == _module_fields(ref.torsion)
        assert _module_fields(dec.free) == _module_fields(ref.free)
        assert dec.tors_basis == ref.tors_basis
        assert dec.mt_projection == ref.mt_projection


def test_torsion_decomposition_refuses_torsion_carried_onto_free_coordinates():
    # not a module: the generator of Z/2 is sent to a free class, which the
    # lower-left block of the minimal presentation shows
    G = FiniteGroup.cyclic(2)
    M = GModule(G, 2, [[2, 0]], [IntMatrix.identity(2), IntMatrix([[1, 0], [1, -1]])])
    with pytest.raises(ConsistencyError, match="carries torsion onto the free"):
        torsion_decomposition(M)


def test_dual_of_permutation_module_is_itself():
    G = FiniteGroup.dihedral(5)
    M = permutation_module(G, G.subgroup([0, 5]))
    D = dual_module(M)
    assert D.action == M.action


def test_double_dual_is_identity_on_compressed_form():
    rng = random.Random(7)
    G = FiniteGroup.cyclic(4)
    for _ in range(10):
        M = random_module(G, "torsion_free", rng.randrange(10**6), max_rank=6)
        DD = dual_module(dual_module(M))
        assert DD.action == compress(M).module.action


def test_dual_module_rejects_torsion():
    G = FiniteGroup.cyclic(2)
    M = GModule(G, 1, Lattice.from_rows(1, [[4]]),
                [IntMatrix([[1]]), IntMatrix([[1]])])
    with pytest.raises(InputError, match="torsion-free"):
        dual_module(M)


def test_finite_dual_preserves_invariants():
    rng = random.Random(31)
    for G in (FiniteGroup.cyclic(2), FiniteGroup.dihedral(3)):
        for _ in range(8):
            M = random_module(G, "finite", rng.randrange(10**6), max_rank=4)
            D = finite_dual(M)
            validate_module(D)
            assert D.order() == M.order()
            assert D.abelian_group().invariants() == compress(M).module.abelian_group().invariants()
            DD = finite_dual(D)
            assert DD.abelian_group().invariants() == D.abelian_group().invariants()


def test_finite_dual_rejects_infinite_module():
    G = FiniteGroup.cyclic(2)
    M = trivial_module(G)
    with pytest.raises(InputError, match="finite"):
        finite_dual(M)


def test_tensor_of_cyclic_groups_over_trivial_group():
    G = FiniteGroup.cyclic(1)
    A = GModule(G, 1, Lattice.from_rows(1, [[4]]), [IntMatrix([[1]])])
    B = GModule(G, 1, Lattice.from_rows(1, [[6]]), [IntMatrix([[1]])])
    T = tensor_product(A, B)
    assert T.abelian_group().invariants() == (0, (2,))
    F = GModule(G, 2, None, [IntMatrix.identity(2)])
    assert tensor_product(F, F).abelian_group().invariants() == (4, ())


def test_tensor_of_regular_modules_is_free_of_group_rank():
    G = FiniteGroup.cyclic(2)
    reg = permutation_module(G, G.trivial_subgroup())
    T = tensor_product(reg, reg)
    validate_module(T, all_pairs=True)
    assert fixed_points(T, G.full_subgroup()).rank == 2


def test_direct_sum_blocks():
    G = FiniteGroup.dihedral(3)
    M = permutation_module(G, G.subgroup([0, 3]))
    S = direct_sum(M, trivial_module(G))
    validate_module(S, all_pairs=True)
    assert S.ambient_rank == 4
    assert fixed_points(S, G.full_subgroup()).rank == 2


def test_restriction_to_rotation_subgroup():
    G = FiniteGroup.dihedral(3)
    rho = G.subgroup([0, 1, 2])
    M = permutation_module(G, G.trivial_subgroup())
    R = restrict(M, rho)
    validate_module(R, all_pairs=True)
    assert R.group.order == 3
    assert R.group.element_order(1) == 3
    # Z[D3] restricted to C3 is two copies of Z[C3]
    assert fixed_points(R, R.group.full_subgroup()).rank == 2


def test_restrictions_share_one_group_per_table():
    # the three reflection subgroups of D3 re-index to one table, so every
    # module over D3 restricts to them over one shared group
    G = FiniteGroup.dihedral(3)
    M, N = permutation_module(G, G.trivial_subgroup()), trivial_module(G)
    reflections = [G.subgroup([0, s]) for s in (3, 4, 5)]
    groups = {id(restrict(X, H).group) for X in (M, N) for H in reflections}
    assert len(groups) == 1
    assert restrict(M, G.subgroup([0, 1, 2])).group is not restrict(M, reflections[0]).group


def test_module_hom_accepts_norm_map_and_rejects_coordinate_inclusion():
    G = FiniteGroup.cyclic(2)
    reg = permutation_module(G, G.trivial_subgroup())
    triv = trivial_module(G)
    ModuleHom(triv, reg, IntMatrix([[1], [1]]))
    with pytest.raises(ValidationError, match="equivariant"):
        ModuleHom(triv, reg, IntMatrix([[1], [0]]))


def test_module_hom_requires_relations_to_map_in():
    G = FiniteGroup.cyclic(1)
    A = GModule(G, 1, Lattice.from_rows(1, [[2]]), [IntMatrix([[1]])])
    B = GModule(G, 1, Lattice.from_rows(1, [[4]]), [IntMatrix([[1]])])
    ModuleHom(A, B, IntMatrix([[2]]))
    with pytest.raises(ValidationError, match="relations"):
        ModuleHom(A, B, IntMatrix([[1]]))


def test_equivariant_hom_basis_counts_double_cosets():
    G = FiniteGroup.dihedral(3)
    sigma = G.subgroup([0, 3])
    rho = G.subgroup([0, 1, 2])
    triv = G.trivial_subgroup()
    assert len(equivariant_hom_basis(G, sigma, sigma)) == 2
    assert len(equivariant_hom_basis(G, triv, sigma)) == 3
    assert len(equivariant_hom_basis(G, rho, sigma)) == 1
    assert len(equivariant_hom_basis(G, sigma, rho)) == 1


def test_equivariant_hom_basis_maps_are_equivariant_and_independent():
    G = FiniteGroup.dihedral(5)
    subs = subgroup_class_representatives(G)
    for H1 in subs:
        for H2 in subs:
            basis = equivariant_hom_basis(G, H1, H2)
            M1 = permutation_module(G, H1)
            M2 = permutation_module(G, H2)
            flat = []
            for mat in basis:
                ModuleHom(M1, M2, mat)
                flat.append([x for row in mat.entries for x in row])
            # linear independence over Z
            ker = integer_kernel(IntMatrix(flat).transpose())
            assert ker.rank == 0


def test_hom_lattice_echelon_entries_stay_small(monkeypatch):
    # with L's rows seeded and the columns added last to first, every
    # column is reduced modulo the target relations as it comes in: the
    # echelon behind this D5 hom lattice peaks at 9-bit entries, where the
    # first-to-last order reached 22
    G = FiniteGroup.dihedral(5)
    seed = mix_seed(0, 1, 5, 196)
    M = compress(random_module(G, "finite", seed)).module
    N = compress(random_module(G, "mixed", mix_seed(seed, 11))).module
    peak = [0]
    add = _Echelon.add

    def watched(self, vec):
        add(self, vec)
        peak[0] = max([peak[0]] + [abs(a).bit_length() for row in self.rows for a in row])

    monkeypatch.setattr(_Echelon, "add", watched)
    assert module_hom_lattice(M, N).rank == 25
    assert 0 < peak[0] <= 12


def test_random_modules_are_deterministic_and_valid():
    groups = [FiniteGroup.cyclic(4), FiniteGroup.dihedral(3),
              FiniteGroup.product([FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)])]
    for G in groups:
        for profile in ("torsion_free", "finite", "mixed"):
            for seed in range(6):
                M1 = random_module(G, profile, seed)
                M2 = random_module(G, profile, seed)
                assert M1.action == M2.action
                assert M1.relations == M2.relations
                validate_module(M1)
                if profile == "torsion_free":
                    assert M1.is_torsion_free()
                    assert M1.ambient_rank >= 1
                if profile == "finite":
                    assert M1.is_finite()
                    assert M1.order() > 1


def test_random_modules_vary_with_seed():
    G = FiniteGroup.dihedral(3)
    draws = {random_module(G, "mixed", seed).action for seed in range(10)}
    assert len(draws) > 1


def test_seed_mix_keeps_the_historical_streams():
    # every seeded draw goes through mix_seed; a change here changes reports
    mix, mask = 0x9E3779B97F4A7C15, 2**64 - 1
    assert mix_seed(7) == 7
    assert mix_seed(7, 0) == (7 * mix + 1) & mask
    assert mix_seed(7, 4) == (7 * mix + 5) & mask
    assert mix_seed(-3, 2, 9) == ((((-3 & mask) * mix + 3) & mask) * mix + 10) & mask
    assert mix_seed(2**64 + 5, 1) == mix_seed(5, 1)


def test_random_module_unknown_profile():
    with pytest.raises(InputError, match="profile"):
        random_module(FiniteGroup.cyclic(2), "sporadic", 0)
