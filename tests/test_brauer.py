"""Brauer relations: character matrices, relation lattices, theta products."""

from fractions import Fraction

import pytest

from reglab import (
    BrauerRelation,
    FiniteGroup,
    Subgroup,
    ValidationError,
    brauer_relation_lattice,
    dihedral_relation,
    is_brauer_relation,
    permutation_character_matrix,
    relation_from_vector,
    subgroup_class_representatives,
    theta_product,
    trivial_module,
)
from reglab.errors import InputError
from reglab.groups import enumerate_subgroups

from oracles import zoo


def V4():
    c2 = FiniteGroup.cyclic(2)
    return FiniteGroup.product([c2, c2])


def test_character_matrix_of_d3():
    G = FiniteGroup.dihedral(3)
    X, subs, classes = permutation_character_matrix(G)
    assert [H.order for H in subs] == [1, 2, 3, 6]
    assert classes == (0, 1, 3)
    assert X.to_lists() == [
        [6, 0, 0],
        [3, 0, 1],
        [2, 2, 0],
        [1, 1, 1],
    ]


def test_dihedral_relation_is_a_relation_and_canonical():
    for q in (3, 5):
        rel = dihedral_relation(q)
        G = rel.group
        assert rel.coefficient_vector() == (1, -2, -1, 2)
        ok, witness = is_brauer_relation(G, rel.terms)
        assert ok and witness is None
        assert dihedral_relation(q) is rel  # built once per q


def test_dihedral_relation_rejects_even_or_trivial_q():
    with pytest.raises(InputError):
        dihedral_relation(4)
    with pytest.raises(InputError):
        dihedral_relation(1)


def test_relation_lattice_of_dihedral_groups():
    for q in (3, 5):
        G = FiniteGroup.dihedral(q)
        lat = brauer_relation_lattice(G)
        assert lat.basis_rows == ((1, -2, -1, 2),)


def test_relation_lattice_of_v4():
    lat = brauer_relation_lattice(V4())
    assert lat.basis_rows == ((1, -1, -1, -1, 2),)


def test_relation_rank_is_classes_minus_cyclic_classes():
    # Artin's induction theorem: the permutation characters span the
    # rational characters, one per class of cyclic subgroups, so the
    # relations have rank #classes - #cyclic classes (Bartel-Dokchitser,
    # Brauer relations in finite groups, JEMS 2015)
    for G in zoo():
        reps = [cls[0] for cls in enumerate_subgroups(G)]
        cyclic = sum(any(G.element_order(x) == H.order for x in H.elements)
                     for H in reps)
        assert brauer_relation_lattice(G).rank == len(reps) - cyclic, G


def test_cyclic_groups_have_no_relations():
    for n in (2, 3, 4, 6, 9, 12):
        G = FiniteGroup.cyclic(n)
        assert brauer_relation_lattice(G).rank == 0


def test_relation_from_vector_roundtrip():
    G = V4()
    rel = relation_from_vector(G, (1, -1, -1, -1, 2))
    assert rel.coefficient_vector() == (1, -1, -1, -1, 2)
    with pytest.raises(InputError, match="coefficients"):
        relation_from_vector(G, (1, -1))


def test_non_relation_is_rejected_with_witness():
    G = FiniteGroup.dihedral(3)
    with pytest.raises(ValidationError, match="does not vanish"):
        BrauerRelation(G, [(G.full_subgroup(), 1)])
    ok, witness = is_brauer_relation(G, [(G.full_subgroup(), 1)])
    assert not ok and witness == 0


def test_terms_merge_conjugate_subgroups():
    G = FiniteGroup.dihedral(3)
    s1 = Subgroup(G, (0, 3))
    s2 = Subgroup(G, (0, 4))  # conjugate to s1
    rel = BrauerRelation(G, [
        (G.trivial_subgroup(), 1), (G.full_subgroup(), 2),
        (Subgroup(G, (0, 1, 2)), -1), (s1, -1), (s2, -1),
    ])
    assert rel.coefficient_vector() == (1, -2, -1, 2)
    assert all(H.elements == (0, 3) for H, c in rel.terms if H.order == 2)


def test_theta_product_on_trivial_module():
    # order of H^0(H, Z) is |H|, so the product telescopes to q
    for q in (3, 5):
        rel = dihedral_relation(q)
        Z = trivial_module(rel.group)
        assert theta_product(Z, rel, 0) == Fraction(q)
        assert theta_product(Z, rel, -1) == 1
        assert theta_product(Z, rel, 1) == 1


def test_v4_theta_product_on_trivial_module():
    G = V4()
    rel = relation_from_vector(G, (1, -1, -1, -1, 2))
    Z = trivial_module(G)
    # |H^0| = |H| per subgroup: 1 * 2^-3 * 4^2 = 2
    assert theta_product(Z, rel, 0) == 2
    assert theta_product(Z, rel, -1) == 1


def test_every_lattice_vector_is_a_relation():
    for G in (FiniteGroup.dihedral(3), FiniteGroup.dihedral(5), V4()):
        lat = brauer_relation_lattice(G)
        subs = subgroup_class_representatives(G)
        for row in lat.basis_rows:
            ok, _ = is_brauer_relation(G, list(zip(subs, row)))
            assert ok
