import pytest

import reglab.groups as groups
from reglab.errors import ResourceLimitError, ValidationError
from reglab.groups import (
    FiniteGroup,
    Subgroup,
    build_group,
    class_representative_of,
    coset_space,
    enumerate_subgroups,
)

from oracles import is_abelian, subgroups_by_fixpoint, zoo


def test_cyclic_table():
    C4 = FiniteGroup.cyclic(4)
    assert C4.order == 4
    assert C4.mul[1][3] == 0
    assert C4.inverse[1] == 3
    assert C4.element_order(1) == 4
    assert C4.element_order(2) == 2
    assert is_abelian(C4)


def test_dihedral_relations_hold():
    q = 5
    D = FiniteGroup.dihedral(q)
    r, s = 1, q  # a rotation and a reflection: rotations are 0..q-1
    assert D.element_order(r) == q
    assert D.element_order(s) == 2
    # s r s^{-1} = r^{-1}
    srs = D.mul[D.mul[s][r]][D.inverse[s]]
    assert srs == D.inverse[r]
    assert not is_abelian(D)


def test_dihedral_table_is_a_group():
    # full validation pass on the constructed table
    D = FiniteGroup.from_table(FiniteGroup.dihedral(3).mul)
    assert D.order == 6


def test_product_group():
    V4 = FiniteGroup.product([FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)])
    assert V4.order == 4
    assert is_abelian(V4)
    assert all(V4.element_order(g) in (1, 2) for g in range(4))


def test_table_validation_catches_broken_associativity():
    mul = [list(row) for row in FiniteGroup.cyclic(3).mul]
    mul[2][2] = 2  # break it
    with pytest.raises(ValidationError):
        FiniteGroup.from_table(mul)


def test_table_validation_names_failing_triple():
    # a genuine Latin square with identity that is not associative; the error
    # message must point at a concrete witness triple
    loop = [[0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 3, 4, 0, 1],
            [3, 4, 1, 2, 0],
            [4, 2, 0, 1, 3]]
    with pytest.raises(ValidationError, match=r"associativity fails at triple \(\d+, \d+, \d+\)"):
        FiniteGroup.from_table(loop)


def test_group_order_cap():
    with pytest.raises(ResourceLimitError):
        FiniteGroup.cyclic(49)


def test_conjugacy_classes_dihedral3():
    D3 = FiniteGroup.dihedral(3)
    classes = D3.conjugacy_classes()
    assert classes == ((0,), (1, 2), (3, 4, 5))


def test_enumerate_subgroups_d3():
    D3 = FiniteGroup.dihedral(3)
    classes = enumerate_subgroups(D3)
    # trivial, the three conjugate reflections, the rotation subgroup, full
    assert len(classes) == 4
    orders = [cls[0].order for cls in classes]
    assert orders == [1, 2, 3, 6]
    assert len(classes[1]) == 3  # reflection subgroups are all conjugate
    assert len(classes[2]) == 1  # the rotation subgroup is normal


def test_enumerate_subgroups_v4():
    V4 = FiniteGroup.product([FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)])
    classes = enumerate_subgroups(V4)
    # five subgroups, all normal, hence five singleton classes
    assert len(classes) == 5
    assert all(len(cls) == 1 for cls in classes)
    assert [cls[0].order for cls in classes] == [1, 2, 2, 2, 4]


def test_enumerate_subgroups_needs_three_generators():
    # (Z/2)^3 itself is only reachable with three generators; the closure
    # method must still find it (and all 16 subgroups)
    C2 = FiniteGroup.cyclic(2)
    E8 = FiniteGroup.product([C2, C2, C2])
    classes = enumerate_subgroups(E8)
    total = sum(len(cls) for cls in classes)
    # (Z/2)^3 has 1 + 7 + 7 + 1 = 16 subgroups
    assert total == 16
    assert any(cls[0].order == 8 for cls in classes)


def test_enumerate_subgroups_matches_the_closure_fixpoint():
    # growing from generators finds the classes, in the order, of the
    # all-pairs fixpoint it replaced
    for G in zoo():
        classes = [tuple(H.elements for H in cls) for cls in enumerate_subgroups(G)]
        assert classes == subgroups_by_fixpoint(G), G


def test_closure_is_the_generated_subgroup():
    D4 = FiniteGroup.dihedral(4)
    assert D4.closure([]) == (0,)
    assert D4.closure([2]) == (0, 2)
    assert D4.closure([1, 0]) == (0, 1, 2, 3)
    assert D4.closure([4, 6]) == (0, 2, 4, 6)
    assert D4.closure([1, 4]) == tuple(range(8))


def test_subgroup_generators_are_memoised_on_the_group():
    D5 = FiniteGroup.dihedral(5)
    gens = D5.full_subgroup().generators()
    assert D5.full_subgroup().generators() is gens
    assert Subgroup(D5, (0,)).generators() == ()


def test_subgroup_generators_and_closure():
    D5 = FiniteGroup.dihedral(5)
    full = D5.full_subgroup()
    gens = full.generators()
    assert D5.closure(gens) == tuple(range(10))
    assert len(gens) == 2
    rot = Subgroup(D5, range(5))
    assert len(rot.generators()) == 1


def test_class_representative_of_reflection():
    D3 = FiniteGroup.dihedral(3)
    H = Subgroup(D3, (0, 4))
    rep = class_representative_of(D3, H)
    assert rep.elements == (0, 3)


def test_class_representatives_are_memoised_on_the_group(monkeypatch):
    # a copy, so nothing is cached on it yet: the first lookup conjugates H
    # by every element, the second finds the representative cached
    D3 = FiniteGroup.dihedral(3)
    G = FiniteGroup(D3.mul, D3.descriptor, validate=False)
    calls = []
    conjugate = Subgroup.conjugate
    monkeypatch.setattr(Subgroup, "conjugate",
                        lambda self, g: calls.append(g) or conjugate(self, g))
    H = Subgroup(G, (0, 4))
    rep = class_representative_of(G, H)
    assert (rep.elements, len(calls)) == ((0, 3), G.order)
    assert class_representative_of(G, Subgroup(G, (0, 4))) is rep
    assert len(calls) == G.order
    assert class_representative_of(D3, Subgroup(D3, (0, 4))).elements == (0, 3)


def test_coset_space_d3_mod_reflection():
    D3 = FiniteGroup.dihedral(3)
    H = Subgroup(D3, (0, 3))  # <s>
    X = coset_space(D3, H)
    assert X.points == 3
    assert X.representatives[0] == 0
    # the rotation acts as a 3-cycle on the cosets
    perm = X.action[1]
    seen = {0}
    p = perm[0]
    while p != 0:
        seen.add(p)
        p = perm[p]
    assert len(seen) == 3
    # action is a homomorphism into permutations
    for g in range(6):
        for h in range(6):
            gh = D3.mul[g][h]
            composed = tuple(X.action[g][X.action[h][i]] for i in range(3))
            assert composed == X.action[gh]


def test_coset_count_times_order():
    D5 = FiniteGroup.dihedral(5)
    for cls in enumerate_subgroups(D5):
        H = cls[0]
        X = coset_space(D5, H)
        assert X.points * H.order == D5.order


def test_build_group_descriptors():
    assert build_group({"kind": "cyclic", "n": 6}).order == 6
    assert build_group({"kind": "dihedral", "q": 3}).order == 6
    G = build_group({"kind": "product",
                     "factors": [{"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 3}]})
    assert G.order == 6 and is_abelian(G)
    tbl = build_group({"kind": "table", "order": 3,
                       "mul": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]})
    assert tbl.order == 3


def test_family_constructors_share_one_group():
    C, D = FiniteGroup.cyclic, FiniteGroup.dihedral
    assert C(6) is C(6) and D(5) is D(5)
    assert FiniteGroup.product([C(2), D(3)]) is build_group(
        {"kind": "product",
         "factors": [{"kind": "cyclic", "n": 2}, {"kind": "dihedral", "q": 3}]})
    table = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    assert FiniteGroup.from_table(table) is build_group({"kind": "table", "mul": table})
    # a direct construction is a copy, never the shared group
    assert FiniteGroup(C(6).mul, C(6).descriptor, validate=False) is not C(6)


def test_products_of_equal_tables_with_other_descriptors_stay_distinct():
    C2 = FiniteGroup.cyclic(2)
    T2 = FiniteGroup.from_table(C2.mul)
    assert T2 is not C2 and T2 == C2
    assert FiniteGroup.product([T2, T2]) is not FiniteGroup.product([C2, C2])
    assert FiniteGroup.product([T2, C2]) is FiniteGroup.product([T2, C2])


def test_a_repeated_table_is_validated_once(monkeypatch):
    calls = []
    validate = groups._validate_table
    monkeypatch.setattr(groups, "_validate_table",
                        lambda table: calls.append(table) or validate(table))
    swap = [0, 2, 1, 3, 4, 5, 6]  # C7 with 1 and 2 swapped: no other test's table
    table = [[swap[(swap[a] + swap[b]) % 7] for b in range(7)] for a in range(7)]
    assert FiniteGroup.from_table(table) is FiniteGroup.from_table(table)
    assert len(calls) == 1
    bad = [[0, 1, 2], [1, 0, 2], [2, 2, 0]]
    for _ in range(2):  # a failed table is never interned
        with pytest.raises(ValidationError):
            FiniteGroup.from_table(bad)
    assert len(calls) == 3


def test_the_intern_table_stays_at_its_bound():
    for n in range(1, 49):
        build_group({"kind": "cyclic", "n": n})
    for q in range(2, 25):
        build_group({"kind": "dihedral", "q": q})
    assert len(groups._INTERNED) == groups.MAX_INTERNED < 71
    assert FiniteGroup.dihedral(24) is build_group({"kind": "dihedral", "q": 24})


def test_out_of_range_subgroup_elements_are_rejected_before_any_lookup():
    D3 = FiniteGroup.dihedral(3)
    for elements in ((0, 99), (0, 6), (-1, 0), (0, 1, 2, 7)):
        with pytest.raises(ValidationError, match="outside the group"):
            Subgroup(D3, elements)


def test_group_table_refuses_non_integers():
    with pytest.raises(TypeError):
        FiniteGroup([[0, 1.0], [1, 0]])
    with pytest.raises(TypeError):
        FiniteGroup.from_table([[0, 1], [1, 0.9]])


def test_subgroup_refuses_non_integer_elements():
    with pytest.raises(TypeError):
        Subgroup(FiniteGroup.dihedral(3), [0, 1.7, 2])
