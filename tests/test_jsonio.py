"""Serialization layer: group/module/relation JSON round trips and digests."""

import json

import pytest

from reglab import (
    FiniteGroup,
    InputError,
    build_group,
    dihedral_relation,
    group_from_json,
    group_to_json,
    load_json_file,
    module_digest,
    module_from_json,
    module_to_json,
    random_module,
    relation_from_json,
    relation_to_json,
    trivial_module,
)

from oracles import a4


def _d3():
    return FiniteGroup.dihedral(3)


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------


def test_group_roundtrip_descriptors():
    for desc in (
        {"kind": "cyclic", "n": 6},
        {"kind": "dihedral", "q": 5},
        {"kind": "product",
         "factors": [{"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 4}]},
    ):
        G = build_group(desc)
        doc = group_to_json(G)
        H = group_from_json(doc)
        assert H.order == G.order
        assert H.mul == G.mul


def test_group_table_kind_carries_multiplication():
    G = FiniteGroup.dihedral(3)
    table = FiniteGroup.from_table([list(row) for row in G.mul])
    doc = group_to_json(table)
    assert doc["kind"] == "table"
    assert doc["order"] == 6
    H = group_from_json(doc)
    assert H.mul == G.mul


def test_a_family_and_its_table_stay_distinct_groups():
    # equal tables, but JSON echoes the descriptor, so one group each
    C2 = build_group({"kind": "cyclic", "n": 2})
    T2 = build_group({"kind": "table", "mul": [[0, 1], [1, 0]]})
    assert C2 is not T2 and C2.mul == T2.mul
    assert group_to_json(C2) == {"kind": "cyclic", "n": 2}
    assert group_to_json(T2) == {"kind": "table", "order": 2, "mul": [[0, 1], [1, 0]]}


def test_a_product_with_table_factors_round_trips_at_any_depth():
    A4 = a4()
    inner = FiniteGroup.product([A4, FiniteGroup.cyclic(2)])
    for G in (inner, FiniteGroup.product([FiniteGroup.cyclic(1), inner])):
        M = trivial_module(G)
        doc = json.loads(json.dumps(module_to_json(M)))
        N = module_from_json(doc)
        assert N.group is G
        assert module_to_json(N) == doc
        assert module_digest(N) == module_digest(M)
    table_factor = group_to_json(inner)["factors"][0]
    assert table_factor == {"kind": "table", "order": 12,
                            "mul": [list(row) for row in A4.mul]}


def test_group_from_json_file(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"kind": "cyclic", "n": 4}))
    G = group_from_json(str(path))
    assert G.order == 4


def test_group_from_missing_file_is_input_error(tmp_path):
    with pytest.raises(InputError):
        group_from_json(str(tmp_path / "nope.json"))


# ---------------------------------------------------------------------------
# modules
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("profile", ["torsion_free", "finite", "mixed"])
def test_module_roundtrip_all_profiles(profile):
    G = _d3()
    for seed in (0, 1, 5):
        M = random_module(G, profile, seed=seed)
        N = module_from_json(module_to_json(M))
        assert N.ambient_rank == M.ambient_rank
        assert N.relations.basis_rows == M.relations.basis_rows
        assert all(N.action[g].entries == M.action[g].entries
                   for g in range(G.order))
        assert module_digest(N) == module_digest(M)


def test_digest_ignores_relation_basis_presentation():
    """Two generating sets of the same relation lattice hash identically."""
    G = _d3()
    M = random_module(G, "finite", seed=3)
    rows = [list(r) for r in M.relations.basis_rows]
    doubled = rows + [[2 * x for x in rows[0]]]
    from reglab import GModule
    N = GModule(G, M.ambient_rank, doubled, M.action)
    assert module_digest(N) == module_digest(M)


def test_generator_form_expands_cyclic_sign_action():
    doc = {
        "group": {"kind": "cyclic", "n": 4},
        "rank": 1,
        "relations": [],
        "action_on_generators": {"1": [[-1]]},
    }
    M = module_from_json(doc)
    assert M.action[1].entries == ((-1,),)
    assert M.action[2].entries == ((1,),)
    assert M.action[3].entries == ((-1,),)


def test_generator_form_expands_dihedral_generators():
    doc = {
        "group": {"kind": "dihedral", "q": 3},
        "rank": 1,
        "relations": [],
        "action_on_generators": {"1": [[1]], "3": [[-1]]},
    }
    M = module_from_json(doc)
    # reflections act by -1, rotations by +1
    assert [M.action[g].entries[0][0] for g in range(6)] == [1, 1, 1, -1, -1, -1]


def test_generator_form_that_does_not_generate_is_rejected():
    doc = {
        "group": {"kind": "dihedral", "q": 3},
        "rank": 1,
        "relations": [],
        "action_on_generators": {"1": [[1]]},  # rotations only
    }
    with pytest.raises(InputError, match="missing elements"):
        module_from_json(doc)


def test_module_missing_elements_is_rejected():
    doc = {
        "group": {"kind": "cyclic", "n": 2},
        "rank": 1,
        "relations": [],
        "action": {"0": [[1]]},
    }
    with pytest.raises(InputError, match="missing"):
        module_from_json(doc)


def test_module_bad_matrix_shape_is_rejected():
    doc = {
        "group": {"kind": "cyclic", "n": 2},
        "rank": 2,
        "relations": [],
        "action": {"0": [[1, 0], [0, 1]], "1": [[1, 0]]},
    }
    with pytest.raises(InputError):
        module_from_json(doc)


class _Int(int):
    """An int subclass, as a JSON decoder hook might produce."""


def test_entries_may_be_int_subclasses_but_not_bools():
    def doc(rel, act):
        return {"group": {"kind": "cyclic", "n": 2}, "rank": 1,
                "relations": [[rel]], "action": {"0": [[1]], "1": [[act]]}}

    M = module_from_json(doc(_Int(2), _Int(-1)))
    assert M.relations.basis_rows == ((2,),) and M.action[1].entries == ((-1,),)
    assert type(M.action[1].entries[0][0]) is int
    for bad in (doc(True, -1), doc(2, True), doc(2.0, -1), doc(2, "1")):
        with pytest.raises(InputError, match="integer"):
            module_from_json(bad)
    terms = relation_to_json(dihedral_relation(3))["terms"]
    rel = {"group": {"kind": "dihedral", "q": 3}, "terms": terms}
    terms[0]["subgroup"] = [_Int(x) for x in terms[0]["subgroup"]]
    assert relation_from_json(rel).terms == dihedral_relation(3).terms
    terms[0]["subgroup"][0] = False
    with pytest.raises(InputError, match="element indices"):
        relation_from_json(rel)


def test_module_group_law_violation_is_rejected():
    from reglab import ValidationError
    doc = {
        "group": {"kind": "cyclic", "n": 2},
        "rank": 1,
        "relations": [],
        "action": {"0": [[1]], "1": [[2]]},
    }
    with pytest.raises(ValidationError, match="group law"):
        module_from_json(doc)


def test_module_file_roundtrip(tmp_path):
    M = trivial_module(_d3())
    path = tmp_path / "m.json"
    path.write_text(json.dumps(module_to_json(M)))
    N = module_from_json(load_json_file(str(path)))
    assert module_digest(N) == module_digest(M)


def test_module_group_may_be_a_file_path(tmp_path):
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps({"kind": "dihedral", "q": 3}))
    doc = module_to_json(trivial_module(_d3()))
    doc["group"] = "g.json"
    M = module_from_json(doc, base_dir=str(tmp_path))
    assert M.group.order == 6


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------


def test_modules_and_relations_over_one_descriptor_share_one_group():
    doc = module_to_json(random_module(_d3(), "finite", seed=3))
    A = module_from_json(json.loads(json.dumps(doc)))
    B = module_from_json(json.loads(json.dumps(doc)))
    assert A is not B and A.group is B.group
    rel = relation_from_json(relation_to_json(dihedral_relation(3)))
    assert rel.group is A.group


def test_relation_roundtrip_dihedral():
    rel = dihedral_relation(5)
    doc = relation_to_json(rel)
    back = relation_from_json(doc)
    assert back.terms == rel.terms


def test_relation_merges_conjugate_subgroups():
    G = _d3()
    # two conjugate order-2 subgroups with coefficient -1 each merge to -2
    doc = {
        "group": {"kind": "dihedral", "q": 3},
        "terms": [
            {"subgroup": [0], "coeff": 1},
            {"subgroup": [0, 3], "coeff": -1},
            {"subgroup": [0, 4], "coeff": -1},
            {"subgroup": [0, 1, 2], "coeff": -1},
            {"subgroup": list(range(6)), "coeff": 2},
        ],
    }
    rel = relation_from_json(doc)
    assert rel.terms == dihedral_relation(3).terms


def test_relation_rejects_non_relation():
    doc = {
        "group": {"kind": "dihedral", "q": 3},
        "terms": [{"subgroup": [0], "coeff": 1}],
    }
    with pytest.raises(Exception):
        relation_from_json(doc)


def test_relation_rejects_non_closed_subgroup():
    doc = {
        "group": {"kind": "dihedral", "q": 3},
        "terms": [{"subgroup": [0, 1], "coeff": 1}],  # 1*1=2 missing
    }
    with pytest.raises(Exception):
        relation_from_json(doc)
