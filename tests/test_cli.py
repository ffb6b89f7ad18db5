"""Command line interface: JSON output, exit codes, determinism."""

import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import reglab
from reglab import (
    FiniteGroup,
    dihedral_relation,
    group_to_json,
    module_digest,
    module_to_json,
    relation_to_json,
    random_module,
    tate,
    trivial_module,
)
from reglab.cli import main

from oracles import a4


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


@pytest.fixture
def triv_d3(tmp_path):
    path = tmp_path / "triv.json"
    path.write_text(json.dumps(module_to_json(trivial_module(
        FiniteGroup.dihedral(3)))))
    return str(path)


@pytest.fixture
def theta_d3(tmp_path):
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(relation_to_json(dihedral_relation(3))))
    return str(path)


@pytest.fixture
def mixed_a4(tmp_path):
    M = random_module(a4(), "mixed", seed=102)
    path = tmp_path / "a4.json"
    path.write_text(json.dumps(module_to_json(M)))
    return str(path), M


@pytest.fixture
def finite_d3(tmp_path):
    M = random_module(FiniteGroup.dihedral(3), "finite", seed=7)
    path = tmp_path / "fin.json"
    path.write_text(json.dumps(module_to_json(M)))
    return str(path), module_digest(M)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_reports_digest_and_shape(capsys, triv_d3):
    code, doc = _run(capsys, "validate", "--module", triv_d3)
    assert code == 0
    assert doc["valid"] is True
    assert doc["rank"] == 1 and doc["relations"] == 0
    assert doc["order"] is None  # infinite module
    assert len(doc["digest"]) == 64


def test_validate_rejects_group_law_violation(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "group": {"kind": "cyclic", "n": 2},
        "rank": 1, "relations": [], "action": {"0": [[1]], "1": [[2]]},
    }))
    code, doc = _run(capsys, "validate", "--module", str(path))
    assert code == 2
    assert doc["error"] == "ValidationError"
    assert "group law" in doc["message"]


@pytest.mark.parametrize("table", ["action", "action_on_generators"])
@pytest.mark.parametrize("key", ["01", " 1 ", "+1", "1.0"])
def test_validate_rejects_a_second_key_for_one_element(capsys, tmp_path, table, key):
    # "1" and key would both name element 1, and the later key would win
    path = tmp_path / "twice.json"
    path.write_text('{"group": {"kind": "cyclic", "n": 2}, "rank": 1, '
                    f'"relations": [], "{table}": '
                    f'{{"0": [[1]], "1": [[-1]], "{key}": [[1]]}}}}')
    code, doc = _run(capsys, "validate", "--module", str(path))
    assert code == 2
    assert doc["error"] == "InputError"
    assert repr(key) in doc["message"]


def test_validate_rejects_malformed_json(capsys, tmp_path):
    path = tmp_path / "nj.json"
    path.write_text("not json")
    code, doc = _run(capsys, "validate", "--module", str(path))
    assert code == 2
    assert doc["error"] == "InputError"


def test_validate_missing_file(capsys, tmp_path):
    code, doc = _run(capsys, "validate", "--module", str(tmp_path / "no.json"))
    assert code == 2


@pytest.fixture
def files_naming_their_group(tmp_path, monkeypatch):
    """Paths, from the directory above sub/, to a module and a relation in
    sub/ that name sub/g.json as "g.json", and to the module with its group
    inline."""
    D3 = FiniteGroup.dihedral(3)
    module = module_to_json(trivial_module(D3))
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "g.json").write_text(json.dumps(group_to_json(D3)))
    (sub / "inline.json").write_text(json.dumps(module))
    for name, doc in (("m.json", module),
                      ("rel.json", relation_to_json(dihedral_relation(3)))):
        (sub / name).write_text(json.dumps({**doc, "group": "g.json"}))
    monkeypatch.chdir(tmp_path)
    return tuple(os.path.join("sub", name)
                 for name in ("m.json", "rel.json", "inline.json"))


def test_a_group_path_is_read_relative_to_the_module_file(capsys,
                                                          files_naming_their_group):
    module, _, _ = files_naming_their_group
    code, doc = _run(capsys, "validate", "--module", module)
    assert code == 0 and doc["valid"] is True


def test_a_group_path_is_read_relative_to_the_relation_file(capsys,
                                                            files_naming_their_group):
    _, relation, module = files_naming_their_group
    code, doc = _run(capsys, "regulator", "--module", module, "--relation", relation,
                     "--method", "pairing")
    assert code == 0 and doc["value"] == "1/3"


# ---------------------------------------------------------------------------
# cohomology
# ---------------------------------------------------------------------------


def test_cohomology_trivial_module_over_rotations(capsys, triv_d3):
    code, doc = _run(capsys, "cohomology", "--module", triv_d3,
                     "--subgroup", "1", "--degrees", "-1..2")
    assert code == 0
    assert doc["subgroup"] == [0, 1, 2]  # closure of the rotation
    degrees = doc["degrees"]
    assert degrees["-1"]["order"] == 1
    assert degrees["0"] == {"order": 3, "invariants": [0, [3]]}
    assert degrees["1"]["order"] == 1
    assert degrees["2"] == {"order": 3, "invariants": [0, [3]]}


def test_cohomology_defaults_to_full_group(capsys, triv_d3):
    code, doc = _run(capsys, "cohomology", "--module", triv_d3,
                     "--degrees", "0")
    assert code == 0
    assert doc["subgroup"] == [0, 1, 2, 3, 4, 5]
    assert doc["degrees"]["0"]["order"] == 6


def test_cohomology_comma_degree_list(capsys, triv_d3):
    code, doc = _run(capsys, "cohomology", "--module", triv_d3,
                     "--degrees", "0,2")
    assert code == 0
    assert sorted(doc["degrees"]) == ["0", "2"]


def test_cohomology_degree_two_over_a4_fits_the_default_cap(capsys, mixed_a4,
                                                           monkeypatch):
    # over the coinduced shift this module needed width 5808
    monkeypatch.delenv("REGLAB_LIMIT_COLS", raising=False)
    path, M = mixed_a4
    code, doc = _run(capsys, "cohomology", "--module", path, "--degrees", "2")
    assert code == 0
    expected = tate(M, M.group.full_subgroup(), 2).invariants()
    assert expected == (0, (6,))
    assert doc["degrees"]["2"] == {"order": 6, "invariants": [0, [6]]}


def test_cohomology_degree_two_over_a4_still_meets_a_small_cap(capsys, mixed_a4,
                                                               monkeypatch):
    # the resolution needs width 60 and the degree-2 cocycles width 87
    monkeypatch.setenv("REGLAB_LIMIT_COLS", "80")
    code, doc = _run(capsys, "cohomology", "--module", mixed_a4[0], "--degrees", "2")
    assert code == 3
    assert doc["error"] == "ResourceLimitError"
    assert "width 87" in doc["message"]


def test_cohomology_bad_degrees(capsys, triv_d3):
    code, doc = _run(capsys, "cohomology", "--module", triv_d3,
                     "--degrees", "x..y")
    assert code == 2


def test_cohomology_reads_up_to_a_thousand_degrees(capsys, triv_d3):
    for degrees in ("-500..499", ",".join(str(i) for i in range(1000))):
        code, doc = _run(capsys, "cohomology", "--module", triv_d3,
                         "--degrees", degrees)
        assert code == 0
        assert len(doc["degrees"]) == 1000
        assert doc["degrees"]["4"] == doc["degrees"]["0"]


@pytest.mark.parametrize("degrees", ["0..100000000", "0..1000", f"-5..{10**30}",
                                     ",".join(["0"] * 1001)],
                         ids=["1e8", "1001", "huge", "list1001"])
def test_too_many_degrees_end_in_a_json_error(tmp_path, degrees):
    # the count is checked before the list is built: 0..100000000 took
    # gigabytes and minutes when it was built
    module = tmp_path / "m.json"
    module.write_text(json.dumps(module_to_json(random_module(
        FiniteGroup.dihedral(3), "mixed", seed=1))))
    proc = _run_process(tmp_path, "cohomology", "--module", str(module),
                        "--degrees", degrees)
    assert "Traceback" not in proc.stderr, proc.stderr[-500:]
    assert proc.returncode == 3, proc.stderr[-500:]
    assert json.loads(proc.stdout)["error"] == "ResourceLimitError"


def test_cohomology_refuses_a_degree_before_the_groups_are_known_to_vanish(capsys,
                                                                          tmp_path):
    # over V4 every Tate group of a module of order 3 is 0, but degree 3 is
    # outside the window of a group with no period
    M = random_module(FiniteGroup.product([FiniteGroup.cyclic(2)] * 2), "finite",
                      seed=7, max_rank=5)
    assert M.order() == 3
    path = tmp_path / "v4.json"
    path.write_text(json.dumps(module_to_json(M)))
    code, doc = _run(capsys, "cohomology", "--module", str(path), "--degrees", "3")
    assert code == 2 and doc["error"] == "DegreeWindowError"


def test_cohomology_subgroup_element_out_of_range(capsys, triv_d3):
    code, doc = _run(capsys, "cohomology", "--module", triv_d3,
                     "--subgroup", "9")
    assert code == 2


# ---------------------------------------------------------------------------
# regulator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("method", ["pairing", "qindex", "both"])
def test_regulator_trivial_module_is_one_third(capsys, triv_d3, theta_d3,
                                               method):
    code, doc = _run(capsys, "regulator", "--module", triv_d3,
                     "--relation", theta_d3, "--method", method)
    assert code == 0
    assert doc["value"] == "1/3"
    assert doc["factorization"] == {"3": -1}
    assert doc["method"] == method


@pytest.mark.parametrize("method", ["pairing", "qindex", "both"])
def test_regulator_exits_one_on_a_constant_off_the_group_order(
        capsys, monkeypatch, triv_d3, theta_d3, method):
    # 11 does not divide |D3| = 6, so no regulator constant over D3 has it
    monkeypatch.setattr(reglab.cli, "rc_pairing", lambda *args: Fraction(11, 3))
    monkeypatch.setattr(reglab.cli, "qindex_route", lambda *args: Fraction(11, 3))
    monkeypatch.setattr(reglab.regulator, "rc_pairing", lambda *args: Fraction(11, 3))
    monkeypatch.setattr(reglab.regulator, "qindex_route", lambda *args: Fraction(11, 3))
    code, doc = _run(capsys, "regulator", "--module", triv_d3,
                     "--relation", theta_d3, "--method", method)
    assert code == 1
    assert doc["error"] == "ConsistencyError" and "11" in doc["message"]
    # the message carries the digest validate prints, so the module is found again
    _, valid = _run(capsys, "validate", "--module", triv_d3)
    assert doc["message"].endswith(f"(module digest {valid['digest']})")


def test_a_route_disagreement_names_the_module_digest(capsys, monkeypatch, finite_d3,
                                                     theta_d3):
    # the message carries the digest validate prints, so the module is found again
    path, _ = finite_d3
    _, valid = _run(capsys, "validate", "--module", path)
    monkeypatch.setattr(reglab.regulator, "rc_pairing", lambda *args: Fraction(1, 3))
    monkeypatch.setattr(reglab.regulator, "qindex_route", lambda *args: Fraction(3))
    for argv in (("regulator", "--module", path, "--relation", theta_d3),
                 ("check", "--identity", "DIHEDRAL_MAIN", "--module", path)):
        code, doc = _run(capsys, *argv)
        assert code == 1, argv
        assert doc["error"] == "ConsistencyError" and "routes disagree" in doc["message"]
        assert f"module digest {valid['digest']}" in doc["message"], argv


def test_regulator_seed_independence(capsys, triv_d3, theta_d3):
    values = set()
    for seed in (0, 1, 17):
        _, doc = _run(capsys, "regulator", "--module", triv_d3,
                      "--relation", theta_d3, "--seed", str(seed))
        values.add(doc["value"])
    assert values == {"1/3"}


@pytest.mark.parametrize("elements", [[0, 99], [0, 6], [-1, 0]])
def test_relation_elements_outside_the_group_end_in_a_json_error(
        capsys, tmp_path, triv_d3, elements):
    rel = tmp_path / "rel.json"
    rel.write_text(json.dumps({"group": {"kind": "dihedral", "q": 3},
                               "terms": [{"subgroup": elements, "coeff": 1}]}))
    for argv in (("regulator", "--module", triv_d3, "--relation", str(rel)),
                 ("check", "--identity", "DUAL1", "--module", triv_d3,
                  "--relation", str(rel))):
        assert main(list(argv)) == 2, argv
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        doc = json.loads(captured.out)
        assert doc["error"] == "ValidationError"
        assert "outside the group" in doc["message"]


def _scaled_relation(tmp_path, k) -> str:
    """The dihedral relation over D3 times k, written as JSON."""
    doc = relation_to_json(dihedral_relation(3))
    for term in doc["terms"]:
        term["coeff"] *= k
    path = tmp_path / f"rel{k}.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("k", [10**6, 10**20])
def test_relations_with_huge_coefficients_end_in_a_json_error(tmp_path, k):
    # the sides of k times the relation have rank 8k: both routes refuse it
    # under the width cap before expanding its terms or taking k-th powers
    module = tmp_path / "m.json"
    module.write_text(json.dumps(module_to_json(random_module(
        FiniteGroup.dihedral(3), "mixed", seed=3, max_rank=8))))
    rel = _scaled_relation(tmp_path, k)
    for method in ("pairing", "qindex", "both"):
        proc = _run_process(tmp_path, "regulator", "--module", str(module),
                            "--relation", rel, "--method", method)
        assert "Traceback" not in proc.stderr, (method, proc.stderr)
        assert proc.returncode == 3, (method, proc.stderr)
        doc = json.loads(proc.stdout)
        assert doc["error"] == "ResourceLimitError"
        assert "REGLAB_LIMIT_COLS" in doc["message"]


@pytest.mark.parametrize("method", ["pairing", "qindex", "both"])
def test_a_scaled_relation_under_the_cap_still_runs(capsys, tmp_path, triv_d3,
                                                    method):
    # regulator constants are multiplicative in the relation
    code, doc = _run(capsys, "regulator", "--module", triv_d3, "--relation",
                     _scaled_relation(tmp_path, 5), "--method", method)
    assert code == 0
    assert doc["value"] == "1/243"


@pytest.mark.parametrize("k", [5, 10, 20])
def test_scaled_relations_take_the_q_index_route_on_the_relation_itself(tmp_path, k):
    # phi is drawn for the D3 relation, not for k times it, whose sides are
    # k times wider: each call ends well inside the timeout
    module = tmp_path / "m.json"
    module.write_text(json.dumps(module_to_json(random_module(
        FiniteGroup.dihedral(3), "mixed", seed=8, max_rank=8))))
    rel = _scaled_relation(tmp_path, k)
    values = set()
    for method in ("pairing", "both", "qindex"):
        proc = _run_process(tmp_path, "regulator", "--module", str(module),
                            "--relation", rel, "--method", method, timeout=10)
        assert proc.returncode == 0, (method, proc.stderr)
        values.add(json.loads(proc.stdout)["value"])
    assert len(values) == 1


def test_main_reuses_one_parser_across_calls(capsys, triv_d3, theta_d3):
    # success, argument error, the same success: the parser keeps no state
    argv = ["regulator", "--module", triv_d3, "--relation", theta_d3, "--seed", "5"]
    assert main(list(argv)) == 0
    first = capsys.readouterr().out
    assert main(["regulator", "--module", triv_d3, "--method", "nope"]) == 2
    capsys.readouterr()
    assert main(list(argv)) == 0
    assert capsys.readouterr().out == first
    assert reglab.cli._build_parser() is reglab.cli._build_parser()


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------


def test_relations_klein_four(capsys):
    desc = json.dumps({"kind": "product", "factors": [
        {"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 2}]})
    code, doc = _run(capsys, "relations", "--group", desc)
    assert code == 0
    assert doc["rank"] == 1
    assert doc["basis"] == [[1, -1, -1, -1, 2]]
    assert len(doc["subgroup_classes"]) == 5


def test_relations_cyclic_group_has_none(capsys):
    code, doc = _run(capsys, "relations", "--group",
                     json.dumps({"kind": "cyclic", "n": 5}))
    assert code == 0
    assert doc["rank"] == 0
    assert doc["basis"] == []


def test_relations_group_from_file(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"kind": "dihedral", "q": 3}))
    code, doc = _run(capsys, "relations", "--group", str(path))
    assert code == 0
    assert doc["rank"] == 1


def test_relations_bad_inline_json(capsys):
    code, doc = _run(capsys, "relations", "--group", "{bad")
    assert code == 2


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_dihedral_main_passes(capsys, finite_d3):
    path, digest = finite_d3
    code, doc = _run(capsys, "check", "--identity", "DIHEDRAL_MAIN",
                     "--module", path)
    assert code == 0
    assert doc["status"] == "pass"
    assert doc["identity"] == "DIHEDRAL_MAIN"
    assert doc["module_digest"] == digest


def test_check_rcz_infers_q_from_module_group(capsys, triv_d3):
    code, doc = _run(capsys, "check", "--identity", "RCZ",
                     "--module", triv_d3)
    assert code == 0
    assert doc["lhs"] == "1/3" and doc["rhs"] == "1/3"


def test_check_bounds_with_explicit_prime(capsys, finite_d3):
    path, _ = finite_d3
    code, doc = _run(capsys, "check", "--identity", "BOUNDS",
                     "--module", path, "--prime", "3")
    assert code == 0
    rows = doc["details"]["bounds"]
    assert len(rows) == 1 and rows[0]["ell"] == 3 and rows[0]["ok"]


# 318665857834031151167461 = 399165290221 * 798330580441 fools Miller-Rabin
# on the witnesses 2..37; 4294967311 is the first prime above 2^32
@pytest.mark.parametrize("prime", ["1", "-3", "4", "9", "318665857834031151167461",
                                   "4294967311"])
def test_check_bounds_rejects_a_prime_below_two(capsys, finite_d3, prime):
    path, _ = finite_d3
    code, doc = _run(capsys, "check", "--identity", "BOUNDS",
                     "--module", path, "--prime", prime)
    assert code == 2
    assert doc["error"] == "InputError"


def test_check_bounds_takes_the_largest_prime_below_two_to_the_32(capsys, finite_d3):
    path, _ = finite_d3
    code, doc = _run(capsys, "check", "--identity", "BOUNDS",
                     "--module", path, "--prime", "4294967291")
    assert code == 0
    assert doc["details"]["bounds"] == [
        {"ell": 4294967291, "v": 0, "L": 0, "U": 0, "ok": True}]


def test_check_rejects_a_prime_for_identities_but_bounds(capsys, triv_d3):
    code, doc = _run(capsys, "check", "--identity", "RCZ",
                     "--module", triv_d3, "--prime", "2")
    assert code == 2
    assert doc["error"] == "InputError" and "prime" in doc["message"]


def test_check_rejects_a_relation_the_identity_does_not_take(capsys, triv_d3,
                                                             theta_d3):
    code, doc = _run(capsys, "check", "--identity", "DCF",
                     "--module", triv_d3, "--relation", theta_d3)
    assert code == 2
    assert doc["error"] == "InputError" and "relation" in doc["message"]


def test_check_dual1_needs_relation(capsys, triv_d3):
    code, doc = _run(capsys, "check", "--identity", "DUAL1",
                     "--module", triv_d3)
    assert code == 2
    assert "relation" in doc["message"]


def test_check_dual1_with_relation(capsys, triv_d3, theta_d3):
    code, doc = _run(capsys, "check", "--identity", "DUAL1",
                     "--module", triv_d3, "--relation", theta_d3)
    assert code == 0
    assert doc["status"] == "pass"


def test_check_unknown_identity(capsys, triv_d3):
    code, doc = _run(capsys, "check", "--identity", "NOPE",
                     "--module", triv_d3)
    assert code == 2
    assert "unknown identity" in doc["message"]


def test_check_non_dihedral_group_rejected_for_dihedral_identity(
        capsys, tmp_path):
    M = trivial_module(FiniteGroup.cyclic(4))
    path = tmp_path / "c4.json"
    path.write_text(json.dumps(module_to_json(M)))
    code, doc = _run(capsys, "check", "--identity", "DIHEDRAL_MAIN",
                     "--module", str(path))
    assert code == 2
    assert "dihedral" in doc["message"]


def test_check_failing_report_exits_one(capsys, triv_d3, monkeypatch):
    import reglab.cli as climod

    def fake(identity, **kw):
        return {"identity": identity, "status": "fail", "lhs": "2",
                "rhs": "1", "factorization": {}, "seed": 0, "details": {}}

    monkeypatch.setattr(climod, "verify_identity", fake)
    code, doc = _run(capsys, "check", "--identity", "RCZ",
                     "--module", triv_d3)
    assert code == 1
    assert doc["status"] == "fail"


# ---------------------------------------------------------------------------
# random-module
# ---------------------------------------------------------------------------


def test_random_module_writes_validatable_file(capsys, tmp_path):
    out = str(tmp_path / "m.json")
    code, doc = _run(capsys, "random-module", "--group",
                     json.dumps({"kind": "dihedral", "q": 3}),
                     "--profile", "mixed", "--seed", "11", "--out", out)
    assert code == 0
    code2, doc2 = _run(capsys, "validate", "--module", out)
    assert code2 == 0
    assert doc2["digest"] == doc["digest"]


def test_random_module_is_seed_deterministic(capsys, tmp_path):
    digests = []
    for name in ("a.json", "b.json"):
        out = str(tmp_path / name)
        _, doc = _run(capsys, "random-module", "--group",
                      json.dumps({"kind": "cyclic", "n": 6}),
                      "--profile", "finite", "--seed", "4", "--out", out)
        digests.append(doc["digest"])
    assert digests[0] == digests[1]


def test_random_module_unwritable_out_is_input_error(capsys, tmp_path):
    code, doc = _run(capsys, "random-module", "--group",
                     json.dumps({"kind": "cyclic", "n": 2}),
                     "--profile", "finite", "--seed", "0",
                     "--out", str(tmp_path / "nodir" / "m.json"))
    assert code == 2


@pytest.mark.parametrize("max_rank", ["0", "-3"])
def test_random_module_rejects_a_max_rank_below_one(capsys, tmp_path, max_rank):
    out = tmp_path / "m.json"
    code, doc = _run(capsys, "random-module", "--group",
                     json.dumps({"kind": "cyclic", "n": 2}),
                     "--profile", "finite", "--seed", "0",
                     "--out", str(out), "--max-rank", max_rank)
    assert code == 2
    assert doc["error"] == "InputError" and "max_rank" in doc["message"]
    assert not out.exists()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_small_dihedral_suite_passes(capsys):
    code, doc = _run(capsys, "verify", "--suite", "dihedral",
                     "--q", "3", "--trials", "2", "--seed", "1")
    assert code == 0
    assert doc["summary"]["fail"] == 0 and doc["summary"]["error"] == 0
    assert doc["summary"]["checks"] > 0


def test_verify_is_byte_deterministic(capsys):
    argv = ["verify", "--suite", "dihedral", "--q", "3",
            "--trials", "2", "--seed", "1"]
    main(list(argv))
    first = capsys.readouterr().out
    main(list(argv))
    second = capsys.readouterr().out
    assert first == second


def test_verify_seed_changes_output(capsys):
    main(["verify", "--suite", "dihedral", "--q", "3", "--trials", "2",
          "--seed", "1"])
    first = capsys.readouterr().out
    main(["verify", "--suite", "dihedral", "--q", "3", "--trials", "2",
          "--seed", "2"])
    second = capsys.readouterr().out
    assert first != second


def test_verify_unknown_suite_is_usage_error(capsys):
    code, _ = _run(capsys, "verify", "--suite", "nope")
    assert code == 2


@pytest.mark.parametrize("trials", ["-1", "-5"])
def test_verify_rejects_negative_trials(capsys, trials):
    code, doc = _run(capsys, "verify", "--suite", "dihedral", "--q", "3",
                     "--trials", trials)
    assert code == 2
    assert doc["error"] == "InputError" and "trials" in doc["message"]


def test_verify_failure_exits_one(capsys, monkeypatch):
    import reglab.cli as climod

    def fake(name, q_list=None, trials=None, seed=0):
        return {"suite": name, "params": {}, "reports": [],
                "summary": {"pass": 0, "fail": 1, "error": 0, "checks": 1}}

    monkeypatch.setattr(climod, "run_suite", fake)
    code, _ = _run(capsys, "verify", "--suite", "dihedral")
    assert code == 1


# ---------------------------------------------------------------------------
# malformed and oversized group descriptors
# ---------------------------------------------------------------------------

# (descriptor, exit code): malformed fields are input errors, and a group
# over the order bound is a resource limit, refused before any table exists
BAD_GROUPS = [
    ({"kind": "cyclic", "n": "abc"}, 2),
    ({"kind": "cyclic", "n": [3]}, 2),
    ({"kind": "cyclic", "n": True}, 2),
    ({"kind": "cyclic", "n": 2.5}, 2),
    ({"kind": "dihedral", "q": "5"}, 2),
    ({"kind": "table", "mul": "ab"}, 2),
    ({"kind": "table", "order": "x", "mul": [[0, 1], [1, 0]]}, 2),
    ({"kind": "table", "mul": [[0, 1], [1, "0"]]}, 2),
    ({"kind": "cyclic", "n": 3000}, 3),
    ({"kind": "dihedral", "q": 3000}, 3),
    ({"kind": "cyclic", "n": 10**9}, 3),
]


def _limit_memory():
    # a table built before the order check then fails at once, instead of
    # taking the host's memory for a large n
    cap = 256 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def _run_process(tmp_path, *argv, timeout=60):
    src = str(Path(reglab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-m", "reglab", *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=timeout,
                          preexec_fn=_limit_memory)


@pytest.mark.parametrize("desc,code", BAD_GROUPS, ids=lambda v: json.dumps(v)
                         if isinstance(v, dict) else str(v))
def test_bad_group_descriptors_end_in_a_json_error(tmp_path, desc, code):
    module = tmp_path / "m.json"
    module.write_text(json.dumps({"group": desc, "rank": 1, "relations": [],
                                  "action": {"0": [[1]]}}))
    for argv in (("validate", "--module", str(module)),
                 ("relations", "--group", json.dumps(desc))):
        proc = _run_process(tmp_path, *argv)
        assert "Traceback" not in proc.stderr, (argv, proc.stderr)
        assert proc.returncode == code, (argv, proc.stderr)
        doc = json.loads(proc.stdout)
        assert doc["error"] == ("InputError" if code == 2 else "ResourceLimitError")


def test_deeply_nested_group_json_ends_in_a_json_error(tmp_path):
    # 40 levels trip the nesting bound, 2000 the JSON parser's recursion
    for depth in (40, 2000):
        desc = '{"kind": "cyclic", "n": 2}'
        for _ in range(depth):
            desc = '{"kind": "product", "factors": [' + desc + ']}'
        path = tmp_path / f"deep{depth}.json"
        path.write_text(desc)
        for arg in (desc, str(path)):
            proc = _run_process(tmp_path, "relations", "--group", arg)
            assert "Traceback" not in proc.stderr, (depth, proc.stderr[-500:])
            assert proc.returncode == 2, (depth, proc.stderr[-500:])
            assert json.loads(proc.stdout)["error"] == "InputError"


def _d3_body(**changes):
    """A rank-2 module body over D3 with every element acting trivially,
    with the given action entries replaced (None drops the element) and
    any other field replaced."""
    body = {"group": {"kind": "dihedral", "q": 3}, "rank": 2, "relations": [],
            "action": {str(g): [[1, 0], [0, 1]] for g in range(6)}}
    for key, value in changes.items():
        if key.startswith("g"):
            if value is None:
                del body["action"][key[1:]]
            else:
                body["action"][key[1:]] = value
        else:
            body[key] = value
    return body


SWAP = [[0, 1], [1, 0]]
BAD_MODULES = [
    ("ragged action", _d3_body(g1=[[1, 0], [0]]), "InputError"),
    ("non-square action", _d3_body(g1=[[1, 0, 0], [0, 1, 0]]), "InputError"),
    ("missing element", _d3_body(g5=None), "InputError"),
    ("wrong-length relation row", _d3_body(relations=[[2]]), "InputError"),
    ("boolean action entry", _d3_body(g1=[[True, 0], [0, 1]]), "InputError"),
    ("float action entry", _d3_body(g1=[[1.0, 0], [0, 1]]), "InputError"),
    ("boolean relation entry", _d3_body(relations=[[True, 0]]), "InputError"),
    ("float relation entry", _d3_body(relations=[[2.5, 0]]), "InputError"),
    ("group law failure", _d3_body(g1=[[2, 0], [0, 1]]), "ValidationError"),
    ("unstable relation lattice",
     _d3_body(relations=[[2, 0]], g3=SWAP, g4=SWAP, g5=SWAP), "ValidationError"),
]


@pytest.mark.parametrize("body,error", [case[1:] for case in BAD_MODULES],
                         ids=[case[0] for case in BAD_MODULES])
def test_bad_module_bodies_end_in_a_json_error(tmp_path, body, error):
    module = tmp_path / "m.json"
    module.write_text(json.dumps(body))
    relation = tmp_path / "rel.json"
    relation.write_text(json.dumps(relation_to_json(dihedral_relation(3))))
    for argv in (("cohomology", "--module", str(module)),
                 ("regulator", "--module", str(module), "--relation", str(relation))):
        proc = _run_process(tmp_path, *argv)
        assert "Traceback" not in proc.stderr, (argv, proc.stderr)
        assert proc.returncode == 2, (argv, proc.stderr)
        assert json.loads(proc.stdout)["error"] == error, (argv, proc.stdout)


def test_the_fuzzed_base_module_is_valid(tmp_path, capsys, theta_d3):
    # the bad bodies above differ from a module the CLI accepts
    module = tmp_path / "m.json"
    module.write_text(json.dumps(_d3_body(g3=SWAP, g4=SWAP, g5=SWAP)))
    for argv in (("cohomology", "--module", str(module)),
                 ("regulator", "--module", str(module), "--relation", theta_d3)):
        code, doc = _run(capsys, *argv)
        assert code == 0 and "error" not in doc


# ---------------------------------------------------------------------------
# global behaviour
# ---------------------------------------------------------------------------


def test_resource_limit_maps_to_exit_three(capsys, triv_d3, monkeypatch):
    monkeypatch.setenv("REGLAB_LIMIT_COLS", "1")
    code, doc = _run(capsys, "cohomology", "--module", triv_d3,
                     "--degrees", "0")
    assert code == 3
    assert doc["error"] == "ResourceLimitError"


def test_usage_error_exits_two(capsys):
    assert main(["regulator"]) == 2  # missing required flags
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_output_is_sorted_pretty_json(capsys, triv_d3):
    main(["validate", "--module", triv_d3])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
