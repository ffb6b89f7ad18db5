"""Golden digests of every suite at seed 2026 and of `reglab check`.

Each suite digest is the sha256 of json.dumps(run_suite(...), indent=2,
sort_keys=True). A refactor that keeps these digests keeps every byte of
suite output at these parameters. All seven suites run in about 2 s.

Each check digest is the sha256 of the stdout of `reglab check` for one
identity, on a module drawn by random_module over D3 at a fixed seed with
the profile the identity needs, and the dihedral relation file where one is
needed. Together they take well under a second.

The cohomology digest is the sha256 of the stdout of `reglab cohomology
--degrees -3..6` on a mixed module over D9 (order 18), which spans the
4-periodic degrees on both sides of -1..2, onto which period 4 folds every
degree. The vanishing digest
is that of the same command on a finite module of order 25 over D3, whose
Tate groups over every subgroup are known to vanish before any cochain is
built.

The regulator digests are those of the stdout of `reglab regulator` under
each --method, on the mixed module over D3 at seed 3 (constant 3) with the
dihedral relation file.
"""

import hashlib
import json

import pytest

from reglab import (
    FiniteGroup,
    dihedral_relation,
    module_to_json,
    random_module,
    relation_to_json,
)
from reglab.cli import main
from reglab.suites import SUITE_NAMES, run_suite

GOLDEN = {
    "dihedral": (dict(q_list=(3,), trials=3),
                 "602a6f05a7bbc55b3f7ac50b976f64114221096a5135dec8c42c0c6d7056253d"),
    "bounds": (dict(q_list=(3,), trials=3),
               "a77a203306a2ed9de81177dab44a987a599da111b15d213cda4acc5d7fd35ac8"),
    "duality": (dict(trials=3),
                "31d0bb6c33c0c69a04784576148174b63a814e45186d684d5914de7abe349349"),
    "finite": (dict(trials=3),
               "ee5df20e80ae74f277d5e68ce2ed9413f47c47a5f7878a3b3cd38b3b5c88d59e"),
    "cohomology-oracles": (dict(trials=3),
                           "884fc6e7130de8bfe9190f15ab998e6f7594cd22d5cbbaa196b00512cab2dd55"),
    "brauer": (dict(trials=3),
               "b3f9fd01acaaf71185ca76e48addd502c6023e54527ef4308b0d06b7f6732448"),
    "qindex": (dict(trials=20),
               "2143f4fc0bcee18e7e612aa23bda26438e5bf26be3f4a632a3eea58eb3d5750c"),
}


def test_every_suite_has_a_digest():
    assert sorted(GOLDEN) == sorted(SUITE_NAMES)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_suite_digest(name):
    params, digest = GOLDEN[name]
    out = run_suite(name, seed=2026, **params)
    text = json.dumps(out, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# identity -> (profile, seed, needs --relation, extra argv, stdout sha256)
CHECK_GOLDEN = {
    "RCZ": ("mixed", 3, False, (),
            "c4f1b6975ae63acbb6c5d634a44fb98e7f7cbba17a579d18356bb5cad5aed25a"),
    "RCZS": ("mixed", 4, False, (),
             "197b673002ee02f91123eb1247d1c793567f6bebe2b9050bd7676723d9762a83"),
    "DUAL1": ("torsion_free", 5, True, (),
              "8a0a80272727f4a7446be3f7a3dca24cefbc88dc8091ab7bab892be87a69ee62"),
    "FINITE_DUAL": ("finite", 6, True, (),
                    "f92fcdf972f5b7c3566f2d18f0dc2cfca8096d395395806fd0fc4a04135cd1bd"),
    "FINITE_DIHEDRAL": ("finite", 7, False, (),
                        "133532d6f49151ebdea1dd113cca54394c3a9ce086db24e26ca2d2b5a02b02d7"),
    "DCF": ("mixed", 8, False, (),
            "4b90ff22a80d994458c1f34b5718555e07e4d3af93998957d83cf34e309f80bd"),
    "DIHEDRAL_MAIN": ("mixed", 9, False, (),
                      "14e830e6569d454591aadf43a35ac4c409b90f7cef2a1767968813d7942da107"),
    "BOUNDS": ("mixed", 10, False, (),
               "4106c61795565b3914a3f1ebb129ad0059f561cef3fb5487e6dc102c0d1007d8"),
    "BOUNDS --prime 2": ("mixed", 10, False, ("--prime", "2"),
                         "93af857378e1dee2a0ce1543e1efb17971689cfe3b164cef3fb36ea0b4098767"),
}


@pytest.mark.parametrize("case", list(CHECK_GOLDEN))
def test_check_digest(case, tmp_path, capsys):
    profile, seed, needs_relation, extra, digest = CHECK_GOLDEN[case]
    module = tmp_path / "module.json"
    module.write_text(json.dumps(module_to_json(
        random_module(FiniteGroup.dihedral(3), profile, seed=seed))))
    argv = ["check", "--identity", case.split()[0], "--module", str(module),
            "--seed", str(seed), *extra]
    if needs_relation:
        relation = tmp_path / "relation.json"
        relation.write_text(json.dumps(relation_to_json(dihedral_relation(3))))
        argv += ["--relation", str(relation)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


COHOMOLOGY_GOLDEN = "15911bac1779b9a483e40d4ee16d7dd9bfd5b9c59d9dccc0528f3daee6a8ee0e"


def test_cohomology_digest(tmp_path, capsys):
    module = tmp_path / "module.json"
    module.write_text(json.dumps(module_to_json(
        random_module(FiniteGroup.dihedral(9), "mixed", seed=15))))
    assert main(["cohomology", "--module", str(module), "--degrees", "-3..6"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == COHOMOLOGY_GOLDEN


VANISHING_COHOMOLOGY_GOLDEN = "d1385044fea05ada7876c58abec96006dc0f6c7c814c72e81c35e20c46ea7862"


def test_vanishing_cohomology_digest(tmp_path, capsys):
    M = random_module(FiniteGroup.dihedral(3), "finite", seed=7)
    assert M.order() == 25
    module = tmp_path / "module.json"
    module.write_text(json.dumps(module_to_json(M)))
    assert main(["cohomology", "--module", str(module), "--degrees", "-3..6"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VANISHING_COHOMOLOGY_GOLDEN


# --method -> stdout sha256 of `reglab regulator` on the mixed D3 module at seed 3
REGULATOR_GOLDEN = {
    "pairing": "ef1d7dd8d8dccc33be61377b37a9d18f84178ddc9f0333f2ae700ebb87c29455",
    "qindex": "672e87bd82141844af0bbeacbbf2b2ec2c1112e5a4d5d74d936acef1e9b45637",
    "both": "2a5631cd4963606621185e7bba6d7f6e06b46baae22d1e4e0331788fb4c8ff1a",
}


@pytest.mark.parametrize("method", list(REGULATOR_GOLDEN))
def test_regulator_digest(method, tmp_path, capsys):
    module = tmp_path / "module.json"
    module.write_text(json.dumps(module_to_json(
        random_module(FiniteGroup.dihedral(3), "mixed", seed=3))))
    relation = tmp_path / "relation.json"
    relation.write_text(json.dumps(relation_to_json(dihedral_relation(3))))
    assert main(["regulator", "--module", str(module), "--relation", str(relation),
                 "--method", method, "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == REGULATOR_GOLDEN[method]
