"""Golden digests of every suite at seed 2026.

Each digest is the sha256 of json.dumps(run_suite(...), indent=2,
sort_keys=True). A refactor that keeps these digests keeps every byte of
suite output at these parameters. All seven suites run in about 2 s.
"""

import hashlib
import json

import pytest

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
