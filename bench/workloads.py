"""The three workloads: their set-up, one timed operation, and its checks.

A workload object is built by set-up from a freshly imported reglab. Its
``ops`` are fixed by ``inputs.CATALOGUE_SEED``; ``run`` performs one operation
(timed by the caller) and returns the raw output; ``text`` turns that output
into the bytes whose sha256 is recorded; ``check`` checks it against the
oracles and properties in oracles.py; ``oracle_due`` says how many oracle
comparisons the checks of a list of operations must make.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import sys
from fractions import Fraction

import inputs
import oracles


def fresh_import(path: str, package: str):
    """Import package (and its cli) from the directory path, dropping any
    earlier import of it, so that each set-up pays for the import."""
    if not os.path.isfile(os.path.join(path, package, "__init__.py")):
        raise ImportError(f"no {package} package under {path}")
    if path not in sys.path:
        sys.path.insert(0, path)
    for name in [m for m in sys.modules
                 if m == package or m.startswith(package + ".")]:
        del sys.modules[name]
    module = importlib.import_module(package)
    importlib.import_module(package + ".cli")
    return module


class SetupError(RuntimeError):
    """The benchmark's own inputs disagree with reglab; nothing can run."""


class OpFailed(RuntimeError):
    """An operation ended without a usable output."""


class Checks:
    """Counts the checks made and keeps the first failures."""

    def __init__(self):
        self.made = 0
        self.failed = 0
        self.failures: list[str] = []
        self.coverage: dict[str, int] = {}

    def expect(self, ok: bool, what: str) -> None:
        self.made += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def covered(self, oracle: str) -> None:
        self.coverage[oracle] = self.coverage.get(oracle, 0) + 1


class Op:
    __slots__ = ("key", "items", "arg")

    def __init__(self, key: str, items: int, arg):
        self.key = key
        self.items = items
        self.arg = arg


def _groups(reglab, names) -> dict[str, inputs.Group]:
    """The benchmark's own group tables, checked against reglab's."""
    out = {}
    for name in names:
        G = inputs.GROUPS[name]()
        if [list(r) for r in reglab.build_group(G.descriptor).mul] != G.mul:
            raise SetupError(f"reglab numbers the elements of {name} differently")
        out[name] = G
    return out


def _write_json(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)


def _relation_json(G: inputs.Group, terms) -> dict:
    return {"group": G.descriptor,
            "terms": [{"subgroup": list(H), "coeff": c} for H, c in terms]}


def _trial_profile(t: int) -> str:
    """The profile of trial t of a suite: the three profiles in turn."""
    return inputs.PROFILES[t % 3]


class DihedralVerify:
    """run_suite("dihedral") calls; one item is one module trial."""

    name = "dihedral-verify"

    def __init__(self, reglab, workdir: str, run_seed: int):
        items = len(inputs.SUITE_Q) * inputs.SUITE_TRIALS
        self.ops = [Op(f"suite-{s}", items, s)
                    for s in inputs.suite_seeds()]
        self._oracle: dict[str, Fraction] = {}

    def run(self, reglab, op: Op):
        return reglab.run_suite("dihedral", q_list=inputs.SUITE_Q,
                                trials=inputs.SUITE_TRIALS, seed=op.arg)

    @staticmethod
    def text(output) -> str:
        # the bytes `reglab verify` prints for the same suite
        return json.dumps(output, indent=2, sort_keys=True) + "\n"

    def check(self, reglab, op: Op, output, checks: Checks) -> None:
        s = output["summary"]
        checks.expect(s["fail"] == 0 and s["error"] == 0,
                      f"{op.key}: summary {s}")
        trials = set()
        for rep in output["reports"]:
            d = rep["details"]
            checks.expect(rep["status"] == "pass",
                          f"{op.key}: {rep['check']} q={d.get('q')} "
                          f"trial={d.get('trial')} is {rep['status']}")
            if rep["check"] != "DIHEDRAL_MAIN":
                continue
            q = d["q"]
            trials.add((q, d["trial"]))
            checks.expect(d["profile"] == _trial_profile(d["trial"]),
                          f"{op.key}: q={q} trial={d['trial']} has profile "
                          f"{d['profile']}")
            value = Fraction(rep["lhs"])
            checks.expect(oracles.primes_divide(value, 2 * q),
                          f"{op.key}: C={value} has a prime outside 2q={2 * q}")
            if d["profile"] == "torsion_free":
                self._check_oracle(reglab, op, rep, q, value, checks)
        want = {(q, t) for q in inputs.SUITE_Q
                for t in range(inputs.SUITE_TRIALS)}
        checks.expect(trials == want, f"{op.key}: trials {sorted(trials)}")

    @staticmethod
    def oracle_due(ops) -> dict[str, int]:
        free = sum(_trial_profile(t) == "torsion_free"
                   for t in range(inputs.SUITE_TRIALS))
        return {"regulator_constant": len(ops) * len(inputs.SUITE_Q) * free}

    def _check_oracle(self, reglab, op, rep, q, value, checks) -> None:
        digest = rep["module_digest"]
        if digest not in self._oracle:
            G = reglab.build_group({"kind": "dihedral", "q": q})
            M = reglab.random_module(G, "torsion_free", seed=rep["seed"])
            doc = reglab.module_to_json(M)
            checks.expect(inputs.digest(doc) == digest,
                          f"{op.key}: module seed {rep['seed']} rebuilds "
                          "to another digest")
            self._oracle[digest] = oracles.regulator_constant(
                doc, inputs.dihedral_relation_terms(q))
        checks.covered("regulator_constant")
        checks.expect(self._oracle[digest] == value,
                      f"{op.key}: C={value}, oracle {self._oracle[digest]}")


class RegulatorCalls:
    """`reglab regulator --method both` run in-process; one item is one call."""

    name = "regulator-calls"

    def __init__(self, reglab, workdir: str, run_seed: int):
        entries = inputs.module_catalogue(inputs.REGULATOR_STRATA)
        groups = _groups(reglab, {e["group"] for e in entries})
        os.makedirs(workdir, exist_ok=True)
        relations = {}  # (group, index) -> (path, terms)
        self.ops = []
        for i, e in enumerate(entries):
            G = groups[e["group"]]
            if G.descriptor["kind"] == "dihedral":
                key = (e["group"], 0)
                if key not in relations:
                    relations[key] = inputs.dihedral_relation_terms(
                        G.descriptor["q"])
            else:
                lat = reglab.brauer_relation_lattice(
                    reglab.build_group(G.descriptor))
                key = (e["group"], i % lat.rank)
                if key not in relations:
                    reps = G.class_representatives()
                    relations[key] = [(H, c) for H, c in
                                      zip(reps, lat.basis_rows[key[1]]) if c]
            terms = relations[key]
            if not inputs.is_relation(G, terms):
                raise SetupError(f"{key} is not a Brauer relation")
            rel_path = os.path.join(workdir, f"rel-{key[0]}-{key[1]}.json")
            mod_path = os.path.join(workdir, f"m{i:03d}.json")
            _write_json(rel_path, _relation_json(G, terms))
            _write_json(mod_path, e["module"])
            phi_seed = inputs.mix(run_seed, i) % 2**31
            self.ops.append(Op(f"m{i:03d}-{e['group']}-{e['profile']}", 1,
                               (mod_path, rel_path, phi_seed, e, G, terms)))
        self._oracle: dict[str, Fraction] = {}

    def run(self, reglab, op: Op):
        mod_path, rel_path, phi_seed = op.arg[:3]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = reglab.cli.main(["regulator", "--module", mod_path,
                                    "--relation", rel_path, "--method", "both",
                                    "--seed", str(phi_seed)])
        if code != 0:
            raise OpFailed(f"exit code {code}: {buf.getvalue()[:300]}")
        return buf.getvalue()

    @staticmethod
    def text(output) -> str:
        return output

    @staticmethod
    def oracle_due(ops) -> dict[str, int]:
        return {"regulator_constant": sum(op.arg[3]["profile"] == "torsion_free"
                                          for op in ops)}

    def check(self, reglab, op: Op, output, checks: Checks) -> None:
        _, _, phi_seed, entry, G, terms = op.arg
        doc = json.loads(output)
        module = entry["module"]
        checks.expect(doc["method"] == "both" and doc["seed"] == phi_seed,
                      f"{op.key}: echoed {doc['method']} seed {doc['seed']}")
        checks.expect(doc["digest"] == inputs.digest(module),
                      f"{op.key}: digest {doc['digest']}")
        value = Fraction(doc["value"])
        product = Fraction(1)
        for p, e in doc["factorization"].items():
            product *= Fraction(int(p)) ** e
        checks.expect(value > 0 and product == value,
                      f"{op.key}: value {value} vs factorization "
                      f"{doc['factorization']}")
        checks.expect(oracles.primes_divide(value, G.order),
                      f"{op.key}: C={value} has a prime outside |G|={G.order}")
        if entry["profile"] == "torsion_free":
            key = op.key + str(terms)
            if key not in self._oracle:
                self._oracle[key] = oracles.regulator_constant(module, terms)
            checks.covered("regulator_constant")
            checks.expect(self._oracle[key] == value,
                          f"{op.key}: C={value}, oracle {self._oracle[key]}")


class TateTable:
    """tate(M, H, d) for every nontrivial subgroup class H and d in -1..2;
    one item is one module's table."""

    name = "tate-table"
    DEGREES = (-1, 0, 1, 2)

    def __init__(self, reglab, workdir: str, run_seed: int):
        entries = inputs.module_catalogue(inputs.TATE_STRATA)
        groups = _groups(reglab, {e["group"] for e in entries})
        os.makedirs(workdir, exist_ok=True)
        self.ops = []
        for i, e in enumerate(entries):
            _write_json(os.path.join(workdir, f"m{i:03d}.json"), e["module"])
            self.ops.append(Op(f"m{i:03d}-{e['group']}-{e['profile']}", 1,
                               (e, groups[e["group"]])))
        self._oracle: dict[tuple, tuple] = {}

    def run(self, reglab, op: Op):
        M = reglab.module_from_json(op.arg[0]["module"])
        table = []
        for H in reglab.subgroup_class_representatives(M.group):
            if H.order == 1:
                continue
            for d in self.DEGREES:
                free, torsion = reglab.tate(M, H, d).invariants()
                table.append([list(H.elements), d, free, list(torsion)])
        return table

    @staticmethod
    def text(output) -> str:
        return json.dumps(output) + "\n"

    @staticmethod
    def oracle_due(ops) -> dict[str, int]:
        """Every nontrivial subgroup class of every finite module of order
        up to oracles.ENUM_BOUND."""
        due = 0
        for op in ops:
            entry, G = op.arg
            doc = entry["module"]
            order = inputs.module_order(inputs.hnf(doc["relations"],
                                                   doc["rank"]), doc["rank"])
            if order is not None and order <= oracles.ENUM_BOUND:
                due += len(G.class_representatives()) - 1
        return {"tate_orders": due}

    def check(self, reglab, op: Op, output, checks: Checks) -> None:
        entry, G = op.arg
        doc = entry["module"]
        reps = G.class_representatives()[1:]
        checks.expect(
            [tuple(row[0]) for row in output]
            == [H for H in reps for _ in self.DEGREES]
            and [row[1] for row in output] == list(self.DEGREES) * len(reps),
            f"{op.key}: table rows do not follow the subgroup classes")
        finite = inputs.module_order(inputs.hnf(doc["relations"], doc["rank"]),
                                     doc["rank"]) is not None
        orders = {}
        for elems, d, free, torsion in output:
            H = tuple(elems)
            size = 1
            for t in torsion:
                size *= t
            orders[H, d] = size
            checks.expect(free == 0, f"{op.key}: H^{d}({H}) has free rank")
            checks.expect(all(len(H) % t == 0 for t in torsion),
                          f"{op.key}: H^{d}({H}) = {torsion} not killed by |H|")
        if not finite:
            return
        for H in reps:
            if G.is_cyclic_subgroup(H):
                checks.expect(orders[H, 0] == orders[H, -1],
                              f"{op.key}: Herbrand quotient of cyclic {H} "
                              f"is {orders[H, 0]}/{orders[H, -1]} on a finite "
                              "module")
            key = (op.key, H)
            if key not in self._oracle:
                self._oracle[key] = oracles.tate_orders(doc, H)
            if self._oracle[key] is None:
                continue
            checks.covered("tate_orders")
            checks.expect(
                (orders[H, 0], orders[H, -1]) == self._oracle[key],
                f"{op.key}: |H^0|, |H^-1| of {H} = {orders[H, 0]}, "
                f"{orders[H, -1]}; enumeration gives {self._oracle[key]}")


WORKLOADS = {w.name: w for w in (DihedralVerify, RegulatorCalls, TateTable)}
