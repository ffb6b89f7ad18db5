"""JSON formats for groups, modules and relations, plus stable digests.

Modules serialize as {"group": ..., "rank": n, "relations": [[...], ...],
"action": {"<element>": matrix, ...}}. On input the action may instead be
given as {"action_on_generators": {"<element>": matrix, ...}}; the remaining
matrices are filled in by multiplying along the multiplication table.
Relations serialize as {"group": ..., "terms": [{"subgroup": [elements],
"coeff": c}, ...]}. A group is either an inline descriptor object or a path
to a JSON file holding one.

The digest of a module is the sha256 of its canonical serialization (Hermite
relation basis, explicit per-element action, sorted keys), so equal
presentations hash equally across runs and machines.
"""

from __future__ import annotations

import hashlib
import json
import os
from itertools import chain

from .brauer import BrauerRelation
from .errors import InputError
from .exactla import IntMatrix, Lattice
from .gmodules import GModule, validate_module
from .groups import FiniteGroup, Subgroup, build_group


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------


def group_to_json(G: FiniteGroup) -> dict:
    desc = dict(G.descriptor)
    if desc.get("kind") == "table":
        desc["order"] = G.order
        desc["mul"] = [list(row) for row in G.mul]
    return desc


def group_from_json(obj, base_dir: str = ".") -> FiniteGroup:
    """Build a group from a descriptor object or a path to one."""
    if isinstance(obj, str):
        obj = load_json_file(obj if os.path.isabs(obj) else os.path.join(base_dir, obj))
    if not isinstance(obj, dict):
        raise InputError("group must be a descriptor object or a file path")
    return build_group(obj)


# ---------------------------------------------------------------------------
# modules
# ---------------------------------------------------------------------------


def _ints_only(rows) -> bool:
    """Whether every entry of the rows is an int and none a bool, checked
    once per distinct entry type."""
    return all(issubclass(t, int) and not issubclass(t, bool)
               for t in set(map(type, chain.from_iterable(rows))))


def _as_matrix(obj, rows: int, cols: int, what: str) -> IntMatrix:
    if (not isinstance(obj, list) or len(obj) != rows
            or any(not isinstance(r, list) or len(r) != cols for r in obj)):
        raise InputError(f"{what} must be a {rows}x{cols} integer matrix")
    if not _ints_only(obj):
        raise InputError(f"{what} must contain integers only")
    return IntMatrix(obj, cols=cols)


def _expand_action(G: FiniteGroup, n: int, partial: dict[int, IntMatrix]):
    """Fill in all element matrices from generator matrices by table walk."""
    known: dict[int, IntMatrix] = {0: IntMatrix.identity(n)}
    known.update(partial)
    frontier = sorted(known)
    while frontier:
        nxt = []
        for g in frontier:
            for s in sorted(partial):
                h = G.mul[g][s]
                if h not in known:
                    known[h] = known[g] @ known[s]
                    nxt.append(h)
        frontier = nxt
    if len(known) != G.order:
        missing = sorted(set(range(G.order)) - set(known))
        raise InputError(
            "action_on_generators does not generate the group; "
            f"missing elements {missing}"
        )
    return [known[g] for g in range(G.order)]


def module_to_json(M: GModule) -> dict:
    return {
        "group": group_to_json(M.group),
        "rank": M.ambient_rank,
        "relations": [list(r) for r in M.relations.basis_rows],
        "action": {str(g): [list(row) for row in M.action[g].entries]
                   for g in range(M.group.order)},
    }


def module_from_json(obj, base_dir: str = ".") -> GModule:
    if not isinstance(obj, dict):
        raise InputError("module JSON must be an object")
    for field in ("group", "rank"):
        if field not in obj:
            raise InputError(f"module JSON is missing the '{field}' field")
    G = group_from_json(obj["group"], base_dir)
    n = obj["rank"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise InputError("module rank must be a non-negative integer")
    rel_rows = obj.get("relations", [])
    if not isinstance(rel_rows, list):
        raise InputError("relations must be a list of length-rank integer rows")
    if (any(not isinstance(r, list) or len(r) != n for r in rel_rows)
            or not _ints_only(rel_rows)):
        raise InputError("relations must be a list of length-rank integer rows")
    relations = Lattice.from_rows(n, [list(r) for r in rel_rows])

    def parse_keys(table: dict, what: str) -> dict[int, IntMatrix]:
        out = {}
        for key, mat in table.items():
            try:
                g = int(key)
            except (TypeError, ValueError):
                raise InputError(f"{what} keys must be element indices, got {key!r}")
            # "01" or " 1 " would name element 1 beside "1", the later one winning
            if str(key) != str(g):
                raise InputError(f"{what} key {key!r} is not written as {str(g)!r}")
            if not 0 <= g < G.order:
                raise InputError(f"{what} key {g} is outside 0..{G.order - 1}")
            out[g] = _as_matrix(mat, n, n, f"{what}[{g}]")
        return out

    if "action" in obj:
        table = obj["action"]
        if not isinstance(table, dict):
            raise InputError("action must map element indices to matrices")
        parsed = parse_keys(table, "action")
        missing = sorted(set(range(G.order)) - set(parsed))
        if missing:
            raise InputError(f"action is missing elements {missing}")
        action = [parsed[g] for g in range(G.order)]
    elif "action_on_generators" in obj:
        table = obj["action_on_generators"]
        if not isinstance(table, dict):
            raise InputError("action_on_generators must map element indices "
                             "to matrices")
        action = _expand_action(G, n, parse_keys(table, "action_on_generators"))
    else:
        raise InputError("module JSON needs 'action' or 'action_on_generators'")
    M = GModule(G, n, relations, action)
    validate_module(M)
    return M


def module_digest(M: GModule) -> str:
    blob = json.dumps(module_to_json(M), sort_keys=True,
                      separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------


def relation_to_json(rel: BrauerRelation) -> dict:
    return {
        "group": group_to_json(rel.group),
        "terms": [{"subgroup": list(H.elements), "coeff": c}
                  for H, c in rel.terms],
    }


def relation_from_json(obj, base_dir: str = ".") -> BrauerRelation:
    if not isinstance(obj, dict):
        raise InputError("relation JSON must be an object")
    for field in ("group", "terms"):
        if field not in obj:
            raise InputError(f"relation JSON is missing the '{field}' field")
    G = group_from_json(obj["group"], base_dir)
    terms = []
    raw = obj["terms"]
    if not isinstance(raw, list) or not raw:
        raise InputError("relation terms must be a non-empty list")
    for item in raw:
        if (not isinstance(item, dict) or "subgroup" not in item
                or "coeff" not in item):
            raise InputError("each term needs 'subgroup' and 'coeff'")
        elems = item["subgroup"]
        coeff = item["coeff"]
        if not isinstance(elems, list) or not _ints_only([elems]):
            raise InputError("term subgroup must be a list of element indices")
        if not isinstance(coeff, int) or isinstance(coeff, bool):
            raise InputError("term coeff must be an integer")
        terms.append((Subgroup(G, tuple(sorted(set(elems)))), coeff))
    return BrauerRelation(G, terms)


def parse_json(text: str, what: str):
    """json.loads, with malformed or too deeply nested text an InputError."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"{what} is not valid JSON: {exc}") from None


def load_json_file(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return parse_json(text, path)
