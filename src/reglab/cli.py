"""Command line front end.

Every subcommand prints a single JSON document on standard output;
human-oriented diagnostics go to standard error. Exit codes: 0 all checks
pass, 1 a mathematical check failed (including an internal cross-method
disagreement, which also dumps its diagnostic), 2 input or validation error,
3 resource limit exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from functools import cache

from .arith import fraction_str
from .brauer import (
    brauer_relation_lattice,
    is_brauer_relation,
)
from .cohomology import tate
from .errors import (
    ConsistencyError,
    DegreeWindowError,
    InputError,
    ResourceLimitError,
    ValidationError,
)
from .gmodules import PROFILES, random_module
from .groups import Subgroup, subgroup_class_representatives
from .jsonio import (
    group_from_json,
    group_to_json,
    load_json_file,
    module_digest,
    module_from_json,
    module_to_json,
    parse_json,
    relation_from_json,
)
from .regulator import (
    RegulatorConstant,
    find_identity,
    qindex_route,
    rc_pairing,
    regulator_constant,
    verify_identity,
)
from .suites import SUITE_NAMES, run_suite


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _load_group_arg(text: str):
    """A --group argument is a file path or an inline JSON descriptor."""
    stripped = text.strip()
    if stripped.startswith("{"):
        return group_from_json(parse_json(stripped, "inline group JSON"))
    return group_from_json(text)


def _load_module_arg(path: str):
    # a group path inside the file is read relative to the file
    return module_from_json(load_json_file(path), os.path.dirname(path))


def _load_relation_arg(path: str):
    return relation_from_json(load_json_file(path), os.path.dirname(path))


# the most degrees one `reglab cohomology` call computes
MAX_DEGREES = 1000


def _parse_degrees(text: str) -> list[int]:
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = (int(end) for end in text.split("..", 1))
            if hi < lo:
                raise ValueError
            degrees, count = range(lo, hi + 1), hi - lo + 1
        else:
            degrees = text.split(",")
            count = len(degrees)
        if count > MAX_DEGREES:
            raise ResourceLimitError(
                f"{count} degrees requested; at most {MAX_DEGREES} per call"
            )
        return [int(d) for d in degrees]
    except ValueError:
        raise InputError(
            f"cannot parse degrees {text!r}; use 'a..b' or a comma list"
        ) from None


def _parse_q_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise InputError(f"cannot parse q list {text!r}") from None


def _dihedral_q(G) -> int:
    desc = G.descriptor
    if desc.get("kind") != "dihedral":
        raise InputError(
            "this identity needs a dihedral group; the module's group is "
            f"{desc.get('kind', 'unknown')!r}"
        )
    return desc["q"]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_validate(args) -> int:
    M = _load_module_arg(args.module)
    order = M.order()
    _emit({
        "valid": True,
        "digest": module_digest(M),
        "rank": M.ambient_rank,
        "relations": M.relations.rank,
        "order": order,
        "group": group_to_json(M.group),
    })
    return 0


def _cmd_cohomology(args) -> int:
    M = _load_module_arg(args.module)
    G = M.group
    if args.subgroup:
        try:
            gens = [int(x) for x in args.subgroup.split(",")]
        except ValueError:
            raise InputError(
                f"cannot parse subgroup {args.subgroup!r}; "
                "use comma-separated element indices"
            ) from None
        for g in gens:
            if not 0 <= g < G.order:
                raise InputError(f"element {g} is outside 0..{G.order - 1}")
        H = Subgroup(G, G.closure(gens))
    else:
        H = G.full_subgroup()
    out = {}
    for i in _parse_degrees(args.degrees):
        T = tate(M, H, i)
        free, torsion = T.invariants()
        out[str(i)] = {"order": T.order(),
                       "invariants": [free, list(torsion)]}
    _emit({
        "digest": module_digest(M),
        "subgroup": list(H.elements),
        "degrees": out,
    })
    return 0


def _cmd_regulator(args) -> int:
    M = _load_module_arg(args.module)
    rel = _load_relation_arg(args.relation)
    if args.method == "pairing":
        rc = RegulatorConstant.of(M, rc_pairing(M, rel))
    elif args.method == "qindex":
        rc = RegulatorConstant.of(M, qindex_route(M, rel, args.seed))
    else:
        rc = regulator_constant(M, rel, seed=args.seed)
    _emit({
        "value": fraction_str(rc.value),
        "factorization": {str(p): e for p, e in rc.factorization.items()},
        "method": args.method,
        "seed": args.seed,
        "digest": module_digest(M),
    })
    return 0


def _cmd_relations(args) -> int:
    G = _load_group_arg(args.group)
    lat = brauer_relation_lattice(G)
    subs = subgroup_class_representatives(G)
    for row in lat.basis_rows:
        ok, witness = is_brauer_relation(G, list(zip(subs, row)))
        if not ok:
            raise ConsistencyError(
                f"relation lattice produced a non-relation {list(row)}; "
                f"character sum fails at element {witness}"
            )
    _emit({
        "group": group_to_json(G),
        "subgroup_classes": [list(H.elements) for H in subs],
        "rank": lat.rank,
        "basis": [list(row) for row in lat.basis_rows],
    })
    return 0


def _cmd_check(args) -> int:
    M = _load_module_arg(args.module)
    fields = find_identity(args.identity).fields()
    inputs = {}
    if "q" in fields:
        inputs["q"] = _dihedral_q(M.group)
    if "module" in fields:
        inputs["module"] = M
    if args.relation:
        inputs["relation"] = _load_relation_arg(args.relation)
    elif "relation" in fields:
        raise InputError(f"{args.identity} needs --relation")
    report = verify_identity(args.identity, **inputs, prime=args.prime, seed=args.seed)
    report["module_digest"] = module_digest(M)
    _emit(report)
    return 0 if report["status"] == "pass" else 1


def _cmd_random_module(args) -> int:
    G = _load_group_arg(args.group)
    M = random_module(G, args.profile, seed=args.seed, max_rank=args.max_rank)
    doc = module_to_json(M)
    try:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise InputError(f"cannot write {args.out}: {exc}") from exc
    _emit({
        "out": args.out,
        "digest": module_digest(M),
        "rank": M.ambient_rank,
        "profile": args.profile,
        "seed": args.seed,
    })
    return 0


def _cmd_verify(args) -> int:
    result = run_suite(args.suite, q_list=_parse_q_list(args.q) if args.q else None,
                       trials=args.trials, seed=args.seed)
    _emit(result)
    s = result["summary"]
    sys.stderr.write(
        f"suite {args.suite}: {s['checks']} checks, {s['pass']} pass, "
        f"{s['fail']} fail, {s['error']} error\n"
    )
    return 0 if s["fail"] == 0 and s["error"] == 0 else 1


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused by every call."""
    parser = argparse.ArgumentParser(
        prog="reglab",
        description="Exact Tate cohomology, Brauer relations and regulator "
                    "constants of modules over finite group rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a module JSON file")
    p.add_argument("--module", required=True, help="module JSON file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("cohomology", help="Tate groups of a module")
    p.add_argument("--module", required=True)
    p.add_argument("--subgroup", default="",
                   help="comma-separated element indices (default: full group)")
    p.add_argument("--degrees", default="-1..2",
                   help="degree range 'a..b' or comma list (default -1..2)")
    p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser("regulator", help="regulator constant of a module")
    p.add_argument("--module", required=True)
    p.add_argument("--relation", required=True, help="relation JSON file")
    p.add_argument("--method", choices=("pairing", "qindex", "both"),
                   default="both")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_regulator)

    p = sub.add_parser("relations", help="Brauer relation lattice of a group")
    p.add_argument("--group", required=True,
                   help="group JSON file or inline descriptor")
    p.set_defaults(func=_cmd_relations)

    p = sub.add_parser("check", help="verify one exact identity")
    p.add_argument("--identity", required=True)
    p.add_argument("--module", required=True)
    p.add_argument("--relation", default="")
    p.add_argument("--prime", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("random-module", help="draw a seeded random module")
    p.add_argument("--group", required=True)
    p.add_argument("--profile", required=True, choices=PROFILES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output module JSON file")
    p.add_argument("--max-rank", type=int, default=12)
    p.set_defaults(func=_cmd_random_module)

    p = sub.add_parser("verify", help="run a deterministic verification suite")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.add_argument("--q", default="", help="comma-separated odd q values")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)
    return parser


def _glue_flag_values(argv):
    """Join '--degrees -1..2' into '--degrees=-1..2' so argparse does not
    mistake a leading-minus value for an option."""
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--degrees", "--subgroup", "--q") and i + 1 < len(argv):
            out.append(tok + "=" + argv[i + 1])
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_glue_flag_values(list(argv)))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except ConsistencyError as exc:
        sys.stderr.write("internal cross-check failed:\n")
        traceback.print_exc(file=sys.stderr)
        _emit({"error": "ConsistencyError", "message": str(exc)})
        return 1
    except (InputError, ValidationError, DegreeWindowError) as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return 2
    except ResourceLimitError as exc:
        sys.stderr.write(f"ResourceLimitError: {exc}\n")
        _emit({"error": "ResourceLimitError", "message": str(exc)})
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
