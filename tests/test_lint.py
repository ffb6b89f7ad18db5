"""Static checks on the source tree, with the standard library only."""

import ast
import importlib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _python_files():
    for folder in (ROOT / "src" / "reglab", ROOT / "tests"):
        for path in sorted(folder.glob("*.py")):
            if path.name != "__init__.py":  # re-exports are its purpose
                yield path


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never mentions again."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom a import b, c\nprint(c)\n") == [
        "b (line 2)", "os (line 1)"]
    assert unused_imports("from __future__ import annotations\n") == []
    assert unused_imports("from g import G\n'G, in a docstring'\n") == ["G (line 1)"]


def test_no_unused_imports():
    found = {path.relative_to(ROOT).as_posix(): unused_imports(path.read_text())
             for path in _python_files()}
    assert {k: v for k, v in found.items() if v} == {}


def trusted_constructions(source: str) -> list[int]:
    """Lines that mention IntMatrix._trusted or Lattice._trusted, the
    unchecked constructors."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "_trusted"]


def test_trusted_constructions_are_found():
    assert trusted_constructions("m = IntMatrix._trusted(((1,),), 1)\n") == [1]
    assert trusted_constructions("IntMatrix(rows)\n'IntMatrix._trusted'\n") == []


def test_only_exactla_skips_the_matrix_checks():
    # outside input must reach IntMatrix through the coercing constructor
    exactla = ROOT / "src" / "reglab" / "exactla.py"
    found = {path.relative_to(ROOT).as_posix(): trusted_constructions(path.read_text())
             for folder in (ROOT / "src" / "reglab", ROOT / "tests")
             for path in sorted(folder.glob("*.py")) if path != exactla}
    assert {k: v for k, v in found.items() if v} == {}
    assert trusted_constructions(exactla.read_text())
    # a Lattice wrapped from rows outside exactla is found as well
    gmodules = (ROOT / "src" / "reglab" / "gmodules.py").read_text()
    planted = gmodules + "\n\ndef _wrap(rows):\n    return Lattice._trusted(2, rows, (0, 1))\n"
    assert trusted_constructions(planted) == [len(planted.splitlines())]


def callers(source: str, name: str) -> list[str]:
    """Where a module calls name(...), bare or as an attribute: the name of
    the module-level function or class around each call, or its line at
    module level."""
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and (
                    getattr(node.func, "id", None) == name
                    or getattr(node.func, "attr", None) == name):
                found.append(getattr(top, "name", f"line {node.lineno}"))
    return sorted(set(found))


def test_echelon_constructions_are_found():
    source = ("def f():\n    return _Echelon(3)\n"
              "class A:\n    def g(self):\n        return exactla._Echelon(2)\n"
              "add = _Echelon.add\nx = _Echelon(1)\n'_Echelon(4)'\n")
    assert callers(source, "_Echelon") == ["A", "f", "line 7"]
    # a hand-rolled [A | I] echelon planted beside the one allowed
    cohomology = (ROOT / "src" / "reglab" / "cohomology.py").read_text()
    planted = cohomology + "\n\ndef _kernel(A):\n    return _Echelon(A.rows + A.cols)\n"
    assert callers(planted, "_Echelon") == ["_kernel", "_resolution"]


# the echelons built outside exactla, each with why it may be
ALLOWED_ECHELONS = {
    "src/reglab/cohomology.py: _resolution",  # spans of translates, no [A | I] rows
    "tests/oracles.py: forward_preimage_echelon",  # the old row order, as the reference
    # the engine's own contract: its stored rows against the Hermite oracle
    "tests/test_exactla.py: test_echelon_engine_matches_the_hermite_definition",
    "tests/test_exactla.py: test_echelon_leaves_the_entries_above_its_pivots_to_canonical",
}


def test_only_exactla_builds_echelons():
    # every [A | I] echelon goes through _preimage_echelon and its row order
    exactla = ROOT / "src" / "reglab" / "exactla.py"
    found = {f"{path.relative_to(ROOT).as_posix()}: {where}"
             for folder in (ROOT / "src" / "reglab", ROOT / "tests")
             for path in sorted(folder.glob("*.py")) if path != exactla
             for where in callers(path.read_text(), "_Echelon")}
    assert found == ALLOWED_ECHELONS
    assert callers(exactla.read_text(), "_Echelon")


def test_saturate_callers_are_found():
    regulator = (ROOT / "src" / "reglab" / "regulator.py").read_text()
    planted = regulator + "\n\ndef _free_part(M):\n    return exactla.saturate(M.relations)\n"
    assert callers(regulator, "saturate") == []
    assert callers(planted, "saturate") == ["_free_part"]


def test_only_random_module_saturates():
    # tors and mt of a module or a map are blocks on Smith coordinates; the
    # torsion-free random profile keeps its saturation for its output bytes
    found = {f"{path.name}: {where}"
             for path in sorted((ROOT / "src" / "reglab").glob("*.py"))
             for where in callers(path.read_text(), "saturate")}
    assert found == {"gmodules.py: random_module"}


def scoped_callers(source: str, name: str) -> list[str]:
    """Where a module calls name(...), bare or as an attribute: the dotted
    name of the functions and classes around each call, or its line at
    module level."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and name in (
                    getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                found.add(".".join(scope) or f"line {child.lineno}")
            visit(child, scope)

    visit(ast.parse(source), [])
    return sorted(found)


# the places that factor an integer, each with what it factors
ALLOWED_FACTORING = {
    "arith.py: factorize_fraction",  # its numerator and denominator
    "regulator.py: RegulatorConstant.__init__",  # the group order
    "arith.py: check_prime",  # ell, below 2^32, for bounds_report and rosen_valuation
    "regulator.py: _bounds",  # q
    "suites.py: _suite_cohomology_oracles",  # q
    "regulator.py: check_report",  # report sides, which need not come from a group
}


def test_only_group_data_and_report_sides_are_factored():
    # a regulator constant is read at the primes of |G| by RegulatorConstant,
    # never factored in general
    src = ROOT / "src" / "reglab"
    sources = {path.name: path.read_text() for path in sorted(src.glob("*.py"))}
    found = {f"{module}: {where}" for module, source in sources.items()
             for name in ("factorize", "factorize_fraction")
             for where in scoped_callers(source, name)}
    assert found == ALLOWED_FACTORING
    # the CLI factoring the constant it prints is found
    anchor = '    _emit({\n        "value": fraction_str(rc.value),\n'
    planted = sources["cli.py"].replace(
        anchor, "    arith.factorize_fraction(rc.value)\n" + anchor, 1)
    assert planted != sources["cli.py"]
    assert scoped_callers(planted, "factorize_fraction") == ["_cmd_regulator"]
    assert scoped_callers("class A:\n    def f(self):\n        g(1)\ng(2)\n", "g") == [
        "A.f", "line 4"]


def _mentions(node) -> Counter:
    """How often each name, attribute and imported name occurs under node."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif isinstance(n, ast.alias):
            found[n.name] += 1
    return found


def unused_private_definitions(sources: dict[str, str]) -> list[str]:
    """Private functions and classes at module level, and private methods
    in their class bodies, that no module mentions outside their own
    definition."""
    defined, mentioned = [], Counter()
    for module, source in sources.items():
        tree = ast.parse(source)
        mentioned += _mentions(tree)
        for top in tree.body:
            for node in [top, *(top.body if isinstance(top, ast.ClassDef) else ())]:
                if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and node.name.startswith("_") and not node.name.endswith("__")):
                    defined.append((module, node.name, _mentions(node)[node.name]))
    return sorted(f"{module}: {name}" for module, name, own in defined
                  if mentioned[name] == own)


def test_unused_private_definitions_are_found():
    sources = {"a": "def _kept():\n    pass\n\n\ndef _left():\n    return _left()\n",
               "b": "from a import _kept\n\n\nclass _Gone:\n    '_Gone'\n",
               "c": ("class A:\n    def run(self):\n        return self._step()\n\n"
                     "    def _step(self):\n        pass\n\n"
                     "    def _stale(self):\n        return self._stale()\n\n"
                     "    def __init__(self):\n        pass\n")}
    assert unused_private_definitions(sources) == ["a: _left", "b: _Gone", "c: _stale"]
    assert unused_private_definitions({"a": "def __getattr__(name):\n    pass\n"}) == []


def test_no_private_helper_is_left_unused():
    # a helper that only tests mention belongs in tests
    src = ROOT / "src" / "reglab"
    sources = {path.name: path.read_text() for path in sorted(src.glob("*.py"))}
    assert unused_private_definitions(sources) == []
    # a private method left behind after its last call is gone
    stale = ("    def _reduce_above(self, idx: int) -> None:\n"
             "        self._reduce_above(idx - 1)\n\n")
    anchor = "    def canonical(self, start: int = 0,"
    planted = sources["exactla.py"].replace(anchor, stale + anchor, 1)
    assert planted != sources["exactla.py"]
    assert unused_private_definitions({**sources, "exactla.py": planted}) == [
        "exactla.py: _reduce_above"]


def reduction_loops(source: str) -> list[str]:
    """Where a module subtracts a product from a subscripted entry in place,
    as in x[k] -= q * y[k]: the dotted name of the function or class around
    each, or its line at module level."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if (isinstance(child, ast.AugAssign) and isinstance(child.op, ast.Sub)
                    and isinstance(child.target, ast.Subscript)
                    and isinstance(child.value, ast.BinOp)
                    and isinstance(child.value.op, ast.Mult)):
                found.add(".".join(scope) or f"line {child.lineno}")
            visit(child, scope)

    visit(ast.parse(source), [])
    return sorted(found)


def test_reduction_loops_are_found():
    source = ("def f(v, r, q):\n    for k in range(3):\n        v[k] -= q * r[k]\n"
              "class A:\n    def g(self, v):\n        v[0] -= 2 * v[1]\n"
              "    def h(self, v, x):\n        v[0] -= x\n        x -= 2 * x\n"
              "        v[1] = v[1] - 2 * v[0]\n"
              "w = [1, 2]\nw[0] -= 3 * w[1]\n'v[k] -= q * r[k]'\n")
    assert reduction_loops(source) == ["A.g", "f", "line 12"]


# the places in exactla that subtract multiples of one row from another
ALLOWED_REDUCTION_LOOPS = [
    "_Echelon.add",  # the exact step at an equal pivot, before a row is placed
    "_diagonalize",  # the Smith row and column steps
    "_reduce_at_pivots",  # every reduction by echelon rows
]


def test_one_reduction_loop_in_exactla():
    # every reduction by echelon rows goes through _reduce_at_pivots, so an
    # entry-size limit or a count of row operations has one place to go
    source = (ROOT / "src" / "reglab" / "exactla.py").read_text()
    assert reduction_loops(source) == ALLOWED_REDUCTION_LOOPS
    # a hand-written copy of the loop planted into Lattice.contains
    anchor = "    def contains(self, vec) -> bool:\n        return not any(self._reduce(vec)[0])\n"
    copy = ("    def contains(self, vec) -> bool:\n        v = list(vec)\n"
            "        for p, r in zip(self._pivots, self.basis_rows):\n"
            "            q = v[p] // r[p]\n"
            "            for k in range(p, len(v)):\n"
            "                v[k] -= q * r[k]\n"
            "        return not any(v)\n")
    planted = source.replace(anchor, copy, 1)
    assert planted != source
    assert reduction_loops(planted) == sorted(ALLOWED_REDUCTION_LOOPS + ["Lattice.contains"])


_PIVOT_NAMES = {"hermite_index", "_pivot_product", "_pivots"}


def pivot_reads(source: str) -> list[int]:
    """Lines that mention hermite_index or _pivot_product, or read a
    ._pivots attribute: indices read off Hermite pivots."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if getattr(node, "id", None) in _PIVOT_NAMES
                   or getattr(node, "attr", None) in _PIVOT_NAMES
                   or (isinstance(node, ast.alias) and node.name in _PIVOT_NAMES)})


def test_pivot_reads_are_found():
    source = ("from reglab.exactla import hermite_index\n"
              "def f(U, V):\n    return hermite_index(U, V)\n"
              "p = exactla._pivot_product(L.basis_rows, L._pivots)\n"
              "q = exactla.hermite_index\n"
              "'hermite_index(U, V)'\npivots = L.pivots\n")
    assert pivot_reads(source) == [1, 3, 4, 5]


def test_only_exactla_reads_hermite_pivots():
    # every |coker| and |ker| goes through exactla.map_orders, so an index
    # is read off pivots in one place
    src = ROOT / "src" / "reglab"
    found = {path.name: pivot_reads(path.read_text())
             for path in sorted(src.glob("*.py")) if path.name != "exactla.py"}
    assert {k: v for k, v in found.items() if v} == {}
    assert pivot_reads((src / "exactla.py").read_text())
    # an index read off the pivots in the q-index route is found
    regulator = (src / "regulator.py").read_text()
    planted = regulator + "\n\ndef _index(U, V):\n    return hermite_index(U, V)\n"
    assert pivot_reads(planted) == [len(planted.splitlines())]


def _calls_id(node) -> bool:
    return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "id"
               for n in ast.walk(node))


def _is_cache(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "_cache"


def id_cache_keys(source: str) -> list[int]:
    """Lines whose _cache key is built from id(...), directly or through a
    name that the same function assigns from it."""
    tree = ast.parse(source)
    lines = set()
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.Module, ast.FunctionDef)):
            continue
        tainted = {t.id for n in ast.walk(scope) if isinstance(n, ast.Assign)
                   and _calls_id(n.value) for t in n.targets if isinstance(t, ast.Name)}
        for n in ast.walk(scope):
            if isinstance(n, ast.Subscript) and _is_cache(n.value):
                key = n.slice
            elif isinstance(n, ast.Compare) and any(_is_cache(c) for c in n.comparators):
                key = n.left
            elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                  and _is_cache(n.func.value) and n.args):
                key = n.args[0]
            else:
                continue
            if _calls_id(key) or any(isinstance(x, ast.Name) and x.id in tainted
                                     for x in ast.walk(key)):
                lines.add(n.lineno)
    return sorted(lines)


def test_id_cache_keys_are_found():
    assert id_cache_keys("M._cache[('ring', id(t))] = 1\n") == [1]
    assert id_cache_keys("def f(M, t):\n    key = ('ring', id(t))\n"
                         "    if key in M._cache:\n        return M._cache[key]\n") == [3, 4]
    assert id_cache_keys("M._cache.get(id(t))\n") == [1]
    assert id_cache_keys("def f(M, t):\n    n = id(t)\n"
                         "    M._cache[('ring', 'd1')] = n\n") == []


def test_no_cache_key_is_built_from_an_id():
    # a freed object's id can be handed to a new one, so an id key can
    # return data cached for an object that no longer exists
    found = {path.name: id_cache_keys(path.read_text())
             for path in sorted((ROOT / "src" / "reglab").glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}


_CACHE_DECORATORS = {"cache", "lru_cache"}
_MUTATORS = {"append", "extend", "insert", "add", "update", "setdefault",
             "pop", "popitem", "clear", "remove", "discard"}


def _decorator_name(node):
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def process_state(source: str) -> list[str]:
    """What a module keeps across calls: functions under a cache decorator,
    names rebound through `global`, and module-level names whose object the
    module writes to (item assignment or deletion, or a mutating method)."""
    tree = ast.parse(source)
    module_names = {t.id for top in tree.body if isinstance(top, (ast.Assign, ast.AnnAssign))
                    for t in (top.targets if isinstance(top, ast.Assign) else [top.target])
                    if isinstance(t, ast.Name)}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(_decorator_name(d) in _CACHE_DECORATORS for d in node.decorator_list):
                found.add(node.name)
        elif isinstance(node, ast.Global):
            found.update(node.names)
        elif (isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
              and isinstance(node.value, ast.Name) and node.value.id in module_names):
            found.add(node.value.id)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in _MUTATORS and isinstance(node.func.value, ast.Name)
              and node.func.value.id in module_names):
            found.add(node.func.value.id)
    return sorted(found)


def test_process_state_is_found():
    source = ("import functools\nfrom functools import cache\n"
              "TABLE = {'a': 1}\n_SEEN = {}\n_LOG = []\n_COUNT = 0\n"
              "@cache\ndef f(x):\n    return TABLE[x]\n"
              "@functools.lru_cache(maxsize=8)\ndef g(x):\n"
              "    _SEEN[x] = 1\n    _LOG.append(x)\n"
              "def h():\n    global _COUNT\n    _COUNT += 1\n"
              "    rows = {}\n    rows['a'] = 1\n    return TABLE.get('a')\n")
    assert process_state(source) == ["_COUNT", "_LOG", "_SEEN", "f", "g"]


# state that outlives a call, each entry with what bounds it
ALLOWED_PROCESS_STATE = {
    "brauer.dihedral_relation",  # one relation per odd q, q <= MAX_GROUP_ORDER / 2
    "cli._build_parser",  # one argument parser
    "groups._INTERNED",  # at most groups.MAX_INTERNED groups
}


def test_process_wide_state_is_allow_listed():
    # a new global cache must be added here, in review, with its bound
    found = {f"{path.stem}.{name}"
             for path in sorted((ROOT / "src" / "reglab").glob("*.py"))
             for name in process_state(path.read_text())}
    assert found == ALLOWED_PROCESS_STATE


def traced_targets(source: str) -> list[tuple[str, str]]:
    """(module, attribute) of every entry of a module-level TARGETS tuple of
    (metric, module, attribute, kind, total) entries, read without importing."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return [(entry[1], entry[2]) for entry in ast.literal_eval(node.value)]
    return []


def unresolved_targets(targets) -> list[str]:
    """The targets whose dotted attribute no longer resolves in reglab.<module>."""
    missing = []
    for mod, attr in targets:
        try:
            obj = importlib.import_module(f"reglab.{mod}")
        except ImportError:
            obj = None
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"{mod}.{attr}")
    return missing


def test_traced_targets_are_read_and_resolved():
    source = ("TARGETS = (\n    ('a', 'exactla', 'smith_normal_form', 'func', True),\n"
              "    ('b', 'exactla', 'Lattice.gone', 'classmethod', False),\n"
              "    ('c', 'nomodule', 'f', 'func', False),\n)\n")
    targets = traced_targets(source)
    assert targets == [("exactla", "smith_normal_form"), ("exactla", "Lattice.gone"),
                       ("nomodule", "f")]
    assert unresolved_targets(targets) == ["exactla.Lattice.gone", "nomodule.f"]


def test_every_traced_layer_resolves():
    # the layer trace looks its targets up by name only when a run is traced
    targets = traced_targets((ROOT / "bench" / "layertrace.py").read_text())
    assert targets
    assert unresolved_targets(targets) == []


def _stores_a_parameter(stmt, params) -> bool:
    """stmt is object.__setattr__(self, "x", x), or the same storing
    tuple(x), for a parameter x."""
    call = stmt.value if isinstance(stmt, ast.Expr) else None
    if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            and call.func.attr == "__setattr__" and isinstance(call.func.value, ast.Name)
            and call.func.value.id == "object" and len(call.args) == 3):
        return False
    _, name, value = call.args
    if (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id == "tuple" and len(value.args) == 1):
        value = value.args[0]
    return (isinstance(name, ast.Constant) and isinstance(value, ast.Name)
            and value.id == name.value and value.id in params)


def hand_written_records(source: str) -> list[str]:
    """Classes whose __init__ only stores its parameters, one
    object.__setattr__ each: records that a NamedTuple states in a line
    per field."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if isinstance(cls, ast.ClassDef):
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                    params = {a.arg for a in fn.args.args[1:]}
                    if all(_stores_a_parameter(st, params) for st in fn.body):
                        found.append(cls.name)
    return found


def test_hand_written_records_are_found():
    source = ("class Pair:\n    def __init__(self, a, b):\n"
              "        object.__setattr__(self, 'a', a)\n"
              "        object.__setattr__(self, 'b', tuple(b))\n"
              "class Checked:\n    def __init__(self, a):\n"
              "        if a < 0:\n            raise ValueError\n"
              "        object.__setattr__(self, 'a', a)\n"
              "class Coerced:\n    def __init__(self, a):\n"
              "        object.__setattr__(self, 'a', int(a))\n"
              "class Renamed:\n    def __init__(self, a):\n"
              "        object.__setattr__(self, 'b', a)\n"
              "class Memo:\n    def __init__(self, a):\n"
              "        object.__setattr__(self, 'a', a)\n"
              "        object.__setattr__(self, '_cache', {})\n")
    assert hand_written_records(source) == ["Pair"]


def test_no_class_is_a_hand_written_record():
    # a class that only stores its arguments is a typing.NamedTuple
    found = {path.name: hand_written_records(path.read_text())
             for path in sorted((ROOT / "src" / "reglab").glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}


def setattr_outside_classes(source: str) -> list[int]:
    """Lines that call object.__setattr__ outside every class body: writes
    into the frozen slots of an object from outside its class."""
    found = []

    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if (not in_class and isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "__setattr__"
                    and getattr(child.func.value, "id", None) == "object"):
                found.append(child.lineno)
            visit(child, in_class or isinstance(child, ast.ClassDef))

    visit(ast.parse(source), False)
    return found


def test_setattr_outside_classes_is_found():
    source = ("class Group:\n    def __init__(self, a):\n"
              "        object.__setattr__(self, 'a', a)\n"
              "    @classmethod\n    def make(cls):\n"
              "        g = object.__new__(cls)\n"
              "        object.__setattr__(g, 'a', 0)\n"
              "def quotient(k):\n    group = Group(k)\n"
              "    object.__setattr__(group, '_snf', (1,) * k)\n"
              "    class Local:\n        def __init__(self):\n"
              "            object.__setattr__(self, 'b', 1)\n"
              "    return group\n"
              "object.__setattr__(quotient, 'x', 1)\n"
              "'object.__setattr__(group, \"a\", 1)'\n")
    assert setattr_outside_classes(source) == [10, 15]


def test_no_frozen_slot_is_written_from_outside_its_class():
    # an immutable object is filled in by its own constructor or method
    found = {path.name: setattr_outside_classes(path.read_text())
             for path in sorted((ROOT / "src" / "reglab").glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}


def record_fields(source: str) -> list[tuple[str, str]]:
    """(class, field) of every field of the typing.NamedTuple classes a
    module declares."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if isinstance(cls, ast.ClassDef) and any(
                "NamedTuple" in (getattr(b, "id", None), getattr(b, "attr", None))
                for b in cls.bases):
            found += [(cls.name, stmt.target.id) for stmt in cls.body
                      if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    return found


def unread_fields(sources: dict[str, str], names: str) -> list[str]:
    """The record fields of sources that no module of sources reads as an
    attribute, and that names does not hold as a string."""
    read = {n.attr for source in sources.values() for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    read |= {n.value for n in ast.walk(ast.parse(names))
             if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    return sorted(f"{module}: {cls}.{field}" for module, source in sources.items()
                  for cls, field in record_fields(source) if field not in read)


def test_unread_fields_are_found():
    sources = {"a": ("from typing import NamedTuple\n"
                     "class P(NamedTuple):\n    x: int\n    y: int = 0\n    z: int\n"
                     "    def norm(self):\n        return self.x\n"
                     "class Q:\n    w: int\n"),
               "b": "def f(p):\n    p.y = 1\n    return 'z'\n"}
    assert record_fields(sources["a"]) == [("P", "x"), ("P", "y"), ("P", "z")]
    assert unread_fields(sources, "getattr(p, 'z')\n") == ["a: P.y"]


def test_every_record_field_is_read():
    # a field only tests read is work for no production path; the layer
    # trace reads its fields by name
    src = ROOT / "src" / "reglab"
    sources = {path.name: path.read_text() for path in sorted(src.glob("*.py"))}
    names = (ROOT / "bench" / "layertrace.py").read_text()
    assert unread_fields(sources, names) == []
    # a field planted into TateGroup and never read is found
    anchor = "    group: PresentedAbelianGroup\n"
    planted = sources["cohomology.py"].replace(anchor, anchor + "    cochain_width: int\n", 1)
    assert planted != sources["cohomology.py"]
    assert unread_fields({**sources, "cohomology.py": planted}, names) == [
        "cohomology.py: TateGroup.cochain_width"]


_IDENTITY_INPUTS = {"q", "module", "relation", "hom", "prime"}


def unknown_checker_inputs(source: str) -> list[str]:
    """What the IDENTITIES checkers of a module take besides seed and the
    inputs an identity can be given: a parameter of another name, *args,
    **kwargs, a positional-only or keyword-only parameter (which the
    checker's parameter list does not show), or a missing seed; as
    "identity: checker(what)"."""
    tree = ast.parse(source)
    functions = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    table = next(top.value for top in tree.body if isinstance(top, ast.Assign)
                 and any(getattr(t, "id", None) == "IDENTITIES" for t in top.targets))
    found = []
    for key, entry in zip(table.keys, table.values):
        fn = functions[entry.args[0].id]
        a = fn.args
        bad = [p.arg for p in a.args if p.arg not in _IDENTITY_INPUTS | {"seed"}]
        bad += [f"/{p.arg}" for p in a.posonlyargs] + [f"*, {p.arg}" for p in a.kwonlyargs]
        bad += [f"*{p.arg}" for p in (a.vararg,) if p] + [f"**{p.arg}" for p in (a.kwarg,) if p]
        if "seed" not in [p.arg for p in a.args]:
            bad.append("no seed")
        found += [f"{key.value}: {fn.name}({b})" for b in bad]
    return found


def test_unknown_checker_inputs_are_found():
    source = ("def _a(q, seed):\n    pass\n"
              "def _b(modul, relation, *args, seed, **kwargs):\n    pass\n"
              "def _c(q, /, module, prime=None):\n    pass\n"
              "IDENTITIES = {'A': Identity(_a), 'B': Identity(_b, 'finite'),\n"
              "              'C': Identity(_c)}\n")
    assert unknown_checker_inputs(source) == [
        "B: _b(modul)", "B: _b(*, seed)", "B: _b(*args)", "B: _b(**kwargs)",
        "B: _b(no seed)", "C: _c(/q)", "C: _c(no seed)"]


def test_identity_checkers_take_known_inputs():
    # a checker's parameters are the inputs its identity takes, so a typo in
    # one is an input that `reglab check` can never supply
    regulator = (ROOT / "src" / "reglab" / "regulator.py").read_text()
    assert unknown_checker_inputs(regulator) == []
    anchor = "def _dual1(module, relation, seed):\n"
    planted = regulator.replace(anchor, "def _dual1(module, relaton, seed):\n", 1)
    assert planted != regulator
    assert unknown_checker_inputs(planted) == ["DUAL1: _dual1(relaton)"]


def unmapped_errors(errors_source: str, cli_source: str) -> list[str]:
    """The exception classes errors_source defines that no except clause of
    cli_source's main names with a handler returning 1, 2 or 3."""
    classes = [node.name for node in ast.parse(errors_source).body
               if isinstance(node, ast.ClassDef)]
    main = next(node for node in ast.parse(cli_source).body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    mapped = set()
    for handler in ast.walk(main):
        if not isinstance(handler, ast.ExceptHandler) or handler.type is None:
            continue
        codes = {node.value.value for stmt in handler.body for node in ast.walk(stmt)
                 if isinstance(node, ast.Return) and isinstance(node.value, ast.Constant)}
        if codes & {1, 2, 3}:
            names = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
            mapped |= {getattr(n, "id", None) for n in names}
    return [name for name in classes if name not in mapped]


def test_unmapped_errors_are_found():
    errors = "".join(f"class {name}(Exception):\n    pass\n" for name in "ABCD")
    cli = ("def main():\n    try:\n        pass\n"
           "    except A:\n        return 2\n"
           "    except (B, KeyError) as exc:\n        print(exc)\n        return 3\n"
           "    except C:\n        return 0\n"
           "def other():\n    try:\n        pass\n    except D:\n        return 1\n")
    assert unmapped_errors(errors, cli) == ["C", "D"]


def test_every_error_type_has_an_exit_code():
    # an error type the CLI does not catch ends a run in a traceback, with
    # no JSON document and exit status 1, as if a check had failed
    src = ROOT / "src" / "reglab"
    errors, cli = (src / "errors.py").read_text(), (src / "cli.py").read_text()
    assert unmapped_errors(errors, cli) == []
    planted = errors + '\n\nclass BudgetError(RuntimeError):\n    """A run out of time."""\n'
    assert unmapped_errors(planted, cli) == ["BudgetError"]


def imports_from(source: str, module: str) -> set[str]:
    """The names a module imports from module."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == module
            for alias in node.names}


# what the oracles may take from production cohomology: the entry point of
# each degree, the period and its fold, and the resolution; the tables
# around each degree they build themselves, so the comparison checks _upper
ALLOWED_ORACLE_COHOMOLOGY = {"TateGroup", "_complex_data", "_period", "_reduce_degree",
                             "_resolution"}


def test_oracles_import_only_allowed_cohomology_internals():
    source = (ROOT / "tests" / "oracles.py").read_text()
    assert imports_from(source, "reglab.cohomology") <= ALLOWED_ORACLE_COHOMOLOGY
    anchor = "    _complex_data,\n"
    planted = source.replace(anchor, anchor + "    _upper,\n", 1)
    assert planted != source
    assert imports_from(planted, "reglab.cohomology") - ALLOWED_ORACLE_COHOMOLOGY == {"_upper"}
