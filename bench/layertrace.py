"""Outside-in layer trace: spans around calls into reglab's public functions.

Tracer.install() replaces each traced function on every binding that callers
use: the defining module, every reglab module that imported the name, and the
package namespace. Methods and properties are replaced on their class.
Every call records a span (name, start, end, parent span) in flat arrays that
stay in memory until write(); per-name call counts, self time (duration minus
the part covered by child spans) and total time (outermost calls only) are
accumulated as spans close. uninstall() puts every original back.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# (metric name, module, attribute, kind, reports total_s). Kinds: "func" a
# module-level function, "classmethod"/"property" "<Class>.<name>" on a
# class. tate and induced_hom are split by degree, giving e.g.
# cohomology.tate.d2 for a call whose result has reduced_degree 2.
TARGETS = (
    ("exactla.integer_kernel", "exactla", "integer_kernel", "func", True),
    ("exactla.preimage_lattice", "exactla", "preimage_lattice", "func", True),
    ("exactla.saturate", "exactla", "saturate", "func", False),
    ("exactla.smith_normal_form", "exactla", "smith_normal_form", "func", False),
    ("exactla.invariant_factors", "exactla",
     "PresentedAbelianGroup.invariant_factors", "property", False),
    ("exactla.subquotient_group", "exactla", "subquotient_group", "func", False),
    ("exactla.qindex", "exactla", "qindex", "func", True),
    ("exactla.lattice_from_rows", "exactla", "Lattice.from_rows",
     "classmethod", False),
    ("exactla.invert_unimodular", "exactla", "invert_unimodular", "func", False),
    ("groups.enumerate_subgroups", "groups", "enumerate_subgroups", "func", True),
    ("groups.coset_space", "groups", "coset_space", "func", False),
    ("groups.build_group", "groups", "build_group", "func", False),
    ("gmodules.fixed_points", "gmodules", "fixed_points", "func", True),
    ("gmodules.compress", "gmodules", "compress", "func", True),
    ("gmodules.torsion_decomposition", "gmodules", "torsion_decomposition",
     "func", True),
    ("gmodules.tensor_product", "gmodules", "tensor_product", "func", False),
    ("gmodules.module_hom_lattice", "gmodules", "module_hom_lattice", "func",
     True),
    ("gmodules.random_module", "gmodules", "random_module", "func", True),
    ("gmodules.random_module_hom", "gmodules", "random_module_hom", "func",
     True),
    ("gmodules.permutation_module", "gmodules", "permutation_module", "func",
     False),
    ("gmodules.direct_sum", "gmodules", "direct_sum", "func", False),
    ("gmodules.validate_module", "gmodules", "validate_module", "func", True),
    ("gmodules.equivariant_hom_basis", "gmodules", "equivariant_hom_basis",
     "func", False),
    ("cohomology.tate", "cohomology", "tate", "func", True),
    ("cohomology.induced_hom", "cohomology", "induced_hom", "func", True),
    ("cohomology.rosen_valuation", "cohomology", "rosen_valuation", "func",
     False),
    ("brauer.theta_product", "brauer", "theta_product", "func", True),
    ("brauer.theta_kernel_product", "brauer", "theta_kernel_product", "func",
     True),
    ("brauer.brauer_relation_lattice", "brauer", "brauer_relation_lattice",
     "func", True),
    ("regulator.regulator_constant", "regulator", "regulator_constant", "func",
     True),
    ("regulator.rc_pairing", "regulator", "rc_pairing", "func", True),
    ("regulator.rc_qindex", "regulator", "rc_qindex", "func", True),
    ("regulator.build_phi", "regulator", "build_phi", "func", True),
    ("regulator.bounds_report", "regulator", "bounds_report", "func", True),
    ("jsonio.module_from_json", "jsonio", "module_from_json", "func", True),
    ("jsonio.module_digest", "jsonio", "module_digest", "func", False),
    ("jsonio.relation_from_json", "jsonio", "relation_from_json", "func",
     False),
    ("suites.run_suite", "suites", "run_suite", "func", True),
    ("cli.main", "cli", "main", "func", True),
)
DEGREES = (-1, 0, 1, 2)
SPLIT_BY_DEGREE = ("cohomology.tate", "cohomology.induced_hom")
# counts taken from argument and result shapes, and the cache counts
COUNTS = (
    ("exactla.intmatrix.calls", "count", "lower"),
    ("exactla.kernel_cells", "cells", "lower"),
    ("exactla.kernel_width_max", "columns", "lower"),
    ("exactla.entry_bits_max", "bits", "lower"),
    ("regulator.regulator_constant.cache_hits", "count", "higher"),
    ("regulator.regulator_constant.cache_hit_ratio", "ratio", "higher"),
)


def span_names() -> list[tuple[str, bool]]:
    """Every span name with its total_s flag, degrees split out."""
    out = []
    for name, _mod, _attr, _kind, total in TARGETS:
        if name in SPLIT_BY_DEGREE:
            out += [(f"{name}.d{d}", total) for d in DEGREES]
        else:
            out.append((name, total))
    return out


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric a traced run prints."""
    out = []
    for name, total in span_names():
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
        if total:
            out.append((f"{name}.total_s", "s", "lower"))
    out += list(COUNTS)
    out.append(("trace.items_per_s", "items/s", "higher"))
    return out


def _bits(lattice) -> int:
    return max((abs(x).bit_length() for row in lattice.basis_rows for x in row),
               default=0)


class Tracer:
    def __init__(self):
        self.names = [name for name, _ in span_names()]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.total_s = [0.0] * len(self.names)
        self.counts = {name: 0 for name, _, _ in COUNTS}
        self._active = {}
        self._stack = []  # [span id, child time] of the open spans
        self._restore = []

    # -- the wrapper

    def _wrap(self, fn, base, name_of=None, before=None, after=None):
        tracer = self
        stack = self._stack
        clock = time.perf_counter
        active = self._active
        active[base] = 0
        fixed_id = self._ids.get(base)

        def traced(*args, **kwargs):
            token = before(args) if before else None
            sid = len(tracer.span_start)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_name.append(-1)
            tracer.span_end.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            active[base] += 1
            start = clock()
            tracer.span_start.append(start)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                active[base] -= 1
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                nid = fixed_id if name_of is None else tracer._ids[
                    name_of(args, kwargs, result)]
                tracer.span_name[sid] = nid
                tracer.span_end[sid] = end
                tracer.calls[nid] += 1
                tracer.self_s[nid] += dur - frame[1]
                if active[base] == 0:
                    tracer.total_s[nid] += dur
                if after and result is not None:
                    after(args, result, token)

        traced.__wrapped__ = fn
        return traced

    # -- hooks on particular functions

    def _kernel_before(self, args):
        A = args[0]
        width = A.rows + A.cols
        self.counts["exactla.kernel_cells"] += A.cols * width
        if width > self.counts["exactla.kernel_width_max"]:
            self.counts["exactla.kernel_width_max"] = width

    def _lattice_after(self, args, result, token):
        bits = _bits(result)
        if bits > self.counts["exactla.entry_bits_max"]:
            self.counts["exactla.entry_bits_max"] = bits

    def _regulator_before(self, args):
        return self.calls[self._ids["regulator.rc_pairing"]]

    def _regulator_after(self, args, result, token):
        # a call that ran no pairing route was answered from the cache
        if self.calls[self._ids["regulator.rc_pairing"]] == token:
            self.counts["regulator.regulator_constant.cache_hits"] += 1

    # -- installing and removing

    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "reglab" or k.startswith("reglab.")) and m]
        hooks = {
            "exactla.integer_kernel": (self._kernel_before, self._lattice_after),
            "exactla.preimage_lattice": (None, self._lattice_after),
            "regulator.regulator_constant": (self._regulator_before,
                                             self._regulator_after),
        }
        def by_degree(base):
            # the result's reduced degree, else the degree argument
            def name_of(args, kwargs, result):
                d = getattr(result, "reduced_degree", None)
                if d is None:
                    d = args[2] if len(args) > 2 else kwargs["degree"]
                return f"{base}.d{min(max(d, DEGREES[0]), DEGREES[-1])}"
            return name_of

        for name, mod, attr, kind, _total in TARGETS:
            module = sys.modules[f"reglab.{mod}"]
            before, after = hooks.get(name, (None, None))
            if kind == "func":
                orig = getattr(module, attr)
                namer = by_degree(name) if name in SPLIT_BY_DEGREE else None
                new = self._wrap(orig, name, namer, before, after)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, new)
                            self._restore.append((m, key, orig))
            else:
                cls_name, member = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[member]
                if kind == "classmethod":
                    new = classmethod(self._wrap(orig.__func__, name))
                else:
                    new = property(self._wrap(orig.fget, name))
                setattr(cls, member, new)
                self._restore.append((cls, member, orig))
        cls = sys.modules["reglab.exactla"].IntMatrix
        init = cls.__dict__["__init__"]
        counts = self.counts

        def counted_init(obj, *args, **kwargs):
            counts["exactla.intmatrix.calls"] += 1
            init(obj, *args, **kwargs)

        cls.__init__ = counted_init
        self._restore.append((cls, "__init__", init))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    # -- results

    def metrics(self, items_per_s: float) -> dict:
        out = {}
        units = {name: unit for name, unit, _ in metric_specs()}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = self.self_s[i]
            if f"{name}.total_s" in units:
                out[f"{name}.total_s"] = self.total_s[i]
        out.update(self.counts)
        calls = self.calls[self._ids["regulator.regulator_constant"]]
        hits = self.counts["regulator.regulator_constant.cache_hits"]
        out["regulator.regulator_constant.cache_hit_ratio"] = (
            hits / calls if calls else 0.0)
        out["trace.items_per_s"] = items_per_s
        return {k: {"value": v, "unit": units[k]} for k, v in out.items()}

    def write(self, path: str) -> None:
        """Spans as a JSON header line followed by the four raw arrays."""
        header = {"names": self.names, "spans": len(self.span_start),
                  "arrays": ["name:i32", "parent:i32", "start:f64", "end:f64"],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                arr.tofile(fh)
