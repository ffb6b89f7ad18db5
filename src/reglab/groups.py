"""Finite groups as validated multiplication tables.

Groups are always given by a full multiplication table on indices 0..n-1 with
0 the identity. Families (cyclic, dihedral, products) are constructed
explicitly; arbitrary tables are accepted after validation. Everything any
other module needs from a group (subgroups up to conjugacy, coset actions,
conjugacy classes of elements) is computed here and cached on the instance.

The family constructors and from_table intern their groups: one shared
instance per table and descriptor, so everything cached on a group is built
once per process for every module over it. The descriptor is part of the
key because JSON output echoes it. At most MAX_INTERNED groups are kept,
the oldest dropped first. A group built directly with FiniteGroup(...) is
never interned; copy a group that way before writing to its _cache.
"""

from __future__ import annotations

from operator import index

from .errors import InputError, ResourceLimitError, ValidationError

MAX_GROUP_ORDER = 48
MAX_INTERNED = 64
_INTERNED: dict[tuple, "FiniteGroup"] = {}


def _interned(key: tuple, build) -> "FiniteGroup":
    """The group interned under key, built (and validated) on a miss only."""
    G = _INTERNED.get(key)
    if G is None:
        G = build()
        if len(_INTERNED) >= MAX_INTERNED:
            del _INTERNED[next(iter(_INTERNED))]
        _INTERNED[key] = G
    return G


def _check_order(n: int) -> None:
    if n > MAX_GROUP_ORDER:
        raise ResourceLimitError(f"group order {n} exceeds the supported bound {MAX_GROUP_ORDER}")


class FiniteGroup:
    """A finite group on {0, .., order-1} with identity 0."""

    __slots__ = ("order", "mul", "inverse", "descriptor", "_cache")

    def __init__(self, mul, descriptor: dict | None = None, validate: bool = True):
        table = tuple(tuple(map(index, row)) for row in mul)
        n = len(table)
        if n == 0:
            raise ValidationError("empty multiplication table")
        _check_order(n)
        if validate:
            _validate_table(table)
        inv = [None] * n
        for g in range(n):
            for h in range(n):
                if table[g][h] == 0:
                    inv[g] = h
                    break
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "mul", table)
        object.__setattr__(self, "inverse", tuple(inv))
        object.__setattr__(self, "descriptor", descriptor or {"kind": "table", "order": n})
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, *args):
        raise AttributeError("FiniteGroup is immutable")

    # -- constructors

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        if n < 1:
            raise InputError("cyclic group needs n >= 1")
        _check_order(n)
        return _interned(("cyclic", n), lambda: cls(
            [[(i + j) % n for j in range(n)] for i in range(n)],
            {"kind": "cyclic", "n": n}, validate=False))

    @classmethod
    def dihedral(cls, q: int) -> "FiniteGroup":
        """Dihedral group of order 2q; indices 0..q-1 are rotations r^i,
        indices q..2q-1 are reflections s r^i. Generators: r = 1, s = q."""
        if q < 2:
            raise InputError("dihedral group needs q >= 2")
        n = 2 * q
        _check_order(n)

        def mult(a, b):
            fa, ia = divmod(a, q)[0], a % q
            fb, ib = divmod(b, q)[0], b % q
            if fa == 0 and fb == 0:
                return (ia + ib) % q
            if fa == 0 and fb == 1:
                return q + (ib - ia) % q
            if fa == 1 and fb == 0:
                return q + (ia + ib) % q
            return (ib - ia) % q

        return _interned(("dihedral", q), lambda: cls(
            [[mult(a, b) for b in range(n)] for a in range(n)],
            {"kind": "dihedral", "q": q}, validate=False))

    @classmethod
    def product(cls, factors: list["FiniteGroup"]) -> "FiniteGroup":
        if not factors:
            raise InputError("product needs at least one factor")
        orders = [g.order for g in factors]
        total = 1
        for o in orders:
            total *= o
        _check_order(total)

        def split(x):
            out = []
            for o in reversed(orders):
                out.append(x % o)
                x //= o
            return list(reversed(out))

        def join(parts):
            x = 0
            for p, o in zip(parts, orders):
                x = x * o + p
            return x

        def mult(a, b):
            pa, pb = split(a), split(b)
            return join([g.mul[x][y] for g, x, y in zip(factors, pa, pb)])

        # a table factor's own descriptor does not fix its table, so the
        # product's descriptor carries the table: it rebuilds every factor
        descs = [dict(g.descriptor, mul=[list(row) for row in g.mul])
                 if g.descriptor.get("kind") == "table" else g.descriptor
                 for g in factors]
        key = ("product", tuple((g.mul, repr(g.descriptor)) for g in factors))
        return _interned(key, lambda: cls(
            [[mult(a, b) for b in range(total)] for a in range(total)],
            {"kind": "product", "factors": descs}, validate=False))

    @classmethod
    def from_table(cls, mul) -> "FiniteGroup":
        """The group of a table, validated the first time it is seen."""
        table = tuple(tuple(map(index, row)) for row in mul)
        return _interned(("table", table), lambda: cls(table, None, validate=True))

    # -- basic structure

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.mul == other.mul

    def __hash__(self):
        return hash(self.mul)

    def __repr__(self):
        d = self.descriptor
        kind = d.get("kind", "table")
        if kind == "cyclic":
            return f"C{d['n']}"
        if kind == "dihedral":
            return f"D{d['q']}"
        if kind == "product":
            return "x".join(str(FiniteGroup._short(f)) for f in d["factors"])
        return f"G(order {self.order})"

    @staticmethod
    def _short(desc):
        kind = desc.get("kind")
        if kind == "cyclic":
            return f"C{desc['n']}"
        if kind == "dihedral":
            return f"D{desc['q']}"
        return "G"

    def power(self, g: int, k: int) -> int:
        if k < 0:
            g, k = self.inverse[g], -k
        out = 0
        for _ in range(k):
            out = self.mul[out][g]
        return out

    def element_order(self, g: int) -> int:
        k, x = 1, g
        while x != 0:
            x = self.mul[x][g]
            k += 1
        return k

    def conjugate_element(self, x: int, g: int) -> int:
        """g x g^{-1}."""
        return self.mul[self.mul[g][x]][self.inverse[g]]

    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """Element conjugacy classes, each sorted, ordered by smallest member."""
        if "conj" not in self._cache:
            seen = [False] * self.order
            classes = []
            for x in range(self.order):
                if seen[x]:
                    continue
                orbit = sorted({self.conjugate_element(x, g) for g in range(self.order)})
                for y in orbit:
                    seen[y] = True
                classes.append(tuple(orbit))
            self._cache["conj"] = tuple(classes)
        return self._cache["conj"]

    def closure(self, elements) -> tuple[int, ...]:
        """Subgroup generated by the given elements, as a sorted tuple: in a
        finite group, the orbit of 0 under right multiplication by them."""
        gens = set(elements)
        seen, stack = {0}, [0]
        while stack:
            row = self.mul[stack.pop()]
            for g in gens:
                if row[g] not in seen:
                    seen.add(row[g])
                    stack.append(row[g])
        return tuple(sorted(seen))

    def subgroup(self, elements) -> "Subgroup":
        return Subgroup(self, elements)

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, (0,), validate=False)

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, tuple(range(self.order)), validate=False)


def _validate_table(table) -> None:
    n = len(table)
    for i, row in enumerate(table):
        if len(row) != n:
            raise ValidationError(f"row {i} has length {len(row)}, expected {n}")
        if sorted(row) != list(range(n)):
            raise ValidationError(f"row {i} is not a permutation of 0..{n - 1}")
    for j in range(n):
        col = sorted(table[i][j] for i in range(n))
        if col != list(range(n)):
            raise ValidationError(f"column {j} is not a permutation of 0..{n - 1}")
    for g in range(n):
        if table[0][g] != g or table[g][0] != g:
            raise ValidationError(f"element 0 is not an identity at {g}")
    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            for c in range(n):
                if table[ab][c] != table[a][table[b][c]]:
                    raise ValidationError(
                        f"associativity fails at triple ({a}, {b}, {c})"
                    )
    for g in range(n):
        if 0 not in table[g]:
            raise ValidationError(f"element {g} has no inverse")


class Subgroup:
    """A subgroup given by its sorted element tuple."""

    __slots__ = ("group", "elements")

    def __init__(self, group: FiniteGroup, elements, validate: bool = True):
        elems = tuple(sorted(set(map(index, elements))))
        if validate:
            # every element is in range before any table lookup
            outside = [a for a in elems if not 0 <= a < group.order]
            if outside:
                raise ValidationError(f"element {outside[0]} outside the group")
            if not elems or elems[0] != 0:
                raise ValidationError("subgroup must contain the identity 0")
            inside = set(elems)
            for a in elems:
                if group.inverse[a] not in inside:
                    raise ValidationError(f"subgroup not closed under inverse at {a}")
                for b in elems:
                    if group.mul[a][b] not in inside:
                        raise ValidationError(
                            f"subgroup not closed under product at ({a}, {b})"
                        )
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "elements", elems)

    def __setattr__(self, *args):
        raise AttributeError("Subgroup is immutable")

    @property
    def order(self) -> int:
        return len(self.elements)

    def __eq__(self, other):
        return (isinstance(other, Subgroup) and self.group == other.group
                and self.elements == other.elements)

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self):
        return f"Subgroup{self.elements}"

    def conjugate(self, g: int) -> "Subgroup":
        G = self.group
        return Subgroup(G, (G.conjugate_element(x, g) for x in self.elements),
                        validate=False)

    def generators(self) -> tuple[int, ...]:
        """A small generating set, greedily grown by largest element order;
        memoised on the group."""
        G = self.group
        key = ("generators", self.elements)
        if key not in G._cache:
            gens: list[int] = []
            span: tuple[int, ...] = (0,)
            for x in sorted(self.elements[1:], key=lambda x: (-G.element_order(x), x)):
                if x not in span:
                    gens.append(x)
                    span = G.closure(gens)
            if len(span) != self.order:
                raise ValidationError("generator search failed; subgroup not closed?")
            G._cache[key] = tuple(gens)
        return G._cache[key]


def enumerate_subgroups(G: FiniteGroup) -> list[tuple[Subgroup, ...]]:
    """All subgroups of G, grouped into conjugacy classes.

    Classes are sorted by (order, elements of the smallest member), and each
    class tuple lists its members sorted; the first member is the class
    representative used everywhere else in the package.

    Found by growing: extend each new subgroup, from the trivial one on, by
    one element outside it, closing the generators that produced it plus
    that element. Every subgroup is reached along <g1> < <g1, g2> < ...
    """
    if "subgroups" in G._cache:
        return G._cache["subgroups"]

    found: dict[tuple[int, ...], tuple[int, ...]] = {(0,): ()}
    frontier = [(0,)]
    while frontier:
        new: dict[tuple[int, ...], tuple[int, ...]] = {}
        for elems in frontier:
            gens, inside = found[elems], set(elems)
            for g in range(1, G.order):
                if g not in inside:
                    grown = G.closure(gens + (g,))
                    if grown not in found and grown not in new:
                        new[grown] = gens + (g,)
        found.update(new)
        frontier = list(new)

    classed: dict[tuple[int, ...], list[Subgroup]] = {}
    for elems in found:
        sub = Subgroup(G, elems, validate=False)
        orbit = {sub.conjugate(g).elements for g in range(G.order)}
        classed.setdefault(min(orbit), []).append(sub)
    classes = []
    for rep in sorted(classed, key=lambda e: (len(e), e)):
        members = sorted(classed[rep], key=lambda s: s.elements)
        classes.append(tuple(members))
    G._cache["subgroups"] = classes
    return classes


def subgroup_class_representatives(G: FiniteGroup) -> list[Subgroup]:
    return [cls[0] for cls in enumerate_subgroups(G)]


def class_representative_of(G: FiniteGroup, H: Subgroup) -> Subgroup:
    """The canonical representative of H's conjugacy class; memoised on
    the group."""
    key = ("classrep", H.elements)
    if key not in G._cache:
        orbit = {H.conjugate(g).elements for g in range(G.order)}
        G._cache[key] = Subgroup(G, min(orbit), validate=False)
    return G._cache[key]


class CosetSpace:
    """Left cosets G/H with the left translation action.

    Cosets are ordered by their smallest element, so the identity coset (the
    one containing 0) always comes first; representatives are those minima.
    """

    __slots__ = ("representatives", "action")

    def __init__(self, group: FiniteGroup, subgroup: Subgroup):
        if subgroup.group != group:
            raise ValidationError("subgroup belongs to a different group")
        n = group.order
        coset_of = [-1] * n
        reps = []
        for g in range(n):
            # every smaller element lies in an earlier coset, so g is the
            # smallest element of its own
            if coset_of[g] == -1:
                for h in subgroup.elements:
                    coset_of[group.mul[g][h]] = len(reps)
                reps.append(g)
        object.__setattr__(self, "representatives", tuple(reps))
        object.__setattr__(self, "action", tuple(
            tuple(coset_of[group.mul[g][r]] for r in reps) for g in range(n)))

    def __setattr__(self, *args):
        raise AttributeError("CosetSpace is immutable")

    @property
    def points(self) -> int:
        return len(self.representatives)

    def fixed_count(self, g: int) -> int:
        """Number of cosets with g x H = x H."""
        perm = self.action[g]
        return sum(1 for i, j in enumerate(perm) if i == j)


def coset_space(G: FiniteGroup, H: Subgroup) -> CosetSpace:
    key = ("cosets", H.elements)
    if key not in G._cache:
        G._cache[key] = CosetSpace(G, H)
    return G._cache[key]


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------


# products of nontrivial groups within the order bound nest at most 6 deep
MAX_NESTING = 32


def _is_json_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _json_int(descriptor: dict, key: str) -> int:
    value = descriptor[key]
    if not _is_json_int(value):
        raise InputError(f"{descriptor['kind']} descriptor field '{key}' must be "
                         f"a JSON integer, not {type(value).__name__}")
    return value


def build_group(descriptor: dict) -> FiniteGroup:
    """Construct a group from a JSON-style descriptor.

    Supported kinds: cyclic {"n"}, dihedral {"q"}, product {"factors"},
    table {"order", "mul"}. Every number is a JSON integer, the order
    bound is checked before any table is built, and descriptors nest at
    most MAX_NESTING deep.
    """
    return _build_group(descriptor, MAX_NESTING)


def _build_group(descriptor: dict, depth_left: int) -> FiniteGroup:
    if depth_left == 0:
        raise InputError(f"group descriptor nests more than {MAX_NESTING} deep")
    if not isinstance(descriptor, dict) or "kind" not in descriptor:
        raise InputError("group descriptor must be an object with a 'kind'")
    kind = descriptor["kind"]
    if kind == "cyclic":
        if "n" not in descriptor:
            raise InputError("cyclic descriptor needs 'n'")
        return FiniteGroup.cyclic(_json_int(descriptor, "n"))
    if kind == "dihedral":
        if "q" not in descriptor:
            raise InputError("dihedral descriptor needs 'q'")
        return FiniteGroup.dihedral(_json_int(descriptor, "q"))
    if kind == "product":
        factors = descriptor.get("factors")
        if not isinstance(factors, list) or not factors:
            raise InputError("product descriptor needs a non-empty 'factors' list")
        return FiniteGroup.product([_build_group(f, depth_left - 1) for f in factors])
    if kind == "table":
        if "mul" not in descriptor:
            raise InputError("table descriptor needs 'mul'")
        mul = descriptor["mul"]
        if not isinstance(mul, list):
            raise InputError("table descriptor field 'mul' must be a list of rows")
        _check_order(len(mul))
        if not all(isinstance(row, list) and all(_is_json_int(x) for x in row)
                   for row in mul):
            raise InputError("table descriptor field 'mul' must hold rows of JSON integers")
        if "order" in descriptor and len(mul) != _json_int(descriptor, "order"):
            raise InputError("table order disagrees with the table size")
        return FiniteGroup.from_table(mul)
    raise InputError(f"unknown group kind: {kind!r}")
