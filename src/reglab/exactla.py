"""Exact linear algebra over the integers.

Everything downstream (group modules, Tate cohomology, regulator constants)
reduces to four primitives implemented here:

* canonical Hermite form of a sublattice of Z^n (echelon rows, used as the
  unique representative, so lattice equality is list equality). The
  echelon engine keeps an echelon only: strictly increasing pivot columns
  and positive pivots, each row reduced at the pivots below it when it is
  placed or changed. The entries above the pivots are reduced once, by
  _reduce_above_pivots, when a lattice is read off the echelon. One loop,
  _reduce_at_pivots, does every reduction by echelon rows: placing a row,
  membership, coordinates and the Hermite form,
* preimages of lattices under integer maps given by their columns, read
  off a single echelon pass; an integer kernel is the preimage of the zero
  lattice, and the same pass, cut at the map's row count, also gives the
  image plus the lattice (image_and_preimage), so a map of a cochain
  complex yields the cycles of one degree and the boundaries of the next
  at once. The pass starts from the lattice's Hermite rows, which are an
  echelon already, and adds the columns last to first: each column is
  reduced modulo the lattice as it comes in, and each kernel row leads at
  its own identity coordinate, so no two kernel rows collide,
* finitely presented abelian groups, maps between them, and the q-index
  |cokernel| / |kernel| of such a map. A presented group is Z^k/L, held
  as one Hermite lattice L and nothing else. Orders, free ranks and
  q-indices come off Hermite pivots, since the index of one echelon
  lattice in another of the same rank is the ratio of their pivot
  products. Every index reglab reports, a q-index or the kernel of a map
  induced on Tate cohomology, is read by one reader, map_orders, off the
  same echelon pass as a preimage. The torsion of Z^k/L is that of Z^c
  over the columns of L's c Hermite rows, a full-rank lattice, so its
  order and invariant factors need no saturation. A map splits into its
  torsion and free parts as blocks on the Smith coordinates of its source
  and target (smith_blocks, smith_split), with no saturation either. A
  subquotient U/V of nested Hermite lattices (a Tate group, fixed points)
  is presented on U's basis, and its relation lattice is read off the two
  Hermite forms: the coordinates of V's rows are echelon rows already, so
  reducing above their pivots is their Hermite form, with no second
  echelon pass,
* one Smith elimination (_diagonalize), each of its four steps (divisible
  and gcd, on rows and on columns) written once, run only where divisors
  are asked for, with two callers: smith_normal_form carries the row
  transform along as an identity block, for the coordinates of Z^n / L
  that drop the generators a unit divisor kills; invariant factors run it
  on the full-rank torsion relations modulo their index, which keeps every
  entry below that index, after dropping the rows with a unit pivot, each
  of which kills only its own generator.

No floating point; all arithmetic is on Python ints and fractions.Fraction,
and every result is exact.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from fractions import Fraction
from itertools import chain
from math import gcd, prod
from operator import add, index, mul, sub
from typing import NamedTuple

from .arith import xgcd
from .errors import ConsistencyError, InputError, ResourceLimitError

DEFAULT_COL_LIMIT = 4000


def column_limit() -> int:
    """Width cap for worker matrices, from REGLAB_LIMIT_COLS (default 4000)."""
    raw = os.environ.get("REGLAB_LIMIT_COLS")
    if raw is None:
        return DEFAULT_COL_LIMIT
    try:
        value = int(raw)
    except ValueError:
        raise InputError(f"REGLAB_LIMIT_COLS is not an integer: {raw!r}")
    if value <= 0:
        raise InputError("REGLAB_LIMIT_COLS must be positive")
    return value


def _check_width(width: int) -> None:
    limit = column_limit()
    if width > limit:
        raise ResourceLimitError(
            f"matrix width {width} exceeds REGLAB_LIMIT_COLS={limit}"
        )


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


class IntMatrix:
    """Immutable dense integer matrix, entries stored row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, cols: int | None = None):
        # index() refuses floats, Fractions and strings instead of truncating
        data = tuple(tuple(map(index, row)) for row in entries)
        if data:
            width = len(data[0])
            for row in data:
                if len(row) != width:
                    raise ValueError("ragged matrix")
        else:
            if cols is None:
                cols = 0
            width = cols
        if cols is not None and cols != width and data:
            raise ValueError("cols disagrees with row length")
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "entries", data)

    def __setattr__(self, *args):
        raise AttributeError("IntMatrix is immutable")

    # -- constructors

    @classmethod
    def _trusted(cls, data: tuple, cols: int) -> "IntMatrix":
        """Wrap a tuple of equal-length int tuples without checking it.

        Only for data this module built itself: __init__ coerces and checks
        everything that arrives from outside.
        """
        m = object.__new__(cls)
        object.__setattr__(m, "rows", len(data))
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "entries", data)
        return m

    @classmethod
    def _trusted_columns(cls, columns, rows: int) -> "IntMatrix":
        """The matrix with the given columns, equal-length int sequences
        this module built itself, without checking them."""
        return cls._trusted(tuple(zip(*columns)) if columns else ((),) * rows,
                            len(columns))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._trusted(tuple((0,) * i + (1,) + (0,) * (n - 1 - i)
                                  for i in range(n)), n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls._trusted(((0,) * cols,) * rows, cols)

    # -- access

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> list[list[int]]:
        if not self.rows:
            return [[] for _ in range(self.cols)]
        return [list(c) for c in zip(*self.entries)]

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.entries == other.entries \
            and self.cols == other.cols

    def __hash__(self):
        return hash((self.cols, self.entries))

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols})"

    # -- arithmetic

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        ocols = other.cols
        out = []
        other_rows = other.entries
        for arow in self.entries:
            acc = [0] * ocols
            for a, brow in zip(arow, other_rows):
                if a:
                    # a unit coefficient adds or subtracts the row at C level
                    if a == 1:
                        acc = list(map(add, acc, brow))
                    elif a == -1:
                        acc = list(map(sub, acc, brow))
                    else:
                        acc = [x + a * y for x, y in zip(acc, brow)]
            out.append(tuple(acc))
        return IntMatrix._trusted(tuple(out), ocols)

    def apply(self, vec) -> list[int]:
        """Matrix times column vector, returned as a list."""
        vec = list(vec)
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return [sum(map(mul, row, vec)) for row in self.entries]

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix._trusted(
            tuple(tuple(a - b for a, b in zip(r1, r2))
                  for r1, r2 in zip(self.entries, other.entries)),
            self.cols,
        )

    def transpose(self) -> "IntMatrix":
        return IntMatrix._trusted_columns(self.entries, self.cols)

    def hstack(self, *others: "IntMatrix") -> "IntMatrix":
        """[self | others[0] | ...], side by side."""
        if any(o.rows != self.rows for o in others):
            raise ValueError("row count mismatch")
        return IntMatrix._trusted(
            tuple(tuple(chain.from_iterable(parts))
                  for parts in zip(self.entries, *(o.entries for o in others))),
            self.cols + sum(o.cols for o in others),
        )

    def kron(self, other: "IntMatrix") -> "IntMatrix":
        """Kronecker product; block (i,j) is self[i][j] * other."""
        return IntMatrix._trusted(
            tuple(tuple(a * b for a in arow for b in brow)
                  for arow in self.entries for brow in other.entries),
            self.cols * other.cols,
        )

    def determinant(self) -> int:
        """Bareiss fraction-free determinant. Square matrices only."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = self.to_lists()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            pivot = m[k][k]
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = pivot
        return sign * m[n - 1][n - 1]


# ---------------------------------------------------------------------------
# echelon accumulator (internal work-horse behind every lattice computation)
# ---------------------------------------------------------------------------


class _Echelon:
    """Mutable integral row echelon form.

    Rows are kept with strictly increasing pivot columns and positive pivots;
    the integer row span is preserved exactly by every operation. A row is
    reduced at the pivots of the rows below it when it is placed or changed,
    by _reduce_at_pivots, the one loop that reduces by echelon rows, which
    contains and canonical() run as well. Nothing reduces the entries above
    a stored pivot: the pivot columns and values, which are the same for
    every echelon of the span, and membership (contains) need only the
    echelon. canonical() reduces above the pivots of a copy, which gives the
    unique Hermite representative of the span.
    """

    __slots__ = ("width", "rows", "pivots")

    def __init__(self, width: int):
        _check_width(width)
        self.width = width
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    def add(self, vec) -> None:
        v = list(vec)
        width, rows, pivots = self.width, self.rows, self.pivots
        if len(v) != width:
            raise ValueError("vector width mismatch")
        lead = 0
        while True:
            while lead < width and v[lead] == 0:
                lead += 1
            if lead == width:
                return
            lo = bisect_left(pivots, lead)
            if lo == len(pivots) or pivots[lo] > lead:
                if v[lead] < 0:
                    v = [-t for t in v]
                rows.insert(lo, v)
                pivots.insert(lo, lead)
                # unreduced, entries grow exponentially in the additions
                _reduce_at_pivots(v, rows, pivots, lo + 1)
                return
            r = rows[lo]
            a, b = r[lead], v[lead]
            if b % a == 0:
                q = b // a
                for k in range(lead, width):
                    if r[k]:
                        v[k] -= q * r[k]
            else:
                # g = x a + y b > 0; when b | a this is x = 0, y = +-1, so
                # the incoming row takes the stored row's place
                g, x, y = xgcd(a, b)
                ca, cb = a // g, b // g
                rows[lo] = [x * rk + y * vk for rk, vk in zip(r, v)]
                v = [ca * vk - cb * rk for rk, vk in zip(r, v)]
                _reduce_at_pivots(rows[lo], rows, pivots, lo + 1)
            # v[lead] is now 0; continue scanning for its next pivot

    def contains(self, vec) -> bool:
        """Whether vec lies in the integer row span."""
        v = list(vec)
        _reduce_at_pivots(v, self.rows, self.pivots)
        return not any(v)

    def canonical(self, start: int = 0, stop: int | None = None,
                  cols: int | None = None) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """Hermite form of the span of the rows start..stop - 1, each cut to
        its first cols columns (by default every row from start on, whole).

        The stored rows are an echelon only; this reduces above the pivots
        of copies and leaves them as they are. Cut before the pivots of the
        rows from stop on, the rows before stop span the projection of the
        whole row span to the first cols columns."""
        width = self.width if cols is None else cols
        rows = [r[:width] for r in self.rows[start:stop]]
        pivots = self.pivots[start:stop]
        _reduce_above_pivots(rows, pivots)
        return tuple(tuple(r) for r in rows), tuple(pivots)


def _reduce_at_pivots(v: list[int], rows, pivots, start: int = 0,
                      coeffs: list[int] | None = None) -> None:
    """Reduce v in place at the pivots of rows[start:], in order, by
    floor(v[p] / r[p]) times each row r with pivot p; coeffs[i], when given,
    records the quotient of row i. The one loop that reduces by echelon
    rows, whose pivot columns increase and whose pivots are positive."""
    width = len(v)
    for i in range(start, len(pivots)):
        p, r = pivots[i], rows[i]
        q = v[p] // r[p]
        if q:
            if coeffs is not None:
                coeffs[i] = q
            for k in range(p, width):
                if r[k]:
                    v[k] -= q * r[k]


def _reduce_above_pivots(rows: list[list[int]], pivots) -> None:
    """Bring the entries above each pivot of echelon rows into [0, pivot),
    in place, which makes them the Hermite form of their span: top down,
    each row is reduced by the rows below it as they are stored."""
    for i, row in enumerate(rows):
        _reduce_at_pivots(row, rows, pivots, i + 1)


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------


class Lattice:
    """A sublattice of Z^n in canonical Hermite form.

    basis_rows holds one generator per row, rows in echelon position with
    positive pivots and reduced entries above pivots; two lattices are equal
    as subgroups of Z^n iff their basis_rows tuples are equal. The column
    oriented view (generators as columns of an IntMatrix) is available as
    .basis for callers that think in terms of matrices acting on coordinates.
    """

    __slots__ = ("ambient_rank", "basis_rows", "_pivots")

    def __init__(self, ambient_rank: int, basis_rows):
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "basis_rows", tuple(tuple(r) for r in basis_rows))
        pivots = []
        for row in self.basis_rows:
            for j, a in enumerate(row):
                if a:
                    pivots.append(j)
                    break
        object.__setattr__(self, "_pivots", tuple(pivots))

    def __setattr__(self, *args):
        raise AttributeError("Lattice is immutable")

    @classmethod
    def _trusted(cls, ambient_rank: int, rows: tuple, pivots: tuple) -> "Lattice":
        """Wrap Hermite rows, a tuple of int tuples, and the tuple of their
        pivot columns, without copying the rows or finding the pivots.

        Only for rows this module read off an echelon itself: __init__
        copies whatever arrives from outside and finds its pivots.
        """
        lat = object.__new__(cls)
        object.__setattr__(lat, "ambient_rank", ambient_rank)
        object.__setattr__(lat, "basis_rows", rows)
        object.__setattr__(lat, "_pivots", pivots)
        return lat

    @classmethod
    def from_rows(cls, ambient_rank: int, rows) -> "Lattice":
        ech = _Echelon(ambient_rank)
        for row in rows:
            ech.add(row)
        return cls._trusted(ambient_rank, *ech.canonical())

    @classmethod
    def zero(cls, ambient_rank: int) -> "Lattice":
        return cls(ambient_rank, ())

    @classmethod
    def full(cls, ambient_rank: int) -> "Lattice":
        """Z^n; the identity rows are already its Hermite form."""
        return cls._trusted(ambient_rank, IntMatrix.identity(ambient_rank).entries,
                            tuple(range(ambient_rank)))

    @property
    def rank(self) -> int:
        return len(self.basis_rows)

    @property
    def basis(self) -> IntMatrix:
        return IntMatrix._trusted_columns(self.basis_rows, self.ambient_rank)

    def _reduce(self, vec) -> tuple[list[int], list[int]]:
        """Reduce vec by the basis; returns (remainder, coefficients)."""
        v = list(vec)
        if len(v) != self.ambient_rank:
            raise ValueError("vector length differs from the ambient rank")
        coeffs = [0] * len(self.basis_rows)
        _reduce_at_pivots(v, self.basis_rows, self._pivots, 0, coeffs)
        return v, coeffs

    def contains(self, vec) -> bool:
        return not any(self._reduce(vec)[0])

    def coordinate_matrix(self, vectors) -> IntMatrix | None:
        """The coordinates of the vectors as the columns of a
        rank x len(vectors) matrix, or None if one is not a member."""
        cols = []
        for vec in vectors:
            v, coeffs = self._reduce(vec)
            if any(v):
                return None
            cols.append(coeffs)
        return IntMatrix._trusted_columns(cols, self.rank)

    def __add__(self, other: "Lattice") -> "Lattice":
        if self.ambient_rank != other.ambient_rank:
            raise ValueError("ambient rank mismatch")
        return Lattice.from_rows(self.ambient_rank, self.basis_rows + other.basis_rows)

    def __eq__(self, other):
        return (isinstance(other, Lattice)
                and self.ambient_rank == other.ambient_rank
                and self.basis_rows == other.basis_rows)

    def __hash__(self):
        return hash((self.ambient_rank, self.basis_rows))

    def __repr__(self):
        return f"Lattice(rank {self.rank} in Z^{self.ambient_rank})"


def block_diagonal_lattice(parts: list[Lattice]) -> Lattice:
    """Direct sum of lattices placed on consecutive coordinate blocks.

    The Hermite forms of the parts, placed side by side, are already the
    Hermite form of the sum, since no row meets another block's pivots.
    """
    total = sum(p.ambient_rank for p in parts)
    rows, pivots, offset = [], [], 0
    for p in parts:
        pad = (0,) * (total - offset - p.ambient_rank)
        rows += [(0,) * offset + r + pad for r in p.basis_rows]
        pivots += [offset + q for q in p._pivots]
        offset += p.ambient_rank
    return Lattice._trusted(total, tuple(rows), tuple(pivots))


def _kernel_part(ech: _Echelon, r: int) -> Lattice:
    """The canonical rows of ech with pivot at column r or later, cut to the
    columns from r on.

    Those rows span the meet of the row span with 0^r x Z^(width - r), and
    reduced above their pivots they are its Hermite form, so no second
    echelon pass runs. The reduction changes a row only by rows below it,
    so the rows above them are left out of it.
    """
    canon, pivots = ech.canonical(bisect_left(ech.pivots, r))
    return Lattice._trusted(ech.width - r, tuple(row[r:] for row in canon),
                            tuple(p - r for p in pivots))


def _preimage_echelon(columns: list[list[int]], L: Lattice) -> _Echelon:
    """The echelon of the rows (C e_i | e_i) and (g | 0), g in L, where the
    columns C e_i of C are given as lists of r = L.ambient_rank ints.

    Its rows with a pivot among the first r columns span C Z^n + L there;
    the rest span 0^r x {x : C x in L}. The columns are what the echelon
    reads, so a caller that builds a map column by column hands them over
    with no matrix around them.

    Row order: L's Hermite rows, padded with zeros, are an echelon already,
    so they seed it as its first rows and pivots with no elimination. The
    columns then come in last to first. Each is reduced modulo L at once,
    and a dependency found at column i combines only with columns
    i+1..cols-1, so its kernel row leads at its own identity coordinate,
    left of every kernel pivot placed so far, and collides with none. The
    Hermite form, hence every result, does not depend on the order.
    """
    r, n = L.ambient_rank, len(columns)
    if any(len(col) != r for col in columns):
        raise ValueError("lattice ambient rank must equal matrix row count")
    # the width of a kernel of [C | -L], so the cap reaches as far as that
    _check_width(r + n + L.rank)
    ech = _Echelon(r + n)
    zeros = [0] * n
    ech.rows = [list(g) + zeros for g in L.basis_rows]
    ech.pivots = list(L._pivots)
    for i in range(n - 1, -1, -1):
        row = columns[i] + zeros
        row[r + i] = 1
        ech.add(row)
    return ech


def preimage_lattice(columns: list[list[int]], L: Lattice) -> Lattice:
    """{x in Z^n : C x in L} for the map C whose n columns, each a list in
    Z^r with r = L.ambient_rank, are given, as image_and_preimage takes
    them: a caller that builds a map column by column builds no matrix."""
    return _kernel_part(_preimage_echelon(columns, L), L.ambient_rank)


def image_and_preimage(columns: list[list[int]], L: Lattice) -> tuple[Lattice, Lattice]:
    """(C Z^n + L, {x in Z^n : C x in L}) from one echelon pass, for the
    map C whose n columns, each a list in Z^r with r = L.ambient_rank, are
    given.

    The rows of _preimage_echelon with a pivot among the first r columns,
    cut to those columns and reduced above their pivots, are the Hermite
    form of C Z^n + L, and the rows below them give the preimage as in
    preimage_lattice.
    """
    r = L.ambient_rank
    ech = _preimage_echelon(columns, L)
    split = bisect_left(ech.pivots, r)
    return Lattice._trusted(r, *ech.canonical(0, split, r)), _kernel_part(ech, r)


def integer_kernel(A: IntMatrix) -> Lattice:
    """The full lattice {x in Z^cols : A x = 0}; always saturated."""
    return preimage_lattice(A.columns(), Lattice.zero(A.rows))


def saturate(L: Lattice) -> Lattice:
    """Smallest saturated overlattice: (L tensor Q) intersect Z^n."""
    n = L.ambient_rank
    if L.rank == 0:
        return L
    if L.rank == n:
        return Lattice.full(n)
    orth = integer_kernel(IntMatrix._trusted(L.basis_rows, n))
    return integer_kernel(IntMatrix._trusted(orth.basis_rows, n))


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


class SmithForm(NamedTuple):
    """The row transform and divisor chain of a Smith normal form.

    U is unimodular and U @ A @ V is diagonal with the divisors for some
    unimodular V, which is not kept: the columns of U @ A span the lattice
    of diag(divisors).
    """

    U: IntMatrix
    divisors: tuple[int, ...]


def _pivot_search(m, t, rows, cols):
    """Smallest |entry| among m[t:, t:cols], ties by lowest row then column."""
    best = None
    for i in range(t, rows):
        mi = m[i]
        for j in range(t, cols):
            a = mi[j]
            if a:
                a = -a if a < 0 else a
                if best is None or a < best[0]:
                    best = (a, i, j)
                    if a == 1:
                        return best
    return best


def _diagonalize(m: list[list[int]], cols: int, modulus: int = 0) -> int:
    """Clear the first cols columns of m in place to a diagonal with positive
    pivots m[0][0], ..., m[k-1][k-1]; return k.

    Pivot choice: smallest absolute value in the working submatrix, ties
    broken by lowest row index then lowest column index; the cross of each
    pivot is cleared by alternating row and column steps. Row operations run
    over whole rows, so an identity block appended after the first cols
    columns records the row transform; column operations touch only the
    first cols columns. The pivots need not form a divisor chain.

    With a modulus n, fold keeps every entry as its symmetric residue
    (x + half) % n - half in (-n/2, n/2]. When n Z^cols lies in the row
    span, reducing an entry mod n is a row operation, so Z^cols / span has
    invariant factors gcd(pivot, n), padded with n for every pivot past k.
    """
    rows = len(m)
    width = len(m[0]) if rows else cols
    n, half = modulus, (modulus - 1) // 2

    def fold(touched, columns):
        if n:
            for row in touched:
                for k in columns:
                    row[k] = (row[k] + half) % n - half

    fold(m, range(width))
    t, limit = 0, min(rows, cols)
    while t < limit:
        found = _pivot_search(m, t, rows, cols)
        if found is None:
            break
        _, pi, pj = found
        m[t], m[pi] = m[pi], m[t]
        if pj != t:
            for row in m:
                row[t], row[pj] = row[pj], row[t]
        if m[t][t] < 0:
            m[t] = [-a for a in m[t]]
        # alternate row/column clearing until the cross is zero; every gcd
        # step strictly shrinks |m[t][t]|, so this terminates. Rows and
        # columns before t are already clear, so every step starts at t.
        while True:
            for i in range(t + 1, rows):
                mt, mi = m[t], m[i]
                a, b = mt[t], mi[t]
                if not b:
                    continue
                if b % a == 0:
                    q = b // a
                    for k in range(t, width):
                        if mt[k]:
                            mi[k] -= q * mt[k]
                    fold((mi,), range(t, width))
                else:
                    g, x, y = xgcd(a, b)
                    ca, cb = a // g, b // g
                    m[t] = [x * p + y * s for p, s in zip(mt, mi)]
                    m[i] = [ca * s - cb * p for p, s in zip(mt, mi)]
                    fold((m[t], m[i]), range(t, width))
            mt, below = m[t], m[t:]
            for j in range(t + 1, cols):
                a, b = mt[t], mt[j]
                if not b:
                    continue
                if b % a == 0:
                    q = b // a
                    for mi in below:
                        if mi[t]:
                            mi[j] -= q * mi[t]
                else:
                    g, x, y = xgcd(a, b)
                    ca, cb = a // g, b // g
                    for mi in below:
                        p, s = mi[t], mi[j]
                        mi[t], mi[j] = x * p + y * s, ca * s - cb * p
                fold(below, (t, j))
            if not any(mt[t + 1:cols]) and not any(mi[t] for mi in below[1:]):
                break
        if m[t][t] < 0:
            m[t] = [-a for a in m[t]]
        t += 1
    return t


def smith_normal_form(A: IntMatrix) -> SmithForm:
    """Smith normal form with its row transform.

    Pivot choice as in _diagonalize. Divisors are positive and each divides
    the next.
    """
    rows, cols = A.rows, A.cols
    _check_width(max(rows, cols, 1))
    # U rides along as an identity block after the columns of A
    m = [list(row) + [0] * i + [1] + [0] * (rows - 1 - i)
         for i, row in enumerate(A.entries)]
    k = _diagonalize(m, cols)
    # enforce the divisor chain d_i | d_{i+1}: diag(a, b) ~ diag(g, ab/g)
    changed = True
    while changed:
        changed = False
        for i in range(k - 1):
            a, b = m[i][i], m[i + 1][i + 1]
            if b % a != 0:
                changed = True
                # col i += col i+1 puts b at (i+1, i); the row gcd step on
                # rows i, i+1 clears it and leaves y*b at (i, i+1), which
                # col i+1 -= (y*b/g) col i clears, changing nothing else
                g, x, y = xgcd(a, b)
                mt, mi = m[i], m[i + 1]
                mi[i] = b
                m[i] = [x * p + y * q for p, q in zip(mt, mi)]
                m[i + 1] = [(a // g) * q - (b // g) * p for p, q in zip(mt, mi)]
                m[i][i + 1] = 0
    divisors = tuple(m[i][i] for i in range(k))
    return SmithForm(IntMatrix._trusted(tuple(tuple(row[cols:]) for row in m), rows),
                     divisors)


def smith_coordinates(L: Lattice) -> tuple[IntMatrix, IntMatrix, tuple[int, ...]]:
    """Coordinates of Z^n / L without the generators a unit divisor kills.

    Returns (project, embed, divisors). project is the k x n block of rows of
    the Smith row transform U whose divisor is not 1, and embed the matching
    n x k block of columns of U^-1, so project @ embed is the identity.
    divisors are the divisors other than 1; they belong to the first kept
    coordinates in order, and the coordinates after them are free.
    """
    n = L.ambient_rank
    sf = smith_normal_form(L.basis)
    units = sf.divisors.count(1)
    Uinv = invert_unimodular(sf.U)
    project = IntMatrix._trusted(sf.U.entries[units:], n)
    embed = IntMatrix._trusted(tuple(row[units:] for row in Uinv.entries), n - units)
    return project, embed, sf.divisors[units:]


def invert_unimodular(M: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix."""
    n = M.rows
    if n != M.cols:
        raise ValueError("not square")
    ech = _Echelon(2 * n)
    # first to last: [M^T | I] has no kernel rows, so the last-to-first
    # order of _preimage_echelon gains nothing here
    ident = IntMatrix.identity(n).entries
    for col, e in zip(zip(*M.entries), ident):
        ech.add(col + e)
    canon, _ = ech.canonical()
    if tuple(row[:n] for row in canon) != ident:
        raise ValueError("matrix is not unimodular")
    # canon rows: (M^T | I) reduced, so right block is (M^T)^{-1} = (M^{-1})^T,
    # whose rows are the columns of M^{-1}
    return IntMatrix._trusted_columns([row[n:] for row in canon], n)


# ---------------------------------------------------------------------------
# finitely presented abelian groups
# ---------------------------------------------------------------------------


def _pivot_product(rows, pivots) -> int:
    """Product of the pivots of echelon rows; for k rows in Z^k, the index
    of their span."""
    return prod(row[p] for row, p in zip(rows, pivots))


def hermite_index(big: Lattice, small: Lattice) -> int:
    """[big : small] for Hermite lattices small <= big of equal rank.

    Such lattices share their pivot columns (Cohen, GTM 138, 2.4.3), so the
    index is the ratio of their pivot products. The caller checks the
    nesting and the ranks; a ratio that is not an integer raises.
    """
    index, rest = divmod(_pivot_product(small.basis_rows, small._pivots),
                         _pivot_product(big.basis_rows, big._pivots))
    if rest:
        raise ConsistencyError("pivot products of nested lattices do not divide")
    return index


def _chain_fix(divisors: list[int]) -> list[int]:
    """Make each entry divide the next; diag(a, b) ~ diag(gcd, lcm)."""
    changed = True
    while changed:
        changed = False
        for i in range(len(divisors) - 1):
            a, b = divisors[i], divisors[i + 1]
            if b % a != 0:
                g = gcd(a, b)
                divisors[i], divisors[i + 1] = g, a // g * b
                changed = True
    return divisors


def _modular_divisors(m: list[list[int]], annihilator: int) -> list[int]:
    """Invariant factors of Z^r modulo the row span of a nonsingular r x r
    matrix whose quotient has order `annihilator`.

    Since annihilator * Z^r lies inside the row span (adjugate identity),
    _diagonalize may keep every entry below the annihilator in absolute
    value, so the elimination runs in polynomial time regardless of how
    badly a fraction-free pass would blow up.
    """
    r = len(m)
    n = annihilator
    if n == 1:
        return [1] * r
    k = _diagonalize(m, r, n)
    out = _chain_fix([gcd(m[t][t], n) for t in range(k)] + [n] * (r - k))
    product = 1
    for d in out:
        product *= d
    if product != n:
        raise ConsistencyError(
            f"invariant factor product {product} does not match the lattice "
            f"index {n}"
        )
    return out


class PresentedAbelianGroup:
    """Z^k / L for a relation lattice L in Z^k, held in Hermite form."""

    __slots__ = ("relations", "_snf", "_torsion")

    def __init__(self, relations: Lattice):
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "_snf", None)
        object.__setattr__(self, "_torsion", None)

    def __setattr__(self, *args):
        raise AttributeError("PresentedAbelianGroup is immutable")

    @classmethod
    def free(cls, rank: int) -> "PresentedAbelianGroup":
        return cls(Lattice.zero(rank))

    @property
    def generator_count(self) -> int:
        return self.relations.ambient_rank

    def _torsion_relations(self) -> Lattice:
        """A full-rank lattice whose quotient is the torsion of Z^k / L,
        memoised: the Hermite form of the k columns of L's c Hermite rows.

        With those rows C = U D V in Smith form, the column span of C is U
        times that of diag(d), so Z^c over it is the sum of the Z/d_i, as
        is the torsion of Z^k over the row span: one echelon pass, with no
        saturation, gives the torsion order as its pivot product and the
        invariant factors. When L has full rank it is its own answer.
        """
        if self._torsion is None:
            L = self.relations
            if L.rank < self.generator_count:
                L = Lattice.from_rows(L.rank, zip(*L.basis_rows))
            object.__setattr__(self, "_torsion", L)
        return self._torsion

    def _compute_invariant_factors(self) -> tuple[int, ...]:
        # The torsion relations are full rank and in Hermite form, so row i
        # has its pivot in column i. A unit pivot has zeros above it, and its
        # row only kills its own generator: drop those rows with their
        # columns. The rest is eliminated modulo the torsion order, which
        # keeps every entry below it, where a fraction-free elimination can
        # blow up exponentially.
        rows = self._torsion_relations().basis_rows
        keep = [i for i, row in enumerate(rows) if row[i] != 1]
        m = [[rows[i][j] for j in keep] for i in keep]
        index = prod(m[t][t] for t in range(len(keep)))
        return (1,) * (len(rows) - len(keep)) + tuple(_modular_divisors(m, index))

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        if self._snf is None:
            object.__setattr__(self, "_snf",
                               self._compute_invariant_factors())
        return self._snf

    @property
    def torsion_divisors(self) -> tuple[int, ...]:
        """Nontrivial invariant factors, each dividing the next."""
        return tuple(d for d in self.invariant_factors if d != 1)

    @property
    def free_rank(self) -> int:
        return self.generator_count - self.relations.rank

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        return None if self.free_rank else self.torsion_order()

    def torsion_order(self) -> int:
        """The order of the torsion, read off the pivots of its relations."""
        C = self._torsion_relations()
        return _pivot_product(C.basis_rows, C._pivots)

    def invariants(self) -> tuple[int, tuple[int, ...]]:
        """(free rank, torsion divisors); equal iff the groups are isomorphic."""
        return (self.free_rank, self.torsion_divisors)

    def __repr__(self):
        parts = [f"Z/{d}" for d in self.torsion_divisors]
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}")
        return " + ".join(parts) if parts else "0"


def subquotient_group(U: Lattice, V: Lattice) -> PresentedAbelianGroup:
    """U/V for nested lattices V <= U <= Z^n, presented on U's basis: the
    relation lattice is spanned by the coordinates of V's basis rows.

    Both are Hermite forms, so each pivot column of V is one of U's, and the
    coordinates of V's rows in U's basis are echelon rows already: their
    leading indices increase strictly, and each leading entry is a ratio of
    positive pivots. Reducing above those pivots gives the Hermite form of
    the relation lattice without a second echelon pass. When V equals U the
    relation lattice is all of Z^k.
    """
    if U.ambient_rank != V.ambient_rank:
        raise ValueError("not a subquotient: ambient ranks differ")
    k = U.rank
    if V.basis_rows == U.basis_rows:
        return PresentedAbelianGroup(Lattice.full(k))
    coords = []
    for vec in V.basis_rows:
        v, c = U._reduce(vec)
        if any(v):
            raise ValueError("not a subquotient: a generator of V lies outside U")
        coords.append(c)
    pivots = tuple(bisect_left(U._pivots, p) for p in V._pivots)
    _reduce_above_pivots(coords, pivots)
    return PresentedAbelianGroup(Lattice._trusted(k, tuple(map(tuple, coords)), pivots))


# ---------------------------------------------------------------------------
# homomorphisms and the q-index
# ---------------------------------------------------------------------------


class GroupHom:
    """A homomorphism of presented abelian groups, given on generators.

    matrix has shape (target generators) x (source generators) and must carry
    the source relation lattice into the target one, which is checked on
    its basis rows.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: PresentedAbelianGroup, target: PresentedAbelianGroup,
                 matrix: IntMatrix):
        if matrix.rows != target.generator_count or matrix.cols != source.generator_count:
            raise ValueError("hom matrix shape mismatch")
        for j, row in enumerate(source.relations.basis_rows):
            if not target.relations.contains(matrix.apply(row)):
                raise ValueError(
                    f"not a homomorphism: relation row {j} maps outside the target relations"
                )
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, *args):
        raise AttributeError("GroupHom is immutable")

    def __repr__(self):
        return f"GroupHom({self.source!r} -> {self.target!r})"


def map_orders(columns: list[list[int]], target: Lattice, target_relations: Lattice,
               source_relations: Lattice) -> tuple[int | None, int | None]:
    """(|cokernel|, |kernel|), each None when infinite, of the map
    Z^k / source_relations -> target / target_relations given by its k
    columns in the target's ambient Z^r: the reader of every index reglab
    reports. One pass of image_and_preimage gives the image plus the target
    relations and the preimage P of those relations; once the image is
    checked to lie in the target and the source relations in P, the orders
    are [target : image] and [P : source_relations] (hermite_index) where
    the ranks agree.
    """
    image, pre = image_and_preimage(columns, target_relations)
    if not all(map(target.contains, image.basis_rows)):
        raise ConsistencyError("induced map leaves the target fixed points or cycles")
    if not all(map(pre.contains, source_relations.basis_rows)):
        raise ConsistencyError("induced map does not carry relations into relations")
    cok = hermite_index(target, image) if image.rank == target.rank else None
    ker = hermite_index(pre, source_relations) if pre.rank == source_relations.rank else None
    return cok, ker


def qindex(f: GroupHom) -> Fraction | None:
    """|cokernel| / |kernel|, or None when either side is infinite."""
    cok, ker = map_orders(f.matrix.columns(), Lattice.full(f.target.generator_count),
                          f.target.relations, f.source.relations)
    return None if cok is None or ker is None else Fraction(cok, ker)


def _diagonal_group(divisors: tuple[int, ...]) -> PresentedAbelianGroup:
    """Z^t / diag(divisors), for divisors > 1; diag(d) is its own Hermite form."""
    t = len(divisors)
    rows = tuple((0,) * i + (d,) + (0,) * (t - 1 - i) for i, d in enumerate(divisors))
    return PresentedAbelianGroup(Lattice._trusted(t, rows, tuple(range(t))))


def smith_blocks(F: IntMatrix, s: int, t: int) -> tuple[IntMatrix, IntMatrix]:
    """The upper-left t x s block of F and its lower-right block.

    F is a map Z^s / diag(d_s) + Z^(k - s) -> Z^t / diag(d_t) + Z^(m - t) on
    Smith coordinates. A torsion class lies in Z^s + 0, so the block from
    the source torsion to the target free coordinates is zero, and a
    nonzero one raises ConsistencyError: the two blocks are the map on
    torsion and the map between the free quotients.
    """
    rows = F.entries
    if any(any(row[:s]) for row in rows[t:]):
        raise ConsistencyError("the map carries torsion onto the free coordinates")
    return (IntMatrix._trusted(tuple(row[:s] for row in rows[:t]), s),
            IntMatrix._trusted(tuple(row[s:] for row in rows[t:]), F.cols - s))


def smith_split(f: GroupHom) -> tuple[GroupHom, GroupHom]:
    """(tors f, mt f): the induced maps on torsion subgroups, between their
    Smith presentations, and on maximal torsion-free quotients, between
    free groups, as smith_blocks of f on the Smith coordinates of its
    source and target."""
    proj_t, _, d_t = smith_coordinates(f.target.relations)
    _, embed_s, d_s = smith_coordinates(f.source.relations)
    tors, free = smith_blocks(proj_t @ f.matrix @ embed_s, len(d_s), len(d_t))
    return (GroupHom(_diagonal_group(d_s), _diagonal_group(d_t), tors),
            GroupHom(PresentedAbelianGroup.free(free.cols),
                     PresentedAbelianGroup.free(free.rows), free))


def dual_hom(f: GroupHom) -> GroupHom:
    """Hom(-, Z) dual; a map target* -> source* between free groups."""
    src_dual = integer_kernel(f.source.relations.basis.transpose())
    tgt_dual = integer_kernel(f.target.relations.basis.transpose())
    Ft = f.matrix.transpose()
    mat = src_dual.coordinate_matrix(Ft.apply(y) for y in tgt_dual.basis_rows)
    if mat is None:
        raise ValueError("transpose does not preserve the dual lattices")
    return GroupHom(PresentedAbelianGroup.free(tgt_dual.rank),
                    PresentedAbelianGroup.free(src_dual.rank), mat)
