"""Tate cohomology of finite groups acting on finitely generated modules.

Every integer degree is computed; cyclic groups fold degrees by period 2
and dihedral groups of twice-odd order by period 4. Everything is a
subquotient of an explicit cochain lattice, so orders and induced maps are
exact. The cochains are taken on the minimal presentation of the module
whenever it drops a coordinate, so a TateGroup's lattices live there.

Degree conventions: every degree j is the homology at the middle of three
terms of Hom_H(F, M) over a complete resolution F of Z (K. Brown, Cohomology
of Groups, GTM 87, VI.3), between the map out of degree j - 1 and the map
out of degree j, the upper map of j (_upper). For j >= 0 that is d_{j+1}
of a small free resolution built from the group table, whose d1 sends e_x
to x - 1 over the generators x of H and whose modules of relations are
spanned greedily by translates of kernel vectors (Brown, III.1); it is
built only as far as the degrees asked need. For j = -1 it is the norm N,
so H^0 is fixed points modulo norms and H^{-1} the norm kernel modulo
I_H M, which the x - 1 span since gx - 1 = g(x - 1) + (g - 1). For
j <= -2 it is the transpose of d_{-j-1} with every g turned into g^{-1},
so H^j is H_{-j-1} of F (x)_H M. Cyclic groups fold every degree to -1
or 0, so degree -2 reads d1 itself, and dihedral groups of twice-odd order
fold to -1..2, with H^2 read as H^{-2} (Brown, VI.4 and VI.9).

Each upper map takes one echelon pass per module, which gives its preimage
of the relations, the cycles, and its image plus the relations
(exactla.image_and_preimage). The lower map of degree j is the upper map of
degree j - 1, so the same pass gives the boundaries of degree j; only a
lower map of degree <= -2 takes a Hermite pass of its own. Every map
reaches its pass as the list of its columns, which is what the echelon
reads, summed from the transposed action matrices with no matrix built
around them.

A map f induced on Tate groups is taken as columns too, the images under f
of the source cycles block by block, and exactla.map_orders reads its
kernel off them with no Kronecker matrix, coordinates or GroupHom.

A finite module of order prime to |H| has no Tate cohomology, since |H| and
|M| both annihilate it (Brown, III.10). Once the degree is reduced, tate
presents such a group as the zero group on Z^0 with no cochains, as over
the trivial subgroup, and a map induced from or to it is 0.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd
from operator import add, sub
from typing import NamedTuple

from .arith import check_prime, valuation
from .errors import ConsistencyError, InputError
from .exactla import (
    GroupHom,
    IntMatrix,
    Lattice,
    PresentedAbelianGroup,
    _Echelon,
    block_diagonal_lattice,
    image_and_preimage,
    map_orders,
    preimage_lattice,
    subquotient_group,
)
from .gmodules import (
    GModule,
    ModuleHom,
    compress,
    fixed_points,
    restrict,
)
from .groups import FiniteGroup, Subgroup


class TateGroup(NamedTuple):
    """A Tate cohomology group, kept as a subquotient of a cochain lattice,
    or as the zero group on Z^0 where it is known to vanish first."""

    degree: int
    reduced_degree: int
    numerator: Lattice
    denominator: Lattice
    group: PresentedAbelianGroup

    def order(self) -> int:
        n = self.group.order()
        if n is None:
            raise ConsistencyError(
                "Tate group came out infinite; the module action must be broken"
            )
        return n

    def invariants(self):
        return self.group.invariants()

    def __repr__(self):
        return f"TateGroup(degree={self.degree}, order={self.group.order()})"


# ---------------------------------------------------------------------------
# period recognition on the acting group
# ---------------------------------------------------------------------------


def _period(GH: FiniteGroup):
    """2 for cyclic groups, 4 for dihedral groups of twice-odd order, None
    otherwise: the period by which _reduce_degree folds degrees.

    The dihedral case needs order 2d with d odd and at least 3, generated by
    a rotation r of order d and a reflection s with s r s = r^{-1}.
    """
    if "period" in GH._cache:
        return GH._cache["period"]
    period = None
    h, d = GH.order, GH.order // 2
    if any(GH.element_order(x) == h for x in range(h)):
        period = 2
    elif h % 2 == 0 and d % 2 == 1 and d >= 3:
        r = next((x for x in range(h) if GH.element_order(x) == d), None)
        if r is not None:
            rinv = GH.inverse[r]
            if any(GH.element_order(s) == 2 and GH.mul[GH.mul[s][r]][s] == rinv
                   for s in range(h)):
                period = 4
    GH._cache["period"] = period
    return period


def _reduce_degree(GH: FiniteGroup, i: int) -> int:
    """i folded by the period of GH, or i itself when GH has none found."""
    period = _period(GH)
    if period == 2:
        return 0 if i % 2 == 0 else -1
    if period == 4:
        return ((i + 1) % 4) - 1
    return i


# ---------------------------------------------------------------------------
# cochain-level data per degree (module over the full acting group)
# ---------------------------------------------------------------------------


def _resolution(GH: FiniteGroup, length: int):
    """[d1, ..., d_length] of a free resolution ... -> F1 -> F0 = Z[GH] -> Z.

    Each d_j is a table of group-ring elements with one line per free
    generator of F_j, its image in F_{j-1}. d1 sends e_x to x - 1 for the
    generators x of GH. The lines of d_{j+1} are Z[GH]-generators of the
    integer kernel of d_j, chosen greedily: a kernel basis row joins only if
    the Z-span of the translates of those chosen so far misses it, so at the
    end that span is the kernel and the complex is exact. The resolution is
    memoised on GH and extended only as far as a caller asks; each map
    depends only on the one before it, so the maps do not depend on the
    order of the calls.
    """
    d = GH._cache.get("resolution")
    if d is None:
        d = GH._cache["resolution"] = [
            [[[(1, x), (-1, 0)]] for x in GH.full_subgroup().generators()]]
    h, mul = GH.order, GH.mul
    while len(d) < length:
        k, k0 = len(d[-1]), len(d[-1][0])
        # d_j on the Z-basis g e_i of F_j, coordinate i*h + g
        cols = []
        for line in d[-1]:
            for g in range(h):
                col = [0] * (h * k0)
                for c, elt in enumerate(line):
                    for a, t in elt:
                        col[c * h + mul[g][t]] += a
                cols.append(col)
        span = _Echelon(h * k)
        gens = []
        for v in preimage_lattice(cols, Lattice.zero(h * k0)).basis_rows:
            if span.contains(v):
                continue
            for s in range(h):
                w = [0] * (h * k)
                for i in range(k):
                    for g in range(h):
                        w[i * h + mul[s][g]] = v[i * h + g]
                span.add(w)
            gens.append([[(v[i * h + g], g) for g in range(h) if v[i * h + g]]
                         for i in range(k)])
        d.append(gens)
    return d[:length]


def _upper(GH: FiniteGroup, j: int):
    """(k, table): the map out of the middle term of degree j on the
    complete resolution (Brown, VI.3), as a table of group-ring elements
    whose columns _ring_columns gives, and the degree k whose pass it is.

    For j >= 0 it is d_{j+1} of _resolution, for j = -1 the norm N, and for
    j <= -2 the transpose of d_{-j-1} with every element g turned into
    g^{-1}, the map of F (x)_GH M. The lower map of degree j is the upper
    map of degree j - 1. Over a cyclic group j is folded by period 2 first,
    so degree -2 reads d1 itself: its one line x - 1 and the inverted
    x^{-1} - 1 = -x^{-1}(x - 1) have the same cycles and the same image.
    """
    if _period(GH) == 2:
        j = _reduce_degree(GH, j)
    if j >= 0:
        return j, _resolution(GH, j + 1)[j]
    if j == -1:
        return j, [[[(1, g) for g in range(GH.order)]]]
    inverse = GH.inverse
    return j, [[[(a, inverse[g]) for a, g in e] for e in line]
               for line in zip(*_resolution(GH, -j - 1)[-j - 2])]


def _ring_columns(R: GModule, table) -> list[list[int]]:
    """The columns of the block matrix of a table of group-ring elements
    acting on R, each a list, as the preimage echelon reads them: line l
    and entry c of the table give block (l, c), in which sum a_g g becomes
    sum a_g A_g.

    Column j of block column c, read down the lines, is row j of
    sum a_g A_g^T over each line's entry c, so it is summed from the rows
    of the transposed action matrices, which are memoised on R.
    """
    if "transposed" not in R._cache:
        R._cache["transposed"] = [A.transpose().entries for A in R.action]
    AT = R._cache["transposed"]
    n = R.ambient_rank
    zero = (0,) * n
    columns = []
    for c in range(len(table[0])):
        for j in range(n):
            col = []
            for line in table:
                acc = zero
                for a, g in line[c]:
                    # a unit coefficient adds or subtracts the row at C level,
                    # and a first +1 term is the row itself
                    if a == 1:
                        acc = AT[g][j] if acc is zero else list(map(add, acc, AT[g][j]))
                    elif a == -1:
                        acc = list(map(sub, acc, AT[g][j]))
                    elif a:
                        acc = [x + a * y for x, y in zip(acc, AT[g][j])]
                col += acc
            columns.append(col)
    return columns


def _map_pass(R: GModule, k: int, table):
    """(C M^a + L^b, {c : C c in L^b}) for the block matrix C : M^a -> M^b of
    the table acting on R, with L the relations of R: one echelon pass
    through image_and_preimage, memoised on R under the degree k whose
    upper map the table is."""
    key = ("pass", k)
    if key not in R._cache:
        L = block_diagonal_lattice([R.relations] * len(table))
        R._cache[key] = image_and_preimage(_ring_columns(R, table), L)
    return R._cache[key]


def _complex_data(R: GModule, j: int):
    """(U, V) of reduced degree j on M^a -lower-> M^k -upper-> M^b: the
    cycles U = {c : upper c in L^b} and the boundaries V = lower M^a + L^k
    in M^k, with L the relations of R. Over a group of period 4 degree 2
    is read as -2, isomorphic to it naturally in the module (Brown, VI.9).

    U is the preimage half of the pass of _upper(GH, j). The lower map is
    _upper(GH, j - 1), so V is the image half of its pass when it belongs
    to a degree k >= -1. A lower map of degree k <= -2 is the upper map of
    a degree that is seldom asked, so it takes one Hermite pass of its own
    instead of a preimage pass, and the work does not depend on which
    degrees were asked before.
    """
    GH = R.group
    if j == 2 and _period(GH) == 4:
        j = -2
    U = _map_pass(R, *_upper(GH, j))[1]
    k, lower = _upper(GH, j - 1)
    if k >= -1:
        return U, _map_pass(R, k, lower)[0]
    rel = block_diagonal_lattice([R.relations] * len(lower))
    return U, Lattice.from_rows(U.ambient_rank,
                                _ring_columns(R, lower) + list(rel.basis_rows))


# ---------------------------------------------------------------------------
# the public computation
# ---------------------------------------------------------------------------


def _zero_tate(degree: int, reduced_degree: int) -> TateGroup:
    """The zero group on Z^0, for a Tate group known to vanish."""
    zero = Lattice.zero(0)
    return TateGroup(degree, reduced_degree, zero, zero, PresentedAbelianGroup.free(0))


def _vanishes(M: GModule, H: Subgroup) -> bool:
    """Whether M is finite of order prime to |H|, so that every Tate group
    of H on M is 0. The order is read off M's own relations, with no
    minimal presentation."""
    return M.is_finite() and gcd(M.order(), H.order) == 1


def _minimal(M: GModule):
    """compress(M) if it drops a coordinate, that is if the relation entries
    have gcd 1, else None. A module that loses no coordinate keeps its basis:
    compressing it would only change basis and let the action entries grow."""
    if "minimal" not in M._cache:
        unit = gcd(*(x for row in M.relations.basis_rows for x in row)) == 1
        M._cache["minimal"] = compress(M) if unit else None
    return M._cache["minimal"]


def tate(M: GModule, H: Subgroup, degree: int) -> TateGroup:
    """The Tate cohomology group of H acting on M in the given degree.

    Degrees are reduced by periodicity when H is cyclic (period 2) or
    dihedral of twice-odd order (period 4), and kept over any other H, whose
    resolution grows with the degree until REGLAB_LIMIT_COLS raises
    ResourceLimitError. Every reduced degree is read off _complex_data.

    The group is an isomorphism invariant, so it is computed on the minimal
    presentation compress(M).module whenever that drops a coordinate, and
    the lattices of the TateGroup live in the coordinates of that module.

    A group known to vanish before any cochain is built, over the trivial
    subgroup or, once the degree is reduced, for M finite of order prime
    to |H| (Brown, III.10), is the zero group on Z^0; numerator and
    denominator are cycles and boundaries only where cochains are built.
    """
    if H.group != M.group:
        raise InputError("subgroup belongs to a different group")
    if H.order == 1:
        return _zero_tate(degree, degree)
    if _vanishes(M, H):
        return _zero_tate(degree, _reduce_degree(restrict(M, H).group, degree))
    pres = _minimal(M)
    R = restrict(pres.module if pres else M, H)
    j = _reduce_degree(R.group, degree)
    key = ("tate", j)
    if key not in R._cache:
        U, V = _complex_data(R, j)
        R._cache[key] = TateGroup(j, j, U, V, subquotient_group(U, V))
    c = R._cache[key]
    return c if c.degree == degree else c._replace(degree=degree)


def herbrand(M: GModule, H: Subgroup) -> Fraction:
    """Herbrand quotient |H^0| / |H^{-1}| of H acting on M."""
    return Fraction(tate(M, H, 0).order(), tate(M, H, -1).order())


def rosen_valuation(M: GModule, H: Subgroup, ell: int) -> int:
    """Valuation at a prime ell of the Herbrand quotient of a cyclic H.

    Computed purely from fixed-point ranks: with ell^t exactly dividing |H|
    and r(d) the rank of the fixed points of the order-d subgroup,

        v = t * r(q) - sum_{i=1..t} (r(q/ell^i) - r(q/ell^{i-1})) / phi(ell^i).

    Every term in the sum must divide exactly; a remainder means the ranks
    are inconsistent and raises ConsistencyError. An ell that is not a prime
    below 2^32 raises InputError, as it does in regulator.bounds_report.
    """
    if H.group != M.group:
        raise InputError("subgroup belongs to a different group")
    check_prime(ell)
    q = H.order
    G = M.group
    gen = next((x for x in H.elements if G.element_order(x) == q), None)
    if gen is None:
        raise InputError("Herbrand valuation by ranks needs a cyclic subgroup")
    t = valuation(q, ell)
    if t == 0:
        return 0

    def rank_fixed(d: int) -> int:
        power = G.power(gen, q // d)
        sub = Subgroup(G, G.closure([power]), validate=False)
        return fixed_points(M, sub).rank

    v = t * rank_fixed(q)
    for i in range(1, t + 1):
        num = rank_fixed(q // ell**i) - rank_fixed(q // ell**(i - 1))
        den = ell**(i - 1) * (ell - 1)  # phi(ell^i)
        if num % den:
            raise ConsistencyError(
                f"fixed-point rank jump {num} is not divisible by {den}"
            )
        v -= num // den
    return v


# ---------------------------------------------------------------------------
# induced maps on cohomology
# ---------------------------------------------------------------------------


def _induced_columns(f: ModuleHom, H: Subgroup, degree: int):
    """(src, tgt, columns): the Tate groups of f's source and target in the
    given degree, and the images of the Hermite basis rows of the source
    cycles under F = project_t @ f @ embed_s, which carries f into the
    presentations tate works on, applied block by block. columns is None
    when tate gave a side as the zero group on Z^0, with no cochains: f
    induces zero."""
    src, tgt = tate(f.source, H, degree), tate(f.target, H, degree)
    if not (src.numerator.ambient_rank and tgt.numerator.ambient_rank):
        return src, tgt, None
    F, ps, pt = f.matrix, _minimal(f.source), _minimal(f.target)
    if pt:
        F = pt.project @ F
    if ps:
        F = F @ ps.embed
    n = F.cols
    columns = [list(chain.from_iterable(F.apply(u[i:i + n]) for i in range(0, len(u), n)))
               for u in src.numerator.basis_rows]
    return src, tgt, columns


def induced_hom(f: ModuleHom, H: Subgroup, degree: int) -> GroupHom:
    """The map on Tate cohomology in the given degree induced by f, on the
    presentations of the two Tate groups."""
    src, tgt, columns = _induced_columns(f, H, degree)
    if columns is None:
        return GroupHom(src.group, tgt.group,
                        IntMatrix.zeros(tgt.group.generator_count, src.group.generator_count))
    mat = tgt.numerator.coordinate_matrix(columns)
    if mat is None:
        raise ConsistencyError("induced map leaves the target cycles")
    return GroupHom(src.group, tgt.group, mat)


def induced_kernel_order(f: ModuleHom, H: Subgroup, degree: int) -> int:
    """|ker| of induced_hom, read off its columns by exactla.map_orders; all
    of the source when a side vanishes."""
    src, tgt, columns = _induced_columns(f, H, degree)
    if columns is None:
        return src.order()
    n = map_orders(columns, tgt.numerator, tgt.denominator, src.group.relations)[1]
    if n is None:
        raise ConsistencyError("kernel of an induced map came out infinite")
    return n
