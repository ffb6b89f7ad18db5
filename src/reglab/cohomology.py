"""Tate cohomology of finite groups acting on finitely generated modules.

Degrees -1..2 are computed directly; cyclic groups extend to all degrees with
period 2 and dihedral groups of twice-odd order with period 4. Everything is
a subquotient of an explicit cochain lattice, so orders and induced maps are
exact.

Degree conventions: H^0 is fixed points modulo norms, H^{-1} is the norm
kernel modulo the augmentation submodule and H^1 is crossed homomorphisms
modulo principal ones. Over dihedral groups of twice-odd order H^2 is H_1 of
the chain complex of the presentation <r, s | r^d, s^2, (sr)^2>, which is
H^{-2}, isomorphic to H^2 naturally in the module by 4-periodicity (K. Brown,
Cohomology of Groups, GTM 87, VI.4 and VI.9). Over the other non-cyclic
groups H^2 is H^1 of the cokernel of the coinduced embedding (which is
cohomologically trivial, so the shift is an isomorphism).
"""

from __future__ import annotations

from fractions import Fraction

from .arith import euler_phi, valuation
from .errors import ConsistencyError, DegreeWindowError, InputError
from .exactla import (
    GroupHom,
    IntMatrix,
    Lattice,
    PresentedAbelianGroup,
    block_diagonal_lattice,
    preimage_lattice,
    subquotient_group,
)
from .gmodules import (
    GModule,
    ModuleHom,
    Presentation,
    compress,
    fixed_points,
    norm_matrix,
    restrict,
)
from .groups import FiniteGroup, Subgroup


class TateGroup:
    """A Tate cohomology group, kept as a subquotient of a cochain lattice."""

    __slots__ = ("degree", "reduced_degree", "ambient_rank",
                 "numerator", "denominator", "group")

    def __init__(self, degree, reduced_degree, ambient_rank, numerator,
                 denominator, group):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "reduced_degree", reduced_degree)
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)
        object.__setattr__(self, "group", group)

    def __setattr__(self, *args):
        raise AttributeError("TateGroup is immutable")

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
# route recognition on the acting group
# ---------------------------------------------------------------------------


def _h1_route(GH: FiniteGroup):
    """('cyclic', t) | ('dihedral', r, s) | ('table',): how to compute H^1.

    The dihedral route needs order 2d with d odd and at least 3, generated by
    a rotation r of order d and a reflection s with s r s = r^{-1}; those
    groups have 4-periodic cohomology. Cyclic groups are 2-periodic.
    """
    if "h1route" in GH._cache:
        return GH._cache["h1route"]
    route = ("table",)
    t = next((x for x in range(GH.order) if GH.element_order(x) == GH.order), None)
    if t is not None:
        route = ("cyclic", t)
    else:
        h = GH.order
        d = h // 2
        if h % 2 == 0 and d % 2 == 1 and d >= 3:
            r = next((x for x in range(h) if GH.element_order(x) == d), None)
            if r is not None:
                rinv = GH.inverse[r]
                for s in range(h):
                    if GH.element_order(s) == 2 and GH.mul[GH.mul[s][r]][s] == rinv:
                        route = ("dihedral", r, s)
                        break
    GH._cache["h1route"] = route
    return route


def _reduce_degree(GH: FiniteGroup, i: int) -> int:
    route = _h1_route(GH)
    if route[0] == "cyclic":
        return 0 if i % 2 == 0 else -1
    if route[0] == "dihedral":
        return ((i + 1) % 4) - 1
    if -1 <= i <= 2:
        return i
    raise DegreeWindowError(
        f"degree {i} needs periodic cohomology; this group only supports -1..2"
    )


# ---------------------------------------------------------------------------
# cochain-level data per degree (module over the full acting group)
# ---------------------------------------------------------------------------


def _augmentation_rows(R: GModule):
    n = R.ambient_rank
    ident = IntMatrix.identity(n)
    rows = []
    for h in range(1, R.group.order):
        diff = R.action[h] - ident
        rows.extend(diff.columns())
    return rows


def _h0_data(R: GModule):
    GH = R.group
    F = fixed_points(R, GH.full_subgroup()).lattice
    N = norm_matrix(R, GH.full_subgroup())
    V = Lattice.from_rows(R.ambient_rank,
                          list(N.columns()) + list(R.relations.basis_rows))
    return R.ambient_rank, F, V


def _hm1_data(R: GModule):
    GH = R.group
    N = norm_matrix(R, GH.full_subgroup())
    U = preimage_lattice(N, R.relations)
    V = Lattice.from_rows(R.ambient_rank,
                          _augmentation_rows(R) + list(R.relations.basis_rows))
    return R.ambient_rank, U, V


def _presentation(GH: FiniteGroup, route):
    """Fox calculus over Z[GH] of <t | t^m> for ('cyclic', t), or of
    <r, s | r^d, s^2, (sr)^2> for ('dihedral', r, s).

    Returns (gens, fox): gens[x] is x - 1 and fox[w][x] the Fox derivative of
    relator w by generator x, each a group-ring element as (coefficient,
    element) pairs.
    """
    def powers(x):
        out = [0]
        while len(out) < GH.element_order(x):
            out.append(GH.mul[out[-1]][x])
        return [(1, g) for g in out]

    if route[0] == "cyclic":
        return [[(1, route[1]), (-1, 0)]], [[powers(route[1])]]
    _, r, s = route
    sr = GH.mul[s][r]
    return ([[(1, r), (-1, 0)], [(1, s), (-1, 0)]],
            [[powers(r), []], [[], powers(s)],
             [[(1, s), (1, GH.mul[sr][s])], powers(sr)]])


def _ring_matrix(R: GModule, table, involute: bool) -> IntMatrix:
    """The block matrix of a table of group-ring elements acting on R: sum
    a_g g becomes sum a_g A_g, or sum a_g A_{g^{-1}} when involuted."""
    n = R.ambient_rank
    A = [R.action[R.group.inverse[g] if involute else g].entries
         for g in range(R.group.order)]
    table = list(table)
    rows = [[sum(a * A[g][i][j] for a, g in elt) for elt in line for j in range(n)]
            for line in table for i in range(n)]
    return IntMatrix(rows, cols=len(table[0]) * n)


def _presentation_data(R: GModule, homology: bool = False):
    # H^1 of the presentation's cochain complex M -> M^gens -> M^relators, or
    # with homology H_1 of its chain complex M^relators -> M^gens -> M, whose
    # maps are the involuted ones
    n = R.ambient_rank
    gens, fox = _presentation(R.group, _h1_route(R.group))
    if homology:
        cyc, bnd = _ring_matrix(R, [gens], True), _ring_matrix(R, zip(*fox), True)
    else:
        cyc, bnd = _ring_matrix(R, fox, False), _ring_matrix(R, [[x] for x in gens], False)
    k = 1 if homology else len(fox)
    U = preimage_lattice(cyc, block_diagonal_lattice([R.relations] * k))
    rel = block_diagonal_lattice([R.relations] * len(gens))
    V = Lattice.from_rows(len(gens) * n, list(bnd.columns()) + list(rel.basis_rows))
    return len(gens) * n, U, V


def _h1_data_table(R: GModule):
    # variables c_g for g != 1; constraints c_{sx} - c_s - A_s c_x in L for
    # s in a generating set and every x (enough by induction on word length)
    GH = R.group
    n = R.ambient_rank
    h = GH.order
    w = (h - 1) * n
    gens = GH.full_subgroup().generators()
    rows = []
    block_count = 0
    for s in gens:
        As = R.action[s]
        for x in range(1, h):
            sx = GH.mul[s][x]
            block = [[0] * w for _ in range(n)]
            if sx != 0:
                off = (sx - 1) * n
                for i in range(n):
                    block[i][off + i] += 1
            off = (s - 1) * n
            for i in range(n):
                block[i][off + i] -= 1
            off = (x - 1) * n
            for i in range(n):
                for j in range(n):
                    block[i][off + j] -= As.entries[i][j]
            rows.extend(block)
            block_count += 1
    C = IntMatrix(rows, cols=w)
    target = block_diagonal_lattice([R.relations] * block_count)
    U = preimage_lattice(C, target)
    ident = IntMatrix.identity(n)
    bnd = R.action[1] - ident
    for g in range(2, h):
        bnd = bnd.vstack(R.action[g] - ident)
    relblocks = block_diagonal_lattice([R.relations] * (h - 1))
    V = Lattice.from_rows(w, list(bnd.columns()) + list(relblocks.basis_rows))
    return w, U, V


def _h1_data(R: GModule):
    if _h1_route(R.group)[0] == "table":
        return _h1_data_table(R)
    return _presentation_data(R)


class _ShiftData:
    """Dimension shift 0 -> M -> Z[H] (x) M -> Q -> 0 with Q compressed."""

    __slots__ = ("pres0", "qpres", "blocks")

    def __init__(self, pres0: Presentation, qpres: Presentation, blocks: int):
        object.__setattr__(self, "pres0", pres0)
        object.__setattr__(self, "qpres", qpres)
        object.__setattr__(self, "blocks", blocks)

    def __setattr__(self, *args):
        raise AttributeError("_ShiftData is immutable")


def _coinduced_action(GH: FiniteGroup, n0: int):
    h = GH.order
    action = []
    for g in range(h):
        rows = [[0] * (h * n0) for _ in range(h * n0)]
        for b in range(h):
            a = GH.mul[g][b]
            for i in range(n0):
                rows[a * n0 + i][b * n0 + i] = 1
        action.append(IntMatrix(rows))
    return action


def _shift_data(R: GModule) -> _ShiftData:
    if "shift" in R._cache:
        return R._cache["shift"]
    GH = R.group
    pres0 = compress(R)
    M0 = pres0.module
    n0 = M0.ambient_rank
    h = GH.order
    action = _coinduced_action(GH, n0)
    rel_rows = list(block_diagonal_lattice([M0.relations] * h).basis_rows)
    # the embedding m -> sum_h  h (x) A_{h^{-1}} m; its columns become relations
    iota_blocks = [M0.action[GH.inverse[a]] for a in range(h)]
    iota = iota_blocks[0]
    for blk in iota_blocks[1:]:
        iota = iota.vstack(blk)
    rel_rows += list(iota.columns())
    Q = GModule(GH, h * n0, Lattice.from_rows(h * n0, rel_rows), action)
    qpres = compress(Q)
    data = _ShiftData(pres0, qpres, h)
    R._cache["shift"] = data
    return data


# ---------------------------------------------------------------------------
# the public computation
# ---------------------------------------------------------------------------


def _trivial_tate(degree: int) -> TateGroup:
    zero = Lattice.zero(0)
    return TateGroup(degree, degree, 0, zero, zero, PresentedAbelianGroup(0))


def tate(M: GModule, H: Subgroup, degree: int) -> TateGroup:
    """The Tate cohomology group of H acting on M in the given degree.

    Degrees outside -1..2 are reduced by periodicity when H is cyclic
    (period 2) or dihedral of twice-odd order (period 4); otherwise they
    raise DegreeWindowError. Degree 2 is H_1 of the presentation complex
    when H is dihedral, and H^1 of the coinduced shift when H is neither
    dihedral nor cyclic.
    """
    if H.group != M.group:
        raise InputError("subgroup belongs to a different group")
    if H.order == 1:
        return _trivial_tate(degree)
    R = restrict(M, H)
    j = _reduce_degree(R.group, degree)
    key = ("tate", j)
    if key in R._cache:
        cached = R._cache[key]
        if cached.degree == degree:
            return cached
        return TateGroup(degree, j, cached.ambient_rank, cached.numerator,
                         cached.denominator, cached.group)
    if j == 0:
        w, U, V = _h0_data(R)
    elif j == -1:
        w, U, V = _hm1_data(R)
    elif j == 1:
        w, U, V = _h1_data(R)
    elif _h1_route(R.group)[0] == "dihedral":
        w, U, V = _presentation_data(R, homology=True)
    else:
        Qc = _shift_data(R).qpres.module
        w, U, V = _h1_data(Qc)
    out = TateGroup(degree, j, w, U, V, subquotient_group(U, V))
    R._cache[key] = out
    return out


def herbrand(M: GModule, H: Subgroup) -> Fraction:
    """Herbrand quotient |H^0| / |H^{-1}| of H acting on M."""
    return Fraction(tate(M, H, 0).order(), tate(M, H, -1).order())


def rosen_valuation(M: GModule, H: Subgroup, ell: int) -> int:
    """Valuation at a prime ell of the Herbrand quotient of a cyclic H.

    Computed purely from fixed-point ranks: with ell^t exactly dividing |H|
    and r(d) the rank of the fixed points of the order-d subgroup,

        v = t * r(q) - sum_{i=1..t} (r(q/ell^i) - r(q/ell^{i-1})) / phi(ell^i).

    Every term in the sum must divide exactly; a remainder means the ranks
    are inconsistent and raises ConsistencyError.
    """
    if H.group != M.group:
        raise InputError("subgroup belongs to a different group")
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
        den = euler_phi(ell**i)
        if num % den:
            raise ConsistencyError(
                f"fixed-point rank jump {num} is not divisible by {den}"
            )
        v -= num // den
    return v


# ---------------------------------------------------------------------------
# induced maps on cohomology
# ---------------------------------------------------------------------------


def _subquotient_hom(src: TateGroup, tgt: TateGroup, W: IntMatrix) -> GroupHom:
    cols = []
    for u in src.numerator.basis_rows:
        img = W.apply(u)
        coords = tgt.numerator.coordinates(img)
        if coords is None:
            raise ConsistencyError("induced map left the target cocycle lattice")
        cols.append(coords)
    mat = IntMatrix.from_columns(cols, rows=tgt.numerator.rank)
    return GroupHom(src.group, tgt.group, mat)


def _h1_cochain_matrix(GH: FiniteGroup, F: IntMatrix) -> IntMatrix:
    route = _h1_route(GH)
    if route[0] == "cyclic":
        return F
    if route[0] == "dihedral":
        z1 = IntMatrix.zeros(F.rows, F.cols)
        return F.hstack(z1).vstack(z1.hstack(F))
    return IntMatrix.identity(GH.order - 1).kron(F)


def induced_hom(f: ModuleHom, H: Subgroup, degree: int) -> GroupHom:
    """The map on Tate cohomology in the given degree induced by f."""
    if H.order == 1:
        triv = PresentedAbelianGroup(0)
        return GroupHom(triv, triv, IntMatrix.zeros(0, 0))
    RS = restrict(f.source, H)
    RT = restrict(f.target, H)
    GH = RS.group
    j = _reduce_degree(GH, degree)
    src = tate(f.source, H, j)
    tgt = tate(f.target, H, j)
    if j in (-1, 0):
        W = f.matrix
    elif j == 1 or _h1_route(GH)[0] == "dihedral":
        W = _h1_cochain_matrix(GH, f.matrix)
    else:
        W = _shift_cochain_matrix(f, RS, RT)
    return _subquotient_hom(src, tgt, W)


def _shift_cochain_matrix(f: ModuleHom, RS: GModule, RT: GModule) -> IntMatrix:
    """The map f induces on H^1 cochains of the shift modules of RS and RT."""
    ss, st = _shift_data(RS), _shift_data(RT)
    F0 = st.pres0.project @ f.matrix @ ss.pres0.embed
    WQ = st.qpres.project @ IntMatrix.identity(ss.blocks).kron(F0) @ ss.qpres.embed
    return _h1_cochain_matrix(RS.group, WQ)


def induced_kernel_order(f: ModuleHom, H: Subgroup, degree: int) -> int:
    n = induced_hom(f, H, degree).kernel_group().order()
    if n is None:
        raise ConsistencyError("kernel of an induced map came out infinite")
    return n
