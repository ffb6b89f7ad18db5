"""Independent oracles used by the test suite.

Almost everything here is deliberately naive (enumeration, field arithmetic,
sympy) and shares no code with the production implementations it checks.
Some oracles reuse the production linear algebra. The preimage oracle takes
a kernel of [C | -L], projects it and puts it in Hermite form again, where
production reads the answer off one echelon pass. The Kronecker q-index
oracle at the end also reuses fixed points and tensor products, and differs
from the production q-index route only in working on P (x) M instead of
M^H. augmentation_all_tate builds degree -1 on the production lattices, but
spans the augmentation submodule by every group element, where production
takes the generators only. The Cayley-table oracles reuse the production
lattices and compress: table_tate takes H^1 on one cochain per group
element, and degree 2 as that H^1 of the coinduced shift module Q, where
production takes both from a small free resolution.
shift_tate takes the production H^1 of Q instead, which is narrow enough
for the larger dihedral groups, whose degree 2 production takes as H_1.
raw_tate and raw_induced_kernel_order run the production complex on M's own
coordinates, where production takes the minimal presentation whenever it
drops a coordinate. two_pass_complex_data takes the cycles and boundaries of
one degree by two eliminations, a preimage under the upper map and a Hermite
pass over the lower map's columns, where production reads the boundaries
off the pass that gives the cycles of the degree below. Its maps come from
ring_matrix, which builds them row by row from the action matrices, where
production sums the columns from their transposes, and it takes the dihedral
degree 2 from the transposes of d1 and d2 under g -> g^{-1} acting on the
matrices, where production inverts the elements of the tables.
forward_preimage_echelon keeps the row order that _preimage_echelon
replaced: the columns first to last, then L's rows, each through an
elimination step.
subgroups_by_fixpoint keeps the all-pairs closure fixpoint that
enumerate_subgroups replaced.
saturated_torsion_decomposition builds tors M and mt M through the
saturation sat(L) of the relations, the torsion module on its basis and the
free quotient as compress of Z^n / sat(L), where production slices both off
compress(M); it returns the basis of sat(L) and the projection onto the free
quotient's coordinates beside them. saturated_split splits a GroupHom the
same way, where production reads tors f and mt f as blocks on Smith
coordinates.
determinantal_divisors reads Smith divisors off gcds of minors, each minor
a cofactor expansion, where production eliminates. kernel_group and
cokernel_group present the kernel and cokernel of a GroupHom as groups, the
kernel as a subquotient of the preimage of the target relations.
qindex_via_groups takes the q-index as the orders of those two groups
through their Smith invariants, and the kernel order oracles of induced
maps read the kernel group's order, where production reads both orders off
Hermite pivots.
contains_lattice, compose, presented_from_divisors and zoo (the small groups
the structural tests run over) are tools the tests use.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, prod

from reglab import (
    FiniteGroup,
    GModule,
    GroupHom,
    IntMatrix,
    Lattice,
    ModuleHom,
    PresentedAbelianGroup,
    compress,
    direct_sum,
    fixed_points,
    induced_kernel_order,
    integer_kernel,
    permutation_module,
    preimage_lattice,
    qindex,
    restrict,
    saturate,
    subquotient_group,
    tate,
    tensor_product,
)
from reglab.cohomology import (
    TateGroup,
    _complex,
    _complex_data,
    _period,
    _reduce_degree,
    _resolution,
)
from reglab.exactla import _Echelon, block_diagonal_lattice, smith_coordinates
from reglab.gmodules import TorsionDecomposition, sublattice_action


def qindex_bruteforce(divisors_src, divisors_tgt, matrix) -> Fraction:
    """q-index of the map x -> matrix @ x between sum(Z/d_i) and sum(Z/e_j).

    Counts kernel elements by direct enumeration, so only usable for tiny
    groups. matrix is a list of rows, one per target coordinate.
    """
    src_size = 1
    for d in divisors_src:
        src_size *= d
    tgt_size = 1
    for e in divisors_tgt:
        tgt_size *= e
    kernel = 0
    images = set()
    for x in itertools.product(*(range(d) for d in divisors_src)):
        y = tuple(
            sum(matrix[j][i] * x[i] for i in range(len(x))) % divisors_tgt[j]
            for j in range(len(divisors_tgt))
        )
        if all(c == 0 for c in y):
            kernel += 1
        images.add(y)
    coker = tgt_size // len(images)
    return Fraction(coker, kernel)


def kernel_group(f: GroupHom) -> PresentedAbelianGroup:
    """ker f as the preimage of the target relations modulo the source ones."""
    K = preimage_lattice(f.matrix.columns(), f.target.relations)
    return subquotient_group(K, f.source.relations)


def cokernel_group(f: GroupHom) -> PresentedAbelianGroup:
    """coker f as the target generators modulo the image and the relations."""
    return PresentedAbelianGroup(Lattice.from_rows(
        f.target.generator_count,
        f.matrix.columns() + list(f.target.relations.basis_rows)))


def qindex_via_groups(f: GroupHom) -> Fraction | None:
    """|cokernel| / |kernel| as the orders of the two presented groups, each
    through its Smith invariants, where production reads both off one
    Hermite echelon."""
    def order(A):
        divisors = A.invariant_factors
        return prod(divisors) if len(divisors) == A.generator_count else None

    cok = order(cokernel_group(f))
    ker = order(kernel_group(f))
    if cok is None or ker is None:
        return None
    return Fraction(cok, ker)


def _cofactor_determinant(m) -> int:
    if not m:
        return 1
    return sum((-1) ** j * a * _cofactor_determinant([row[:j] + row[j + 1:] for row in m[1:]])
               for j, a in enumerate(m[0]) if a)


def determinantal_divisors(matrix) -> list[int]:
    """Smith divisors d_k = D_k / D_(k-1) of a matrix given as a list of
    rows, where D_k is the gcd of its k x k minors; one per unit of rank."""
    rows, cols = len(matrix), len(matrix[0]) if matrix else 0
    out, prev = [], 1
    for k in range(1, min(rows, cols) + 1):
        D = 0
        for ri in itertools.combinations(range(rows), k):
            for ci in itertools.combinations(range(cols), k):
                D = gcd(D, _cofactor_determinant([[matrix[i][j] for j in ci] for i in ri]))
        if D == 0:
            break
        out.append(D // prev)
        prev = D
    return out


def gf_rank(matrix, p: int) -> int:
    """Rank of a matrix over GF(p) by plain Gaussian elimination."""
    m = [[x % p for x in row] for row in matrix]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        piv = None
        for i in range(rank, len(m)):
            if m[i][col] % p:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [(a * inv) % p for a in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def cocycle_count_bruteforce(group_mul, action_tables, module_size_vec):
    """(|Z^1|, |B^1|) for a finite group acting on a finite abelian group.

    group_mul: multiplication table (list of lists of element indices),
    action_tables: for each group element, a matrix acting on residue vectors
    mod module_size_vec (the module is sum(Z/d_i) with the listed d_i).
    Enumerates all normalized 1-cochains, so everything must be tiny.
    """
    n = len(group_mul)
    divisors = list(module_size_vec)

    def act(g, x):
        mat = action_tables[g]
        return tuple(
            sum(mat[i][j] * x[j] for j in range(len(x))) % divisors[i]
            for i in range(len(divisors))
        )

    def add(x, y):
        return tuple((a + b) % d for a, b, d in zip(x, y, divisors))

    def neg(x):
        return tuple((-a) % d for a, d in zip(x, divisors))

    elements = list(itertools.product(*(range(d) for d in divisors)))
    nontrivial = list(range(1, n))
    z_count = 0
    for assignment in itertools.product(elements, repeat=len(nontrivial)):
        c = {0: tuple(0 for _ in divisors)}
        for g, val in zip(nontrivial, assignment):
            c[g] = val
        ok = True
        for g in range(n):
            for h in range(n):
                lhs = c[group_mul[g][h]]
                rhs = add(c[g], act(g, c[h]))
                if lhs != rhs:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            z_count += 1
    boundaries = set()
    for m in elements:
        b = tuple(add(act(g, m), neg(m)) for g in nontrivial)
        boundaries.add(b)
    return z_count, len(boundaries)


def fixed_and_norm_bruteforce(group_elems, action_tables, divisors):
    """(|M^G|, |M / N M|) for a finite module, by enumeration."""
    elements = list(itertools.product(*(range(d) for d in divisors)))

    def act(g, x):
        mat = action_tables[g]
        return tuple(
            sum(mat[i][j] * x[j] for j in range(len(x))) % divisors[i]
            for i in range(len(divisors))
        )

    fixed = [x for x in elements if all(act(g, x) == x for g in group_elems)]
    norms = set()
    for x in elements:
        total = tuple(0 for _ in divisors)
        for g in group_elems:
            y = act(g, x)
            total = tuple((a + b) % d for a, b, d in zip(total, y, divisors))
        norms.add(total)
    return len(fixed), len(elements) // len(norms)


def preimage_lattice_oracle(C, L) -> Lattice:
    """{x : C x in L} as the kernel of [C | -L], projected to its first
    C.cols coordinates and put in Hermite form again."""
    n = C.cols
    gens = list(L.basis_rows)
    aug = IntMatrix(
        [list(C.entries[i]) + [-g[i] for g in gens] for i in range(C.rows)],
        cols=n + len(gens),
    )
    ker = integer_kernel(aug)
    return Lattice.from_rows(n, [row[:n] for row in ker.basis_rows])


def hermite_form_oracle(rows, width: int) -> list[list[int]]:
    """Hermite form of the row span of rows in Z^width, from the definition
    and sharing no code with reglab's echelon.

    Column by column: the rows not yet placed are reduced by the one with
    the smallest nonzero |entry| in the column until at most one nonzero
    entry is left. That row, made positive, is the next Hermite row, and
    the entries above its pivot are brought into [0, pivot).
    """
    pending = [list(r) for r in rows]
    hermite = []
    for c in range(width):
        while True:
            live = [r for r in pending if r[c]]
            if len(live) < 2:
                break
            pivot = min(live, key=lambda r: abs(r[c]))
            for r in live:
                if r is not pivot:
                    q = r[c] // pivot[c]
                    r[:] = [a - q * b for a, b in zip(r, pivot)]
        if not live:
            continue
        pivot = live[0]
        pending.remove(pivot)
        if pivot[c] < 0:
            pivot = [-a for a in pivot]
        for r in hermite:
            q = r[c] // pivot[c]
            r[:] = [a - q * b for a, b in zip(r, pivot)]
        hermite.append(pivot)
    return hermite


def forward_preimage_echelon(C, L) -> _Echelon:
    """The echelon of _preimage_echelon with every row added in the old
    order: (C e_i | e_i) for i = 0..cols-1, then (g | 0) for g in L."""
    r, n = C.rows, C.cols
    ech = _Echelon(r + n)
    for i, col in enumerate(C.columns()):
        ech.add(col + [1 if j == i else 0 for j in range(n)])
    for g in L.basis_rows:
        ech.add(list(g) + [0] * n)
    return ech


def contains_lattice(A, B) -> bool:
    """Whether the lattice A contains every basis vector of B."""
    return all(A.contains(r) for r in B.basis_rows)


def is_abelian(G) -> bool:
    """Whether every pair of elements of G commutes, by the table."""
    return all(G.mul[a][b] == G.mul[b][a]
               for a in range(G.order) for b in range(G.order))


def compose(g, f) -> GroupHom:
    """g after f, for homs whose middle groups share their relations."""
    if g.source is not f.target and g.source.relations != f.target.relations:
        raise ValueError("homs not composable")
    return GroupHom(f.source, g.target, g.matrix @ f.matrix)


def presented_from_divisors(divisors, free_rank: int = 0) -> PresentedAbelianGroup:
    """Z/d_1 + ... + Z/d_k + Z^free_rank, one relation row per divisor."""
    k = len(divisors) + free_rank
    rows = [[d if i == j else 0 for i in range(k)] for j, d in enumerate(divisors)]
    return PresentedAbelianGroup(Lattice.from_rows(k, rows))


def _kronecker_fixed_hom(Ms, Mt, W) -> GroupHom:
    """The map Ms^G -> Mt^G induced by the ambient matrix W."""
    src = fixed_points(Ms, Ms.group.full_subgroup())
    tgt = fixed_points(Mt, Mt.group.full_subgroup())
    mat = tgt.lattice.coordinate_matrix(W.apply(u) for u in src.lattice.basis_rows)
    assert mat is not None, "map does not preserve fixed points"
    return GroupHom(src.group, tgt.group, mat)


def phi_sides(phi):
    """P1 and P2 of phi as modules: the sums of Z[G/H] over its summands."""
    G = phi.relation.group

    def side(subgroups):
        P = permutation_module(G, subgroups[0])
        for H in subgroups[1:]:
            P = direct_sum(P, permutation_module(G, H))
        return P

    return side(phi.p1_summands), side(phi.p2_summands)


def kronecker_qindex_homs(M, phi) -> tuple[GroupHom, GroupHom]:
    """(phi (x) id)^G and (phi-hat (x) id)^G taken on P1 (x) M and P2 (x) M.

    Ambient rank (rank P)·n with Kronecker-product maps, so only usable for
    small cases.
    """
    Mc = compress(M).module
    ident = IntMatrix.identity(Mc.ambient_rank)
    P1, P2 = phi_sides(phi)
    T1 = tensor_product(P1, Mc)
    T2 = tensor_product(P2, Mc)
    return (_kronecker_fixed_hom(T1, T2, phi.matrix.kron(ident)),
            _kronecker_fixed_hom(T2, T1, phi.matrix.transpose().kron(ident)))


def rc_qindex_kronecker(M, phi) -> Fraction:
    """Regulator constant as q((phi (x) id)^G) / q((phi-hat (x) id)^G)."""
    forward, backward = kronecker_qindex_homs(M, phi)
    return qindex(forward) / qindex(backward)


def h1_table_data(R):
    """(w, U, V) of H^1 of R over its whole group on the Cayley-table
    cochains: one variable c_g per g != 1, and c_{sx} - c_s - A_s c_x in L
    for s in a generating set and every x (enough by induction on word
    length)."""
    GH = R.group
    n = R.ambient_rank
    h = GH.order
    w = (h - 1) * n
    rows = []
    block_count = 0
    for s in GH.full_subgroup().generators():
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
    U = preimage_lattice(C.columns(), block_diagonal_lattice([R.relations] * block_count))
    ident = IntMatrix.identity(n)
    bnd = IntMatrix([row for g in range(1, h) for row in (R.action[g] - ident).entries])
    relblocks = block_diagonal_lattice([R.relations] * (h - 1))
    V = Lattice.from_rows(w, list(bnd.columns()) + list(relblocks.basis_rows))
    return w, U, V


def _coinduced_action(GH, n0: int):
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


def _shift_data(R):
    """(pres0, qpres): R compressed, and Q compressed in the dimension shift
    0 -> M -> Z[H] (x) M -> Q -> 0."""
    if "oracle_shift" in R._cache:
        return R._cache["oracle_shift"]
    GH = R.group
    pres0 = compress(R)
    M0 = pres0.module
    n0 = M0.ambient_rank
    h = GH.order
    rel_rows = list(block_diagonal_lattice([M0.relations] * h).basis_rows)
    # the embedding m -> sum_h  h (x) A_{h^{-1}} m; its columns become relations
    iota = IntMatrix([row for a in range(h) for row in M0.action[GH.inverse[a]].entries])
    rel_rows += list(iota.columns())
    Q = GModule(GH, h * n0, Lattice.from_rows(h * n0, rel_rows), _coinduced_action(GH, n0))
    data = (pres0, compress(Q))
    R._cache["oracle_shift"] = data
    return data


def _h1_module(M, H, degree: int):
    """M restricted to H for degree 1, or for degree 2 the shift module Q,
    whose H^1 is the degree-2 group of M."""
    R = restrict(M, H)
    j = _reduce_degree(R.group, degree)
    assert j in (1, 2)
    return R if j == 1 else _shift_data(R)[1].module


def _h1_hom(f, H, degree: int) -> ModuleHom:
    """The map f induces between the _h1_module of its source and target."""
    S, T = _h1_module(f.source, H, degree), _h1_module(f.target, H, degree)
    W = f.matrix
    if _reduce_degree(S.group, degree) == 2:
        (ps, qs), (pt, qt) = (_shift_data(restrict(f.source, H)),
                              _shift_data(restrict(f.target, H)))
        F0 = pt.project @ f.matrix @ ps.embed
        W = qt.project @ IntMatrix.identity(S.group.order).kron(F0) @ qs.embed
    return ModuleHom(S, T, W)


def _kernel_order(src: TateGroup, tgt: TateGroup, W) -> int:
    """Order of the kernel group of the map W induces from src to tgt."""
    mat = tgt.numerator.coordinate_matrix(W.apply(u) for u in src.numerator.basis_rows)
    assert mat is not None, "map does not carry cycles into cycles"
    return kernel_group(GroupHom(src.group, tgt.group, mat)).order()


def _table_tate_group(R, degree: int) -> TateGroup:
    w, U, V = h1_table_data(R)
    return TateGroup(degree, _reduce_degree(R.group, degree), w, U, V,
                     subquotient_group(U, V))


def table_tate(M, H, degree: int) -> TateGroup:
    """Tate group of H on M in a degree that reduces to 1 or 2 on the
    Cayley-table cochains: degree 1 directly, degree 2 as H^1 of Q in
    0 -> M -> Z[H] (x) M -> Q -> 0."""
    return _table_tate_group(_h1_module(M, H, degree), degree)


def table_induced_kernel_order(f, H, degree: int) -> int:
    """Kernel order of the map f induces on table_tate, through the map it
    induces on the Cayley-table cochains."""
    g = _h1_hom(f, H, degree)
    W = IntMatrix.identity(g.source.group.order - 1).kron(g.matrix)
    return _kernel_order(_table_tate_group(g.source, degree),
                         _table_tate_group(g.target, degree), W)


def shift_tate(M, H, degree: int) -> TateGroup:
    """Degree-2 Tate group of H on M as the production H^1 of the shift Q."""
    Q = _h1_module(M, H, degree)
    return tate(Q, Q.group.full_subgroup(), 1)


def shift_induced_kernel_order(f, H, degree: int) -> int:
    """Kernel order of the map f induces on shift_tate, as the production
    degree-1 kernel order of the map it induces on the shift modules."""
    g = _h1_hom(f, H, degree)
    return induced_kernel_order(g, g.source.group.full_subgroup(), 1)


def augmentation_all_tate(M, H) -> TateGroup:
    """Degree -1 of H on M with I_H M spanned by A_h - 1 for every h != 1 of
    H, where production takes only the generators of H."""
    R = restrict(M, H)
    n, h = R.ambient_rank, R.group.order
    norm = IntMatrix([[sum(R.action[g].entries[i][j] for g in range(h)) for j in range(n)]
                      for i in range(n)], cols=n)
    U = preimage_lattice(norm.columns(), R.relations)
    ident = IntMatrix.identity(n)
    rows = [col for g in range(1, h) for col in (R.action[g] - ident).columns()]
    V = Lattice.from_rows(n, rows + list(R.relations.basis_rows))
    return TateGroup(-1, -1, n, U, V, subquotient_group(U, V))


def augmentation_all_kernel_order(f, H) -> int:
    """Kernel order of the map f induces on augmentation_all_tate."""
    return _kernel_order(augmentation_all_tate(f.source, H),
                         augmentation_all_tate(f.target, H), f.matrix)


def a4():
    """A4 as a table group: even permutations of 0..3 in lexicographic order,
    (a.b)(k) = a(b(k))."""
    perms = sorted(
        p for p in itertools.permutations(range(4))
        if sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0
    )
    index = {p: i for i, p in enumerate(perms)}
    return FiniteGroup.from_table(
        [[index[tuple(a[b[k]] for k in range(4))] for b in perms] for a in perms]
    )


def raw_tate(M, H, degree: int) -> TateGroup:
    """Tate group of H on M on the cochains of restrict(M, H), in M's own
    coordinates, with no minimal presentation."""
    R = restrict(M, H)
    j = _reduce_degree(R.group, degree)
    w, U, V = _complex_data(R, j)
    return TateGroup(degree, j, w, U, V, subquotient_group(U, V))


def ring_matrix(R, table, involute: bool) -> IntMatrix:
    """The block matrix of a table of group-ring elements acting on R, built
    row by row through the checking constructor: line l and entry c give
    block (l, c), in which sum a_g g becomes sum a_g A_g, or
    sum a_g A_{g^{-1}} when involuted. Production builds the columns from
    the transposed action matrices."""
    n = R.ambient_rank
    A = [R.action[R.group.inverse[g] if involute else g].entries
         for g in range(R.group.order)]

    def row(elt, i):
        acc = [0] * n
        for a, g in elt:
            acc = [x + a * y for x, y in zip(acc, A[g][i])]
        return acc

    rows = [[x for elt in line for x in row(elt, i)] for line in table for i in range(n)]
    return IntMatrix(rows, cols=len(table[0]) * n)


def two_pass_complex_data(R, j: int):
    """(w, U, V) of _complex_data, by two eliminations per degree: U the
    preimage of L^b under the upper map, V the Hermite form of the lower
    map's columns together with L^k, both maps built by ring_matrix. The
    dihedral degree 2 is built here from d1 and d2, transposed, with
    g acting as g^{-1}."""
    GH, involute = R.group, j == 2 and _period(R.group) == 4
    if involute:
        d1, d2 = _resolution(GH, 2)
        lower, upper = [list(c) for c in zip(*d2)], [list(c) for c in zip(*d1)]
    else:
        (_, lower), (_, upper) = _complex(GH, j)
    w = len(lower) * R.ambient_rank
    U = preimage_lattice(ring_matrix(R, upper, involute).columns(),
                         block_diagonal_lattice([R.relations] * len(upper)))
    L = block_diagonal_lattice([R.relations] * len(lower))
    V = Lattice.from_rows(w, ring_matrix(R, lower, involute).columns()
                          + list(L.basis_rows))
    return w, U, V


def raw_induced_kernel_order(f, H, degree: int) -> int:
    """Kernel order of the map f induces on raw_tate: f itself, block by
    block on the cochains."""
    GH = restrict(f.source, H).group
    W = IntMatrix.identity(len(_complex(GH, _reduce_degree(GH, degree))[0][1]))
    return _kernel_order(raw_tate(f.source, H, degree), raw_tate(f.target, H, degree),
                         W.kron(f.matrix))


def saturated_torsion_decomposition(M):
    """(TorsionDecomposition, basis, projection): tors M = sat(L)/L on the
    basis of sat(L), and mt M as the minimal presentation of Z^n / sat(L)
    with M's action; the basis of sat(L) as columns, and the projection of
    Z^n onto the coordinates of mt M."""
    n, satL = M.ambient_rank, saturate(M.relations)
    if satL.rank == 0:
        tors = GModule(M.group, 0, None, [IntMatrix.zeros(0, 0)] * M.group.order)
    else:
        tors = GModule(M.group, satL.rank, subquotient_group(satL, M.relations).relations,
                       sublattice_action(satL, M.action))
    free = compress(GModule(M.group, n, satL, M.action))
    return TorsionDecomposition(tors, free.module), satL.basis, free.project


def saturated_split(f: GroupHom) -> tuple[GroupHom, GroupHom]:
    """(tors f, mt f) through the saturations S and T of the source and
    target relations: tors f between S/L_s and T/L_t on the bases of S and
    T, and mt f on the Smith coordinates of S and T, which keep only the
    free coordinates since every divisor of a saturated lattice is 1."""
    S, T = saturate(f.source.relations), saturate(f.target.relations)
    mat = T.coordinate_matrix(f.matrix.apply(g) for g in S.basis_rows)
    assert mat is not None, "map does not carry torsion into torsion"
    tors = GroupHom(subquotient_group(S, f.source.relations),
                    subquotient_group(T, f.target.relations), mat)
    _, embed, _ = smith_coordinates(S)
    project, _, _ = smith_coordinates(T)
    free = project @ f.matrix @ embed
    return tors, GroupHom(PresentedAbelianGroup.free(free.cols),
                          PresentedAbelianGroup.free(free.rows), free)


def _closure_fixpoint(G, elements):
    current = {0} | set(elements)
    frontier = current - {0}
    while frontier:
        new = {G.mul[a][b] for a in current for b in frontier}
        new |= {G.mul[b][a] for a in current for b in frontier}
        frontier = new - current
        current |= frontier
    return tuple(sorted(current))


def subgroups_by_fixpoint(G):
    """Every subgroup of G, as the sorted element tuples of the classes that
    enumerate_subgroups returns: all cyclic subgroups, extended by one more
    element with an all-pairs closure until nothing new appears."""
    found = {tuple(range(G.order)), (0,)}
    found |= {_closure_fixpoint(G, [g]) for g in range(1, G.order)}
    frontier = set(found)
    while frontier:
        new = {_closure_fixpoint(G, elems + (g,)) for elems in frontier
               for g in range(1, G.order) if g not in elems}
        frontier = new - found
        found |= frontier
    classed = {}
    for elems in found:
        orbit = {tuple(sorted(G.mul[G.mul[g][x]][G.inverse[g]] for x in elems))
                 for g in range(G.order)}
        classed.setdefault(min(orbit), []).append(elems)
    return [tuple(sorted(classed[rep])) for rep in sorted(classed, key=lambda e: (len(e), e))]


def zoo() -> list:
    """The small groups the structural tests run over."""
    C, D = FiniteGroup.cyclic, FiniteGroup.dihedral
    return [C(1), C(2), C(6), C(9), C(12), D(3), D(4), D(5), D(6), D(9),
            FiniteGroup.product([C(2), C(2)]), FiniteGroup.product([C(2), C(4)]),
            FiniteGroup.product([C(2)] * 3), FiniteGroup.product([C(3), C(3)]),
            FiniteGroup.product([C(2), D(3)]), a4()]
