"""Finitely generated modules over a finite group ring Z[G].

A module is presented as Z^n / L for a relation lattice L that the action
stabilizes. Action matrices only have to satisfy the group law modulo L, so a
presentation can carry torsion and a free part at once. All structural
operations (fixed points, torsion splitting, duals, tensor products,
restriction to subgroups, minimal presentations) happen here; cohomology and
regulator constants build on top.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .arith import mix_seed
from .errors import ConsistencyError, InputError, ValidationError
from .exactla import (
    IntMatrix,
    Lattice,
    PresentedAbelianGroup,
    block_diagonal_lattice,
    preimage_lattice,
    saturate,
    smith_blocks,
    smith_coordinates,
    subquotient_group,
)
from .groups import CosetSpace, FiniteGroup, Subgroup, coset_space, enumerate_subgroups


class GModule:
    """Z^ambient_rank / relations with one action matrix per group element.

    The matrices represent the action on the quotient: A_0 is the identity,
    A_g A_h agrees with A_{gh} modulo the relation lattice, and every A_g maps
    the relation lattice into itself. Instances are immutable; derived data is
    memoized in _cache (pure functions of the module only).
    """

    __slots__ = ("group", "ambient_rank", "relations", "action", "_cache")

    def __init__(self, group: FiniteGroup, ambient_rank: int, relations, action):
        if relations is None:
            relations = Lattice.zero(ambient_rank)
        elif not isinstance(relations, Lattice):
            relations = Lattice.from_rows(ambient_rank, relations)
        action = tuple(action)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, *args):
        raise AttributeError("GModule is immutable")

    # -- basic structure

    def abelian_group(self) -> PresentedAbelianGroup:
        """The underlying abelian group Z^n / L."""
        if "abgroup" not in self._cache:
            self._cache["abgroup"] = PresentedAbelianGroup(self.relations)
        return self._cache["abgroup"]

    def is_torsion_free(self) -> bool:
        return self.abelian_group().torsion_order() == 1

    def is_finite(self) -> bool:
        return self.relations.rank == self.ambient_rank

    def order(self) -> int | None:
        return self.abelian_group().order()

    def __repr__(self):
        return (f"GModule({self.group!r}, Z^{self.ambient_rank}"
                f"/rank-{self.relations.rank} relations)")


def validate_module(M: GModule, all_pairs: bool = False) -> None:
    """Check the module axioms; raises ValidationError naming a witness.

    By default stability of the relation lattice L is checked for A_s with
    s in a generating set, and the group law on pairs (s, h) with h any
    element. By induction on word length both then hold for all g = s h:
    for x in L, A_g x = A_s (A_h x) - (A_s A_h - A_g) x, where A_h x is in L
    by induction and the columns of A_s A_h - A_g are in L. Pass
    all_pairs=True to check every element and every pair.

    The group law is checked with one product per first element s:
    A_s [A_0 | ... | A_{|G|-1}] against [A_{s h}]_h. Only when the two
    differ are the columns of the difference checked modulo L, in order:
    column c belongs to the pair (s, c // n), so the witness named is the
    first failing pair.
    """
    G, n = M.group, M.ambient_rank
    if len(M.action) != G.order:
        raise ValidationError(
            f"expected {G.order} action matrices, got {len(M.action)}"
        )
    for g, A in enumerate(M.action):
        if A.rows != n or A.cols != n:
            raise ValidationError(f"action matrix {g} is {A.rows}x{A.cols}, expected {n}x{n}")
    if M.action[0] != IntMatrix.identity(n):
        raise ValidationError("action matrix of the identity element is not the identity matrix")
    if M.relations.ambient_rank != n:
        raise ValidationError("relation lattice lives in the wrong ambient rank")
    L = M.relations
    firsts = range(G.order) if all_pairs else G.full_subgroup().generators()
    for g in firsts:
        for row in L.basis_rows:
            if not L.contains(M.action[g].apply(row)):
                raise ValidationError(
                    f"action matrix {g} does not stabilize the relation lattice "
                    f"(witness generator {list(row)})"
                )
    stacked = IntMatrix.hstack(*M.action)
    for s in firsts:
        product = M.action[s] @ stacked
        target = IntMatrix.hstack(*(M.action[sh] for sh in G.mul[s]))
        if product == target:
            continue
        for c, col in enumerate(zip(*(product - target).entries)):
            if any(col) and not L.contains(col):
                h, j = divmod(c, n)
                raise ValidationError(
                    f"group law fails modulo relations at pair ({s}, {h}), column {j}"
                )


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def permutation_matrix(X: CosetSpace, g: int) -> IntMatrix:
    m = X.points
    perm = X.action[g]
    rows = [[0] * m for _ in range(m)]
    for j in range(m):
        rows[perm[j]][j] = 1
    return IntMatrix(rows)


def permutation_module(G: FiniteGroup, H: Subgroup) -> GModule:
    """Z[G/H] with the left translation action; free over Z, rank [G:H]."""
    X = coset_space(G, H)
    action = [permutation_matrix(X, g) for g in range(G.order)]
    return GModule(G, X.points, None, action)


def trivial_module(G: FiniteGroup) -> GModule:
    one = IntMatrix.identity(1)
    return GModule(G, 1, None, [one] * G.order)


def direct_sum(M: GModule, N: GModule) -> GModule:
    if M.group != N.group:
        raise InputError("direct sum needs modules over the same group")
    n, m = M.ambient_rank, N.ambient_rank
    action = []
    for A, B in zip(M.action, N.action):
        blk = [list(r) + [0] * m for r in A.entries]
        blk += [[0] * n + list(r) for r in B.entries]
        action.append(IntMatrix(blk))
    return GModule(M.group, n + m, block_diagonal_lattice([M.relations, N.relations]),
                   action)


def tensor_product(M: GModule, N: GModule) -> GModule:
    """M (x)_Z N with the diagonal action g(x (x) y) = gx (x) gy.

    Coordinates use the Kronecker convention: pair (i, j) sits at i*m + j.
    """
    if M.group != N.group:
        raise InputError("tensor product needs modules over the same group")
    n, m = M.ambient_rank, N.ambient_rank
    rows = []
    for l in M.relations.basis_rows:
        for j in range(m):
            vec = [0] * (n * m)
            for i in range(n):
                if l[i]:
                    vec[i * m + j] = l[i]
            rows.append(vec)
    for lp in N.relations.basis_rows:
        for i in range(n):
            vec = [0] * (n * m)
            for j in range(m):
                if lp[j]:
                    vec[i * m + j] = lp[j]
            rows.append(vec)
    action = [A.kron(B) for A, B in zip(M.action, N.action)]
    return GModule(M.group, n * m, Lattice.from_rows(n * m, rows), action)


def restrict(M: GModule, H: Subgroup) -> GModule:
    """M as a module over H, re-indexed so H's elements are 0..|H|-1.

    The re-indexed group is cached on M's group and shared by subgroups with
    equal re-indexed tables, so what is cached on it (generators, cohomology
    route, resolution) is built once for every module over the group.
    """
    key = ("restrict", H.elements)
    if key in M._cache:
        return M._cache[key]
    G, elems = M.group, H.elements
    if key not in G._cache:
        index = {g: i for i, g in enumerate(elems)}
        mul = tuple(tuple(index[G.mul[a][b]] for b in elems) for a in elems)
        G._cache[key] = G._cache.setdefault("restricted tables", {}).setdefault(
            mul, FiniteGroup(mul, {"kind": "table", "order": len(elems)}, validate=False))
    out = GModule(G._cache[key], M.ambient_rank, M.relations, [M.action[g] for g in elems])
    M._cache[key] = out
    return out


# ---------------------------------------------------------------------------
# fixed points and norms
# ---------------------------------------------------------------------------


class FixedPointData(NamedTuple):
    """Fixed points M^H: the lattice of fixed ambient vectors and M^H itself."""

    lattice: Lattice
    group: PresentedAbelianGroup

    @property
    def rank(self) -> int:
        return self.group.free_rank

    def torsion_order(self) -> int:
        return self.group.torsion_order()


def fixed_points(M: GModule, H: Subgroup) -> FixedPointData:
    """M^H = {x : (A_h - 1)x in L for all h}, via a generating set of H."""
    key = ("fixed", H.elements)
    if key in M._cache:
        return M._cache[key]
    n = M.ambient_rank
    gens = H.generators()
    if not gens:
        F = Lattice.full(n)
    else:
        # column j of the A_h - 1 stacked over the generators h, as the
        # preimage echelon reads it
        columns = [[] for _ in range(n)]
        for h in gens:
            for j, col in enumerate(M.action[h].columns()):
                col[j] -= 1
                columns[j] += col
        F = preimage_lattice(columns, block_diagonal_lattice([M.relations] * len(gens)))
    data = FixedPointData(F, subquotient_group(F, M.relations))
    M._cache[key] = data
    return data


def norm_matrix(M: GModule, H: Subgroup) -> IntMatrix:
    n = M.ambient_rank
    total = [[0] * n for _ in range(n)]
    for h in H.elements:
        A = M.action[h]
        for i in range(n):
            arow = A.entries[i]
            trow = total[i]
            for j in range(n):
                trow[j] += arow[j]
    return IntMatrix(total)


# ---------------------------------------------------------------------------
# minimal presentations, torsion decomposition and duals
# ---------------------------------------------------------------------------


class Presentation(NamedTuple):
    """A module re-presented on fewer generators, with the coordinate maps.

    project @ embed is the identity on the new coordinates; embed followed by
    project is the identity of the quotient (not of the ambient space).
    """

    module: GModule
    project: IntMatrix
    embed: IntMatrix


def compress(M: GModule) -> Presentation:
    """Minimal presentation: drop coordinates with unit invariant factor.

    Diagonalize the relation basis with a Smith form, change coordinates by
    the unimodular row transform, and keep only coordinates whose relation
    divisor is not 1. The action is transported through the coordinate maps.
    A module already in minimal form, with relations diag(d_1..d_t) + 0 and
    1 < d_1 | d_2 | ..., is its own answer: the Smith transforms are
    identities there, and the module keeps its own caches.
    """
    if "compress" in M._cache:
        return M._cache["compress"]
    rows = M.relations.basis_rows
    divisors = [row[i] for i, row in enumerate(rows)]
    if (all(sum(map(abs, row)) == d > 1 for row, d in zip(rows, divisors))
            and all(b % a == 0 for a, b in zip(divisors, divisors[1:]))):
        # not memoised: held in M's own cache, it would be a reference cycle
        n = M.ambient_rank
        return Presentation(M, IntMatrix.identity(n), IntMatrix.identity(n))
    project, embed, divisors = smith_coordinates(M.relations)
    k = project.rows
    rel_rows = [[d if j == i else 0 for j in range(k)] for i, d in enumerate(divisors)]
    action = [project @ A @ embed for A in M.action]
    small = GModule(M.group, k, Lattice(k, rel_rows), action)  # diag(d) is Hermite
    pres = Presentation(small, project, embed)
    M._cache["compress"] = pres
    return pres


class TorsionDecomposition(NamedTuple):
    """tors M -> M -> mt M with explicit coordinate maps, as blocks of the
    minimal presentation Mc = compress(M).module.

    Mc is Z^t / diag(d) + Z^(k - t) for t the rank of its relations. A
    torsion class lies in Z^t + 0, so every action matrix of Mc has a zero
    lower-left block: tors M is Z^t / diag(d) acted on by the upper-left
    blocks, and mt M is Z^(k - t) acted on by the lower-right ones.

    On a module that compress leaves as it is, which every minimal
    presentation is, the torsion part is sat(L)/L on the basis of sat(L).
    On any other M the parts come back re-presented: the torsion module has
    t generators rather than rank sat(L) of them.
    """

    torsion: GModule
    free: GModule


def sublattice_action(S: Lattice, action) -> list[IntMatrix]:
    """The action matrices restricted to a stable sublattice S, on its basis."""
    out = []
    for A in action:
        mat = S.coordinate_matrix(A.apply(b) for b in S.basis_rows)
        if mat is None:
            raise ConsistencyError("action does not stabilize the sublattice")
        out.append(mat)
    return out


def torsion_decomposition(M: GModule) -> TorsionDecomposition:
    """Split off tors M and the free quotient mt M = M / tors M as blocks
    of compress(M), memoised on M."""
    if "torsion" in M._cache:
        return M._cache["torsion"]
    Mc = compress(M).module
    t = Mc.relations.rank
    blocks = [smith_blocks(A, t, t) for A in Mc.action]
    torsion = GModule(M.group, t, Lattice(t, (row[:t] for row in Mc.relations.basis_rows)),
                      [tors for tors, _ in blocks])
    mt = GModule(M.group, Mc.ambient_rank - t, None, [free for _, free in blocks])
    out = TorsionDecomposition(torsion, mt)
    M._cache["torsion"] = out
    return out


def dual_module(M: GModule) -> GModule:
    """Z-linear dual of a torsion-free module: action g -> (A_{g^{-1}})^T."""
    if not M.is_torsion_free():
        raise InputError("dual_module needs a torsion-free module; "
                         "use finite_dual for finite ones")
    free = compress(M).module
    G = M.group
    action = [free.action[G.inverse[g]].transpose() for g in range(G.order)]
    return GModule(G, free.ambient_rank, None, action)


def finite_dual(M: GModule) -> GModule:
    """Pontryagin dual Hom(M, Q/Z) of a finite module.

    On the minimal presentation sum Z/d_i the dual is again sum Z/d_i with
    action matrices D A_{g^{-1}}^T D^{-1}, which are integral because the
    original matrices respect the relation divisors.
    """
    if not M.is_finite():
        raise InputError("finite_dual needs a finite module")
    small = compress(M).module
    r = small.ambient_rank
    divisors = [0] * r
    for row in small.relations.basis_rows:
        support = [j for j in range(r) if row[j]]
        if len(support) != 1:
            raise ConsistencyError("compressed finite module relations are not diagonal")
        divisors[support[0]] = row[support[0]]
    if any(d <= 0 for d in divisors):
        raise ConsistencyError("compressed finite module is missing a divisor")
    G = M.group
    action = []
    for g in range(G.order):
        A = small.action[G.inverse[g]]
        rows = []
        for j in range(r):
            row = []
            for i in range(r):
                num = divisors[j] * A.entries[i][j]
                if num % divisors[i]:
                    raise ConsistencyError(
                        "transposed action is not integral on the dual divisors"
                    )
                row.append(num // divisors[i])
            rows.append(row)
        action.append(IntMatrix(rows))
    return GModule(G, r, small.relations, action)  # the same diag(d)


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------


class ModuleHom:
    """An equivariant map of modules over the same group, as an ambient matrix."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: GModule, target: GModule, matrix: IntMatrix):
        if source.group != target.group:
            raise InputError("modules live over different groups")
        if matrix.rows != target.ambient_rank or matrix.cols != source.ambient_rank:
            raise ValidationError("hom matrix shape mismatch")
        LN = target.relations
        for r in source.relations.basis_rows:
            if not LN.contains(matrix.apply(r)):
                raise ValidationError(
                    f"map does not carry relations into relations (witness {list(r)})"
                )
        for s in source.group.full_subgroup().generators():
            diff = matrix @ source.action[s] - target.action[s] @ matrix
            for j in range(source.ambient_rank):
                col = diff.column(j)
                if any(col) and not LN.contains(col):
                    raise ValidationError(
                        f"map is not equivariant at generator {s}, column {j}"
                    )
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, *args):
        raise AttributeError("ModuleHom is immutable")


# ---------------------------------------------------------------------------
# equivariant maps between permutation modules
# ---------------------------------------------------------------------------


def equivariant_hom_basis(G: FiniteGroup, H1: Subgroup, H2: Subgroup) -> tuple:
    """Z-basis of Hom_{Z[G]}(Z[G/H1], Z[G/H2]), built once per group.

    One basis map per H1-orbit on G/H2: send the identity coset to the orbit
    sum and extend equivariantly. Ordered by the smallest point of the orbit,
    so the basis is deterministic. Each map is the tuple of the nonzero
    entries (i, j, a) of its [G:H2] x [G:H1] matrix, in row-major order.
    """
    key = ("hom basis", H1.elements, H2.elements)
    if key in G._cache:
        return G._cache[key]
    X1 = coset_space(G, H1)
    X2 = coset_space(G, H2)
    seen = [False] * X2.points
    orbits = []
    for p in range(X2.points):
        if not seen[p]:
            # H1 is a group, so its images of p are the whole orbit
            orbit = sorted({X2.action[h][p] for h in H1.elements})
            for x in orbit:
                seen[x] = True
            orbits.append(orbit)
    # coset p sends the orbit to distinct points, so every entry is 0 or 1
    G._cache[key] = tuple(
        tuple(sorted((X2.action[X1.representatives[p]][c], p, 1)
                     for p in range(X1.points) for c in orbit))
        for orbit in orbits)
    return G._cache[key]


def module_hom_lattice(Ms: GModule, Mt: GModule) -> Lattice:
    """All integer matrices representing equivariant maps Ms -> Mt.

    Vectors are matrices flattened row-major: v[i*ns + j] = F[i][j] for F of
    shape nt x ns. Membership means F maps the relation lattice of Ms into
    that of Mt and commutes with each generator's action modulo Mt's
    relations; such F all define ModuleHoms, including zero.
    """
    if Ms.group != Mt.group:
        raise InputError("hom lattice needs modules over the same group")
    ns, nt = Ms.ambient_rank, Mt.ambient_rank
    dim = ns * nt
    rows: list[list[int]] = []
    blocks: list[Lattice] = []
    for g in Ms.group.full_subgroup().generators():
        At = Mt.action[g].entries
        As = Ms.action[g].entries
        for c in range(ns):
            for i in range(nt):
                row = [0] * dim
                for k in range(nt):
                    if At[i][k]:
                        row[k * ns + c] += At[i][k]
                for k in range(ns):
                    if As[k][c]:
                        row[i * ns + k] -= As[k][c]
                rows.append(row)
            blocks.append(Mt.relations)
    for r in Ms.relations.basis_rows:
        for i in range(nt):
            row = [0] * dim
            for j in range(ns):
                row[i * ns + j] = r[j]
            rows.append(row)
        blocks.append(Mt.relations)
    if not rows:
        return Lattice.full(dim)
    return preimage_lattice([list(col) for col in zip(*rows)], block_diagonal_lattice(blocks))


def random_module_hom(Ms: GModule, Mt: GModule, seed: int = 0) -> ModuleHom:
    """A seeded random equivariant map compress(Ms) -> compress(Mt).

    Draws an integer combination of the hom lattice basis, preferring a map
    that is nonzero modulo the target's relations; the zero map is returned
    only when no draw produced anything else (e.g. no nonzero homs exist).
    """
    S = compress(Ms).module
    T = compress(Mt).module
    lat = module_hom_lattice(S, T)
    ns, nt = S.ambient_rank, T.ambient_rank
    rng = random.Random(mix_seed(seed, 0x68D2, Ms.group.order))

    def to_matrix(vec):
        return IntMatrix([list(vec[i * ns:(i + 1) * ns]) for i in range(nt)],
                         cols=ns)

    best = None
    for _ in range(16):
        vec = [0] * (ns * nt)
        for b in lat.basis_rows:
            c = rng.randrange(-2, 3)
            if c:
                for k, bk in enumerate(b):
                    if bk:
                        vec[k] += c * bk
        F = to_matrix(vec)
        if best is None:
            best = F
        cols = [[F.entries[i][j] for i in range(nt)] for j in range(ns)]
        if any(not T.relations.contains(col) for col in cols):
            return ModuleHom(S, T, F)
    return ModuleHom(S, T, best if best is not None else IntMatrix.zeros(nt, ns))


# ---------------------------------------------------------------------------
# seeded random modules
# ---------------------------------------------------------------------------


def _orbit_lattice_rows(action, vec, scale: int = 1):
    return [[scale * c for c in A.apply(vec)] for A in action]


# the random_module profiles; the index of each salts its seed
PROFILES = ("torsion_free", "finite", "mixed")


def random_module(G: FiniteGroup, profile: str, seed: int,
                  max_rank: int = 12) -> GModule:
    """Deterministic pseudo-random module over G.

    Profiles:
      torsion_free: a G-stable sublattice of a sum of permutation modules,
        re-presented on its own basis (optionally saturated first);
      finite: a sum of permutation modules modulo orbit relations plus d*Z^n;
      mixed: a quotient by an orbit lattice with random scaling, so torsion
        and a free part can coexist.
    """
    if profile not in PROFILES:
        raise InputError(f"unknown profile {profile!r}; expected one of {PROFILES}")
    if max_rank < 1:
        raise InputError(f"max_rank must be at least 1, not {max_rank}")
    salt = PROFILES.index(profile)
    rng = random.Random(mix_seed(seed, salt, G.order))
    reps = [cls[0] for cls in enumerate_subgroups(G)]
    for _attempt in range(64):
        # base: direct sum of one or two permutation modules within the budget
        chosen = []
        total = 0
        for _ in range(rng.randrange(1, 3)):
            candidates = [H for H in reps if coset_space(G, H).points + total <= max_rank]
            if not candidates:
                break
            H = candidates[rng.randrange(len(candidates))]
            chosen.append(H)
            total += coset_space(G, H).points
        if not chosen:
            chosen = [G.full_subgroup()]
        base = permutation_module(G, chosen[0])
        for H in chosen[1:]:
            base = direct_sum(base, permutation_module(G, H))
        n = base.ambient_rank

        def rand_vec():
            v = [rng.randrange(-2, 3) for _ in range(n)]
            if all(c == 0 for c in v):
                v[rng.randrange(n)] = 1
            return v

        if profile == "torsion_free":
            rows = []
            for _ in range(rng.randrange(1, 3)):
                rows += _orbit_lattice_rows(base.action, rand_vec())
            S = Lattice.from_rows(n, rows)
            if S.rank == 0:
                continue
            if rng.randrange(2):
                S = saturate(S)
            return GModule(G, S.rank, None, sublattice_action(S, base.action))

        if profile == "finite":
            d = rng.choice([2, 3, 4, 5, 6, 8, 9])
            rows = [[d if j == i else 0 for j in range(n)] for i in range(n)]
            for _ in range(rng.randrange(1, 3)):
                rows += _orbit_lattice_rows(base.action, rand_vec())
            L = Lattice.from_rows(n, rows)
            M = GModule(G, n, L, base.action)
            if M.order() in (None, 1):
                continue
            return M

        # mixed
        rows = []
        for _ in range(rng.randrange(1, 3)):
            rows += _orbit_lattice_rows(base.action, rand_vec(),
                                        scale=rng.choice([1, 2, 2, 3]))
        L = Lattice.from_rows(n, rows)
        if L.rank == n:
            continue  # accidentally finite; mixed wants a free part
        M = GModule(G, n, L, base.action)
        return M
    raise ConsistencyError(f"could not draw a nonzero {profile} module in 64 attempts")
