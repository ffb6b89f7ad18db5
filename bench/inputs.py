"""Benchmark inputs, made without reglab.

Group tables, subgroups, permutation modules, Hermite forms and the seeded
module generator are written here from their definitions, so that a change
inside reglab can change neither the inputs nor the checks built on them.
The generator follows the recipe of ``reglab.random_module``: a sum of one or
two permutation modules Z[G/H], then an orbit sublattice (torsion_free), a
quotient by orbit rows plus d*Z^n (finite), or a quotient by scaled orbit
rows that leaves a free part (mixed).

Every workload draws its operations from a catalogue that is fixed by
CATALOGUE_SEED; the run seed orders the operations (and, on regulator-calls,
picks the seed of the q-index route's map). See README.md for why.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations

CATALOGUE_SEED = 2026
PROFILES = ("torsion_free", "finite", "mixed")
_MASK = 2**64 - 1


def mix(seed: int, *salts: int) -> int:
    """A 64-bit seed derived from a seed and salts (splitmix64 steps)."""
    x = seed & _MASK
    for s in salts:
        x = (x + 0x9E3779B97F4A7C15 * (s + 1)) & _MASK
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
        x ^= x >> 31
    return x


# ---------------------------------------------------------------------------
# groups, with reglab's element numbering (checked against reglab at set-up)
# ---------------------------------------------------------------------------


class Group:
    """A multiplication table with identity 0 and its JSON descriptor."""

    def __init__(self, name: str, descriptor: dict, mul):
        self.name = name
        self.descriptor = descriptor
        self.mul = [list(r) for r in mul]
        self.order = len(self.mul)
        self.inverse = [self.mul[g].index(0) for g in range(self.order)]
        self._subgroups = None

    def closure(self, gens) -> tuple[int, ...]:
        elems = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = self.mul[x][g]
                    if y not in elems:
                        elems.add(y)
                        nxt.append(y)
            frontier = nxt
        return tuple(sorted(elems))

    def subgroups(self) -> list[tuple[int, ...]]:
        """Every subgroup, as a sorted element tuple (groups up to order 14,
        whose subgroups are all generated by at most three elements)."""
        if self._subgroups is None:
            found = set()
            for k in range(0, 4):
                for gens in combinations(range(1, self.order), k):
                    found.add(self.closure(gens))
            self._subgroups = sorted(found, key=lambda e: (len(e), e))
        return self._subgroups

    def conjugate(self, elems, g) -> tuple[int, ...]:
        gi = self.inverse[g]
        return tuple(sorted(self.mul[self.mul[g][h]][gi] for h in elems))

    def class_representatives(self) -> list[tuple[int, ...]]:
        """One subgroup per conjugacy class: the least member, ordered by
        (order, elements) like reglab's subgroup class listing."""
        reps = set()
        for H in self.subgroups():
            reps.add(min(self.conjugate(H, g) for g in range(self.order)))
        return sorted(reps, key=lambda e: (len(e), e))

    def is_cyclic_subgroup(self, elems) -> bool:
        return any(len(self.closure([x])) == len(elems) for x in elems)

    def cosets(self, H) -> tuple[list[tuple[int, ...]], list[int]]:
        """Left cosets gH ordered by their least element, and coset_of."""
        coset_of = [-1] * self.order
        cosets = []
        for g in range(self.order):
            if coset_of[g] == -1:
                c = tuple(sorted(self.mul[g][h] for h in H))
                for x in c:
                    coset_of[x] = len(cosets)
                cosets.append(c)
        return cosets, coset_of

    def permutation_matrices(self, H) -> list[list[list[int]]]:
        """The action of each element on Z[G/H] by left translation."""
        cosets, coset_of = self.cosets(H)
        m = len(cosets)
        mats = []
        for g in range(self.order):
            rows = [[0] * m for _ in range(m)]
            for j, c in enumerate(cosets):
                rows[coset_of[self.mul[g][c[0]]]][j] = 1
            mats.append(rows)
        return mats


def cyclic(n: int) -> Group:
    return Group(f"C{n}", {"kind": "cyclic", "n": n},
                 [[(i + j) % n for j in range(n)] for i in range(n)])


def dihedral(q: int) -> Group:
    """Order 2q: index f*q + i is s^f r^i, and r^i s = s r^-i."""
    def mult(a, b):
        fa, ia = divmod(a, q)
        fb, ib = divmod(b, q)
        return ((fa + fb) % 2) * q + ((-ia if fb else ia) + ib) % q
    return Group(f"D{q}", {"kind": "dihedral", "q": q},
                 [[mult(a, b) for b in range(2 * q)] for a in range(2 * q)])


def product(*factors: Group) -> Group:
    """Direct product, element index in mixed radix with the first factor
    most significant."""
    orders = [f.order for f in factors]

    def split(x):
        parts = []
        for o in reversed(orders):
            x, p = divmod(x, o)
            parts.append(p)
        return parts[::-1]

    def join(parts):
        x = 0
        for p, o in zip(parts, orders):
            x = x * o + p
        return x

    total = 1
    for o in orders:
        total *= o
    mul = [[join([f.mul[x][y] for f, x, y in zip(factors, split(a), split(b))])
            for b in range(total)] for a in range(total)]
    return Group("x".join(f.name for f in factors),
                 {"kind": "product", "factors": [f.descriptor for f in factors]},
                 mul)


GROUPS = {
    "C6": lambda: cyclic(6),
    "C9": lambda: cyclic(9),
    "D3": lambda: dihedral(3),
    "D5": lambda: dihedral(5),
    "D7": lambda: dihedral(7),
    "V4": lambda: product(cyclic(2), cyclic(2)),
    "C2xC4": lambda: product(cyclic(2), cyclic(4)),
    "C2xC2xC2": lambda: product(cyclic(2), cyclic(2), cyclic(2)),
}


# ---------------------------------------------------------------------------
# integer lattices
# ---------------------------------------------------------------------------


def hnf(rows, width: int) -> list[list[int]]:
    """Hermite normal form of the row span: echelon rows, positive pivots,
    entries above each pivot reduced into [0, pivot)."""
    A = [list(r) for r in rows if any(r)]
    r = 0
    for c in range(width):
        while True:
            live = [i for i in range(r, len(A)) if A[i][c]]
            if len(live) <= 1:
                break
            i0 = min(live, key=lambda i: abs(A[i][c]))
            for i in live:
                if i != i0:
                    q = A[i][c] // A[i0][c]
                    A[i] = [a - q * b for a, b in zip(A[i], A[i0])]
        if not live:
            continue
        A[r], A[live[0]] = A[live[0]], A[r]
        if A[r][c] < 0:
            A[r] = [-a for a in A[r]]
        for i in range(r):
            q = A[i][c] // A[r][c]
            if q:
                A[i] = [a - q * b for a, b in zip(A[i], A[r])]
        r += 1
    return A[:r]


def pivots(basis) -> list[int]:
    return [next(j for j, a in enumerate(row) if a) for row in basis]


def coordinates(basis, vec) -> list[int] | None:
    """Coefficients of vec in an echelon basis, or None if not in the span."""
    v = list(vec)
    out = []
    for row, p in zip(basis, pivots(basis)):
        q, rem = divmod(v[p], row[p])
        if rem:
            return None
        out.append(q)
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return out if not any(v) else None


def kernel(rows, width: int) -> list[list[int]]:
    """Z-basis of {x in Z^width : row . x = 0 for every row}."""
    m = len(rows)
    aug = [[rows[k][i] for k in range(m)] + [int(i == j) for j in range(width)]
           for i in range(width)]
    return hnf([r[m:] for r in hnf(aug, m + width) if not any(r[:m])], width)


def saturate(basis, width: int) -> list[list[int]]:
    """(span tensor Q) intersected with Z^width."""
    orth = kernel(basis, width)
    if not orth:
        return [[int(i == j) for j in range(width)] for i in range(width)]
    return kernel(orth, width)


def apply(mat, vec) -> list[int]:
    return [sum(a * b for a, b in zip(row, vec)) for row in mat]


# ---------------------------------------------------------------------------
# the module generator
# ---------------------------------------------------------------------------


def draw_module(G: Group, profile: str, seed: int, max_rank: int = 12) -> dict:
    """A seeded module over G as reglab module JSON, relations in Hermite
    form (so the JSON is canonical and its sha256 is reglab's digest)."""
    rng = random.Random(mix(seed, PROFILES.index(profile), G.order))
    reps = G.class_representatives()
    for _attempt in range(64):
        chosen, total = [], 0
        for _ in range(rng.randrange(1, 3)):
            cands = [H for H in reps if G.order // len(H) + total <= max_rank]
            if not cands:
                break
            H = cands[rng.randrange(len(cands))]
            chosen.append(H)
            total += G.order // len(H)
        if not chosen:
            chosen, total = [tuple(range(G.order))], 1
        n = total
        action = [[[0] * n for _ in range(n)] for _ in range(G.order)]
        off = 0
        for H in chosen:
            for g, P in enumerate(G.permutation_matrices(H)):
                for i, row in enumerate(P):
                    action[g][off + i][off:off + len(row)] = row
            off += G.order // len(H)

        def rand_vec():
            v = [rng.randrange(-2, 3) for _ in range(n)]
            if not any(v):
                v[rng.randrange(n)] = 1
            return v

        def orbit_rows(scale=1):
            v = rand_vec()
            return [[scale * c for c in apply(A, v)] for A in action]

        if profile == "torsion_free":
            rows = []
            for _ in range(rng.randrange(1, 3)):
                rows += orbit_rows()
            S = hnf(rows, n)
            if rng.randrange(2):
                S = saturate(S, n)
            sub_action = []
            for A in action:
                cols = [coordinates(S, apply(A, b)) for b in S]
                sub_action.append([[c[i] for c in cols] for i in range(len(S))])
            return module_json(G, len(S), [], sub_action)
        if profile == "finite":
            d = rng.choice([2, 3, 4, 5, 6, 8, 9])
            rows = [[d * int(i == j) for j in range(n)] for i in range(n)]
            for _ in range(rng.randrange(1, 3)):
                rows += orbit_rows()
            L = hnf(rows, n)
            if module_order(L, n) == 1:
                continue
            return module_json(G, n, L, action)
        rows = []
        for _ in range(rng.randrange(1, 3)):
            rows += orbit_rows(rng.choice([1, 2, 2, 3]))
        L = hnf(rows, n)
        if len(L) == n:
            continue
        return module_json(G, n, L, action)
    raise RuntimeError(f"no {profile} module over {G.name} in 64 attempts")


def module_json(G: Group, n: int, relations, action) -> dict:
    return {"group": G.descriptor, "rank": n,
            "relations": [list(r) for r in relations],
            "action": {str(g): [list(r) for r in A] for g, A in enumerate(action)}}


def module_order(relations, n: int) -> int | None:
    """|Z^n / L| for L in Hermite form, None when infinite."""
    if len(relations) < n:
        return None
    out = 1
    for row, p in zip(relations, pivots(relations)):
        out *= row[p]
    return out


def digest(doc: dict) -> str:
    """sha256 of the canonical JSON (sorted keys, no spaces)."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def dihedral_relation_terms(q: int) -> list[tuple[tuple[int, ...], int]]:
    """1*[1] + 2*[G] - [R] - 2*[S] over the dihedral group of order 2q."""
    return [((0,), 1), (tuple(range(2 * q)), 2), (tuple(range(q)), -1),
            ((0, q), -2)]


def is_relation(G: Group, terms) -> bool:
    """The signed permutation characters vanish at every element."""
    for g in range(G.order):
        total = 0
        for H, c in terms:
            cosets, coset_of = G.cosets(H)
            total += c * sum(1 for x in cosets if coset_of[G.mul[g][x[0]]]
                             == coset_of[x[0]])
        if total:
            return False
    return True


# ---------------------------------------------------------------------------
# catalogues
# ---------------------------------------------------------------------------

# (group, modules per profile, max_rank). The two non-periodic abelian
# groups of order 8 carry most of the degree-2 cost, so they get fewer and
# smaller modules to keep one run near its target length.
TATE_STRATA = (("C6", 10, 12), ("C9", 10, 12), ("D3", 10, 12),
               ("D5", 3, 12), ("V4", 10, 12), ("C2xC4", 2, 6),
               ("C2xC2xC2", 2, 4))
REGULATOR_STRATA = (("D3", 10, 12), ("D5", 6, 8), ("D7", 3, 8),
                    ("V4", 9, 12), ("C2xC4", 6, 6))
SUITE_CALLS = 3
SUITE_TRIALS = 5
SUITE_Q = (3, 5)


def module_catalogue(strata) -> list[dict]:
    """Entries {"group", "profile", "module"} drawn stratum by stratum."""
    out = []
    for gi, (name, count, max_rank) in enumerate(strata):
        G = GROUPS[name]()
        for pi, profile in enumerate(PROFILES):
            for k in range(count):
                seed = mix(CATALOGUE_SEED, gi, pi, k)
                out.append({"group": name, "profile": profile,
                            "module": draw_module(G, profile, seed, max_rank)})
    return out


def suite_seeds() -> list[int]:
    return [mix(CATALOGUE_SEED, 0x5117E, k) % 2**31 for k in range(SUITE_CALLS)]
