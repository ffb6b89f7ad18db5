"""Regulator constants of modules with respect to Brauer relations.

Two independent computations are kept side by side and must agree:

  * the lattice route: for each subgroup class a determinant of an invariant
    pairing on the image of the fixed points in the free quotient, scaled by
    the subgroup order and the fixed torsion;
  * the q-index route: any injective equivariant map phi between the
    permutation modules built from the positive and negative parts of the
    relation computes the same constant as a ratio of two q-indices on
    G-fixed points, with phi-hat realized by the transpose matrix. By
    Frobenius reciprocity (Z[G/H] (x) M)^G is M^H, so the maps are taken
    between sums of fixed points M^{H_s} -> M^{H_t}, never on P (x) M.
    _fixed_qindex builds each of the two maps as ambient columns, the
    images of the Hermite basis rows of the source fixed points, and the
    one index reader, exactla.map_orders, reads |coker| and |ker| off one
    image-and-preimage echelon pass; no matrix of the map and no
    presented-group hom is built. A relation g Theta' with g
    the gcd of its coefficients is taken as C_Theta'^g, since the
    constant is multiplicative in the relation.

regulator_constant runs both and raises if they ever differ, which turns
every caller into a cross-check of the whole stack. The RegulatorConstant it
returns raises as well if the value has a prime that does not divide |G|.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain
from math import gcd
from operator import add, sub
from typing import Callable, NamedTuple

from .arith import factorize, factorize_fraction, fraction_str, mix_seed, valuation
from .brauer import BrauerRelation, dihedral_relation, theta_kernel_product, theta_product
from .cohomology import rosen_valuation, tate
from .errors import ConsistencyError, InputError
from .exactla import IntMatrix, Lattice, _check_width, block_diagonal_lattice, map_orders
from .gmodules import (
    GModule,
    compress,
    direct_sum,
    dual_module,
    equivariant_hom_basis,
    finite_dual,
    fixed_points,
    permutation_module,
    torsion_decomposition,
    trivial_module,
)
from .groups import FiniteGroup, Subgroup, coset_space, subgroup_class_representatives
from .jsonio import module_digest


class RegulatorConstant:
    """A positive rational with its prime factorization, over a group of
    order group_order.

    |H| kills every Tate group Ĥⁱ(H, M), so a regulator constant is made of
    primes of |G| alone (T. and V. Dokchitser, Regulator constants and the
    parity conjecture, 2009). The factorization is the valuations at those
    primes, read once here, and is never a general factoring; a cofactor
    left over is a value no correct route gives and raises ConsistencyError.
    """

    __slots__ = ("value", "factorization")

    def __init__(self, value: Fraction, group_order: int):
        value = Fraction(value)
        if value <= 0:
            raise ConsistencyError(f"regulator constant {value} is not positive")
        factorization, rest = {}, value
        for p in factorize(group_order):
            e = valuation(value, p)
            if e:
                factorization[p] = e
                rest /= Fraction(p) ** e
        if rest != 1:
            raise ConsistencyError(
                f"regulator constant {value} has the factor {rest}, prime to "
                f"the group order {group_order}")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "factorization", factorization)

    @classmethod
    def of(cls, M: GModule, value: Fraction) -> "RegulatorConstant":
        """value over the group of M; a ConsistencyError names M's digest."""
        try:
            return cls(value, M.group.order)
        except ConsistencyError as exc:
            raise ConsistencyError(f"{exc} (module digest {module_digest(M)})") from None

    def __setattr__(self, *args):
        raise AttributeError("RegulatorConstant is immutable")

    def __eq__(self, other):
        if isinstance(other, RegulatorConstant):
            return self.value == other.value
        return self.value == other

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"RegulatorConstant({self.value})"


# ---------------------------------------------------------------------------
# lattice route
# ---------------------------------------------------------------------------


def invariant_pairing(Mtf: GModule) -> IntMatrix:
    """Gram matrix of the averaged inner product sum_g (A_g x).(A_g y).

    Symmetric, positive definite and G-invariant on any torsion-free module.
    """
    n = Mtf.ambient_rank
    total = [[0] * n for _ in range(n)]
    for A in Mtf.action:
        At = A.transpose()
        prod = At @ A
        for i in range(n):
            row = prod.entries[i]
            trow = total[i]
            for j in range(n):
                trow[j] += row[j]
    return IntMatrix(total)


def rc_pairing(M: GModule, relation: BrauerRelation) -> Fraction:
    """Regulator constant straight from the defining product.

    Per subgroup class H: the fixed points map onto a sublattice of the free
    quotient mt(M), the coordinates of Mc = compress(M).module after its
    torsion ones (torsion_decomposition); the factor is det of the pairing
    Gram on that sublattice, divided by |H|^rank, divided by the squared
    order of the fixed torsion.

    The result does not depend on which invariant pairing is used.
    """
    if relation.group != M.group:
        raise InputError("module and relation live over different groups")
    _side_rank(relation)
    Mc = compress(M).module
    mt = torsion_decomposition(M).free
    free = slice(Mc.relations.rank, None)
    gram = invariant_pairing(mt)
    r = mt.ambient_rank
    value = Fraction(1)
    for H, coeff in relation.terms:
        fp = fixed_points(Mc, H)
        k = fp.rank
        t = fp.torsion_order()
        image = Lattice.from_rows(r, [row[free] for row in fp.lattice.basis_rows])
        if image.rank != k:
            raise ConsistencyError(
                "fixed points project to the wrong rank in the free quotient"
            )
        B = image.basis
        det = (B.transpose() @ gram @ B).determinant()
        if det <= 0:
            raise ConsistencyError(
                "pairing is degenerate on a fixed sublattice; basis bookkeeping bug"
            )
        factor = Fraction(det, H.order ** k) / (t * t)
        value *= factor ** coeff
    return value


# ---------------------------------------------------------------------------
# q-index route
# ---------------------------------------------------------------------------


class PhiMap(NamedTuple):
    """An injective equivariant map between the two sides of a relation.

    P1 is the sum of Z[G/H] over p1_summands, the subgroups of positive
    coefficients with multiplicity, and P2 over p2_summands, those of
    negative ones. The matrix has full column rank; the transpose is the
    dual map under the standard self-duality of permutation modules.
    """

    relation: BrauerRelation
    p1_summands: tuple[Subgroup, ...]
    p2_summands: tuple[Subgroup, ...]
    matrix: IntMatrix


def _side_rank(relation: BrauerRelation) -> int:
    """The rank of P1, the sum of c [G:H] over the positive terms.

    Checked against the width cap before either route runs: the q-index
    route builds P1 and an n x n phi, and the pairing route raises each
    factor to its coefficient.
    """
    G = relation.group
    rank = sum(c * (G.order // H.order) for H, c in relation.terms if c > 0)
    _check_width(rank)
    return rank


def _relation_sides(relation: BrauerRelation):
    pos, neg = [], []
    for H, coeff in relation.terms:
        if coeff > 0:
            pos.extend([H] * coeff)
        else:
            neg.extend([H] * (-coeff))
    return pos, neg


def _side_offsets(G: FiniteGroup, subgroups) -> list[int]:
    """Where each summand Z[G/H] starts in the coordinates of its side."""
    offsets, off = [], 0
    for H in subgroups:
        offsets.append(off)
        off += coset_space(G, H).points
    return offsets


def _side_action(G: FiniteGroup, subgroups, offsets, g: int) -> list[int]:
    """The permutation g induces on the points of one side of a relation."""
    perm = []
    for H, off in zip(subgroups, offsets):
        perm.extend(off + p for p in coset_space(G, H).action[g])
    return perm


def _check_equivariant(G: FiniteGroup, matrix: IntMatrix, pos, col_offsets,
                       neg, row_offsets) -> None:
    """Raise unless matrix: P1 -> P2 commutes with every generator of G.

    On permutation modules matrix @ A1(g) == A2(g) @ matrix says
    matrix[pi2(i)][pi1(j)] == matrix[i][j], where pi1 and pi2 are the
    permutations g induces on the points of P1 and P2.
    """
    rows = matrix.entries
    for g in G.full_subgroup().generators():
        pi1 = _side_action(G, pos, col_offsets, g)
        pi2 = _side_action(G, neg, row_offsets, g)
        for i, row in enumerate(rows):
            image = rows[pi2[i]]
            if any(image[pi1[j]] != a for j, a in enumerate(row)):
                raise ConsistencyError(f"phi is not equivariant at generator {g}")


_PHI_REDRAWS = 64


def build_phi(relation: BrauerRelation, seed: int = 0) -> PhiMap:
    """Draw an injective equivariant P1 -> P2 with small random coefficients.

    Blocks are integer combinations of the orbit-sum hom basis, coefficients
    uniform in [-3, 3], redrawn (at most 64 times) until the matrix has full
    column rank. Deterministic for a fixed seed.
    """
    G = relation.group
    n = _side_rank(relation)
    pos, neg = _relation_sides(relation)
    if not pos or not neg:
        raise InputError("relation has no positive or no negative part")
    if n != sum(coset_space(G, H).points for H in neg):
        raise ConsistencyError("relation sides have different ranks")
    bases = [[equivariant_hom_basis(G, Hs, Ht) for Hs in pos] for Ht in neg]
    row_offsets = _side_offsets(G, neg)
    col_offsets = _side_offsets(G, pos)
    rng = random.Random(mix_seed(seed, 0))
    for _ in range(_PHI_REDRAWS):
        rows = [[0] * n for _ in range(n)]
        for ti, r0 in enumerate(row_offsets):
            for si, c0 in enumerate(col_offsets):
                for entries in bases[ti][si]:
                    c = rng.randrange(-3, 4)
                    if c:
                        for i, j, a in entries:
                            rows[r0 + i][c0 + j] += c * a
        matrix = IntMatrix(rows, cols=n)
        # square, since the side ranks agree: injective iff nonsingular
        if matrix.determinant() != 0:
            _check_equivariant(G, matrix, pos, col_offsets, neg, row_offsets)
            return PhiMap(relation, tuple(pos), tuple(neg), matrix)
    raise ConsistencyError(
        f"no injective equivariant map found in {_PHI_REDRAWS} draws; "
        "the relation data must be inconsistent"
    )


def _fixed_qindex(Mc: GModule, heads, sources, targets) -> Fraction:
    """q(f) = |coker f| / |ker f| for f: sum_s M^{H_s} -> sum_t M^{H_t}, read
    off one echelon pass in the ambient Z^(n T).

    v in M^H stands for sum_p e_p (x) r_p v in (Z[G/H] (x) M)^G, and a fixed
    vector is determined by its identity-coset component, so block (t, s)
    of f is sum_p heads[t][o_s + p] A_{r_p} over the cosets p of G/H_s,
    where heads[t] is the row of the identity coset of target summand t
    and o_s the place where source summand s starts. f is read on the
    Hermite basis rows u of U_s, the lattice of M^{H_s}: each image
    A_{r_p} u is computed once and combined into one ambient column per u.
    The columns go to exactla.map_orders with U_t, the lattice of the
    target fixed points, V_t, the relations of every target summand on the
    diagonal, and V_s, the relations of the fixed-point groups in U_s
    coordinates, which reads |coker f| = [U_t : f U_s + V_t] and
    |ker f| = [P : V_s], P the preimage of V_t, off one echelon pass.
    """
    G, n = Mc.group, Mc.ambient_rank
    fixed = [fixed_points(Mc, H) for H in sources]
    columns = []
    for H, off, fp in zip(sources, _side_offsets(G, sources), fixed):
        basis = fp.lattice.basis_rows
        # A_{r_p} u for every basis row u, end to end, once per coset p
        images = [list(chain.from_iterable(map(Mc.action[rep].apply, basis)))
                  for rep in coset_space(G, H).representatives]
        blocks = []
        for head in heads:
            acc = [0] * (n * len(basis))
            for c, image in zip(head[off:], images):
                # a unit coefficient adds or subtracts at C level
                if c == 1:
                    acc = list(map(add, acc, image))
                elif c == -1:
                    acc = list(map(sub, acc, image))
                elif c:
                    acc = [x + c * y for x, y in zip(acc, image)]
            blocks.append(acc)
        columns += [[x for acc in blocks for x in acc[i:i + n]]
                    for i in range(0, n * len(basis), n)]
    U_t = block_diagonal_lattice([fixed_points(Mc, H).lattice for H in targets])
    V_t = block_diagonal_lattice([Mc.relations] * len(targets))
    V_s = block_diagonal_lattice([fp.group.relations for fp in fixed])
    cok, ker = map_orders(columns, U_t, V_t, V_s)
    if cok is None or ker is None:
        raise ConsistencyError("q-index of a fixed-point map came out infinite")
    return Fraction(cok, ker)


def rc_qindex(M: GModule, relation: BrauerRelation, phi: PhiMap) -> Fraction:
    """Regulator constant as q((phi (x) id)^G) / q((phi-hat (x) id)^G).

    By Frobenius reciprocity (Z[G/H] (x) M)^G is M^H, so both q-indices are
    taken between sums of fixed points M^{H_s} of the compressed module
    (_fixed_qindex), in ambient rank n times the number of summands: the
    heads of phi (x) id are the rows of phi at the first coset of each
    summand of P2, and those of phi-hat (x) id, the transpose, its columns
    at the first coset of each summand of P1.
    """
    if relation.group != M.group:
        raise InputError("module and relation live over different groups")
    if phi.relation.terms != relation.terms:
        raise InputError("phi was built for a different relation")
    Mc, G = compress(M).module, relation.group
    pos, neg = phi.p1_summands, phi.p2_summands
    rows, cols = phi.matrix.entries, phi.matrix.transpose().entries
    forward = _fixed_qindex(Mc, [rows[r] for r in _side_offsets(G, neg)], pos, neg)
    backward = _fixed_qindex(Mc, [cols[c] for c in _side_offsets(G, pos)], neg, pos)
    return forward / backward


def qindex_route(M: GModule, relation: BrauerRelation, seed: int = 0) -> Fraction:
    """The q-index route as regulator_constant runs it, phi drawn from seed.

    A relation g Theta' with g the gcd of its coefficients has constant
    C_Theta'^g, so phi is built for Theta', whose sides are g times
    smaller. The width cap still applies to the relation as given.
    """
    _side_rank(relation)
    g = gcd(*(c for _, c in relation.terms))
    if g > 1:
        relation = BrauerRelation(relation.group,
                                  [(H, c // g) for H, c in relation.terms])
    return rc_qindex(M, relation, build_phi(relation, seed)) ** g


def regulator_constant(M: GModule, relation: BrauerRelation,
                       seed: int = 0) -> RegulatorConstant:
    """Both routes, cross-checked; disagreement is a hard internal error."""
    key = ("regulator", relation.terms, seed)
    if key in M._cache:
        return M._cache[key]
    via_pairing = rc_pairing(M, relation)
    via_qindex = qindex_route(M, relation, seed)
    if via_pairing != via_qindex:
        raise ConsistencyError(
            "regulator constant routes disagree: "
            f"pairing {via_pairing} vs q-index {via_qindex} "
            f"(relation {relation!r}, ambient rank {M.ambient_rank}, seed {seed}, "
            f"module digest {module_digest(M)})"
        )
    out = RegulatorConstant.of(M, via_pairing)
    M._cache[key] = out
    return out


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


class BoundsReport(NamedTuple):
    """One prime's valuation against its lower and upper bound."""

    ell: int
    v: int
    L: int
    U: int

    @property
    def ok(self) -> bool:
        return -self.L <= self.v <= self.U


def _torsion_quotient_order(M: GModule, H: Subgroup, q: int) -> int:
    """|T / qT| for T the torsion of the fixed points M^H."""
    total = 1
    for d in fixed_points(compress(M).module, H).group.torsion_divisors:
        total *= gcd(d, q)
    return total


def bounds_report(M: GModule, q: int, ell: int, value: Fraction) -> BoundsReport:
    """The valuation bounds at a prime ell of value, the regulator constant
    of M for the dihedral relation on the order-2q dihedral group.

    L uses the full-group data, U the rotation-subgroup data; both subtract
    the rank-computed valuation of the rotation Herbrand quotient. At an ell
    prime to q, L = U = 0, and v = 0 too unless ell = 2, since a regulator
    constant is made of primes of |G| = 2q. So ell is tested by trial
    division and must be below 2^32; any other ell, a composite included,
    raises InputError.
    """
    G = M.group
    if G.order != 2 * q:
        raise InputError("module does not live over the order-2q dihedral group")
    if not 2 <= ell < 2**32 or factorize(ell) != {ell: 1}:
        raise InputError(f"bounds need a prime ell below 2^32, not {ell}")
    full = G.full_subgroup()
    rotations = Subgroup(G, tuple(range(q)), validate=False)
    v = valuation(value, ell)
    if q % ell:
        return BoundsReport(ell, v, 0, 0)
    Mc = compress(M).module
    h_val = rosen_valuation(M, rotations, ell)
    L = (2 * valuation(_torsion_quotient_order(M, full, q), ell)
         + 2 * fixed_points(Mc, full).rank * valuation(q, ell) - h_val)
    U = (2 * valuation(_torsion_quotient_order(M, rotations, q), ell)
         + 2 * fixed_points(Mc, rotations).rank * valuation(q, ell) - h_val)
    return BoundsReport(ell, v, L, U)


# ---------------------------------------------------------------------------
# identity verification
# ---------------------------------------------------------------------------


def check_report(passed: bool, lhs, rhs, details: dict, *, seed: int,
                 **head) -> dict:
    """The report dict of one check: identities, `reglab check` and suites.

    head names the check (identity= or check=) and may add module_digest.
    lhs and rhs are rationals or None; the factorization is that of a
    positive lhs and empty otherwise. It is a general factoring, since a
    side need not come from a group (the qindex suite's do not).
    """
    factorization = {}
    if lhs is not None and Fraction(lhs) > 0:
        factorization = {str(p): e for p, e in factorize_fraction(Fraction(lhs)).items()}
    return {
        **head,
        "status": "pass" if passed else "fail",
        "lhs": None if lhs is None else fraction_str(lhs),
        "rhs": None if rhs is None else fraction_str(rhs),
        "factorization": factorization,
        "seed": seed,
        "details": details,
    }


def _rcz(q, seed):
    rel = dihedral_relation(q)
    C = regulator_constant(trivial_module(rel.group), rel, seed=seed).value
    rhs = Fraction(1, q)
    return C == rhs, C, rhs, {"q": q}


def _rczs(q, seed):
    rel = dihedral_relation(q)
    G = rel.group
    reps = subgroup_class_representatives(G)
    rng = random.Random(mix_seed(seed, 4))
    family = [reps[rng.randrange(len(reps))] for _ in range(rng.randrange(1, 4))]
    M = permutation_module(G, family[0])
    for H in family[1:]:
        M = direct_sum(M, permutation_module(G, H))
    C = regulator_constant(M, rel, seed=seed).value
    rhs = Fraction(1)
    inside = frozenset(range(q))
    for H in family:
        if not set(H.elements) <= inside:
            rhs *= Fraction(2, H.order)
    return C == rhs, C, rhs, {"q": q, "family": [list(H.elements) for H in family]}


def _dual1(module, relation, seed):
    C = regulator_constant(module, relation, seed=seed).value
    Cd = regulator_constant(dual_module(module), relation, seed=seed).value
    h0 = theta_product(module, relation, 0)
    lhs = C * Cd * h0 * h0
    return lhs == 1, lhs, Fraction(1), {
        "C": fraction_str(C), "C_dual": fraction_str(Cd), "h0": fraction_str(h0),
    }


def _finite_dual(module, relation, seed):
    C = regulator_constant(module, relation, seed=seed).value
    Cd = regulator_constant(finite_dual(module), relation, seed=seed).value
    hm1 = theta_product(module, relation, -1)
    h0 = theta_product(module, relation, 0)
    lhs = C / Cd
    rhs = (hm1 / h0) ** 2
    return lhs == rhs, lhs, rhs, {
        "C": fraction_str(C), "C_dual": fraction_str(Cd),
        "hm1": fraction_str(hm1), "h0": fraction_str(h0),
    }


def _finite_dihedral(q, module, seed):
    rel = dihedral_relation(q)
    G = rel.group
    full = G.full_subgroup()
    Mc = compress(module).module
    sizes = {name: fixed_points(Mc, H).group.order()
             for name, H in (("1", G.trivial_subgroup()), ("D", full),
                             ("R", Subgroup(G, tuple(range(q)), validate=False)),
                             ("S", Subgroup(G, (0, q), validate=False)))}
    lhs = Fraction(sizes["1"] * sizes["D"] ** 2, sizes["R"] * sizes["S"] ** 2)
    rhs = Fraction(tate(module, full, 0).order(), tate(module, full, -1).order())
    C = regulator_constant(module, rel, seed=seed).value
    hm1 = theta_product(module, rel, -1)
    h0 = theta_product(module, rel, 0)
    return lhs == rhs and C == hm1 / h0, lhs, rhs, {
        "C": fraction_str(C), "hm1_over_h0": fraction_str(hm1 / h0),
        "fixed_orders": sizes,
    }


def _dcf(q, seed, module=None, hom=None):
    if module is None and hom is None:
        raise InputError("DCF needs q and a module or a hom")
    rel = dihedral_relation(q)
    details, products = {}, []
    for key, obj, theta in (("degree", module, theta_product),
                            ("kernel_degree", hom, theta_kernel_product)):
        if obj is not None:
            for i in (-1, 0):
                prod = theta(obj, rel, i) * theta(obj, rel, i + 2)
                details[f"{key}_{i}"] = fraction_str(prod)
                products.append(prod)
    return all(p == 1 for p in products), products[0], Fraction(1), details


def _dihedral_main(q, module, seed):
    rel = dihedral_relation(q)
    C = regulator_constant(module, rel, seed=seed).value
    h0 = theta_product(module, rel, 0)
    h1 = theta_product(module, rel, 1)
    hm1 = theta_product(module, rel, -1)
    rhs = 1 / (h0 * h1)
    return C == rhs and C == hm1 / h0, C, rhs, {
        "h0": fraction_str(h0), "h1": fraction_str(h1), "hm1": fraction_str(hm1),
    }


def _bounds(q, module, seed, prime=None):
    """Bounds at every prime of q, or at the given prime alone; without a
    prime, every prime of C must also divide q."""
    rc = regulator_constant(module, dihedral_relation(q), seed=seed)
    C = rc.value
    ells = sorted(factorize(q)) if prime is None else [prime]
    reps = [bounds_report(module, q, ell, value=C) for ell in ells]
    passed = all(rep.ok for rep in reps)
    if prime is None:
        passed = passed and all(q % p == 0 for p in rc.factorization)
    return passed, C, C, {"bounds": [
        {"ell": rep.ell, "v": rep.v, "L": rep.L, "U": rep.U, "ok": rep.ok}
        for rep in reps
    ]}


class Identity(NamedTuple):
    """One entry of IDENTITIES.

    check maps the inputs to (passed, lhs, rhs, details). Its parameters
    are seed and the inputs the identity takes, among q, module, relation,
    hom and prime; those without a default are the ones it needs. An
    identity that takes q takes a module only over the order-2q dihedral
    group. module_is names the modules the identity is about ("finite" or
    "torsion-free"), if it is about some only.
    """

    check: Callable[..., tuple]
    module_is: str | None = None

    def fields(self) -> tuple[str, ...]:
        """The inputs the identity takes: its checker's parameters but seed."""
        code = self.check.__code__
        return tuple(p for p in code.co_varnames[:code.co_argcount] if p != "seed")


_MODULE_IS = {"finite": GModule.is_finite, "torsion-free": GModule.is_torsion_free}

IDENTITIES = {
    "RCZ": Identity(_rcz),
    "RCZS": Identity(_rczs),
    "DUAL1": Identity(_dual1, "torsion-free"),
    "FINITE_DUAL": Identity(_finite_dual, "finite"),
    "FINITE_DIHEDRAL": Identity(_finite_dihedral, "finite"),
    "DCF": Identity(_dcf),
    "DIHEDRAL_MAIN": Identity(_dihedral_main),
    "BOUNDS": Identity(_bounds),
}


def find_identity(identity: str) -> Identity:
    """The IDENTITIES entry of identity; an InputError names the known ones."""
    if identity not in IDENTITIES:
        raise InputError(f"unknown identity {identity!r}; expected one of "
                         + ", ".join(IDENTITIES))
    return IDENTITIES[identity]


def run_identity(identity: str, *, seed: int = 0, **inputs) -> tuple:
    """Check the inputs against the identity's checker and run it; returns
    (passed, lhs, rhs, details). An input passed as None is not given."""
    spec = find_identity(identity)
    inputs = {k: v for k, v in inputs.items() if v is not None}
    takes = spec.fields()
    extra = [k for k in inputs if k not in takes]
    if extra:
        raise InputError(f"{identity} takes no {' and no '.join(extra)}")
    code, defaults = spec.check.__code__, spec.check.__defaults__ or ()
    needs = [k for k in code.co_varnames[:code.co_argcount - len(defaults)] if k != "seed"]
    if any(k not in inputs for k in needs):
        wanted = ("q" if k == "q" else f"a {k}" for k in needs)
        raise InputError(f"{identity} needs {' and '.join(wanted)}")
    module = inputs.get("module")
    if spec.module_is and not _MODULE_IS[spec.module_is](module):
        raise InputError(f"{identity} is about {spec.module_is} modules")
    if ("q" in takes and module is not None
            and module.group != dihedral_relation(inputs["q"]).group):
        raise InputError("module does not live over the dihedral group")
    return spec.check(seed=seed, **inputs)


def verify_identity(identity: str, *, seed: int = 0, **inputs) -> dict:
    """Check one exact identity of IDENTITIES and return its report dict.

    RCZ and RCZS take q (odd, > 1); RCZS draws its summands from seed.
    DUAL1 (torsion-free) and FINITE_DUAL (finite) take a module and a
    relation. FINITE_DIHEDRAL (finite), DIHEDRAL_MAIN and BOUNDS take q and a
    module over the order-2q dihedral group, and DCF takes q and such a
    module or a hom. BOUNDS reports every prime of q, or only prime when it
    is given. An input the identity does not take, a misspelled one
    included, raises InputError.
    """
    result = run_identity(identity, seed=seed, **inputs)
    return check_report(*result, seed=seed, identity=identity)
