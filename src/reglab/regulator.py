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

regulator_constant runs both and raises if they ever differ, which turns
every caller into a cross-check of the whole stack.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from .arith import factorize, factorize_fraction, fraction_str, mix_seed, valuation
from .brauer import BrauerRelation, dihedral_relation, theta_kernel_product, theta_product
from .cohomology import rosen_valuation, tate
from .errors import ConsistencyError, InputError
from .exactla import (
    GroupHom,
    IntMatrix,
    Lattice,
    PresentedAbelianGroup,
    block_diagonal_lattice,
    integer_kernel,
    qindex,
    subquotient_group,
)
from .gmodules import (
    GModule,
    ModuleHom,
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
from .groups import FiniteGroup, Subgroup, coset_space


class RegulatorConstant:
    """A positive rational with its prime factorization."""

    __slots__ = ("value", "factorization")

    def __init__(self, value: Fraction):
        value = Fraction(value)
        if value <= 0:
            raise ConsistencyError(f"regulator constant {value} is not positive")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "factorization", factorize_fraction(value))

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


def rc_pairing(M: GModule, relation: BrauerRelation,
               pairing_scale: int = 1) -> Fraction:
    """Regulator constant straight from the defining product.

    Per subgroup class H: the fixed points map onto a sublattice of the free
    quotient mt(M); the factor is det of the pairing Gram on that sublattice,
    divided by |H|^rank, divided by the squared order of the fixed torsion.

    The result does not depend on which invariant pairing is used;
    pairing_scale rescales it and exists so callers can confirm that.
    """
    if relation.group != M.group:
        raise InputError("module and relation live over different groups")
    if pairing_scale <= 0:
        raise InputError("pairing_scale must be a positive integer")
    Mc = compress(M).module
    dec = torsion_decomposition(Mc)
    mt = dec.free
    pi = dec.mt_projection
    gram = invariant_pairing(mt)
    if pairing_scale != 1:
        gram = gram.scale(pairing_scale)
    r = mt.ambient_rank
    value = Fraction(1)
    for H, coeff in relation.terms:
        fp = fixed_points(Mc, H)
        k = fp.rank
        t = fp.torsion_order()
        image = Lattice.from_rows(r, [pi.apply(row) for row in fp.lattice.basis_rows])
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


class PhiMap:
    """An injective equivariant map between the two sides of a relation.

    P1 collects Z[G/H] for positive coefficients (with multiplicity), P2 for
    negative ones. The matrix has full column rank; the transpose is the
    dual map under the standard self-duality of permutation modules.
    """

    __slots__ = ("relation", "p1", "p2", "p1_summands", "p2_summands",
                 "matrix", "seed")

    def __init__(self, relation, p1, p2, p1_summands, p2_summands, matrix, seed):
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "p2", p2)
        object.__setattr__(self, "p1_summands", tuple(p1_summands))
        object.__setattr__(self, "p2_summands", tuple(p2_summands))
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "seed", seed)

    def __setattr__(self, *args):
        raise AttributeError("PhiMap is immutable")


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


_PHI_REDRAWS = 64


def build_phi(relation: BrauerRelation, seed: int = 0) -> PhiMap:
    """Draw an injective equivariant P1 -> P2 with small random coefficients.

    Blocks are integer combinations of the orbit-sum hom basis, coefficients
    uniform in [-3, 3], redrawn (at most 64 times) until the matrix has full
    column rank. Deterministic for a fixed seed.
    """
    G = relation.group
    pos, neg = _relation_sides(relation)
    if not pos or not neg:
        raise InputError("relation has no positive or no negative part")
    p1 = permutation_module(G, pos[0])
    for H in pos[1:]:
        p1 = direct_sum(p1, permutation_module(G, H))
    p2 = permutation_module(G, neg[0])
    for H in neg[1:]:
        p2 = direct_sum(p2, permutation_module(G, H))
    if p1.ambient_rank != p2.ambient_rank:
        raise ConsistencyError("relation sides have different ranks")
    bases = [[equivariant_hom_basis(G, Hs, Ht) for Hs in pos] for Ht in neg]
    row_offsets = _side_offsets(G, neg)
    col_offsets = _side_offsets(G, pos)
    rng = random.Random(mix_seed(seed, 0))
    for _ in range(_PHI_REDRAWS):
        rows = [[0] * p1.ambient_rank for _ in range(p2.ambient_rank)]
        for ti in range(len(neg)):
            for si in range(len(pos)):
                block = None
                for basis_mat in bases[ti][si]:
                    c = rng.randrange(-3, 4)
                    if c:
                        term = basis_mat.scale(c)
                        block = term if block is None else block + term
                if block is None:
                    continue
                r0, c0 = row_offsets[ti], col_offsets[si]
                for i in range(block.rows):
                    target = rows[r0 + i]
                    src = block.entries[i]
                    for j in range(block.cols):
                        target[c0 + j] += src[j]
        matrix = IntMatrix(rows, cols=p1.ambient_rank)
        if integer_kernel(matrix).rank == 0:
            ModuleHom(p1, p2, matrix)  # equivariance self-check
            return PhiMap(relation, p1, p2, pos, neg, matrix, seed)
    raise ConsistencyError(
        f"no injective equivariant map found in {_PHI_REDRAWS} draws; "
        "the relation data must be inconsistent"
    )


def _fixed_sum(Mc: GModule, subgroups) -> tuple[Lattice, PresentedAbelianGroup]:
    """sum_s M^{H_s}: its lattice in Z^(n*k) and the group that lattice presents."""
    F = block_diagonal_lattice([fixed_points(Mc, H).lattice for H in subgroups])
    rel = block_diagonal_lattice([Mc.relations] * len(subgroups))
    return F, subquotient_group(F, rel)


def _fixed_sum_hom(W: IntMatrix, src, tgt) -> GroupHom:
    """The map between two fixed-point sums induced by the ambient matrix W."""
    (F_src, A_src), (F_tgt, A_tgt) = src, tgt
    cols = []
    for u in F_src.basis_rows:
        coords = F_tgt.coordinates(W.apply(u))
        if coords is None:
            raise ConsistencyError("map does not preserve fixed points")
        cols.append(coords)
    return GroupHom(A_src, A_tgt, IntMatrix.from_columns(cols, rows=F_tgt.rank))


def _coset_sum(Mc: GModule, H: Subgroup, coeffs) -> list[list[int]]:
    """sum_p coeffs[p] A_{r_p}, r_p the representative of coset p of G/H."""
    n = Mc.ambient_rank
    out = [[0] * n for _ in range(n)]
    for rep, c in zip(coset_space(Mc.group, H).representatives, coeffs):
        if c:
            for orow, arow in zip(out, Mc.action[rep].entries):
                for j in range(n):
                    orow[j] += c * arow[j]
    return out


def _qindex_homs(Mc: GModule, phi: PhiMap) -> tuple[GroupHom, GroupHom]:
    """(phi (x) id)^G and (phi-hat (x) id)^G, read on sums of M^H.

    v in M^H corresponds to sum_p e_p (x) r_p v in (Z[G/H] (x) M)^G, and a
    fixed vector is determined by its identity-coset component. The (t, s)
    block of phi (x) id is therefore sum_p phi[t0][s_p] A_{r_p} over G/H_s,
    and the (s, t) block of the transpose is sum_p phi[t_p][s0] A_{r_p} over
    G/H_t, where t0, s0 are the identity cosets of each summand.
    """
    G, n = Mc.group, Mc.ambient_rank
    pos, neg = phi.p1_summands, phi.p2_summands
    row_offsets = _side_offsets(G, neg)
    col_offsets = _side_offsets(G, pos)

    def assemble(blocks) -> IntMatrix:
        return IntMatrix([[x for B in band for x in B[i]]
                          for band in blocks for i in range(n)],
                         cols=n * len(blocks[0]))

    forward = assemble([[_coset_sum(Mc, Hs, phi.matrix.row(r)[c:])
                         for Hs, c in zip(pos, col_offsets)]
                        for r in row_offsets])
    backward = assemble([[_coset_sum(Mc, Ht, phi.matrix.column(c)[r:])
                          for Ht, r in zip(neg, row_offsets)]
                         for c in col_offsets])
    P1, P2 = _fixed_sum(Mc, pos), _fixed_sum(Mc, neg)
    return _fixed_sum_hom(forward, P1, P2), _fixed_sum_hom(backward, P2, P1)


def rc_qindex(M: GModule, relation: BrauerRelation, phi: PhiMap) -> Fraction:
    """Regulator constant as q((phi (x) id)^G) / q((phi-hat (x) id)^G).

    By Frobenius reciprocity (Z[G/H] (x) M)^G is M^H, so both q-indices are
    taken between sums of fixed points M^{H_s} of the compressed module, in
    ambient rank n times the number of summands.
    """
    if relation.group != M.group:
        raise InputError("module and relation live over different groups")
    if phi.relation.terms != relation.terms:
        raise InputError("phi was built for a different relation")
    forward, backward = _qindex_homs(compress(M).module, phi)
    qf = qindex(forward)
    qb = qindex(backward)
    if qf is None or qb is None:
        raise ConsistencyError("q-index of a fixed-point map came out infinite")
    return qf / qb


def regulator_constant(M: GModule, relation: BrauerRelation,
                       seed: int = 0) -> RegulatorConstant:
    """Both routes, cross-checked; disagreement is a hard internal error."""
    key = ("regulator", relation.terms, seed)
    if key in M._cache:
        return M._cache[key]
    via_pairing = rc_pairing(M, relation)
    phi = build_phi(relation, seed)
    via_qindex = rc_qindex(M, relation, phi)
    if via_pairing != via_qindex:
        raise ConsistencyError(
            "regulator constant routes disagree: "
            f"pairing {via_pairing} vs q-index {via_qindex} "
            f"(relation {relation!r}, ambient rank {M.ambient_rank}, seed {seed})"
        )
    out = RegulatorConstant(via_pairing)
    M._cache[key] = out
    return out


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


class BoundsReport:
    """One prime's valuation against its lower and upper bound."""

    __slots__ = ("ell", "v", "L", "U")

    def __init__(self, ell: int, v: int, L: int, U: int):
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "U", U)

    def __setattr__(self, *args):
        raise AttributeError("BoundsReport is immutable")

    @property
    def ok(self) -> bool:
        return -self.L <= self.v <= self.U

    def __repr__(self):
        return f"BoundsReport(ell={self.ell}, v={self.v}, L={self.L}, U={self.U})"


def _torsion_quotient_order(M: GModule, H: Subgroup, q: int) -> int:
    """|T / qT| for T the torsion of the fixed points M^H."""
    total = 1
    for d in fixed_points(compress(M).module, H).group.torsion_divisors:
        total *= gcd(d, q)
    return total


def bounds_report(M: GModule, q: int, ell: int,
                  value: Fraction | None = None) -> BoundsReport:
    """The valuation bounds at a prime ell dividing q, for the dihedral
    relation on the order-2q dihedral group.

    L uses the full-group data, U the rotation-subgroup data; both subtract
    the rank-computed valuation of the rotation Herbrand quotient.
    """
    G = M.group
    if G.order != 2 * q:
        raise InputError("module does not live over the order-2q dihedral group")
    if value is None:
        value = regulator_constant(M, dihedral_relation(q)).value
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


def _report(identity, passed, lhs, rhs, seed, details):
    return {
        "identity": identity,
        "status": "pass" if passed else "fail",
        "lhs": fraction_str(lhs),
        "rhs": fraction_str(rhs),
        "factorization": {str(p): e
                          for p, e in factorize_fraction(Fraction(lhs)).items()},
        "seed": seed,
        "details": details,
    }


def _dihedral_parts(q: int):
    rel = dihedral_relation(q)
    G = rel.group
    full = G.full_subgroup()
    rotations = Subgroup(G, tuple(range(q)), validate=False)
    reflection = Subgroup(G, (0, q), validate=False)
    return rel, G, full, rotations, reflection


def verify_identity(identity: str, *, q: int | None = None,
                    module: GModule | None = None,
                    relation: BrauerRelation | None = None,
                    hom: ModuleHom | None = None,
                    seed: int = 0) -> dict:
    """Check one of the supported exact identities and return a report dict.

    Identities: RCZ, RCZS, DUAL1, FINITE_DUAL, FINITE_DIHEDRAL, DCF,
    DIHEDRAL_MAIN, BOUNDS. Dihedral identities take q (odd, > 1); the others
    need an explicit module and relation. RCZS draws its summands from seed.
    """
    if identity == "RCZ":
        if q is None:
            raise InputError("RCZ needs q")
        rel, G, *_ = _dihedral_parts(q)
        C = regulator_constant(trivial_module(G), rel, seed=seed).value
        rhs = Fraction(1, q)
        return _report("RCZ", C == rhs, C, rhs, seed, {"q": q})

    if identity == "RCZS":
        if q is None:
            raise InputError("RCZS needs q")
        rel, G, full, rotations, _ = _dihedral_parts(q)
        from .groups import subgroup_class_representatives
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
        return _report("RCZS", C == rhs, C, rhs, seed, {
            "q": q, "family": [list(H.elements) for H in family],
        })

    if identity == "DUAL1":
        if module is None or relation is None:
            raise InputError("DUAL1 needs a module and a relation")
        if not module.is_torsion_free():
            raise InputError("DUAL1 is about torsion-free modules")
        C = regulator_constant(module, relation, seed=seed).value
        Cd = regulator_constant(dual_module(module), relation, seed=seed).value
        h0 = theta_product(module, relation, 0)
        lhs = C * Cd * h0 * h0
        return _report("DUAL1", lhs == 1, lhs, Fraction(1), seed, {
            "C": fraction_str(C), "C_dual": fraction_str(Cd),
            "h0": fraction_str(h0),
        })

    if identity == "FINITE_DUAL":
        if module is None or relation is None:
            raise InputError("FINITE_DUAL needs a module and a relation")
        if not module.is_finite():
            raise InputError("FINITE_DUAL is about finite modules")
        C = regulator_constant(module, relation, seed=seed).value
        Cd = regulator_constant(finite_dual(module), relation, seed=seed).value
        hm1 = theta_product(module, relation, -1)
        h0 = theta_product(module, relation, 0)
        lhs = C / Cd
        rhs = (hm1 / h0) ** 2
        return _report("FINITE_DUAL", lhs == rhs, lhs, rhs, seed, {
            "C": fraction_str(C), "C_dual": fraction_str(Cd),
            "hm1": fraction_str(hm1), "h0": fraction_str(h0),
        })

    if identity == "FINITE_DIHEDRAL":
        if q is None or module is None:
            raise InputError("FINITE_DIHEDRAL needs q and a module")
        if not module.is_finite():
            raise InputError("FINITE_DIHEDRAL is about finite modules")
        rel, G, full, rotations, reflection = _dihedral_parts(q)
        if module.group != G:
            raise InputError("module does not live over the dihedral group")
        sizes = {}
        for name, H in (("1", G.trivial_subgroup()), ("D", full),
                        ("R", rotations), ("S", reflection)):
            sizes[name] = fixed_points(compress(module).module, H).group.order()
        lhs = Fraction(sizes["1"] * sizes["D"] ** 2, sizes["R"] * sizes["S"] ** 2)
        rhs = Fraction(tate(module, full, 0).order(), tate(module, full, -1).order())
        C = regulator_constant(module, rel, seed=seed).value
        hm1 = theta_product(module, rel, -1)
        h0 = theta_product(module, rel, 0)
        second = C == hm1 / h0
        return _report("FINITE_DIHEDRAL", lhs == rhs and second, lhs, rhs, seed, {
            "C": fraction_str(C), "hm1_over_h0": fraction_str(hm1 / h0),
            "fixed_orders": sizes,
        })

    if identity == "DCF":
        if q is None or (module is None and hom is None):
            raise InputError("DCF needs q and a module or a hom")
        rel, G, *_ = _dihedral_parts(q)
        details = {}
        passed = True
        lhs = None
        if module is not None:
            for i in (-1, 0):
                prod = theta_product(module, rel, i) * theta_product(module, rel, i + 2)
                details[f"degree_{i}"] = fraction_str(prod)
                passed = passed and prod == 1
                lhs = prod if lhs is None else lhs
        if hom is not None:
            for i in (-1, 0):
                prod = (theta_kernel_product(hom, rel, i)
                        * theta_kernel_product(hom, rel, i + 2))
                details[f"kernel_degree_{i}"] = fraction_str(prod)
                passed = passed and prod == 1
                lhs = prod if lhs is None else lhs
        return _report("DCF", passed, lhs, Fraction(1), seed, details)

    if identity == "DIHEDRAL_MAIN":
        if q is None or module is None:
            raise InputError("DIHEDRAL_MAIN needs q and a module")
        rel, G, *_ = _dihedral_parts(q)
        if module.group != G:
            raise InputError("module does not live over the dihedral group")
        C = regulator_constant(module, rel, seed=seed).value
        h0 = theta_product(module, rel, 0)
        h1 = theta_product(module, rel, 1)
        hm1 = theta_product(module, rel, -1)
        rhs = 1 / (h0 * h1)
        passed = C == rhs and C == hm1 / h0
        return _report("DIHEDRAL_MAIN", passed, C, rhs, seed, {
            "h0": fraction_str(h0), "h1": fraction_str(h1),
            "hm1": fraction_str(hm1),
        })

    if identity == "BOUNDS":
        if q is None or module is None:
            raise InputError("BOUNDS needs q and a module")
        rel, G, *_ = _dihedral_parts(q)
        if module.group != G:
            raise InputError("module does not live over the dihedral group")
        C = regulator_constant(module, rel, seed=seed).value
        fac = factorize_fraction(C)
        passed = all(q % p == 0 for p in fac)
        rows = []
        for ell in sorted(factorize(q)):
            rep = bounds_report(module, q, ell, value=C)
            rows.append({"ell": ell, "v": rep.v, "L": rep.L, "U": rep.U,
                         "ok": rep.ok})
            passed = passed and rep.ok
        return _report("BOUNDS", passed, C, C, seed, {"bounds": rows})

    raise InputError(f"unknown identity {identity!r}")


_IDENTITIES = ("RCZ", "RCZS", "DUAL1", "FINITE_DUAL", "FINITE_DIHEDRAL",
               "DCF", "DIHEDRAL_MAIN", "BOUNDS")
