"""Brauer relations: signed sums of subgroup classes whose permutation
characters cancel.

A formal combination sum n_H [H] over conjugacy classes of subgroups is a
relation when sum n_H chi_{G/H} vanishes as a class function, equivalently
when sum n_H |X_H^g| = 0 for every g, with X_H = G/H. Such a relation makes
signed multiplicative invariants (Tate orders, regulator constants) well
defined.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .cohomology import induced_kernel_order, tate
from .errors import InputError, ValidationError
from .exactla import IntMatrix, Lattice, integer_kernel
from .gmodules import GModule
from .groups import (
    FiniteGroup,
    Subgroup,
    class_representative_of,
    coset_space,
    subgroup_class_representatives,
)


def permutation_character_matrix(G: FiniteGroup):
    """(matrix, subgroup class reps, conjugacy class reps).

    Row r, column c holds the number of points of G/H_r fixed by the
    representative of the c-th conjugacy class of elements.
    """
    subs = tuple(subgroup_class_representatives(G))
    classes = tuple(cls[0] for cls in G.conjugacy_classes())
    rows = []
    for H in subs:
        X = coset_space(G, H)
        rows.append([X.fixed_count(g) for g in classes])
    return IntMatrix(rows), subs, classes


class BrauerRelation:
    """A vanishing signed combination of subgroup classes of a fixed group.

    Terms are canonicalized: each subgroup is replaced by its conjugacy class
    representative, coefficients of the same class are merged, zero terms are
    dropped, and the result is ordered like the subgroup class listing.
    """

    __slots__ = ("group", "terms")

    def __init__(self, group: FiniteGroup, terms):
        merged: dict[tuple, tuple[Subgroup, int]] = {}
        order = {}
        for pos, rep in enumerate(subgroup_class_representatives(group)):
            order[rep.elements] = pos
        for H, coeff in terms:
            if H.group != group:
                raise InputError("relation term subgroup belongs to another group")
            rep = class_representative_of(group, H)
            key = rep.elements
            if key in merged:
                merged[key] = (rep, merged[key][1] + int(coeff))
            else:
                merged[key] = (rep, int(coeff))
        clean = [(H, c) for H, c in merged.values() if c != 0]
        clean.sort(key=lambda t: order[t[0].elements])
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "terms", tuple(clean))
        ok, witness = is_brauer_relation(group, self.terms)
        if not ok:
            raise ValidationError(
                f"character sum does not vanish at element {witness}"
            )

    def __setattr__(self, *args):
        raise AttributeError("BrauerRelation is immutable")

    def coefficient_vector(self) -> tuple[int, ...]:
        """Coefficients aligned with the subgroup class listing of the group."""
        subs = subgroup_class_representatives(self.group)
        lookup = {H.elements: c for H, c in self.terms}
        return tuple(lookup.get(H.elements, 0) for H in subs)

    def __repr__(self):
        parts = [f"{c}*[{list(H.elements)}]" for H, c in self.terms]
        return "BrauerRelation(" + " + ".join(parts) + ")"


def is_brauer_relation(G: FiniteGroup, terms) -> tuple[bool, int | None]:
    """Check the vanishing; returns (ok, witness element) with the first
    conjugacy class representative where the signed fixed-point sum is not 0.
    """
    spaces = [(coset_space(G, H), int(c)) for H, c in terms]
    for cls in G.conjugacy_classes():
        g = cls[0]
        total = sum(c * X.fixed_count(g) for X, c in spaces)
        if total != 0:
            return False, g
    return True, None


def brauer_relation_lattice(G: FiniteGroup) -> Lattice:
    """All relation coefficient vectors, as a lattice over the class listing."""
    X, _, _ = permutation_character_matrix(G)
    return integer_kernel(X.transpose())


def relation_from_vector(G: FiniteGroup, coeffs) -> BrauerRelation:
    subs = subgroup_class_representatives(G)
    coeffs = list(coeffs)
    if len(coeffs) != len(subs):
        raise InputError(
            f"expected {len(subs)} coefficients, one per subgroup class"
        )
    return BrauerRelation(G, list(zip(subs, coeffs)))


@lru_cache(maxsize=None)
def dihedral_relation(q: int) -> BrauerRelation:
    """The relation 1 + 2[G] - [R] - 2[S] in the dihedral group of order 2q
    (q odd, q > 1), with R the rotations and S generated by one reflection.

    Built once per q and shared: the relation and its group are immutable,
    and the group's cache holds only data derived from its table.
    """
    if q <= 1 or q % 2 == 0:
        raise InputError("the dihedral relation needs an odd order q > 1")
    G = FiniteGroup.dihedral(q)
    trivial = G.trivial_subgroup()
    full = G.full_subgroup()
    rotations = Subgroup(G, tuple(range(q)), validate=False)
    reflection = Subgroup(G, (0, q), validate=False)
    return BrauerRelation(G, [
        (trivial, 1), (full, 2), (rotations, -1), (reflection, -2),
    ])


def theta_product(M: GModule, relation: BrauerRelation, degree: int) -> Fraction:
    """prod over relation terms of |H^degree(H, M)| ^ coefficient."""
    if M.group != relation.group:
        raise InputError("module and relation live over different groups")
    value = Fraction(1)
    for H, coeff in relation.terms:
        value *= Fraction(tate(M, H, degree).order()) ** coeff
    return value


def theta_kernel_product(f, relation: BrauerRelation, degree: int) -> Fraction:
    """prod over relation terms of |ker H^degree(H, f)| ^ coefficient."""
    if f.source.group != relation.group:
        raise InputError("hom and relation live over different groups")
    value = Fraction(1)
    for H, coeff in relation.terms:
        value *= Fraction(induced_kernel_order(f, H, degree)) ** coeff
    return value
