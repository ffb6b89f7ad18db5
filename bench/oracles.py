"""Output checks computed apart from reglab.

(a) regulator_constant: the defining product of a torsion-free module's
    regulator constant, in sympy rational arithmetic;
(b) tate_orders: |H^0(H,M)| and |H^-1(H,M)| of a finite module by listing
    its elements;
(c) the property checks every output must satisfy.

Modules arrive as reglab module JSON (see inputs.module_json); nothing here
imports reglab.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm, prod

from inputs import hnf, pivots

ENUM_BOUND = 2048  # largest finite module that tate_orders lists


def _action(doc: dict) -> list[list[list[int]]]:
    return [doc["action"][str(g)] for g in range(len(doc["action"]))]


def regulator_constant(doc: dict, terms) -> Fraction:
    """prod_H (det(B Gram B^T) / index^2 / |H|^rank)^(n_H) for a torsion-free
    module, where the rows of B span M^H over Q, index = [M^H : Z B] is the
    product of the Smith invariants of B and Gram = sum_g A_g^T A_g."""
    from sympy import Matrix, Rational, eye
    from sympy.matrices.normalforms import invariant_factors

    if doc["relations"]:
        raise ValueError("oracle (a) needs a torsion-free module")
    n = doc["rank"]
    mats = [Matrix(A) for A in _action(doc)]
    gram = Matrix.zeros(n, n)
    for A in mats:
        gram += A.T * A
    value = Rational(1)
    for elems, coeff in terms:
        stacked = Matrix.vstack(*[mats[h] - eye(n) for h in elems])
        rows = []
        for v in stacked.nullspace():
            den = lcm(*[int(x.q) for x in v])
            w = [int(x * den) for x in v]
            g = gcd(*w)
            rows.append([x // g for x in w])
        if not rows:
            continue
        B = Matrix(rows)
        index = prod(int(d) for d in invariant_factors(B))
        det = (B * gram * B.T).det()
        value *= Rational(det, index**2 * len(elems) ** len(rows)) ** coeff
    return Fraction(int(value.p), int(value.q))


def tate_orders(doc: dict, H, bound: int = ENUM_BOUND):
    """(|M^H| / |N_H M|, |ker N_H| / |I_H M|) by enumerating the finite
    module M = Z^n / L, or None when M is infinite or larger than bound."""
    n = doc["rank"]
    L = hnf(doc["relations"], n)
    if len(L) < n or prod(r[p] for r, p in zip(L, pivots(L))) > bound:
        return None
    diag = [L[i][i] for i in range(n)]

    def reduce(v):
        v = list(v)
        for i in range(n):
            q = v[i] // diag[i]
            if q:
                v = [a - q * b for a, b in zip(v, L[i])]
        return tuple(v)

    def act(A, x):
        return reduce([sum(a * b for a, b in zip(row, x)) for row in A])

    action = _action(doc)
    mats = [action[h] for h in H]
    norm = [[sum(A[i][j] for A in mats) for j in range(n)] for i in range(n)]
    zero = (0,) * n
    fixed = kernel = 0
    images = set()
    for x in itertools.product(*(range(d) for d in diag)):
        if all(act(A, x) == x for A in mats):
            fixed += 1
        y = act(norm, x)
        images.add(y)
        if y == zero:
            kernel += 1
    norm_images = len(images)
    # I_H M is generated by (h - 1) e_j
    gens = set()
    for A in mats:
        for j in range(n):
            g = reduce([A[i][j] - (i == j) for i in range(n)])
            if g != zero:
                gens.add(g)
    span = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for s in frontier:
            for g in gens:
                t = reduce([a + b for a, b in zip(s, g)])
                if t not in span:
                    span.add(t)
                    nxt.append(t)
        frontier = nxt
    return Fraction(fixed, norm_images), Fraction(kernel, len(span))


def primes_divide(value: Fraction, n: int) -> bool:
    """Every prime of value's numerator and denominator divides n."""
    for x in (value.numerator, value.denominator):
        x = abs(x)
        if x == 0:
            return False
        g = gcd(x, n)
        while g > 1:
            while x % g == 0:
                x //= g
            g = gcd(x, n)
        if x != 1:
            return False
    return True
