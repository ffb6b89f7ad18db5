"""Elementary exact integer arithmetic helpers.

Everything in this package runs on Python ints and fractions.Fraction; no
floating point anywhere.

Factoring is trial division only. Every integer reglab factors is small: a
regulator constant is never factored in general, since it is read at the
primes of |G| (regulator.RegulatorConstant), so the integers left are group
orders, the q of a dihedral group, an ell below 2^32 checked for being
prime (check_prime), and the sides of a check report.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd.

    Returns (g, x, y) with g = a*x + b*y and g = gcd(a, b) >= 0.
    """
    # Invariant: old_r = a*old_s + b*old_t, r = a*s + b*t.
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def valuation(n: int | Fraction, p: int) -> int:
    """p-adic valuation of a nonzero integer or fraction."""
    if p < 2:
        raise ValueError("valuation needs p >= 2")
    if isinstance(n, Fraction):
        return valuation(n.numerator, p) - valuation(n.denominator, p)
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# --- factorization ---------------------------------------------------------


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}. factorize(1) == {}.

    Trial division by 2 and then by odd d while d^2 <= n: up to sqrt(n)/2
    divisions, a few milliseconds for a prime below 2^32.
    """
    if n == 0:
        raise ValueError("cannot factor zero")
    n = abs(n)
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = 1
    return out


def check_prime(ell: int) -> None:
    """Raise InputError unless ell is a prime below 2^32."""
    if not 2 <= ell < 2**32 or factorize(ell) != {ell: 1}:
        raise InputError(f"need a prime ell below 2^32, not {ell}")


def factorize_fraction(x: Fraction) -> dict[int, int]:
    """Signed prime support of a nonzero rational: {prime: exponent}."""
    if x == 0:
        raise ValueError("cannot factor zero")
    out = dict(factorize(x.numerator))
    for p, e in factorize(x.denominator).items():
        out[p] = out.get(p, 0) - e
    return {p: e for p, e in sorted(out.items()) if e != 0}


def fraction_str(x) -> str:
    """A rational as "n/d", or "n" when it is an integer."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


# --- seeds -----------------------------------------------------------------

_MIX = 0x9E3779B97F4A7C15
_MASK = 2**64 - 1


def mix_seed(seed: int, *salts: int) -> int:
    """A 64-bit seed derived from seed and salts, one multiply-add per salt.

    Every seeded draw in the package derives its seed here, so distinct salts
    give independent-looking streams from one user seed.
    """
    x = seed & _MASK
    for s in salts:
        x = (x * _MIX + s + 1) & _MASK
    return x
