"""Elementary exact integer arithmetic helpers.

Everything in this package runs on Python ints and fractions.Fraction; no
floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction


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


def euler_phi(n: int) -> int:
    """Euler totient, by factorization."""
    result = n
    for p in factorize(n):
        result -= result // p
    return result


# --- factorization ---------------------------------------------------------

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def _is_probable_prime(n: int) -> bool:
    # Deterministic Miller-Rabin for n < 3.3e24 with this witness set.
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    # Brent's variant; n odd composite, not a prime power of a small prime.
    from math import gcd

    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}. factorize(1) == {}."""
    if n == 0:
        raise ValueError("cannot factor zero")
    n = abs(n)
    out: dict[int, int] = {}
    for p in range(2, 10000):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if _is_probable_prime(m):
                out[m] = out.get(m, 0) + 1
                continue
            d = _pollard_rho(m)
            stack.append(d)
            stack.append(m // d)
    return out


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
