"""Factoring in arith, and the factorization a RegulatorConstant reads at
the primes of |G|."""

from fractions import Fraction
from math import isqrt, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reglab import (
    ConsistencyError,
    RegulatorConstant,
    brauer_relation_lattice,
    random_module,
    regulator_constant,
    relation_from_vector,
)
from reglab.arith import factorize, factorize_fraction

from oracles import zoo

_PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)
_PRIMES = (2, 3, 5, 7, 11, 13, 101, 65521)


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


@_PROPERTY
@given(st.integers(1, 2**32))
@example(1)
@example(2**32)
@example(4294967291)  # the largest prime below 2^32
@example(65521 * 65519)  # two primes near 2^16
def test_factorize_multiplies_back_to_n_over_primes(n):
    factors = factorize(n)
    assert prod(p**e for p, e in factors.items()) == n
    assert all(_is_prime(p) and e > 0 for p, e in factors.items())
    assert factorize(-n) == factors


@_PROPERTY
@given(st.dictionaries(st.sampled_from(_PRIMES), st.integers(-4, 4)), st.booleans())
def test_factorize_fraction_round_trips_signed_exponents(exponents, negative):
    x = prod((Fraction(p) ** e for p, e in exponents.items()), start=Fraction(1))
    want = {p: e for p, e in sorted(exponents.items()) if e}
    assert factorize_fraction(-x if negative else x) == want


def test_factoring_zero_raises():
    with pytest.raises(ValueError):
        factorize_fraction(Fraction(0))
    with pytest.raises(ValueError):
        factorize(0)


@_PROPERTY
@given(st.sampled_from((2, 6, 12, 24, 48)),
       st.dictionaries(st.sampled_from(_PRIMES), st.integers(-4, 4)))
def test_regulator_constant_reads_the_primes_of_the_group_order(order, exponents):
    x = prod((Fraction(p) ** e for p, e in exponents.items()), start=Fraction(1))
    if all(order % p == 0 for p, e in exponents.items() if e):
        assert RegulatorConstant(x, order).factorization == factorize_fraction(x)
    else:
        with pytest.raises(ConsistencyError, match="prime to the group order"):
            RegulatorConstant(x, order)


def _zoo_relations():
    return [pytest.param(G, vec, id=f"zoo{k}-{i}") for k, G in enumerate(zoo())
            for i, vec in enumerate(brauer_relation_lattice(G).basis_rows)]


@pytest.mark.parametrize("G, vec", _zoo_relations())
def test_every_zoo_constant_factors_at_the_group_order(G, vec):
    rel = relation_from_vector(G, vec)
    for profile in ("torsion_free", "finite", "mixed"):
        for seed in (0, 1):
            rc = regulator_constant(random_module(G, profile, seed=seed), rel, seed=seed)
            assert rc.factorization == factorize_fraction(rc.value)
            assert RegulatorConstant(rc.value, G.order).factorization == rc.factorization
