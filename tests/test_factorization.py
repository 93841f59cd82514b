"""exact.factorize (trial division below TRIAL_BOUND, then Miller-Rabin and
Brent's rho) against the plain trial division in oracles, which shares no
code with it."""

import time
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noethercheck.exact import FACTORIZATION_CAP, TRIAL_BOUND, factorize, is_prime
from noethercheck.oracles import factorize_by_trial_division

# Primes on both sides of TRIAL_BOUND and up to 10**6, so that products
# reach the rho path with factors of every size
_PRIMES = (
    2, 3, 5, 7, 11, 13, 97, 101, 997, 1009, 1013, 7919, 65537,
    104723, 999983, 1000003,
)

# Strong pseudoprimes to the first few bases, Carmichael numbers, products
# of two primes near 10**6, and two inputs on which rho with c = 1 fails
# and c = 2 is needed
ADVERSARIAL = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    561, 41041, 825265,
    999983 * 1000003, 999979 * 999983, 1000003 * 1000033, 999983**2,
    1013 * 1109, 1217**3,
)


def _check(n: int) -> None:
    got = factorize(n)
    assert got == factorize_by_trial_division(n)
    assert list(got) == sorted(got)


@st.composite
def products_of_chosen_primes(draw):
    """Products of up to four prime powers from _PRIMES, skipping any
    factor that would take the product above 10**12."""
    n = 1
    for p, e in draw(st.lists(st.tuples(st.sampled_from(_PRIMES), st.integers(1, 4)), max_size=4)):
        if n * p**e <= 10**12:
            n *= p**e
    return n


@settings(max_examples=300, deadline=None)
@given(st.one_of(products_of_chosen_primes(), st.integers(1, 10**12)))
def test_factorize_matches_trial_division(n):
    _check(n)
    _check(-n)


@pytest.mark.parametrize("n", ADVERSARIAL)
def test_factorize_adversarial(n):
    _check(n)
    assert is_prime(n) == (factorize_by_trial_division(n) == {n: 1})


def test_factorize_small_range():
    for n in range(1, 3 * TRIAL_BOUND * TRIAL_BOUND, 997):
        _check(n)


def test_is_prime_matches_trial_division():
    for n in range(2, 20000):
        assert is_prime(n) == (factorize_by_trial_division(n) == {n: 1})


def _prime_below(x: int) -> int:
    while not is_prime(x):
        x -= 1
    return x


def test_factorize_near_cap_within_bound():
    p = _prime_below(10**12)
    q = _prime_below(p - 10**6)
    r = _prime_below(10**12 - 10**9)
    for n, expected in ((p * q, {q: 1, p: 1}), (r * r, {r: 2})):
        assert n <= FACTORIZATION_CAP
        start = time.perf_counter()
        assert factorize(n) == expected
        assert time.perf_counter() - start < 10
    # each factor checked by the independent oracle
    assert factorize_by_trial_division(p) == {p: 1}
    assert factorize_by_trial_division(q) == {q: 1}
    assert factorize_by_trial_division(r) == {r: 1}


def test_cap_boundary():
    assert factorize(FACTORIZATION_CAP) == {2: 24, 5: 24}
    with pytest.raises(ValueError, match=str(FACTORIZATION_CAP)):
        factorize(FACTORIZATION_CAP + 1)
    with pytest.raises(ValueError, match=str(FACTORIZATION_CAP)):
        is_prime(FACTORIZATION_CAP + 1)
