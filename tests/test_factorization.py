"""exact.factorize against the plain trial division in oracles, which shares
no code with it. Below TRIAL_BOUND factorize divides by the 13 primes of
_MR_BASES alone, which every composite there has a factor among; from
TRIAL_BOUND on one gcd with the product of the primes below TRIAL_BOUND
finds the small primes, and the cofactor goes to Miller-Rabin, with as
many bases as its size needs, and Brent's rho.

The table of base tiers is checked against the least strong pseudoprimes
psi_k (OEIS A014233) with a strong-probable-prime test written here, and
the number of base exponentiations is counted, so that a tier can neither
be too short to be exact nor quietly fall back to all 13 bases.
"""

import builtins
import time
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noethercheck import exact
from noethercheck.exact import FACTORIZATION_CAP, TRIAL_BOUND, factorize, is_prime
from noethercheck.oracles import factorize_by_trial_division

# Primes on both sides of TRIAL_BOUND and up to 10**6, so that products
# reach the rho path with factors of every size
_PRIMES = (
    2, 3, 5, 7, 11, 13, 97, 101, 997, 1009, 1013, 7919, 65537,
    104723, 999983, 1000003,
)

# Strong pseudoprimes to the first few bases, Carmichael numbers, products
# of two primes near 10**6, two inputs on which rho with c = 1 fails and
# c = 2 is needed, and splits by the gcd
ADVERSARIAL = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    561, 41041, 825265,
    999983 * 1000003, 999979 * 999983, 1000003 * 1000033, 999983**2,
    1013 * 1109, 1217**3,
    # for the gcd with the primes below TRIAL_BOUND: many small primes times
    # a prime near 10**12, high powers of the largest small primes times a
    # prime near 10**6, the smallest composites with no prime below the
    # bound, and inputs on both sides of TRIAL_BOUND**2
    5 * 7 * 11 * 13 * 17 * 19 * 23 * 997 * 999999999989,
    997**3 * 991**2 * 999983,
    1009**2, 1009 * 1013,
    999999, 10**6, 10**6 + 3,
    # on both sides of the switch from _MR_BASES to the gcd at TRIAL_BOUND,
    # where the walk over the primes of the gcd stops early, and powers of
    # 2 and 3, which the gcd route divides out like any other small prime
    997, 999, 1000, 1001, 41 * 43,
    7 * 991, 991 * 997, 997**2, 991 * 1009,
    2**79, 3**49,
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


def test_small_composites_have_a_base_prime():
    # below TRIAL_BOUND the 13 primes of _MR_BASES alone are tried, so every
    # composite there must have one of them as a factor: 43**2 > TRIAL_BOUND
    for n in range(4, TRIAL_BOUND):
        if factorize_by_trial_division(n) != {n: 1}:
            assert any(n % p == 0 for p in exact._MR_BASES), n


def test_prime_table_is_built_from_trial_bound_on():
    exact._trial_primes.cache_clear()
    assert factorize(TRIAL_BOUND - 1) == factorize_by_trial_division(TRIAL_BOUND - 1)
    assert exact._trial_primes.cache_info().currsize == 0
    assert factorize(TRIAL_BOUND) == factorize_by_trial_division(TRIAL_BOUND)
    assert exact._trial_primes.cache_info().currsize == 1


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


# (psi_k, k): psi_k is the least strong pseudoprime to the first k prime
# bases (OEIS A014233), so it bounds the tier of k bases; psi_7 = psi_8 and
# psi_9 = psi_10 = psi_11, so no tier has 8, 10 or 11 bases
PSI = (
    (2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4), (2152302898747, 5),
    (3474749660383, 6), (341550071728321, 7), (3825123056546413051, 9),
    (318665857834031151167461, 12),
)
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# the three psi_k too large to factor by trial division here; each factor
# is checked by it
PSI_FACTORS = {
    341550071728321: {10670053: 1, 32010157: 1},
    3825123056546413051: {149491: 1, 747451: 1, 34233211: 1},
    318665857834031151167461: {399165290221: 1, 798330580441: 1},
}


def _passes(n: int, a: int) -> bool:
    """Is odd n a strong probable prime to base a? Written out here so
    that it shares no code with exact."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_tier_table_is_exact():
    assert exact._MR_TIERS == tuple((psi, PRIME_BASES[:k]) for psi, k in PSI)
    assert exact._MR_BASES == PRIME_BASES


@pytest.mark.parametrize(("psi", "k", "k_next"), [
    (psi, k, k_next) for (psi, k), (_, k_next) in zip(PSI, PSI[1:] + ((None, 13),))
])
def test_tier_bound_is_a_strong_pseudoprime(psi, k, k_next):
    # psi passes the first k bases, so k bases cannot reach it, and every
    # base up to the last one the next tier adds, which it fails
    assert [_passes(psi, a) for a in PRIME_BASES[:k_next]] == [True] * (k_next - 1) + [False]
    assert k < k_next
    assert not is_prime(psi)
    expected = PSI_FACTORS.get(psi) or factorize_by_trial_division(psi)
    assert factorize(psi) == expected
    assert prod(p**e for p, e in expected.items()) == psi
    for p in expected:
        assert factorize_by_trial_division(p) == {p: 1}


@pytest.mark.parametrize("psi", [psi for psi, _ in PSI if psi <= 10**12])
def test_is_prime_around_tier_bounds(psi):
    # every odd n within 200 of the odd psi
    for n in range(psi - 200, psi + 201, 2):
        assert is_prime(n) == (factorize_by_trial_division(n) == {n: 1}), n


@pytest.mark.parametrize(("n", "bases"), [(999999999989, 5), (10**24 - 257, 13)])
def test_is_prime_exponentiates_only_its_tier(monkeypatch, n, bases):
    calls = []

    def counting(*args):
        calls.append(args[0])
        return builtins.pow(*args)

    monkeypatch.setattr(exact, "pow", counting, raising=False)
    # past the cache, so that each call does the test
    assert is_prime.__wrapped__(n)
    assert calls == list(PRIME_BASES[:bases])
    calls.clear()
    assert factorize(n) == {n: 1}
    assert calls == list(PRIME_BASES[:bases])
