import random
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noethercheck import localfields
from noethercheck.exact import factorize
from noethercheck.localfields import (
    REAL_PLACE,
    DiagonalForm,
    Place,
    hasse_invariant,
    hilbert_symbol,
    is_local_square,
    legendre_symbol,
    local_isotropic,
)
from noethercheck.oracles import (
    LocalZeroOracle,
    factorize_by_trial_division,
    grid_forms,
    local_oracle,
)

_PLACES = [Place(2), Place(3), Place(5), Place(7), Place(11), REAL_PLACE]


def test_place():
    assert REAL_PLACE.p is None
    assert Place(7).p == 7
    with pytest.raises(ValueError):
        Place(6)


def test_diagonal_form():
    f = DiagonalForm.of(1, 1, 1, -7)
    assert f.dim == 4
    assert str(f) == "<1,1,1,-7>"
    assert DiagonalForm.repeated(3).coeffs == (1, 1, 1)
    with pytest.raises(ValueError):
        DiagonalForm.of()
    with pytest.raises(ValueError):
        DiagonalForm.of(1, 0)
    with pytest.raises(ValueError):
        DiagonalForm.repeated(0)


def test_legendre_symbol():
    assert legendre_symbol(2, 7) == 1
    assert legendre_symbol(3, 7) == -1
    assert legendre_symbol(14, 7) == 0
    assert [legendre_symbol(a, 5) for a in (1, 2, 3, 4)] == [1, -1, -1, 1]
    with pytest.raises(ValueError):
        legendre_symbol(1, 2)


def test_hilbert_symbol_known():
    assert hilbert_symbol(-1, -1, REAL_PLACE) == -1
    assert hilbert_symbol(-1, -1, Place(2)) == -1
    assert hilbert_symbol(-1, -1, Place(3)) == 1
    assert hilbert_symbol(2, 3, Place(3)) == -1
    assert hilbert_symbol(3, 3, Place(3)) == -1
    assert hilbert_symbol(5, 7, Place(5)) == -1
    assert hilbert_symbol(2, 7, Place(2)) == 1
    assert hilbert_symbol(2, -7, Place(2)) == 1
    assert hilbert_symbol(Fraction(1, 2), 3, Place(2)) == -1
    assert hilbert_symbol(-1, 7, Place(7)) == -1
    with pytest.raises(ValueError):
        hilbert_symbol(0, 3, Place(2))


def test_hilbert_symbol_properties():
    rng = random.Random(23)
    vals = [Fraction(n, d) * s for n in (1, 2, 3, 5, 7, 30) for d in (1, 2, 3) for s in (1, -1)]
    for _ in range(300):
        a, b, c = (rng.choice(vals) for _ in range(3))
        v = rng.choice(_PLACES)
        assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
        assert hilbert_symbol(a * b, c, v) == hilbert_symbol(a, c, v) * hilbert_symbol(b, c, v)
        assert hilbert_symbol(a, -a, v) == 1
        assert hilbert_symbol(a, b * b, v) == 1
        if a != 1:
            assert hilbert_symbol(a, 1 - a, v) == 1


def _support_places(*xs):
    """2, the real place and every odd prime of a numerator or denominator."""
    primes = {2}
    for x in xs:
        primes.update(factorize_by_trial_division(x.numerator))
        primes.update(factorize_by_trial_division(x.denominator))
    return [Place(p) for p in sorted(primes)] + [REAL_PLACE]


_RATIONALS = st.builds(
    Fraction,
    st.integers(1, 10**6).flatmap(lambda n: st.sampled_from((n, -n))),
    st.integers(1, 10**6),
)


@settings(max_examples=150, deadline=None)
@given(_RATIONALS, _RATIONALS, _RATIONALS)
def test_hilbert_symbol_laws(a, b, c):
    # laws that hold at every place and never mention unit parts or
    # valuations, checked wherever a symbol can be -1
    support = (a, b, c) if a == 1 else (a, b, c, 1 - a)
    for v in _support_places(*support):
        ab = hilbert_symbol(a, b, v)
        assert ab == hilbert_symbol(b, a, v), (a, b, v)
        assert hilbert_symbol(a, b * c, v) == ab * hilbert_symbol(a, c, v), (a, b, c, v)
        assert hilbert_symbol(a, -a, v) == 1, (a, v)
        if a != 1:
            assert hilbert_symbol(a, 1 - a, v) == 1, (a, v)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 10**6).flatmap(lambda n: st.sampled_from((n, -n))),
    st.integers(1, 10**6),
    _RATIONALS,
    st.integers(1, 10**3),
    st.integers(1, 10**3),
)
def test_hilbert_symbol_reads_the_integer_class(n, d, b, s, t):
    # n/d stands as the integer n*d, whether or not n/d is in lowest
    # terms, and a square factor (s/t)**2 changes no symbol
    a = Fraction(n, d)
    scaled = a * Fraction(s, t) ** 2
    for v in _support_places(Fraction(n * d), b, scaled):
        want = hilbert_symbol(n * d, b, v)
        assert hilbert_symbol(a, b, v) == want, (a, b, v)
        assert hilbert_symbol(scaled, b, v) == want, (scaled, b, v)
        assert hilbert_symbol(b, scaled, v) == want, (b, scaled, v)


def test_symbols_at_a_place_skip_the_primality_check(monkeypatch):
    # a Place has proved its prime, so neither hilbert_symbol nor
    # is_local_square may test it again or go through legendre_symbol
    rng = random.Random(3)
    places = [Place(p) for p in (2, 3, 5, 7, 11, 13, 97, 101, 9973)] + [REAL_PLACE]

    def draw():
        return Fraction(rng.randint(1, 10**4) * rng.choice((1, -1)), rng.randint(1, 10**4))

    cases = [(draw(), draw(), rng.choice(places)) for _ in range(10**4)]
    symbols = [hilbert_symbol(a, b, v) for a, b, v in cases]
    squares = [is_local_square(a, v) for a, _, v in cases]

    def forbidden(*args):
        raise AssertionError("primality re-checked")

    with monkeypatch.context() as m:
        m.setattr(localfields, "is_prime", forbidden)
        m.setattr(localfields, "legendre_symbol", forbidden)
        assert [hilbert_symbol(a, b, v) for a, b, v in cases] == symbols
        assert [is_local_square(a, v) for a, _, v in cases] == squares
    with pytest.raises(ValueError):
        legendre_symbol(1, 2)
    with pytest.raises(ValueError):
        legendre_symbol(3, 9)


def test_hilbert_reciprocity_small():
    # The product over all places is 1, and only places dividing the supports
    # (plus 2 and oo) can contribute a -1.
    pairs = [
        (2, 3),
        (-1, -1),
        (5, 7),
        (Fraction(3, 2), -30),
        (6, 10),
        (-7, 2),
        (Fraction(-5, 7), Fraction(9, 2)),
    ]
    for a, b in pairs:
        support = {2}
        for x in (a, b):
            fx = Fraction(x)
            support |= set(factorize(fx.numerator * fx.denominator))
        places = [REAL_PLACE] + [Place(p) for p in sorted(support)]
        prod = 1
        for v in places:
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1


def test_hasse_invariant_known():
    f = DiagonalForm.of(1, 1, 1, -7)
    assert hasse_invariant(f, Place(2)) == 1
    assert hasse_invariant(f, Place(7)) == 1
    assert hasse_invariant(f, REAL_PLACE) == 1
    g = DiagonalForm.of(1, -1)
    assert all(hasse_invariant(g, v) == 1 for v in _PLACES)
    h = DiagonalForm.of(-1, -1, -1)
    assert hasse_invariant(h, REAL_PLACE) == -1
    assert hasse_invariant(h, Place(2)) == -1
    assert hasse_invariant(h, Place(5)) == 1


def test_is_local_square():
    assert is_local_square(2, REAL_PLACE)
    assert not is_local_square(-2, REAL_PLACE)
    assert is_local_square(17, Place(2))
    assert not is_local_square(5, Place(2))
    assert not is_local_square(2, Place(2))
    assert is_local_square(4, Place(2))
    assert is_local_square(Fraction(1, 4), Place(7))
    assert is_local_square(2, Place(7))
    assert not is_local_square(7, Place(7))
    assert not is_local_square(3, Place(7))
    with pytest.raises(ValueError):
        is_local_square(0, Place(3))


def test_local_isotropic_known():
    f7 = DiagonalForm.of(1, 1, 1, -7)
    # -7 = 1 mod 8 is a dyadic square, so f7 = 4<1> over Q_2, the quaternion
    # norm form: anisotropic even though the Hasse invariant is +1
    assert not local_isotropic(f7, Place(2))
    assert local_isotropic(f7, Place(7))
    assert local_isotropic(f7, REAL_PLACE)
    f8 = DiagonalForm.repeated(8)
    assert not local_isotropic(f8, REAL_PLACE)
    assert local_isotropic(f8, Place(2))
    assert not local_isotropic(DiagonalForm.repeated(3), Place(2))
    assert not local_isotropic(DiagonalForm.repeated(4), Place(2))
    assert local_isotropic(DiagonalForm.of(1, -3), Place(11))
    assert not local_isotropic(DiagonalForm.of(1, -3), Place(5))
    assert not local_isotropic(DiagonalForm.of(1), Place(2))
    assert local_isotropic(DiagonalForm.of(1, 2, 3, 4, 5), Place(2))


def test_local_isotropic_matches_zero_counting_oracle():
    # Every grid form at every candidate bad prime: the Hasse-invariant
    # criteria must agree with honest counting of primitive zeros mod p**k.
    for f in grid_forms():
        for p in (2, 3, 5, 7):
            assert local_isotropic(f, Place(p)) == local_oracle(p).has_primitive_zero(f)
        pos = sum(c > 0 for c in f.coeffs)
        assert local_isotropic(f, REAL_PLACE) == (0 < pos < f.dim)


def test_hilbert_symbol_matches_zero_counting_oracle():
    # (a, b)_p = +1 iff z**2 = a*x**2 + b*y**2 has a nonzero solution over
    # Q_p, that is iff <a, b, -1> is isotropic there. With a, b squarefree
    # every |v_p| <= 1, where the modular oracle is exact.
    values = []
    for k in range(4):
        for combo in combinations((2, 3, 5, 7, 11, 13), k):
            values += [prod(combo), -prod(combo)]
    for p in (2, 3, 5, 7):
        oracle, v = LocalZeroOracle(p), Place(p)
        for a in values:
            for b in values:
                zero = oracle.has_primitive_zero(DiagonalForm.of(a, b, -1))
                assert hilbert_symbol(a, b, v) == (1 if zero else -1), (a, b, p)


def _split(x, p):
    """(alpha, u) with x = p**alpha * u and p not dividing u."""
    alpha = 0
    while x % p == 0:
        x //= p
        alpha += 1
    return alpha, x


def _serre_hilbert_symbol(a, b, p):
    """(a, b)_p at an odd prime p as Serre states it (Cours d'arithmetique,
    III.1.2, Theorem 1): for a = p**alpha*u and b = p**beta*v with u, v
    units, (-1)**(alpha*beta*eps(p)) * (u/p)**beta * (v/p)**alpha, where
    eps(p) = (p - 1)/2 mod 2."""
    (alpha, u), (beta, v) = _split(a, p), _split(b, p)
    eps = (p - 1) // 2 % 2
    return (-1) ** (alpha * beta * eps) * legendre_symbol(u, p) ** beta * legendre_symbol(v, p) ** alpha


def test_hilbert_symbol_at_odd_p_matches_serre():
    # entries up to 10**8, as the reciprocity samples have them, times a
    # power of p, so every pair of valuation parities occurs at primes
    # 1 and 3 mod 4
    rng = random.Random(12)
    primes = (3, 5, 7, 13, 9967, 9973, 99999971, 99999989)
    seen = {}
    for _ in range(20000):
        p = rng.choice(primes)
        i, j = rng.randrange(4), rng.randrange(4)
        a = rng.randint(1, 10**8) * rng.choice((1, -1)) * p**i
        b = rng.randint(1, 10**8) * rng.choice((1, -1)) * p**j
        want = _serre_hilbert_symbol(a, b, p)
        assert hilbert_symbol(a, b, Place(p)) == want, (a, b, p)
        key = (p % 4, _split(a, p)[0] % 2, _split(b, p)[0] % 2, want)
        seen[key] = seen.get(key, 0) + 1
    # both answers in all four parity pairs at both residues, except that
    # two even valuations always give +1
    cases = {(r, x, y, s) for r in (1, 3) for x in (0, 1) for y in (0, 1) for s in (1, -1)}
    assert set(seen) == cases - {(1, 0, 0, -1), (3, 0, 0, -1)}
    assert min(seen.values()) > 100


def test_hilbert_symbol_input_types_agree():
    # int, integral Fraction and non-integral Fraction in one square class
    def variants(n):
        return (n, Fraction(n), Fraction(9 * n, 4), Fraction(n, 49))

    for a in (1, -1, 2, -6, 35, -7):
        for b in (3, -2, 10, -1, 14):
            for v in _PLACES:
                want = hilbert_symbol(a, b, v)
                for x in variants(a):
                    for y in variants(b):
                        assert hilbert_symbol(x, y, v) == want, (x, y, v)


def test_local_answers_ignore_a_square_with_p_in_its_denominator():
    # the oracle-agreement test above covers integer coefficients; scaling
    # each coefficient by its own (s/t)**2 with p | t puts p into the
    # denominators and must change no local answer at p
    rng = random.Random(19)
    places = [Place(p) for p in (2, 3, 5, 7)] + [REAL_PLACE]
    for f in grid_forms():
        for v in places:
            q = v.p or rng.randint(2, 30)
            g = DiagonalForm(
                tuple(c * Fraction(rng.randint(1, 50), q * rng.randint(1, 9)) ** 2 for c in f.coeffs)
            )
            assert local_isotropic(g, v) == local_isotropic(f, v), (g, v)
            assert hasse_invariant(g, v) == hasse_invariant(f, v), (g, v)
            squares = [is_local_square(c, v) for c in f.coeffs]
            assert [is_local_square(c, v) for c in g.coeffs] == squares, (g, v)
