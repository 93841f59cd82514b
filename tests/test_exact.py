import random
from fractions import Fraction

import pytest

from noethercheck.exact import (
    FACTORIZATION_CAP,
    QQ,
    FieldDescriptor,
    factorize,
    is_prime,
    is_square,
    padic_valuation,
    square_class,
    squarefree_part,
)


def test_factorize_known():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(-360) == {2: 3, 3: 2, 5: 1}
    assert factorize(1) == {}
    assert factorize(97) == {97: 1}
    assert factorize(2**10 * 9973) == {2: 10, 9973: 1}


def test_factorize_rejects():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(FACTORIZATION_CAP * 10)


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for n in range(-3, 25):
        assert is_prime(n) == (n in primes)


def test_squarefree_part_known():
    assert squarefree_part(18) == (2, 3)
    assert squarefree_part(-7) == (-7, 1)
    assert squarefree_part(68) == (17, 2)
    assert squarefree_part(1) == (1, 1)
    assert squarefree_part(-4) == (-1, 2)


def test_squarefree_part_postcondition():
    for n in range(-400, 401):
        if n == 0:
            continue
        s, m = squarefree_part(n)
        assert n == s * m * m
        assert m > 0
        assert all(e == 1 for e in factorize(s).values())


def test_square_class():
    assert square_class(Fraction(8, 18)) == 1
    assert square_class(12) == 3
    assert square_class(Fraction(-2, 3)) == -6
    assert square_class(-1) == -1
    with pytest.raises(ValueError):
        square_class(0)


def test_padic_valuation_known():
    assert padic_valuation(Fraction(7, 4), 2) == -2
    assert padic_valuation(Fraction(7, 4), 7) == 1
    assert padic_valuation(40, 5) == 1
    assert padic_valuation(Fraction(1, 9), 3) == -2


def test_padic_valuation_additive():
    rng = random.Random(11)
    for _ in range(200):
        x = Fraction(rng.randint(1, 500), rng.randint(1, 500)) * rng.choice((1, -1))
        y = Fraction(rng.randint(1, 500), rng.randint(1, 500)) * rng.choice((1, -1))
        for p in (2, 3, 5, 7):
            assert padic_valuation(x * y, p) == padic_valuation(x, p) + padic_valuation(y, p)


def test_padic_valuation_rejects():
    with pytest.raises(ValueError):
        padic_valuation(Fraction(1, 2), 6)
    with pytest.raises(ValueError):
        padic_valuation(0, 2)


def test_field_descriptor():
    assert QQ.is_rational
    assert str(QQ) == "Q"
    assert FieldDescriptor(8).d == 2
    assert FieldDescriptor(12).d == 3
    assert FieldDescriptor(-4).d == -1
    assert str(FieldDescriptor(-7)) == "Q(sqrt -7)"
    for bad in (0, 1, 9, 16):
        with pytest.raises(ValueError):
            FieldDescriptor(bad)


def test_is_square():
    assert is_square(Fraction(49, 4))
    assert not is_square(8)
    assert is_square(0)
    k2 = FieldDescriptor(2)
    assert is_square(8, k2)
    assert is_square(18, k2)
    assert not is_square(-2, k2)
    assert is_square(-4, FieldDescriptor(-1))
