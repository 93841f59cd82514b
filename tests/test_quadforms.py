import random
from fractions import Fraction

import pytest

from noethercheck.exact import QQ, FieldDescriptor
from noethercheck.localfields import REAL_PLACE, DiagonalForm, Place
from noethercheck.quadforms import (
    ANISOTROPIC,
    ISOTROPIC,
    FormInvariants,
    IsotropyOutcome,
    candidate_places,
    form_invariants,
    isotropic_Q,
    isotropic_quad,
    level,
    three_squares_nat,
)

F7 = DiagonalForm.of(1, 1, 1, -7)


def _sample_form(rng, dim):
    pool = [1, 2, 3, 5, 6, 7, 10, 15]
    return DiagonalForm.of(*(rng.choice(pool) * rng.choice((1, -1)) for _ in range(dim)))


def test_form_invariants():
    inv = form_invariants(F7)
    assert inv == FormInvariants(4, -7, 3, 1, frozenset())
    inv3 = form_invariants(DiagonalForm.of(-1, -1, -1))
    assert inv3.dim == 3 and inv3.disc == -1
    assert inv3.hasse_bad == frozenset({Place(2), REAL_PLACE})
    assert candidate_places(F7) == (Place(2), Place(7), REAL_PLACE)
    with pytest.raises(ValueError):
        FormInvariants(2, 1, 1, 0, frozenset())


def _equivalent_Q(f, g):
    # the invariant set is complete: equal invariants iff rationally equivalent
    return form_invariants(f) == form_invariants(g)


def test_equivalent_Q():
    assert _equivalent_Q(DiagonalForm.of(1, 1), DiagonalForm.of(2, 2))
    assert _equivalent_Q(DiagonalForm.of(1, 1), DiagonalForm.of(1, 4))
    assert _equivalent_Q(DiagonalForm.of(1, -2), DiagonalForm.of(2, -1))
    assert not _equivalent_Q(DiagonalForm.of(1, 1), DiagonalForm.of(1, -1))
    assert not _equivalent_Q(DiagonalForm.of(1, 1), DiagonalForm.of(1, 2))
    assert not _equivalent_Q(DiagonalForm.of(1), DiagonalForm.of(1, 1))


def test_witt_cancellation():
    rng = random.Random(41)
    for _ in range(120):
        f = _sample_form(rng, rng.randint(1, 3))
        g = _sample_form(rng, f.dim)
        h = _sample_form(rng, rng.randint(1, 2))
        assert _equivalent_Q(f.perp(h), g.perp(h)) == _equivalent_Q(f, g)


def test_isotropic_Q_known():
    assert not isotropic_Q(F7)
    assert isotropic_Q(DiagonalForm.of(1, 1, 1, -6))
    assert isotropic_Q(DiagonalForm.of(1, -1))
    assert not isotropic_Q(DiagonalForm.of(1, -2))
    assert not isotropic_Q(DiagonalForm.of(1, 1, -3))
    assert not isotropic_Q(DiagonalForm.repeated(8))
    assert not isotropic_Q(DiagonalForm.of(1))
    assert isotropic_Q(DiagonalForm.of(1, 1, 1, 1, -7))
    # 7/2 is a sum of three rational squares though 7 is not
    assert isotropic_Q(DiagonalForm.of(1, 1, 1, Fraction(-7, 2)))


def test_isotropy_outcome():
    assert ISOTROPIC.decided and ISOTROPIC.is_isotropic
    assert ANISOTROPIC.decided and not ANISOTROPIC.is_isotropic
    with pytest.raises(ValueError):
        IsotropyOutcome("maybe")
    with pytest.raises(ValueError):
        IsotropyOutcome("unsupported")


def test_isotropic_quad_known():
    assert isotropic_quad(F7, 2) == ISOTROPIC
    assert isotropic_quad(F7, 17) == ANISOTROPIC
    assert isotropic_quad(F7, 5) == ISOTROPIC
    assert isotropic_quad(F7, -1) == ISOTROPIC
    assert isotropic_quad(DiagonalForm.of(1, 1, 1, Fraction(-7, 4)), 17) == ANISOTROPIC
    f8 = DiagonalForm.repeated(8)
    assert isotropic_quad(f8, 17) == ANISOTROPIC
    assert isotropic_quad(f8, 2) == ANISOTROPIC
    assert isotropic_quad(f8, -7) == ISOTROPIC
    three = DiagonalForm.repeated(3)
    assert isotropic_quad(three, 2) == ANISOTROPIC
    assert isotropic_quad(three, -7) == ANISOTROPIC
    assert isotropic_quad(three, -2) == ISOTROPIC
    assert isotropic_quad(DiagonalForm.repeated(4), -7) == ANISOTROPIC
    assert isotropic_quad(DiagonalForm.repeated(5), -7) == ISOTROPIC
    assert isotropic_quad(DiagonalForm.of(1, -2), 2) == ISOTROPIC
    assert isotropic_quad(DiagonalForm.of(1, -2), 3) == ANISOTROPIC
    assert isotropic_quad(DiagonalForm.of(1, 1), -1) == ISOTROPIC
    assert isotropic_quad(DiagonalForm.of(1, 1), -2) == ANISOTROPIC
    assert isotropic_quad(DiagonalForm.of(5), 5) == ANISOTROPIC
    assert isotropic_quad(DiagonalForm.of(1, -1), 7) == ISOTROPIC


def test_isotropic_quad_rejects():
    for d in (0, 1, 4, 12, -8):
        with pytest.raises(ValueError):
            isotropic_quad(F7, d)


def test_isotropic_quad_extension_is_monotone():
    # Anything isotropic over Q stays isotropic over every quadratic field.
    rng = random.Random(3)
    for _ in range(80):
        f = _sample_form(rng, rng.randint(2, 5))
        d = rng.choice((-7, -2, -1, 2, 3, 5, 17))
        if isotropic_Q(f):
            assert isotropic_quad(f, d) == ISOTROPIC


def test_level():
    assert level(QQ) is None
    assert level(FieldDescriptor(17)) is None
    assert level(FieldDescriptor(-1)) == 1
    assert level(FieldDescriptor(-2)) == 2
    assert level(FieldDescriptor(-3)) == 2
    assert level(FieldDescriptor(-5)) == 2
    assert level(FieldDescriptor(-7)) == 4
    assert level(FieldDescriptor(-15)) == 4


def test_sum_of_squares_properties():
    # alpha is a sum of n squares in k iff n<1> + <-alpha> is isotropic over
    # k, and a sum of n squares is also one of n + 1
    rng = random.Random(13)
    for _ in range(80):
        alpha = Fraction(rng.randint(1, 30), rng.randint(1, 8)) * rng.choice((1, -1))
        n = rng.randint(1, 5)
        d = rng.choice((None, -1, -7, 2))
        iso = []
        for m in (n, n + 1):
            f = DiagonalForm.repeated(m).perp(DiagonalForm.of(-alpha))
            iso.append(isotropic_Q(f) if d is None else isotropic_quad(f, d).is_isotropic)
        if iso[0]:
            assert iso[1]


def test_three_squares_nat():
    assert three_squares_nat(1)
    assert three_squares_nat(2)
    assert three_squares_nat(6)
    assert three_squares_nat(8)
    assert not three_squares_nat(7)
    assert not three_squares_nat(15)
    assert not three_squares_nat(28)
    assert not three_squares_nat(112)
    for bad in (0, -3):
        with pytest.raises(ValueError):
            three_squares_nat(bad)


def test_three_squares_nat_brute_force():
    reachable = set()
    for x in range(15):
        for y in range(15):
            for z in range(15):
                reachable.add(x * x + y * y + z * z)
    for n in range(1, 200):
        assert three_squares_nat(n) == (n in reachable)


def test_three_squares_matches_rational_case():
    # Integers are sums of three rational squares iff of three integer ones,
    # and n is a sum of three rational squares iff <1,1,1,-n> is isotropic.
    for n in range(1, 60):
        assert isotropic_Q(DiagonalForm.of(1, 1, 1, -n)) == three_squares_nat(n)
