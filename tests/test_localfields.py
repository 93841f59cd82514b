import random
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest

from noethercheck import (
    DiagonalForm,
    Place,
    REAL_PLACE,
    factorize,
    hasse_invariant,
    hilbert_symbol,
    is_local_square,
    legendre_symbol,
    local_isotropic,
    local_isotropic_unramified_ext,
)
from noethercheck import LocalZeroOracle, grid_forms, local_oracle

_PLACES = [Place(2), Place(3), Place(5), Place(7), Place(11), REAL_PLACE]


def test_place():
    assert str(REAL_PLACE) == "oo"
    assert str(Place(7)) == "7"
    assert REAL_PLACE.is_real and not Place(2).is_real
    assert sorted(_PLACES, key=Place.sort_key)[-1] is REAL_PLACE
    with pytest.raises(ValueError):
        Place(6)


def test_diagonal_form():
    f = DiagonalForm.of(1, 1, 1, -7)
    assert f.dim == 4
    assert f.disc() == -7
    assert f.signature() == (3, 1)
    assert str(f) == "<1,1,1,-7>"
    assert DiagonalForm.repeated(3).coeffs == (1, 1, 1)
    assert f.perp(DiagonalForm.of(2)).coeffs == (1, 1, 1, -7, 2)
    assert f.scaled(Fraction(1, 2)).disc() == Fraction(-7, 16)
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
        pos, neg = f.signature()
        assert local_isotropic(f, REAL_PLACE) == (pos > 0 and neg > 0)


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


class _UnramExt:
    """Honest model of the unramified quadratic extension of Q_p, p odd.

    Works in R = (Z/p**3)[t]/(t**2 - 2) for p with legendre(2, p) = -1, which
    is the ring of integers mod p**3. Counting primitive zeros mod p**3 is
    exact for coefficient valuations in {0, 1}: a primitive zero has a unit
    coordinate and its coefficient's valuation is at most 1, so 3 > 2*v and
    the zero lifts.
    """

    def __init__(self, p):
        assert legendre_symbol(2, p) == -1
        self.p = p
        self.m = p**3
        sq_prim = set()
        sq_any = {(0, 0)}
        for a in range(self.m):
            for b in range(self.m):
                s = ((a * a + 2 * b * b) % self.m, (2 * a * b) % self.m)
                sq_any.add(s)
                if a % p != 0 or b % p != 0:
                    sq_prim.add(s)
        self.sq_prim = sq_prim
        self.sq_any = sq_any

    def _scaled(self, c, vals):
        return {(c * a % self.m, c * b % self.m) for a, b in vals}

    def isotropic(self, coeffs):
        assert all(v % self.m != 0 for v in coeffs)
        if len(coeffs) == 1:
            return (0, 0) in self._scaled(coeffs[0], self.sq_prim)
        if len(coeffs) == 2:
            c1, c2 = coeffs
            return bool(
                self._scaled(c1, self.sq_prim) & self._scaled(-c2, self.sq_any)
                or self._scaled(c1, self.sq_any) & self._scaled(-c2, self.sq_prim)
            )
        c1, c2, c3 = coeffs
        third = self._scaled(c3, self.sq_any)
        for v1 in self._scaled(c1, self.sq_prim):
            for v2 in self._scaled(c2, self.sq_any):
                if ((-v1[0] - v2[0]) % self.m, (-v1[1] - v2[1]) % self.m) in third:
                    return True
        return False


def test_local_isotropic_unramified_ext_matches_model():
    for p in (3, 5):
        ext = _UnramExt(p)
        coeffs = [1, 2, -1, p, -p, 2 * p]
        for c1 in coeffs:
            f1 = DiagonalForm.of(c1)
            assert local_isotropic_unramified_ext(f1, p) == ext.isotropic([c1])
            for c2 in coeffs:
                f2 = DiagonalForm.of(c1, c2)
                assert local_isotropic_unramified_ext(f2, p) == ext.isotropic([c1, c2])
    # dim 3 is always isotropic; confirm by exhibiting honest witnesses where
    # the search is cheap.
    ext3 = _UnramExt(3)
    for cs in ([1, 1, 1], [1, 2, 3], [1, -1, 3], [3, 6, 2], [3, 3, 3]):
        assert local_isotropic_unramified_ext(DiagonalForm.of(*cs), 3)
        assert ext3.isotropic(cs)


def test_local_isotropic_unramified_ext_values():
    assert not local_isotropic_unramified_ext(DiagonalForm.of(5), 5)
    assert local_isotropic_unramified_ext(DiagonalForm.of(1, 1), 3)
    assert local_isotropic_unramified_ext(DiagonalForm.of(2, -5), 3)
    assert not local_isotropic_unramified_ext(DiagonalForm.of(1, 3), 3)
    assert local_isotropic_unramified_ext(DiagonalForm.of(3, 12), 3)
    assert local_isotropic_unramified_ext(DiagonalForm.of(Fraction(1, 3), 3), 3)
    assert not local_isotropic_unramified_ext(DiagonalForm.of(Fraction(1, 3), 1), 3)
    assert local_isotropic_unramified_ext(DiagonalForm.repeated(5, 7), 7)
    with pytest.raises(ValueError):
        local_isotropic_unramified_ext(DiagonalForm.of(1, 1), 2)
    with pytest.raises(ValueError):
        local_isotropic_unramified_ext(DiagonalForm.of(1, 1), 9)
