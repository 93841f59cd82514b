import random
from decimal import Decimal
from fractions import Fraction
from itertools import product
from math import gcd, prod

import pytest

from noethercheck import DiagonalForm, isotropic_Q, isotropic_quad
from noethercheck.exact import (
    FACTORIZATION_CAP,
    QQ,
    FieldDescriptor,
    RelationLattice,
    _unimodular,
    factorize,
    is_prime,
    is_square,
    padic_valuation,
    parse_ints,
    squarefree_part,
)
from noethercheck.quadforms import three_squares_nat


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
    with pytest.raises(ValueError, match="^0 has no squarefree part$"):
        squarefree_part(0)


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for n in range(-3, 25):
        assert is_prime(n) == (n in primes)
    # bounded, with room for the 1229 primes below 10**4 whose places the
    # reciprocity check builds
    maxsize = is_prime.cache_info().maxsize
    assert maxsize is not None and maxsize >= 1229


# each entry point that takes an integer, and the argument it names
_INTEGER_ENTRY_POINTS = [
    pytest.param("n", factorize, id="factorize"),
    pytest.param("n", is_prime, id="is_prime"),
    pytest.param("n", squarefree_part, id="squarefree_part"),
    pytest.param("p", lambda p: padic_valuation(12, p), id="padic_valuation-p"),
    pytest.param("n", three_squares_nat, id="three_squares_nat"),
]


@pytest.mark.parametrize("value", [12.5, 12.0, Fraction(12), Decimal(12), "12"], ids=repr)
@pytest.mark.parametrize("name, call", _INTEGER_ENTRY_POINTS)
def test_integer_entry_points_refuse_non_integers_by_name(name, call, value):
    # 12.5 was a float prime of factorize and 12.0 factored as 12; an
    # integral value of another type is refused too, as exact_int refuses it
    with pytest.raises(TypeError) as err:
        call(value)
    assert str(err.value) == f"{name} must be an int, not {type(value).__name__}: {value!r}"


try:
    from numpy import int8, int64
except ImportError:  # the numpy values are left out where numpy is not installed
    int8 = int64 = None


def _outcome(call, value):
    """What call(value) returns, or the type and message of what it raises."""
    try:
        return call(value)
    except ValueError as err:
        return type(err), str(err)


@pytest.mark.parametrize("name, call", _INTEGER_ENTRY_POINTS)
def test_integer_entry_points_take_a_bool_or_a_numpy_integer(name, call):
    # what exact_int takes, they take, as the int it stands for
    values = [True, 12] + ([int64(12), int8(2)] if int64 is not None else [])
    for value in values:
        assert _outcome(call, value) == _outcome(call, int(value)), value


def test_a_float_never_reads_the_cached_answer_of_an_int():
    assert is_prime(2)
    with pytest.raises(TypeError, match="^n must be an int, not float: 2.0$"):
        is_prime(2.0)


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


def test_squarefree_part_is_multiplicative_on_coprime_parts():
    # a square class is the product of the classes of coprime parts, as
    # num/den and num*den differ by the square den**2
    for num in range(-60, 61):
        for den in range(1, 61):
            if num and gcd(num, den) == 1:
                got = squarefree_part(num * den)[0]
                assert got == squarefree_part(num)[0] * squarefree_part(den)[0], (num, den)


# numerator and denominator each within the cap, their product far above it
BIG = Fraction(10**13 + 1, 10**12 + 39)
P, Q = 99999999977, 99999999947


def test_squares_and_isotropy_of_parts_within_the_cap():
    assert BIG.numerator * BIG.denominator > FACTORIZATION_CAP
    assert not is_square(BIG)
    assert is_square(Fraction(P * P, Q * Q))
    assert is_square(Fraction(-7 * P * P, Q * Q), FieldDescriptor(-7))
    assert not is_square(BIG, FieldDescriptor(-7))
    # a dimension-2 form is decided by the square class of -a/b, as a
    # dimension-3 one already was through its candidate places
    assert not isotropic_Q(DiagonalForm.of(BIG, -1))
    assert isotropic_Q(DiagonalForm.of(Fraction(P * P, Q * Q), -1))
    assert isotropic_Q(DiagonalForm.of(BIG, -1, 1))
    # two coefficients within the cap whose product passes it: is_square
    # decides the product by isqrt, with nothing factored
    f = DiagonalForm.of(10**13 + 1, -3 * Q**2)
    assert -f.coeffs[0] * f.coeffs[1] > FACTORIZATION_CAP
    assert not isotropic_Q(f)
    assert not isotropic_quad(f, 17).is_isotropic
    assert isotropic_quad(DiagonalForm.of(10**13 + 1, -3 * (10**13 + 1)), 3).is_isotropic


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


@pytest.mark.parametrize("value", [0.5, 2.25, Decimal("0.5"), 1j, "9/4", "3"], ids=repr)
def test_padic_valuation_refuses_inexact_numbers(value):
    # read through Fraction(x), 0.5 and '9/4' had valuations -1 at 2 and 2
    # at 3; they are refused by name, as at the form API
    for p in (2, 3):
        with pytest.raises(TypeError) as err:
            padic_valuation(value, p)
        assert str(err.value) == f"x must be an int or a Fraction, not {type(value).__name__}: {value!r}"


def test_parse_ints_reads_what_int_reads():
    texts = ["0", "-0", "7", " +12 ", "-999", "0007", "-000"]
    assert parse_ints(texts, 1000, "x", "test") == [int(t) for t in texts]
    assert parse_ints([], 1000, "x", "test") == []
    # past the cap's length, leading zeros are dropped before int() reads it
    assert parse_ints(["0" * 5000 + "10", " -0000012 "], 1000, "x", "test") == [10, -12]
    for text in ("", "-", "1.5", "_1", "1__0", "0x10", "+-1", "0" * 10 + "x", "00000__1", "1e3",
                 "1_000", "0_1", "\u0661\u0662"):
        with pytest.raises(ValueError) as err:
            parse_ints(["1", text], 1000, "x", "test")
        # the field is named, with the text as given, leading zeros and all
        assert str(err.value) == f"x is not an integer: {text!r}"


def test_parse_ints_refuses_more_digits_than_the_cap_by_naming_it():
    # numerals of the cap's own length pass through to int(); the value
    # check against the cap is the caller's
    assert parse_ints(["9999", "-" + "0" * 5000 + "12"], 1000, "x", "test") == [9999, -12]
    assert parse_ints(["1000000"], 10**6, "x", "test") == [10**6]
    for text, n in (("10000", 5), ("-10000", 5), ("0010000", 5), ("9" * 5000, 5000)):
        with pytest.raises(ValueError, match=f"^x of {n} digits exceeds test cap 1000$"):
            parse_ints(["1", text], 1000, "x", "test")


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


def _closure_invariants(orders, relators):
    """The invariant factors of Z^m modulo the relators and the
    orders[j] * e_j, from the group itself: the subgroup S that the
    relators span in the product P of the Z/orders[j], closed by
    breadth-first search, and for each n the number of elements of P/S
    that n kills, |{x in P : n*x in S}| / |S|, which is the product of
    gcd(n, d) over the invariant factors d; the largest is the least n
    that kills them all, and dividing it out leaves the others."""
    span = {(0,) * len(orders)}
    frontier = list(span)
    while frontier:
        new = []
        for x in frontier:
            for r in relators:
                y = tuple((a + b) % n for a, b, n in zip(x, r, orders))
                if y not in span:
                    span.add(y)
                    new.append(y)
        frontier = new
    size = prod(orders) // len(span)
    killed = {
        n: sum(tuple(n * a % o for a, o in zip(x, orders)) in span for x in product(*map(range, orders)))
        // len(span)
        for n in range(1, size + 1)
        if size % n == 0
    }
    factors = []
    while size > 1:
        largest = min(n for n, k in killed.items() if k == size)
        factors.append(largest)
        size //= largest
        killed = {n: k // gcd(n, largest) for n, k in killed.items() if size % n == 0}
    return tuple(factors)


def test_relation_lattice_matches_a_closure_of_its_relators():
    rng = random.Random(52)
    for _ in range(60):
        m = rng.randint(1, 3)
        orders = [rng.choice((2, 3, 4, 6, 8, 9, 12)) for _ in range(m)]
        if prod(orders) > 400:
            continue
        relators = [[rng.randint(-30, 30) for _ in range(m)] for _ in range(rng.randint(0, 4))]
        lattice = RelationLattice(orders)
        for r in relators:
            lattice.fold(list(r))
        assert lattice.invariants() == _closure_invariants(orders, relators), (orders, relators)


def test_relation_lattice_is_whole_at_index_1():
    # fold answers True exactly when the relators span Z^m, and the index
    # is the order of the quotient throughout
    lattice = RelationLattice([4, 6])
    assert (lattice.index, lattice.modulus) == (24, 12)
    assert not lattice.fold([2, 0]) and lattice.index == 12
    assert not lattice.fold([1, 1]) and lattice.index == 2
    assert lattice.invariants() == (2,)
    assert lattice.fold([1, 0]) and lattice.index == 1
    assert lattice.invariants() == ()


def test_unimodular_steps_leave_the_gcd_as_pivot():
    # a pivot p > 0 and an entry a: a = 0, p | a, p = 1, a common factor,
    # 150-bit values, then random pairs, with entries of either sign
    rng = random.Random(53)
    big = 2**150
    pairs = [(1, 0), (1, 7), (5, 0), (6, 18), (7, 7), (12, 18), (12, 8), (9, 6)]
    pairs += [(big + 1, 3 * (big + 1)), (big - 1, big + 3), (3 * big, 6 * big + 9), (big, 0)]
    pairs += [(1, big - 5), (big + 7, 1), (12, -8), (5, -15)]
    for _ in range(300):
        pairs.append((rng.randint(1, 10 ** rng.randint(1, 45)), rng.randint(-(10**40), 10**40)))
    for p, a in pairs:
        x, y, u, w = _unimodular(p, a)
        assert x * w - y * u == 1, (p, a)
        assert x * p + y * a == gcd(p, a), (p, a)
        assert u * p + w * a == 0, (p, a)
