import random
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noethercheck import exact, localfields, quadforms
from noethercheck.exact import (
    FACTORIZATION_CAP,
    QQ,
    FieldDescriptor,
    factorize,
    squarefree_part,
)
from noethercheck.localfields import (
    REAL_PLACE,
    DiagonalForm,
    Place,
    hilbert_symbol,
    is_local_square,
    local_isotropic,
)
from noethercheck.quadforms import (
    ANISOTROPIC,
    ISOTROPIC,
    IsotropyOutcome,
    candidate_places,
    isotropic_Q,
    isotropic_quad,
    level,
    three_squares_nat,
)

F7 = DiagonalForm.of(1, 1, 1, -7)


def _hasse_invariant(f, v):
    """c(f), the product of hilbert_symbol over the pairs i < j."""
    return prod(hilbert_symbol(a, b, v) for a, b in combinations(f.coeffs, 2))


def _sample_form(rng, dim):
    pool = [1, 2, 3, 5, 6, 7, 10, 15]
    return DiagonalForm.of(*(rng.choice(pool) * rng.choice((1, -1)) for _ in range(dim)))


def test_candidate_places():
    assert candidate_places(F7) == (Place(2), Place(7), REAL_PLACE)
    f = DiagonalForm.of(Fraction(-9, 5), 21, 1)
    assert candidate_places(f) == (Place(2), Place(3), Place(5), Place(7), REAL_PLACE)


def test_isotropic_Q_known():
    assert not isotropic_Q(F7)
    assert isotropic_Q(DiagonalForm.of(1, 1, 1, -6))
    assert isotropic_Q(DiagonalForm.of(1, -1))
    assert not isotropic_Q(DiagonalForm.of(1, -2))
    assert not isotropic_Q(DiagonalForm.of(1, 1, -3))
    assert not isotropic_Q(DiagonalForm((1,) * 8))
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
    f8 = DiagonalForm((1,) * 8)
    assert isotropic_quad(f8, 17) == ANISOTROPIC
    assert isotropic_quad(f8, 2) == ANISOTROPIC
    assert isotropic_quad(f8, -7) == ISOTROPIC
    three = DiagonalForm((1,) * 3)
    assert isotropic_quad(three, 2) == ANISOTROPIC
    assert isotropic_quad(three, -7) == ANISOTROPIC
    assert isotropic_quad(three, -2) == ISOTROPIC
    assert isotropic_quad(DiagonalForm((1,) * 4), -7) == ANISOTROPIC
    assert isotropic_quad(DiagonalForm((1,) * 5), -7) == ISOTROPIC
    assert isotropic_quad(DiagonalForm.of(1, -2), 2) == ISOTROPIC
    assert isotropic_quad(DiagonalForm.of(1, -2), 3) == ANISOTROPIC
    assert isotropic_quad(DiagonalForm.of(1, 1), -1) == ISOTROPIC
    assert isotropic_quad(DiagonalForm.of(1, 1), -2) == ANISOTROPIC
    assert isotropic_quad(DiagonalForm.of(5), 5) == ANISOTROPIC
    assert isotropic_quad(DiagonalForm.of(1, -1), 7) == ISOTROPIC
    # no candidate place of a dim-1 form splits here, so the scan itself
    # has nothing to refute: dim 1 must be answered before it
    for d in (-1, -2, -3):
        assert isotropic_quad(DiagonalForm.of(1), d) == ANISOTROPIC
        assert isotropic_quad(DiagonalForm.of(-3), d) == ANISOTROPIC
    assert isotropic_quad(DiagonalForm.of(1, -3), 3) == ISOTROPIC


def test_isotropic_quad_rejects():
    for d in (0, 1, 4, 12, -8):
        with pytest.raises(ValueError):
            isotropic_quad(F7, d)


def test_isotropic_quad_factors_its_radicand_once(monkeypatch):
    # 500 decisions over one large d factor it once, into the memo of its
    # field; a refused d keeps no entry and raises on every call, 2.0 and
    # Fraction(2) too after 2 was asked, though the three hash alike
    d = 10**12 + 39
    forms = [DiagonalForm.of(1, 1, 1, -k) for k in range(1, 501)]
    expected = [quadforms._isotropic_over(f, FieldDescriptor(d)) for f in forms]
    real_factorize = exact.factorize
    factored = []

    def counted(n):
        factored.append(n)
        return real_factorize(n)

    monkeypatch.setattr(exact, "factorize", counted)
    quadforms._quadratic_field.cache_clear()
    assert [isotropic_quad(f, d).is_isotropic for f in forms] == expected
    assert factored == [d]
    isotropic_quad(F7, 2)
    entries = quadforms._quadratic_field.cache_info().currsize
    refused = [
        (8, ValueError, "d must be squarefree and not 0 or 1, got 8"),
        (True, ValueError, "d must be squarefree and not 0 or 1, got True"),
        (2.0, TypeError, "d must be an int, not float: 2.0"),
        (Fraction(2), TypeError, "d must be an int, not Fraction: Fraction(2, 1)"),
    ]
    for bad, error, message in refused:
        for _ in range(2):
            with pytest.raises(error) as caught:
                isotropic_quad(F7, bad)
            assert str(caught.value) == message
    info = quadforms._quadratic_field.cache_info()
    assert info.currsize == entries and 0 < info.maxsize < 10**4


def test_isotropic_quad_extension_is_monotone():
    # Anything isotropic over Q stays isotropic over every quadratic field.
    rng = random.Random(3)
    for _ in range(80):
        f = _sample_form(rng, rng.randint(2, 5))
        d = rng.choice((-7, -2, -1, 2, 3, 5, 17))
        if isotropic_Q(f):
            assert isotropic_quad(f, d) == ISOTROPIC


_SQUAREFREE = [d for d in range(-60, 61) if d not in (0, 1) and squarefree_part(d) == (d, 1)]
_NONZERO = st.builds(
    Fraction,
    st.integers(1, 400).flatmap(lambda n: st.sampled_from((n, -n))),
    st.integers(1, 60),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_NONZERO, min_size=1, max_size=6),
    st.sampled_from(_SQUAREFREE),
    _NONZERO,
    _NONZERO,
    st.randoms(use_true_random=False),
)
def test_isotropy_invariances_and_rules(coeffs, d, c, q, rng):
    f = DiagonalForm(tuple(coeffs))

    def answers(g):
        return isotropic_Q(g), isotropic_quad(g, d).is_isotropic

    base = answers(f)
    shuffled = list(f.coeffs)
    rng.shuffle(shuffled)
    i = rng.randrange(f.dim)
    times_square = list(f.coeffs)
    times_square[i] *= q * q
    assert answers(DiagonalForm(tuple(c * a for a in f.coeffs))) == base
    assert answers(DiagonalForm(tuple(shuffled))) == base
    assert answers(DiagonalForm(tuple(times_square))) == base
    # isotropic over Q stays so over Q(sqrt d)
    if base[0]:
        assert base[1]
    # a hyperbolic plane is isotropic, a line never
    assert answers(DiagonalForm(f.coeffs + (c, -c))) == (True, True)
    assert answers(DiagonalForm.of(c)) == (False, False)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 500).flatmap(lambda n: st.sampled_from((n, -n))), st.integers(1, 12)),
        min_size=1,
        max_size=5,
    )
)
def test_int_and_fraction_coefficients_answer_alike(pairs):
    # <c_i> stores ints and reads them as they are; <c_i/q_i**2> has the
    # same square classes and goes through Fractions wherever q_i**2 does
    # not divide c_i
    ints = DiagonalForm(tuple(c for c, _ in pairs))
    scaled = DiagonalForm(tuple(Fraction(c, q * q) for c, q in pairs))
    assert all(type(c) is int for c in ints.coeffs)
    assert [type(c) is int for c in scaled.coeffs] == [Fraction(c, q * q).denominator == 1 for c, q in pairs]
    assert isotropic_Q(ints) == isotropic_Q(scaled)
    for d in (-1, 2, -7, 17):
        assert isotropic_quad(ints, d) == isotropic_quad(scaled, d), d
    for v in dict.fromkeys(candidate_places(ints) + candidate_places(scaled)):
        assert _hasse_invariant(ints, v) == _hasse_invariant(scaled, v), v
        assert local_isotropic(ints, v) == local_isotropic(scaled, v), v
    # the same values given as Fraction(c) make the same form, stored as ints
    fractions = DiagonalForm(tuple(Fraction(c) for c, _ in pairs))
    assert all(type(c) is int for c in fractions.coeffs)
    assert fractions == ints and hash(fractions) == hash(ints) and str(fractions) == str(ints)


def _distinct_parts(f):
    """The distinct absolute numerators and denominators of f above 1."""
    return {abs(x) for c in f.coeffs for x in (c.numerator, c.denominator)} - {1}


def test_one_factorization_per_coefficient_and_no_checked_legendre(monkeypatch):
    # with the cache cleared, the first decision of a form of dim >= 3
    # factors each distinct numerator and denominator above 1 once, and
    # every later decision over the same parts, over any field, factors
    # nothing
    forms = [
        F7,
        DiagonalForm.of(1, 1, -3),
        DiagonalForm.of(Fraction(2, 15), 7, -11, Fraction(5, 3), 1),
        DiagonalForm.of(Fraction(-7, 4), 3, 3, 13, 17, -1),
    ]
    ds = (2, 17, -7, 5, -1, 3, 1001, -15)
    before = [(isotropic_Q(f), [isotropic_quad(f, d) for d in ds]) for f in forms]
    real_factorize = quadforms.factorize
    factored = []

    def counted(n):
        factored.append(n)
        return real_factorize(n)

    monkeypatch.setattr(quadforms, "factorize", counted)
    quadforms._places_of.cache_clear()
    for f, (iso_q, iso_k) in zip(forms, before):
        factored.clear()
        assert isotropic_Q(f) == iso_q
        assert sorted(factored) == sorted(_distinct_parts(f))
        factored.clear()
        for d, expected in zip(ds, iso_k):
            assert isotropic_quad(f, d) == expected
        assert isotropic_Q(f) == iso_q
        assert factored == []
    # the same parts in other coefficients, signs and order: no factoring
    same_parts = [
        DiagonalForm.of(-7, -1, 1, 1),
        DiagonalForm.of(Fraction(1, 7), 7, -1),
        DiagonalForm.of(3, Fraction(-1, 3), 1),
        DiagonalForm.of(Fraction(4, 17), Fraction(-13, 3), 7, 1),
    ]
    for f in same_parts:
        isotropic_Q(f)
        for d in ds:
            isotropic_quad(f, d)
    for d in (2, 17, -7, 5):
        isotropic_quad(F7, d)
    assert factored == []


@pytest.mark.parametrize(
    "coeffs",
    [
        (1, 1, FACTORIZATION_CAP + 1),
        (1, Fraction(2, FACTORIZATION_CAP + 3), -7),
    ],
)
def test_a_part_above_the_cap_keeps_no_cache_entry(coeffs):
    # the cache is bounded; a refused part set raises on every call, and
    # each call misses: the cache keeps no entry for it
    f = DiagonalForm(coeffs)
    info = quadforms._places_of.cache_info()
    assert info.maxsize is not None and 0 < info.maxsize
    for i in range(1, 4):
        for decide in (candidate_places, isotropic_Q, lambda f: isotropic_quad(f, -7)):
            with pytest.raises(ValueError, match=f"exceeds factorization cap {FACTORIZATION_CAP}$"):
                decide(f)
        after = quadforms._places_of.cache_info()
        assert (after.hits, after.misses, after.currsize) == (info.hits, info.misses + 3 * i, info.currsize)


# fields with both signs and both residues of d mod 8, the real place
# split or not, 2 split or not; the last is a prime near 10**12
_DIFFERENTIAL_DS = (17, 41, 33, -7, -15, -23, 2, 3, 5, -1, -2, -5, 1000000000039)
# parts of numerators and denominators: small, and each within the
# factorization cap with some products of two far above it
_SMALL_PARTS = (1, 1, 1, 2, 3, 5, 6, 7, 9, 11, 12, 13, 49, 97)
_BIG_PARTS = (10**13 + 1, 10**12 + 39, 99999999977, 99999999947, 99999999977**2, 3 * 99999999947**2)


def _differential_coeff(rng, big):
    def part():
        if not big or rng.randrange(6):
            return rng.choice(_SMALL_PARTS)
        return rng.choice((1, 2, 3, 5, 7)) * rng.choice(_BIG_PARTS)

    return Fraction(part() * rng.choice((1, -1)), part())


def _square_class(c):
    """The squarefree integer of nonzero rational c modulo squares, its
    numerator and denominator factored apart."""
    return squarefree_part(c.numerator)[0] * squarefree_part(c.denominator)[0]


def _by_public_composition(local, d):
    """Hasse-Minkowski for dim >= 3 over Q(sqrt d), d = 1 for Q, composed
    from the public local functions: f is isotropic at every candidate
    place that splits. local maps each candidate place v of f to
    local_isotropic(f, v)."""
    return all(iso for v, iso in local.items() if is_local_square(d, v))


def test_one_read_scan_matches_the_public_composition():
    # the scan reads the classes once per form and calls the
    # private local helper; it must answer as the public functions do
    rng = random.Random(22)
    for i in range(500):
        dim = i % 6 + 1
        f = DiagonalForm(tuple(_differential_coeff(rng, True) for _ in range(dim)))
        local = {v: local_isotropic(f, v) for v in candidate_places(f)}
        # over Q the composition is the whole rule, dims 1 and 2 included
        assert isotropic_Q(f) == _by_public_composition(local, 1), f
        for d in _DIFFERENTIAL_DS:
            got = isotropic_quad(f, d).is_isotropic
            if f.dim >= 3:
                assert got == _by_public_composition(local, d), (f, d)
            elif f.dim == 2:
                # -a1*a2 a square in Q(sqrt d): its class is 1 or d, read
                # from the classes of -a1 and a2, each factored apart
                c1, c2 = _square_class(-f.coeffs[0]), _square_class(f.coeffs[1])
                assert got == (c1 * c2 // gcd(c1, c2) ** 2 in (1, d)), (f, d)
            else:
                assert not got, (f, d)


def _parent_candidate_places(f):
    """The rule before places were interned: every numerator and every
    denominator factored apart, repeats and 1s included, and a fresh Place
    built for each prime."""
    ps = {2}
    for c in f.coeffs:
        ps.update(factorize(c.numerator))
        ps.update(factorize(c.denominator))
    return tuple(Place(p) for p in sorted(ps)) + (REAL_PLACE,)


def test_candidate_places_share_one_place_per_prime():
    f = DiagonalForm.of(1, 1, 1, -7)
    g = DiagonalForm.of(Fraction(3, 14), 5, -1)
    pf, pg = candidate_places(f), candidate_places(g)
    assert pf[0] == pg[0]
    assert pf[1] == pg[-2]
    for v in pf + pg:
        assert v == Place(v.p)
    with pytest.raises(ValueError, match="^not a prime: 4$"):
        Place(4)
    # the same part sets in other coefficients, signs and order: the one
    # cached tuple of places, not a new one
    assert candidate_places(DiagonalForm.of(-7, 1, 1)) is pf
    assert candidate_places(DiagonalForm.of(Fraction(5, 3), Fraction(-1, 14))) is pg


def test_candidate_places_match_the_parent_rule():
    # repeated, negative, Fraction and near-cap parts; each numerator and
    # denominator stays within the cap though some products n*d do not
    rng = random.Random(28)
    for _ in range(500):
        dim = rng.randint(1, 6)
        f = DiagonalForm(tuple(_differential_coeff(rng, True) for _ in range(dim)))
        got = candidate_places(f)
        assert got == _parent_candidate_places(f), f
        assert all(v == Place(v.p) for v in got[:-1]), f
        assert got[-1] is REAL_PLACE
    # two parts each below the cap whose product is above it
    big = 3 * 99999999947**2
    f = DiagonalForm.of(1, -1, Fraction(99999999977**2, big))
    assert big * 99999999977**2 > FACTORIZATION_CAP
    assert candidate_places(f) == _parent_candidate_places(f)


@pytest.mark.parametrize(
    "coeffs",
    [
        (1, 1, FACTORIZATION_CAP + 1),
        (-(FACTORIZATION_CAP + 2), 3, 5, 7),
        (1, Fraction(2, FACTORIZATION_CAP + 3), -1),
        (FACTORIZATION_CAP + 1, 1, FACTORIZATION_CAP + 1),
        # definite: the candidate places are read before the real place
        # would refuse the form by its signs
        (1, 1, 1, FACTORIZATION_CAP + 1),
        (-1, -2, Fraction(-1, FACTORIZATION_CAP + 3)),
    ],
)
def test_a_part_above_the_cap_raises_the_same_error(coeffs):
    f = DiagonalForm(coeffs)
    with pytest.raises(ValueError) as parent:
        _parent_candidate_places(f)
    message = str(parent.value)
    assert str(FACTORIZATION_CAP) in message
    for decide in (candidate_places, isotropic_Q, lambda f: isotropic_quad(f, 17),
                   lambda f: isotropic_quad(f, -7)):
        with pytest.raises(ValueError) as err:
            decide(f)
        assert str(err.value) == message


def test_a_definite_form_takes_no_hilbert_symbol(monkeypatch):
    # the real place is asked first wherever it splits, over Q and over
    # real quadratic fields, and a definite form fails there by its signs
    calls = []
    real_symbol = localfields.hilbert_symbol

    def counted(*args):
        calls.append(args)
        return real_symbol(*args)

    monkeypatch.setattr(localfields, "hilbert_symbol", counted)
    definite = (DiagonalForm.of(1, 2, 3, 5), DiagonalForm.of(-1, -3, Fraction(-5, 7), -14))
    for f in (DiagonalForm((1,) * 4), *definite):
        assert not isotropic_Q(f), f
        for d in (2, 3, 17):
            assert isotropic_quad(f, d) == ANISOTROPIC, (f, d)
    assert calls == []
    # where the real place does not split, the finite places take symbols
    assert isotropic_quad(DiagonalForm((1,) * 4), -7) == ANISOTROPIC
    assert calls != []


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
            f = DiagonalForm((1,) * m + (-alpha,))
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
