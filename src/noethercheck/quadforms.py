"""Global decisions for quadratic forms: isotropy over Q and over Q(sqrt d)
by one Hasse-Minkowski scan, field levels, and the three-square theorem.

The scan counts Q as d = 1. A rational form of dim >= 3 can fail to be
isotropic over k = Q(sqrt d) only at a place of Q that splits in k, one
where d is a square in Q_v (the real place included), so it asks the
local criterion of localfields.local_isotropic at each candidate place of
f where is_local_square(d, v) holds; over Q every place splits, and the
test is skipped. The real place is asked first, so a definite form is
refused by its signs before any finite place takes a Hilbert symbol. The
integer classes of the coefficients are read once per form, not once per
place (an int coefficient is its own class, so a form with integral
coefficients builds no Fraction anywhere in the scan, and loads no
fractions). The set of distinct numerators and denominators of a form is
factored once per process per coefficient set, in a bounded cache that
holds the whole tuple of its places; a refused part is not cached. The
radicand d of isotropic_quad is factored once per process too, in a
bounded cache of its field. No isotropic vectors are ever searched for
here.
"""

from __future__ import annotations

from functools import lru_cache

from .exact import QQ, FieldDescriptor, Frozen, exact_field, exact_int, factorize, is_square
from .localfields import (
    DiagonalForm,
    Place,
    REAL_PLACE,
    _int_class,
    _isotropic_at,
    is_local_square,
)


def candidate_places(f: DiagonalForm) -> tuple[Place, ...]:
    """Places where any local invariant of f can be nontrivial: the real
    place, 2, and odd primes dividing some numerator or denominator.

    The finite places come sorted, then REAL_PLACE. The distinct absolute
    numerators and denominators above 1 are the key of _places_of, which
    factors each set of them once per process in a bounded cache; a part
    above the factorization cap raises on every call and leaves no entry.
    An int coefficient gives its own numerator and its denominator 1
    through the int attributes, with no Fraction."""
    parts = set()
    for c in f.coeffs:
        parts.add(abs(c.numerator))
        parts.add(c.denominator)
    parts.discard(1)
    return _places_of(frozenset(parts))


@lru_cache(maxsize=1024)
def _places_of(parts: frozenset[int]) -> tuple[Place, ...]:
    """The candidate places of a form whose absolute numerators and
    denominators above 1 are parts: each part factored apart, so the
    factorization cap applies part by part, and the Place of each prime,
    sorted, then REAL_PLACE."""
    ps = {2}
    for n in parts:
        ps.update(factorize(n))
    return tuple([Place(p) for p in sorted(ps)]) + (REAL_PLACE,)


def _isotropic_over(f: DiagonalForm, k: FieldDescriptor) -> bool:
    """Hasse-Minkowski over k = Q(sqrt d), with Q counted as d = 1.

    dim 1 is never isotropic, and dim 2 is isotropic iff -a1*a2 is a
    square in k. For dim >= 3: at a place w of k over a prime that does not
    split, the completion E is a proper quadratic extension of Q_p (inert
    or ramified, dyadic included), restriction doubles Brauer-class
    invariants, so every Hilbert symbol with rational entries is +1 over E
    and a rational form of dim >= 3 is isotropic at w; complex places never
    obstruct. At a split place k_w = Q_v, and outside the candidate places
    of f the coefficients are odd units and f is isotropic.

    The candidate places are read first, so a part above the factorization
    cap raises whatever the signs; then the real place where it splits (d
    is None or d > 0), which refuses a definite form with no Hilbert
    symbol; then the finite places, sorted, so a scan that stops at the
    first failure does the same work in every process. The integer classes
    of the coefficients are read once per form, an int coefficient as its
    own class, and every place asks the criterion local_isotropic does.
    """
    n = f.dim
    if n == 1:
        return False
    if n == 2:
        return is_square(-f.coeffs[0] * f.coeffs[1], k)
    places = candidate_places(f)
    cs = [c if type(c) is int else _int_class(c) for c in f.coeffs]
    d = k.d  # None over Q, where every place splits
    if (d is None or d > 0) and not _isotropic_at(cs, REAL_PLACE):
        return False
    return all(_isotropic_at(cs, v) for v in places[:-1] if d is None or is_local_square(d, v))


def isotropic_Q(f: DiagonalForm) -> bool:
    """Does f have a nontrivial rational zero?"""
    return _isotropic_over(f, QQ)


class IsotropyOutcome(Frozen):
    """Isotropy answer over a quadratic field: kind is "isotropic" or
    "anisotropic". isotropic_quad is total for rational coefficients, so
    every outcome is decided.
    """

    __slots__ = ("kind",)

    def __init__(self, kind: str) -> None:
        if kind not in ("isotropic", "anisotropic"):
            raise ValueError(f"bad kind: {kind}")
        super().__init__(kind)

    @property
    def decided(self) -> bool:
        return True

    @property
    def is_isotropic(self) -> bool:
        return self.kind == "isotropic"


ISOTROPIC = IsotropyOutcome("isotropic")
ANISOTROPIC = IsotropyOutcome("anisotropic")


@lru_cache(maxsize=1024, typed=True)
def _quadratic_field(d: int) -> FieldDescriptor:
    """Q(sqrt d), its radicand factored once per process per d; a refused d
    keeps no entry and raises on every call. typed keeps 2.0 and
    Fraction(2), which hash as 2 does, apart from 2, so they stay refused."""
    k = FieldDescriptor(d) if d not in (0, 1) else None
    if k is None or k.d != d:
        raise ValueError(f"d must be squarefree and not 0 or 1, got {d}")
    return k


def isotropic_quad(f: DiagonalForm, d: int) -> IsotropyOutcome:
    """Decide isotropy of the rational form f over Q(sqrt d).

    d must be squarefree, not 0 or 1; it is factored once per process, to
    build the field, which a bounded memo keeps. The decision is the one
    scan of isotropic_Q with k = Q(sqrt d) in place of Q (d = 1): dim 2 is
    a square-class test in k, and for dim >= 3 f must be isotropic over
    Q_v at each candidate place v of f that splits in k, that is where d
    is a square in Q_v. The real place is one of them when d > 0.
    """
    return ISOTROPIC if _isotropic_over(f, _quadratic_field(d)) else ANISOTROPIC


def level(k: FieldDescriptor) -> int | None:
    """Level of the field: least s with -1 a sum of s squares, or None for
    Q and real quadratic fields, where -1 is no sum of squares at all.

    For imaginary quadratic fields the level is 1 for Q(i), 4 when d = 1
    mod 8 (the dyadic place splits and 3<1> stays anisotropic there), and 2
    otherwise. k passes exact_field.
    """
    k = exact_field(k)
    if k.is_rational or k.d > 0:
        return None
    if k.d == -1:
        return 1
    if k.d % 8 == 1:
        return 4
    return 2


def three_squares_nat(n: int) -> bool:
    """Sum of three integer squares: n not of the form 4**a * (8b + 7).
    n passes exact_int."""
    n = n if type(n) is int else exact_int(n, "n")
    if n < 1:
        raise ValueError("n must be a positive integer")
    while n % 4 == 0:
        n //= 4
    return n % 8 != 7
