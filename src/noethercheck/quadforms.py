"""Global decisions for quadratic forms: isotropy over Q and over Q(sqrt d)
by one Hasse-Minkowski scan, field levels, and the three-square theorem.

The scan counts Q as d = 1. A rational form of dim >= 3 can fail to be
isotropic over k = Q(sqrt d) only at a place of Q that splits in k, one
where d is a square in Q_v (the real place included), so it asks the
local criterion of localfields.local_isotropic at each candidate place of
f where is_local_square(d, v) holds; over Q every place splits, and the
test is skipped. The integer classes of the coefficients are read once per
form, not once per place, and each distinct numerator or denominator of f is
factored once per form. A prime's place is the one interned Place of
localfields._place, not a new record per form. No isotropic vectors are ever
searched for here.
"""

from __future__ import annotations

from .exact import QQ, FieldDescriptor, Frozen, factorize, is_square
from .localfields import (
    DiagonalForm,
    Place,
    REAL_PLACE,
    _int_class,
    _isotropic_at,
    _place,
    is_local_square,
)


def candidate_places(f: DiagonalForm) -> tuple[Place, ...]:
    """Places where any local invariant of f can be nontrivial: the real
    place, 2, and odd primes dividing some numerator or denominator.

    The finite places come sorted, then REAL_PLACE. Each distinct absolute
    numerator or denominator above 1 is factored once, each part apart, so
    the factorization cap applies part by part; each prime maps to its one
    interned Place."""
    parts = set()
    for c in f.coeffs:
        parts.add(abs(c.numerator))
        parts.add(c.denominator)
    parts.discard(1)
    ps = {2}
    for n in parts:
        ps.update(factorize(n))
    return tuple([_place(p) for p in sorted(ps)]) + (REAL_PLACE,)


def _isotropic_over(f: DiagonalForm, k: FieldDescriptor) -> bool:
    """Hasse-Minkowski over k = Q(sqrt d), with Q counted as d = 1.

    dim 1 is never isotropic, and dim 2 is isotropic iff -a1*a2 is a
    square in k. For dim >= 3: at a place w of k over a prime that does not
    split, the completion E is a proper quadratic extension of Q_p (inert
    or ramified, dyadic included), restriction doubles Brauer-class
    invariants, so every Hilbert symbol with rational entries is +1 over E
    and a rational form of dim >= 3 is isotropic at w; complex places never
    obstruct. At a split place k_w = Q_v, and outside the candidate places
    of f the coefficients are odd units and f is isotropic. The candidate
    places come sorted, so a scan that stops at the first failure does the
    same work in every process.

    The integer classes of the coefficients are read once per form, and
    every place of the scan asks the same local criterion local_isotropic
    does, on those classes.
    """
    n = f.dim
    if n == 1:
        return False
    if n == 2:
        return is_square(-f.coeffs[0] * f.coeffs[1], k)
    places = candidate_places(f)
    cs = [_int_class(c) for c in f.coeffs]
    d = k.d  # None over Q, where every place splits
    return all(_isotropic_at(cs, v) for v in places if d is None or is_local_square(d, v))


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


def isotropic_quad(f: DiagonalForm, d: int) -> IsotropyOutcome:
    """Decide isotropy of the rational form f over Q(sqrt d).

    d must be squarefree, not 0 or 1; it is factored once, to build the
    field. The decision is the one scan of isotropic_Q with k = Q(sqrt d)
    in place of Q (d = 1): dim 2 is a square-class test in k, and for
    dim >= 3 f must be isotropic over Q_v at each candidate place v of f
    that splits in k, that is where d is a square in Q_v. The real place
    is one of them when d > 0.
    """
    k = FieldDescriptor(d) if d not in (0, 1) else None
    if k is None or k.d != d:
        raise ValueError(f"d must be squarefree and not 0 or 1, got {d}")
    return ISOTROPIC if _isotropic_over(f, k) else ANISOTROPIC


def level(k: FieldDescriptor) -> int | None:
    """Level of the field: least s with -1 a sum of s squares, or None for
    Q and real quadratic fields, where -1 is no sum of squares at all.

    For imaginary quadratic fields the level is 1 for Q(i), 4 when d = 1
    mod 8 (the dyadic place splits and 3<1> stays anisotropic there), and 2
    otherwise.
    """
    if k.is_rational or k.d > 0:
        return None
    if k.d == -1:
        return 1
    if k.d % 8 == 1:
        return 4
    return 2


def three_squares_nat(n: int) -> bool:
    """Sum of three integer squares: n not of the form 4**a * (8b + 7)."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    while n % 4 == 0:
        n //= 4
    return n % 8 != 7
