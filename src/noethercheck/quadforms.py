"""Global decisions for quadratic forms: classification over Q, isotropy by
Hasse-Minkowski, the quadratic-extension decision, the three-square
theorem, and field levels.

Everything over Q is decided from the complete invariant set
(dim, disc class, signature, bad Hasse places); no isotropic vectors are
ever searched for here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import (
    FieldDescriptor,
    factorize,
    is_square,
    square_class,
    squarefree_part,
)
from .localfields import (
    DiagonalForm,
    Place,
    REAL_PLACE,
    hasse_invariant,
    hilbert_symbol,
    is_local_square,
    legendre_symbol,
    local_isotropic,
)


@dataclass(frozen=True)
class FormInvariants:
    """Complete set of rational invariants of a nondegenerate form.

    disc is the squarefree class of the determinant; hasse_bad is the finite
    set of places with Hasse invariant -1.
    """

    dim: int
    disc: int
    pos: int
    neg: int
    hasse_bad: frozenset[Place]

    def __post_init__(self) -> None:
        if self.dim < 0 or self.pos < 0 or self.neg < 0 or self.pos + self.neg != self.dim:
            raise ValueError("inconsistent signature")


def candidate_places(f: DiagonalForm) -> tuple[Place, ...]:
    """Places where any local invariant of f can be nontrivial: the real
    place, 2, and odd primes dividing some numerator or denominator."""
    ps = {2}
    for c in f.coeffs:
        ps.update(factorize(c.numerator))
        ps.update(factorize(c.denominator))
    finite = sorted(ps)
    return tuple(Place(p) for p in finite) + (REAL_PLACE,)


def form_invariants(f: DiagonalForm) -> FormInvariants:
    d = f.disc()
    pos, neg = f.signature()
    bad = frozenset(v for v in candidate_places(f) if hasse_invariant(f, v) == -1)
    return FormInvariants(f.dim, square_class(d), pos, neg, bad)


def _relevant_places(inv: FormInvariants) -> list[Place]:
    """The places where a local condition can fail, in Place.sort_key
    order: a scan that stops at the first failure then does the same work
    in every process, whatever the set order."""
    places = {Place(2), REAL_PLACE} | set(inv.hasse_bad)
    places.update(Place(p) for p in factorize(inv.disc) if p != 2)
    return sorted(places, key=Place.sort_key)


def _invariants_isotropic(inv: FormInvariants) -> bool:
    """Hasse-Minkowski on invariant data alone.

    Outside the relevant places every Hilbert symbol in sight is +1, so the
    dim 3 and dim 4 local conditions hold automatically there.
    """
    if inv.dim <= 1:
        return False
    if inv.pos == 0 or inv.neg == 0:
        return False
    if inv.dim >= 5:
        return True
    if inv.dim == 2:
        return inv.disc == -1
    places = _relevant_places(inv)
    if inv.dim == 3:
        for v in places:
            eps = -1 if v in inv.hasse_bad else 1
            if eps != hilbert_symbol(-1, -inv.disc, v):
                return False
        return True
    for v in places:
        eps = -1 if v in inv.hasse_bad else 1
        if is_local_square(inv.disc, v) and eps == -hilbert_symbol(-1, -1, v):
            return False
    return True


def isotropic_Q(f: DiagonalForm) -> bool:
    """Does f have a nontrivial rational zero?"""
    return _invariants_isotropic(form_invariants(f))


@dataclass(frozen=True)
class IsotropyOutcome:
    """Isotropy answer over a quadratic field: kind is "isotropic" or
    "anisotropic". isotropic_quad is total for rational coefficients, so
    every outcome is decided.
    """

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("isotropic", "anisotropic"):
            raise ValueError(f"bad kind: {self.kind}")

    @property
    def decided(self) -> bool:
        return True

    @property
    def is_isotropic(self) -> bool:
        return self.kind == "isotropic"


ISOTROPIC = IsotropyOutcome("isotropic")
ANISOTROPIC = IsotropyOutcome("anisotropic")


def _split_places(f: DiagonalForm, d: int) -> list[Place]:
    """The finite candidate places of f whose prime splits in Q(sqrt d):
    odd p iff p does not divide d and d is a square mod p; p = 2 iff
    d = 1 mod 8."""
    out = []
    for v in candidate_places(f):
        p = v.p
        if p == 2:
            if d % 8 == 1:
                out.append(v)
        elif p is not None and d % p != 0 and legendre_symbol(d, p) == 1:
            out.append(v)
    return out


def isotropic_quad(f: DiagonalForm, d: int) -> IsotropyOutcome:
    """Decide isotropy of the rational form f over Q(sqrt d).

    d must be squarefree, not 0 or 1. The procedure is total: at any place w
    of Q(sqrt d) whose completion E is a proper quadratic extension of Q_p
    (inert or ramified, dyadic included), restriction doubles Brauer-class
    invariants, so every Hilbert symbol with rational entries becomes +1
    over E; by the local classification a rational form of dim 3 or 4 is
    then automatically isotropic at w. The only places that can obstruct are
    the real embeddings (d > 0 with f definite) and the primes that split
    (completion Q_p itself), and both are checked exactly. dim 2 reduces to
    a global square class test, dim >= 5 to the real embeddings alone.
    """
    s, m = squarefree_part(d)
    if m != 1 or s == 1:
        raise ValueError(f"d must be squarefree and not 0 or 1, got {d}")
    n = f.dim
    if n == 1:
        return ANISOTROPIC
    if isotropic_Q(f):
        return ISOTROPIC
    pos, neg = f.signature()
    definite = pos == 0 or neg == 0
    if n == 2:
        field = FieldDescriptor(d)
        return ISOTROPIC if is_square(-f.coeffs[0] * f.coeffs[1], field) else ANISOTROPIC
    if d > 0 and definite:
        return ANISOTROPIC
    if n >= 5:
        return ISOTROPIC
    for v in _split_places(f, d):
        if not local_isotropic(f, v):
            return ANISOTROPIC
    return ISOTROPIC


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
