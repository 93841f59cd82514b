"""Global decisions for quadratic forms: classification over Q, isotropy by
Hasse-Minkowski, Witt index, the quadratic-extension decision, sums of
squares, the three-square theorem, and field levels.

Everything over Q is decided from the complete invariant set
(dim, disc class, signature, bad Hasse places); no isotropic vectors are
ever searched for here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    FieldDescriptor,
    QQ,
    Rational,
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
    set of places with Hasse invariant -1. dim 0 is allowed so a fully split
    form can report an empty anisotropic kernel.
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


def equivalent_Q(f: DiagonalForm, g: DiagonalForm) -> bool:
    """Rational equivalence, by completeness of the invariant set."""
    return form_invariants(f) == form_invariants(g)


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


def _split_hyperbolic(inv: FormInvariants) -> FormInvariants:
    """Invariants of g where f = <1,-1> perp g.

    disc flips sign; the Hasse invariant picks up (-1, disc g)_v from the
    cross terms of the orthogonal sum.
    """
    disc2 = square_class(-inv.disc)
    places = {Place(2), REAL_PLACE} | set(inv.hasse_bad)
    places.update(Place(p) for p in factorize(disc2) if p != 2)
    bad = frozenset(
        v
        for v in places
        if (-1 if v in inv.hasse_bad else 1) * hilbert_symbol(-1, disc2, v) == -1
    )
    return FormInvariants(inv.dim - 2, disc2, inv.pos - 1, inv.neg - 1, bad)


def witt_index_Q(f: DiagonalForm) -> tuple[int, FormInvariants]:
    """Witt index over Q and the invariants of the anisotropic kernel,
    computed by repeatedly cancelling a hyperbolic plane."""
    inv = form_invariants(f)
    w = 0
    while _invariants_isotropic(inv):
        inv = _split_hyperbolic(inv)
        w += 1
    return w, inv


@dataclass(frozen=True)
class IsotropyOutcome:
    """Three-valued isotropy answer over a quadratic field.

    kind is "isotropic", "anisotropic", or "unsupported" with a reason. The
    unsupported variant is part of the interface; the decision procedure in
    isotropic_quad is total for rational coefficients and never produces it.
    """

    kind: str
    reason: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("isotropic", "anisotropic", "unsupported"):
            raise ValueError(f"bad kind: {self.kind}")
        if self.kind == "unsupported" and not self.reason:
            raise ValueError("unsupported outcomes carry a reason")

    @property
    def decided(self) -> bool:
        return self.kind != "unsupported"

    @property
    def is_isotropic(self) -> bool:
        if not self.decided:
            raise ValueError("undecided outcome")
        return self.kind == "isotropic"


ISOTROPIC = IsotropyOutcome("isotropic")
ANISOTROPIC = IsotropyOutcome("anisotropic")


def unsupported(reason: str) -> IsotropyOutcome:
    return IsotropyOutcome("unsupported", reason)


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


@dataclass(frozen=True)
class Decision:
    """Yes/no with a reason; value None means the question was not decided."""

    value: bool | None
    reason: str

    @property
    def decided(self) -> bool:
        return self.value is not None


def level(k: FieldDescriptor) -> int | float:
    """Level of the field: least s with -1 a sum of s squares, math.inf for
    formally real fields.

    For imaginary quadratic fields the level is 1 for Q(i), 4 when d = 1
    mod 8 (the dyadic place splits and 3<1> stays anisotropic there), and 2
    otherwise.
    """
    if k.is_rational or k.d > 0:
        return math.inf
    if k.d == -1:
        return 1
    if k.d % 8 == 1:
        return 4
    return 2


def sum_of_squares(alpha: Rational | int, n: int, k: FieldDescriptor = QQ) -> Decision:
    """Is alpha a sum of n squares in k?

    When n exceeds the level, n*<1> is isotropic and hence universal;
    otherwise alpha is represented by n*<1> iff n*<1> perp <-alpha> is
    isotropic, decided over Q or Q(sqrt d) exactly.
    """
    alpha = Fraction(alpha)
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    if n < 1:
        raise ValueError("n must be positive")
    if level(k) < n:
        return Decision(True, f"{n}*<1> is isotropic over {k} (level {level(k)}), hence universal")
    form = DiagonalForm((Fraction(1),) * n + (-alpha,))
    if k.is_rational:
        iso = isotropic_Q(form)
        return Decision(iso, f"{form} {'isotropic' if iso else 'anisotropic'} over Q")
    out = isotropic_quad(form, k.d)
    if not out.decided:
        return Decision(None, out.reason)
    return Decision(
        out.is_isotropic,
        f"{form} {'isotropic' if out.is_isotropic else 'anisotropic'} over {k}",
    )


def three_squares_nat(n: int) -> bool:
    """Sum of three integer squares: n not of the form 4**a * (8b + 7)."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    while n % 4 == 0:
        n //= 4
    return n % 8 != 7
