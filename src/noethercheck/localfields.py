"""Local computations over Q_p and R: Hilbert symbols, Hasse invariants,
and isotropy of diagonal forms over completions of Q.

Conventions, fixed once for the whole package:

* hilbert_symbol(a, b, v) is +1 iff z**2 = a*x**2 + b*y**2 has a nontrivial
  solution over the completion at v.
* hasse_invariant(f, v) is the product of hilbert_symbol(a_i, a_j, v) over
  pairs i < j.
* With that normalization, a form of dim 3 is isotropic over Q_v iff
  hasse_invariant(f, v) == hilbert_symbol(-1, -disc(f), v), and a form of
  dim 4 is anisotropic over Q_v iff disc(f) is a square in Q_v and
  hasse_invariant(f, v) == -hilbert_symbol(-1, -1, v).

The other textbook normalization differs by a factor (-1, -1)_v and silently
flips the dim 3/4 answers at finitely many places if mixed in; the bundle
above is therefore pinned by tests against a modular counting oracle rather
than trusted from the formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import Rational, is_prime, padic_valuation


@dataclass(frozen=True)
class Place:
    """A place of Q: a finite prime, or the real place (p = None)."""

    p: int | None

    def __post_init__(self) -> None:
        if self.p is not None and not is_prime(self.p):
            raise ValueError(f"not a prime: {self.p}")

    @property
    def is_real(self) -> bool:
        return self.p is None

    def sort_key(self) -> tuple[int, int]:
        return (1, 0) if self.p is None else (0, self.p)

    def __str__(self) -> str:
        return "oo" if self.p is None else str(self.p)


REAL_PLACE = Place(None)


@dataclass(frozen=True)
class DiagonalForm:
    """Nondegenerate diagonal quadratic form <a_1, ..., a_n> over Q."""

    coeffs: tuple[Rational, ...]

    def __post_init__(self) -> None:
        cs = tuple(Fraction(c) for c in self.coeffs)
        if not cs:
            raise ValueError("a form needs at least one coefficient")
        if any(c == 0 for c in cs):
            raise ValueError("diagonal coefficients must be nonzero")
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def of(cls, *coeffs: Rational | int) -> DiagonalForm:
        return cls(tuple(Fraction(c) for c in coeffs))

    @classmethod
    def repeated(cls, n: int, c: Rational | int = 1) -> DiagonalForm:
        """n*<c>."""
        if n < 1:
            raise ValueError("n must be positive")
        return cls((Fraction(c),) * n)

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def perp(self, other: DiagonalForm) -> DiagonalForm:
        """Orthogonal sum."""
        return DiagonalForm(self.coeffs + other.coeffs)

    def scaled(self, c: Rational | int) -> DiagonalForm:
        return DiagonalForm(tuple(Fraction(c) * a for a in self.coeffs))

    def disc(self) -> Rational:
        out = Fraction(1)
        for c in self.coeffs:
            out *= c
        return out

    def signature(self) -> tuple[int, int]:
        pos = sum(1 for c in self.coeffs if c > 0)
        return pos, self.dim - pos

    def __str__(self) -> str:
        return "<" + ",".join(str(c) for c in self.coeffs) + ">"


def legendre_symbol(a: int, p: int) -> int:
    """(a/p) in {-1, 0, +1} for an odd prime p."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _unit_part(x: Fraction, p: int) -> tuple[int, int]:
    """(v_p(x), integer congruent to the unit part of x mod any p-power).

    The denominator is folded in by multiplication: num*den represents
    num/den modulo squares of p-units, and for the residues used here
    (Legendre symbols, classes mod 8) that is exactly what is needed since
    den**2 is a unit square.
    """
    n, d = x.numerator, x.denominator
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v, n * d


def hilbert_symbol(a: Rational | int, b: Rational | int, v: Place) -> int:
    """(a, b)_v in {+1, -1}: does z**2 = a*x**2 + b*y**2 have a nonzero
    solution over the completion at v?

    Computed by the standard unit/valuation formulas: at odd p via Legendre
    symbols, at p = 2 via the residues mod 8 of the unit parts, at the real
    place by signs.
    """
    # callers mostly pass Fractions already, and Fraction(x) on one still
    # pays for its abstract-base-class checks, a quarter of this function
    if type(a) is not Fraction:
        a = Fraction(a)
    if type(b) is not Fraction:
        b = Fraction(b)
    if not a or not b:
        raise ValueError("hilbert_symbol needs nonzero entries")
    if v.is_real:
        return -1 if (a < 0 and b < 0) else 1
    p = v.p
    alpha, u = _unit_part(a, p)
    beta, w = _unit_part(b, p)
    if p != 2:
        sign = 1
        if (alpha % 2) and (beta % 2) and (p - 1) // 2 % 2:
            sign = -sign
        if beta % 2:
            sign *= legendre_symbol(u, p)
        if alpha % 2:
            sign *= legendre_symbol(w, p)
        return sign
    um, wm = u % 8, w % 8
    # eps(u) = (u-1)/2 mod 2, omega(u) = (u**2-1)/8 mod 2 on odd residues
    exp = (um % 4 == 3) and (wm % 4 == 3)
    if alpha % 2 and wm in (3, 5):
        exp = not exp
    if beta % 2 and um in (3, 5):
        exp = not exp
    return -1 if exp else 1


def hasse_invariant(f: DiagonalForm, v: Place) -> int:
    """Product of (a_i, a_j)_v over i < j."""
    out = 1
    cs = f.coeffs
    for i in range(len(cs)):
        for j in range(i + 1, len(cs)):
            out *= hilbert_symbol(cs[i], cs[j], v)
    return out


def is_local_square(x: Rational | int, v: Place) -> bool:
    """Is the nonzero rational x a square in the completion at v?"""
    x = Fraction(x)
    if x == 0:
        raise ValueError("0 is trivially square; callers pass nonzero values")
    if v.is_real:
        return x > 0
    p = v.p
    val, u = _unit_part(x, p)
    if val % 2:
        return False
    if p == 2:
        return u % 8 == 1
    return legendre_symbol(u, p) == 1


def local_isotropic(f: DiagonalForm, v: Place) -> bool:
    """Does f have a nontrivial zero over the completion at v?

    Dimension by dimension over Q_p: dim 1 never, dim 2 iff -a1*a2 is a
    local square, dim 3 and 4 by the Hasse invariant criteria stated in the
    module docstring, dim >= 5 always. At the real place isotropy is just
    indefiniteness.
    """
    n = f.dim
    if n == 1:
        return False
    if v.is_real:
        pos, neg = f.signature()
        return pos > 0 and neg > 0
    if n == 2:
        return is_local_square(-f.coeffs[0] * f.coeffs[1], v)
    if n == 3:
        return hasse_invariant(f, v) == hilbert_symbol(-1, -f.disc(), v)
    if n == 4:
        return not (
            is_local_square(f.disc(), v)
            and hasse_invariant(f, v) == -hilbert_symbol(-1, -1, v)
        )
    return True


def local_isotropic_unramified_ext(f: DiagonalForm, p: int) -> bool:
    """Isotropy of f over the unramified quadratic extension of Q_p, p odd.

    Every p-unit of Q_p becomes a square there (all residues of F_p are
    squares in F_{p**2}, and units lift), so only coefficient valuations
    matter: for dim >= 3 two valuations share a parity and the corresponding
    binary subform is isotropic; a binary form is isotropic iff its two
    valuations agree mod 2; dim 1 never.
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    n = f.dim
    if n >= 3:
        return True
    if n == 2:
        v0 = padic_valuation(f.coeffs[0], p)
        v1 = padic_valuation(f.coeffs[1], p)
        return (v0 - v1) % 2 == 0
    return False
