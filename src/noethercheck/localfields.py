"""Local computations over Q_p and R: Hilbert symbols, local squares,
and isotropy of diagonal forms over completions of Q.

Conventions:

* hilbert_symbol(a, b, v) is +1 iff z**2 = a*x**2 + b*y**2 has a nontrivial
  solution over the completion at v.
* <a, b, c> is isotropic over Q_v iff (-a*c, -b*c)_v = +1: scaled by c it
  is <a*c, b*c, 1>, and z**2 = -a*c*x**2 - b*c*y**2 is the symbol's own
  equation.
* <a, b, c, e> is anisotropic over Q_v iff a*b*c*e is a square in Q_v and
  (-a*b, -a*c)_v = -1. A non-square discriminant leaves it isotropic.
  With a*b*c*e a square, e is a*b*c up to a square, and the form is
  a*<1, a*b, a*c, b*c> = a*<1, -alpha, -beta, alpha*beta> for alpha = -a*b
  and beta = -a*c: a multiple of the norm form of the quaternion algebra
  (alpha, beta), which is anisotropic iff that algebra is division, iff
  (alpha, beta)_v = -1 (Serre, A Course in Arithmetic, IV.2.2; Lam,
  Introduction to Quadratic Forms over Fields).

Both criteria are pinned by tests against a modular counting oracle and
against Serre's criteria, read from a Hasse invariant that the test
computes itself as the product of hilbert_symbol over the pairs i < j.

Every symbol here depends only on the square classes of its entries, so a
rational n/d stands as the integer n*d, which differs from it by the square
d**2. Each public function reduces each rational argument to that integer
once, with no factoring, and works on ints from then on: the valuation
parities, the unit parts and the signs of n/d and n*d agree.

At an odd prime p a Place has already proved p prime, so a Legendre
symbol there is Euler's criterion evaluated in place, one
pow(x, (p - 1)/2, p) on a unit x, with no second primality test. The
annotations are strings, so fractions loads only with a Fraction argument.
"""

from __future__ import annotations

from .exact import Frozen, exact_int, exact_rational, is_prime


class Place(Frozen):
    """A place of Q: a finite prime, or the real place (p = None)."""

    __slots__ = ("p",)

    def __init__(self, p: int | None) -> None:
        if p is not None:
            p = exact_int(p, "p")
            if not is_prime(p):
                raise ValueError(f"not a prime: {p}")
        super().__init__(p)


REAL_PLACE = Place(None)


class DiagonalForm(Frozen):
    """Nondegenerate diagonal quadratic form <a_1, ..., a_n> over Q.

    Each coefficient is stored in its canonical exact type: an int when it
    is integral, and a Fraction in lowest terms only otherwise. 3 and
    Fraction(3) both store 3, True stores 1, and Fraction(1, 2) stays a
    Fraction; the value, ==, hash and str of the form are the same either
    way. A tuple of ints is stored as it is, an int coefficient builds no
    Fraction, and every reader of coeffs takes an int as it is. Any other
    coefficient passes exact_rational, which refuses a float, Decimal,
    complex or str with a TypeError.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[Fraction | int, ...]) -> None:
        if type(coeffs) is tuple and set(map(type, coeffs)) == {int}:
            cs = coeffs
        else:
            cs = tuple(c if type(c) is int else exact_rational(c, "coefficient") for c in coeffs)
        if not cs:
            raise ValueError("a form needs at least one coefficient")
        if 0 in cs:
            raise ValueError("diagonal coefficients must be nonzero")
        super().__init__(cs)

    @classmethod
    def of(cls, *coeffs: Fraction | int) -> DiagonalForm:
        return cls(coeffs)

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def __str__(self) -> str:
        return "<" + ",".join(str(c) for c in self.coeffs) + ">"


def _int_class(x: Fraction | int, name: str = "x") -> int:
    """The integer n*d for x = n/d: it differs from x by the square d**2,
    so every symbol below reads the same on it. No factoring is done, and
    an int is its own class. x passes exact_rational, which names the
    argument name when it refuses x."""
    x = exact_rational(x, name)
    return x.numerator * x.denominator


def hilbert_symbol(a: Fraction | int, b: Fraction | int, v: Place) -> int:
    """(a, b)_v in {+1, -1}: does z**2 = a*x**2 + b*y**2 have a nonzero
    solution over the completion at v?

    Computed on the integer square classes of a and b by the standard
    unit/valuation formulas: at odd p via Legendre symbols, at p = 2 via
    the residues mod 8 of the unit parts, at the real place by the signs.
    p is stripped from an entry only when it divides it, and at odd p two
    entries of even valuation give +1 at once. Otherwise, for a = p**alpha*u
    and b = p**beta*w (Serre, Cours d'arithmetique III.1.2),

        (a, b)_p = (-1)**(alpha*beta*eps(p)) * (u/p)**beta * (w/p)**alpha,

    and since (-1/p) = (-1)**eps(p) that is the Legendre symbol of one
    unit x: u, w or -u*w. The Place has already proved p prime, so Euler's
    criterion is evaluated in place, as one pow(x, (p - 1)/2, p); x is
    prime to p, so the power is 1 or p - 1, never 0.
    """
    if type(a) is not int:
        a = _int_class(a, "a")
    if type(b) is not int:
        b = _int_class(b, "b")
    if not a or not b:
        raise ValueError("hilbert_symbol needs nonzero entries")
    p = v.p
    if p is None:
        return -1 if (a < 0 and b < 0) else 1
    # only the parities of the valuations matter
    alpha = beta = 0
    while not a % p:
        a //= p
        alpha ^= 1
    while not b % p:
        b //= p
        beta ^= 1
    if p != 2:
        if not alpha:
            if not beta:
                return 1
            x = a
        else:
            x = -a * b if beta else b
        return 1 if pow(x, (p - 1) >> 1, p) == 1 else -1
    um, wm = a % 8, b % 8
    # eps(u) = (u-1)/2 mod 2, omega(u) = (u**2-1)/8 mod 2 on odd residues
    exp = (um % 4 == 3) and (wm % 4 == 3)
    if alpha and wm in (3, 5):
        exp = not exp
    if beta and um in (3, 5):
        exp = not exp
    return -1 if exp else 1


def is_local_square(x: Fraction | int, v: Place) -> bool:
    """Is the nonzero rational x a square in the completion at v?"""
    if type(x) is not int:
        x = _int_class(x)
    if not x:
        raise ValueError("0 is trivially square; callers pass nonzero values")
    p = v.p
    if p is None:
        return x > 0
    odd = False
    while not x % p:
        x //= p
        odd = not odd
    if odd:
        return False
    if p == 2:
        return x % 8 == 1
    # Euler's criterion, as in hilbert_symbol: x is now prime to p
    return pow(x, (p - 1) >> 1, p) == 1


def local_isotropic(f: DiagonalForm, v: Place) -> bool:
    """Does f have a nontrivial zero over the completion at v?

    Dimension by dimension over Q_p: dim 1 never, dim 2 iff -a1*a2 is a
    local square, dim 3 and 4 by the one-symbol criteria stated in the
    module docstring, dim >= 5 always. At the real place isotropy is just
    indefiniteness.
    """
    return _isotropic_at([_int_class(c) for c in f.coeffs], v)


def _isotropic_at(cs: list[int], v: Place) -> bool:
    """local_isotropic for the form whose coefficients have the integer
    classes cs. A scan over many places reads the classes once and asks
    here at each place, where dim 3 and 4 take at most one Hilbert symbol
    by the criteria of the module docstring."""
    n = len(cs)
    if n == 1:
        return False
    if v.p is None:
        neg = sum(1 for c in cs if c < 0)
        return 0 < neg < n
    if n >= 5:
        return True
    if n == 2:
        return is_local_square(-cs[0] * cs[1], v)
    if n == 3:
        a, b, c = cs
        return hilbert_symbol(-a * c, -b * c, v) == 1
    a, b, c, e = cs
    return not (is_local_square(a * b * c * e, v) and hilbert_symbol(-a * b, -a * c, v) == -1)
