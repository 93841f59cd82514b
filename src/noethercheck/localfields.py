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

Every symbol here depends only on the square classes of its entries, so a
rational n/d stands as the integer n*d, which differs from it by the square
d**2. Each public function reduces each rational argument to that integer
once, with no factoring, and works on ints from then on: the valuation
parities, the unit parts and the signs of n/d and n*d agree.

At an odd prime p a Place has already proved p prime, so a Legendre
symbol there is Euler's criterion evaluated in place, one
pow(x, (p - 1)/2, p) on a unit x, with no second primality test; only the
public legendre_symbol checks its p.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .exact import Frozen, is_prime


class Place(Frozen):
    """A place of Q: a finite prime, or the real place (p = None).

    Place(p) is the checked constructor and builds a new record each call;
    code that asks for the places of many forms takes the one interned
    Place of each prime from _place instead.
    """

    __slots__ = ("p",)

    def __init__(self, p: int | None) -> None:
        if p is not None and not is_prime(p):
            raise ValueError(f"not a prime: {p}")
        super().__init__(p)


REAL_PLACE = Place(None)


@lru_cache(maxsize=1024)
def _place(p: int) -> Place:
    """The interned Place(p) of a prime p. A non-prime raises, as Place(p)
    does, and lru_cache keeps no entry for a call that raised."""
    return Place(p)


class DiagonalForm(Frozen):
    """Nondegenerate diagonal quadratic form <a_1, ..., a_n> over Q."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[Fraction | int, ...]) -> None:
        # Fraction(c) on a Fraction would redo its type checks
        cs = tuple(c if type(c) is Fraction else Fraction(c) for c in coeffs)
        if not cs:
            raise ValueError("a form needs at least one coefficient")
        if 0 in cs:
            raise ValueError("diagonal coefficients must be nonzero")
        super().__init__(cs)

    @classmethod
    def of(cls, *coeffs: Fraction | int) -> DiagonalForm:
        return cls(coeffs)

    @classmethod
    def repeated(cls, n: int, c: Fraction | int = 1) -> DiagonalForm:
        """n*<c>."""
        if n < 1:
            raise ValueError("n must be positive")
        return cls((Fraction(c),) * n)

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def __str__(self) -> str:
        return "<" + ",".join(str(c) for c in self.coeffs) + ">"


def legendre_symbol(a: int, p: int) -> int:
    """(a/p) in {-1, 0, +1} for an odd prime p, by Euler's criterion."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) >> 1, p) == 1 else -1


def _int_class(x: Fraction | int) -> int:
    """The integer n*d for x = n/d: it differs from x by the square d**2,
    so every symbol below reads the same on it. No factoring is done."""
    if type(x) is not Fraction:
        x = Fraction(x)
    n, d = x.as_integer_ratio()
    return n * d


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
        a = _int_class(a)
    if type(b) is not int:
        b = _int_class(b)
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


def _hasse(cs: list[int], v: Place) -> int:
    """Product of (c_i, c_j)_v over i < j, for integer classes c."""
    out = 1
    for i in range(len(cs)):
        c = cs[i]
        for j in range(i + 1, len(cs)):
            out *= hilbert_symbol(c, cs[j], v)
    return out


def hasse_invariant(f: DiagonalForm, v: Place) -> int:
    """Product of (a_i, a_j)_v over i < j."""
    return _hasse([_int_class(c) for c in f.coeffs], v)


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
    local square, dim 3 and 4 by the Hasse invariant criteria stated in the
    module docstring, dim >= 5 always. At the real place isotropy is just
    indefiniteness.
    """
    return _isotropic_at([_int_class(c) for c in f.coeffs], v)


def _isotropic_at(cs: list[int], v: Place) -> bool:
    """local_isotropic for the form whose coefficients have the integer
    classes cs, whose product is a class of the discriminant. A scan over
    many places reads the classes once and asks here at each place."""
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
    disc = 1
    for c in cs:
        disc *= c
    if n == 3:
        return _hasse(cs, v) == hilbert_symbol(-1, -disc, v)
    return not (is_local_square(disc, v) and _hasse(cs, v) == -hilbert_symbol(-1, -1, v))
