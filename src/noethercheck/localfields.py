"""Local computations over Q_p and R: Hilbert symbols, Hasse invariants,
and isotropy of diagonal forms over completions of Q.

Conventions, fixed once for the whole package:

* hilbert_symbol(a, b, v) is +1 iff z**2 = a*x**2 + b*y**2 has a nontrivial
  solution over the completion at v.
* hasse_invariant(f, v) is the product of hilbert_symbol(a_i, a_j, v) over
  pairs i < j, though it is computed from exponent sums, not pair by pair.
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

    @classmethod
    def repeated(cls, n: int, c: Fraction | int = 1) -> DiagonalForm:
        """n*<c>."""
        if n < 1:
            raise ValueError("n must be positive")
        return cls((c if type(c) is int else exact_rational(c, "coefficient"),) * n)

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


def _hasse(cs: list[int], v: Place) -> int:
    """Product of (c_i, c_j)_v over i < j, for integer classes c, by
    exponent sums rather than one symbol per pair.

    Write c_i = p**alpha_i * u_i with p not dividing u_i, alpha_i the
    parity of v_p(c_i), and k = sum alpha_i. Multiplying out the formula
    of hilbert_symbol (Serre, A Course in Arithmetic, III.1.2) over the
    pairs, u_i meets the alpha_j of every j != i, k - alpha_i of them in
    all, and the pairs of odd alpha number k*(k - 1)/2. So at odd p

        (-1)**(eps(p)*k*(k - 1)/2) * (x/p),

    with x the product of the u_i whose k - alpha_i is odd: one Euler
    power, the sign folded into x since (-1/p) = (-1)**eps(p). At p = 2
    it is (-1)**(e*(e - 1)/2 + sum of omega(u_i) over those same i), with
    e the number of u_i = 3 mod 4, and at the real place (-1)**(s*(s - 1)/2)
    with s the number of negative c_i.
    """
    p = v.p
    if p is None:
        s = sum(1 for c in cs if c < 0)
        return -1 if s * (s - 1) >> 1 & 1 else 1
    split = []
    k = 0
    for c in cs:
        alpha = 0
        while not c % p:
            c //= p
            alpha ^= 1
        k += alpha
        split.append((alpha, c))
    if p != 2:
        # eps(p) = 1 iff p = 3 mod 4
        x = -1 if p & 2 and k * (k - 1) >> 1 & 1 else 1
        for alpha, u in split:
            if (k - alpha) & 1:
                x = x * u % p
        return 1 if pow(x, (p - 1) >> 1, p) == 1 else -1
    e = sum(1 for _, u in split if u % 4 == 3)
    exp = e * (e - 1) >> 1
    for alpha, u in split:
        if (k - alpha) & 1 and u % 8 in (3, 5):
            exp += 1
    return -1 if exp & 1 else 1


def hasse_invariant(f: DiagonalForm, v: Place) -> int:
    """Product of (a_i, a_j)_v over i < j, computed by the exponent sums
    of _hasse (Serre, A Course in Arithmetic, III.1.2) with no symbol per
    pair."""
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
