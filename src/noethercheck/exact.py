"""Exact arithmetic foundation: rationals, factorization, squarefree
decomposition, p-adic valuations, and the base field descriptor.

Every scalar in this package is a ``fractions.Fraction`` (aliased Rational)
or an arbitrary-precision int. Nothing here or downstream touches floats.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from operator import attrgetter

Rational = Fraction

# Miller-Rabin with the bases _MR_BASES is proven exact only below
# 3.3 * 10**24, so inputs whose absolute value exceeds this cap are rejected
# with an explicit error. At the cap, the hardest input, a product of two
# primes near 10**12, takes rho under a second.
FACTORIZATION_CAP = 10**24

# Trial division runs through the primes below this bound; a cofactor left
# over is tested by Miller-Rabin and, if composite, split by Brent's rho.
TRIAL_BOUND = 1000
_TRIAL_SQUARE = TRIAL_BOUND * TRIAL_BOUND

# The first 13 primes: a strong probable prime to all of them below
# 3.3 * 10**24 is prime (Sorenson and Webster 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}, keys ascending.

    Trial division by the primes below TRIAL_BOUND; what is left after
    that goes to Miller-Rabin and Brent's rho. Raises ValueError for n = 0
    or |n| > FACTORIZATION_CAP.
    """
    if n == 0:
        raise ValueError("0 has no prime factorization")
    n = abs(n)
    if n > FACTORIZATION_CAP:
        raise ValueError(f"|n| exceeds factorization cap {FACTORIZATION_CAP}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n >= _TRIAL_SQUARE:
        return _factorize_rough(n, out)
    # below TRIAL_BOUND**2 trial division finishes under the bound
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _factorize_rough(n: int, out: dict[int, int]) -> dict[int, int]:
    """Finish factorize for n >= TRIAL_BOUND**2 with no factor 2 or 3.

    Every prime below the final f is divided out, so a cofactor below f**2
    is prime; larger ones are tested and split, and their primes, all
    above every key already in out, are added in ascending order.
    """
    f = 5
    while f < TRIAL_BOUND and f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    primes = []
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m < f * f or _strong_probable_prime(m):
            primes.append(m)
            continue
        r = isqrt(m)
        if r * r == m:
            stack += (r, r)
            continue
        c = 1
        while (g := _brent_rho(m, c)) == m:
            c += 1
        stack += (g, m // g)
    for p in sorted(primes):
        out[p] = out.get(p, 0) + 1
    return out


def _strong_probable_prime(n: int) -> bool:
    """Is odd n > 41 a strong probable prime to every base in _MR_BASES?
    Exact below 3.3 * 10**24."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int, c: int) -> int:
    """A divisor of the odd composite n other than 1, from Brent's cycle
    search on x -> x**2 + c starting at 2, with the differences multiplied
    together and one gcd per batch of 128; n itself when this c fails."""
    y, r, q, g = 2, 1, 1, 1
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(128, r - k)):
                y = (y * y + c) % n
                q = q * (x - y) % n
            g = gcd(q, n)
            k += 128
        r *= 2
    if g == n:
        # the batch overshot: replay it one gcd at a time
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = gcd(x - ys, n)
    return g


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError for n above
    FACTORIZATION_CAP, where it is not proven exact."""
    if n < 2:
        return False
    if n > FACTORIZATION_CAP:
        raise ValueError(f"|n| exceeds factorization cap {FACTORIZATION_CAP}")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    return _strong_probable_prime(n)


def squarefree_part(n: int) -> tuple[int, int]:
    """Write n = s * m**2 with s squarefree, m > 0, sign(s) = sign(n)."""
    if n == 0:
        raise ValueError("0 has no squarefree part")
    s = 1 if n > 0 else -1
    m = 1
    for p, e in factorize(n).items():
        if e % 2:
            s *= p
        m *= p ** (e // 2)
    return s, m


def square_class(x: Rational | int) -> int:
    """Squarefree integer representing nonzero x modulo rational squares."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("0 has no square class")
    # num/den and num*den differ by the square den**2
    return squarefree_part(x.numerator * x.denominator)[0]


def padic_valuation(x: Rational | int, p: int) -> int:
    """v_p(x) for nonzero rational x and prime p."""
    if not is_prime(p):
        raise ValueError(f"not a prime: {p}")
    x = Fraction(x)
    if x == 0:
        raise ValueError("v_p(0) is undefined")
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


class Frozen:
    """Base of the package's immutable records: a subclass names its fields
    in __slots__ and sets them in __init__ through object.__setattr__.
    Equality, hashing, repr and pickling read the fields in slot order."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._key = attrgetter(*cls.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)


class FieldDescriptor(Frozen):
    """Q when d is None, otherwise the quadratic field Q(sqrt d).

    Any nonsquare integer is reduced to its squarefree part on construction;
    perfect squares and 0 are rejected since they do not describe a quadratic
    extension.
    """

    __slots__ = ("d",)

    def __init__(self, d: int | None = None) -> None:
        if d is not None:
            if d == 0:
                raise ValueError("d = 0 does not give a field")
            s, _ = squarefree_part(d)
            if s == 1:
                raise ValueError(f"d = {d} is a square; use FieldDescriptor() for Q")
            d = s
        object.__setattr__(self, "d", d)

    @property
    def is_rational(self) -> bool:
        return self.d is None

    def __str__(self) -> str:
        return "Q" if self.d is None else f"Q(sqrt {self.d})"


QQ = FieldDescriptor()


def is_square(x: Rational | int, field: FieldDescriptor = QQ) -> bool:
    """Is the rational x a square in the given field?

    Over Q(sqrt d) a nonzero rational is a square iff its square class is 1
    or d: x = d*y**2 has the square root y*sqrt(d).
    """
    x = Fraction(x)
    if x == 0:
        return True
    c = square_class(x)
    if field.is_rational:
        return c == 1
    return c == 1 or c == field.d
