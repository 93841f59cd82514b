"""Exact arithmetic foundation: rationals, factorization, squarefree
decomposition, p-adic valuations, and the base field descriptor.

Every scalar in this package is a ``fractions.Fraction`` or an
arbitrary-precision int. A stored rational, such as a coefficient of
localfields.DiagonalForm, takes its canonical exact type: an int when it is
integral, and a Fraction in lowest terms only otherwise. Nothing here or
downstream touches floats: a rational argument passes exact_rational,
the one helper that puts a rational in that type and refuses a float,
Decimal, complex or str by naming the argument, and an integer field of a
record passes exact_int, which stores a plain int and refuses anything
that is not an integer type by name. The verdict reads ints only, so
fractions is imported inside exact_rational alone, once it meets a number
that is not an int.
"""

from __future__ import annotations

from functools import cache, lru_cache
from math import gcd, isqrt, prod
from operator import attrgetter, index

# Miller-Rabin with the bases _MR_BASES is proven exact only below
# 3.3 * 10**24, so inputs whose absolute value exceeds this cap are rejected
# with an explicit error. At the cap, the hardest input, a product of two
# primes near 10**12, takes rho under a second.
FACTORIZATION_CAP = 10**24

# The primes below this bound are split off first: below it by dividing by
# _MR_BASES, and from it on by one gcd with their product. A cofactor left
# over is prime below TRIAL_BOUND**2; above it, it is tested by Miller-Rabin
# and, if composite, split by Brent's rho.
TRIAL_BOUND = 1000
_TRIAL_SQUARE = TRIAL_BOUND * TRIAL_BOUND

# The first 13 primes: a strong probable prime to all of them below
# 3.3 * 10**24 is prime (Sorenson and Webster, "Strong pseudoprimes to
# twelve prime bases", Math. Comp. 2017). Smaller inputs need fewer: below
# psi_k, the least strong pseudoprime to the first k prime bases (OEIS
# A014233; Jaeschke, "On strong pseudoprimes to several bases", Math. Comp.
# 1993), the first k bases decide. psi_7 = psi_8 and psi_9 = psi_10 =
# psi_11, so no tier has 8, 10 or 11 bases.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_TIERS = tuple(
    (psi, _MR_BASES[:k])
    for psi, k in (
        (2047, 1),
        (1373653, 2),
        (25326001, 3),
        (3215031751, 4),
        (2152302898747, 5),
        (3474749660383, 6),
        (341550071728321, 7),
        (3825123056546413051, 9),
        (318665857834031151167461, 12),
    )
)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}, keys ascending.

    One walk splits off the small primes, over one screen per size. Below
    TRIAL_BOUND it is the 13 primes of _MR_BASES, with g = n, and no prime
    table is built: 43**2 > TRIAL_BOUND, so every composite there has a
    prime among them. From TRIAL_BOUND on it is the primes below
    TRIAL_BOUND, with g = gcd(n, their product). The walk divides each
    prime of g out of n fully, keeps in g what of it n still holds, and
    stops once p**2 passes g, which then has no prime below p and so is 1
    or a prime, divided out in turn. The cofactor left has no prime below
    TRIAL_BOUND, so below TRIAL_BOUND**2 it is prime; a larger one goes to
    Miller-Rabin with size-tiered bases and, if composite, is split by
    Brent's rho. n passes exact_int, which refuses a float, Fraction,
    Decimal or str by name. Raises ValueError for n = 0 or
    |n| > FACTORIZATION_CAP.
    """
    n = n if type(n) is int else exact_int(n, "n")
    if n == 0:
        raise ValueError("0 has no prime factorization")
    n = abs(n)
    if n > FACTORIZATION_CAP:
        raise ValueError(f"|n| exceeds factorization cap {FACTORIZATION_CAP}")
    if n < TRIAL_BOUND:
        primes, g = _MR_BASES, n
    else:
        primes, primorial = _trial_primes()
        g = gcd(n, primorial)
    out: dict[int, int] = {}
    for p in primes:
        if p * p > g:
            break
        if g % p == 0:
            e = 0
            while n % p == 0:
                e += 1
                n //= p
            out[p] = e
            g = gcd(g, n)
    if g > 1:
        e = 0
        while n % g == 0:
            e += 1
            n //= g
        out[g] = e
    if n == 1:
        return out
    found = []
    stack = [n]
    while stack:
        m = stack.pop()
        if m < _TRIAL_SQUARE or _strong_probable_prime(m):
            found.append(m)
            continue
        r = isqrt(m)
        if r * r == m:
            stack += (r, r)
            continue
        c = 1
        while (g := _brent_rho(m, c)) == m:
            c += 1
        stack += (g, m // g)
    for p in sorted(found):
        out[p] = out.get(p, 0) + 1
    return out


@cache
def _trial_primes() -> tuple[tuple[int, ...], int]:
    """The primes below TRIAL_BOUND and their product, sieved on first use
    by a factorization from TRIAL_BOUND on, so that importing the module
    and factoring smaller n do not pay for them."""
    sieve = bytearray([1]) * TRIAL_BOUND
    for p in range(2, isqrt(TRIAL_BOUND - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, TRIAL_BOUND, p)))
    primes = tuple(p for p in range(2, TRIAL_BOUND) if sieve[p])
    return primes, prod(primes)


def _strong_probable_prime(n: int) -> bool:
    """Is odd n > 41 a strong probable prime to the bases _MR_TIERS gives
    for its size, or to all of _MR_BASES above the last tier? Exact below
    3.3 * 10**24."""
    bases = _MR_BASES
    for psi, tier in _MR_TIERS:
        if n < psi:
            bases = tier
            break
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in bases:
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


@lru_cache(maxsize=4096, typed=True)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError for n above
    FACTORIZATION_CAP, where it is not proven exact. n passes exact_int.
    Memoized in a bounded cache that holds the 1229 primes below 10**4 with
    room to spare; typed keeps 2.0, which hashes as 2 does, from reading
    2's entry, so it stays refused."""
    n = n if type(n) is int else exact_int(n, "n")
    if n < 2:
        return False
    if n > FACTORIZATION_CAP:
        raise ValueError(f"|n| exceeds factorization cap {FACTORIZATION_CAP}")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    return _strong_probable_prime(n)


def parse_ints(texts: list[str], cap: int, what: str, cap_name: str) -> list[int]:
    """The integer each numeral writes, for an input bounded by cap: the
    one reader of a command-line integer. After strip(), a numeral is an
    optional + or - and one or more ASCII digits 0-9; anything else, an
    underscore, a non-ASCII digit or an inner space among them, is refused
    by naming what it should have been. A numeral whose significant digits
    outnumber cap's is refused by naming the cap, so int() reads only
    short ASCII digit strings; leading zeros are not counted."""
    width = len(str(cap))
    out = []
    for text in texts:
        numeral = text
        if len(text) > width or not (text.isascii() and text.isdigit()):
            body = text.strip()
            digits = body[1:] if body[:1] in ("+", "-") else body
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError(f"{what} is not an integer: {text!r}")
            significant = digits.lstrip("0") or "0"
            if len(significant) > width:
                raise ValueError(f"{what} of {len(significant)} digits exceeds {cap_name} cap {cap}")
            numeral = body[: len(body) - len(digits)] + significant
        out.append(int(numeral))
    return out


def squarefree_part(n: int) -> tuple[int, int]:
    """Write n = s * m**2 with s squarefree, m > 0, sign(s) = sign(n).
    n passes exact_int."""
    n = n if type(n) is int else exact_int(n, "n")
    if n == 0:
        raise ValueError("0 has no squarefree part")
    s = 1 if n > 0 else -1
    m = 1
    for p, e in factorize(n).items():
        if e % 2:
            s *= p
        m *= p ** (e // 2)
    return s, m


def exact_rational(x: object, name: str) -> Fraction | int:
    """x in its canonical exact type: an int when it is integral, else a
    Fraction in lowest terms. An int is returned as it is, with fractions
    not imported, and a non-integral Fraction is the very object given; a
    bool or another subclass of int or Fraction goes through Fraction(x)
    first, so True is 1. Any other type, float, Decimal, complex and str
    among them, raises a TypeError naming the argument: a float would be
    read as its binary value, and a str parsed."""
    if type(x) is int:
        return x
    from fractions import Fraction

    if type(x) is not Fraction:
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"{name} must be an int or a Fraction, not {type(x).__name__}: {x!r}")
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def exact_int(x: object, name: str) -> int:
    """x as a plain int, read through operator.index (PEP 357): an int is
    returned as it is, and a bool, a numpy integer or another type that
    declares itself an integer gives the int it stands for, so True is 1.
    Any other type, float, Fraction, Decimal, complex and str among them,
    raises a TypeError naming the argument, even where its value is
    integral: a record of integers takes integers only."""
    if type(x) is int:
        return x
    try:
        return index(x)
    except TypeError:
        raise TypeError(f"{name} must be an int, not {type(x).__name__}: {x!r}") from None


def exact_field(k: object) -> FieldDescriptor:
    """k itself when it is a FieldDescriptor; anything else, an int or None
    among them, raises a TypeError naming it, so a rule that takes a field
    never answers from, or fails deep inside, something that is not one."""
    if isinstance(k, FieldDescriptor):
        return k
    raise TypeError(f"field must be a FieldDescriptor, not {type(k).__name__}: {k!r}")


def padic_valuation(x: Fraction | int, p: int) -> int:
    """v_p(x) for nonzero rational x and prime p. x passes exact_rational,
    which refuses a float, Decimal, complex or str by naming it, and p
    passes exact_int."""
    p = p if type(p) is int else exact_int(p, "p")
    if not is_prime(p):
        raise ValueError(f"not a prime: {p}")
    x = exact_rational(x, "x")
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
    in __slots__, and Frozen binds them, by position in slot order or by
    keyword, as a dataclass does. A subclass that checks or normalizes its
    arguments does so in its own __init__ and ends with super().__init__.
    Equality, hashing, repr and pickling read the fields in slot order."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._key = attrgetter(*cls.__slots__)
        # the slot descriptors' setters, which bypass the __setattr__ below
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *values: object, **fields: object) -> None:
        setters = self._setters
        if fields or len(values) != len(setters):
            names = self.__slots__
            rest = names[len(values):]
            if len(values) > len(names) or fields.keys() != set(rest):
                raise TypeError(
                    f"{self.__class__.__qualname__}() takes the fields {', '.join(names)} once each,"
                    f" given {len(values)} by position and {', '.join(fields) or 'none'} by keyword"
                )
            values += tuple(map(fields.__getitem__, rest))
        for set_field, value in zip(setters, values):
            set_field(self, value)

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
            d = exact_int(d, "d")
            if d == 0:
                raise ValueError("d = 0 does not give a field")
            s, _ = squarefree_part(d)
            if s == 1:
                raise ValueError(f"d = {d} is a square; use FieldDescriptor() for Q")
            d = s
        super().__init__(d)

    @property
    def is_rational(self) -> bool:
        return self.d is None

    def __str__(self) -> str:
        return "Q" if self.d is None else f"Q(sqrt {self.d})"


QQ = FieldDescriptor()


def is_square(x: Fraction | int, field: FieldDescriptor = QQ) -> bool:
    """Is the rational x a square in the given field?

    Over Q(sqrt d) a rational is a square iff x or d*x is a square in Q:
    x = d*y**2 has the square root y*sqrt(d). A positive rational in lowest
    terms is a square iff its numerator and its denominator are, which
    isqrt decides without factoring either. An int is read as it is, with
    no Fraction: its denominator is 1. The field passes exact_field.
    """
    x = exact_rational(x, "x")
    field = exact_field(field)
    return _is_rational_square(x) or (not field.is_rational and _is_rational_square(field.d * x))


def _is_rational_square(x: Fraction | int) -> bool:
    """Is x, an int or a Fraction in lowest terms, a square in Q?"""
    n, m = x.numerator, x.denominator
    return n >= 0 and isqrt(n) ** 2 == n and isqrt(m) ** 2 == m
