"""Independent cross-checks for the quadratic form machinery, the
cyclotomic Galois rule and the group layer, and the group tables they use.

Nothing here uses Hilbert symbols or Hasse invariants to produce an answer;
local isotropy is decided by counting zeros modulo a fixed prime power, and
global isotropy by exhibiting an integer zero. The Galois group of
k(zeta_{2^n})/k is enumerated as a subgroup of the units mod 2^n, which is
what galois.is_cyclic_ext is compared against. Abelian invariants come two
ways, neither through groups.group_facts: from the derived subgroup, the
quotient by it and element orders counted in that quotient; and from the
relators a breadth-first spanning tree of the table yields, whose lattice
is reduced here by helpers of this module alone. These functions favour a
short, independent argument over speed, which is what the formula-driven
code is tested against.

A table is built by breadth-first closure of a generating set under an
associative compose function and then handled purely as integer indices,
with 0 the identity. Nothing quadratic in the order is ever stored: a
product composes the two raw elements and looks the result up. A table
records the spec it was built from, so groups.abelian_invariants reads the
invariants of a table from the one source, group_facts of that spec; a
quotient table records none. The tables, with their 2-Sylow search, are
what the tests compare the facts against; the verdict builds none. From
groups this module takes the specs, the catalog and the closure cap, none
of the code that computes the facts, and from chain only the permutation
product; the product of a metacyclic presentation is its own.
"""

from __future__ import annotations

import random
from array import array
from itertools import combinations, combinations_with_replacement
from functools import lru_cache
from math import gcd, isqrt, lcm

from .chain import _perm_compose
from .exact import FieldDescriptor, Frozen, factorize
from .groups import (
    CLOSURE_CAP,
    Catalog,
    GroupSpec,
    Metacyclic,
    PermGens,
    _catalog_spec,
)
from .localfields import DiagonalForm, Place, REAL_PLACE, hilbert_symbol
from .quadforms import isotropic_Q

# Ten small coefficients give 1000 diagonal forms of dim 1..4 whose primes
# of bad reduction all lie in {2, 3, 5, 7}
GRID_COEFFS = (1, -1, 2, -2, 3, -3, 5, -5, 7, -7)


def grid_forms() -> list[DiagonalForm]:
    return [f for f, _ in _grid()]


def _grid():
    """Each grid form once, dim 1 first, as (form, integer coefficients):
    the form for the code under test, the ints for the checks."""
    for dim in range(1, 5):
        for combo in combinations_with_replacement(GRID_COEFFS, dim):
            yield DiagonalForm(combo), combo


class LocalZeroOracle:
    """Decides isotropy over Q_p for small-coefficient forms of dim <= 4 by
    looking for primitive zeros modulo m = p**5 (m = 32 when p = 2).

    Exactness for coefficients with |v_p(a)| <= 1: a zero of the form over
    Q_p scales to a primitive integral zero and reduces mod m; conversely a
    primitive zero mod m has a coordinate x_i that is a unit, so
    v_p(2*a_i*x_i) <= 2 and the valuation slack m demands (at least
    2*v + 1 more than twice the derivative's valuation) lets Hensel's lemma
    lift it back to Z_p. No Hilbert symbol is consulted anywhere.

    Value sets are bitmasks over residues mod m, and representing zero with
    the right primitivity pattern is a single AND against a reflected mask.
    Every value mask here, primitive or not, is closed under multiplication
    by the unit squares U**2 of Z/m: c*(u*x)**2 = u**2 * c*x**2, and
    x -> u*x keeps p from dividing x. So every mask is a union of
    U**2-orbits (11 for odd p, 16 for m = 32): _single_mask(c, True) is the
    orbit of c, and _single_mask(c, False) the union of the orbits of
    c*p**(2k) for p**(2k) < m, plus 0. A sum of two such sets is again a
    union of orbits, so _sumset decides membership once per orbit instead
    of once per residue. For odd p the orbits have a closed form (see
    _orbits), so the only residues ever enumerated are the 16 at m = 32.
    """

    def __init__(self, p: int):
        self.p = p
        self.m = 32 if p == 2 else p**5
        self._full = (1 << self.m) - 1
        self._single: dict[tuple[int, bool], int] = {}
        self._pair: dict[tuple[int, int, bool], int] = {}
        self._refl: dict[int, int] = {}
        self._orbit_list: list[tuple[int, int]] | None = None

    def _single_mask(self, c: int, prim: bool) -> int:
        """Values of c*x**2 mod m over x prime to p (prim) or over every x.
        The first is the orbit of c; x = p**k * u adds the orbits of
        c*p**(2k) while p**(2k) < m, and 0 beyond that and at x = 0."""
        key = (c, prim)
        out = self._single.get(key)
        if out is None:
            m, p = self.m, self.p
            if prim:
                r = c % m
                out = next(orbit for _, orbit in self._orbits() if orbit >> r & 1)
            else:
                out, q = 1, 1
                while q < m:
                    out |= self._single_mask(c * q, True)
                    q *= p * p
            self._single[key] = out
        return out

    def _orbits(self) -> list[tuple[int, int]]:
        """(representative, orbit mask) for each U**2-orbit of Z/m, sorted
        by representative, the least residue of its orbit. Every value mask
        is a union of them.

        For odd p, the orbit of 0 is {0}, and a nonzero residue is p**k * u
        with k < 5 and p not dividing u. Its orbit is p**k times the classes
        u * s mod p**(5-k), s in U**2, and by Hensel's lemma (2x is a unit,
        so a simple root of x**2 - u mod p lifts) a unit mod p**j is a
        square iff it is one mod p. So the orbit is every p**k * j whose
        j mod p lies in the quadratic class of u mod p: a pattern of p
        slots spaced by p**k, repeated every p**(k+1) by multiplying with a
        repunit. The residues come from the squares x*x mod p alone. At
        m = 32, where the unit squares are the residues 1 mod 8, the orbits
        are enumerated."""
        out = self._orbit_list
        if out is None:
            m, p = self.m, self.p
            out = []
            if p == 2:
                rest = self._full
                while rest:
                    t = (rest & -rest).bit_length() - 1
                    orbit = 0
                    for x in range(1, m, 2):
                        orbit |= 1 << (t * x * x % m)
                    out.append((t, orbit))
                    rest &= ~orbit
            else:
                squares = {x * x % p for x in range(1, p)}
                classes = (sorted(squares), sorted(set(range(1, p)) - squares))
                out.append((0, 1))
                q = 1
                while q < m:
                    repunit = self._full // ((1 << (q * p)) - 1)
                    for cls in classes:
                        pattern = sum(1 << (q * j) for j in cls)
                        out.append((q * cls[0], pattern * repunit))
                    q *= p
                out.sort()
            self._orbit_list = out
        return out

    def _rotate(self, mask: int, s: int) -> int:
        m = self.m
        s %= m
        if s == 0:
            return mask
        return ((mask << s) | (mask >> (m - s))) & self._full

    def _sumset(self, a: int, b: int) -> int:
        """Values of x + y with x from a, y from b, as a mask. Exact only
        when a and b are U**2-invariant: t lies in a + b iff a meets t - b,
        and then so does its whole orbit."""
        neg_b = self._reflect(b)
        out = 0
        for t, orbit in self._orbits():
            if a & self._rotate(neg_b, t):
                out |= orbit
        return out

    def _pair_mask(self, c1: int, c2: int, prim: bool) -> int:
        if c1 > c2:
            c1, c2 = c2, c1
        key = (c1, c2, prim)
        out = self._pair.get(key)
        if out is None:
            if prim:
                out = self._sumset(
                    self._single_mask(c1, True), self._single_mask(c2, False)
                ) | self._sumset(self._single_mask(c1, False), self._single_mask(c2, True))
            else:
                out = self._sumset(
                    self._single_mask(c1, False), self._single_mask(c2, False)
                )
            self._pair[key] = out
        return out

    def _reflect(self, mask: int) -> int:
        """Mask of negated values: bit r maps to bit (m - r), bit 0 stays."""
        out = self._refl.get(mask)
        if out is None:
            m = self.m
            rest = mask >> 1
            out = (mask & 1) | (int(format(rest, f"0{m - 1}b")[::-1], 2) << 1)
            self._refl[mask] = out
        return out

    def has_primitive_zero(self, form: DiagonalForm) -> bool:
        if any(c.denominator != 1 for c in form.coeffs):
            raise ValueError("the modular oracle needs integer coefficients")
        return self._primitive_zero(tuple(c.numerator for c in form.coeffs))

    def _primitive_zero(self, cs: tuple[int, ...]) -> bool:
        """has_primitive_zero on the integer coefficients cs."""
        n = len(cs)
        if n == 1:
            return bool(self._single_mask(cs[0], True) & 1)
        if n == 2:
            a_prim, a_any = self._single_mask(cs[0], True), self._single_mask(cs[0], False)
            b_prim, b_any = self._single_mask(cs[1], True), self._single_mask(cs[1], False)
        elif n == 3:
            a_prim, a_any = self._pair_mask(cs[0], cs[1], True), self._pair_mask(cs[0], cs[1], False)
            b_prim, b_any = self._single_mask(cs[2], True), self._single_mask(cs[2], False)
        elif n == 4:
            a_prim, a_any = self._pair_mask(cs[0], cs[1], True), self._pair_mask(cs[0], cs[1], False)
            b_prim, b_any = self._pair_mask(cs[2], cs[3], True), self._pair_mask(cs[2], cs[3], False)
        else:
            raise ValueError("the modular oracle handles dim <= 4")
        return bool((a_prim & self._reflect(b_any)) | (a_any & self._reflect(b_prim)))


@lru_cache(maxsize=None)
def local_oracle(p: int) -> LocalZeroOracle:
    return LocalZeroOracle(p)


_WITNESS_TABLES: dict[tuple[tuple[int, ...], int], dict[int, tuple[int, ...]]] = {}


def _half_sums(coeffs: tuple[int, ...], height: int):
    """(sum of c*x*x, x) for every vector x over [0, height], in the order
    product(range(height + 1), repeat=len(coeffs)) yields them: each
    coefficient in turn extends every partial sum by every square. The
    last coefficient's step is lazy, so a search that stops at its first
    hit never builds the rest."""
    squares = [(x, x * x) for x in range(height + 1)]
    sums = [(0, ())]
    for c in coeffs[:-1]:
        sums = [(val + c * s, vec + (x,)) for val, vec in sums for x, s in squares]
    if not coeffs:
        return iter(sums)
    last = coeffs[-1]
    return ((val + last * s, vec + (x,)) for val, vec in sums for x, s in squares)


def _left_table(coeffs: tuple[int, ...], height: int) -> dict[int, tuple[int, ...]]:
    """value -> the first vector over [0, height] attaining it, preferring
    a nonzero vector when the value is attainable by one."""
    key = (coeffs, height)
    table = _WITNESS_TABLES.get(key)
    if table is None:
        sums = list(_half_sums(coeffs, height))
        # written last to first, so the first vector of each value stays
        table = dict(reversed(sums))
        for val, vec in sums:
            if not val and any(vec):
                table[0] = vec
                break
        _WITNESS_TABLES[key] = table
    return table


def isotropy_witness(form: DiagonalForm, height: int) -> tuple[int, ...] | None:
    """A nonzero nonnegative integer zero of the form with entries up to
    height, by meeting two half-sums in the middle, or None. Signs never
    matter since only squares of the entries appear.

    The search deepens: it tries heights 1, 2, 4, ... below height and
    makes its last try at height itself, so None still means no zero with
    entries up to height, while a form with a small zero never pays for
    the tables of the full height."""
    scale = lcm(*(c.denominator for c in form.coeffs))
    return _integer_witness(
        tuple(c.numerator * (scale // c.denominator) for c in form.coeffs), height
    )


def _integer_witness(cs: tuple[int, ...], height: int) -> tuple[int, ...] | None:
    """isotropy_witness for the form with integer coefficients cs."""
    h = 1
    while h < height:
        found = _witness_at(cs, h)
        if found is not None:
            return found
        h *= 2
    return _witness_at(cs, height)


def _witness_at(cs: tuple[int, ...], height: int) -> tuple[int, ...] | None:
    """The meet-in-the-middle search at one height."""
    k = (len(cs) + 1) // 2
    table = _left_table(cs[:k], height)
    for val, vec in _half_sums(cs[k:], height):
        hit = table.get(-val)
        if hit is not None and (any(hit) or any(vec)):
            return hit + vec
    return None


def _has_local_obstruction(cs: tuple[int, ...]) -> bool:
    """Is there a visible local reason for the form with integer
    coefficients cs to be anisotropic: definiteness, or a prime in
    {2, 3, 5, 7} where the modular oracle finds no primitive zero? Sound
    for grid forms, whose bad primes all lie in that set."""
    if all(c > 0 for c in cs) or all(c < 0 for c in cs):
        return True
    return any(not local_oracle(p)._primitive_zero(cs) for p in (2, 3, 5, 7))


def isotropy_grid_check(height: int = 60) -> int:
    """Cross-check isotropic_Q over the whole coefficient grid: every form
    claimed isotropic must yield an explicit verified integer zero, and
    every form claimed anisotropic must show a local obstruction the oracle
    can see. Returns the number of forms checked; the first disagreement
    raises AssertionError, explicitly, so the check also runs under -O.
    isotropic_Q gets the form; the witness search, the witness check and
    the local obstruction get its integer coefficients."""
    checked = 0
    for f, cs in _grid():
        if isotropic_Q(f):
            w = _integer_witness(cs, height)
            if w is None:
                raise AssertionError(f"no integer zero up to {height} for {f}")
            if not any(w):
                raise AssertionError(f"degenerate witness for {f}")
            if sum(c * x * x for c, x in zip(cs, w)) != 0:
                raise AssertionError(f"witness {w} fails for {f}")
        elif not _has_local_obstruction(cs):
            raise AssertionError(f"no local obstruction for {f}")
        checked += 1
    return checked


def factorize_by_trial_division(n: int) -> dict[int, int]:
    """Prime factorization of |n| > 0 as {prime: exponent}, keys ascending,
    by trial division through 2, 3 and every 6k +- 1 up to the square root
    of what is left. Slow above 10**12, but it shares nothing with the
    Miller-Rabin and rho path of exact.factorize."""
    if n == 0:
        raise ValueError("0 has no prime factorization")
    n = abs(n)
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
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


def three_squares_sieve(bound: int) -> bytearray:
    """out[n] is 1 iff n is a sum of three integer squares, for n <= bound.
    Sums are bitmasks over 0..bound, bit n standing for n, and adding a
    square s to every member is a shift left by s. Starting from {0}, three
    rounds of the sumset with the squares up to bound, each the OR of the
    shifts by every square cut to the bound, enumerate every sum of three
    squares, and nothing else."""
    full = (1 << (bound + 1)) - 1
    squares = [x * x for x in range(isqrt(bound) + 1)]
    sums = 1
    for _ in range(3):
        total = 0
        for s in squares:
            total |= sums << s
        sums = total & full
    # bit n of sums is character n of the reversed binary string
    digits = format(sums, f"0{bound + 1}b")[::-1].encode()
    return bytearray(digits.translate(bytes.maketrans(b"01", b"\x00\x01")))


# The numerators and denominators reciprocity_failures draws are at most
# this in absolute value.
SAMPLE_HEIGHT = 10**4


def reciprocity_failures(samples: int, seed: int = 0) -> int:
    """Count sampled pairs of nonzero rationals violating the product
    formula for Hilbert symbols over the support places: 2, the real place
    and every odd prime of a numerator or denominator. Symbols are +1
    outside the support, so the finite product is the full one.

    The support comes from a table of odd prime divisors sieved once per
    call up to SAMPLE_HEIGHT, which shares no code with exact.factorize,
    and each place is built once, through the checked constructor, and
    kept in a list indexed by its prime. A symbol gets a = n/d as the
    integer n*d, of the same square class."""
    rng = random.Random(seed)
    divisors = _odd_prime_divisors(SAMPLE_HEIGHT)
    places: list[Place | None] = [None] * (SAMPLE_HEIGHT + 1)
    fails = 0
    for _ in range(samples):
        an, ad = _random_terms(rng)
        bn, bd = _random_terms(rng)
        support = {2, *divisors[abs(an)], *divisors[ad], *divisors[abs(bn)], *divisors[bd]}
        a, b = an * ad, bn * bd
        prod = hilbert_symbol(a, b, REAL_PLACE)
        for p in support:
            v = places[p]
            if v is None:
                v = places[p] = Place(p)
            prod *= hilbert_symbol(a, b, v)
        if prod != 1:
            fails += 1
    return fails


def _odd_prime_divisors(height: int) -> list[tuple[int, ...]]:
    """out[n] is the ascending tuple of the odd primes dividing n, for
    1 <= n <= height, by a sieve: an odd n that no smaller odd prime has
    reached is prime."""
    out: list[tuple[int, ...]] = [()] * (height + 1)
    for p in range(3, height + 1, 2):
        if not out[p]:
            for n in range(p, height + 1, p):
                out[n] += (p,)
    return out


# rng.randint(1, SAMPLE_HEIGHT) draws this many bits per try
_SAMPLE_BITS = SAMPLE_HEIGHT.bit_length()


def _random_terms(rng: random.Random) -> tuple[int, int]:
    """Numerator and positive denominator, in lowest terms, of a random
    nonzero rational of height at most SAMPLE_HEIGHT: the rational
    Fraction(rng.randint(1, SAMPLE_HEIGHT) * rng.choice((1, -1)),
    rng.randint(1, SAMPLE_HEIGHT)).

    The three draws are made as CPython's randint and choice make them,
    from getrandbits by rejection: bit_length(SAMPLE_HEIGHT) bits until the
    value is below SAMPLE_HEIGHT, and 2 bits until it is below 2. A test
    pins the stream to randint and choice themselves."""
    bits = rng.getrandbits
    num = bits(_SAMPLE_BITS)
    while num >= SAMPLE_HEIGHT:
        num = bits(_SAMPLE_BITS)
    sign = bits(2)
    while sign >= 2:
        sign = bits(2)
    den = bits(_SAMPLE_BITS)
    while den >= SAMPLE_HEIGHT:
        den = bits(_SAMPLE_BITS)
    num = -num - 1 if sign else num + 1
    den += 1
    g = gcd(num, den)
    return num // g, den // g


class UnitSubgroup2n(Frozen):
    """A subgroup of the units of Z/2^n, given by its member residues.

    Only cheap shape checks run here; closure is an invariant the tests
    assert, since validating it for large n would square the member count.
    """

    __slots__ = ("n", "members")

    def __init__(self, n: int, members: frozenset[int]) -> None:
        if n < 1:
            raise ValueError("n must be at least 1")
        mod = 1 << n
        if 1 not in members:
            raise ValueError("unit subgroups contain 1")
        if any(x % 2 == 0 or not 0 < x < mod for x in members):
            raise ValueError(f"members must be odd residues in (0, {mod})")
        super().__init__(n, members)

    @property
    def size(self) -> int:
        return len(self.members)

    def is_cyclic(self) -> bool:
        """The size is a power of 2, so some member generates iff its
        power to half the size is not 1."""
        half = self.size // 2
        return half == 0 or any(pow(x, half, 1 << self.n) != 1 for x in self.members)


def cyclotomic_galois(k: FieldDescriptor, n: int) -> UnitSubgroup2n:
    """Gal(k(zeta_{2^n})/k) inside (Z/2^n)*.

    The restriction to Q(zeta_{2^n}) is injective and its image is the
    stabilizer of k intersect Q(zeta_{2^n}). The only quadratic subfields of
    any Q(zeta_{2^n}) are Q(i), Q(sqrt 2), Q(sqrt -2), so for every other k
    the image is everything; for those three it is the kernel of the
    matching character (x = 1 mod 4; x = +-1 mod 8; x = 1, 3 mod 8), once n
    is large enough for the subfield to be present at all.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    units = range(1, 1 << n, 2)
    if k.is_rational:
        members = frozenset(units)
    elif k.d == -1:
        members = frozenset(x for x in units if x % 4 == 1)
    elif k.d == 2 and n >= 3:
        members = frozenset(x for x in units if x % 8 in (1, 7))
    elif k.d == -2 and n >= 3:
        members = frozenset(x for x in units if x % 8 in (1, 3))
    else:
        members = frozenset(units)
    return UnitSubgroup2n(n, members)


def _enumerate(identity, gens, compose, cap):
    """BFS closure of the generators. Returns the elements in discovery
    order and the index dict that numbers them."""
    elems = [identity]
    index = {identity: 0}
    frontier = [identity]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = compose(x, g)
                if y not in index:
                    if len(elems) >= cap:
                        raise ValueError(f"closure exceeded cap {cap}")
                    index[y] = len(elems)
                    elems.append(y)
                    new.append(y)
        frontier = new
    return elems, index


class FiniteGroupTable:
    """A finite group as indices 0..order-1 with 0 the identity: the
    closure of gens under compose, of at most cap elements. Products
    compose the raw elements on demand; nothing quadratic in the order is
    stored. spec is the group spec the table was built from, or None."""

    identity = 0

    def __init__(self, identity, gens, compose, cap, label, spec=None):
        gens = list(gens)
        elems, index = _enumerate(identity, gens, compose, cap)
        self.order = len(elems)
        self.label = label
        self.spec: GroupSpec | None = spec
        self._elems = elems
        self._index = index
        self._compose = compose
        self.generator_indices = tuple(index[g] for g in gens)
        self._inv_cache: dict[int, int] = {}

    def __repr__(self) -> str:
        return f"<group {self.label} of order {self.order}>"

    def mult(self, x: int, y: int) -> int:
        return self._index[self._compose(self._elems[x], self._elems[y])]

    def inv(self, x: int) -> int:
        out = self._inv_cache.get(x)
        if out is None:
            out = self._inv_cache[x] = self.power(x, self.order - 1)
        return out

    def power(self, x: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv(x), -k)
        out = 0
        while k:
            if k & 1:
                out = self.mult(out, x)
            x = self.mult(x, x)
            k >>= 1
        return out

    @property
    def sylow2_order(self) -> int:
        """The 2-part of the order, which is the order of a 2-Sylow subgroup."""
        return self.order & -self.order

    def element_order(self, x: int) -> int:
        o = self.order
        for p in factorize(o) if o > 1 else ():
            while o % p == 0 and self.power(x, o // p) == 0:
                o //= p
        return o

    def closure(self, seed) -> frozenset[int]:
        """Subgroup generated by the given element indices. Closing under
        multiplication alone suffices in a finite group."""
        return frozenset(_enumerate(0, sorted(set(seed) - {0}), self.mult, self.order)[0])


class Subgroup(Frozen):
    """A validated subgroup, stored as a frozenset of parent indices."""

    __slots__ = ("group", "members")

    def __init__(self, group: FiniteGroupTable, members: frozenset[int]) -> None:
        super().__init__(group, members)
        self.__post_init__()

    def __post_init__(self) -> None:
        """The subgroup test, by this name for the benchmark's tracer. A
        subset of a finite group that is closed under multiplication is a
        subgroup, since the inverse of each x is a power of x, so H is one
        iff it is the subgroup its elements generate. That one is closed
        from 0 by breadth-first search under generators taken from H in
        index order, each one not yet reached: the old points are
        multiplied by the new generator and the new points by every
        generator. Each generator at least doubles what is reached, so this
        costs O(|H| log |H|) products, and it stops at the first product
        that leaves H."""
        G, H = self.group, self.members
        if 0 not in H:
            raise ValueError("subgroups contain the identity")
        if G.order % len(H) != 0:
            raise ValueError("subgroup order does not divide the group order")
        if len(H) == G.order:
            return
        reached = [0]
        seen = {0}
        gens: list[int] = []
        for s in sorted(H):
            if s in seen:
                continue
            gens.append(s)
            old = len(reached)
            k = 0
            while k < len(reached):  # grows while it is read
                x = reached[k]
                for g in gens[-1:] if k < old else gens:
                    y = G.mult(x, g)
                    if y not in seen:
                        if y not in H:
                            raise ValueError(f"not closed under multiplication at ({x}, {g})")
                        seen.add(y)
                        reached.append(y)
                k += 1

    @property
    def order(self) -> int:
        return len(self.members)


def _metacyclic_compose(m: Metacyclic):
    """The product of elements s**i t**j of m, stored as pairs (i, j) with
    0 <= i < a and 0 <= j < b. It computes r**j mod a with pow, so no list
    of length b is built."""
    a, b, c, r = m.a, m.b, m.c, m.r

    def compose(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        # s**i1 t**j1 s**i2 t**j2 = s**(i1 + i2*r**j1) t**(j1 + j2), and a
        # wrapped t**b turns into a central-in-<s> factor s**c
        i = (x[0] + y[0] * pow(r, x[1], a)) % a
        j = x[1] + y[1]
        if j >= b:
            j -= b
            i = (i + c) % a
        return (i, j)

    return compose


def build_group(spec: GroupSpec) -> FiniteGroupTable:
    """The closure table of a group spec, which it records. The table of a
    catalog spec is labelled by the name."""
    if isinstance(spec, Catalog):
        group, label = _catalog_spec(spec.name), spec.name
    elif isinstance(spec, (Metacyclic, PermGens)):
        group, label = spec, None
    else:
        raise TypeError(f"not a group spec: {spec!r}")
    if isinstance(group, PermGens):
        identity = tuple(range(group.degree))
        label = label or f"perm(degree {group.degree})"
        return FiniteGroupTable(identity, group.generators, _perm_compose, CLOSURE_CAP, label, spec)
    a, b, c, r = group.a, group.b, group.c, group.r
    if a * b > CLOSURE_CAP:
        raise ValueError(f"a table of order {a * b} exceeds closure cap {CLOSURE_CAP}")
    gens = [(1 % a, 0), (0, 1 % b)]
    label = label or f"metacyclic(a={a},b={b},c={c},r={r})"
    G = FiniteGroupTable((0, 0), gens, _metacyclic_compose(group), a * b, label, spec)
    assert G.order == a * b
    return G


@lru_cache(maxsize=None)
def catalog_group(name: str) -> FiniteGroupTable:
    """The table of a catalog group, built once per name."""
    return build_group(Catalog(name))


def two_sylow(G: FiniteGroupTable) -> Subgroup:
    """A 2-Sylow subgroup, deterministically: seed with the least-index
    element of 2-power order, then repeatedly double through the least-index
    y outside P with y**2 in P that normalizes P. Such y always exists while
    |P| is below the full 2-part, because the normalizer of a proper
    2-subgroup inside a Sylow overgroup is strictly larger and contains an
    involution of the quotient."""
    target = G.sylow2_order
    if target == 1:
        return Subgroup(G, frozenset({0}))
    if target == G.order:
        return Subgroup(G, frozenset(range(G.order)))
    seed = next(
        x
        for x in range(1, G.order)
        if (o := G.element_order(x)) % 2 == 0 and o & (o - 1) == 0
    )
    gens = [seed]
    members = G.closure(gens)
    while len(members) < target:
        for y in range(1, G.order):
            if y in members or G.mult(y, y) not in members:
                continue
            yinv = G.inv(y)
            if all(G.mult(G.mult(y, g), yinv) in members for g in gens):
                gens.append(y)
                members = G.closure(gens)
                break
        else:
            raise AssertionError("2-Sylow doubling found no witness")
    return Subgroup(G, members)


def is_generalized_quaternion16(H: Subgroup) -> bool:
    """Does H have the presentation <a, b | a**8 = 1, b**2 = a**4,
    b*a*b**-1 = a**-1>?

    Every element of H has order dividing 16, so a has order 8 iff
    a**4 != 1 = a**8, and b**2 = a**4 gives b order 4 and b**-1 = b*a**4:
    the test multiplies inside H and never raises to powers near |G|."""
    if H.order != 16:
        return False
    mult = H.group.mult
    for a in sorted(H.members):
        a4 = mult(mult(a, a), mult(a, a))
        if a4 == 0 or mult(a4, a4) != 0:
            continue
        pw = [0]
        for _ in range(7):
            pw.append(mult(pw[-1], a))
        cyc = set(pw)
        for b in sorted(H.members - cyc):
            if mult(b, b) == a4 and mult(mult(b, a), mult(b, a4)) == pw[7]:
                return True
    return False


def derived_subgroup(G: FiniteGroupTable) -> Subgroup:
    """Commutator subgroup: the normal closure of the commutators of the
    generators. Saturating the generating set under conjugation by the
    group's generators is enough, since conjugation is an automorphism and
    stability forces g*N*g**-1 = N for every generator g."""
    gi = G.generator_indices
    seed: list[int] = []
    seen = {0}
    for x in gi:
        for y in gi:
            c = G.mult(G.mult(x, y), G.inv(G.mult(y, x)))
            if c not in seen:
                seen.add(c)
                seed.append(c)
    members = G.closure(seed)
    changed = True
    while changed:
        changed = False
        for g in gi:
            ginv = G.inv(g)
            for s in list(seed):
                t = G.mult(G.mult(g, s), ginv)
                if t not in members:
                    seed.append(t)
                    members = G.closure(seed)
                    changed = True
    return Subgroup(G, members)


def quotient_by(G: FiniteGroupTable, N: Subgroup) -> FiniteGroupTable:
    """G/N for a normal subgroup N, as a table over canonical coset
    representatives (the least index in each coset)."""
    if N.group is not G:
        raise ValueError("subgroup belongs to a different group")
    for g in G.generator_indices:
        ginv = G.inv(g)
        for x in N.members:
            if G.mult(G.mult(g, x), ginv) not in N.members:
                raise ValueError("subgroup is not normal")
    rep_of = array("i", [-1]) * G.order
    for x in range(G.order):
        if rep_of[x] == -1:
            for m in N.members:
                rep_of[G.mult(x, m)] = x

    def compose(u: int, v: int) -> int:
        return rep_of[G.mult(u, v)]

    gens = [rep_of[g] for g in G.generator_indices]
    label = f"{G.label}/(subgroup of order {N.order})"
    return FiniteGroupTable(0, gens, compose, G.order, label)


def abelian_invariants_by_quotient(G: FiniteGroupTable) -> tuple[int, ...]:
    """Invariant factors of G/[G, G], descending, by counting element orders
    in the quotient table.

    In the abelianization Q the count of x with x**(p**k) = 1 equals
    p**(number of cyclic p-power factors of order >= p**1..p**k summed), so
    successive count ratios read off how many factors have order >= p**k.
    """
    Q = quotient_by(G, derived_subgroup(G))
    n = Q.order
    if n == 1:
        return ()
    orders = [Q.element_order(x) for x in range(n)]
    per_prime: dict[int, list[int]] = {}
    for p, emax in sorted(factorize(n).items()):
        logs = [
            _ilog(sum(1 for o in orders if p**k % o == 0), p)
            for k in range(emax + 2)
        ]
        # lam[k-1] = number of cyclic p-factors of order >= p**k; the last
        # entry is 0 since no factor exceeds p**emax
        lam = [logs[k] - logs[k - 1] for k in range(1, emax + 2)]
        factors = []
        for k in range(emax, 0, -1):
            factors.extend([p**k] * (lam[k - 1] - lam[k]))
        per_prime[p] = factors
    width = max(len(f) for f in per_prime.values())
    invs = []
    for i in range(width):
        m = 1
        for factors in per_prime.values():
            if i < len(factors):
                m *= factors[i]
        invs.append(m)
    return tuple(invs)


def abelian_invariants_by_relators(G: FiniteGroupTable) -> tuple[int, ...]:
    """Invariant factors of G/[G, G], descending and without 1s, from the
    relators of a breadth-first spanning tree of G (Reidemeister-Schreier
    for the trivial subgroup).

    Each element x carries the exponent vector ev(x) in Z^k of its word
    along the tree, k = len(G.generator_indices). Every edge x*g = y off the
    tree is a relator, with image ev(x) + e_g - ev(y), and these images span
    the lattice L with G/[G, G] = Z^k / L; the invariant factors are the
    quotients of successive determinantal divisors of a basis of L."""
    gens = G.generator_indices
    k = len(gens)
    ev = {0: (0,) * k}
    basis: list[list[int] | None] = [None] * k
    frontier = [0]
    while frontier:
        new = []
        for x in frontier:
            for i, g in enumerate(gens):
                yv = ev[x][:i] + (ev[x][i] + 1,) + ev[x][i + 1 :]
                y = G.mult(x, g)
                if y not in ev:
                    ev[y] = yv
                    new.append(y)
                elif yv != ev[y]:
                    _add_to_echelon(basis, [s - t for s, t in zip(yv, ev[y])])
        frontier = new
    if None in basis:
        raise AssertionError("the relation lattice of a finite group has full rank")
    divisors = [1]
    for i in range(1, k + 1):
        minors = (
            _det([[basis[r][c] for c in cols] for r in rows])
            for rows in combinations(range(k), i)
            for cols in combinations(range(k), i)
        )
        divisors.append(gcd(*minors))
    return tuple(
        n for n in (divisors[i] // divisors[i - 1] for i in range(k, 0, -1)) if n > 1
    )


def _add_to_echelon(basis: list, v: list[int]) -> None:
    """Add v to the lattice spanned by basis: basis[j] is None or has its
    first nonzero entry at column j. Euclid's algorithm on column j, by
    unimodular row operations, leaves the gcd in basis[j] and 0 in v."""
    for j in range(len(basis)):
        if v[j] and basis[j] is None:
            basis[j] = v
            return
        while v[j]:
            q = basis[j][j] // v[j]
            basis[j], v = v, [x - q * y for x, y in zip(basis[j], v)]


def _det(m: list[list[int]]) -> int:
    """Determinant of a square integer matrix by expansion along its first
    row, skipping zeros: exact, and cheap on the minors of an echelon basis."""
    if not m:
        return 1
    return sum(
        (-1) ** j * x * _det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j, x in enumerate(m[0])
        if x
    )


def _ilog(n: int, p: int) -> int:
    k = 0
    while n % p == 0 and n > 1:
        n //= p
        k += 1
    return k
