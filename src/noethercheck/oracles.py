"""Independent cross-checks for the quadratic form machinery, the
cyclotomic Galois rule and the group layer.

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
"""

from __future__ import annotations

import random
from array import array
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from functools import lru_cache
from math import gcd, lcm

from .exact import FieldDescriptor, Frozen, Rational, factorize
from .groups import FiniteGroupTable, Subgroup
from .localfields import DiagonalForm, Place, REAL_PLACE, hilbert_symbol
from .quadforms import isotropic_Q

# Ten small coefficients give 1000 diagonal forms of dim 1..4 whose primes
# of bad reduction all lie in {2, 3, 5, 7}
GRID_COEFFS = (1, -1, 2, -2, 3, -3, 5, -5, 7, -7)


def grid_forms() -> list[DiagonalForm]:
    out = []
    for dim in range(1, 5):
        for combo in combinations_with_replacement(GRID_COEFFS, dim):
            out.append(DiagonalForm.of(*combo))
    return out


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
    x -> u*x keeps p from dividing x. A sum of two such sets is again a
    union of U**2-orbits, so _sumset decides membership once per orbit
    (11 orbits for odd p, 16 for m = 32) instead of once per residue; the
    orbit of t is exactly _single_mask(t, True).
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
        key = (c, prim)
        out = self._single.get(key)
        if out is None:
            m, p = self.m, self.p
            ci = c % m
            # digit m-1-r of the binary string is bit r; x and m - x give
            # the same value and the same primitivity, so x <= m/2 suffices
            digits, one = bytearray(b"0") * m, ord("1")
            for x in range(m // 2 + 1):
                if prim and x % p == 0:
                    continue
                digits[m - 1 - ci * x * x % m] = one
            out = int(digits, 2)
            self._single[key] = out
        return out

    def _orbits(self) -> list[tuple[int, int]]:
        """(representative, orbit mask) for each U**2-orbit of Z/m, the
        representative being the least residue of its orbit."""
        out = self._orbit_list
        if out is None:
            out = []
            rest = self._full
            while rest:
                t = (rest & -rest).bit_length() - 1
                orbit = self._single_mask(t, True)
                out.append((t, orbit))
                rest &= ~orbit
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
        cs = []
        for c in form.coeffs:
            if c.denominator != 1:
                raise ValueError("the modular oracle needs integer coefficients")
            cs.append(int(c))
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


def _left_table(coeffs: tuple[int, ...], height: int) -> dict[int, tuple[int, ...]]:
    """value -> some vector over [0, height] attaining it, preferring a
    nonzero vector when the value is attainable by one."""
    key = (coeffs, height)
    table = _WITNESS_TABLES.get(key)
    if table is None:
        table = {}
        for vec in product(range(height + 1), repeat=len(coeffs)):
            val = sum(c * x * x for c, x in zip(coeffs, vec))
            cur = table.get(val)
            if cur is None or (not any(cur) and any(vec)):
                table[val] = vec
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
    cs = tuple(int(c * scale) for c in form.coeffs)
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
    right = cs[k:]
    for vec in product(range(height + 1), repeat=len(right)):
        hit = table.get(-sum(c * x * x for c, x in zip(right, vec)))
        if hit is not None and (any(hit) or any(vec)):
            return hit + vec
    return None


def _has_local_obstruction(f: DiagonalForm) -> bool:
    """Is there a visible local reason for f to be anisotropic: definiteness,
    or a prime in {2, 3, 5, 7} where the modular oracle finds no primitive
    zero? Sound for grid forms, whose bad primes all lie in that set."""
    pos, neg = f.signature()
    if pos == 0 or neg == 0:
        return True
    return any(not local_oracle(p).has_primitive_zero(f) for p in (2, 3, 5, 7))


def isotropy_grid_check(height: int = 60) -> int:
    """Cross-check isotropic_Q over the whole coefficient grid: every form
    claimed isotropic must yield an explicit verified integer zero, and
    every form claimed anisotropic must show a local obstruction the oracle
    can see. Returns the number of forms checked; the first disagreement
    raises AssertionError, explicitly, so the check also runs under -O."""
    checked = 0
    for f in grid_forms():
        if isotropic_Q(f):
            w = isotropy_witness(f, height)
            if w is None:
                raise AssertionError(f"no integer zero up to {height} for {f}")
            if not any(w):
                raise AssertionError(f"degenerate witness for {f}")
            if sum(c * x * x for c, x in zip(f.coeffs, w)) != 0:
                raise AssertionError(f"witness {w} fails for {f}")
        elif not _has_local_obstruction(f):
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
    """out[n] is 1 iff n is a sum of three integer squares, for n <= bound,
    by plain enumeration."""
    out = bytearray(bound + 1)
    x = 0
    while x * x <= bound:
        y = x
        while x * x + y * y <= bound:
            z = y
            while (s := x * x + y * y + z * z) <= bound:
                out[s] = 1
                z += 1
            y += 1
        x += 1
    return out


def reciprocity_failures(samples: int, seed: int = 0) -> int:
    """Count sampled pairs of nonzero rationals violating the product
    formula for Hilbert symbols over the support places: 2, the real place
    and every odd prime of a numerator or denominator. Symbols are +1
    outside the support, so the finite product is the full one. Each
    integer is factored once per call and each place built once: a
    sample's support is a set of int primes."""
    rng = random.Random(seed)
    places: dict[int, Place] = {}
    odd_primes: dict[int, tuple[int, ...]] = {}
    fails = 0
    for _ in range(samples):
        a = _random_rational(rng)
        b = _random_rational(rng)
        support = {2}
        for n in (a.numerator, a.denominator, b.numerator, b.denominator):
            n = abs(n)
            primes = odd_primes.get(n)
            if primes is None:
                primes = odd_primes[n] = tuple(p for p in factorize(n) if p != 2)
            support.update(primes)
        prod = hilbert_symbol(a, b, REAL_PLACE)
        for p in support:
            v = places.get(p)
            if v is None:
                v = places[p] = Place(p)
            prod *= hilbert_symbol(a, b, v)
        if prod != 1:
            fails += 1
    return fails


def _random_rational(rng: random.Random) -> Rational:
    num = rng.randint(1, 10**4) * rng.choice((1, -1))
    den = rng.randint(1, 10**4)
    return Fraction(num, den)


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
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "members", members)

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
    return FiniteGroupTable.from_generators(0, gens, compose, G.order, label)


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
