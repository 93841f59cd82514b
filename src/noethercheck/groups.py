"""Finite groups from generators: the specs, and the facts the verdict
reads about them.

The verdict reads one GroupFacts record per spec: the order, the abelian
invariants, the 2-part of the order and whether the 2-Sylow subgroup is
Q16. A metacyclic presentation gives them from its parameters without
enumerating the group: the invariants are (h*b/d, d) without 1s, for
h = gcd(a, r - 1) and d = gcd(h, c, b), and so is the Q16 answer, which
needs the 2-part 16 and then a 2-part 8 of a and two congruences on c and
r. A permutation spec with one generator is the cyclic presentation
of the lcm of its cycle lengths. Any other permutation spec is answered
from a deterministic Schreier-Sims stabilizer chain: the order is the
product of its orbit lengths, and the invariants come from a chain for the
derived subgroup G' and the indices of G'<g**(p**k)> along the p-power
series of G/G'. The chain for G' is grown from the commutators and their
conjugates by orbit extension alone, membership tested on the partial
chain, which has no false positives. Its orbit product is at most |G'|, so
once it reaches |G| over the part of |G/G'| the signs and abelian images
of the orbits show, it is complete: a perfect group, for which that bound
is |G| and G' = G, and S_n run no second Schreier-Sims. Short of the
bound, the elements it took are added to a new chain one at a time, each
completed, as the chain for G is built. Only when the 2-part of |G| is 16,
and |G| is within CLOSURE_CAP, are elements walked for the Q16 test, one
product of coset representatives at a time, and then only those of the
image of G on one orbit: a Sylow Q16 has a regular orbit inside some orbit
of G, and on any orbit where the image keeps the 2-part 16 the 2-Sylow
subgroups map isomorphically. Every catalog group is one of these two
kinds of spec.

The multiplication tables the facts are tested against live in oracles,
which imports this module and never the reverse; the verdict builds none.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import compress
from math import gcd, lcm
from operator import itemgetter, ne

from .exact import FACTORIZATION_CAP, Frozen, factorize

# Hard ceilings so a typo in a generating set fails fast instead of eating
# memory: every closure (a permutation or metacyclic table of oracles)
# stops at 10**6 elements, the Q16 test walks the elements of a permutation group only up
# to that order, and a permutation degree above 10**6 is refused before its
# image tuples are built. A metacyclic presentation is answered without
# enumeration, so its cap only bounds the size of the input: a*b up to the
# factorization cap. A stabilizer chain stores two image tuples of length
# degree per orbit point of each level; it stops once their total length
# would pass 10**7, about 80 MB of tuple slots.
CLOSURE_CAP = 10**6
METACYCLIC_CAP = FACTORIZATION_CAP
CHAIN_CAP = 10**7


def _perm_compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Apply p, then q. An itemgetter of several indices returns a tuple,
    and does so several times faster than a map; the identity is the only
    permutation of degree 1."""
    return itemgetter(*p)(q) if len(p) > 1 else q


def _parse_cycle_string(s: str) -> tuple[list[list[int]], int]:
    """'(1 2 3)(4 5)' -> ([[1,2,3],[4,5]], 5). Points are 1-based; singleton
    cycles are dropped but still raise the degree; '()' is the identity.
    Each '(' opens a body that one ')' closes, with only whitespace outside;
    no regular expression, whose first compile costs more than the parse."""
    head, *parts = s.split("(")
    bodies = [part.split(")") for part in parts]
    if not bodies or head.strip() or any(len(b) != 2 or b[1].strip() for b in bodies):
        raise ValueError(f"bad cycle notation: {s!r}")
    cycles: list[list[int]] = []
    maxpt = 0
    for body, _ in bodies:
        pts = [int(t) for t in body.replace(",", " ").split()]
        if not pts:
            continue
        if min(pts) < 1:
            raise ValueError(f"points must be positive: {s!r}")
        if len(set(pts)) != len(pts):
            raise ValueError(f"repeated point in cycle ({body})")
        maxpt = max(maxpt, max(pts))
        if len(pts) > 1:
            cycles.append(pts)
    return cycles, maxpt


class PermGens(Frozen):
    """Permutation group given by generators as image tuples on 0..degree-1."""

    __slots__ = ("degree", "generators")

    def __init__(self, degree: int, generators: tuple[tuple[int, ...], ...]) -> None:
        if degree < 1:
            raise ValueError("degree must be at least 1")
        if not generators:
            raise ValueError("at least one generator is required")
        for g in generators:
            if sorted(g) != list(range(degree)):
                raise ValueError(f"not a permutation of 0..{degree - 1}: {g}")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "generators", generators)

    @classmethod
    def from_cycles(cls, *specs: str) -> PermGens:
        """Build from cycle notation, one string per generator, points
        1-based: PermGens.from_cycles("(1 2)", "(1 2 3 4)")."""
        if not specs:
            raise ValueError("at least one generator is required")
        parsed = [_parse_cycle_string(s) for s in specs]
        degree = max(1, max(maxpt for _, maxpt in parsed))
        # each generator is an image tuple of this length, built below
        if degree > CLOSURE_CAP:
            raise ValueError(f"degree {degree} exceeds closure cap {CLOSURE_CAP}")
        gens = []
        for cycles, _ in parsed:
            # the cycles apply left to right: the x that img sends to a point
            # of the cycle now goes on to that point's successor
            img = list(range(degree))
            inv = img[:]
            for pts in cycles:
                for x, q in zip([inv[q - 1] for q in pts], pts[1:] + pts[:1]):
                    img[x] = q - 1
                    inv[q - 1] = x
            gens.append(tuple(img))
        return cls(degree, tuple(gens))


class Metacyclic(Frozen):
    """<s, t | s**a = 1, t**b = s**c, t*s*t**-1 = s**r>.

    The consistency conditions r**b = 1 and c*(r - 1) = 0 (mod a) make the
    set {s**i t**j} of size a*b a group; construction rejects anything else.
    """

    __slots__ = ("a", "b", "c", "r")

    def __init__(self, a: int, b: int, c: int, r: int) -> None:
        if a < 1 or b < 1:
            raise ValueError("a and b must be positive")
        if a * b > METACYCLIC_CAP:
            raise ValueError(f"order a*b = {a * b} exceeds metacyclic cap {METACYCLIC_CAP}")
        if not (0 <= c < a and 0 <= r < a):
            raise ValueError("c and r must lie in [0, a)")
        if gcd(r, a) != 1:
            raise ValueError(f"r = {r} is not invertible mod a = {a}")
        if pow(r, b, a) != 1 % a:
            raise ValueError(f"r**b != 1 mod a for r = {r}, b = {b}, a = {a}")
        if c * (r - 1) % a != 0:
            raise ValueError(f"c*(r - 1) != 0 mod a for c = {c}, r = {r}, a = {a}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "r", r)


class Catalog(Frozen):
    """A named group from the built-in catalog."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        object.__setattr__(self, "name", name)


GroupSpec = PermGens | Metacyclic | Catalog


def _perm_inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def _perm_power(p: tuple[int, ...], k: int) -> tuple[int, ...]:
    out = tuple(range(len(p)))
    while k:
        if k & 1:
            out = _perm_compose(out, p)
        p = _perm_compose(p, p)
        k >>= 1
    return out


def _perm_order(p: tuple[int, ...]) -> int:
    """The lcm of the cycle lengths of p."""
    seen = bytearray(len(p))
    out = 1
    for i in range(len(p)):
        if not seen[i]:
            n = 0
            j = i
            while not seen[j]:
                seen[j] = 1
                j = p[j]
                n += 1
            out = lcm(out, n)
    return out


class _Level:
    """One level of a stabilizer chain: the base point, the strong
    generators that fix the earlier base points (each with its inverse),
    the orbit of the base point under them in discovery order, and for each
    orbit point x the coset representative reps[x] that sends x to the base
    point and its inverse coreps[x], which a chain that grow built makes
    only when a Schreier generator first needs it. The Schreier generators
    pairing orbit[i] with gens[:tested[i]] have been sifted; every orbit
    point before `todo` has been paired with every generator."""

    __slots__ = ("base", "gens", "orbit", "reps", "coreps", "tested", "todo")

    def __init__(self, base: int) -> None:
        self.base = base
        self.gens: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        self.orbit: list[int] = []
        self.reps: dict[int, tuple[int, ...]] = {}
        self.coreps: dict[int, tuple[int, ...]] = {}
        self.tested: list[int] = []
        self.todo = 0

    def copy(self) -> _Level:
        new = _Level(self.base)
        new.gens, new.orbit, new.tested = self.gens[:], self.orbit[:], self.tested[:]
        new.reps, new.coreps = dict(self.reps), dict(self.coreps)
        new.todo = self.todo
        return new


class _StabilizerChain:
    """A base and strong generating set of a permutation group, grown by
    the deterministic Schreier-Sims algorithm (Holt-Eick-O'Brien,
    Handbook of Computational Group Theory, section 4.4; Seress,
    Permutation Group Algorithms, ch. 4). add completes the chain after
    each new element: every Schreier generator of every level is sifted
    through the levels below it, and a nontrivial residue becomes a strong
    generator. Then the order of the group is the product of the orbit
    lengths. Each orbit point holds two image tuples, its coset
    representative and that one's inverse, so the chain holds at most 2|G|
    permutations; the point images of both are counted as the point is
    stored and refused past CHAIN_CAP.

    grow takes a stream of elements instead and only extends orbits, so
    its chain is partial. Sifting through a partial chain has no false
    positives, since an element that strips to the identity is a product
    of stored coset representatives, but may have false negatives. Sifting
    reads the representatives only, so grow leaves each inverse to be made
    when a Schreier generator first needs it; walk reads the inverses, and
    walks only chains that add built.

    bound, if not 0, bounds the order of every group the chain is asked to
    hold. The stored orbits lie inside the true basic orbits, so their
    lengths multiply to at most the group's order; once that product reaches
    bound the chain is complete, however little of it was verified, and
    every later add is a no-op."""

    def __init__(self, degree: int, bound: int = 0) -> None:
        self.identity = tuple(range(degree))
        self.levels: list[_Level] = []
        self.images = 0
        self.size = 1  # the product of the orbit lengths
        self.bound = bound

    def copy(self, bound: int) -> _StabilizerChain:
        """A copy that may grow up to a new bound. A chain at its own bound
        is complete however little of it was verified, so its copy's levels
        count every Schreier generator as sifted."""
        new = _StabilizerChain(len(self.identity), bound)
        new.levels = [lev.copy() for lev in self.levels]
        new.images, new.size = self.images, self.size
        if self.size == self.bound:
            for lev in new.levels:
                lev.tested = [len(lev.gens)] * len(lev.orbit)
                lev.todo = len(lev.orbit)
        return new

    def order(self) -> int:
        return self.size

    def walk(self, square: tuple[int, ...] | None = None):
        """Every element g of the group, which is not trivial, once, or,
        given square, only those with g(g(x)) = square(x) at the first point
        x that square moves. g is the product c_n * ... * c_1 * c_0 of one
        coset representative c_i per level i, which sends the base point of
        level i to a point of its orbit, and c_0 varies fastest. Only the
        partial products on the current path are kept, and g(z) =
        c_0[prefix[z]] is read at x before anything is composed."""
        levels = self.levels
        last = [levels[0].coreps[z] for z in levels[0].orbit]
        x = 0 if square is None else next(i for i, z in enumerate(square) if i != z)

        def walk(i: int, prefix: tuple[int, ...]):
            if i:
                coreps = levels[i].coreps
                for z in levels[i].orbit:
                    yield from walk(i - 1, _perm_compose(prefix, coreps[z]))
                return
            px = prefix[x]
            for c in last:
                if square is None or c[prefix[c[px]]] == square[x]:
                    yield _perm_compose(prefix, c)

        yield from walk(len(levels) - 1, self.identity)

    def sift(self, g: tuple[int, ...], start: int = 0) -> tuple[tuple[int, ...] | None, int]:
        """Strip g through the levels from start on. Returns the residue, or
        None if g strips to the identity, and the level whose orbit misses
        g, or len(levels) if none does."""
        levels, identity = self.levels, self.identity
        for j in range(start, len(levels)):
            lev = levels[j]
            x = g[lev.base]
            if x == lev.base:
                continue
            rep = lev.reps.get(x)
            if rep is None:
                return g, j
            g = _perm_compose(g, rep)
            if g == identity:
                return None, len(levels)
        return (None if g == identity else g), len(levels)

    def contains(self, g: tuple[int, ...]) -> bool:
        return self.sift(g)[0] is None

    def add(self, g: tuple[int, ...]) -> bool:
        """Extend the group by g and complete the chain. Returns False,
        changing nothing, if g is already a member."""
        if self.size == self.bound:
            return False
        residue, j = self.sift(g)
        if residue is None:
            return False
        self._insert(residue, 0, j)
        self._complete(j)
        return True

    def grow(self, elements, conjugators) -> list[tuple[int, ...]]:
        """Extend the group by the elements and by the conjugates
        g**-1 * y * g, for the pairs (g, g**-1) of conjugators, of every
        element y that extended it, until those are closed under them: the
        normal closure of the elements in the group the conjugators
        generate. Returns the elements that extended it, which generate
        that closure.

        Each element is sifted through the partial chain. A residue that
        strips to the identity is a product of stored coset
        representatives, so the element is already a member: the test has
        no false positives, and a false negative only takes one more
        element. A nontrivial residue becomes a strong generator of the
        levels down to the one that stopped it, and their orbits are
        extended under it. No Schreier generator is sifted, so the chain is
        complete only once its orbit product reaches the bound, and growth
        stops there."""
        taken: list[tuple[int, ...]] = []
        for y in elements:
            if self._extend(y):
                taken.append(y)
                if self.size == self.bound:
                    return taken
        for y in taken:  # grows while it is read
            for g, g_inv in conjugators:
                z = _perm_compose(_perm_compose(g_inv, y), g)
                if self._extend(z):
                    taken.append(z)
                    if self.size == self.bound:
                        return taken
        return taken

    def _extend(self, g: tuple[int, ...]) -> bool:
        """Make the residue of g a strong generator and extend the orbits of
        its levels under it. Returns False, changing nothing, if g strips to
        the identity."""
        residue, j = self.sift(g)
        if residue is None:
            return False
        self._insert(residue, 0, j)
        for lev in self.levels[: j + 1]:
            if self.size == self.bound:
                break
            self._extend_orbit(lev)
        return True

    def _extend_orbit(self, lev: _Level) -> None:
        """Close the orbit of lev, closed under all its generators but the
        last, under that one too: the last is applied to the old points and
        every generator to the new points only. It stops once the orbit
        product reaches the bound."""
        gens, orbit, reps = lev.gens, lev.orbit, lev.reps
        last, old = gens[-1:], len(orbit)
        k = 0
        while k < len(orbit):  # grows while it is read
            x = orbit[k]
            for s, s_inv in last if k < old else gens:
                y = s[x]
                if y not in reps:
                    self._store(lev, y, _perm_compose(s_inv, reps[x]))
                    if self.size == self.bound:
                        return
            k += 1

    def _store(
        self, lev: _Level, point: int, rep: tuple[int, ...], corep: tuple[int, ...] | None = None
    ) -> None:
        degree = len(self.identity)
        if self.images + 2 * degree > CHAIN_CAP:
            raise ValueError(
                f"a stabilizer chain of degree {degree} needs more than "
                f"chain cap {CHAIN_CAP} stored point images"
            )
        self.images += 2 * degree
        n = len(lev.orbit)
        if n:
            self.size = self.size // n * (n + 1)
        lev.orbit.append(point)
        lev.reps[point] = rep
        if corep is not None:
            lev.coreps[point] = corep
        lev.tested.append(0)

    def _insert(self, h: tuple[int, ...], lo: int, hi: int) -> None:
        """Make h, which fixes the base points before level hi, a strong
        generator of levels lo..hi, opening level hi if it is new."""
        if hi == len(self.levels):
            lev = _Level(next(i for i, x in enumerate(h) if i != x))
            self._store(lev, lev.base, self.identity, self.identity)
            self.levels.append(lev)
        gen = (h, _perm_inverse(h))
        for lev in self.levels[lo : hi + 1]:
            lev.gens.append(gen)
            lev.todo = 0

    def _complete(self, i: int) -> None:
        """Levels below i are complete; make levels i, i-1, ..., 0 complete
        too. A residue found at level i joins the levels after i, down to
        the one that stopped it, and the work resumes there."""
        while i >= 0 and self.size != self.bound:
            found = self._schreier_residue(i)
            if found is None:
                i -= 1
            else:
                h, j = found
                self._insert(h, i + 1, j)
                i = j

    def _schreier_residue(self, i: int):
        """Sift the untested Schreier generators of level i, extending its
        orbit along the way, until one leaves a nontrivial residue below
        level i. Returns (residue, level) for that one, or None."""
        lev = self.levels[i]
        gens, orbit, reps, coreps, tested = lev.gens, lev.orbit, lev.reps, lev.coreps, lev.tested
        k = lev.todo
        while k < len(orbit):
            x = orbit[k]
            corep = coreps.get(x)
            if corep is None and tested[k] < len(gens):
                corep = coreps[x] = _perm_inverse(reps[x])
            while tested[k] < len(gens):
                s, s_inv = gens[tested[k]]
                tested[k] += 1
                y = s[x]
                rep = reps.get(y)
                if rep is None:
                    self._store(lev, y, _perm_compose(s_inv, reps[x]), _perm_compose(corep, s))
                    if self.size == self.bound:
                        lev.todo = k
                        return None
                    continue
                if y == x == lev.base:
                    # the Schreier generator is s, which _insert also made
                    # a strong generator of the next level
                    continue
                # the Schreier generator coreps[x] * s * rep fixes the base
                # point; it is the identity on the orbit's tree edges
                h = _perm_compose(_perm_compose(corep, s), rep)
                if h == self.identity:
                    continue
                h, j = self.sift(h, i + 1)
                if h is not None:
                    lev.todo = k
                    return h, j
            k += 1
        lev.todo = k
        return None


# SL2(q) acting on the q**2 - 1 nonzero column vectors (x, y) of F_q**2,
# the vector (x, y) numbered x + q*y. F_9 is F_3[i] with i**2 = -1, and
# u + v*i is numbered u + 3*v. SL2_7 is generated by [[1, 1], [0, 1]] and
# [[1, 0], [1, 1]]; SL2_9 by [[1, 1], [0, 1]] and [[0, 1], [-1, 1 + i]],
# 1 + i of multiplicative order 8 (with [[1, 0], [i, 1]] in its place the
# two generate a group of order 120 only).
_SL2_7 = (
    "(7 8 9 10 11 12 13)(14 16 18 20 15 17 19)(21 24 27 23 26 22 25)"
    "(28 32 29 33 30 34 31)(35 40 38 36 41 39 37)(42 48 47 46 45 44 43)",
    "(1 8 15 22 29 36 43)(2 16 30 44 9 23 37)(3 24 45 17 38 10 31)"
    "(4 32 11 39 18 46 25)(5 40 26 12 47 33 19)(6 48 41 34 27 20 13)",
)
_SL2_9 = (
    "(9 10 11)(12 13 14)(15 16 17)(18 20 19)(21 23 22)(24 26 25)(27 30 33)"
    "(28 31 34)(29 32 35)(36 40 44)(37 41 42)(38 39 43)(45 50 52)(46 48 53)"
    "(47 49 51)(54 60 57)(55 61 58)(56 62 59)(63 70 68)(64 71 66)(65 69 67)"
    "(72 80 76)(73 78 77)(74 79 75)",
    "(1 18 74 44 13)(2 9 37 76 26)(3 54 69 52 32)(4 72 35 57 42)(5 63 25 11 46)"
    "(6 27 48 68 61)(7 45 14 19 65)(8 36 58 33 75)(10 28 39 31 12)"
    "(15 64 16 55 60)(17 73 53 50 77)(20 56 78 62 24)(21 47 23 29 30)"
    "(22 38 67 70 43)(34 66 79 80 71)(40 49 59 51 41)",
)

# the catalog beyond C1..C64, each spec built only when its name is asked for
_CATALOG_SPECS = {
    "D16": lambda: Metacyclic(8, 2, 0, 7),
    "SD16": lambda: Metacyclic(8, 2, 0, 3),
    "Q16": lambda: Metacyclic(8, 2, 4, 7),
    "S4": lambda: PermGens.from_cycles("(1 2)", "(1 2 3 4)"),
    "A4": lambda: PermGens.from_cycles("(1 2 3)", "(1 2)(3 4)"),
    "SL2_7": lambda: PermGens.from_cycles(*_SL2_7),
    "SL2_9": lambda: PermGens.from_cycles(*_SL2_9),
    "Ex3_3": lambda: Metacyclic(64, 16, 32, 7),
}

CATALOG_NAMES = tuple(f"C{n}" for n in range(1, 65)) + tuple(_CATALOG_SPECS)


def _catalog_spec(name: str) -> Metacyclic | PermGens:
    # Cn for n in 1..64 without a leading zero; the digits after the first
    # may be any that str.isdecimal and int take
    head, rest = name[1:2], name[2:]
    if name[:1] == "C" and head and head in "123456789" and (not rest or rest.isdecimal()):
        n = int(head + rest)
        if n <= 64:
            return Metacyclic(n, 1, 0, 1 % n)
    make = _CATALOG_SPECS.get(name)
    if make is None:
        raise ValueError(f"unknown catalog group: {name}")
    return make()


class GroupFacts(Frozen):
    """All the verdict reads about a group."""

    __slots__ = ("order", "abelian_invariants", "sylow2_order", "sylow2_is_q16")

    def __init__(self, order: int, abelian_invariants: tuple[int, ...], sylow2_order: int,
                 sylow2_is_q16: bool) -> None:
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "abelian_invariants", abelian_invariants)
        object.__setattr__(self, "sylow2_order", sylow2_order)
        object.__setattr__(self, "sylow2_is_q16", sylow2_is_q16)


def _metacyclic_facts(m: Metacyclic) -> GroupFacts:
    """The facts of a metacyclic group from its parameters alone.

    The abelianization is Z^2 modulo the exponent sums of the relators,
    the rows [a, 0], [-c, b] and [r - 1, 0]. The first and last span the
    same lattice as [h, 0] for h = gcd(a, r - 1), so the determinantal
    divisors are d = gcd(h, c, b), of the entries, and h*b, of the one
    2 x 2 minor: the invariant factors are h*b/d and d.

    Only when the 2-part of the order is 16 can a 2-Sylow subgroup P be
    Q16, and then the answer too is read off the parameters. Write a_2 and
    b_2 for the 2-parts of a and b, o for the odd part of a/gcd(a, c), the
    order of t**b = s**c, and k = (b/b_2)*o. Then u = t**k has 2-power
    order and its image generates the 2-part of G/<s> = C_b, so u and
    s' = s**(a/a_2) generate P: <s'>, the 2-Sylow subgroup of the normal
    <s>, is cyclic and normal of order a_2, and P/<s'> is cyclic of order
    b_2. The only normal cyclic subgroup of Q16 with a cyclic quotient is
    its C8, so P is Q16 only if a_2 = 8 and b_2 = 2, and then iff u, which
    lies outside <s'>, inverts s' and u**2 = s'**4: iff r**k = -1 (mod 8)
    and, as u**2 = t**(b*o) = s**(c*o), c*o = a/2 (mod a).
    """
    a, b, c, r = m.a, m.b, m.c, m.r
    order = a * b
    h = gcd(a, r - 1)
    d = gcd(h, c, b)
    invariants = tuple(n for n in (h * b // d, d) if n > 1)
    two_part = order & -order
    q16 = False
    if two_part == 16 and a & -a == 8:  # and so b_2 = 2
        o = a // gcd(a, c)
        o //= o & -o
        q16 = pow(r, b // 2 * o, 8) == 7 and c * o % a == a // 2
    return GroupFacts(order, invariants, two_part, q16)


def _moved_orbits(pg: PermGens) -> list[list[int]]:
    """The orbits of more than one point, each in discovery order."""
    seen = bytearray(pg.degree)
    moved = []
    for start in range(pg.degree):
        orbit = [] if seen[start] else [start]
        seen[start] = 1
        for x in orbit:  # grows while it is read
            for g in pg.generators:
                if not seen[g[x]]:
                    seen[g[x]] = 1
                    orbit.append(g[x])
        if len(orbit) > 1:
            moved.append(orbit)
    return moved


def _abelian_index(pg: PermGens) -> int:
    """A divisor of |G/G'| read off the orbits of G. G' lies in the kernel
    of every homomorphism from G to an abelian group, so |G/G'| is a
    multiple of the order of its image, and two such images are cheap:
    - g -> (sign of g on each orbit), whose image has 2**r elements for the
      rank r over F_2 of the generators' images; each image is a bitmask,
      one bit per orbit, reduced against a basis of those before it kept
      by leading bit, XOR-ing only while its leading bit hits one;
    - the action on an orbit whose image is abelian, which, being
      transitive, is then regular, with as many elements as the orbit."""
    moved = _moved_orbits(pg)
    where = [0] * pg.degree
    for k, orbit in enumerate(moved):
        for x in orbit:
            where[x] = k
    acting: list[list[tuple[int, ...]]] = [[] for _ in moved]
    basis: dict[int, int] = {}  # leading bit -> the basis vector it leads
    points = range(pg.degree)
    for g in pg.generators:
        v = 0
        seen = set()
        for i in compress(points, map(ne, g, points)):
            if i in seen:
                continue
            seen.add(i)
            j, odd = g[i], False
            while j != i:  # a cycle of length n is n - 1 transpositions
                seen.add(j)
                j, odd = g[j], not odd
            if odd:
                v ^= 1 << where[i]
        for k in {where[i] for i in seen}:
            acting[k].append(g)
        while v:
            top = v.bit_length()
            b = basis.get(top)
            if b is None:
                basis[top] = v
                break
            v ^= b
    out = 1 << len(basis)
    for orbit, gens in zip(moved, acting):
        if all(g[h[x]] == h[g[x]] for i, g in enumerate(gens) for h in gens[:i] for x in orbit):
            out = lcm(out, len(orbit))
    return out


def _derived_subgroup(pg: PermGens, order: int) -> _StabilizerChain:
    """A chain for G', the normal closure of the commutators of the
    generators: a subgroup whose generators' conjugates by the generators
    of G all lie in it is normal.

    The chain is grown from the commutators and their conjugates by orbit
    extension alone, membership tested on the partial chain. Its orbit
    product is at most |G'|, and given the order of G, |G'| is at most
    |G| over the part of |G/G'| that _abelian_index reads off the orbits,
    so reaching that bound proves the chain complete: G' = G for a perfect
    group, G' the even part of S_n, and no Schreier generator sifted.
    Short of the bound, the grown chain holds a strong generator for every
    element it took, most of them redundant, and one completion would pair
    each with every orbit point; the chain is built instead by adding the
    taken elements one at a time, each completed, so that exact membership
    drops the redundant ones."""
    gens = pg.generators
    invs = [_perm_inverse(g) for g in gens]
    bound = order // _abelian_index(pg) if order else 0
    N = _StabilizerChain(pg.degree, bound)
    taken = N.grow(
        (
            reduce(_perm_compose, (invs[i], invs[j], gens[i], gens[j]))
            for i in range(len(gens))
            for j in range(i + 1, len(gens))
        ),
        list(zip(gens, invs)),
    )
    if N.size == bound:
        return N
    N = _StabilizerChain(pg.degree, bound)
    for y in taken:
        N.add(y)
    return N


def _chain_invariants(
    gens: tuple[tuple[int, ...], ...], order: int, primes: list[int], derived: _StabilizerChain
) -> tuple[int, ...]:
    """Invariant factors of G/G', descending and without 1s, from the order
    of G, the primes that may divide it and a chain for G'. For each prime
    p of |G/G'|, the subgroups G'<g**(p**k)> for the generators g have
    index |A/p**k A| in G, with A = G/G' written additively; the growth of
    that index with k counts the invariant factors divisible by each power
    of p."""
    index, rest = divmod(order, derived.order())
    if rest:
        raise AssertionError("the order of G' divides the order of G")
    counts: dict[int, list[int]] = {}  # p -> [#factors divisible by p**k for k = 1, 2, ...]
    for p in primes:
        if index % p:
            continue
        p_part, e = 1, 0
        while index % (p_part * p) == 0:
            p_part, e = p_part * p, e + 1
        pows = list(gens)
        seen = 1
        counts[p] = []
        # no invariant factor has a p-part above p_part, so the quotient
        # reaches it within e steps
        for _ in range(e):
            if seen == p_part:
                break
            pows = [g for g in (_perm_power(g, p) for g in pows) if not derived.contains(g)]
            K = derived.copy(order)
            for g in pows:
                K.add(g)
            quotient = order // K.order()
            # quotient / seen = p**step, step = #factors divisible by p**k
            step, r = 0, quotient // seen
            while r > 1:
                r //= p
                step += 1
            counts[p].append(step)
            seen = quotient
    factors = []
    for t in range(max((c[0] for c in counts.values()), default=0)):
        n = 1
        for p, c in counts.items():
            n *= p ** sum(1 for r in c if r > t)
        factors.append(n)
    return tuple(factors)


def _sylow2_image(pg: PermGens, G: _StabilizerChain) -> _StabilizerChain | None:
    """The chain of _perm_facts' orbit rule for a group G of 2-part 16: G
    itself when it moves the points of one orbit only, of 16 or more, else
    its image on the first such orbit that keeps that 2-part, or None."""
    moved = _moved_orbits(pg)
    if len(moved) == 1 and len(moved[0]) >= 16:
        return G
    for orbit in (o for o in moved if len(o) >= 16):
        where = {x: i for i, x in enumerate(orbit)}
        H = _StabilizerChain(len(orbit), G.order())
        for g in pg.generators:
            H.add(tuple(where[g[x]] for x in orbit))
        if H.order() & -H.order() == 16:
            return H
    return None


def _q16_search(H: _StabilizerChain) -> bool:
    """Is a 2-Sylow subgroup of the group of the complete chain H Q16,
    given that the 2-part of its order is 16? H is the image of a
    permutation group that the orbit rule of _perm_facts picks.

    It is iff, for any one element a of order 8, some b has b**2 = a**4 and
    b*a*b**-1 = a**-1. Every cyclic subgroup of order 8 lies in a Sylow
    subgroup, and Q16 has exactly one, so in a Q16 the pair exists for
    every such a. Conversely such a pair generates a Q16, of order 16, so a
    Sylow subgroup. The first walk finds a; the second, which keeps every
    square root of a**4, looks for b. b**2 = a**4 gives b order 4 and
    b**-1 = b*a**4, and no b in <a> conjugates a to a**-1, which has order
    8."""
    identity = H.identity
    for a in H.walk():
        a2 = _perm_compose(a, a)
        a4 = _perm_compose(a2, a2)
        if a4 != identity and _perm_compose(a4, a4) == identity:
            break
    else:
        return False
    a_inv = _perm_compose(_perm_compose(a4, a2), a)
    for b in H.walk(a4):
        if _perm_compose(b, b) == a4 and (
            _perm_compose(_perm_compose(b, a), _perm_compose(b, a4)) == a_inv
        ):
            return True
    return False


def _perm_facts(pg: PermGens) -> GroupFacts:
    """The facts of a permutation group from a stabilizer chain, with no
    element of G listed.

    One generator of order m generates C_m, which _metacyclic_facts answers
    without the chain's O(degree**2) work on a long cycle. Otherwise the
    order is that of the chain and the invariants come from G' and the
    p-power quotients of G/G'. When the 2-part of |G| is 16 and |G| is
    within CLOSURE_CAP, the Q16 test walks the image of G on one orbit.

    The orbit is the first of 16 or more points on which the image keeps
    the 2-part 16, and if none does, no 2-Sylow subgroup P is Q16: every
    nontrivial subgroup of Q16 contains its centre Z, so a Q16 meets the
    kernel on the orbit of a point x that Z moves trivially, and P_x = 1
    gives that orbit 16 points or more. On any orbit where the image keeps
    the 2-part 16 the kernel has odd order, so P maps isomorphically onto a
    2-Sylow subgroup of the image."""
    gens = pg.generators
    if len(gens) == 1:
        m = _perm_order(gens[0])
        return _metacyclic_facts(Metacyclic(m, 1, 0, 1 % m))
    G = _StabilizerChain(pg.degree)
    for g in gens:
        G.add(g)
    order = G.order()
    two_part = order & -order
    if two_part == 16 and order > CLOSURE_CAP:
        raise ValueError(
            f"the 2-Sylow test of a group of order {order} needs its closure, "
            f"above closure cap {CLOSURE_CAP}"
        )
    H = _sylow2_image(pg, G) if two_part == 16 else None
    q16 = H is not None and _q16_search(H)
    # the primes of |G| are those of its orbit lengths, all at most degree
    primes = sorted({p for lev in G.levels for p in factorize(len(lev.orbit))})
    del G
    invariants = _chain_invariants(gens, order, primes, _derived_subgroup(pg, order))
    return GroupFacts(order, invariants, two_part, q16)


@lru_cache(maxsize=None)
def _catalog_facts(name: str) -> GroupFacts:
    return group_facts(_catalog_spec(name))


def group_facts(spec: GroupSpec) -> GroupFacts:
    """The facts the verdict needs: from the presentation for metacyclic
    specs, memoized per name for catalog specs, and from a stabilizer
    chain for permutation specs."""
    if isinstance(spec, Metacyclic):
        return _metacyclic_facts(spec)
    if isinstance(spec, Catalog):
        return _catalog_facts(spec.name)
    return _perm_facts(spec)


def abelian_invariants(G) -> tuple[int, ...]:
    """Invariant factors (n_1, n_2, ...) of G/[G, G], descending, each
    dividing the previous: those group_facts gives for the spec the table G
    was built from. A table not built from a spec, such as a quotient, has
    none."""
    if G.spec is None:
        raise ValueError(f"{G.label} was not built from a group spec; it carries no invariants")
    return group_facts(G.spec).abelian_invariants


# the reference names the acceptance tests and the benchmark still read
# here, served from oracles, which is imported on first use
_FROM_ORACLES = frozenset({"Subgroup", "catalog_group", "two_sylow", "is_generalized_quaternion16"})


def __getattr__(name: str):
    if name in _FROM_ORACLES:
        from . import oracles

        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
