"""Finite groups from generators: the facts the verdict reads, closure,
abelian invariants, 2-Sylow subgroups, and the recognizers used by the
obstruction tests.

The verdict reads one GroupFacts record per spec: the order, the abelian
invariants, the 2-part of the order and whether the 2-Sylow subgroup is
Q16. A metacyclic presentation gives them from its parameters without
enumerating the group: the invariants are (h*b/d, d) without 1s, for
h = gcd(a, r - 1) and d = gcd(h, c, b), and only when the 2-part is 16 are
the 16 elements of a 2-Sylow subgroup, known in closed form, listed and
tested. A permutation spec with one generator is the cyclic presentation
of the lcm of its cycle lengths. Any other permutation spec is answered
from a deterministic Schreier-Sims stabilizer chain: the order is the
product of its orbit lengths, and the invariants come from a chain for the
derived subgroup G' and the indices of G'<g**(p**k)> along the p-power
series of G/G'. Only when the 2-part of |G| is 16, and |G| is within
CLOSURE_CAP, are the elements of G walked, one product of coset
representatives at a time, for the Q16 test. Every catalog group is one
of these two kinds of spec.

A table is built by breadth-first closure of a generating set under an
associative compose function and then handled purely as integer indices,
with 0 the identity. Nothing quadratic in the order is ever stored: a
product composes the two raw elements and looks the result up. A table
built from a spec carries the abelian invariants group_facts gives for
that spec, so there is one source for them. The tables, with their 2-Sylow
search, are what the tests compare the facts against; the verdict builds
none.
"""

from __future__ import annotations

import re
from functools import lru_cache, reduce
from math import gcd, lcm
from operator import itemgetter

from .exact import FACTORIZATION_CAP, Frozen, factorize

# Hard ceilings so a typo in a generating set fails fast instead of eating
# memory: every closure (permutation or metacyclic table) stops at 10**6
# elements, the Q16 test walks the elements of a permutation group only up
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
    cycles are dropped but still raise the degree; '()' is the identity."""
    if not re.fullmatch(r"(\s*\([^()]*\))+\s*", s):
        raise ValueError(f"bad cycle notation: {s!r}")
    cycles: list[list[int]] = []
    maxpt = 0
    for body in re.findall(r"\(([^()]*)\)", s):
        pts = [int(t) for t in re.split(r"[,\s]+", body.strip()) if t]
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


def _cycle_perm(cycle: list[int], degree: int) -> tuple[int, ...]:
    img = list(range(degree))
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        img[a - 1] = b - 1
    return tuple(img)


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
        identity = tuple(range(degree))
        gens = tuple(
            reduce(_perm_compose, (_cycle_perm(c, degree) for c in cycles), identity)
            for cycles, _ in parsed
        )
        return cls(degree, gens)


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
    """A finite group as indices 0..order-1 with 0 the identity. Products
    compose the raw elements on demand; nothing quadratic in the order is
    stored."""

    identity = 0

    def __init__(self, elems, index, compose, raw_gens, label):
        self.order = len(elems)
        self.label = label
        # set by build_group and catalog_group from group_facts of the spec
        self.abelian_invariants: tuple[int, ...] | None = None
        self._elems = elems
        self._index = index
        self._compose = compose
        self.generator_indices = tuple(index[g] for g in raw_gens)
        self._inv_cache: dict[int, int] = {}

    @classmethod
    def from_generators(cls, identity, gens, compose, cap, label):
        elems, index = _enumerate(identity, list(gens), compose, cap)
        return cls(elems, index, compose, list(gens), label)

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
        gens = sorted(set(seed) - {0})
        members = {0}
        frontier = [0]
        while frontier:
            new = []
            for x in frontier:
                for g in gens:
                    y = self.mult(x, g)
                    if y not in members:
                        members.add(y)
                        new.append(y)
            frontier = new
        return frozenset(members)


class Subgroup(Frozen):
    """A validated subgroup, stored as a frozenset of parent indices."""

    __slots__ = ("group", "members")

    def __init__(self, group: FiniteGroupTable, members: frozenset[int]) -> None:
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "members", members)
        self.__post_init__()

    def __post_init__(self) -> None:
        # the O(|H|**2) closure check, by this name for bench/tracer.py
        G, H = self.group, self.members
        if 0 not in H:
            raise ValueError("subgroups contain the identity")
        if G.order % len(H) != 0:
            raise ValueError("subgroup order does not divide the group order")
        if len(H) == G.order:
            return
        for x in H:
            if G.inv(x) not in H:
                raise ValueError(f"not closed under inversion at {x}")
            for y in H:
                if G.mult(x, y) not in H:
                    raise ValueError(f"not closed under multiplication at ({x}, {y})")

    @property
    def order(self) -> int:
        return len(self.members)


def abelian_invariants(G: FiniteGroupTable) -> tuple[int, ...]:
    """Invariant factors (n_1, n_2, ...) of G/[G, G], descending, each
    dividing the previous: those group_facts gives for the spec G was built
    from. A table not built from a spec, such as a quotient, has none."""
    if G.abelian_invariants is None:
        raise ValueError(f"{G.label} was not built from a group spec; it carries no invariants")
    return G.abelian_invariants


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


def _q16_search(elements, mult, identity) -> bool:
    """Is a 2-Sylow subgroup of the group Q16, given that the 2-part of its
    order is 16? elements lists the group and restarts on each iteration,
    and mult composes two of them.

    It is iff, for any one element a of order 8, some b has b**2 = a**4 and
    b*a*b**-1 = a**-1. Every cyclic subgroup of order 8 lies in a Sylow
    subgroup, and Q16 has exactly one, so in a Q16 the pair exists for
    every such a. Conversely such a pair generates a Q16, of order 16, so a
    Sylow subgroup. The first pass finds a, the second looks for b; b**2 =
    a**4 gives b order 4 and b**-1 = b*a**4, and no b in <a> conjugates a
    to a**-1, which has order 8."""
    for a in elements:
        a2 = mult(a, a)
        a4 = mult(a2, a2)
        if a4 != identity and mult(a4, a4) == identity:
            break
    else:
        return False
    a_inv = mult(mult(a4, a2), a)
    for b in elements:
        if mult(b, b) == a4 and mult(mult(b, a), mult(b, a4)) == a_inv:
            return True
    return False


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


def _build_table(spec: Metacyclic | PermGens, label: str | None = None) -> FiniteGroupTable:
    """The closure table of a metacyclic or permutation spec."""
    if isinstance(spec, PermGens):
        identity = tuple(range(spec.degree))
        label = label or f"perm(degree {spec.degree})"
        return FiniteGroupTable.from_generators(
            identity, spec.generators, _perm_compose, CLOSURE_CAP, label
        )
    a, b, c, r = spec.a, spec.b, spec.c, spec.r
    if a * b > CLOSURE_CAP:
        raise ValueError(f"a table of order {a * b} exceeds closure cap {CLOSURE_CAP}")
    gens = [(1 % a, 0), (0, 1 % b)]
    label = label or f"metacyclic(a={a},b={b},c={c},r={r})"
    t = FiniteGroupTable.from_generators((0, 0), gens, _metacyclic_compose(spec), a * b, label)
    assert t.order == a * b
    return t


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
    point and its inverse coreps[x]. The Schreier generators pairing
    orbit[i] with gens[:tested[i]] have been sifted; every orbit point
    before `todo` has been paired with every generator."""

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
    Permutation Group Algorithms, ch. 4). Every Schreier generator of
    every level is sifted through the levels below it, and a nontrivial
    residue becomes a strong generator. Then the order of the group is the
    product of the orbit lengths. Each orbit point stores two image
    tuples, its coset representative and that one's inverse, so the chain
    holds at most 2|G| permutations; their point images are counted as they
    are stored and refused past CHAIN_CAP."""

    def __init__(self, degree: int) -> None:
        self.identity = tuple(range(degree))
        self.levels: list[_Level] = []
        self.images = 0

    def copy(self) -> _StabilizerChain:
        new = _StabilizerChain(len(self.identity))
        new.levels = [lev.copy() for lev in self.levels]
        new.images = self.images
        return new

    def order(self) -> int:
        out = 1
        for lev in self.levels:
            out *= len(lev.orbit)
        return out

    def __iter__(self):
        """Every element of the group once, by one composition each: g is
        the product c_n * ... * c_1 * c_0 of one coset representative c_i
        per level i, which sends the base point of level i to a point of its
        orbit, and c_0 varies fastest. Only the partial products on
        the current path are kept."""
        levels = self.levels

        def walk(i: int, prefix: tuple[int, ...]):
            coreps = levels[i].coreps
            for x in levels[i].orbit:
                g = _perm_compose(prefix, coreps[x])
                if i:
                    yield from walk(i - 1, g)
                else:
                    yield g

        if levels:
            yield from walk(len(levels) - 1, self.identity)
        else:
            yield self.identity

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
        """Extend the group by g. Returns False, changing nothing, if g is
        already a member."""
        residue, j = self.sift(g)
        if residue is None:
            return False
        self._insert(residue, 0, j)
        self._complete(j)
        return True

    def _store(self, lev: _Level, point: int, rep: tuple[int, ...], corep: tuple[int, ...]) -> None:
        degree = len(self.identity)
        if self.images + 2 * degree > CHAIN_CAP:
            raise ValueError(
                f"a stabilizer chain of degree {degree} needs more than "
                f"chain cap {CHAIN_CAP} stored point images"
            )
        self.images += 2 * degree
        lev.orbit.append(point)
        lev.reps[point] = rep
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
        while i >= 0:
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
            while tested[k] < len(gens):
                s, s_inv = gens[tested[k]]
                tested[k] += 1
                y = s[x]
                rep = reps.get(y)
                if rep is None:
                    self._store(lev, y, _perm_compose(s_inv, reps[x]), _perm_compose(coreps[x], s))
                    continue
                if y == x == lev.base:
                    # the Schreier generator is s, which _insert also made
                    # a strong generator of the next level
                    continue
                # the Schreier generator coreps[x] * s * rep fixes the base
                # point; it is the identity on the orbit's tree edges
                h = _perm_compose(_perm_compose(coreps[x], s), rep)
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
    m = re.fullmatch(r"C([1-9]\d*)", name)
    if m and int(m.group(1)) <= 64:
        n = int(m.group(1))
        return Metacyclic(n, 1, 0, 1 % n)
    make = _CATALOG_SPECS.get(name)
    if make is None:
        raise ValueError(f"unknown catalog group: {name}")
    return make()


@lru_cache(maxsize=None)
def catalog_group(name: str) -> FiniteGroupTable:
    """The table of a catalog group. Its invariants come from the memoized
    facts of Catalog(name), which building it fills for the verdict."""
    G = _build_table(_catalog_spec(name), name)
    G.abelian_invariants = group_facts(Catalog(name)).abelian_invariants
    return G


def build_group(spec: GroupSpec) -> FiniteGroupTable:
    """Realize a group spec as a multiplication table, carrying the abelian
    invariants group_facts gives for the spec."""
    if isinstance(spec, Catalog):
        return catalog_group(spec.name)
    if not isinstance(spec, (Metacyclic, PermGens)):
        raise TypeError(f"not a group spec: {spec!r}")
    G = _build_table(spec)
    G.abelian_invariants = group_facts(spec).abelian_invariants
    return G


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

    A 2-Sylow subgroup P is the product of <s'>, for s' = s**(a/a_2), the
    2-Sylow subgroup of the normal subgroup <s>, and <u>, for u = t'**o'.
    Here t' = t**(b/b_2) has order b_2 * a/gcd(a, c), since its b_2-th
    power is t**b = s**c, and o' is the odd part of that order; the image
    of u then generates the 2-part of G/<s> = C_b, so u**j for j < b_2 lie
    in distinct cosets of <s>. Those 16 elements s'**i u**j are listed only
    when the 2-part of the order is 16.
    """
    a, b, c, r = m.a, m.b, m.c, m.r
    order = a * b
    h = gcd(a, r - 1)
    d = gcd(h, c, b)
    invariants = tuple(n for n in (h * b // d, d) if n > 1)
    two_part = order & -order
    q16 = False
    if two_part == 16:
        a2, b2 = a & -a, b & -b
        t_order = b2 * (a // gcd(a, c))
        # u = t**k for k = (b/b_2) * o', and t**k = (s**c)**(k // b)
        # t**(k % b) because s**c is central
        k = b // b2 * (t_order // (t_order & -t_order))
        u = (c * (k // b) % a, k % b)
        mult = _metacyclic_compose(m)
        u_powers = [(0, 0)]
        for _ in range(b2 - 1):
            u_powers.append(mult(u_powers[-1], u))
        sylow = [mult((i * (a // a2), 0), y) for i in range(a2) for y in u_powers]
        assert len(set(sylow)) == 16
        q16 = _q16_search(sylow, mult, (0, 0))
    return GroupFacts(order, invariants, two_part, q16)


def _derived_subgroup(pg: PermGens) -> _StabilizerChain:
    """A chain for G', the normal closure of the commutators of the
    generators: a subgroup whose generators' conjugates by the generators
    of G all lie in it is normal, and membership is decided by sifting."""
    gens = pg.generators
    invs = [_perm_inverse(g) for g in gens]
    N = _StabilizerChain(pg.degree)
    queue = []
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            c = reduce(_perm_compose, (invs[i], invs[j], gens[i], gens[j]))
            if N.add(c):
                queue.append(c)
    for x in queue:  # grows while it is read
        for g, g_inv in zip(gens, invs):
            y = _perm_compose(_perm_compose(g_inv, x), g)
            if N.add(y):
                queue.append(y)
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
            K = derived.copy()
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


def _perm_facts(pg: PermGens) -> GroupFacts:
    """The facts of a permutation group from a stabilizer chain, with no
    element of G listed.

    One generator of order m generates C_m, which _metacyclic_facts answers
    without the chain's O(degree**2) work on a long cycle. Otherwise the
    order is that of the chain and the invariants come from G' and the
    p-power quotients of G/G'. When the 2-part of |G| is 16 the Q16 test
    walks the chain's products of coset representatives, within
    CLOSURE_CAP elements, keeping none of them."""
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
    q16 = two_part == 16 and _q16_search(G, _perm_compose, G.identity)
    # the primes of |G| are those of its orbit lengths, all at most degree
    primes = sorted({p for lev in G.levels for p in factorize(len(lev.orbit))})
    del G
    invariants = _chain_invariants(gens, order, primes, _derived_subgroup(pg))
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
