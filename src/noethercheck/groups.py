"""Finite groups from generators: the facts the verdict reads, closure,
abelian invariants, 2-Sylow subgroups, and the recognizers used by the
obstruction tests.

The verdict reads one GroupFacts record per spec: the order, the abelian
invariants, the 2-part of the order and whether the 2-Sylow subgroup is
Q16. A metacyclic presentation gives them from its parameters without
enumerating the group: the invariants are the Smith normal form of its
relators, and only when the 2-part is 16 are the 16 elements of a 2-Sylow
subgroup, whose generators are known in closed form, closed and tested.
Permutation specs and the catalog's other groups go through a closure
table, which for metacyclic specs is the oracle the tests compare against.

A table is built by breadth-first closure of a generating set under an
associative compose function and then handled purely as integer indices,
with 0 the identity. Nothing quadratic in the order is ever stored: a
product composes the two raw elements and looks the result up. The closure
also yields the abelian invariants, since every edge it finds off its
spanning tree is a relator of the group (Reidemeister-Schreier for the
trivial subgroup); their exponent sums span the relation lattice of the
abelianization, whose Smith normal form gives the invariant factors. The
2-Sylow subgroup is searched for only by callers that need it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache, reduce
from math import gcd
from operator import add, sub
from typing import NamedTuple

from .exact import FACTORIZATION_CAP, factorize

# Hard ceilings so a typo in a generating set fails fast instead of eating
# memory: every closure (permutation, matrix, or a metacyclic table) stops
# at 10**6 elements. A metacyclic presentation is answered without
# enumeration, so its cap only bounds the size of the input: a*b up to the
# factorization cap.
CLOSURE_CAP = 10**6
METACYCLIC_CAP = FACTORIZATION_CAP


def _perm_compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Apply p, then q."""
    return tuple(map(q.__getitem__, p))


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


@dataclass(frozen=True)
class PermGens:
    """Permutation group given by generators as image tuples on 0..degree-1."""

    degree: int
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("degree must be at least 1")
        if not self.generators:
            raise ValueError("at least one generator is required")
        for g in self.generators:
            if sorted(g) != list(range(self.degree)):
                raise ValueError(f"not a permutation of 0..{self.degree - 1}: {g}")

    @classmethod
    def from_cycles(cls, *specs: str) -> PermGens:
        """Build from cycle notation, one string per generator, points
        1-based: PermGens.from_cycles("(1 2)", "(1 2 3 4)")."""
        if not specs:
            raise ValueError("at least one generator is required")
        parsed = [_parse_cycle_string(s) for s in specs]
        degree = max(1, max(maxpt for _, maxpt in parsed))
        identity = tuple(range(degree))
        gens = tuple(
            reduce(_perm_compose, (_cycle_perm(c, degree) for c in cycles), identity)
            for cycles, _ in parsed
        )
        return cls(degree, gens)


@dataclass(frozen=True)
class Metacyclic:
    """<s, t | s**a = 1, t**b = s**c, t*s*t**-1 = s**r>.

    The consistency conditions r**b = 1 and c*(r - 1) = 0 (mod a) make the
    set {s**i t**j} of size a*b a group; construction rejects anything else.
    """

    a: int
    b: int
    c: int
    r: int

    def __post_init__(self) -> None:
        a, b, c, r = self.a, self.b, self.c, self.r
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


@dataclass(frozen=True)
class Catalog:
    """A named group from the built-in catalog."""

    name: str


GroupSpec = PermGens | Metacyclic | Catalog


def _add_relator(rows: list, v: list[int]) -> None:
    """Add v to the lattice spanned by rows, kept in echelon form: rows[j]
    is None or has its first nonzero entry, positive, at column j."""
    for j in range(len(rows)):
        if not v[j]:
            continue
        row = rows[j]
        if row is None:
            rows[j] = v if v[j] > 0 else [-x for x in v]
            return
        # Euclid's algorithm on column j by unimodular row operations: row
        # ends with the gcd of the two entries, v with 0
        while v[j]:
            q = row[j] // v[j]
            row, v = v, [x - q * y for x, y in zip(row, v)]
        rows[j] = row if row[j] > 0 else [-x for x in row]


def _smith_invariants(m: list[list[int]]) -> tuple[int, ...]:
    """Invariant factors of Z^n / (row span of the nonsingular n x n integer
    matrix m), descending and without 1s: the diagonal of its Smith normal
    form, by unimodular row and column operations."""
    m = [list(row) for row in m]
    n = len(m)
    diag = []
    for t in range(n):
        while True:
            _, i, j = min(
                (abs(m[i][j]), i, j) for i in range(t, n) for j in range(t, n) if m[i][j]
            )
            m[t], m[i] = m[i], m[t]
            for row in m:
                row[t], row[j] = row[j], row[t]
            p = m[t][t]
            for i in range(t + 1, n):
                if q := m[i][t] // p:
                    m[i] = [x - q * y for x, y in zip(m[i], m[t])]
            for j in range(t + 1, n):
                if q := m[t][j] // p:
                    for row in m:
                        row[j] -= q * row[t]
            if any(m[i][t] for i in range(t + 1, n)) or any(m[t][j] for j in range(t + 1, n)):
                continue  # a remainder below |p| is left and becomes the pivot
            # p must divide the rest of the block; else fold in a row that
            # it does not divide and pivot again on the smaller remainder
            bad = next(
                (i for i in range(t + 1, n) if any(m[i][j] % p for j in range(t + 1, n))),
                None,
            )
            if bad is None:
                break
            m[t] = [x + y for x, y in zip(m[t], m[bad])]
        diag.append(abs(m[t][t]))
    return tuple(d for d in reversed(diag) if d != 1)


def _enumerate(identity, gens, compose, cap):
    """BFS closure of the generators, with the abelian invariants of the
    group read off the closure's own edges (Reidemeister-Schreier for the
    trivial subgroup).

    Each element x carries the exponent vector ev(x) in Z^r of its word
    along the BFS tree, r = len(gens). Every edge x*g = y off the tree is a
    relator of the group, with image ev(x) + e_g - ev(y) in Z^r, and these
    images span the lattice L with G/[G, G] = Z^r / L. Returns (elements in
    discovery order, index dict, invariant factors of Z^r / L).
    """
    r = len(gens)
    elems = [identity]
    index = {identity: 0}
    evs = [(0,) * r]
    units = [tuple(int(i == k) for i in range(r)) for k in range(r)]
    rows: list[list[int] | None] = [None] * r
    seen: set[tuple[int, ...]] = set()
    frontier = [0]
    while frontier:
        new = []
        for xi in frontier:
            x, xv = elems[xi], evs[xi]
            for gi, g in enumerate(gens):
                y = compose(x, g)
                yv = tuple(map(add, xv, units[gi]))
                yi = index.get(y)
                if yi is None:
                    if len(elems) >= cap:
                        raise ValueError(f"closure exceeded cap {cap}")
                    index[y] = len(elems)
                    new.append(len(elems))
                    elems.append(y)
                    evs.append(yv)
                elif yv != evs[yi]:
                    # the same relator recurs along many edges
                    rel = tuple(map(sub, yv, evs[yi]))
                    if rel not in seen:
                        seen.add(rel)
                        _add_relator(rows, list(rel))
        frontier = new
    if any(row is None for row in rows):
        raise AssertionError("the relation lattice of a finite group has full rank")
    return elems, index, _smith_invariants(rows)


class FiniteGroupTable:
    """A finite group as indices 0..order-1 with 0 the identity. Products
    compose the raw elements on demand; nothing quadratic in the order is
    stored."""

    identity = 0

    def __init__(self, elems, index, invariants, compose, raw_gens, label):
        self.order = len(elems)
        self.label = label
        self.abelian_invariants: tuple[int, ...] = invariants
        self._elems = elems
        self._index = index
        self._compose = compose
        self.generator_indices = tuple(index[g] for g in raw_gens)
        self._inv_cache: dict[int, int] = {}

    @classmethod
    def from_generators(cls, identity, gens, compose, cap, label):
        elems, index, invariants = _enumerate(identity, list(gens), compose, cap)
        return cls(elems, index, invariants, compose, list(gens), label)

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


@dataclass(frozen=True)
class Subgroup:
    """A validated subgroup, stored as a frozenset of parent indices."""

    group: FiniteGroupTable
    members: frozenset[int]

    def __post_init__(self) -> None:
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
    dividing the previous; computed when G was enumerated."""
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
    b*a*b**-1 = a**-1>?"""
    if H.order != 16:
        return False
    G = H.group
    for a in sorted(H.members):
        if G.element_order(a) != 8:
            continue
        pw = [0]
        for _ in range(7):
            pw.append(G.mult(pw[-1], a))
        cyc = set(pw)
        for b in sorted(H.members - cyc):
            if G.mult(b, b) == pw[4] and G.mult(G.mult(b, a), G.inv(b)) == pw[7]:
                return True
    return False


def sylow2_is_q16(G: FiniteGroupTable) -> bool:
    """Is the 2-Sylow subgroup of G the generalized quaternion group of
    order 16? That needs the 2-part of |G| to be 16, so no Sylow subgroup
    is searched for otherwise."""
    return G.sylow2_order == 16 and is_generalized_quaternion16(two_sylow(G))


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


def _build_metacyclic(m: Metacyclic, label: str | None = None) -> FiniteGroupTable:
    a, b, c, r = m.a, m.b, m.c, m.r
    if a * b > CLOSURE_CAP:
        raise ValueError(f"a table of order {a * b} exceeds closure cap {CLOSURE_CAP}")
    gens = [(1 % a, 0), (0, 1 % b)]
    if label is None:
        label = f"metacyclic(a={a},b={b},c={c},r={r})"
    t = FiniteGroupTable.from_generators((0, 0), gens, _metacyclic_compose(m), a * b, label)
    assert t.order == a * b
    return t


def _build_perm(pg: PermGens, label: str | None = None) -> FiniteGroupTable:
    identity = tuple(range(pg.degree))
    if label is None:
        label = f"perm(degree {pg.degree})"
    return FiniteGroupTable.from_generators(
        identity, list(pg.generators), _perm_compose, CLOSURE_CAP, label
    )


def _sl2_7_table() -> FiniteGroupTable:
    p = 7

    def mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return (
            (a * e + b * g) % p,
            (a * f + b * h) % p,
            (c * e + d * g) % p,
            (c * f + d * h) % p,
        )

    t = FiniteGroupTable.from_generators(
        (1, 0, 0, 1), [(1, 1, 0, 1), (1, 0, 1, 1)], mul, CLOSURE_CAP, "SL2_7"
    )
    assert t.order == 336  # 7 * (49 - 1)
    return t


def _f9_add(x: int, y: int) -> int:
    return (x + y) % 3 + 3 * ((x // 3 + y // 3) % 3)


def _f9_mul(x: int, y: int) -> int:
    # elements u + v*t of F_9 = F_3[t]/(t**2 + 1) coded as u + 3*v, t**2 = 2
    u1, v1 = x % 3, x // 3
    u2, v2 = y % 3, y // 3
    return (u1 * u2 + 2 * v1 * v2) % 3 + 3 * ((u1 * v2 + v1 * u2) % 3)


def _sl2_9_table() -> FiniteGroupTable:
    def mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return (
            _f9_add(_f9_mul(a, e), _f9_mul(b, g)),
            _f9_add(_f9_mul(a, f), _f9_mul(b, h)),
            _f9_add(_f9_mul(c, e), _f9_mul(d, g)),
            _f9_add(_f9_mul(c, f), _f9_mul(d, h)),
        )

    # E12(1) and E21(1) only generate a copy of SL2(F_3); E12(t) is needed
    # to reach the full group
    gens = [(1, 1, 0, 1), (1, 0, 1, 1), (1, 3, 0, 1)]
    t = FiniteGroupTable.from_generators((1, 0, 0, 1), gens, mul, CLOSURE_CAP, "SL2_9")
    assert t.order == 720  # 9 * (81 - 1)
    return t


def _catalog_spec(name: str) -> GroupSpec | None:
    m = re.fullmatch(r"C([1-9]\d*)", name)
    if m and 1 <= int(m.group(1)) <= 64:
        n = int(m.group(1))
        return Metacyclic(n, 1, 0, 1 % n)
    return {
        "D16": Metacyclic(8, 2, 0, 7),
        "SD16": Metacyclic(8, 2, 0, 3),
        "Q16": Metacyclic(8, 2, 4, 7),
        "S4": PermGens.from_cycles("(1 2)", "(1 2 3 4)"),
        "A4": PermGens.from_cycles("(1 2 3)", "(1 2)(3 4)"),
        "Ex3_3": Metacyclic(64, 16, 32, 7),
    }.get(name)


CATALOG_NAMES = tuple(f"C{n}" for n in range(1, 65)) + (
    "D16",
    "SD16",
    "Q16",
    "S4",
    "A4",
    "SL2_7",
    "SL2_9",
    "Ex3_3",
)


@lru_cache(maxsize=None)
def catalog_group(name: str) -> FiniteGroupTable:
    if name == "SL2_7":
        return _sl2_7_table()
    if name == "SL2_9":
        return _sl2_9_table()
    spec = _catalog_spec(name)
    if spec is None:
        raise ValueError(f"unknown catalog group: {name}")
    if isinstance(spec, Metacyclic):
        return _build_metacyclic(spec, label=name)
    return _build_perm(spec, label=name)


def build_group(spec: GroupSpec) -> FiniteGroupTable:
    """Realize a group spec as a multiplication table."""
    if isinstance(spec, Catalog):
        return catalog_group(spec.name)
    if isinstance(spec, Metacyclic):
        return _build_metacyclic(spec)
    if isinstance(spec, PermGens):
        return _build_perm(spec)
    raise TypeError(f"not a group spec: {spec!r}")


class GroupFacts(NamedTuple):
    """All the verdict reads about a group. A NamedTuple rather than a
    frozen dataclass, which would cost about a millisecond at import."""

    order: int
    abelian_invariants: tuple[int, ...]
    sylow2_order: int
    sylow2_is_q16: bool


def _metacyclic_facts(m: Metacyclic) -> GroupFacts:
    """The facts of a metacyclic group from its parameters alone.

    The abelianization is Z^2 modulo the exponent sums of the relators,
    the rows [a, 0], [-c, b] and [r - 1, 0]. A 2-Sylow subgroup is
    generated by s**(a/a_2), which generates the 2-Sylow subgroup of the
    normal subgroup <s>, and by u = t'**o'. Here t' = t**(b/b_2) has order
    b_2 * a/gcd(a, c), since its b_2-th power is t**b = s**c, and o' is
    the odd part of that order; the image of u then generates the 2-part
    of G/<s> = C_b. Those 16 elements are closed only when the 2-part of
    the order is 16.
    """
    a, b, c, r = m.a, m.b, m.c, m.r
    order = a * b
    rows: list[list[int] | None] = [None, None]
    for v in ([a, 0], [-c, b], [r - 1, 0]):
        _add_relator(rows, v)
    two_part = order & -order
    q16 = False
    if two_part == 16:
        b2 = b & -b
        t_order = b2 * (a // gcd(a, c))
        # u = t**k for k = (b/b_2) * o', and t**k = (s**c)**(k // b)
        # t**(k % b) because s**c is central
        k = b // b2 * (t_order // (t_order & -t_order))
        u = (c * (k // b) % a, k % b)
        gens = [(a // (a & -a) % a, 0), u]
        P = FiniteGroupTable.from_generators(
            (0, 0), gens, _metacyclic_compose(m), 16, "2-Sylow"
        )
        assert P.order == 16
        q16 = is_generalized_quaternion16(Subgroup(P, frozenset(range(P.order))))
    return GroupFacts(order, _smith_invariants(rows), two_part, q16)


def _table_facts(G: FiniteGroupTable) -> GroupFacts:
    return GroupFacts(G.order, G.abelian_invariants, G.sylow2_order, sylow2_is_q16(G))


@lru_cache(maxsize=None)
def _catalog_facts(name: str) -> GroupFacts:
    spec = _catalog_spec(name)
    if isinstance(spec, Metacyclic):
        return _metacyclic_facts(spec)
    return _table_facts(build_group(Catalog(name)))


def group_facts(spec: GroupSpec) -> GroupFacts:
    """The facts the verdict needs: from the presentation for metacyclic
    specs, memoized per name for catalog specs, and from the closure
    table for permutation specs."""
    if isinstance(spec, Metacyclic):
        return _metacyclic_facts(spec)
    if isinstance(spec, Catalog):
        return _catalog_facts(spec.name)
    return _table_facts(build_group(spec))
