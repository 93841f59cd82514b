"""Finite groups from generators: the specs, and the facts the verdict
reads about them.

The verdict reads one GroupFacts record per spec: the order, the abelian
invariants, the 2-part of the order and whether the 2-Sylow subgroup is
Q16. A metacyclic presentation gives them from its parameters without
enumerating the group: the invariants are (h*b/d, d) without 1s, for
h = gcd(a, r - 1) and d = gcd(h, c, b), and so is the Q16 answer, which
needs the 2-part 16 and then a 2-part 8 of a and two congruences on c and
r. A permutation spec is read once, from the image tuples of its distinct
non-identity generators, with their cycles listed, and its orbits are
grown from the least point of each cycle; with one, it is cyclic, of
order the lcm of its cycle lengths. A spec whose generators'
cycles prove it S_n or A_n, n >= 5, on its one moved orbit is answered in
closed form, as _giant_facts describes: a power of one generator is a
p-cycle for a prime p <= max(3, n - 3), the smallest block holding the
cycle is the orbit, which makes G primitive, and a primitive group with
such a cycle is a giant by Jordan's theorems. Any other permutation spec
is answered from a stabilizer chain for G, of the chain module: the order
is the product of its orbit lengths, and the invariants come from the
relators it meets, each an exponent vector over the generators, folded
into an exact.RelationLattice whose Smith form is G/G'. Only when the
2-part of |G| is 16, and |G| is within CLOSURE_CAP, are elements walked
for the Q16 test, and then only those of the image of G on one orbit: a
Sylow Q16 has a regular orbit inside some orbit of G, and on any orbit
where the image keeps the 2-part 16 the 2-Sylow subgroups map
isomorphically. Every catalog group is one of these
two kinds of spec.

The multiplication tables the facts are tested against live in oracles,
which imports this module and never the reverse; the verdict builds none.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import compress
from math import factorial, gcd, lcm
from operator import ne

from .chain import StabilizerChain, _check_chain_cap, _perm_compose
from .exact import FACTORIZATION_CAP, Frozen, RelationLattice, exact_int, is_prime, parse_ints

# Hard ceilings so a typo in a generating set fails fast instead of eating
# memory: every closure (a permutation or metacyclic table of oracles)
# stops at 10**6 elements, the Q16 test walks the elements of a permutation group only up
# to that order, and a permutation degree above 10**6 is refused before its
# image tuples are built. A metacyclic presentation is answered without
# enumeration, so its cap only bounds the size of the input: a*b up to the
# factorization cap. A stabilizer chain has its own cap, chain.CHAIN_CAP.
CLOSURE_CAP = 10**6
METACYCLIC_CAP = FACTORIZATION_CAP


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
        pts = parse_ints(body.replace(",", " ").split(), CLOSURE_CAP, "point", "closure")
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
    """Permutation group given by generators as image tuples on 0..degree-1.

    The degree and every image pass exact_int, which stores a plain int and
    refuses a float, Fraction, Decimal, complex or str by name; a generator
    of ints only is stored as it is."""

    __slots__ = ("degree", "generators")

    def __init__(self, degree: int, generators: tuple[tuple[int, ...], ...]) -> None:
        degree = exact_int(degree, "degree")
        if degree < 1:
            raise ValueError("degree must be at least 1")
        if not generators:
            raise ValueError("at least one generator is required")
        # image tuples, so that the record hashes and compares by value
        generators = tuple(
            g if set(map(type, g)) == {int} else tuple(exact_int(x, "image") for x in g)
            for g in map(tuple, generators)
        )
        for g in generators:
            if sorted(g) != list(range(degree)):
                raise ValueError(f"not a permutation of 0..{degree - 1}: {g}")
        super().__init__(degree, generators)

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
    Each parameter passes exact_int, so True is stored as 1 and a float is
    refused by name.
    """

    __slots__ = ("a", "b", "c", "r")

    def __init__(self, a: int, b: int, c: int, r: int) -> None:
        a, b, c, r = exact_int(a, "a"), exact_int(b, "b"), exact_int(c, "c"), exact_int(r, "r")
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
        super().__init__(a, b, c, r)


class Catalog(Frozen):
    """A named group from the built-in catalog."""

    __slots__ = ("name",)


GroupSpec = PermGens | Metacyclic | Catalog


def _cycles(p: tuple[int, ...]):
    """The cycles of p of two or more points, each as a list from its least
    point, in order of least point. compress skips the fixed points, most
    of the points of a generator on a long degree, in C."""
    seen = bytearray(len(p))
    points = range(len(p))
    for i in compress(points, map(ne, p, points)):
        if seen[i]:
            continue
        cycle = [i]
        j = p[i]
        while j != i:
            seen[j] = 1
            cycle.append(j)
            j = p[j]
        yield cycle


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

# the catalog, each spec built only when its name is asked for
_CATALOG_SPECS = {
    **{f"C{n}": partial(Metacyclic, n, 1, 0, 1 % n) for n in range(1, 65)},
    "D16": lambda: Metacyclic(8, 2, 0, 7),
    "SD16": lambda: Metacyclic(8, 2, 0, 3),
    "Q16": lambda: Metacyclic(8, 2, 4, 7),
    "S4": lambda: PermGens.from_cycles("(1 2)", "(1 2 3 4)"),
    "A4": lambda: PermGens.from_cycles("(1 2 3)", "(1 2)(3 4)"),
    "SL2_7": lambda: PermGens.from_cycles(*_SL2_7),
    "SL2_9": lambda: PermGens.from_cycles(*_SL2_9),
    "Ex3_3": lambda: Metacyclic(64, 16, 32, 7),
}

CATALOG_NAMES = tuple(_CATALOG_SPECS)


def _catalog_spec(name: str) -> Metacyclic | PermGens:
    make = _CATALOG_SPECS.get(name)
    if make is None:
        raise ValueError(f"unknown catalog group: {name}")
    return make()


class GroupFacts(Frozen):
    """All the verdict reads about a group."""

    __slots__ = ("order", "abelian_invariants", "sylow2_order", "sylow2_is_q16")


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


def _moved_orbits(
    gens: tuple[tuple[int, ...], ...], cycles: list[list[list[int]]]
) -> list[list[int]]:
    """The orbits of more than one point, by least point, each in discovery
    order, searched from the least point of each cycle: an orbit's least
    point lies on a cycle inside it, so no point that gens fix is read."""
    seen = bytearray(len(gens[0]))
    moved = []
    for start in sorted({cycle[0] for cs in cycles for cycle in cs}):
        if seen[start]:
            continue
        seen[start] = 1
        orbit = [start]
        for x in orbit:  # grows while it is read
            for g in gens:
                if not seen[g[x]]:
                    seen[g[x]] = 1
                    orbit.append(g[x])
        moved.append(orbit)
    return moved


def _block_is_orbit(gens: tuple[tuple[int, ...], ...], points: list[int], n: int) -> bool:
    """Is the smallest block of the group of gens that holds points its
    whole orbit, of n points? Atkinson's union-find: the points are merged
    into one class, and for each merge of two classes, recorded as the
    pair of their roots, the images of that pair under each generator are
    merged too. The classes are then the blocks of the finest block system
    that keeps the points together; the answer is known once one class
    holds n points."""
    parent = list(range(len(gens[0])))
    size = [1] * len(parent)
    pairs: list[tuple[int, int]] = []

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> int:
        """Merge the classes of x and y; the size of the merged class, or 0
        if they were one already."""
        x, y = find(x), find(y)
        if x == y:
            return 0
        if size[x] < size[y]:
            x, y = y, x
        parent[y] = x
        size[x] += size[y]
        pairs.append((x, y))
        return size[x]

    # a block of a transitive group has a size that divides n, so a block
    # of more than n/2 points is the orbit
    if 2 * len(points) > n:
        return True
    for x in points[1:]:
        union(points[0], x)
    for a, b in pairs:  # grows while it is read
        for g in gens:
            # a generator that fixes both points maps the pair to itself
            ga, gb = g[a], g[b]
            if (ga != a or gb != b) and union(ga, gb) == n:
                return True
    return size[find(points[0])] == n


def _giant_facts(
    gens: tuple[tuple[int, ...], ...],
    moved: list[list[int]],
    cycles: list[list[list[int]]],
) -> GroupFacts | None:
    """The facts of G if the cycles of its generators prove it S_n or A_n,
    for its one moved orbit of n >= 5 points; else None, and the caller
    builds the chain.

    The candidate is the longest cycle, of prime length p <= max(3, n - 3),
    that is the only cycle of its generator g whose length p divides, and
    G is a giant iff the smallest block of G holding its points is the
    orbit:
    - g**m, for m the lcm of the other lengths of g, is a p-cycle c of G;
    - c fixes every block of a system whose blocks have b >= 2 points: if
      c moved a block B, it would move every point of B, and the c-orbit
      of B would be p blocks of b points each, p*b > p points inside the p
      points of c;
    - so a block holding one point of c holds all of them, and the
      smallest block holding c's points is the orbit iff G is primitive;
    - a primitive group with a p-cycle contains A_n if p <= 3 (Wielandt
      13.3), or if p <= n - 3 (Jordan; Wielandt 13.9);
    - a giant is primitive, so a smallest block short of the orbit proves
      G is not one, and one candidate decides.
    A chain for G, giant or not, would store the whole orbit at its first
    level, so an orbit past the chain cap is refused before the block
    test, with the chain's error.

    G is S_n if some generator is odd, with an odd number of cycles of even
    length, and A_n otherwise: order n! or n!/2, invariants (2,) or (), and
    no Q16, since the 2-Sylow subgroups of S_n and A_n, n >= 5, hold a
    Klein four-group. Its chain would store one representative per point
    of the basic orbits, of lengths n down to 2 for S_n and to 3 for A_n,
    n(n+1)/2 - 1 or n(n+1)/2 - 3 points in all, the count _check_chain_cap
    takes, so an input the chain would refuse is refused here with its
    error."""
    if len(moved) != 1 or len(moved[0]) < 5:
        return None
    n = len(moved[0])
    best: list[int] = []
    for cs in cycles:
        lengths = list(map(len, cs))
        for p in set(lengths):
            if (
                len(best) < p <= max(3, n - 3)
                and lengths.count(p) == 1
                and is_prime(p)
                and all(m % p for m in lengths if m != p)
            ):
                best = cs[lengths.index(p)]
    if not best:
        return None
    _check_chain_cap(len(gens[0]), n)
    if not _block_is_orbit(gens, best, n):
        return None
    # a cycle of m points is m - 1 transpositions
    odd = any((sum(map(len, cs)) - len(cs)) % 2 for cs in cycles)
    _check_chain_cap(len(gens[0]), n * (n + 1) // 2 - (1 if odd else 3))
    order = factorial(n) if odd else factorial(n) // 2
    return GroupFacts(order, (2,) if odd else (), order & -order, False)


def _sylow2_image(
    gens: tuple[tuple[int, ...], ...], moved: list[list[int]], G: StabilizerChain
) -> StabilizerChain | None:
    """The chain of _perm_facts' orbit rule for a group G of 2-part 16,
    given moved, its orbits of more than one point: G itself when it moves
    the points of one orbit only, of 16 or more, else its image on the
    first such orbit that keeps that 2-part, or None. Each image is a
    complete chain that add builds."""
    if len(moved) == 1 and len(moved[0]) >= 16:
        return G
    for orbit in (o for o in moved if len(o) >= 16):
        where = {x: i for i, x in enumerate(orbit)}
        H = StabilizerChain(len(orbit))
        for g in gens:
            H.add(tuple(where[g[x]] for x in orbit))
        if H.order() & -H.order() == 16:
            return H
    return None


def _q16_search(H: StabilizerChain) -> bool:
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

    G is read once, from its distinct generators other than the identity,
    in the order first given, as the image tuples PermGens holds, which
    only StabilizerChain.add puts in the chain's form; their cycles are
    listed once, for every helper. One such generator
    generates C_m, for m the lcm of its cycle lengths, under 1700 digits
    by Landau's bound, and needs no chain and no cap; with none, G = 1.
    The orbits are grown from the least point of each cycle, so no fixed
    point is read. When the cycles prove G to be S_n or A_n, _giant_facts
    gives the facts in closed form and no chain is built, and it refuses
    with the chain's own error an input whose chain would pass the chain
    cap. Otherwise the order is that of the chain, and the invariants are
    those of the lattice its relators are folded into, the relations among
    the generators' images in G/G', which starts from each generator's
    order, the lcm of its cycle lengths. A perfect group's lattice reaches
    Z^m while the chain is built, and is folded no further. When the
    2-part of |G| is 16 and |G| is within CLOSURE_CAP, the Q16 test walks
    G's image on one orbit.

    The orbit is the first of 16 or more points on which the image keeps
    the 2-part 16, and if none does, no 2-Sylow subgroup P is Q16: every
    nontrivial subgroup of Q16 contains its centre Z, so a Q16 meets the
    kernel on the orbit of a point x that Z moves trivially, and P_x = 1
    gives that orbit 16 points or more. On any orbit where the image keeps
    the 2-part 16 the kernel has odd order, so P maps isomorphically onto a
    2-Sylow subgroup of the image."""
    found = {g: list(_cycles(g)) for g in dict.fromkeys(pg.generators)}
    gens = tuple(g for g, cs in found.items() if cs)  # the identity has no cycle
    cycles = [cs for cs in found.values() if cs]
    if len(gens) <= 1:
        m = lcm(*map(len, cycles[0])) if gens else 1
        return GroupFacts(m, (m,) if m > 1 else (), m & -m, False)
    moved = _moved_orbits(gens, cycles)
    giant = _giant_facts(gens, moved, cycles)
    if giant is not None:
        return giant
    lattice = RelationLattice([lcm(*map(len, cs)) for cs in cycles])
    G = StabilizerChain(pg.degree, lattice)
    for g in gens:
        G.add(g)
    order = G.order()
    two_part = order & -order
    if two_part == 16 and order > CLOSURE_CAP:
        raise ValueError(
            f"the 2-Sylow test of a group of order {order} needs its closure, "
            f"above closure cap {CLOSURE_CAP}"
        )
    H = _sylow2_image(gens, moved, G) if two_part == 16 else None
    q16 = H is not None and _q16_search(H)
    return GroupFacts(order, lattice.invariants(), two_part, q16)


@lru_cache(maxsize=None)
def _catalog_facts(name: str) -> GroupFacts:
    return group_facts(_catalog_spec(name))


def group_facts(spec: GroupSpec) -> GroupFacts:
    """The facts the verdict needs: from the presentation for metacyclic
    specs, memoized per name for catalog specs, and from a stabilizer
    chain for permutation specs; any other spec is a TypeError."""
    if isinstance(spec, Metacyclic):
        return _metacyclic_facts(spec)
    if isinstance(spec, Catalog):
        return _catalog_facts(spec.name)
    if not isinstance(spec, PermGens):
        kind = type(spec).__name__
        raise TypeError(f"spec must be a PermGens, Metacyclic or Catalog, not {kind}: {spec!r}")
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
