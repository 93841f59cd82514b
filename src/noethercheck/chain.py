"""A stabilizer chain of a permutation group on the points 0..degree-1:
a base and strong generating set grown by the deterministic Schreier-Sims
algorithm (Holt-Eick-O'Brien, Handbook of Computational Group Theory,
section 4.4; Seress, Permutation Group Algorithms, ch. 4). Outside this
module a chain is reached only through StabilizerChain(degree), its
identity and its methods add, grow, contains, walk and order, and its cap
error only through _check_chain_cap, which takes a number of stored orbit
points. It imports nothing from the
package. Each orbit point stores one element, its coset representative,
and walk lists the products of those, so it serves a chain that grow built
as well as one that add built. A level keeps, per orbit point, the number
of its generators already paired with that point, and the inverse of a
representative from its second use on, and nothing else of the work done:
a Schreier pass starts at the first orbit point each time.

An element is the sequence of its point images, in the form _perm picks
from the degree: bytes up to degree 256, so that bytes.translate composes
two elements and bytes.maketrans inverts one, each in C at a cost that
hardly depends on the degree; above 256, where a point no longer fits in a
byte, a tuple, composed by an itemgetter. The chain's identity and every
element it stores or walks have that form, and add, contains and grow
take any sequence of images and put it in that form.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import itemgetter

# A stabilizer chain stores one element of degree point images per orbit
# point of each level, but counts 2*degree images for each, as it did when it
# stored each representative's inverse too, so that every refusal stays as it
# was, and an inverse a level keeps stays inside those 2*degree images; it
# stops once that count would pass 10**7, about 40 MB of tuple slots, or 5 MB
# as bytes, which it counts alike. Only this module knows that count: groups
# passes _check_chain_cap a number of orbit points.
CHAIN_CAP = 10**7

# On a 2-CPU VM with Python 3.11, composing two elements of 80 points takes
# about 0.25 us with translate and 1.2-1.9 us with an itemgetter; at degree
# 7 both take about 0.2 us, so bytes serve every degree up to 256.
_Perm = bytes | tuple[int, ...]
_BYTES = bytes(range(256))


def _check_chain_cap(degree: int, points: int) -> None:
    """Refuse a chain of this degree that would store this many orbit
    points in all, counted as 2*degree point images each, if that passes
    CHAIN_CAP: the one text of the chain's cap error, which a caller that
    knows a chain's orbit lengths in advance raises too."""
    if 2 * degree * points > CHAIN_CAP:
        raise ValueError(
            f"a stabilizer chain of degree {degree} needs more than "
            f"chain cap {CHAIN_CAP} stored point images"
        )


def _perm(images: Sequence[int]) -> _Perm:
    """The element with these point images, in the form of its degree: bytes
    up to 256 points, a tuple above. An element already in that form is
    returned as it is."""
    return bytes(images) if len(images) <= 256 else tuple(images)


def _perm_compose(p: _Perm, q: _Perm) -> _Perm:
    """Apply p, then q, both in the form of _perm or both tuples. translate
    reads a table of 256 bytes, so q is padded with the fixed points above
    its degree. An itemgetter of several indices returns a tuple, and does
    so several times faster than a map; the identity is the only
    permutation of degree 1."""
    if type(p) is bytes:
        return p.translate(q + _BYTES[len(q) :])
    return itemgetter(*p)(q) if len(p) > 1 else q


def _perm_inverse(p: _Perm) -> _Perm:
    """The inverse of p, in p's form: maketrans sends each p[i] to i, and
    the points above the degree to themselves."""
    n = len(p)
    if type(p) is bytes:
        return bytes.maketrans(p, _BYTES[:n])[:n]
    inv = [0] * n
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


class _Level:
    """One level of a stabilizer chain: the base point, the strong
    generators that fix the earlier base points (each with its inverse),
    the orbit of the base point under them in discovery order, and for each
    orbit point x the one element stored for it, the coset representative
    reps[x] that sends x to the base point, in the orbit's order. The
    Schreier generators pairing orbit[i] with gens[:tested[i]] have been
    sifted, so a point is done with once tested[i] == len(gens). inverses
    marks, with None, each point whose representative was inverted once,
    and holds the inverse of each inverted again."""

    __slots__ = ("base", "gens", "orbit", "reps", "tested", "inverses")

    def __init__(self, base: int) -> None:
        self.base = base
        self.gens: list[tuple[_Perm, _Perm]] = []
        self.orbit: list[int] = []
        self.reps: dict[int, _Perm] = {}
        self.tested: list[int] = []
        self.inverses: dict[int, _Perm | None] = {}


class StabilizerChain:
    """A base and strong generating set; the order of its group is the
    product of the orbit lengths. add completes the chain after each new
    element: every Schreier generator of every level is sifted through the
    levels below it, and a nontrivial residue becomes a strong generator.
    Each orbit point holds one element, its coset representative, so the
    chain holds at most |G| permutations besides its strong generators; a
    Schreier generator inverts the representative of its orbit point when
    it needs to. The chain counts its stored orbit points, and
    _check_chain_cap weighs them against CHAIN_CAP, whichever form _perm
    gives them.

    grow takes a stream of elements instead and only extends orbits, so
    its chain is partial unless it reaches the bound that grow alone takes
    on the order. Sifting through a partial chain has no false
    positives, since an element that strips to the identity is a product
    of stored coset representatives, but may have false negatives. walk
    reads the representatives too, so it serves every chain, and lists the
    whole group once the chain is complete, however it was built."""

    def __init__(self, degree: int) -> None:
        self.identity = _perm(range(degree))
        self._levels: list[_Level] = []
        self._points = 0
        self._size = 1  # the product of the orbit lengths

    def order(self) -> int:
        return self._size

    def walk(self, square: Sequence[int] | None = None):
        """Every element g of the group once, in the chain's form, or, given
        square, only those with g(g(x)) = square(x) at the first point x that
        square moves. Each is composed in C up to degree 256, so a caller
        that composes what it yields should keep that form. g is the
        product r_0 * r_1 * ... * r_n, applied left to right, of one coset
        representative r_i per level i, which sends a point of its orbit to
        the base point of level i, and the deepest, r_n, varies fastest (the
        identity if there are no levels). These products are the inverses
        of the products r_n**-1 * ... * r_0**-1 that the cosets of the
        chain's stabilizers give, so each element of the group is listed
        exactly once. Only the partial products on the current path are
        kept, and g(z) = r_n[prefix[z]] is read at x before anything is
        composed."""
        levels = self._levels
        deepest = len(levels) - 1
        last = list(levels[-1].reps.values()) if levels else [self.identity]
        x = 0 if square is None else next(i for i, z in enumerate(square) if i != z)

        def walk(i: int, prefix: _Perm):
            if i < deepest:
                for rep in levels[i].reps.values():
                    yield from walk(i + 1, _perm_compose(prefix, rep))
                return
            px = prefix[x]
            for c in last:
                if square is None or c[prefix[c[px]]] == square[x]:
                    yield _perm_compose(prefix, c)

        yield from walk(0, self.identity)

    def _sift(self, g: _Perm, start: int = 0) -> tuple[_Perm | None, int]:
        """Strip g through the levels from start on. Returns the residue, or
        None if g strips to the identity, and the level whose orbit misses
        g, or len(levels) if none does."""
        levels, identity = self._levels, self.identity
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

    def contains(self, g: Sequence[int]) -> bool:
        return self._sift(_perm(g))[0] is None

    def add(self, g: Sequence[int]) -> bool:
        """Extend the group by g and complete the chain. Returns False,
        changing nothing, if g is already a member."""
        residue, j = self._sift(_perm(g))
        if residue is None:
            return False
        self._insert(residue, 0, j)
        self._complete(j)
        return True

    def grow(self, elements, conjugators, bound: int) -> list[_Perm]:
        """Extend the group by the elements and by the conjugates
        g**-1 * y * g, for the pairs (g, g**-1) of conjugators, of every
        element y that extended it, until those are closed under them: the
        normal closure of the elements in the group the conjugators
        generate. Returns the elements that extended it, which generate
        that closure, in the chain's form. One loop reads one stream: the
        elements, then the conjugates of each element taken, in the order
        taken, by each pair in turn.

        Each element is sifted through the partial chain. A residue that
        strips to the identity is a product of stored coset
        representatives, so the element is already a member: the test has
        no false positives, and a false negative only takes one more
        element. A nontrivial residue becomes a strong generator of the
        levels down to the one that stopped it, and their orbits are
        extended under it. No Schreier generator is sifted.

        bound, if not 0, bounds the order of the closure. The stored orbits
        lie inside the true basic orbits, so their lengths multiply to at
        most the closure's order; once that product reaches bound the chain
        is complete, however little of it was verified, so growth stops
        there: it takes nothing if the chain is at the bound already, and
        returns as soon as an orbit extension reaches it, drawing no further
        element and composing no further conjugate. Every Schreier
        generator then counts as sifted, so that add may extend the chain
        past the bound. Short of the bound the chain stays partial: its
        order may fall short of the closure's, and contains may miss a
        member."""
        taken: list[_Perm] = []
        if self._size == bound:
            return taken

        def stream():
            yield from map(_perm, elements)
            pairs = [(_perm(g), _perm(g_inv)) for g, g_inv in conjugators]
            for y in taken:  # grows while it is read
                for g, g_inv in pairs:
                    yield _perm_compose(_perm_compose(g_inv, y), g)

        for y in stream():
            residue, j = self._sift(y)
            if residue is None:
                continue
            taken.append(y)
            self._insert(residue, 0, j)
            for lev in self._levels[: j + 1]:
                self._extend_orbit(lev, bound)
                if self._size == bound:
                    return taken
        return taken

    def _extend_orbit(self, lev: _Level, bound: int) -> None:
        """Close the orbit of lev, closed under all its generators but the
        last, under that one too: the last is applied to the old points and
        every generator to the new points only. It stops once the orbit
        product reaches the bound, where the chain is complete, and counts
        every Schreier generator of every level as sifted."""
        gens, orbit, reps = lev.gens, lev.orbit, lev.reps
        last, old = gens[-1:], len(orbit)
        k = 0
        while k < len(orbit):  # grows while it is read
            x = orbit[k]
            for s, s_inv in last if k < old else gens:
                y = s[x]
                if y not in reps:
                    self._store(lev, y, _perm_compose(s_inv, reps[x]))
                    if self._size == bound:
                        for done in self._levels:
                            done.tested = [len(done.gens)] * len(done.orbit)
                        return
            k += 1

    def _store(self, lev: _Level, point: int, rep: _Perm) -> None:
        degree, points = len(self.identity), self._points + 1
        # tested here first, since a call for every stored point costs
        # about 2% of a small chain
        if 2 * degree * points > CHAIN_CAP:
            _check_chain_cap(degree, points)
        self._points = points
        n = len(lev.orbit)
        if n:
            self._size = self._size // n * (n + 1)
        lev.orbit.append(point)
        lev.reps[point] = rep
        lev.tested.append(0)

    def _insert(self, h: _Perm, lo: int, hi: int) -> None:
        """Make h, which fixes the base points before level hi, a strong
        generator of levels lo..hi, opening level hi if it is new."""
        if hi == len(self._levels):
            lev = _Level(next(i for i, x in enumerate(h) if i != x))
            self._store(lev, lev.base, self.identity)
            self._levels.append(lev)
        gen = (h, _perm_inverse(h))
        for lev in self._levels[lo : hi + 1]:
            lev.gens.append(gen)

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
        level i. Returns (residue, level) for that one, or None. Each pass
        reads the orbit from its first point, skipping the points paired
        with every generator already."""
        lev = self._levels[i]
        gens, orbit, reps, tested = lev.gens, lev.orbit, lev.reps, lev.tested
        for k, x in enumerate(orbit):  # grows while it is read
            if tested[k] == len(gens):
                continue
            rx, rx_inv = reps[x], None
            while tested[k] < len(gens):
                s, s_inv = gens[tested[k]]
                tested[k] += 1
                y = s[x]
                rep = reps.get(y)
                if rep is None:
                    self._store(lev, y, _perm_compose(s_inv, rx))
                    continue
                if y == x == lev.base:
                    # the Schreier generator is s, which _insert also made
                    # a strong generator of the next level
                    continue
                # the Schreier generator rx**-1 * s * rep fixes the base
                # point; it is the identity, with s * rep = rx, on the
                # orbit's tree edges, and rx's inverse is made only when a
                # generator is not. It is kept from its second use on, as
                # later passes revisit x; kept from its first, it would
                # double the peak of a chain that inverts each point once
                sr = _perm_compose(s, rep)
                if sr == rx:
                    continue
                if rx_inv is None:
                    rx_inv = lev.inverses.get(x) or _perm_inverse(rx)
                    lev.inverses[x] = rx_inv if x in lev.inverses else None
                h, j = self._sift(_perm_compose(rx_inv, sr), i + 1)
                if h is not None:
                    return h, j
        return None
