"""A stabilizer chain of a permutation group on the points 0..degree-1:
a base and strong generating set grown by the deterministic Schreier-Sims
algorithm (Holt-Eick-O'Brien, Handbook of Computational Group Theory,
section 4.4; Seress, Permutation Group Algorithms, ch. 4). Outside this
module a chain is reached only through StabilizerChain(degree, lattice),
its identity and its methods add, walk and order, and its cap error only
through _check_chain_cap, which takes a number of stored orbit points. It
imports nothing from the package: the lattice that its relators are folded
into, exact.RelationLattice for the product, is passed in. Each orbit
point stores one element, its coset representative, with the exponent
vector of a word in the added elements that equals it, and walk lists the
products of the representatives. A level keeps, per orbit point, the
number of its generators already paired with that point, and the inverse
of a representative from its second use on, and nothing else of the work
done: a Schreier pass starts at the first orbit point each time.

An element is the sequence of its point images, in the form _perm picks
from the degree: bytes up to degree 256, so that bytes.translate composes
two elements and bytes.maketrans inverts one, each in C at a cost that
hardly depends on the degree; above 256, where a point no longer fits in a
byte, a tuple, composed by an itemgetter. The chain's identity and every
element it stores or walks have that form; add, the one place that
converts, puts any sequence of images in it.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import prod
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
    generators that fix the earlier base points, each with its inverse and
    its exponent vector, the orbit of the base point under them in
    discovery order, and as reps[x], in the orbit's order, the coset
    representative that sends x to the base point, with its vector. The
    Schreier generators pairing orbit[i] with gens[:tested[i]] have been
    sifted, so a point is done with once tested[i] == len(gens). inverses
    marks, with None, each point whose representative was inverted once,
    and holds the inverse of each inverted again."""

    __slots__ = ("base", "gens", "orbit", "reps", "tested", "inverses")

    def __init__(self, base: int) -> None:
        self.base = base
        self.gens: list[tuple[_Perm, _Perm, int]] = []
        self.orbit: list[int] = []
        self.reps: dict[int, tuple[_Perm, int]] = {}
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
    gives them. walk reads the representatives and lists the whole group.

    Given a lattice, the chain also presents its group (Sims; Holt-Eick-
    O'Brien ch. 6). The k-th element that add takes is the generator g_k,
    and every stored representative and strong generator carries the
    exponent vector over the g_k of a word that equals it: one int whose
    field k, bits wide, holds the exponent of g_k, signed, so that adding
    the ints adds the vectors. _relator, the lattice's one gate, takes
    the vector of each relation met: a Schreier generator that sifts to
    the identity, an orbit tree edge s * reps[s(x)] = reps[x], and an
    element that add finds to be a member already. With ord(g_k) * e_k
    these span the relations among the images of the g_k in G/G'.
    lattice.orders holds a multiple of each ord(g_k), modulo which each
    field of a new strong generator is reduced, so no field passes
    (degree + 1)**2 * max(orders): a representative is at most degree - 1
    strong generators and their inverses, a Schreier generator two
    representatives and a strong generator, and a sift adds at most
    degree representatives; bits holds that bound and a sign. Once fold
    returns True, G/G' is trivial, and _relator drops the lattice.
    """

    def __init__(self, degree: int, lattice=None) -> None:
        self.identity = _perm(range(degree))
        self._levels: list[_Level] = []
        # each level's base point and representatives, for _sift
        self._bases: list[int] = []
        self._reps: list[dict[int, tuple[_Perm, int]]] = []
        self._points = 0
        self._lattice = lattice
        self._added = 0  # the elements add took
        orders = lattice.orders if lattice is not None else []
        self._bits = bits = ((degree + 1) ** 2 * max(orders, default=1)).bit_length() + 1
        # half of each field's range in every field: v + _offset has each
        # field in [0, 2**bits), so a mask reads them modulo 2**k, k < bits
        self._offset = ((1 << bits * len(orders)) - 1) // ((1 << bits) - 1) << bits - 1
        self._low = -1  # the mask that reads a relator's key
        self._known: set[int] = set()

    def order(self) -> int:
        return prod(len(lev.orbit) for lev in self._levels)

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
        last = [rep for rep, _ in levels[-1].reps.values()] if levels else [self.identity]
        x = 0 if square is None else next(i for i, z in enumerate(square) if i != z)

        def walk(i: int, prefix: _Perm):
            if i < deepest:
                for rep, _ in levels[i].reps.values():
                    yield from walk(i + 1, _perm_compose(prefix, rep))
                return
            px = prefix[x]
            for c in last:
                if square is None or c[prefix[c[px]]] == square[x]:
                    yield _perm_compose(prefix, c)

        yield from walk(0, self.identity)

    def _sift(self, g: _Perm, v: int, start: int = 0) -> tuple[_Perm | None, int, int]:
        """Strip g, of exponent vector v, through the levels from start on.
        Returns the residue, or None if g strips to the identity; its
        vector; and the level whose orbit misses g, or len(levels) if none
        does."""
        bases, reps, identity = self._bases, self._reps, self.identity
        for j in range(start, len(bases)):
            base = bases[j]
            x = g[base]
            if x == base:
                continue
            rep = reps[j].get(x)
            if rep is None:
                return g, v, j
            g = _perm_compose(g, rep[0])
            v += rep[1]
            if g == identity:
                return None, v, len(bases)
        return (None if g == identity else g), v, len(bases)

    def add(self, g: Sequence[int]) -> bool:
        """Extend the group by g and complete the chain. Returns False,
        changing nothing but the relators, if g is already a member."""
        v = 1 << self._bits * self._added if self._lattice is not None else 0
        self._added += 1
        residue, v, j = self._sift(_perm(g), v)
        if residue is None:
            self._relator(v)
            return False
        self._insert(residue, v, 0, j)
        self._complete(j)
        return True

    def _fields(self, v: int) -> list[int]:
        """The signed fields of the vector v, up to its last nonzero one."""
        bits = self._bits
        half, mask = 1 << bits - 1, (1 << bits) - 1
        zeros = ((v & -v).bit_length() - 1) // bits  # the fields below are 0
        fields = [0] * zeros
        v >>= bits * zeros
        while v:
            f = ((v + half) & mask) - half
            fields.append(f)
            v = (v - f) >> bits
        return fields

    def _relator(self, v: int) -> None:
        """Fold the relator of vector v into the lattice, unless v is 0, no
        lattice is left, or one of the same key was folded since the index
        last changed. The key is v + _offset, masked to its fields modulo
        2**k while the index is 2**k, k < bits, as 2**k * Z^m then lies in
        the lattice. The known keys never outnumber the orbit points."""
        lattice = self._lattice
        if not v or lattice is None:
            return
        key = (v + self._offset) & self._low
        known = self._known
        if key in known:
            return
        before = lattice.index
        if lattice.fold(self._fields(v)):
            self._lattice = None
            return
        index = lattice.index
        if index != before:
            k = index.bit_length() - 1
            ones = self._offset >> self._bits - 1
            self._low = (ones << k) - ones if index == 1 << k and k < self._bits else -1
            self._known = known = set()
            key = (v + self._offset) & self._low
        elif len(known) >= self._points:
            known.clear()
        known.add(key)

    def _store(self, lev: _Level, point: int, rep: _Perm, v: int) -> None:
        degree, points = len(self.identity), self._points + 1
        # tested here first, since a call for every stored point costs
        # about 2% of a small chain
        if 2 * degree * points > CHAIN_CAP:
            _check_chain_cap(degree, points)
        self._points = points
        lev.orbit.append(point)
        lev.reps[point] = rep, v
        lev.tested.append(0)

    def _insert(self, h: _Perm, v: int, lo: int, hi: int) -> None:
        """Make h, of vector v, which fixes the base points before level hi,
        a strong generator of levels lo..hi, opening level hi if it is new.
        Each field of v is reduced modulo its generator's order, and every
        field is 0 once no relator is passed."""
        if hi == len(self._levels):
            lev = _Level(next(i for i, x in enumerate(h) if i != x))
            self._store(lev, lev.base, self.identity, 0)
            self._levels.append(lev)
            self._bases.append(lev.base)
            self._reps.append(lev.reps)
        if self._lattice is None:
            v = 0
        elif v:
            bits = self._bits
            orders = self._lattice.orders
            v = sum(f % orders[k] << bits * k for k, f in enumerate(self._fields(v)))
        gen = (h, _perm_inverse(h), v)
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
                h, v, j = found
                self._insert(h, v, i + 1, j)
                i = j

    def _schreier_residue(self, i: int):
        """Sift the untested Schreier generators of level i, extending its
        orbit along the way, until one leaves a nontrivial residue below
        level i. Returns (residue, vector, level) for that one, or None.
        Each pass reads the orbit from its first point, skipping the points
        paired with every generator already."""
        lev = self._levels[i]
        gens, orbit, reps, tested = lev.gens, lev.orbit, lev.reps, lev.tested
        for k, x in enumerate(orbit):  # grows while it is read
            if tested[k] == len(gens):
                continue
            (rx, vx), rx_inv = reps[x], None
            while tested[k] < len(gens):
                s, s_inv, vs = gens[tested[k]]
                tested[k] += 1
                y = s[x]
                rep = reps.get(y)
                if rep is None:
                    self._store(lev, y, _perm_compose(s_inv, rx), vx - vs)
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
                # double the peak of a chain that inverts each point once.
                # One that sifts to the identity leaves v as a relator
                sr = _perm_compose(s, rep[0])
                v = vs + rep[1] - vx
                if sr != rx:
                    if rx_inv is None:
                        rx_inv = lev.inverses.get(x) or _perm_inverse(rx)
                        lev.inverses[x] = rx_inv if x in lev.inverses else None
                    h, v, j = self._sift(_perm_compose(rx_inv, sr), v, i + 1)
                    if h is not None:
                        return h, v, j
                self._relator(v)
        return None
