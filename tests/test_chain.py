"""The contract of the stabilizer chain's interface, which any chain that
replaces it must meet. On random permutation groups of degree 2 to 7, and
on such groups relabelled onto points of a degree above 256, where the
chain's elements are tuples rather than bytes: the order and membership of
a chain against the closure table of oracles, a walk that lists every
element once, an add of a member that changes nothing, and an add of a
permutation outside that extends the chain to the order and the elements
of the larger group. The chain stores one coset representative per orbit
point, and a walk lists the products of those. And the chain's product
and inverse against their definitions on either side of degree 256. And a level inverts each representative at most twice: once,
and once more to keep the inverse for the passes that revisit its point."""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from noethercheck import oracles
from noethercheck.chain import StabilizerChain, _perm, _perm_compose, _perm_inverse
from noethercheck.exact import RelationLattice
from noethercheck.groups import PermGens
from noethercheck.oracles import build_group


def _relabel(g, where, degree):
    """g with each point i renamed where[i], on degree points, the others
    fixed."""
    image = list(range(degree))
    for i, x in enumerate(g):
        image[where[i]] = where[x]
    return tuple(image)


@st.composite
def perm_gens(draw, max_degree=7, above_256=False):
    """A group on 2 to max_degree points, and those points: 0..degree-1,
    or above 256, points drawn from a larger degree that the group fixes."""
    degree = draw(st.integers(2, max_degree))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=2, max_size=4))
    if not above_256:
        return PermGens(degree, tuple(tuple(g) for g in gens)), list(range(degree))
    n = draw(st.integers(257, 300))
    where = draw(st.lists(st.integers(0, n - 1), min_size=degree, max_size=degree, unique=True))
    return PermGens(n, tuple(_relabel(g, where, n) for g in gens)), where


def _chain(degree, gens):
    chain = StabilizerChain(degree)
    for g in gens:
        chain.add(g)
    return chain


def _meets_contract(pg, points, seed):
    table = build_group(pg)
    members = set(table._elems)
    chain = _chain(pg.degree, pg.generators)
    assert chain.order() == table.order
    assert tuple(chain.identity) == tuple(range(pg.degree))
    walked = [tuple(g) for g in chain.walk()]
    assert len(walked) == len(set(walked)) and set(walked) == members
    # a member leaves the chain as it is; permutations of the group's
    # points, so that the larger group moves no others, mostly are not
    # members, and the first of those extends the chain to the order and
    # the elements of the larger group
    rng = random.Random(seed)
    n = len(points)
    others = [_relabel(rng.sample(range(n), n), points, pg.degree) for _ in range(20)]
    for g in rng.sample(sorted(members), min(20, len(members))):
        assert not chain.add(g) and chain.order() == table.order, g
    outside = next((g for g in others if g not in members), None)
    if outside is None:
        return
    assert chain.add(outside)
    larger = build_group(PermGens(pg.degree, pg.generators + (outside,)))
    assert chain.order() == larger.order
    assert {tuple(g) for g in chain.walk()} == set(larger._elems)


@settings(max_examples=100, deadline=None)
@given(perm_gens(), st.integers(0, 2**32 - 1))
def test_chain_meets_its_contract(group, seed):
    _meets_contract(*group, seed)


# up to degree 6 before relabelling, so that no table holds S7's 5040
# elements of up to 300 points each
@settings(max_examples=100, deadline=None)
@given(perm_gens(max_degree=6, above_256=True), st.integers(0, 2**32 - 1))
def test_chain_meets_its_contract_above_degree_256(group, seed):
    assert type(StabilizerChain(group[0].degree).identity) is tuple
    _meets_contract(*group, seed)


def _reversed(n):
    return tuple(range(n - 1, -1, -1))


def _rotated(n):
    return tuple(range(1, n)) + (0,)


def _two_permutations(n):
    return st.tuples(st.permutations(range(n)), st.permutations(range(n)))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300).flatmap(_two_permutations))
@example((_reversed(1), _rotated(1)))
@example((_reversed(256), _rotated(256)))
@example((_reversed(257), _rotated(257)))
def test_product_and_inverse_meet_their_definitions(pair):
    p, q = map(tuple, pair)
    n = len(p)
    product = tuple(q[p[i]] for i in range(n))  # p, then q
    inverse = [0] * n
    for i in range(n):
        inverse[p[i]] = i
    P, Q = _perm(p), _perm(q)
    assert type(P) is type(Q) is (bytes if n <= 256 else tuple)
    assert tuple(P) == p and _perm(P) is P
    assert type(_perm_compose(P, Q)) is type(P) and tuple(_perm_compose(P, Q)) == product
    assert type(_perm_inverse(P)) is type(P) and tuple(_perm_inverse(P)) == tuple(inverse)
    # tuples of any degree compose and invert as tuples
    assert _perm_compose(p, q) == product and _perm_inverse(p) == tuple(inverse)


def test_disjoint_transpositions_invert_each_representative_at_most_twice(monkeypatch):
    # each new transposition joins the generators of every level above the
    # one it moves, so each later Schreier pass revisits the points there;
    # one inverse per visit made about k**2 / 2 of them
    from noethercheck import chain, groups

    calls = []

    def counted(p):
        calls.append(p)
        return _perm_inverse(p)

    monkeypatch.setattr(chain, "_perm_inverse", counted)
    k = 129  # on 258 points, so the elements are tuples
    pg = PermGens.from_cycles(*(f"({2 * i + 1} {2 * i + 2})" for i in range(k)))
    facts = groups._perm_facts(pg)
    assert (facts.order, facts.abelian_invariants) == (2**k, (2,) * k)
    assert len(calls) <= 4 * k


class _Recording(RelationLattice):
    """A relation lattice that keeps a copy of each relator it folds."""

    def __init__(self, orders):
        super().__init__(orders)
        self.relators = []

    def fold(self, v):
        self.relators.append(list(v))
        return super().fold(v)


def _relators(pg):
    """The table of pg and the lattice its chain's relators went into, for
    generators of the orders the table gives."""
    table = build_group(pg)
    lattice = _Recording([table.element_order(x) for x in table.generator_indices])
    chain = StabilizerChain(pg.degree, lattice)
    for g in pg.generators:
        chain.add(g)
    return table, lattice


@settings(max_examples=80, deadline=None)
@given(perm_gens())
def test_every_relator_is_a_relation(group):
    # the product of the generators' powers that a relator names lies in
    # G', in the table, whatever their order; and with the orders they
    # give G/G'
    pg, _ = group
    table, lattice = _relators(pg)
    derived = oracles.derived_subgroup(table).members
    for v in lattice.relators:
        x = table.identity
        for g, e in zip(table.generator_indices, v):
            x = table.mult(x, table.power(g, e))
        assert x in derived, v
    assert lattice.invariants() == oracles.abelian_invariants_by_quotient(table)


def test_an_element_already_a_member_is_a_relator():
    # (1 2 3)(4 5) is the product of the first two: add takes nothing, and
    # passes the relator e_3 - e_1 - e_2, up to the generators' orders
    pg = PermGens.from_cycles("(1 2 3)", "(4 5)", "(1 2 3)(4 5)")
    table, lattice = _relators(pg)
    assert table.order == 6
    last = lattice.relators[-1] + [0] * (3 - len(lattice.relators[-1]))
    assert (last[0] % 3, last[1] % 2, last[2] % 6) == (2, 1, 1)
    assert lattice.invariants() == (6,)
