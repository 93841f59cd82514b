"""The contract of the stabilizer chain's interface, which any chain that
replaces it must meet. On random permutation groups of degree 2 to 7: the
order and membership of a chain against the closure table of oracles, a
walk that lists every element once, and a chain built up to its bound
that, once unbound, grows past it to the chain of the larger group."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from noethercheck.chain import StabilizerChain
from noethercheck.groups import PermGens
from noethercheck.oracles import build_group


@st.composite
def perm_gens(draw):
    degree = draw(st.integers(2, 7))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=2, max_size=4))
    return PermGens(degree, tuple(tuple(g) for g in gens))


def _chain(degree, gens, bound=0):
    chain = StabilizerChain(degree, bound)
    for g in gens:
        chain.add(g)
    return chain


@settings(max_examples=100, deadline=None)
@given(perm_gens(), st.integers(0, 2**32 - 1))
def test_chain_meets_its_contract(pg, seed):
    table = build_group(pg)
    members = set(table._elems)
    chain = _chain(pg.degree, pg.generators)
    assert chain.order() == table.order
    assert chain.identity == tuple(range(pg.degree))
    rng = random.Random(seed)
    others = [tuple(rng.sample(range(pg.degree), pg.degree)) for _ in range(20)]
    for g in members | set(others):
        assert chain.contains(g) == (g in members), g
    walked = list(chain.walk())
    assert len(walked) == len(set(walked)) and set(walked) == members
    outside = next((g for g in others if g not in members), None)
    if outside is None:
        return
    bounded = _chain(pg.degree, pg.generators, table.order)
    assert bounded.order() == table.order and not bounded.add(outside)
    bounded.unbound()
    assert bounded.add(outside)
    larger = _chain(pg.degree, pg.generators + (outside,))
    assert bounded.order() == larger.order() > table.order
    assert set(bounded.walk()) == set(larger.walk())
    assert all(bounded.contains(g) == larger.contains(g) for g in others)
