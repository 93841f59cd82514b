"""The chain for the derived subgroup, bounded by the order of G.

G' lies in G, and the orbit lengths of any partial stabilizer chain
multiply to at most the order of its group, so a chain for G' that reaches
|G| is complete: G' = G, and the work stops there. These tests hold the
bounded chain to an unbounded one (bound 0) built from the same
generators, and the cap errors to their exact text.
"""

import random

import pytest

from noethercheck import groups
from noethercheck.groups import CHAIN_CAP, CLOSURE_CAP, PermGens, group_facts

PERFECT = {
    "A7": PermGens.from_cycles("(1 2 3)", "(3 4 5 6 7)"),
    "A10": PermGens.from_cycles("(1 2 3)", "(2 3 4 5 6 7 8 9 10)"),
    "SL2_7": groups._catalog_spec("SL2_7"),
    "SL2_9": groups._catalog_spec("SL2_9"),
}
ORDERS = {"A7": 2520, "A10": 1814400, "SL2_7": 336, "SL2_9": 720}


def _chain(pg):
    G = groups._StabilizerChain(pg.degree)
    for g in pg.generators:
        G.add(g)
    return G


def _words(pg, rng, count):
    out = []
    for _ in range(count):
        w = tuple(range(pg.degree))
        for _ in range(rng.randint(1, 12)):
            w = groups._perm_compose(w, rng.choice(pg.generators))
        out.append(w)
    return out


def test_bounded_chain_of_a_perfect_group_has_its_order():
    rng = random.Random(15)
    for name, pg in PERFECT.items():
        order = _chain(pg).order()
        assert order == ORDERS[name], name
        bounded = groups._derived_subgroup(pg, order)
        unbounded = groups._derived_subgroup(pg, 0)
        assert bounded.order() == unbounded.order() == order, name
        # every word is in G = G'; a random permutation of the points
        # mostly is not, and both chains must say the same
        others = [tuple(rng.sample(range(pg.degree), pg.degree)) for _ in range(50)]
        for g in list(pg.generators) + _words(pg, rng, 200) + others:
            assert bounded.contains(g) == unbounded.contains(g), name
        assert all(bounded.contains(g) for g in pg.generators), name
        # a full chain takes nothing more
        assert not bounded.add(rng.choice(others)) and bounded.order() == order, name
        assert group_facts(pg).abelian_invariants == (), name


def test_derived_subgroup_of_a_symmetric_group_has_index_2():
    for n in (6, 9):
        pg = PermGens.from_cycles("(1 2)", "(" + " ".join(map(str, range(1, n + 1))) + ")")
        order = _chain(pg).order()
        assert groups._derived_subgroup(pg, order).order() == order // 2
        assert group_facts(pg).abelian_invariants == (2,)


def test_cap_errors_are_unchanged():
    # a chain for S_3000 passes the chain cap at its first level
    spec = PermGens.from_cycles("(1 2)", "(" + " ".join(map(str, range(1, 3001))) + ")")
    with pytest.raises(ValueError) as err:
        group_facts(spec)
    assert str(err.value) == (
        f"a stabilizer chain of degree 3000 needs more than chain cap {CHAIN_CAP} stored point images"
    )
    # Q16 times cycles of lengths 3 to 17: the image on the Q16 orbit would
    # decide the test in 16 elements, but the closure cap still bounds |G|
    q16 = groups.build_group(groups.Metacyclic(8, 2, 4, 7))
    gens = [tuple(q16.mult(x, g) for x in range(16)) for g in q16.generator_indices]
    degree = 16 + 3 + 5 + 7 + 11 + 13 + 17
    s, t = (g + tuple(range(16, degree)) for g in gens)
    first = 16
    for n in (3, 5, 7, 11, 13, 17):
        s = s[:first] + tuple(range(first + 1, first + n)) + (first,) + s[first + n :]
        first += n
    with pytest.raises(ValueError) as err:
        group_facts(PermGens(degree, (s, t)))
    assert str(err.value) == (
        f"the 2-Sylow test of a group of order 4084080 needs its closure, above closure cap {CLOSURE_CAP}"
    )
