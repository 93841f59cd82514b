"""The chain for the derived subgroup, grown by orbit extension and
bounded by the order of G over the abelian quotient its orbits show.

G' lies in G and in the kernel of the signs of G on its orbits, and the
orbit lengths of any partial stabilizer chain multiply to at most the
order of its group, so a chain for G' that reaches |G| / 2**r, for the
rank r of those signs, is complete, and the work stops there. Membership
tested on a partial chain has no false positives, so the normal closure
can be grown with no Schreier generator sifted; short of the bound, the
elements it took are added to a chain one at a time. These tests hold
the bounded chain to an unbounded one (bound 0) built from the same
generators and to the derived subgroup of the table, count the Schreier
generators and completions the chains take, and hold the cap errors to
their exact text.
"""

import random
from functools import reduce

import pytest

from noethercheck import groups, oracles
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
    q16 = oracles.build_group(groups.Metacyclic(8, 2, 4, 7))
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


NOT_PERFECT = {
    "S6": (PermGens.from_cycles("(1 2)", "(1 2 3 4 5 6)"), 360),
    "S9": (PermGens.from_cycles("(1 2)", "(1 2 3 4 5 6 7 8 9)"), 181440),
    "C2xA5": (PermGens.from_cycles("(1 2 3)", "(1 2 3 4 5)", "(6 7)"), 60),
}


def _count_chain_work(monkeypatch):
    """Record every Schreier pass and every completion, with the level it
    starts from and the top level of the chain at that moment."""
    work = {"schreier": 0, "complete": []}
    Chain = groups._StabilizerChain
    schreier, complete = Chain._schreier_residue, Chain._complete

    def counted_schreier(self, i):
        work["schreier"] += 1
        return schreier(self, i)

    def counted_complete(self, i):
        work["complete"].append((i, len(self.levels) - 1))
        return complete(self, i)

    monkeypatch.setattr(Chain, "_schreier_residue", counted_schreier)
    monkeypatch.setattr(Chain, "_complete", counted_complete)
    return work


def test_perfect_groups_sift_no_schreier_generator(monkeypatch):
    orders = {name: _chain(pg).order() for name, pg in PERFECT.items()}
    work = _count_chain_work(monkeypatch)
    for name, pg in PERFECT.items():
        # orbit extension alone reaches |G|, which proves G' = G
        assert groups._derived_subgroup(pg, orders[name]).order() == orders[name], name
        assert work == {"schreier": 0, "complete": []}, name


def test_odd_generators_halve_the_bound_and_spare_the_completion(monkeypatch):
    orders = {name: _chain(pg).order() for name, (pg, _) in NOT_PERFECT.items()}
    work = _count_chain_work(monkeypatch)
    for name, (pg, derived_order) in NOT_PERFECT.items():
        # the sign of an odd generator halves the bound, which the grown
        # chain reaches: nothing is completed and no Schreier generator is
        # sifted
        assert groups._abelian_index(pg) == 2, name
        assert groups._derived_subgroup(pg, orders[name]).order() == derived_order, name
        assert work == {"schreier": 0, "complete": []}, name
        # unbounded, the chain is built by adding the elements the growth
        # took, each completed
        assert groups._derived_subgroup(pg, 0).order() == derived_order, name
        assert work["complete"], name
        work["complete"].clear()
        work["schreier"] = 0


def test_short_of_the_bound_the_taken_elements_are_added():
    # S5 wr S2 has |G/G'| = 4, but its orbit shows only the sign; the
    # growth stops short of |G| / 2, and adding what it took gives G'
    pg = PermGens.from_cycles("(1 2)", "(1 2 3 4 5)", "(1 6)(2 7)(3 8)(4 9)(5 10)")
    order = _chain(pg).order()
    assert (order, groups._abelian_index(pg)) == (28800, 2)
    grown = groups._StabilizerChain(pg.degree, order // 2)
    gens, invs = pg.generators, [groups._perm_inverse(g) for g in pg.generators]
    commutators = [
        reduce(groups._perm_compose, (invs[i], invs[j], gens[i], gens[j]))
        for i in range(3)
        for j in range(i + 1, 3)
    ]
    taken = grown.grow(commutators, list(zip(gens, invs)))
    assert grown.order() < order // 2
    derived = groups._derived_subgroup(pg, order)
    assert derived.order() == order // 4
    assert all(derived.contains(y) for y in taken)
    assert group_facts(pg).abelian_invariants == (2, 2)


def _random_specs(rng, count):
    specs = []
    while len(specs) < count:
        degree = rng.randint(2, 7)
        gens = tuple(tuple(rng.sample(range(degree), degree)) for _ in range(rng.randint(2, 4)))
        specs.append(PermGens(degree, gens))
    return specs


def test_derived_chain_matches_the_table_oracle():
    # groups of order 1000 or more are skipped by the chain's order: the
    # 34 of them, of orders 2520 and 5040, would add 1.2 s on an idle 2-CPU
    # VM (3.5 s on a loaded one), about half of it the inverses of the
    # oracle's subgroup check, each a power to |G| - 1, and most of the
    # rest the tables and the sifts
    checked = 0
    for pg in _random_specs(random.Random(16), 240):
        order = _chain(pg).order()
        if order >= 1000:
            continue
        bounded = groups._derived_subgroup(pg, order)
        assert bounded.order() == groups._derived_subgroup(pg, 0).order(), pg
        G = oracles.build_group(pg)
        derived = oracles.derived_subgroup(G).members
        assert bounded.order() == len(derived), pg
        for x in range(G.order):
            assert bounded.contains(G._elems[x]) == (x in derived), pg
        checked += 1
    assert checked >= 200


def test_quotient_chains_grow_past_the_derived_bound():
    # |G/G'| is 4 and 16, and the orbits show a quotient of order 4 (the
    # regular C_4) and 8 (the C_8, with both signs); the chains for
    # G'<g**2> copied from the chain for G' must still grow up to |G|
    specs = {
        "A5xC4": (PermGens.from_cycles("(1 2 3)", "(1 2 3 4 5)(6 7 8 9)"), 4, (4,)),
        "S5xC8": (PermGens.from_cycles("(1 2)", "(1 2 3 4 5)(6 7 8 9 10 11 12 13)"), 8, (8, 2)),
    }
    for name, (pg, index, invariants) in specs.items():
        assert groups._abelian_index(pg) == index, name
        assert group_facts(pg).abelian_invariants == invariants, name
        assert oracles.abelian_invariants_by_quotient(oracles.build_group(pg)) == invariants, name


def test_disjoint_transpositions_have_independent_signs():
    # n disjoint transpositions given as n generators: each sign is its own
    # bit, and the basis reaches rank n
    for n in (1, 2, 7, 64, 300):
        gens = []
        for i in range(n):
            g = list(range(2 * n))
            g[2 * i], g[2 * i + 1] = 2 * i + 1, 2 * i
            gens.append(tuple(g))
        assert groups._abelian_index(PermGens(2 * n, tuple(gens))) == 2**n, n
    # a sign whose leading bit is taken is reduced, not dropped, and a
    # dependent one adds no rank
    pg = PermGens.from_cycles("(1 2)(5 6)", "(3 4)(5 6)", "(1 2)", "(1 2)(3 4)(5 6)")
    assert groups._abelian_index(pg) == 8
