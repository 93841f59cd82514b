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
from families import ORDER_16, TRAPS, cycle, cyclic_product, regular

from noethercheck import chain, groups, oracles
from noethercheck.chain import CHAIN_CAP, _perm_compose, _perm_inverse
from noethercheck.groups import CLOSURE_CAP, PermGens, group_facts

PERFECT = {
    "A7": PermGens.from_cycles("(1 2 3)", "(3 4 5 6 7)"),
    "A10": PermGens.from_cycles("(1 2 3)", "(2 3 4 5 6 7 8 9 10)"),
    "SL2_7": groups._catalog_spec("SL2_7"),
    "SL2_9": groups._catalog_spec("SL2_9"),
}
ORDERS = {"A7": 2520, "A10": 1814400, "SL2_7": 336, "SL2_9": 720}


def _abelian_index(pg):
    gens = tuple(map(chain._perm, pg.generators))
    cycles = [list(groups._cycles(g)) for g in gens]
    return groups._abelian_index(gens, groups._moved_orbits(gens, cycles), cycles)


def _derived_subgroup(pg, order):
    """The chain for G' that _perm_facts builds given the order of G, or
    with no bound for order 0."""
    gens = tuple(map(chain._perm, pg.generators))
    return groups._derived_subgroup(gens, order // _abelian_index(pg))


def _chain(pg):
    G = chain.StabilizerChain(pg.degree)
    for g in pg.generators:
        G.add(g)
    return G


def _words(pg, rng, count):
    out = []
    for _ in range(count):
        w = tuple(range(pg.degree))
        for _ in range(rng.randint(1, 12)):
            w = _perm_compose(w, rng.choice(pg.generators))
        out.append(w)
    return out


def test_bounded_chain_of_a_perfect_group_has_its_order():
    rng = random.Random(15)
    for name, pg in PERFECT.items():
        order = _chain(pg).order()
        assert order == ORDERS[name], name
        bounded = _derived_subgroup(pg, order)
        unbounded = _derived_subgroup(pg, 0)
        assert bounded.order() == unbounded.order() == order, name
        # every word is in G = G'; a random permutation of the points
        # mostly is not, and both chains must say the same
        others = [tuple(rng.sample(range(pg.degree), pg.degree)) for _ in range(50)]
        for g in list(pg.generators) + _words(pg, rng, 200) + others:
            assert bounded.contains(g) == unbounded.contains(g), name
        assert all(bounded.contains(g) for g in pg.generators), name
        # a full chain takes nothing more: a word in the generators is a
        # member already
        assert not bounded.add(_words(pg, rng, 1)[0]) and bounded.order() == order, name
        assert group_facts(pg).abelian_invariants == (), name


def test_derived_subgroup_of_a_symmetric_group_has_index_2():
    for n in (6, 9):
        pg = PermGens.from_cycles("(1 2)", cycle(1, n))
        order = _chain(pg).order()
        assert _derived_subgroup(pg, order).order() == order // 2
        assert group_facts(pg).abelian_invariants == (2,)


def test_cap_errors_are_unchanged():
    # a chain for S_3000 passes the chain cap at its first level
    spec = PermGens.from_cycles("(1 2)", cycle(1, 3000))
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
    starts from."""
    work = {"schreier": 0, "complete": []}
    Chain = chain.StabilizerChain
    schreier, complete = Chain._schreier_residue, Chain._complete

    def counted_schreier(self, i):
        work["schreier"] += 1
        return schreier(self, i)

    def counted_complete(self, i):
        work["complete"].append(i)
        return complete(self, i)

    monkeypatch.setattr(Chain, "_schreier_residue", counted_schreier)
    monkeypatch.setattr(Chain, "_complete", counted_complete)
    return work


def test_perfect_groups_sift_no_schreier_generator(monkeypatch):
    orders = {name: _chain(pg).order() for name, pg in PERFECT.items()}
    work = _count_chain_work(monkeypatch)
    for name, pg in PERFECT.items():
        # orbit extension alone reaches |G|, which proves G' = G
        assert _derived_subgroup(pg, orders[name]).order() == orders[name], name
        assert work == {"schreier": 0, "complete": []}, name


def test_odd_generators_halve_the_bound_and_spare_the_completion(monkeypatch):
    orders = {name: _chain(pg).order() for name, (pg, _) in NOT_PERFECT.items()}
    work = _count_chain_work(monkeypatch)
    for name, (pg, derived_order) in NOT_PERFECT.items():
        # the sign of an odd generator halves the bound, which the grown
        # chain reaches: nothing is completed and no Schreier generator is
        # sifted
        assert _abelian_index(pg) == 2, name
        assert _derived_subgroup(pg, orders[name]).order() == derived_order, name
        assert work == {"schreier": 0, "complete": []}, name
        # unbounded, the chain is built by adding the elements the growth
        # took, each completed
        assert _derived_subgroup(pg, 0).order() == derived_order, name
        assert work["complete"], name
        work["complete"].clear()
        work["schreier"] = 0


def test_growth_at_the_bound_counts_every_schreier_generator_as_sifted():
    # a chain that grew to its bound is complete, so that the p-power
    # series, which adds to it, pairs only its own elements with the orbits
    groups_at_bound = {**PERFECT, **{name: pg for name, (pg, _) in NOT_PERFECT.items()}}
    for name, pg in groups_at_bound.items():
        grown = _derived_subgroup(pg, _chain(pg).order())
        for lev in grown._levels:
            assert lev.tested == [len(lev.gens)] * len(lev.orbit), name


def test_growth_stops_at_its_bound():
    # G' is G for SL2_7 and A7 and A6 for S6, so growth from commutators of
    # random words reaches the bound: it must then draw no further element,
    # so the stream sees the chain short of the bound at every draw
    rng = random.Random(37)
    specs = {"SL2_7": PERFECT["SL2_7"], "A7": PERFECT["A7"], "S6": NOT_PERFECT["S6"][0]}
    for name, pg in specs.items():
        bound = _chain(pg).order() // _abelian_index(pg)
        grown = chain.StabilizerChain(pg.degree)
        seen = []

        def commutators():
            for _ in range(40):
                seen.append(grown.order())
                a, b = _words(pg, rng, 2)
                yield reduce(_perm_compose, (_perm_inverse(a), _perm_inverse(b), a, b))

        conjugators = [(g, _perm_inverse(g)) for g in pg.generators]
        grown.grow(commutators(), conjugators, bound)
        assert grown.order() == bound, name
        assert len(seen) < 40 and bound not in seen, name


def test_short_of_the_bound_the_taken_elements_are_added():
    # S5 wr S2 has |G/G'| = 4, but its orbit shows only the sign; the
    # growth stops short of |G| / 2, and adding what it took gives G'
    pg = PermGens.from_cycles(*TRAPS["S5wrS2"][0])
    order = _chain(pg).order()
    assert (order, _abelian_index(pg)) == (28800, 2)
    grown = chain.StabilizerChain(pg.degree)
    gens, invs = pg.generators, [_perm_inverse(g) for g in pg.generators]
    commutators = [
        reduce(_perm_compose, (invs[i], invs[j], gens[i], gens[j]))
        for i in range(3)
        for j in range(i + 1, 3)
    ]
    taken = grown.grow(commutators, list(zip(gens, invs)), order // 2)
    assert grown.order() < order // 2
    derived = _derived_subgroup(pg, order)
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
    # every spec is checked, the 34 of orders 2520 and 5040 among them:
    # their tables, the oracle's subgroup check, which closes G' under
    # multiplication alone, and the sifts take most of the time
    for pg in _random_specs(random.Random(16), 240):
        order = _chain(pg).order()
        bounded = _derived_subgroup(pg, order)
        assert bounded.order() == _derived_subgroup(pg, 0).order(), pg
        G = oracles.build_group(pg)
        derived = oracles.derived_subgroup(G).members
        assert bounded.order() == len(derived), pg
        for x in range(G.order):
            assert bounded.contains(G._elems[x]) == (x in derived), pg


def test_quotient_chains_grow_past_the_derived_bound():
    # |G/G'| is 4 and 16, and the orbits show a quotient of order 4 (the
    # regular C_4) and 8 (the C_8, with both signs); the chain for G',
    # complete at that bound, must still grow past it as the p-power
    # series is added to it
    specs = {
        "A5xC4": (PermGens.from_cycles("(1 2 3)", "(1 2 3 4 5)(6 7 8 9)"), 4, (4,)),
        "S5xC8": (PermGens.from_cycles("(1 2)", "(1 2 3 4 5)(6 7 8 9 10 11 12 13)"), 8, (8, 2)),
    }
    for name, (pg, index, invariants) in specs.items():
        assert _abelian_index(pg) == index, name
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
        assert _abelian_index(PermGens(2 * n, tuple(gens))) == 2**n, n
    # a sign whose leading bit is taken is reduced, not dropped, and a
    # dependent one adds no rank
    pg = PermGens.from_cycles("(1 2)(5 6)", "(3 4)(5 6)", "(1 2)", "(1 2)(3 4)(5 6)")
    assert _abelian_index(pg) == 8


def test_growth_at_the_bound_takes_nothing(monkeypatch):
    # n disjoint transpositions given as n generators: the signs prove
    # G' = 1, so the chain for G' starts at its bound, and none of the
    # n(n - 1)/2 commutators is sifted
    n = 60
    gens = []
    for i in range(n):
        g = list(range(2 * n))
        g[2 * i], g[2 * i + 1] = 2 * i + 1, 2 * i
        gens.append(tuple(g))
    pg = PermGens(2 * n, tuple(gens))
    sifted = []
    sift = chain.StabilizerChain._sift

    def counted(self, g, start=0):
        sifted.append(g)
        return sift(self, g, start)

    monkeypatch.setattr(chain.StabilizerChain, "_sift", counted)
    bounded = chain.StabilizerChain(2 * n)
    assert bounded.grow(iter(gens), [(g, g) for g in gens], 1) == []
    assert _derived_subgroup(pg, 2**n).order() == 1
    assert sifted == []
    monkeypatch.undo()
    assert group_facts(pg).abelian_invariants == (2,) * n


# invariants written from each group's structure: C_4**3 x C_8; AGL(1, 13)
# = C_13 : C_12, whose derived subgroup is the translations; S_6 x C_347,
# whose quotient is C_2 x C_347; and Q16 x C_15015, Q16 acting on itself
# with Q16/Q16' = C_2**2 and the C_15015 on cycles of lengths 3 to 13
# carried by its first generator, all on 55 points
SERIES_GROUPS = {
    "C4^3xC8": (PermGens.from_cycles(*cyclic_product((4, 4, 4, 8))), (8, 4, 4, 4)),
    "AGL(1,13)": (PermGens.from_cycles(*TRAPS["AGL(1,13)"][0]), (12,)),
    "S6xC347": (PermGens.from_cycles("(1 2)", cycle(1, 6), cycle(7, 347)), (694,)),
    "Q16xC15015": (
        PermGens.from_cycles(*regular(*ORDER_16["Q16"], odd=(3, 5, 7, 11, 13), carried=True)),
        (30030, 2),
    ),
}


def test_p_power_series_invariants_in_closed_form():
    for name, (pg, invariants) in SERIES_GROUPS.items():
        assert group_facts(pg).abelian_invariants == invariants, name
    assert SERIES_GROUPS["Q16xC15015"][0].degree == 55
    facts = group_facts(SERIES_GROUPS["Q16xC15015"][0])
    assert (facts.order, facts.sylow2_is_q16) == (16 * 15015, True)


def test_p_power_series_grows_the_chain_for_g_prime(monkeypatch):
    # the facts of a permutation group build the chain for G; the chain for
    # G' and, when its growth stops short of the bound, its rebuild; and
    # the images of the Q16 orbit rule; the p-power series adds to the
    # chain for G' and builds none
    built = []
    init = chain.StabilizerChain.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(chain.StabilizerChain, "__init__", counted)
    counts = {}
    for name, (pg, _) in SERIES_GROUPS.items():
        built.clear()
        group_facts(pg)
        counts[name] = len(built)
    assert counts == {"C4^3xC8": 3, "AGL(1,13)": 3, "S6xC347": 3, "Q16xC15015": 4}


def test_facts_agree_on_either_side_of_degree_256(monkeypatch):
    # each group on its own points, where the chains compose bytes, and
    # with point 300 added and fixed, where they compose tuples; the Q16
    # test of SL2_9 walks G itself, on all 300 points. S6 would skip the
    # chain, so the recognizer of S_n and A_n is off
    monkeypatch.setattr(groups, "_giant_facts", lambda *args: None)
    walked = []
    walk = chain.StabilizerChain.walk

    def recorded(self, *args):
        for g in walk(self, *args):
            walked.append(type(g))
            yield g

    monkeypatch.setattr(chain.StabilizerChain, "walk", recorded)
    specs = {
        "SL2_7": groups._catalog_spec("SL2_7"),
        "SL2_9": groups._catalog_spec("SL2_9"),
        "S6": NOT_PERFECT["S6"][0],
        "AGL(1,13)": SERIES_GROUPS["AGL(1,13)"][0],
    }
    for name, pg in specs.items():
        padded = PermGens(300, tuple(g + tuple(range(pg.degree, 300)) for g in pg.generators))
        walked.clear()
        facts = group_facts(pg)
        below = set(walked)
        walked.clear()
        assert group_facts(padded) == facts, name
        if name.startswith("SL2"):
            # the Q16 test walks both, each in the form of its degree
            assert (below, set(walked)) == ({bytes}, {tuple}), name
    assert group_facts(specs["SL2_9"]).sylow2_is_q16
