"""G/G' read from the relators of the stabilizer chain for G.

Every Schreier generator that the chain sifts to the identity, every orbit
tree edge whose exponent vector is not 0 and every generator that add finds
to be a member already is a relation among the generators; with
ord(g_k) * e_k they span the relation lattice of G/G' (Sims; Holt-Eick-
O'Brien ch. 6), whose Smith form gives the invariants. These tests hold
those invariants to the derived subgroup and the relators of the closure
table, to closed forms, on groups whose orbits show none of their abelian
quotient, on either side of degree 256 and on generators whose orders run
to 150 bits, and the cap errors to their exact text; and they count the
chains a spec builds.
"""

import random
from math import prod

import pytest
from families import ORDER_16, TRAPS, cycle, cyclic_product, regular

from noethercheck import chain, exact, groups, oracles
from noethercheck.chain import CHAIN_CAP
from noethercheck.groups import CLOSURE_CAP, PermGens, group_facts


def test_derived_subgroup_of_a_symmetric_group_has_index_2(monkeypatch):
    # the chain, with the closed form of S_n and A_n off, reads the sign
    for n in (6, 9):
        pg = PermGens.from_cycles("(1 2)", cycle(1, n))
        with monkeypatch.context() as m:
            m.setattr(groups, "_giant_facts", lambda *args: None)
            assert group_facts(pg).abelian_invariants == (2,), n
        assert group_facts(pg).abelian_invariants == (2,), n
    G = oracles.build_group(PermGens.from_cycles("(1 2)", cycle(1, 6)))
    assert G.order == 2 * len(oracles.derived_subgroup(G).members)


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


def _random_specs(rng, count):
    specs = []
    while len(specs) < count:
        degree = rng.randint(2, 7)
        gens = tuple(tuple(rng.sample(range(degree), degree)) for _ in range(rng.randint(2, 4)))
        specs.append(PermGens(degree, gens))
    return specs


def test_derived_chain_matches_the_table_oracle():
    # every spec is checked, the 34 of orders 2520 and 5040 among them:
    # |G/G'| against the derived subgroup of the table, which closes G'
    # under multiplication alone, and below order 100 the invariants
    # against the relators of the table's spanning tree
    for pg in _random_specs(random.Random(16), 240):
        facts = group_facts(pg)
        G = oracles.build_group(pg)
        assert facts.order == G.order, pg
        derived = oracles.derived_subgroup(G).members
        assert prod(facts.abelian_invariants) * len(derived) == G.order, pg
        if G.order < 100:
            assert facts.abelian_invariants == oracles.abelian_invariants_by_relators(G), pg


def test_disjoint_transpositions_have_independent_signs():
    # n disjoint transpositions given as n generators: the lattice keeps
    # each e_k modulo its order 2, and the Smith step finds it diagonal
    for n in (1, 2, 7, 64):
        gens = []
        for i in range(n):
            g = list(range(2 * n))
            g[2 * i], g[2 * i + 1] = 2 * i + 1, 2 * i
            gens.append(tuple(g))
        assert group_facts(PermGens(2 * n, tuple(gens))).abelian_invariants == (2,) * n, n
    # a generator that is a product of the others is a relator of its own
    pg = PermGens.from_cycles("(1 2)(5 6)", "(3 4)(5 6)", "(1 2)", "(1 2)(3 4)(5 6)")
    assert group_facts(pg).abelian_invariants == (2, 2, 2)


def test_quotients_that_no_orbit_shows():
    # |G/G'| is 4 and 16 beside A5 and S5, on orbits of their own; S5 wr S2
    # and S4 wr S3 hide the sign on the blocks, and AGL(1, 13) is primitive
    specs = {
        "A5xC4": (PermGens.from_cycles("(1 2 3)", "(1 2 3 4 5)(6 7 8 9)"), (4,)),
        "S5xC8": (PermGens.from_cycles("(1 2)", "(1 2 3 4 5)(6 7 8 9 10 11 12 13)"), (8, 2)),
        "S5wrS2": (PermGens.from_cycles(*TRAPS["S5wrS2"][0]), (2, 2)),
        "AGL(1,13)": (PermGens.from_cycles(*TRAPS["AGL(1,13)"][0]), (12,)),
    }
    for name, (pg, invariants) in specs.items():
        assert group_facts(pg).abelian_invariants == invariants, name
        if pg.degree <= 10:
            G = oracles.build_group(pg)
            assert oracles.abelian_invariants_by_quotient(G) == invariants, name


def test_relator_keys_spare_the_folds(monkeypatch):
    # S_12 from two random permutations, with the closed form of S_n off:
    # once the lattice's index is 2, a relator whose fields are, modulo 2,
    # those of one folded since is skipped, and most are
    rng = random.Random(3)
    pg = PermGens(12, tuple(tuple(rng.sample(range(12), 12)) for _ in range(2)))
    folds, keys = [], []
    fold, relator = exact.RelationLattice.fold, chain.StabilizerChain._relator

    def counted_fold(self, v):
        folds.append(1)
        return fold(self, v)

    def counted_relator(self, v):
        # only the calls that reach the key lookup: _relator returns at
        # once for a zero vector or a retired lattice
        if v and self._lattice is not None:
            keys.append(1)
        return relator(self, v)

    monkeypatch.setattr(groups, "_giant_facts", lambda *args: None)
    monkeypatch.setattr(exact.RelationLattice, "fold", counted_fold)
    monkeypatch.setattr(chain.StabilizerChain, "_relator", counted_relator)
    facts = group_facts(pg)
    assert (facts.order, facts.abelian_invariants) == (479001600, (2,))
    assert 2 * len(folds) < len(keys)


def test_fields_of_150_bit_orders_do_not_overflow():
    # A5 x C_m: a 5-cycle times one cycle of each prime from 7 to 113 on
    # points of its own, with a 3-cycle; m, the product of those primes, is
    # 150 bits, and the exponent vectors' fields are sized from it
    primes = [p for p in range(7, 114) if all(p % q for q in range(2, p))]
    cycles, first = cycle(1, 5), 6
    for p in primes:
        cycles += cycle(first, p)
        first += p
    m = prod(primes)
    assert m.bit_length() == 150
    facts = group_facts(PermGens.from_cycles(cycles, "(1 2 3)"))
    assert (facts.order, facts.abelian_invariants) == (60 * m, (m,))


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


def test_facts_build_one_chain_beside_the_q16_images(monkeypatch):
    # the facts of a permutation group build the chain for G, whose
    # relators give G/G', and beside it only the images that the Q16 orbit
    # rule tries: the 347-cycle of S6 x C347, and the Q16 orbit
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
    assert counts == {"C4^3xC8": 1, "AGL(1,13)": 1, "S6xC347": 2, "Q16xC15015": 2}


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
        "S6": PermGens.from_cycles("(1 2)", "(1 2 3 4 5 6)"),
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
