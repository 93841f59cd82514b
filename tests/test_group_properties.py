"""Property tests for the group layer: the abelian invariants group_facts
gives, in closed form for a metacyclic presentation and from a stabilizer
chain for a permutation group, against a Smith normal form of the defining
relations, the relator lattice of the closure table and the
derived-subgroup quotient oracle; the reported 2-Sylow order against the
2-part of |G|; the facts that a presentation or a chain gives without
enumeration against the closure table and, where it is installed, sympy;
and the AGL(1, p), PSL2(p) and ASL2(p) families of tools/families.py
against their facts in closed form."""

import random
from math import gcd, lcm, prod

import pytest
from families import agl1, agl1_facts, asl2, asl2_facts, cycle, psl2, psl2_facts
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from noethercheck import groups
from noethercheck.chain import _perm
from noethercheck.exact import factorize
from noethercheck.galois import verdict
from noethercheck.groups import (
    CATALOG_NAMES,
    METACYCLIC_CAP,
    Catalog,
    GroupFacts,
    Metacyclic,
    PermGens,
    abelian_invariants,
    group_facts,
)
from noethercheck.oracles import (
    abelian_invariants_by_quotient,
    abelian_invariants_by_relators,
    build_group,
    is_generalized_quaternion16,
    two_sylow,
)


def _snf_2col(rows):
    """Invariant factors of Z^2 / (row span), descending without 1s, from
    the gcds of the 1x1 and 2x2 minors."""
    d1 = gcd(*(x for row in rows for x in row))
    d2 = 0
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            d2 = gcd(d2, rows[i][0] * rows[j][1] - rows[i][1] * rows[j][0])
    return tuple(m for m in (d2 // d1, d1) if m > 1)


def _two_part(n):
    out = 1
    while n % 2 == 0:
        n //= 2
        out *= 2
    return out


@st.composite
def metacyclic_specs(draw):
    a = draw(st.integers(1, 2000))
    b = draw(st.integers(1, 2000 // a))
    r = draw(st.sampled_from([r for r in range(a) if gcd(r, a) == 1 and pow(r, b, a) == 1 % a]))
    c = draw(st.sampled_from([c for c in range(a) if c * (r - 1) % a == 0]))
    return Metacyclic(a, b, c, r)


@st.composite
def metacyclic_specs_two_part_16(draw):
    """Metacyclic specs of order at most 2000, three in four of them with
    2-part 16, the only case that can be Q16."""
    if draw(st.integers(0, 3)) == 0:
        return draw(metacyclic_specs())
    e = draw(st.integers(0, 4))
    odd_a = 2 * draw(st.integers(0, 20)) + 1
    odd_b = 2 * draw(st.integers(0, (125 // odd_a - 1) // 2)) + 1
    a, b = odd_a << e, odd_b << (4 - e)
    rs = [r for r in range(a) if gcd(r, a) == 1 and pow(r, b, a) == 1 % a]
    # r = -1 and c = a/2 give the dicyclic groups, most of the Q16 cases
    r = a - 1 if a - 1 in rs and draw(st.booleans()) else draw(st.sampled_from(rs))
    cs = [c for c in range(a) if c * (r - 1) % a == 0]
    c = a // 2 if a // 2 in cs and draw(st.booleans()) else draw(st.sampled_from(cs))
    return Metacyclic(a, b, c, r)


def _table_facts(spec):
    # the invariants from the closure's relators, not the ones the table
    # carries from group_facts, and the Q16 answer from a 2-Sylow subgroup
    # of the closure, not from the rule on the parameters or the walk
    G = build_group(spec)
    q16 = G.sylow2_order == 16 and is_generalized_quaternion16(two_sylow(G))
    return GroupFacts(G.order, abelian_invariants_by_relators(G), G.sylow2_order, q16)


@st.composite
def perm_specs(draw, min_gens=2):
    degree = draw(st.integers(1, 7))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=min_gens, max_size=3))
    return PermGens(degree, tuple(tuple(g) for g in gens))


@settings(max_examples=60, deadline=None)
@given(metacyclic_specs())
def test_metacyclic_invariants_match_snf_and_oracle(spec):
    G = build_group(spec)
    invs = abelian_invariants(G)
    a, b, c, r = spec.a, spec.b, spec.c, spec.r
    assert invs == _snf_2col([[a, 0], [-c, b], [r - 1, 0]])
    assert invs == abelian_invariants_by_quotient(G)


@st.composite
def large_metacyclic_specs(draw):
    """Metacyclic specs with a*b up to METACYCLIC_CAP, far beyond any
    table: r = 1 with any c, or r = -1 with b even and c = 0 or a/2. A
    common factor g of a, b and often c makes gcd(h, c, b) nontrivial."""
    g = draw(st.integers(1, 10**6))
    a = g * draw(st.integers(1, METACYCLIC_CAP // (2 * g * g)))
    if draw(st.booleans()):
        b = g * draw(st.integers(1, METACYCLIC_CAP // (a * g)))
        c = g * draw(st.integers(0, a)) % a if draw(st.booleans()) else draw(st.integers(0, a - 1))
        return Metacyclic(a, b, c, 1 % a)
    b = 2 * g * draw(st.integers(1, METACYCLIC_CAP // (2 * a * g)))
    c = draw(st.sampled_from([0, a // 2] if a % 2 == 0 else [0]))
    return Metacyclic(a, b, c, (a - 1) % a)


@settings(max_examples=200, deadline=None)
@given(large_metacyclic_specs())
def test_large_metacyclic_invariants_match_snf(spec):
    a, b, c, r = spec.a, spec.b, spec.c, spec.r
    invs = group_facts(spec).abelian_invariants
    assert invs == _snf_2col([[a, 0], [-c, b], [r - 1, 0]])


def test_small_metacyclic_invariants_match_relators():
    # every valid presentation with a <= 24 and b <= 8
    count = 0
    for a in range(1, 25):
        for b in range(1, 9):
            for r in (r for r in range(a) if gcd(r, a) == 1 and pow(r, b, a) == 1 % a):
                for c in (c for c in range(a) if c * (r - 1) % a == 0):
                    spec = Metacyclic(a, b, c, r)
                    expected = abelian_invariants_by_relators(build_group(spec))
                    assert group_facts(spec).abelian_invariants == expected, spec
                    count += 1
    assert count == 3110


@settings(max_examples=60, deadline=None)
@given(perm_specs())
def test_permutation_invariants_match_oracle(spec):
    G = build_group(spec)
    assert abelian_invariants(G) == abelian_invariants_by_quotient(G)


@settings(max_examples=40, deadline=None)
@given(st.one_of(metacyclic_specs(), perm_specs()))
def test_sylow_order_is_two_part(spec):
    facts = verdict(spec).group
    assert facts.sylow2_order == _two_part(facts.order)


@settings(max_examples=300, deadline=None)
@given(metacyclic_specs_two_part_16())
def test_metacyclic_facts_match_table(spec):
    assert group_facts(spec) == _table_facts(spec)


def test_catalog_facts_match_table():
    for name in CATALOG_NAMES:
        assert group_facts(Catalog(name)) == _table_facts(Catalog(name)), name


@settings(max_examples=200, deadline=None)
@given(perm_specs(min_gens=1))
def test_permutation_facts_match_table(spec):
    # one generator goes through the cyclic presentation, more through the
    # stabilizer chain; both against the closure's relators and 2-Sylow
    facts = _table_facts(spec)
    assert group_facts(spec) == facts
    # every prime of |G/G'| divides some generator's cycle length, the fact
    # that lets _perm_facts list the primes from the generators alone
    lengths = {len(c) for g in spec.generators for c in groups._cycles(g)}
    for p in factorize(prod(facts.abelian_invariants)):
        assert any(m % p == 0 for m in lengths), p


@pytest.mark.parametrize(("family", "facts", "p"), [
    *((agl1, agl1_facts, p) for p in (3, 5, 7, 11, 13)),
    *((psl2, psl2_facts, p) for p in (5, 7, 11, 13)),
    *((asl2, asl2_facts, p) for p in (3, 5, 7)),
])
def test_families_match_their_closed_forms(family, facts, p):
    # the facts from textbook formulas; ASL2(7) is Q16; at the smallest p
    # of each family, the closure table agrees too
    spec = PermGens.from_cycles(*family(p))
    expected = GroupFacts(*facts(p))
    assert group_facts(spec) == expected
    assert expected.sylow2_is_q16 == (family is asl2 and p == 7)
    if p == {agl1: 3, psl2: 5, asl2: 3}[family]:
        assert _table_facts(spec) == expected


@settings(max_examples=200, deadline=None)
@given(perm_specs(min_gens=1))
def test_proved_perfect_groups_are_perfect_in_the_table(spec):
    # the proof from element orders, run with or without the gate that
    # _perm_facts puts before it, against the closure's relators
    cycles = [list(groups._cycles(g)) for g in spec.generators]
    primes = sorted({p for cs in cycles for c in cs for p in factorize(len(c))})
    if groups._proved_perfect(tuple(map(_perm, spec.generators)), cycles, primes):
        assert abelian_invariants_by_relators(build_group(spec)) == ()


def _random_perm_gens(rng, degree):
    gens = []
    for _ in range(rng.randint(1, 3)):
        p = list(range(degree))
        if rng.random() < 0.6:
            rng.shuffle(p)
        else:  # a few transpositions, for the groups a shuffle rarely gives
            for _ in range(rng.randint(1, 3)):
                a, b = rng.sample(range(degree), 2)
                p[a], p[b] = p[b], p[a]
        gens.append(tuple(p))
    return PermGens(degree, tuple(gens))


def test_chain_facts_match_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    rng = random.Random(11)
    for _ in range(200):
        spec = _random_perm_gens(rng, rng.randint(3, 10))
        facts = group_facts(spec)
        G = combinatorics.PermutationGroup([combinatorics.Permutation(list(g)) for g in spec.generators])
        # sympy lists the prime-power invariants, ascending
        prime_powers = sorted(p**e for n in facts.abelian_invariants for p, e in factorize(n).items())
        assert (facts.order, prime_powers) == (G.order(), sorted(G.abelian_invariants())), spec


def test_large_symmetric_and_alternating_groups(monkeypatch):
    expected = {
        ("(1 2)", cycle(1, 9)): (362880, (2,)),
        ("(1 2)", cycle(1, 10)): (3628800, (2,)),
        ("(1 2 3)", "(2 3 4 5 6 7 8 9 10)"): (1814400, ()),
        ("(1 2)", cycle(1, 12)): (479001600, (2,)),
    }
    for gens, (order, invariants) in expected.items():
        facts = group_facts(PermGens.from_cycles(*gens))
        assert (facts.order, facts.abelian_invariants) == (order, invariants), gens
        assert facts.sylow2_order == order & -order and not facts.sylow2_is_q16
        # the chains, with the closed form of S_n and A_n off, agree
        with monkeypatch.context() as m:
            m.setattr(groups, "_giant_facts", lambda *args: None)
            assert group_facts(PermGens.from_cycles(*gens)) == facts, gens


@st.composite
def disjoint_cycle_products(draw):
    """Generators on disjoint points, each one or two cycles: G is the
    product of the cyclic groups they generate. Orders with 2-part 16,
    whose Q16 test closes G, are left to the closure tests."""
    gens, orders, first = [], [], 1
    for _ in range(draw(st.integers(2, 4))):
        lengths = draw(st.lists(st.integers(2, 9), min_size=1, max_size=2))
        cycles = ""
        for n in lengths:
            cycles += "(" + " ".join(map(str, range(first, first + n))) + ")"
            first += n
        gens.append(cycles)
        orders.append(lcm(*lengths))
    assume(prod(orders) & -prod(orders) != 16)
    return gens, orders


def _cyclic_product_invariants(orders):
    """Invariant factors of the product of the cyclic groups C_n: the t-th
    largest power of each prime goes to the t-th factor."""
    powers = {}
    for n in orders:
        for p, e in factorize(n).items():
            powers.setdefault(p, []).append(p**e)
    factors = []
    for t in range(max(map(len, powers.values()), default=0)):
        f = 1
        for ps in powers.values():
            f *= sorted(ps, reverse=True)[t] if t < len(ps) else 1
        factors.append(f)
    return tuple(factors)


@settings(max_examples=100, deadline=None)
@given(disjoint_cycle_products())
def test_chain_invariants_of_cyclic_products(case):
    gens, orders = case
    facts = group_facts(PermGens.from_cycles(*gens))
    assert facts.abelian_invariants == _cyclic_product_invariants(orders)
    assert facts.order == prod(orders)
