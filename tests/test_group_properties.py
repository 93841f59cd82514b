"""Property tests for the group layer: abelian invariants read off the BFS
relators against a Smith normal form of the defining relations and
against the derived-subgroup quotient oracle, the reported 2-Sylow order
against the 2-part of |G|, and the facts a metacyclic presentation gives
without enumeration against the closure table."""

from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from noethercheck.galois import verdict
from noethercheck.groups import (
    CATALOG_NAMES,
    Catalog,
    GroupFacts,
    Metacyclic,
    PermGens,
    abelian_invariants,
    build_group,
    group_facts,
    sylow2_is_q16,
)
from noethercheck.oracles import abelian_invariants_by_quotient


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
    2-part 16, the only case that closes a 2-Sylow subgroup."""
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
    G = build_group(spec)
    return GroupFacts(G.order, abelian_invariants(G), G.sylow2_order, sylow2_is_q16(G))


@st.composite
def perm_specs(draw):
    degree = draw(st.integers(1, 7))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=2, max_size=3))
    return PermGens(degree, tuple(tuple(g) for g in gens))


@settings(max_examples=60, deadline=None)
@given(metacyclic_specs())
def test_metacyclic_invariants_match_snf_and_oracle(spec):
    G = build_group(spec)
    invs = abelian_invariants(G)
    a, b, c, r = spec.a, spec.b, spec.c, spec.r
    assert invs == _snf_2col([[a, 0], [-c, b], [r - 1, 0]])
    assert invs == abelian_invariants_by_quotient(G)


@settings(max_examples=60, deadline=None)
@given(perm_specs())
def test_permutation_invariants_match_oracle(spec):
    G = build_group(spec)
    if G.order == 5040:
        # the only subgroup of S7 of that order is S7, with abelianization
        # C2; the oracle would validate A7 at |A7|^2 products, about 10 s
        expected = (2,)
    else:
        expected = abelian_invariants_by_quotient(G)
    assert abelian_invariants(G) == expected


@settings(max_examples=40, deadline=None)
@given(st.one_of(metacyclic_specs(), perm_specs()))
def test_sylow_order_is_two_part(spec):
    v = verdict(spec)
    assert v.sylow_order == _two_part(v.group_order)


@settings(max_examples=300, deadline=None)
@given(metacyclic_specs_two_part_16())
def test_metacyclic_facts_match_table(spec):
    assert group_facts(spec) == _table_facts(spec)


def test_catalog_facts_match_table():
    for name in CATALOG_NAMES:
        assert group_facts(Catalog(name)) == _table_facts(Catalog(name)), name
