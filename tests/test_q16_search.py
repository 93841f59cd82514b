"""The Q16 test of the group facts against the 2-Sylow route.

group_facts reads the answer for a metacyclic presentation off its
parameters. For a permutation group it decides from one element a of order
8 and a search for b with b^2 = a^4 and b a b^-1 = a^-1, over a walk of a
stabilizer chain. A permutation group is walked on one orbit only: the
first of 16 or more points on which it keeps the 2-part 16, and none when
no orbit qualifies. The reference here closes G into a table, finds a
2-Sylow subgroup with two_sylow and recognizes it with
is_generalized_quaternion16, which share none of that code.
"""

import random
from itertools import combinations
from math import gcd

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from noethercheck import chain, groups, oracles
from noethercheck.chain import _perm_compose
from noethercheck.galois import verdict
from noethercheck.groups import METACYCLIC_CAP, Catalog, Metacyclic, PermGens, group_facts
from noethercheck.oracles import (
    FiniteGroupTable,
    Subgroup,
    build_group,
    catalog_group,
    is_generalized_quaternion16,
    two_sylow,
)

# groups of order 16 with a metacyclic presentation: the six with an
# element of order 8, and two without
ORDER_16 = {
    "Q16": Metacyclic(8, 2, 4, 7),
    "D16": Metacyclic(8, 2, 0, 7),
    "SD16": Metacyclic(8, 2, 0, 3),
    "C16": Metacyclic(16, 1, 0, 1),
    "C8xC2": Metacyclic(8, 2, 0, 1),
    "M16": Metacyclic(8, 2, 0, 5),
    "C4:C4": Metacyclic(4, 4, 0, 3),
    "C4xC4": Metacyclic(4, 4, 0, 1),
}


def _by_sylow(G):
    return G.sylow2_order == 16 and is_generalized_quaternion16(two_sylow(G))


def _cycle(first, n):
    return tuple(range(first + 1, first + n)) + (first,)


def _regular(m, odd=(), carried=False):
    """m acting on its 16 elements by right multiplication, times one cycle
    of each odd length on further points: as generators of their own, or
    carried by the first generator of m, which gives the same product
    since the orders are coprime."""
    G = build_group(m)
    gens = [tuple(G.mult(x, g) for x in range(G.order)) for g in G.generator_indices]
    degree = G.order + sum(odd)
    gens = [g + tuple(range(G.order, degree)) for g in gens]
    first = G.order
    for n in odd:
        cyc = tuple(range(first)) + _cycle(first, n) + tuple(range(first + n, degree))
        if carried:
            gens[0] = tuple(cyc[x] for x in gens[0])
        else:
            gens.append(cyc)
        first += n
    return PermGens(degree, tuple(gens))


def test_regular_groups_of_order_16():
    for name, m in ORDER_16.items():
        for spec in (
            m,
            _regular(m),
            _regular(m, (3,)),
            _regular(m, (3, 5)),
            _regular(m, (3, 9), carried=True),
        ):
            facts = group_facts(spec)
            assert facts.sylow2_order == 16, (name, spec)
            assert facts.sylow2_is_q16 == _by_sylow(build_group(spec)) == (name == "Q16"), (name, spec)


def test_symmetric_and_special_linear_groups():
    specs = {
        "S6": PermGens.from_cycles("(1 2)", "(1 2 3 4 5 6)"),
        "S7": PermGens.from_cycles("(1 2)", "(1 2 3 4 5 6 7)"),
        "SL2_7": Catalog("SL2_7"),
        "SL2_9": Catalog("SL2_9"),
    }
    for name, spec in specs.items():
        facts = group_facts(spec)
        assert facts.sylow2_order == 16, name
        assert facts.sylow2_is_q16 == _by_sylow(build_group(spec)) == name.startswith("SL2"), name


def test_metacyclic_rule_on_every_small_presentation():
    # every valid presentation with 2-part 16 and a*b <= 144
    count = q16 = 0
    for a in range(1, 145):
        for b in range(1, 144 // a + 1):
            if a * b & -(a * b) != 16:
                continue
            for r in (r for r in range(a) if gcd(r, a) == 1 and pow(r, b, a) == 1 % a):
                for c in (c for c in range(a) if c * (r - 1) % a == 0):
                    spec = Metacyclic(a, b, c, r)
                    expected = _by_sylow(build_group(spec))
                    assert group_facts(spec).sylow2_is_q16 == expected, spec
                    count += 1
                    q16 += expected
    assert (count, q16) == (1455, 37)


ODD_PRIMES = (3, 5, 7, 11, 13, 101, 257, 65537, 999983, 1000003)


@st.composite
def large_presentations_two_part_16(draw):
    """Valid presentations with 2-part 16 and a*b up to METACYCLIC_CAP. a
    is a_2 times a few odd prime powers q, and r is put together by the
    Chinese remainder theorem from a unit of order dividing b modulo each
    factor: one of those listed modulo a_2, and modulo q, whose unit group
    is cyclic of order phi, -1 when b is even or a power x**(phi/gcd(phi,
    b)). c is a multiple of a/gcd(a, r - 1). a_2 = 8, r = -1 modulo a_2 and
    c = a/2, drawn often, give most of the Q16 cases."""
    a2 = draw(st.sampled_from([1, 2, 4, 8, 8, 8, 16]))
    b2 = 16 // a2
    a, parts = a2, []
    for p in draw(st.lists(st.sampled_from(ODD_PRIMES), max_size=3, unique=True)):
        q = p ** draw(st.integers(1, 3))
        if a * q * b2 <= METACYCLIC_CAP:
            a *= q
            parts.append((p, q))
    b = b2 * (2 * draw(st.integers(0, (METACYCLIC_CAP // (a * b2) - 1) // 2)) + 1)
    units = [x for x in range(a2) if x % 2 and pow(x, b, a2) == 1 % a2] or [0]
    r = units[-1] if draw(st.booleans()) else draw(st.sampled_from(units))
    m = a2
    for p, q in parts:
        if b % 2 == 0 and draw(st.booleans()):
            rq = q - 1
        else:
            x = draw(st.integers(1, q - 1))
            if x % p == 0:
                x += 1
            phi = q // p * (p - 1)
            rq = pow(x, phi // gcd(phi, b), q)
        r += m * ((rq - r) * pow(m, -1, q) % q)
        m *= q
    step = a // gcd(a, r - 1)
    if a % 2 == 0 and a // 2 % step == 0 and draw(st.booleans()):
        c = a // 2
    else:
        c = step * draw(st.integers(0, a // step - 1))
    return Metacyclic(a, b, c, r)


def _power(compose, x, k):
    out = (0, 0)
    while k:
        if k & 1:
            out = compose(out, x)
        x = compose(x, x)
        k >>= 1
    return out


def _sylow_closure_is_q16(m):
    """The 16-element closure of s**(a/a_2) and t**k, for k = (b/b_2) times
    the odd part of a/gcd(a, c), recognized by is_generalized_quaternion16:
    a subgroup of order 16, so a 2-Sylow subgroup."""
    a, b, c = m.a, m.b, m.c
    compose = oracles._metacyclic_compose(m)
    o = a // gcd(a, c)
    k = b // (b & -b) * (o // (o & -o))
    gens = [(a // (a & -a) % a, 0), _power(compose, (0, 1 % b), k)]
    P = FiniteGroupTable((0, 0), gens, compose, 16, "P")
    assert P.order == 16, m
    return is_generalized_quaternion16(Subgroup(P, frozenset(range(16))))


def test_metacyclic_rule_up_to_the_cap():
    seen = {True: 0, False: 0}

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(large_presentations_two_part_16())
    def check(spec):
        facts = group_facts(spec)
        assert facts.sylow2_order == 16
        assert facts.sylow2_is_q16 == _sylow_closure_is_q16(spec), spec
        seen[facts.sylow2_is_q16] += 1

    check()
    assert seen[True] >= 20 and seen[False] >= 100, seen


@st.composite
def perm_specs_two_part_16(draw):
    """Permutation groups of degree at most 8 with 2-part 16. Each
    generator permutes the points inside the same blocks, so the group lies
    in a product of small symmetric groups. With three generators, these
    block sizes give that 2-part to about half of the groups drawn, of
    orders 16 to 720."""
    sizes = draw(st.sampled_from([(6,), (4, 3), (5, 3), (4, 2), (5, 2), (4, 2, 2)]))
    gens = []
    for _ in range(3):
        g, first = [], 0
        for n in sizes:
            g += [first + x for x in draw(st.permutations(range(n)))]
            first += n
        gens.append(tuple(g))
    spec = PermGens(sum(sizes), tuple(gens))
    assume(group_facts(spec).sylow2_order == 16)
    return spec


def test_small_permutation_groups():
    seen = set()

    @settings(max_examples=210, derandomize=True, deadline=None)
    @given(perm_specs_two_part_16())
    def check(spec):
        facts = group_facts(spec)
        G = build_group(spec)
        assert (facts.order, facts.sylow2_is_q16) == (G.order, _by_sylow(G))
        seen.add(spec)

    check()
    # no permutation group of degree below 16 contains Q16, so these are
    # answered no by the orbit rule, with no walk, where the Sylow route
    # agrees
    assert len(seen) >= 200


def _shifted(spec, by, degree):
    """The generators of spec moved up by `by` points, on `degree` points."""
    return [
        tuple(range(by)) + tuple(x + by for x in g) + tuple(range(by + spec.degree, degree))
        for g in spec.generators
    ]


def _s6_on_3_subsets(natural=False):
    """S6 acting on its 20 three-point subsets, which it does faithfully,
    after its natural action on 6 points if natural is set."""
    subsets = list(combinations(range(6), 3))
    where = {t: i for i, t in enumerate(subsets)}
    first = 6 if natural else 0
    gens = []
    for g in ((1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)):
        on_sets = tuple(first + where[tuple(sorted(g[x] for x in t))] for t in subsets)
        gens.append((g if natural else ()) + on_sets)
    return PermGens(first + 20, tuple(gens))


def _count_walks(monkeypatch):
    walks = []
    walk = chain.StabilizerChain.walk

    def counted(self, *args):
        for g in walk(self, *args):
            walks.append(g)
            yield g

    monkeypatch.setattr(chain.StabilizerChain, "walk", counted)
    return walks


def _cycle_string(first, n):
    return "(" + " ".join(str(first + i) for i in range(n)) + ")"


def test_s6_times_long_odd_cycle_walks_nothing(monkeypatch):
    # the 2-part is 16, but the only orbit of 16 or more points carries the
    # odd cycle alone, so no 2-Sylow subgroup is Q16 and no element is
    # walked; the whole group would be 249840 elements for C_347
    walks = _count_walks(monkeypatch)
    for n in (101, 347):
        spec = PermGens.from_cycles("(1 2)", "(1 2 3 4 5 6)", _cycle_string(7, n))
        facts = group_facts(spec)
        assert (facts.order, facts.sylow2_order, facts.sylow2_is_q16) == (720 * n, 16, False)
        assert facts.abelian_invariants == (2 * n,)
    assert walks == []


def test_orbit_rule_agrees_with_the_sylow_route(monkeypatch):
    sl2_7 = groups._catalog_spec("SL2_7")
    c17 = _cycle(0, 17)
    # C_17 on points 1..17 before SL2_7 on the next 48: the first long
    # orbit has odd 2-part, and the second decides
    c17_then_sl2_7 = PermGens(65, tuple([c17 + tuple(range(17, 65))] + _shifted(sl2_7, 17, 65)))
    # SL2_7 x C_5, the 5-cycle carried by the first generator
    s, t = _shifted(sl2_7, 0, 53)
    s = s[:48] + _cycle(48, 5)
    sl2_7_c5 = PermGens(53, (s, t))
    # spec, Q16 or not, and the size of the orbit whose image is walked
    specs = {
        "C17 then SL2_7": (c17_then_sl2_7, True, 48),
        "SL2_7 x C5": (sl2_7_c5, True, 48),
        "Q16 x C17": (_regular(ORDER_16["Q16"], (17,)), True, 16),
        "S6 on 3-subsets": (_s6_on_3_subsets(), False, 20),
        "S6 on points and 3-subsets": (_s6_on_3_subsets(natural=True), False, 20),
    }
    walks = _count_walks(monkeypatch)
    for name, (spec, q16, walked) in specs.items():
        walks.clear()
        facts = group_facts(spec)
        G = build_group(spec)
        assert facts.sylow2_order == 16, name
        assert facts.sylow2_is_q16 == _by_sylow(G) == q16, name
        assert facts.order == G.order, name
        assert {len(g) for g in walks} == {walked}, name


def test_filtered_walk_keeps_every_square_root():
    rng = random.Random(15)
    for name in ("SL2_7", "SL2_9", "S4"):
        spec = groups._catalog_spec(name)
        G = chain.StabilizerChain(spec.degree)
        for g in spec.generators:
            G.add(g)
        elements = list(G.walk())
        assert len(set(elements)) == len(elements) == G.order()
        for c in rng.sample(elements[1:], 10):
            x = next(i for i, z in enumerate(c) if i != z)
            kept = list(G.walk(c))
            assert all(g[g[x]] == c[x] for g in kept), name
            roots = [g for g in elements if _perm_compose(g, g) == c]
            assert set(roots) <= set(kept), name
            assert set(kept) == {g for g in elements if g[g[x]] == c[x]}, name


def test_verdict_builds_no_table(monkeypatch):
    calls = []
    enumerate_ = oracles._enumerate
    init = FiniteGroupTable.__init__

    def enumerate_counted(*args):
        calls.append("_enumerate")
        return enumerate_(*args)

    def init_counted(self, *args):
        calls.append("FiniteGroupTable")
        init(self, *args)

    monkeypatch.setattr(oracles, "_enumerate", enumerate_counted)
    monkeypatch.setattr(FiniteGroupTable, "__init__", init_counted)
    groups._catalog_facts.cache_clear()
    catalog_group.cache_clear()
    assert not verdict(PermGens.from_cycles("(1 2)", "(1 2 3 4 5 6)")).sylow_is_q16
    assert verdict(Catalog("SL2_9")).sylow_is_q16
    assert verdict(Metacyclic(24, 2, 12, 23)).sylow_is_q16
    assert calls == []
    # the counters see a table when one is built
    catalog_group("SL2_9")
    assert calls == ["FiniteGroupTable", "_enumerate"]


def test_catalog_spec_builds_only_the_name_asked_for(monkeypatch):
    built = []
    from_cycles = PermGens.from_cycles

    def counted(cls, *specs):
        built.append(specs)
        return from_cycles(*specs)

    monkeypatch.setattr(PermGens, "from_cycles", classmethod(counted))
    assert groups._catalog_spec("C8") == Metacyclic(8, 1, 0, 1)
    assert groups._catalog_spec("Q16") == Metacyclic(8, 2, 4, 7)
    assert built == []
    assert groups._catalog_spec("SL2_9").degree == 80
    assert len(built) == 1
