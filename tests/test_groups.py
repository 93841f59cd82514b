import random
import re
from functools import reduce
from itertools import combinations
from math import gcd

import pytest

from noethercheck import groups
from noethercheck.chain import _perm_compose
from noethercheck.galois import verdict
from noethercheck.groups import (
    CATALOG_NAMES,
    CLOSURE_CAP,
    METACYCLIC_CAP,
    Catalog,
    Metacyclic,
    PermGens,
    abelian_invariants,
    group_facts,
)
from noethercheck.oracles import (
    FiniteGroupTable,
    Subgroup,
    abelian_invariants_by_quotient,
    abelian_invariants_by_relators,
    build_group,
    catalog_group,
    derived_subgroup,
    is_generalized_quaternion16,
    quotient_by,
    two_sylow,
)


def _mc(a, b, c, r):
    return build_group(Metacyclic(a, b, c, r))


def _whole(G):
    return Subgroup(G, frozenset(range(G.order)))


def _center(G):
    return frozenset(
        x for x in range(G.order) if all(G.mult(x, y) == G.mult(y, x) for y in range(G.order))
    )


def _order_histogram(G):
    hist = {}
    for x in range(G.order):
        o = G.element_order(x)
        hist[o] = hist.get(o, 0) + 1
    return hist


def test_cycle_parsing():
    s4 = PermGens.from_cycles("(1 2)", "(1 2 3 4)")
    assert s4.degree == 4
    assert s4.generators[0] == (1, 0, 2, 3)
    assert s4.generators[1] == (1, 2, 3, 0)
    assert PermGens.from_cycles("(1,2)(3,4)").generators[0] == (1, 0, 3, 2)
    assert PermGens.from_cycles("()").generators[0] == (0,)
    assert PermGens.from_cycles("(3)").degree == 3
    for bad in ("(1 1)", "(0 1)", "1 2", "(1 2", ""):
        with pytest.raises(ValueError):
            PermGens.from_cycles(bad)


def test_perm_gens_validation():
    assert PermGens(2, ((1, 0),)).degree == 2
    with pytest.raises(ValueError):
        PermGens(2, ((1, 1),))
    with pytest.raises(ValueError):
        PermGens(0, ((0,),))
    with pytest.raises(ValueError):
        PermGens.from_cycles()
    # the degree is checked before any image tuple is built
    assert PermGens.from_cycles(f"(1 {CLOSURE_CAP})").degree == CLOSURE_CAP
    with pytest.raises(ValueError, match=f"degree {CLOSURE_CAP + 1} exceeds closure cap {CLOSURE_CAP}"):
        PermGens.from_cycles("(1 2)", f"({CLOSURE_CAP + 1})")


def test_repeated_and_identity_generators_are_read_once():
    # the facts of the distinct generators other than the identity, with
    # the spec itself kept as given
    s3 = PermGens.from_cycles("(1 2 3)", "(1 2)")
    padded = PermGens.from_cycles("(1 2 3)", "()", "(1 2)", "(1 2 3)", "(1 2)")
    assert len(padded.generators) == 5
    assert group_facts(padded) == group_facts(s3)
    assert (group_facts(s3).order, group_facts(s3).abelian_invariants) == (6, (2,))
    c4 = group_facts(PermGens.from_cycles("(1 2 3 4)", "()", "(1 2 3 4)"))
    assert (c4.order, c4.abelian_invariants, c4.sylow2_order) == (4, (4,), 4)
    trivial = group_facts(PermGens.from_cycles("()", "(3)"))
    assert (trivial.order, trivial.abelian_invariants, trivial.sylow2_order) == (1, (), 1)


def _one_cycle(cycle, degree):
    img = list(range(degree))
    for x, y in zip(cycle, cycle[1:] + cycle[:1]):
        img[x - 1] = y - 1
    return tuple(img)


def test_from_cycles_composes_cycles_left_to_right():
    # one image list per generator must equal the product of its cycles,
    # applied left to right, also where the cycles share points
    assert PermGens.from_cycles("(1 2)(2 3)").generators == ((2, 0, 1),)
    assert PermGens.from_cycles("(1 2 3)(1 2 3)").generators == ((2, 0, 1),)
    rng = random.Random(15)
    for _ in range(300):
        degree = rng.randint(1, 12)
        strings, expected = [], []
        for _ in range(rng.randint(1, 3)):
            cycles = [rng.sample(range(1, degree + 1), rng.randint(1, degree)) for _ in range(rng.randint(0, 4))]
            sep = rng.choice((" ", ",", ", "))
            strings.append("".join("(" + sep.join(map(str, c)) + ")" for c in cycles) or "()")
            expected.append(cycles)
        spec = PermGens.from_cycles(*strings)
        for got, cycles in zip(spec.generators, expected):
            identity = tuple(range(spec.degree))
            want = reduce(_perm_compose, (_one_cycle(c, spec.degree) for c in cycles), identity)
            assert got == want, strings


def test_from_cycles_error_messages():
    for specs, message in (
        ((), "at least one generator is required"),
        (("(1 2",), "bad cycle notation: '(1 2'"),
        (("(1 2)", "1 2"), "bad cycle notation: '1 2'"),
        (("(0 1)",), "points must be positive: '(0 1)'"),
        (("(1 2)(3,1 ,3)",), "repeated point in cycle (3,1 ,3)"),
        (("(1 x)",), "point is not an integer: 'x'"),
        (("(1 2)", f"(1 {CLOSURE_CAP + 1})"), f"degree {CLOSURE_CAP + 1} exceeds closure cap {CLOSURE_CAP}"),
    ):
        with pytest.raises(ValueError) as err:
            PermGens.from_cycles(*specs)
        assert str(err.value) == message, specs


def test_metacyclic_validation():
    Metacyclic(8, 2, 4, 7)
    Metacyclic(1, 1, 0, 0)
    with pytest.raises(ValueError):
        Metacyclic(4, 2, 0, 2)
    with pytest.raises(ValueError):
        Metacyclic(8, 3, 0, 3)
    with pytest.raises(ValueError):
        Metacyclic(8, 2, 1, 7)
    with pytest.raises(ValueError):
        Metacyclic(4, 2, 4, 1)
    with pytest.raises(ValueError):
        Metacyclic(-2, 1, 0, 1)
    with pytest.raises(ValueError, match=f"metacyclic cap {METACYCLIC_CAP}"):
        Metacyclic(10**12, 10**12 + 1, 0, 1)
    # inside the cap, a table is still refused above the closure cap
    with pytest.raises(ValueError, match=f"closure cap {CLOSURE_CAP}"):
        build_group(Metacyclic(1000, 1001, 0, 1))


def test_build_orders():
    assert _mc(12, 1, 0, 1).order == 12
    assert _mc(8, 2, 0, 7).order == 16
    assert _mc(8, 2, 4, 7).order == 16
    assert _mc(1, 1, 0, 0).order == 1
    assert build_group(PermGens.from_cycles("(1 2)", "(1 2 3 4)")).order == 24
    assert build_group(Catalog("A4")).order == 12
    assert catalog_group("SL2_7").order == 336
    assert catalog_group("SL2_9").order == 720
    assert catalog_group("Ex3_3").order == 1024


def test_enumeration_cap():
    with pytest.raises(ValueError, match="cap"):
        FiniteGroupTable(0, [1], lambda x, y: (x + y) % 10, 5, "Z10")
    G = FiniteGroupTable(0, [1], lambda x, y: (x + y) % 10, 10, "Z10")
    assert G.order == 10


def test_group_axioms_sampled():
    rng = random.Random(97)
    for name in ("Q16", "S4", "C12", "SL2_7"):
        G = catalog_group(name)
        xs = [rng.randrange(G.order) for _ in range(20)]
        for x in xs:
            assert G.mult(x, 0) == x and G.mult(0, x) == x
            assert G.mult(x, G.inv(x)) == 0
            assert G.power(x, -1) == G.inv(x)
            o = G.element_order(x)
            assert G.order % o == 0
            assert G.power(x, o) == 0
            assert all(G.power(x, k) != 0 for k in range(1, o))
        for _ in range(40):
            x, y, z = (rng.randrange(G.order) for _ in range(3))
            assert G.mult(G.mult(x, y), z) == G.mult(x, G.mult(y, z))


def test_metacyclic_table_of_order_10000():
    G = _mc(5000, 2, 0, 4999)
    assert G.order == 10000
    s, t = G.generator_indices
    assert G.element_order(s) == 5000
    assert G.element_order(t) == 2
    assert G.mult(t, G.mult(s, t)) == G.inv(s)
    rng = random.Random(2)
    for _ in range(25):
        x = rng.randrange(G.order)
        assert G.mult(x, G.inv(x)) == 0
    assert derived_subgroup(G).order == 2500


def test_involution_counts():
    assert _order_histogram(catalog_group("D16")).get(2) == 9
    assert _order_histogram(catalog_group("SD16")).get(2) == 5
    assert _order_histogram(catalog_group("Q16")).get(2) == 1
    assert _order_histogram(catalog_group("Q16")) == {1: 1, 2: 1, 4: 10, 8: 4}


def _derived_brute(G):
    comms = set()
    for x in range(G.order):
        for y in range(G.order):
            comms.add(G.mult(G.mult(x, y), G.inv(G.mult(y, x))))
    return G.closure(comms)


def test_derived_subgroup_matches_brute_force():
    for name in ("C12", "A4", "S4", "D16", "SD16", "Q16"):
        G = catalog_group(name)
        assert derived_subgroup(G).members == _derived_brute(G)
    G = _mc(7, 4, 0, 6)
    assert derived_subgroup(G).members == _derived_brute(G)
    G = build_group(PermGens.from_cycles("(1 2 3)", "(3 4 5)"))
    assert derived_subgroup(G).members == _derived_brute(G)


def test_derived_subgroup_known():
    assert derived_subgroup(catalog_group("C8")).order == 1
    assert derived_subgroup(catalog_group("Q16")).order == 4
    assert derived_subgroup(catalog_group("S4")).order == 12
    assert derived_subgroup(catalog_group("A4")).order == 4
    assert derived_subgroup(catalog_group("SL2_7")).order == 336
    assert derived_subgroup(catalog_group("SL2_9")).order == 720


def test_derived_subgroup_is_normal():
    for name in ("S4", "Q16", "SD16"):
        G = catalog_group(name)
        N = derived_subgroup(G).members
        for g in range(G.order):
            gi = G.inv(g)
            assert all(G.mult(G.mult(g, x), gi) in N for x in N)


def test_abelian_invariants_known():
    assert abelian_invariants(catalog_group("C1")) == ()
    assert abelian_invariants(catalog_group("C8")) == (8,)
    assert abelian_invariants(catalog_group("C12")) == (12,)
    assert abelian_invariants(catalog_group("Q16")) == (2, 2)
    assert abelian_invariants(catalog_group("D16")) == (2, 2)
    assert abelian_invariants(catalog_group("SD16")) == (2, 2)
    assert abelian_invariants(catalog_group("S4")) == (2,)
    assert abelian_invariants(catalog_group("A4")) == (3,)
    assert abelian_invariants(catalog_group("SL2_7")) == ()
    assert abelian_invariants(catalog_group("Ex3_3")) == (16, 2)


def test_abelian_invariants_of_products():
    # C_a x C_b has invariant factors (lcm, gcd).
    for a, b in ((6, 4), (8, 2), (9, 3), (12, 18), (5, 7), (2, 2), (64, 64), (4096, 1), (65536, 1)):
        expect = [x for x in (a * b // gcd(a, b), gcd(a, b)) if x > 1]
        assert abelian_invariants(_mc(a, b, 0, 1)) == tuple(expect)


def test_abelian_invariants_properties():
    for name in ("C12", "S4", "A4", "Q16", "D16", "Ex3_3", "SL2_9"):
        G = catalog_group(name)
        invs = abelian_invariants(G)
        prod = 1
        for m in invs:
            prod *= m
        assert prod == G.order // derived_subgroup(G).order
        assert all(invs[i + 1] > 1 and invs[i] % invs[i + 1] == 0 for i in range(len(invs) - 1))


def test_abelian_invariants_match_quotient_oracle():
    for name in CATALOG_NAMES:
        G = catalog_group(name)
        assert abelian_invariants(G) == abelian_invariants_by_quotient(G), name


def test_isomorphic_presentations_agree():
    mc = _mc(8, 2, 0, 7)
    pg = build_group(PermGens.from_cycles("(1 2 3 4 5 6 7 8)", "(2 8)(3 7)(4 6)"))
    assert pg.order == mc.order == 16
    assert abelian_invariants(pg) == abelian_invariants(mc)
    assert _order_histogram(pg) == _order_histogram(mc)
    assert derived_subgroup(pg).order == derived_subgroup(mc).order
    assert is_generalized_quaternion16(_whole(pg)) == is_generalized_quaternion16(_whole(mc))


def test_max_cyclic_two_quotient():
    # the largest n with G onto the cyclic group of order 2**n, as the
    # verdict's cyclic_2power_quotient check reports it
    expected = {
        Catalog("C8"): 3,
        Catalog("C12"): 2,
        Catalog("C7"): 0,
        Catalog("Q16"): 1,
        Catalog("S4"): 1,
        Catalog("A4"): 0,
        Catalog("SL2_7"): 0,
        Catalog("Ex3_3"): 4,
        Metacyclic(7, 4, 0, 6): 2,
    }
    for spec, n in expected.items():
        check = verdict(spec).checks[0]
        assert check.name == "cyclic_2power_quotient"
        assert re.search(r"2\^(\d+)\)?$", check.detail).group(1) == str(n), spec


def test_two_sylow():
    expected = {"C12": 4, "S4": 8, "A4": 4, "SL2_7": 16, "SL2_9": 16, "C7": 1, "Q16": 16}
    for name, order in expected.items():
        G = catalog_group(name)
        P = two_sylow(G)
        assert P.order == order
        assert all(o & (o - 1) == 0 for o in (G.element_order(x) for x in P.members))
        assert two_sylow(G).members == P.members
    assert two_sylow(catalog_group("Ex3_3")).order == 1024


def test_is_generalized_quaternion16():
    assert is_generalized_quaternion16(_whole(catalog_group("Q16")))
    assert not is_generalized_quaternion16(_whole(catalog_group("D16")))
    assert not is_generalized_quaternion16(_whole(catalog_group("SD16")))
    assert not is_generalized_quaternion16(_whole(catalog_group("C16")))
    assert not is_generalized_quaternion16(two_sylow(catalog_group("C12")))
    assert is_generalized_quaternion16(two_sylow(catalog_group("SL2_7")))
    assert is_generalized_quaternion16(two_sylow(catalog_group("SL2_9")))


def _q16_by_element_orders(H):
    """The recognizer as first written, with element orders and inverses
    taken in the whole group: the reference for the one that multiplies
    inside H."""
    if H.order != 16:
        return False
    G = H.group
    for a in sorted(H.members):
        if G.element_order(a) != 8:
            continue
        pw = [0]
        for _ in range(7):
            pw.append(G.mult(pw[-1], a))
        for b in sorted(H.members - set(pw)):
            if G.mult(b, b) == pw[4] and G.mult(G.mult(b, a), G.inv(b)) == pw[7]:
                return True
    return False


def test_q16_recognizer_matches_reference():
    subgroups = {name: two_sylow(catalog_group(name)) for name in CATALOG_NAMES}
    for name in ("D16", "SD16", "Q16", "C16"):
        subgroups[name + " whole"] = _whole(catalog_group(name))
    subgroups["C8xC2"] = _whole(_mc(8, 2, 0, 1))
    answers = {name: is_generalized_quaternion16(H) for name, H in subgroups.items()}
    assert answers == {name: _q16_by_element_orders(H) for name, H in subgroups.items()}
    assert {name for name, yes in answers.items() if yes} == {"Q16", "Q16 whole", "SL2_7", "SL2_9"}


def test_quotient_by():
    S4 = catalog_group("S4")
    Q = quotient_by(S4, derived_subgroup(S4))
    assert Q.order == 2
    q16 = catalog_group("Q16")
    Z = Subgroup(q16, _center(q16))
    assert Z.order == 2
    QZ = quotient_by(q16, Z)
    assert QZ.order == 8
    assert abelian_invariants_by_relators(QZ) == (2, 2)
    # a quotient is built from no spec, so it carries no invariants
    with pytest.raises(ValueError, match="not built from a group spec"):
        abelian_invariants(QZ)
    H = Subgroup(S4, S4.closure([S4.generator_indices[0]]))
    assert H.order == 2
    with pytest.raises(ValueError, match="normal"):
        quotient_by(S4, H)
    with pytest.raises(ValueError):
        quotient_by(S4, Subgroup(q16, frozenset({0})))


def test_subgroup_validation():
    G = catalog_group("Q16")
    with pytest.raises(ValueError):
        Subgroup(G, frozenset({1}))
    with pytest.raises(ValueError):
        Subgroup(G, frozenset({0, 1, 2}))
    a = next(x for x in range(G.order) if G.element_order(x) == 8)
    with pytest.raises(ValueError):
        Subgroup(G, frozenset({0, a}))
    assert Subgroup(G, G.closure([a])).order == 8


def _is_subgroup_by_all_products(G, H):
    """The subgroup test as first written, with all |H|**2 products: the
    reference for the one that closes H from generators taken from H."""
    if 0 not in H or G.order % len(H):
        return False
    return all(G.inv(x) in H and all(G.mult(x, y) in H for y in H) for x in H)


def test_subgroup_check_matches_all_products():
    # every subset with the identity of S3, D8, Q8 and C8; a rejection at a
    # product names two members whose product is not one
    tables = (
        build_group(PermGens.from_cycles("(1 2)", "(1 2 3)")),
        _mc(4, 2, 0, 3),
        _mc(4, 2, 2, 3),
        _mc(8, 1, 0, 1),
    )
    accepted = 0
    for G in tables:
        for k in range(G.order):
            for rest in combinations(range(1, G.order), k):
                H = frozenset((0,) + rest)
                try:
                    Subgroup(G, H)
                except ValueError as err:
                    assert not _is_subgroup_by_all_products(G, H), (G, sorted(H))
                    found = re.fullmatch(r"not closed under multiplication at \((\d+), (\d+)\)", str(err))
                    if found:
                        x, s = map(int, found.groups())
                        assert x in H and s in H and G.mult(x, s) not in H, (G, sorted(H))
                else:
                    assert _is_subgroup_by_all_products(G, H), (G, sorted(H))
                    accepted += 1
    # S3, D8, Q8 and C8 have 6, 10, 6 and 4 subgroups
    assert accepted == 26


def test_closure():
    G = catalog_group("C12")
    assert G.closure([]) == frozenset({0})
    g = G.generator_indices[0]
    assert len(G.closure([g])) == 12
    assert len(G.closure([G.mult(g, g)])) == 6


def test_catalog():
    assert len(CATALOG_NAMES) == 72
    assert len(set(CATALOG_NAMES)) == 72
    for n in (1, 5, 64):
        assert f"C{n}" in CATALOG_NAMES
        assert catalog_group(f"C{n}").order == n
    for name, order in (("D16", 16), ("SD16", 16), ("Q16", 16), ("S4", 24), ("A4", 12)):
        assert name in CATALOG_NAMES
        assert catalog_group(name).order == order
    assert catalog_group("Q16").label == "Q16"
    for bad in ("NOPE", "C0", "C65", "c8", "Q8", "C1\u0662", "C6\u0664"):
        with pytest.raises(ValueError):
            catalog_group(bad)
    # digits other than ASCII ones name no catalog group
    for bad in ("C1\u0662", "C6\u0664"):
        assert bad not in CATALOG_NAMES
        with pytest.raises(ValueError):
            group_facts(Catalog(bad))
