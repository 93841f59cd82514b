"""A permutation spec whose moved points are few and far apart in its
degree. The orbits are grown from the least point of each cycle, so they
read no point that the generators fix, and they are the orbits, in the
order and with the point order, that a search from every point of the
degree finds. A spec relabelled onto sparse points of a larger degree has
the facts of the spec it came from, on the chain, G' and Q16 routes as on
the closed-form ones."""

import random

from families import ORDER_16, TRAPS, regular, sl2
from hypothesis import given, settings
from hypothesis import strategies as st

from noethercheck import chain, groups
from noethercheck.groups import PermGens, group_facts


def _relabelled(pg, labels, degree):
    """pg with each point x moved to labels[x], in the given degree."""
    gens = []
    for g in pg.generators:
        image = list(range(degree))
        for x, y in enumerate(g):
            image[labels[x]] = labels[y]
        gens.append(tuple(image))
    return PermGens(degree, tuple(gens))


class _Recorded:
    """A generator in the chain's form that records each point it is asked
    the image of."""

    __slots__ = ("images", "read")

    def __init__(self, images, read):
        self.images, self.read = images, read

    def __len__(self):
        return len(self.images)

    def __getitem__(self, x):
        self.read.add(x)
        return self.images[x]


def _full_search(gens, degree):
    """The orbits of more than one point, searched from every point of the
    degree in turn, each in discovery order."""
    seen = [False] * degree
    orbits = []
    for start in range(degree):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        for x in orbit:  # grows while it is read
            for g in gens:
                if not seen[g[x]]:
                    seen[g[x]] = True
                    orbit.append(g[x])
        if len(orbit) > 1:
            orbits.append(orbit)
    return orbits


# intransitive, imprimitive, regular and product groups, each with orbits
# that a relabelling can put in any order
SPARSE = {
    **{name: gens for name, (gens, _) in TRAPS.items()},
    "Q16 x C105": regular(*ORDER_16["Q16"], odd=(3, 5, 7)),
    "C4xC4 x C3, carried": regular(*ORDER_16["C4xC4"], odd=(3,), carried=True),
    "SL2(5)": sl2(5),
    "two orbits": ["(1 2 3)(4 5)", "(1 2)(6 7 8 9)"],
}


def test_orbits_read_only_the_points_of_the_cycles():
    for name, cycles in SPARSE.items():
        pg = PermGens.from_cycles(*cycles)
        for seed, degree in enumerate((pg.degree + 1, 1000, 5000)):
            labels = random.Random(seed).sample(range(degree), pg.degree)
            gens = tuple(map(chain._perm, _relabelled(pg, labels, degree).generators))
            cycles_of = [list(groups._cycles(g)) for g in gens]
            support = {x for cs in cycles_of for cycle in cs for x in cycle}
            read = set()
            orbits = groups._moved_orbits(tuple(_Recorded(g, read) for g in gens), cycles_of)
            assert read <= support, (name, degree)
            assert orbits == _full_search(gens, degree), (name, degree)
            assert {x for orbit in orbits for x in orbit} == support, (name, degree)


@st.composite
def small_specs(draw):
    """One to four random permutations of at most 9 points, or a regular
    group of order 16 times up to three odd cycles on the points after it,
    each cycle a generator of its own or carried by the first, as
    tools/parity.py draws its groups of 2-part 16."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 9))
        gens = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=4))
        return PermGens(n, tuple(map(tuple, gens)))
    name = draw(st.sampled_from(sorted(ORDER_16)))
    odd = draw(st.lists(st.sampled_from((3, 5, 7, 9, 11, 13, 15)), max_size=3, unique=True))
    carried = draw(st.booleans())
    return PermGens.from_cycles(*regular(*ORDER_16[name], odd=tuple(odd), carried=carried))


@st.composite
def relabellings(draw):
    """A small spec and the same spec on labels drawn without repeats from
    a degree of at most 3000."""
    pg = draw(small_specs())
    degree = draw(st.integers(pg.degree, 3000))
    labels = draw(
        st.lists(st.integers(0, degree - 1), min_size=pg.degree, max_size=pg.degree, unique=True)
    )
    return pg, _relabelled(pg, labels, degree)


def test_relabelled_specs_keep_their_facts(monkeypatch):
    reached = set()
    derived_subgroup, q16_search = groups._derived_subgroup, groups._q16_search

    class Chain(chain.StabilizerChain):
        def __init__(self, degree):
            reached.add("chain of tuples" if degree > 256 else "chain of bytes")
            super().__init__(degree)

    def derived(*args):
        reached.add("G'")
        return derived_subgroup(*args)

    def q16(H):
        found = q16_search(H)
        reached.add(f"Q16 {found}")
        return found

    monkeypatch.setattr(groups, "StabilizerChain", Chain)
    monkeypatch.setattr(groups, "_derived_subgroup", derived)
    monkeypatch.setattr(groups, "_q16_search", q16)

    @settings(max_examples=200, deadline=None)
    @given(relabellings())
    def keeps(pair):
        pg, moved = pair
        assert group_facts(moved) == group_facts(pg)

    keeps()
    assert reached == {"chain of tuples", "chain of bytes", "G'", "Q16 True", "Q16 False"}
