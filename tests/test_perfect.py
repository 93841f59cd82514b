"""The proof of G = G' from element orders that lets a perfect permutation
group skip the chain for G', against groups whose abelianization is known:
the SL2(p) family of tools/families.py in closed form, and named groups
that pass the gate of _abelian_index, which reads 1 on them, but are not
perfect, so that the proof must fail and the chain for G' answer."""

import time

from families import regular, sl2, sl2_facts

from noethercheck import chain, groups
from noethercheck.chain import _perm
from noethercheck.exact import factorize
from noethercheck.groups import PermGens, group_facts

# A4; SL2(3) = Q8 : C3 on its 8 nonzero vectors; Q8 acting on itself by
# right multiplication, with their abelian invariants
GATE_PASSING = {
    "A4": (PermGens.from_cycles("(1 2 3)", "(1 2)(3 4)"), (3,)),
    "SL2(3)": (PermGens.from_cycles(*sl2(3)), (3,)),
    "Q8": (PermGens.from_cycles(*regular(4, 2, 2, 3)), (2, 2)),
}


def _cycles(pg):
    return [list(groups._cycles(g)) for g in pg.generators]


def _proved_perfect(pg):
    cycles = _cycles(pg)
    primes = sorted({p for cs in cycles for c in cs for p in factorize(len(c))})
    return groups._proved_perfect(tuple(map(_perm, pg.generators)), cycles, primes)


def _chains_built(monkeypatch, pg):
    """The number of StabilizerChain constructions of _perm_facts(pg)."""
    built = []
    init = chain.StabilizerChain.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    with monkeypatch.context() as m:
        m.setattr(chain.StabilizerChain, "__init__", counted)
        groups._perm_facts(pg)
    return len(built)


def test_sl2_family_matches_its_closed_forms():
    start = time.perf_counter()
    for p in (3, 5, 7, 11, 13, 23):
        facts = group_facts(PermGens.from_cycles(*sl2(p)))
        got = (facts.order, facts.abelian_invariants, facts.sylow2_order, facts.sylow2_is_q16)
        assert got == sl2_facts(p), p
    assert time.perf_counter() - start < 2


def test_non_perfect_groups_that_pass_the_gate_fall_back():
    for name, (pg, invariants) in GATE_PASSING.items():
        gens, cycles = tuple(map(_perm, pg.generators)), _cycles(pg)
        moved = groups._moved_orbits(gens, cycles)
        assert groups._abelian_index(gens, moved, cycles) == 1, name
        assert not _proved_perfect(pg), name
        assert group_facts(pg).abelian_invariants == invariants, name


def test_perfect_groups_are_proved_perfect():
    specs = {
        "SL2_7": groups._catalog_spec("SL2_7"),
        "SL2_9": groups._catalog_spec("SL2_9"),
        **{f"SL2({p})": PermGens.from_cycles(*sl2(p)) for p in (5, 7, 11, 13, 17)},
    }
    for name, pg in specs.items():
        assert _proved_perfect(pg), name
        assert group_facts(pg).abelian_invariants == (), name


def test_a_proved_perfect_group_builds_one_chain(monkeypatch):
    # the chain for G alone: SL2_9 walks it for the Q16 test, and SL2(5),
    # of 2-part 8, only reads its order; SL2(3) is not perfect, so the
    # chain for G' is built
    assert _chains_built(monkeypatch, groups._catalog_spec("SL2_9")) == 1
    assert _chains_built(monkeypatch, PermGens.from_cycles(*sl2(5))) == 1
    assert _chains_built(monkeypatch, GATE_PASSING["SL2(3)"][0]) > 1
