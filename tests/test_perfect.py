"""Perfect permutation groups, whose relator lattice reaches all of Z^m
while the chain for G is built: from then on no relator is folded, and the
invariants are (). Against the SL2(p) family of tools/families.py in closed
form, and against named groups whose orbits show none of their abelian
quotient but which are not perfect, so that the lattice must stop short of
Z^m and give their invariants."""

import time

from families import regular, sl2, sl2_facts

from noethercheck import chain, exact, groups
from noethercheck.groups import PermGens, group_facts

# A4; SL2(3) = Q8 : C3 on its 8 nonzero vectors; Q8 acting on itself by
# right multiplication, with their abelian invariants
HIDDEN_QUOTIENTS = {
    "A4": (PermGens.from_cycles("(1 2 3)", "(1 2)(3 4)"), (3,)),
    "SL2(3)": (PermGens.from_cycles(*sl2(3)), (3,)),
    "Q8": (PermGens.from_cycles(*regular(4, 2, 2, 3)), (2, 2)),
}


def _folds(monkeypatch, pg):
    """What each fold of group_facts(pg) returned, in order."""
    returned = []
    fold = exact.RelationLattice.fold

    def recorded(self, v):
        returned.append(fold(self, v))
        return returned[-1]

    with monkeypatch.context() as m:
        m.setattr(exact.RelationLattice, "fold", recorded)
        group_facts(pg)
    return returned


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


def test_non_perfect_groups_whose_orbits_show_no_quotient(monkeypatch):
    # each is transitive and none has an odd generator, so neither the
    # signs nor the orbits show the quotient; no fold reaches Z^m
    for name, (pg, invariants) in HIDDEN_QUOTIENTS.items():
        assert not any(_folds(monkeypatch, pg)), name
        assert group_facts(pg).abelian_invariants == invariants, name


def test_perfect_groups_are_proved_perfect(monkeypatch):
    # the last relator folded brings the lattice to Z^m, and the chain
    # passes none after it
    specs = {
        "SL2_7": groups._catalog_spec("SL2_7"),
        "SL2_9": groups._catalog_spec("SL2_9"),
        **{f"SL2({p})": PermGens.from_cycles(*sl2(p)) for p in (5, 7, 11, 13, 17)},
    }
    for name, pg in specs.items():
        returned = _folds(monkeypatch, pg)
        assert returned[-1] and not any(returned[:-1]), name
        assert group_facts(pg).abelian_invariants == (), name


def test_a_proved_perfect_group_builds_one_chain(monkeypatch):
    # the chain for G alone: SL2_9 walks it for the Q16 test, and SL2(5),
    # of 2-part 8, only reads its order; SL2(3), which is not perfect,
    # builds no other chain either
    assert _chains_built(monkeypatch, groups._catalog_spec("SL2_9")) == 1
    assert _chains_built(monkeypatch, PermGens.from_cycles(*sl2(5))) == 1
    assert _chains_built(monkeypatch, HIDDEN_QUOTIENTS["SL2(3)"][0]) == 1
