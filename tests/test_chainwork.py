"""The per-spec comparison of tools/chainwork.py on hand-made records:
how many specs did more, less and the same work of each kind, the largest
increases, the specs whose route changed and those whose facts differ,
and the exit status these give. No spec is run."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "chainwork.py"
_spec = importlib.util.spec_from_file_location("chainwork", _PATH)
chainwork = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(chainwork)

FACTS = [6, [2], 2, False]


def _record(spec, compositions=10, inverses=2, sifts=3, passes=1, chains=1, giants=0, facts=FACTS):
    # as the runner writes them: the spec, the six counts and the facts
    return [spec, [compositions, inverses, sifts, passes, chains, giants], facts]


PARENT = [_record("perm:(1 2);(1 2 3)"), _record("perm:(1 2 3 4 5);(1 2 3 4 5 6 7 8)"), _record("catalog:SL2_7")]


def test_identical_records_tally_every_spec_as_the_same(capsys):
    table, largest, routes, facts = chainwork.compare(PARENT, list(PARENT))
    assert table == [(0, 0, 3)] * len(chainwork.WORK)
    assert (largest, routes, facts) == ([[]] * len(chainwork.WORK), [], [])
    assert chainwork.show("REV", table, largest, routes, facts) == 0
    out = capsys.readouterr().out
    assert "compositions          0      0      3" in out
    assert "specs whose route changed: 0" in out and "specs whose facts differ: 0" in out


def test_savings_and_a_new_route_exit_0(capsys):
    # the giant moves onto the closed-form route and builds no chain
    saved = _record(PARENT[1][0], 0, 0, 0, 0, 0, giants=1)
    ours = [PARENT[0], saved, _record("catalog:SL2_7", compositions=8)]
    table, largest, routes, facts = chainwork.compare(ours, PARENT)
    assert table[0] == (0, 2, 1)
    assert table[1:] == [(0, 1, 2)] * 4
    assert largest == [[]] * len(chainwork.WORK)
    assert routes == [(PARENT[1][0], 1, 0)] and facts == []
    assert chainwork.show("REV", table, largest, routes, facts) == 0
    assert "onto the certified-giant route" in capsys.readouterr().out
    # and the other way round, more work and off the route, exits 1
    found = chainwork.compare(PARENT, ours)
    assert found[2] == [(PARENT[1][0], 0, 1)]
    assert chainwork.show("REV", *found) == 1
    assert "off the certified-giant route" in capsys.readouterr().out


def test_more_work_of_one_kind_in_one_spec_exits_1(capsys):
    ours = [PARENT[0], PARENT[1], _record("catalog:SL2_7", sifts=4)]
    table, largest, routes, facts = chainwork.compare(ours, PARENT)
    sifts = chainwork.WORK.index("sifts")
    assert table[sifts] == (1, 0, 2)
    assert largest[sifts] == [(1, "catalog:SL2_7")]
    assert chainwork.show("REV", table, largest, routes, facts) == 1
    assert "+1 catalog:SL2_7" in capsys.readouterr().out


def test_the_five_largest_increases_come_first():
    theirs = [_record(f"perm:({i} {i + 1})") for i in range(1, 9)]
    ours = [_record(f"perm:({i} {i + 1})", compositions=10 + i) for i in range(1, 9)]
    table, largest, _, _ = chainwork.compare(ours, theirs)
    assert table[0] == (8, 0, 0)
    assert largest[0] == [(i, f"perm:({i} {i + 1})") for i in (8, 7, 6, 5, 4)]


def test_a_difference_in_facts_exits_1_even_with_the_same_work(capsys):
    ours = [PARENT[0], PARENT[1], _record("catalog:SL2_7", facts="raised ValueError: cap")]
    table, largest, routes, facts = chainwork.compare(ours, PARENT)
    assert table == [(0, 0, 3)] * len(chainwork.WORK)
    assert facts == [("catalog:SL2_7", "raised ValueError: cap", FACTS)]
    assert chainwork.show("REV", table, largest, routes, facts) == 1
    assert "REV: [6, [2], 2, False]" in capsys.readouterr().out


def test_runs_over_other_specs_are_refused():
    with pytest.raises(ValueError, match="different specs"):
        chainwork.compare([_record("catalog:SL2_9"), *PARENT[1:]], PARENT)
    with pytest.raises(ValueError):
        chainwork.compare(PARENT[:2], PARENT)


def test_a_long_spec_is_shortened_with_its_length():
    spec = "perm:" + "(1 2 3)" * 40
    short = chainwork._short(spec)
    assert short.startswith(spec[:60]) and short.endswith(f"({len(spec)} characters)")
    assert chainwork._short("catalog:SL2_9") == "catalog:SL2_9"
