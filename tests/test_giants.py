"""S_n and A_n answered from the cycles of their generators, before any
stabilizer chain: the facts of _giant_facts against those of the chain on
the same generators, groups that look like giants but are not, which must
reach the chain, and the chain-cap error, which the closed form must raise
exactly where the chain would."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noethercheck import chain, groups
from noethercheck.cli import main
from noethercheck.groups import PermGens, group_facts


def _cycle(first, n):
    return "(" + " ".join(map(str, range(first, first + n))) + ")"


def _chain_facts(monkeypatch, pg):
    """The facts of pg with the recognizer switched off."""
    with monkeypatch.context() as m:
        m.setattr(groups, "_giant_facts", lambda *args: None)
        return group_facts(pg)


def _answered(monkeypatch):
    """Patch _giant_facts to record whether it answered each call, or
    "refused" where it raised."""
    answers = []
    giant_facts = groups._giant_facts

    def recorded(*args):
        try:
            facts = giant_facts(*args)
        except ValueError:
            answers.append("refused")
            raise
        answers.append(facts is not None)
        return facts

    monkeypatch.setattr(groups, "_giant_facts", recorded)
    return answers


# each with a prime cycle that a power of one generator isolates, and none
# a giant: PSL(2,7) on the 8 points of the projective line (a 7-cycle,
# p = n - 1), PSL(2,5) on 6 points (p = n - 1), PSL(2,8) on 9 points (a
# 7-cycle, p = n - 2), AGL(1,13) (a 13-cycle, p = n), C2 wr C3 from a
# transposition and S3 wr S2 and S5 wr S2 from a transposition or a 3- or
# 5-cycle inside a block of half the points (p = n/2 in the last two)
TRAPS = {
    "PSL(2,7)": (["(1 2 3 4 5 6 7)", "(1 8)(2 7)(3 4)(5 6)"], 168),
    "PSL(2,5)": (["(1 2 3 4 5)", "(1 6)(2 5)"], 60),
    "PSL(2,8)": (["(2 3 5 4 7 8 6)", "(1 9)(3 6)(4 7)(5 8)", "(1 2)(3 4)(5 6)(7 8)"], 504),
    "AGL(1,13)": ([_cycle(1, 13), "(2 3 5 9 4 7 13 12 10 6 11 8)"], 156),
    "C2wrC3": (["(1 2)", "(1 3 5)(2 4 6)"], 24),
    "S3wrS2": (["(1 2 3)", "(1 2)", "(1 4)(2 5)(3 6)"], 72),
    "S5wrS2": (["(1 2)", "(1 2 3 4 5)", "(1 6)(2 7)(3 8)(4 9)(5 10)"], 28800),
}

# S_n and A_n that each case of the recognizer answers: Jordan's n/2 < p
# <= n - 3 with p = 5 (S8 from a 5-cycle times a transposition, A9 from a
# 5-cycle beside an odd 3-cycle-free part), and a transposition or a
# 3-cycle whose smallest block is the orbit, also moved up the points
GIANTS = {
    "S6": (["(1 2)", _cycle(1, 6)], 720),
    "A7": (["(1 2 3)", "(3 4 5 6 7)"], 2520),
    "S8": (["(1 2 3 4 5)(6 7)", _cycle(1, 8)], 40320),
    "A9": (["(1 2 3 4 5)(6 7)(8 9)", _cycle(1, 9)], 181440),
    "S10 on 11..20": (["(11 12)", _cycle(11, 10)], 3628800),
    "A5 adjacent": (["(1 2 3)", "(2 3 4)", "(3 4 5)"], 60),
}


def test_traps_reach_the_chain(monkeypatch):
    answers = _answered(monkeypatch)
    for name, (gens, order) in TRAPS.items():
        answers.clear()
        facts = group_facts(PermGens.from_cycles(*gens))
        assert (answers, facts.order) == ([False], order), name


def test_named_giants_skip_the_chain(monkeypatch):
    answers = _answered(monkeypatch)
    for name, (gens, order) in GIANTS.items():
        pg = PermGens.from_cycles(*gens)
        answers.clear()
        facts = group_facts(pg)
        assert (answers, facts.order) == ([True], order), name
        assert facts == _chain_facts(monkeypatch, pg), name


@st.composite
def generator_sets(draw):
    """Two to four permutations of n = 5..9 points: each at random, a short
    cycle, or, for n = 6, 8 and 9, one that keeps a system of blocks of b
    points, so that imprimitive groups with transpositions and 3-cycles are
    drawn too; then, half the time, the points moved up into a larger
    degree. One seeded Random makes every choice, which keeps a draw cheap."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = rng.randint(5, 9)
    sizes = [b for b in range(2, n) if n % b == 0]
    b = rng.choice(sizes) if sizes and rng.random() < 0.5 else None
    gens = []
    for _ in range(rng.randint(2, 4)):
        kind = rng.choice(["random", "short", "blocks"] if b else ["random", "short"])
        if kind == "random":
            gens.append(rng.sample(range(n), n))
        elif kind == "short":
            pts = rng.sample(range(n), rng.randint(2, 5))
            g = list(range(n))
            for x, y in zip(pts, pts[1:] + pts[:1]):
                g[x] = y
            gens.append(g)
        else:
            blocks = rng.sample(range(n // b), n // b)
            inner = [rng.sample(range(b), b) for _ in range(n // b)]
            gens.append([blocks[x // b] * b + inner[x // b][x % b] for x in range(n)])
    degree = rng.randint(n, 3 * n) if rng.random() < 0.5 else n
    labels = rng.sample(range(degree), degree)
    moved = []
    for g in gens:
        image = list(range(degree))
        for x in range(n):
            image[labels[x]] = labels[g[x]]
        moved.append(tuple(image))
    return PermGens(degree, tuple(moved))


def test_recognizer_agrees_with_the_chain(monkeypatch):
    answers = _answered(monkeypatch)

    @settings(max_examples=300, deadline=None)
    @given(generator_sets())
    def agrees(pg):
        facts = group_facts(pg)
        assert facts == _chain_facts(monkeypatch, pg)

    agrees()
    # the draws reach both outcomes
    assert 0 < sum(answers) < len(answers)


def _giant_specs(n):
    """S_n from a transposition and an n-cycle; A_n from a 3-cycle and the
    even one of an n-cycle and an (n - 1)-cycle."""
    long = _cycle(1, n) if n % 2 else _cycle(2, n - 1)
    return {"S": "perm:(1 2);" + _cycle(1, n), "A": "perm:(1 2 3);" + long}


@pytest.mark.parametrize("n", range(5, 16))
def test_cap_refusals_match_the_chain(monkeypatch, capsys, n):
    # the chain of S_n stores 2n images per point of orbits of lengths n
    # down to 2, and that of A_n down to 3: a cap at that total lets the
    # chain pass, one less refuses it, and the recognizer must agree both
    # times, exit code and message
    for kind, spec in _giant_specs(n).items():
        images = 2 * n * (n * (n + 1) // 2 - (1 if kind == "S" else 3))
        for cap in (images, images - 1):
            monkeypatch.setattr(chain, "CHAIN_CAP", cap)
            argv = ["check", "--group", spec, "--field", "Q"]
            answers = _answered(monkeypatch)
            ours = main(argv), *capsys.readouterr()
            assert answers == [True if cap == images else "refused"], (kind, n)
            with monkeypatch.context() as m:
                m.setattr(groups, "_giant_facts", lambda *args: None)
                theirs = main(argv), *capsys.readouterr()
            assert ours == theirs, (kind, n, cap)
            assert (ours[0] == 1) == (cap < images), (kind, n, cap)
