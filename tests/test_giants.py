"""S_n and A_n answered from the cycles of their generators, before any
stabilizer chain: the facts of _giant_facts against those of the chain on
the same generators, groups that look like giants but are not, which must
reach the chain, and the chain-cap error, which the closed form must raise
exactly where the chain would."""

import math
import random

import pytest
from families import TRAPS, cycle, giants, perm_spec
from hypothesis import given, settings
from hypothesis import strategies as st

from noethercheck import chain, groups
from noethercheck.cli import main
from noethercheck.groups import PermGens, group_facts


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


# S_n and A_n that the recognizer answers: a 5-cycle of more than half the
# points, which needs no block test (S8 from a 5-cycle times a
# transposition, A9 from a 5-cycle beside an odd 3-cycle-free part); a
# transposition or a 3-cycle whose smallest block is the orbit; and a 5- or
# 7-cycle of at most half the points whose smallest block is the orbit;
# also moved up the points
GIANTS = {
    "S6": (["(1 2)", cycle(1, 6)], 720),
    "A7": (["(1 2 3)", "(3 4 5 6 7)"], 2520),
    "S8": (["(1 2 3 4 5)(6 7)", cycle(1, 8)], 40320),
    "A9": (["(1 2 3 4 5)(6 7)(8 9)", cycle(1, 9)], 181440),
    "S10 on 11..20": (["(11 12)", cycle(11, 10)], 3628800),
    "A5 adjacent": (["(1 2 3)", "(2 3 4)", "(3 4 5)"], 60),
    "S10 5-cycle": ([cycle(1, 5), cycle(1, 10)], 3628800),
    "A11 5-cycle": ([cycle(1, 5), cycle(1, 11)], 19958400),
    "S14 7-cycle": ([cycle(1, 7), cycle(1, 14)], 87178291200),
    "A11 5-cycle on 101..111": ([cycle(101, 5), cycle(101, 11)], 19958400),
}


def test_traps_reach_the_chain(monkeypatch):
    # each with a prime cycle that a power of one generator isolates, and
    # none a giant
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
    """Two to four permutations of n = 5..16 points: each at random or a
    short cycle; or, half the time for n not prime, each keeping one system
    of blocks of b points, either a cycle of 2 to 7 points inside one block
    or a permutation of the blocks that also permutes inside them, so that
    imprimitive groups with prime cycles of at most half the points are
    drawn too; then, half the time, the points moved up into a larger
    degree. One seeded Random makes every choice, which keeps a draw
    cheap."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = rng.randint(5, 16)
    sizes = [b for b in range(2, n) if n % b == 0]
    b = rng.choice(sizes) if sizes and rng.random() < 0.5 else None
    gens = []
    for _ in range(rng.randint(2, 4)):
        kind = rng.choice(["short", "blocks"] if b else ["random", "short"])
        if kind == "random":
            gens.append(rng.sample(range(n), n))
        elif kind == "short":
            first, m = (rng.randrange(n // b) * b, b) if b else (0, n)
            pts = rng.sample(range(first, first + m), rng.randint(2, min(m, 7)))
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
    tests = []  # (p, n, outcome) of each block test
    block_is_orbit = groups._block_is_orbit

    def recorded(gens, points, n):
        tests.append((len(points), n, block_is_orbit(gens, points, n)))
        return tests[-1][2]

    monkeypatch.setattr(groups, "_block_is_orbit", recorded)

    @settings(max_examples=300, deadline=None)
    @given(generator_sets())
    def agrees(pg):
        facts = group_facts(pg)
        assert facts == _chain_facts(monkeypatch, pg)

    agrees()
    # the draws reach both outcomes, and both outcomes of the block test on
    # a prime cycle of more than 3 and at most half the points
    assert 0 < sum(answers) < len(answers)
    assert {outcome for p, n, outcome in tests if 3 < p and 2 * p <= n} == {True, False}


def _isolated_primes(pg):
    """The primes p <= n - 3, for n the degree of pg, for which some
    generator has exactly one cycle whose length p divides, of length p."""
    n = pg.degree
    found = set()
    for g in pg.generators:
        lengths = [len(c) for c in groups._cycles(g)]
        for p in set(lengths):
            if p <= n - 3 and all(p % q for q in range(2, p)) and [m % p for m in lengths].count(0) == 1:
                found.add(p)
    return found


# seeds of random.Random, each drawing two random permutations of 200
# points that generate S200 or A200 and whose only certificates are prime
# cycles of 3 < p <= 100: seed 0 (p = 19, S200), 1 (p = 17, A200), 4 (p = 11,
# S200; its 79- and 83-cycles are not isolated) and 7 (p = 17 and 29, S200),
# sent to the chain by a recognizer that tested blocks only for p <= 3
RANDOM_PAIRS = {0: "S", 1: "A", 4: "S", 7: "S"}


@pytest.mark.parametrize("seed", sorted(RANDOM_PAIRS))
def test_random_pairs_with_a_short_prime_cycle_skip_the_chain(monkeypatch, seed):
    rng = random.Random(seed)
    pg = PermGens(200, tuple(tuple(rng.sample(range(200), 200)) for _ in range(2)))
    primes = _isolated_primes(pg)
    assert primes and 3 < min(primes) and 2 * max(primes) <= 200
    chains = []
    monkeypatch.setattr(groups, "StabilizerChain", lambda degree: chains.append(degree))
    facts = group_facts(pg)
    order = math.factorial(200) // (1 if RANDOM_PAIRS[seed] == "S" else 2)
    assert (facts.order, chains) == (order, [])


@pytest.mark.parametrize("first", ["(1 2)", "(1 2 3 4 5)"])
def test_an_orbit_past_the_chain_cap_is_refused_before_the_block_test(monkeypatch, capsys, first):
    # the first level of a chain for one moved orbit stores that orbit, so a
    # 3000-point orbit is refused before any block test or chain
    calls = []
    monkeypatch.setattr(groups, "_block_is_orbit", lambda *args: calls.append("blocks"))
    monkeypatch.setattr(groups, "StabilizerChain", lambda degree: calls.append("chain"))
    code = main(["check", "--group", perm_spec([first, cycle(1, 3000)]), "--field", "Q"])
    out, err = capsys.readouterr()
    assert (code, out, calls) == (1, "", [])
    assert err.startswith("error:") and f"chain cap {chain.CHAIN_CAP}" in err


@pytest.mark.parametrize("n", range(5, 16))
def test_cap_refusals_match_the_chain(monkeypatch, capsys, n):
    # the chain of S_n stores 2n images per point of orbits of lengths n
    # down to 2, and that of A_n down to 3: a cap at that total lets the
    # chain pass, one less refuses it, and the recognizer must agree both
    # times, exit code and message
    # S_n from a transposition and an n-cycle; A_n from a 3-cycle and the
    # even one of an n-cycle and an (n - 1)-cycle
    sets = giants(n)
    specs = {"S": sets["transposition"], "A": sets["3-cycle, n-cycle" if n % 2 else "3-cycle, (n-1)-cycle"]}
    for kind, gens in specs.items():
        spec = perm_spec(gens)
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
