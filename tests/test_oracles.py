import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations_with_replacement, product
from pathlib import Path

import pytest

import noethercheck
from noethercheck import oracles
from noethercheck.localfields import DiagonalForm
from noethercheck.oracles import (
    GRID_COEFFS,
    LocalZeroOracle,
    grid_forms,
    isotropy_grid_check,
    isotropy_witness,
    local_oracle,
    reciprocity_failures,
    three_squares_sieve,
)
from noethercheck.quadforms import three_squares_nat


def test_grid_forms():
    forms = grid_forms()
    assert len(forms) == 1000
    assert len(set(f.coeffs for f in forms)) == 1000
    assert all(1 <= f.dim <= 4 for f in forms)
    assert all(c in GRID_COEFFS for f in forms for c in f.coeffs)


def test_local_oracle_known():
    o2 = local_oracle(2)
    assert o2 is local_oracle(2)
    assert not o2.has_primitive_zero(DiagonalForm.repeated(3))
    assert not o2.has_primitive_zero(DiagonalForm.repeated(4))
    assert not o2.has_primitive_zero(DiagonalForm.of(1, 1, 1, -7))
    assert o2.has_primitive_zero(DiagonalForm.of(1, -1))
    assert not o2.has_primitive_zero(DiagonalForm.of(1, 1))
    assert not o2.has_primitive_zero(DiagonalForm.of(1))
    assert not local_oracle(7).has_primitive_zero(DiagonalForm.of(1, -3))
    assert local_oracle(7).has_primitive_zero(DiagonalForm.of(1, -2))
    assert not local_oracle(5).has_primitive_zero(DiagonalForm.of(1, -3, 5))


def test_local_oracle_rejects():
    with pytest.raises(ValueError):
        local_oracle(3).has_primitive_zero(DiagonalForm.of(Fraction(1, 2)))
    with pytest.raises(ValueError):
        local_oracle(3).has_primitive_zero(DiagonalForm.repeated(5))


def _check_witness(form, w):
    assert w is not None
    assert any(w)
    assert sum(c * x * x for c, x in zip(form.coeffs, w)) == 0


def test_isotropy_witness():
    f = DiagonalForm.of(1, 1, 1, -6)
    _check_witness(f, isotropy_witness(f, 10))
    g = DiagonalForm.of(1, -1)
    _check_witness(g, isotropy_witness(g, 5))
    h = DiagonalForm.of(Fraction(1, 2), Fraction(-3, 2), 1)
    _check_witness(h, isotropy_witness(h, 8))
    assert isotropy_witness(DiagonalForm.of(1, 1, 1, -7), 25) is None
    assert isotropy_witness(DiagonalForm.of(5), 10) is None
    assert isotropy_witness(DiagonalForm.repeated(4), 10) is None


def _witness_at_one_height(cs, height):
    """Reference: the meet-in-the-middle search at the given height
    alone, with no deepening and no shared table cache."""
    k = (len(cs) + 1) // 2
    table = {}
    for vec in product(range(height + 1), repeat=k):
        val = sum(c * x * x for c, x in zip(cs, vec))
        if val not in table or (not any(table[val]) and any(vec)):
            table[val] = vec
    for vec in product(range(height + 1), repeat=len(cs) - k):
        hit = table.get(-sum(c * x * x for c, x in zip(cs[k:], vec)))
        if hit is not None and (any(hit) or any(vec)):
            return hit + vec
    return None


def test_deepening_witness_search_is_exact():
    forms = grid_forms() + [
        DiagonalForm.of(1, 1, 1, -6),
        DiagonalForm.of(1, -1),
        DiagonalForm.of(Fraction(1, 2), Fraction(-3, 2), 1),
    ]
    for f in forms:
        # every denominator here divides 2, and scaling keeps the zeros
        cs = tuple(int(c * 2) for c in f.coeffs)
        for h in (0, 1, 2, 3, 5, 8, 13, 25):
            w = isotropy_witness(f, h)
            assert (w is None) == (_witness_at_one_height(cs, h) is None), (f, h)
            if w is not None:
                assert any(w) and max(w) <= h, (f, h, w)
                assert sum(c * x * x for c, x in zip(f.coeffs, w)) == 0, (f, h, w)
    # every isotropic grid form has a zero with entries up to 7, so a cold
    # check at height 60 stops deepening at 8
    oracles._WITNESS_TABLES.clear()
    assert isotropy_grid_check(60) == 1000
    assert max(height for _, height in oracles._WITNESS_TABLES) <= 8


def test_three_squares_sieve():
    sieve = three_squares_sieve(300)
    assert len(sieve) == 301
    assert sieve[0] == 1
    for n in range(1, 301):
        assert bool(sieve[n]) == three_squares_nat(n)


def test_reciprocity_failures():
    assert reciprocity_failures(200) == 0
    assert reciprocity_failures(50, seed=7) == 0


@pytest.mark.parametrize("bad", (3, 7, 101))
@pytest.mark.parametrize("seed", (0, 5))
def test_reciprocity_failures_catches_a_wrong_place(monkeypatch, bad, seed):
    # a symbol with its sign flipped at one place breaks the product
    # formula on exactly the samples whose support holds that place
    rng = random.Random(seed)
    expected = 0
    for _ in range(2000):
        a, b = oracles._random_rational(rng), oracles._random_rational(rng)
        ns = (a.numerator, a.denominator, b.numerator, b.denominator)
        if any(bad in oracles.factorize_by_trial_division(n) for n in ns):
            expected += 1
    assert expected > 0
    real = oracles.hilbert_symbol

    def flipped(a, b, v):
        s = real(a, b, v)
        return -s if v.p == bad else s

    monkeypatch.setattr(oracles, "hilbert_symbol", flipped)
    assert reciprocity_failures(2000, seed) == expected
    monkeypatch.undo()
    assert reciprocity_failures(2000, seed) == 0


def _residues(mask):
    return [r for r in range(mask.bit_length()) if mask >> r & 1]


def _set_sumset(o, a, b):
    """{(x + y) mod m} by plain Python sets, as a mask."""
    ys = _residues(b)
    out = 0
    for r in {(x + y) % o.m for x in _residues(a) for y in ys}:
        out |= 1 << r
    return out


def _set_pair_mask(o, c1, c2, prim):
    s1p, s1a = o._single_mask(c1, True), o._single_mask(c1, False)
    s2p, s2a = o._single_mask(c2, True), o._single_mask(c2, False)
    if prim:
        return _set_sumset(o, s1p, s2a) | _set_sumset(o, s1a, s2p)
    return _set_sumset(o, s1a, s2a)


_ALL_PAIRS = list(combinations_with_replacement(GRID_COEFFS, 2))


@pytest.mark.parametrize(
    "p, pairs",
    [(2, _ALL_PAIRS), (3, _ALL_PAIRS), (5, [(1, 1), (-3, 5), (2, -7), (5, -5)])],
    ids=("p2", "p3", "p5"),
)
def test_orbit_sumset_matches_set_sumset(p, pairs):
    o = LocalZeroOracle(p)
    m = o.m
    for c in {c for pair in pairs for c in pair}:
        for prim in (True, False):
            values = {c * x * x % m for x in range(m) if not prim or x % p}
            assert set(_residues(o._single_mask(c, prim))) == values, (c, prim)
    for c1, c2 in pairs:
        a, b = o._single_mask(c1, True), o._single_mask(c2, False)
        assert o._sumset(a, b) == _set_sumset(o, a, b), (c1, c2)
        for prim in (True, False):
            want = _set_pair_mask(o, c1, c2, prim)
            assert o._pair_mask(c1, c2, prim) == want, (c1, c2, prim)


def test_orbit_count_and_rotations():
    assert len(LocalZeroOracle(2)._orbits()) == 16
    for p in (3, 5, 7):
        assert len(LocalZeroOracle(p)._orbits()) == 11
    o = LocalZeroOracle(7)
    rotate = o._rotate
    calls = 0

    def counted(mask, s):
        nonlocal calls
        calls += 1
        return rotate(mask, s)

    o._rotate = counted
    o._pair_mask(3, -5, False)
    assert calls <= 11
    # the primitive pair mask is a union of two sumsets
    calls = 0
    o._pair_mask(2, -7, True)
    assert calls <= 22


def test_isotropy_grid_check_fails_under_optimize():
    # a lying isotropic_Q must be caught even when asserts are stripped
    code = (
        "import sys\n"
        "if not sys.flags.optimize: sys.exit(3)\n"
        "import noethercheck.oracles as o\n"
        "o.isotropic_Q = lambda f: False\n"
        "from noethercheck.cli import main\n"
        "sys.exit(main(['oracle', 'isotropy', '60']))\n"
    )
    src = str(Path(noethercheck.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    r = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert r.returncode == 1, r.stderr
    assert r.stdout == ""
    assert r.stderr == "mismatch: no local obstruction for <1,-1>\n"


def test_hilbert_symbol_count_is_reproducible_across_processes():
    # the isotropy scan stops at the first failing place, so the number of
    # symbols it computes depends on the order it visits places in; that
    # order must not depend on hashing, which differs between processes
    code = (
        "import noethercheck\n"
        "from noethercheck import localfields, oracles\n"
        "real = localfields.hilbert_symbol\n"
        "calls = 0\n"
        "def counted(*args):\n"
        "    global calls\n"
        "    calls += 1\n"
        "    return real(*args)\n"
        "for mod in (noethercheck, *(getattr(noethercheck, m) for m in\n"
        "        ('exact', 'localfields', 'quadforms', 'galois', 'oracles'))):\n"
        "    for name, val in list(vars(mod).items()):\n"
        "        if val is real:\n"
        "            setattr(mod, name, counted)\n"
        "oracles.isotropy_grid_check(60)\n"
        "print(calls)\n"
    )
    src = str(Path(noethercheck.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    counts = []
    for seed in ("1", "2"):
        env = dict(
            os.environ,
            PYTHONPATH=src + (os.pathsep + path if path else ""),
            PYTHONHASHSEED=seed,
        )
        r = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert r.returncode == 0, r.stderr
        counts.append(int(r.stdout))
    assert counts[0] == counts[1] > 0
