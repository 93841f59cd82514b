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
from noethercheck.localfields import DiagonalForm, Place, local_isotropic
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
    assert not o2.has_primitive_zero(DiagonalForm((1,) * 3))
    assert not o2.has_primitive_zero(DiagonalForm((1,) * 4))
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
        local_oracle(3).has_primitive_zero(DiagonalForm((1,) * 5))


@pytest.mark.parametrize("coeffs, c", [((243,), 243), ((27,), 27), ((1, 27), 27)])
def test_local_oracle_rejects_coefficients_outside_its_domain(coeffs, c):
    # none of these forms has a zero over Q_3, yet a coefficient divisible
    # by 27 vanishes mod 27 on its own: above v_p(c) = 1 the oracle refuses
    # instead of answering wrongly
    with pytest.raises(ValueError) as exc:
        local_oracle(3).has_primitive_zero(DiagonalForm(coeffs))
    assert str(exc.value) == f"the modular oracle at p = 3 needs v_p(c) <= 1, got c = {c}"


@pytest.mark.parametrize("p", [2, 3, 5])
def test_local_oracle_memos_are_keyed_on_residues(p):
    # a mask depends only on its coefficients mod m: many coefficients of
    # a few residues leave the memos within the residues, and every answer
    # is still the Hilbert symbol criterion's
    oracle = LocalZeroOracle(p)
    m = oracle.m
    rng = random.Random(p)
    residues = (1, p, m - 1, m - p)
    for _ in range(400):
        dim = rng.randint(1, 4)
        f = DiagonalForm(tuple(
            rng.choice((1, -1)) * (rng.choice(residues) + m * rng.randrange(10**6)) for _ in range(dim)
        ))
        assert oracle.has_primitive_zero(f) == local_isotropic(f, Place(p)), f
    assert len(oracle._single) <= 2 * m
    assert len(oracle._pair) <= m * m


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
    assert isotropy_witness(DiagonalForm((1,) * 4), 10) is None


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


def test_deepening_witness_search_is_exact(monkeypatch):
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
    heights = []
    real_half_sums = oracles._half_sums

    def recorded(coeffs, height):
        heights.append(height)
        return real_half_sums(coeffs, height)

    monkeypatch.setattr(oracles, "_half_sums", recorded)
    oracles._half_table.cache_clear()
    assert isotropy_grid_check(60) == 1000
    assert heights and max(heights) <= 8


def _deepened_reference(cs, height):
    """The deepening search with the one-height reference at each step:
    the first vector in product order, a nonzero one preferred at 0."""
    h = 1
    while h < height:
        found = _witness_at_one_height(cs, h)
        if found is not None:
            return found
        h *= 2
    return _witness_at_one_height(cs, height)


def test_witness_vectors_are_the_first_in_product_order():
    # not just some zero: the same vector the product-order search picks,
    # at every height of the grid check's range. A form with a local
    # obstruction has no zero, so its answer is None without a search.
    for f in grid_forms():
        cs = tuple(int(c) for c in f.coeffs)
        for h in (1, 5, 60):
            if h == 60 and oracles._has_local_obstruction(cs):
                want = None
            else:
                want = _deepened_reference(cs, h)
            assert isotropy_witness(f, h) == want, (f, h)


@pytest.mark.parametrize(
    "coeffs, witnesses",
    [
        # halves of three and two coefficients
        ((2, 3, 5, 7, -61), (None, None, (2, 4, 1, 0, 1), (2, 4, 1, 0, 1))),
        # halves of three and three
        ((1, 1, 1, 1, 1, -31), (None, (3, 3, 3, 0, 2, 1), (3, 3, 3, 0, 2, 1), (3, 3, 3, 0, 2, 1))),
    ],
)
def test_witness_vectors_with_three_coefficient_halves(coeffs, witnesses):
    f = DiagonalForm(coeffs)
    assert tuple(isotropy_witness(f, h) for h in (1, 3, 10, 20)) == witnesses
    for h in (1, 3, 10):
        assert isotropy_witness(f, h) == _deepened_reference(coeffs, h)


def test_three_squares_sieve():
    sieve = three_squares_sieve(300)
    assert len(sieve) == 301
    assert sieve[0] == 1
    for n in range(1, 301):
        assert bool(sieve[n]) == three_squares_nat(n)


def _three_squares_by_enumeration(bound):
    """Reference: every x**2 + y**2 + z**2 <= bound with x <= y <= z marked
    by a triple loop."""
    out = bytearray(bound + 1)
    x = 0
    while x * x <= bound:
        y = x
        while x * x + y * y <= bound:
            z = y
            while (s := x * x + y * y + z * z) <= bound:
                out[s] = 1
                z += 1
            y += 1
        x += 1
    return out


def test_shift_sieve_matches_the_triple_loop():
    for n in [*range(301), 10**4]:
        sieve = three_squares_sieve(n)
        assert type(sieve) is bytearray and len(sieve) == n + 1, n
        assert sieve == _three_squares_by_enumeration(n), n


@pytest.mark.parametrize(
    "name, fake, message",
    [
        ("isotropic_Q", lambda f: True, "no integer zero up to 60 for <1>"),
        ("_integer_witness", lambda cs, h: (1,) * len(cs), "witness (1, 1, 1) fails for <1,1,-1>"),
        ("_integer_witness", lambda cs, h: (0,) * len(cs), "degenerate witness for <1,-1>"),
    ],
    ids=("isotropic-lie", "wrong-witness", "zero-witness"),
)
def test_isotropy_grid_check_catches_a_false_isotropic_claim(monkeypatch, name, fake, message):
    # a form wrongly called isotropic, or a witness that is no zero, must
    # fail the check with the form named
    monkeypatch.setattr(oracles, name, fake)
    with pytest.raises(AssertionError) as exc:
        isotropy_grid_check(60)
    assert str(exc.value) == message


def test_isotropy_grid_check_reports_a_height_too_small_apart(monkeypatch):
    # below height 7 some isotropic grid form has no zero yet: the check
    # names it with the least height that works, as a ValueError, since
    # the answer it checks is right
    for height, cs, least in ((6, (2, -7, -7, -7), 7), (2, (1, -2, -7), 3), (1, (1, 1, -5), 2)):
        with pytest.raises(ValueError) as exc:
            isotropy_grid_check(height)
        form = DiagonalForm(cs)
        assert str(exc.value) == f"height {height} is too small: {form} needs height {least} for an integer zero"
        assert oracles._witness_at(cs, least - 1) is None and oracles._witness_at(cs, least)
    assert isotropy_grid_check(7) == 1000
    # a false claim of isotropy is still a mismatch at a small height: the
    # search goes on to GRID_HEIGHT and finds no zero of <1>
    monkeypatch.setattr(oracles, "isotropic_Q", lambda f: True)
    for height in (6, 1):
        with pytest.raises(AssertionError) as exc:
            isotropy_grid_check(height)
        assert str(exc.value) == f"no integer zero up to {oracles.GRID_HEIGHT} for <1>"


def _random_rational(rng):
    return Fraction(*oracles._random_terms(rng))


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
        a, b = _random_rational(rng), _random_rational(rng)
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


def test_draws_are_the_stream_of_plain_fractions():
    # the integer draws are the rationals Fraction(num, den) of the same
    # three rng calls, in lowest terms
    rng, old = random.Random(5), random.Random(5)
    for _ in range(2000):
        want = Fraction(old.randint(1, 10**4) * old.choice((1, -1)), old.randint(1, 10**4))
        num, den = oracles._random_terms(rng)
        assert (num, den) == (want.numerator, want.denominator)


@pytest.mark.parametrize("seed", (0, 1, 5))
def test_draws_are_the_randint_and_choice_stream(seed):
    # _random_terms reads getrandbits by the rejection loops that randint
    # and choice run; seeds 0, 1 and 5 are those of the acceptance check,
    # the benchmark and its hold-out, so a Python whose randint draws
    # otherwise fails here instead of changing the samples
    rng, old = random.Random(seed), random.Random(seed)
    height = oracles.SAMPLE_HEIGHT
    for _ in range(10**4):
        for _ in range(2):
            want = Fraction(old.randint(1, height) * old.choice((1, -1)), old.randint(1, height))
            assert oracles._random_terms(rng) == (want.numerator, want.denominator)
    assert rng.getstate() == old.getstate()


def test_odd_prime_divisor_table_matches_trial_division():
    table = oracles._odd_prime_divisors(oracles.SAMPLE_HEIGHT)
    assert len(table) == oracles.SAMPLE_HEIGHT + 1
    for n in range(1, oracles.SAMPLE_HEIGHT + 1):
        want = tuple(p for p in oracles.factorize_by_trial_division(n) if p != 2)
        assert table[n] == want, n


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


@pytest.mark.parametrize("prim", (True, False))
def test_orbit_masks_match_enumeration_at_7(prim):
    o = LocalZeroOracle(7)
    m = o.m
    for c in GRID_COEFFS:
        values = {c * x * x % m for x in range(m) if not prim or x % 7}
        assert set(_residues(o._single_mask(c, prim))) == values, (c, prim)


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_orbits_match_enumeration(p):
    # the least residue t not yet covered, with the mask of its orbit
    # {t * x**2 mod m : p does not divide x}, in order
    o = LocalZeroOracle(p)
    m = o.m
    want, covered = [], set()
    for t in range(m):
        if t not in covered:
            orbit = {t * x * x % m for x in range(m) if x % p}
            want.append((t, sum(1 << r for r in orbit)))
            covered |= orbit
    assert o._orbits() == want


def test_orbit_count_and_rotations():
    assert len(LocalZeroOracle(2)._orbits()) == 16
    for p in (3, 5, 7):
        # {0} and two classes at each of p**0, p**1, p**2 mod p**3
        assert len(LocalZeroOracle(p)._orbits()) == 7
    o = LocalZeroOracle(7)
    orbits = len(o._orbits())
    rotate = o._rotate
    calls = 0

    def counted(mask, s):
        nonlocal calls
        calls += 1
        return rotate(mask, s)

    o._rotate = counted
    o._pair_mask(3, -5, False)
    assert calls <= orbits
    # the primitive pair mask is a union of two sumsets
    calls = 0
    o._pair_mask(2, -7, True)
    assert calls <= 2 * orbits


@pytest.mark.parametrize("p", (3, 5))
def test_modulus_p3_answers_as_p5_does(p):
    # Hensel's lemma needs a zero mod p**3 at odd p for coefficients with
    # v_p(c) <= 1; the reference decides every grid form mod p**5 with the
    # value sets of c*x**2 listed residue by residue and summed by plain
    # rotations, no orbits
    o = LocalZeroOracle(p)
    assert o.m == p**3
    m = p**5
    full = (1 << m) - 1
    single, pair, refl = {}, {}, {}

    def values(c, prim):
        if (c, prim) not in single:
            single[c, prim] = sum(1 << r for r in {c * x * x % m for x in range(m) if not prim or x % p})
        return single[c, prim]

    def sumset(a, b):
        if a.bit_count() > b.bit_count():
            a, b = b, a
        out = 0
        for r in _residues(a):
            out |= ((b << r) | (b >> (m - r))) & full
        return out

    def pair_values(c1, c2):
        if (c1, c2) not in pair:
            a1, a2 = values(c1, False), values(c2, False)
            prim = sumset(values(c1, True), a2) | sumset(a1, values(c2, True))
            pair[c1, c2] = prim, sumset(a1, a2)
        return pair[c1, c2]

    def negated(mask):
        if mask not in refl:
            refl[mask] = sum(1 << (-r % m) for r in _residues(mask))
        return refl[mask]

    for f in grid_forms():
        cs = f.coeffs
        if len(cs) == 1:
            want = bool(values(cs[0], True) & 1)
        else:
            k = 1 if len(cs) == 2 else 2
            (a_prim, a_any), (b_prim, b_any) = (
                pair_values(*half) if len(half) == 2 else (values(half[0], True), values(half[0], False))
                for half in (cs[:k], cs[k:])
            )
            want = bool(a_prim & negated(b_any) or a_any & negated(b_prim))
        assert o._primitive_zero(cs) == want, (f, p)
        assert o.has_primitive_zero(f) == want, (f, p)


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


def test_grid_work_in_a_fresh_process():
    # the grid's ten coefficients have 16 sets of parts above 1, subsets of
    # {2, 3, 5, 7} holding 32 parts in all: quadforms factors each set once
    # per process (1940 factorizations when each form factored its own),
    # and the scan computes 484 Hilbert symbols: the real place is asked
    # first, so the 210 definite forms of dim 3 and 4 take none
    code = (
        "import noethercheck\n"
        "from noethercheck import localfields, oracles, quadforms\n"
        "real_symbol, real_factorize = localfields.hilbert_symbol, quadforms.factorize\n"
        "symbols = factored = 0\n"
        "def counted_symbol(*args):\n"
        "    global symbols\n"
        "    symbols += 1\n"
        "    return real_symbol(*args)\n"
        "def counted_factorize(n):\n"
        "    global factored\n"
        "    factored += 1\n"
        "    return real_factorize(n)\n"
        "for mod in (noethercheck, *(getattr(noethercheck, m) for m in\n"
        "        ('exact', 'localfields', 'quadforms', 'galois', 'oracles'))):\n"
        "    for name, val in list(vars(mod).items()):\n"
        "        if val is real_symbol:\n"
        "            setattr(mod, name, counted_symbol)\n"
        "quadforms.factorize = counted_factorize\n"
        "oracles.isotropy_grid_check(60)\n"
        "print(factored, symbols)\n"
    )
    src = str(Path(noethercheck.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    r = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["32", "484"]
