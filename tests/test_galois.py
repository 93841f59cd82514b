import inspect
import random
import sys
import time
from collections import Counter

import pytest

from noethercheck import galois, groups, localfields, oracles, quadforms
from noethercheck.exact import QQ, FieldDescriptor, squarefree_part
from noethercheck.galois import Check, bailey_group, forms_anisotropic, is_cyclic_ext, verdict
from noethercheck.groups import Catalog, Metacyclic, PermGens
from noethercheck.localfields import DiagonalForm
from noethercheck.oracles import UnitSubgroup2n, cyclotomic_galois
from noethercheck.quadforms import isotropic_Q, isotropic_quad

F7 = DiagonalForm.of(1, 1, 1, -7)
F8 = DiagonalForm.repeated(8)
# the 20-digit primes of test_cli, one in each odd class mod 8
BIG_PRIMES = (
    10000000000000000097,
    10000000000000000051,
    10000000000000000381,
    10000000000000000087,
)

K_I = FieldDescriptor(-1)
K2 = FieldDescriptor(2)
KM2 = FieldDescriptor(-2)
KM7 = FieldDescriptor(-7)


def _apply_galois(x, vec, n):
    # sigma_x on Z[zeta_{2^n}] written in the basis zeta^0..zeta^(N-1) with
    # zeta^N = -1, N = 2^(n-1).
    big = 1 << n
    half = big >> 1
    out = [0] * half
    for k, coeff in enumerate(vec):
        if coeff:
            j = x * k % big
            if j < half:
                out[j] += coeff
            else:
                out[j - half] -= coeff
    return out


def _sqrt_vector(d, n):
    half = 1 << (n - 1)
    vec = [0] * half
    if d == -1:
        vec[half // 2] = 1
    elif d == 2:
        m = half // 4
        vec[m] = 1
        vec[3 * m] = -1
    elif d == -2:
        m = half // 4
        vec[m] = 1
        vec[3 * m] = 1
    else:
        raise AssertionError(d)
    return vec


def test_sqrt_vectors_square_correctly():
    # zeta-arithmetic sanity: the vectors really are square roots of d.
    for d in (-1, 2, -2):
        for n in (3, 4, 5):
            big = 1 << n
            half = big >> 1
            vec = _sqrt_vector(d, n)
            prod = [0] * half
            for i, ci in enumerate(vec):
                for j, cj in enumerate(vec):
                    if ci and cj:
                        k = (i + j) % big
                        if k < half:
                            prod[k] += ci * cj
                        else:
                            prod[k - half] -= ci * cj
            assert prod[0] == d
            assert all(c == 0 for c in prod[1:])


def test_cyclotomic_galois_matches_fixed_field():
    for d in (-1, 2, -2):
        k = FieldDescriptor(d)
        for n in (3, 4, 5):
            vec = _sqrt_vector(d, n)
            fixing = {
                x for x in range(1, 1 << n, 2) if _apply_galois(x, vec, n) == vec
            }
            assert cyclotomic_galois(k, n).members == fixing


def test_cyclotomic_galois_full_for_other_fields():
    for d in (5, -7, 3, 17):
        k = FieldDescriptor(d)
        for n in (1, 3, 4):
            g = cyclotomic_galois(k, n)
            assert g.size == 1 << (n - 1)
    assert cyclotomic_galois(QQ, 4).size == 8
    assert cyclotomic_galois(K2, 2).size == 2
    with pytest.raises(ValueError):
        cyclotomic_galois(QQ, 0)


def test_cyclotomic_galois_known_sets():
    assert cyclotomic_galois(K_I, 3).members == {1, 5}
    assert cyclotomic_galois(K2, 3).members == {1, 7}
    assert cyclotomic_galois(KM2, 3).members == {1, 3}
    assert cyclotomic_galois(K_I, 2).members == {1}
    assert cyclotomic_galois(QQ, 3).members == {1, 3, 5, 7}


def _brute_cyclic(n, members):
    mod = 1 << n
    for g in members:
        seen = {1}
        x = g
        while x != 1:
            seen.add(x)
            x = x * g % mod
        if seen == members:
            return True
    return False


def _closure_mod(n, seed):
    mod = 1 << n
    members = {1}
    frontier = [1]
    while frontier:
        new = []
        for x in frontier:
            for g in seed:
                y = x * g % mod
                if y not in members:
                    members.add(y)
                    new.append(y)
        frontier = new
    return frozenset(members)


def test_is_cyclic_against_brute_force():
    # All multiplicatively closed subsets of (Z/16)*.
    units = [1, 3, 5, 7, 9, 11, 13, 15]
    for mask in range(1 << 7):
        members = frozenset({1} | {units[i + 1] for i in range(7) if mask >> i & 1})
        if any(x * y % 16 not in members for x in members for y in members):
            continue
        g = UnitSubgroup2n(4, members)
        assert g.is_cyclic() == _brute_cyclic(4, members)
    rng = random.Random(31)
    for _ in range(40):
        seed = rng.sample(range(1, 32, 2), rng.randint(1, 3))
        members = _closure_mod(5, seed)
        g = UnitSubgroup2n(5, members)
        assert g.is_cyclic() == _brute_cyclic(5, members)
        assert (1 << 4) % g.size == 0


def test_unit_subgroup_validation():
    assert UnitSubgroup2n(3, frozenset({1, 7})).size == 2
    with pytest.raises(ValueError):
        UnitSubgroup2n(0, frozenset({1}))
    with pytest.raises(ValueError):
        UnitSubgroup2n(3, frozenset({7}))
    with pytest.raises(ValueError):
        UnitSubgroup2n(3, frozenset({1, 4}))
    with pytest.raises(ValueError):
        UnitSubgroup2n(3, frozenset({1, 9}))


def test_is_cyclic_ext_table():
    assert is_cyclic_ext(QQ, 1)
    assert is_cyclic_ext(QQ, 2)
    assert not is_cyclic_ext(QQ, 3)
    assert not is_cyclic_ext(QQ, 5)
    for n in (1, 2, 3, 4, 5, 6):
        assert is_cyclic_ext(K_I, n)
        assert is_cyclic_ext(KM2, n)
    assert is_cyclic_ext(K2, 3)
    assert not is_cyclic_ext(K2, 4)
    assert not is_cyclic_ext(K2, 5)
    assert not is_cyclic_ext(FieldDescriptor(5), 3)
    assert not is_cyclic_ext(KM7, 3)


def test_is_cyclic_ext_monotone():
    # Once non-cyclic, non-cyclic at every higher level.
    for d in (None, -1, 2, -2, 5, -7, 17, 3):
        k = QQ if d is None else FieldDescriptor(d)
        flags = [is_cyclic_ext(k, n) for n in range(1, 7)]
        assert flags == sorted(flags, reverse=True)


def test_bailey_group():
    assert bailey_group(QQ, (3,)) == (1, "(Z/2)^1")
    assert bailey_group(QQ, ()) == (0, "trivial")
    assert bailey_group(QQ, (1,)) == (0, "trivial")
    assert bailey_group(QQ, (4, 3, 1)) == (2, "(Z/2)^2")
    assert bailey_group(QQ, (5, 4, 3, 2, 1)) == (3, "(Z/2)^3")
    assert bailey_group(K2, (3,)) == (0, "trivial")
    assert bailey_group(K2, (4, 3)) == (1, "(Z/2)^1")
    assert bailey_group(K_I, (6, 3)) == (0, "trivial")
    with pytest.raises(ValueError):
        bailey_group(QQ, (0,))
    with pytest.raises(ValueError):
        bailey_group(QQ, (2, 3))


def test_check_validation():
    assert Check("x", "pass", "ok").name == "x"
    for bad in ("maybe", "unsupported"):
        with pytest.raises(ValueError):
            Check("x", bad, "d")


def test_verdict_fires_12():
    v = verdict(Catalog("C8"))
    assert v.fired and v.outcome == "not_retract_rational"
    assert v.theorem == "1.2"
    assert v.witness == {"n": 3, "d1": 3}
    assert v.reasons == ()
    assert v.bailey_e == 1
    assert v.abelian_invariants == (8,)
    assert v.group_order == 8 and v.sylow_order == 8 and not v.sylow_is_q16
    assert [c.name for c in v.checks] == ["cyclic_2power_quotient", "cyclotomic_noncyclic"]
    assert all(c.result == "pass" for c in v.checks)
    assert v.checks[0].detail == "largest cyclic 2-power quotient 2^3"
    assert v.checks[1].detail == "Q(zeta_(2^3))/Q is not cyclic"


def test_verdict_witness_records_smallest_level():
    v = verdict(Catalog("Ex3_3"))
    assert v.theorem == "1.2" and v.witness == {"n": 3, "d1": 4}
    assert v.abelian_invariants == (16, 2)
    assert v.bailey_e == 1
    v = verdict(Catalog("Ex3_3"), K2)
    assert v.theorem == "1.2" and v.witness == {"n": 4, "d1": 4}
    assert v.bailey_e == 1


def test_verdict_fires_15():
    v = verdict(Catalog("SL2_7"), FieldDescriptor(17))
    assert v.fired and v.theorem == "1.5"
    assert v.witness == {
        "sylow_order": 16,
        "form_3_1_m7_anisotropic": True,
        "form_8_1_anisotropic": True,
    }
    assert v.reasons == ()
    assert v.sylow_order == 16 and v.sylow_is_q16
    assert v.abelian_invariants == () and v.bailey_e == 0
    names = [c.name for c in v.checks]
    assert names == [
        "cyclic_2power_quotient",
        "sylow2_q16",
        "form_3_1_m7_anisotropic",
        "form_8_1_anisotropic",
    ]
    assert [c.result for c in v.checks] == ["fail", "pass", "pass", "pass"]
    v = verdict(Catalog("Q16"))
    assert v.fired and v.theorem == "1.5" and v.reasons == ()
    v = verdict(Catalog("SL2_9"))
    assert v.fired and v.theorem == "1.5"


def test_verdict_inconclusive_reasons():
    v = verdict(Catalog("C8"), K2)
    assert not v.fired and v.outcome == "inconclusive"
    assert v.theorem is None and v.witness is None
    assert v.reasons == (
        "cyclotomic extension cyclic: Q(sqrt 2)(zeta_(2^3))/Q(sqrt 2)",
        "2-Sylow subgroup is not Q16 (order 8)",
        "3<1>+<-7> isotropic over Q(sqrt 2)",
    )
    v = verdict(Catalog("Q16"), KM7)
    assert not v.fired
    assert v.reasons == (
        "no cyclic quotient of order 2^n with n >= 3 (largest is 2^1)",
        "8<1> isotropic over Q(sqrt -7)",
    )
    v = verdict(Catalog("A4"))
    assert v.reasons == (
        "no cyclic quotient of order 2^n with n >= 3 (largest is 2^0)",
        "2-Sylow subgroup is not Q16 (order 4)",
    )
    v = verdict(Catalog("C8"), K_I)
    assert len(v.reasons) == 4
    assert v.reasons[-1] == "8<1> isotropic over Q(sqrt -1)"


def test_verdict_ignores_presentation():
    assert verdict(Metacyclic(8, 2, 4, 7)) == verdict(Catalog("Q16"))


def test_verdict_order_98304_within_seconds():
    start = time.perf_counter()
    v = verdict(Metacyclic(49152, 2, 0, 1))
    elapsed = time.perf_counter() - start
    assert v.theorem == "1.2" and v.witness == {"n": 3, "d1": 14}
    assert v.abelian_invariants == (49152, 2)
    assert v.group_order == 98304 and v.sylow_order == 32768 and not v.sylow_is_q16
    assert elapsed < 10


def test_verdict_dicyclic_near_metacyclic_cap_within_a_second():
    from noethercheck.groups import METACYCLIC_CAP

    q = 6 * 10**22 + 1
    spec = Metacyclic(8 * q, 2, 4 * q, 8 * q - 1)
    assert METACYCLIC_CAP // 2 < spec.a * spec.b <= METACYCLIC_CAP
    start = time.perf_counter()
    v = verdict(spec)
    elapsed = time.perf_counter() - start
    assert v.theorem == "1.5" and v.sylow_is_q16
    assert v.abelian_invariants == (2, 2) and v.sylow_order == 16
    assert elapsed < 1


def test_verdict_huge_b_closes_only_the_sylow_within_a_second():
    # b = 16 * odd: the 2-Sylow of the cyclic quotient is reached through
    # t**(b/16), whose powers are computed without a list of length b
    b = 16 * (10**19 + 1)
    start = time.perf_counter()
    v = verdict(Metacyclic(3, b, 0, 2))
    elapsed = time.perf_counter() - start
    assert v.group_order == 3 * b and v.sylow_order == 16 and not v.sylow_is_q16
    assert v.abelian_invariants == (b,)
    assert v.theorem == "1.2" and v.witness == {"n": 3, "d1": 4}
    assert elapsed < 1


def test_verdict_s7():
    v = verdict(PermGens.from_cycles("(1 2)", "(1 2 3 4 5 6 7)"))
    assert v.outcome == "inconclusive" and v.theorem is None
    assert v.abelian_invariants == (2,)
    assert v.group_order == 5040 and v.sylow_order == 16 and not v.sylow_is_q16
    assert v.reasons == (
        "no cyclic quotient of order 2^n with n >= 3 (largest is 2^1)",
        "2-Sylow subgroup is not Q16 (order 16)",
    )


def test_sylow_work_only_when_two_part_is_16(monkeypatch):
    calls = Counter()
    closed = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    enumerate_ = oracles._enumerate

    def enumerate_recorded(*args):
        out = enumerate_(*args)
        closed.append(len(out[0]))
        return out

    monkeypatch.setattr(oracles, "_enumerate", enumerate_recorded)
    for name in ("two_sylow", "is_generalized_quaternion16"):
        monkeypatch.setattr(oracles, name, counted(name, getattr(oracles, name)))
    monkeypatch.setattr(groups, "_q16_search", counted("_q16_search", groups._q16_search))
    monkeypatch.setattr(oracles, "cyclotomic_galois", counted("cyclotomic_galois", cyclotomic_galois))
    monkeypatch.setattr(
        oracles.FiniteGroupTable, "mult", counted("mult", oracles.FiniteGroupTable.mult)
    )
    # metacyclic specs answer from the presentation, Q16 included: nothing
    # is enumerated or searched, whatever the 2-part
    for spec, two_part in ((Metacyclic(4096, 1, 0, 1), 4096), (Metacyclic(3, 2048, 0, 2), 2048)):
        assert verdict(spec).sylow_order == two_part
    # dicyclic of order 48: 2-part 16, and Q16 is read off the parameters
    assert verdict(Metacyclic(24, 2, 12, 23)).sylow_is_q16
    assert calls["_q16_search"] == 0
    assert calls["two_sylow"] == calls["is_generalized_quaternion16"] == 0
    assert calls["cyclotomic_galois"] == calls["mult"] == 0 and closed == []
    verdict(Catalog("SL2_9"))
    calls.clear()
    v = verdict(Catalog("SL2_9"), FieldDescriptor(17))
    assert v.theorem == "1.5" and v.sylow_is_q16
    assert not calls and not closed


@pytest.mark.parametrize("d", [None, -1, 2, -2, 3, -3, 5, -7, 17, 6, -6])
def test_is_cyclic_ext_matches_enumeration(d):
    k = QQ if d is None else FieldDescriptor(d)
    for n in range(1, 13):
        assert is_cyclic_ext(k, n) == cyclotomic_galois(k, n).is_cyclic(), (k, n)
    with pytest.raises(ValueError):
        is_cyclic_ext(k, 0)


def test_forms_anisotropic_matches_hasse_minkowski():
    assert forms_anisotropic(QQ) == (not isotropic_Q(F7), not isotropic_Q(F8)) == (True, True)
    ds = [d for d in range(-999, 1000) if abs(d) > 1 and squarefree_part(d)[0] == d]
    ds += [s * p for p in BIG_PRIMES for s in (1, -1)]
    assert len(ds) == 1214 + 8
    for d in ds:
        general = tuple(not isotropic_quad(f, d).is_isotropic for f in (F7, F8))
        assert forms_anisotropic(FieldDescriptor(d)) == general, d


def test_form_3_1_m7_has_no_dyadic_zero():
    # the local obstruction behind D = 1 mod 8, found by counting zeros mod
    # 32 rather than by Hilbert symbols; 7 is a place where it has one
    assert not oracles.local_oracle(2).has_primitive_zero(F7)
    assert oracles.local_oracle(7).has_primitive_zero(F7)


def test_verdict_stays_off_the_form_stack(monkeypatch):
    fields = [QQ] + [
        FieldDescriptor(d) for d in (-1, 2, -2, 3, -7, -15, 17, 33, 41, 65, BIG_PRIMES[0])
    ]
    specs = [Catalog(name) for name in ("Q16", "SL2_7", "C16", "S4")]
    before = [verdict(spec, k) for spec in specs for k in fields]
    banned = [
        (f"{mod.__name__}.{name}", fn)
        for mod in (quadforms, localfields)
        for name, fn in inspect.getmembers(mod, inspect.isfunction)
        if not name.startswith("_") and fn.__module__ == mod.__name__
    ]
    assert len(banned) >= 8

    def raiser(qualname):
        def fail(*args, **kwargs):
            raise AssertionError(f"verdict reached {qualname}")

        return fail

    # rebind each one wherever the package holds it, not only at home
    package = [m for n, m in sys.modules.items() if n.split(".")[0] == "noethercheck"]
    for qualname, fn in banned:
        for mod in package:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, attr, raiser(qualname))
    after = [verdict(spec, k) for spec in specs for k in fields]
    assert after == before
    # Q16 and SL2_7 (2-Sylow Q16) over Q, 17, 33, 41, 65 and the prime
    assert sum(v.theorem == "1.5" for v in after) == 12
    forms = {c.detail.split(" ")[0] for v in after for c in v.checks if c.name.startswith("form_")}
    assert forms == {str(F7), str(F8)}



ASSEMBLY_FIELDS = [QQ] + [FieldDescriptor(d) for d in (-1, 2, -2, 17, -7, 33, -15)]


def _cyclic_product(*orders):
    """C_m1 x C_m2 x ... as one cycle per factor, on disjoint points."""
    cycles, start = [], 1
    for m in orders:
        cycles.append("(" + " ".join(map(str, range(start, start + m))) + ")")
        start += m
    return PermGens.from_cycles(*cycles)


# no catalog group has two invariant 2-exponents >= 3, so the first three
# products are what take bailey_e above 1; C4 x C4 has two below 3
CYCLIC_PRODUCTS = [_cyclic_product(*ms) for ms in ((8, 8), (16, 8, 4), (32, 8, 8), (4, 4))]


def _two_adic(m):
    e = 0
    while m % 2 == 0:
        m, e = m // 2, e + 1
    return e


def _assembled(facts, k, cyclic, anisotropic):
    """theorem, witness, bailey_e, the (name, result) of each check and the
    reasons of a verdict, as the two theorems state them. cyclic(n) and
    anisotropic come from the enumerated Galois group and from
    Hasse-Minkowski; nothing here reads a rule from galois."""
    dvec = [_two_adic(m) for m in facts.abelian_invariants if m % 2 == 0]
    d1 = max(dvec, default=0)
    bailey_e = sum(1 for d in dvec if d >= 3 and not cyclic(d))
    checks, reasons = [], []

    def check(name, holds, reason):
        checks.append((name, "pass" if holds else "fail"))
        if not holds:
            reasons.append(reason)

    check("cyclic_2power_quotient", d1 >= 3,
          f"no cyclic quotient of order 2^n with n >= 3 (largest is 2^{d1})")
    if d1 >= 3:
        check("cyclotomic_noncyclic", not cyclic(d1),
              f"cyclotomic extension cyclic: {k}(zeta_(2^{d1}))/{k}")
        if not cyclic(d1):
            n = min(n for n in range(3, d1 + 1) if not cyclic(n))
            return "1.2", {"n": n, "d1": d1}, bailey_e, checks, ()
    q16 = facts.sylow2_is_q16
    check("sylow2_q16", q16, f"2-Sylow subgroup is not Q16 (order {facts.sylow2_order})")
    check("form_3_1_m7_anisotropic", anisotropic[0], f"3<1>+<-7> isotropic over {k}")
    check("form_8_1_anisotropic", anisotropic[1], f"8<1> isotropic over {k}")
    if q16 and all(anisotropic):
        witness = {"sylow_order": 16, "form_3_1_m7_anisotropic": True, "form_8_1_anisotropic": True}
        return "1.5", witness, bailey_e, checks, ()
    return None, None, bailey_e, checks, tuple(reasons)


def test_verdict_assembly_over_the_catalog():
    start = time.perf_counter()
    seen = Counter()
    for k in ASSEMBLY_FIELDS:
        if k.is_rational:
            anisotropic = [not isotropic_Q(f) for f in (F7, F8)]
        else:
            anisotropic = [not isotropic_quad(f, k.d).is_isotropic for f in (F7, F8)]
        levels = {}

        def cyclic(n):
            if n not in levels:
                levels[n] = cyclotomic_galois(k, n).is_cyclic()
            return levels[n]

        for spec in [Catalog(name) for name in groups.CATALOG_NAMES] + CYCLIC_PRODUCTS:
            v = verdict(spec, k)
            expected = _assembled(groups.group_facts(spec), k, cyclic, anisotropic)
            got = (v.theorem, v.witness, v.bailey_e, [(c.name, c.result) for c in v.checks])
            assert got + (v.reasons,) == expected, (spec, str(k))
            seen[v.theorem] += 1
            if v.theorem == "1.2":
                seen["n < d1" if v.witness["n"] < v.witness["d1"] else "n = d1"] += 1
            seen["reasons"] += len(v.reasons)
            seen[f"bailey_e {min(v.bailey_e, 3)}"] += 1
    assert len(groups.CATALOG_NAMES) == 72
    # every outcome occurs, so do witnesses below and at the top level, and
    # bailey_e takes every value up to 3
    assert all(seen[key] for key in ("1.2", "1.5", None, "n < d1", "n = d1", "reasons"))
    assert all(seen[f"bailey_e {e}"] for e in range(4))
    assert time.perf_counter() - start < 1


def test_verdict_reads_no_bailey_group(monkeypatch):
    # the verdict's bailey_e comes from its own cyclotomic scan
    fields = (QQ, K2, FieldDescriptor(17))
    specs = [Catalog(name) for name in groups.CATALOG_NAMES]
    expected = [verdict(spec, k) for k in fields for spec in specs]

    def refuse(*args):
        raise AssertionError("verdict called bailey_group")

    monkeypatch.setattr(galois, "bailey_group", refuse)
    assert [verdict(spec, k) for k in fields for spec in specs] == expected
