"""Inputs and expected answers for the three benchmark workloads.

Nothing here imports noethercheck. Every expected answer comes from a
frozen file or from a closed-form rule evaluated on numbers whose prime
factors the generator chose itself, so a wrong answer from the program can
never be copied into its own expectation.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent

# The fixed `groups` list, one input per code path of the group layer, in
# the order the children run them.
GROUP_ITEMS = (
    "metacyclic:a=2048,b=2,c=0,r=2047",  # dense table at DENSE_TABLE_LIMIT
    "metacyclic:a=64,b=16,c=0,r=1",  # dense table, criterion 1.2 fires
    "metacyclic:a=8192,b=1,c=0,r=1",  # lazy path, element orders
    "metacyclic:a=3,b=2048,c=0,r=2",  # lazy path, O(|H|^2) Sylow validation
    "perm:(1 2 3);(3 4 5 6 7)",  # A7, permutation closure
    "perm:(1 2);(1 2 3 4 5 6)",  # S6, permutation closure
    "metacyclic:a=24,b=2,c=12,r=23",  # dicyclic of order 48, criterion 1.5
    "catalog:SL2_9",
    "catalog:Ex3_3",
)

# Order 98304, inside the metacyclic cap; it runs once per `groups` run in
# a child of its own that is killed at the deadline. It is kept out of the
# timed items, so finishing it later changes only whether it finished.
DEADLINE_ITEM = "metacyclic:a=49152,b=2,c=0,r=1"
DEADLINE_S = 5.0

# Catalog entries that are metacyclic presentations, for the Smith normal
# form cross-check of their abelian invariants.
_CATALOG_METACYCLIC = {"Ex3_3": (64, 16, 32, 7)}

FIELD_GROUPS = ("Q16", "SL2_7", "SL2_9", "C16", "C64")
FIXED_FIELDS = (None, -1, 2, -2)  # Q, Q(sqrt -1), Q(sqrt 2), Q(sqrt -2)
SEEDED_FIELDS = 20
NEAR_CAP_FIELDS = 6  # of the seeded ones: primes just below the cap
FACTORIZATION_CAP = 10**12

ORACLE_HILBERT_SAMPLES = 10**4
ORACLE_ISOTROPY_HEIGHT = 60
ORACLE_SIEVE_BOUND = 10**4
ORACLE_ITEMS = ("reciprocity_failures", "isotropy_grid_check", "three_squares_sieve")


def frozen_group_outputs() -> dict[str, str]:
    """spec -> the exact JSON line `check --group spec --field Q --json`
    prints. The deadline item's line was written from the known answer,
    since the program does not finish it today."""
    with open(HERE / "groups_expected.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- arithmetic


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n below 3.3 * 10**24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_at_least(x: int, avoid: int = 0) -> int:
    p = max(2, x)
    while not is_prime(p) or p == avoid:
        p += 1
    return p


def _prime_at_most(x: int) -> int:
    p = x
    while not is_prime(p):
        p -= 1
    return p


def smith_invariants(rows: list[list[int]]) -> tuple[int, ...]:
    """Invariant factors of Z^2 / (row span), descending and without 1s,
    from the gcds of the 1x1 and 2x2 minors."""
    d1 = math.gcd(*(abs(x) for row in rows for x in row))
    d2 = 0
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            d2 = math.gcd(d2, rows[i][0] * rows[j][1] - rows[i][1] * rows[j][0])
    if d1 == 0 or d2 == 0:
        raise ValueError("relation matrix of an infinite group")
    return tuple(m for m in (d2 // d1, d1) if m > 1)


def metacyclic_invariants(spec: str) -> tuple[int, ...] | None:
    """Abelian invariants of a metacyclic spec (or a catalog entry that is
    one) from the relation matrix [[a, 0], [-c, b], [r - 1, 0]]."""
    if spec.startswith("catalog:"):
        params = _CATALOG_METACYCLIC.get(spec[len("catalog:"):])
    elif spec.startswith("metacyclic:"):
        kv = dict(item.split("=") for item in spec[len("metacyclic:"):].split(","))
        params = tuple(int(kv[k]) for k in "abcr")
    else:
        params = None
    if params is None:
        return None
    a, b, c, r = params
    return smith_invariants([[a, 0], [-c, b], [r - 1, 0]])


# ---------------------------------------------------------------- fields


def field_values(seed: int) -> list[tuple[int | None, int | None]]:
    """(D, s) pairs for the `fields` workload: D is the radicand passed to
    the CLI, s its squarefree part, known from the chosen factors; None
    stands for Q.

    The non-cap values are stratified: value i has a magnitude drawn
    log-uniformly inside the i-th of equal slices of [10**0.5, 10**12], and
    its shape (a prime, a small prime times a prime, or a prime times a
    square) follows i. Factorization cost, which grows with the root of
    the largest prime factor, is then drawn from the same spread on every
    seed, and total_s measures the program rather than the seed.
    """
    rng = random.Random(seed)
    out: list[tuple[int | None, int | None]] = [(d, d) for d in FIXED_FIELDS]
    for i in range(NEAR_CAP_FIELDS):
        p = _prime_at_most(FACTORIZATION_CAP - rng.randrange(10**7))
        sign = 1 if i % 2 == 0 else -1
        out.append((sign * p, sign * p))
    strata = SEEDED_FIELDS - NEAR_CAP_FIELDS
    for i in range(strata):
        u = (i + rng.random()) / strata
        target = 10 ** (0.5 + 11.5 * u)
        sign = rng.choice((1, -1))
        shape = i % 3
        if shape == 0 or target < 50:
            s = _prime_at_least(int(target))
            d = s
        elif shape == 1:
            q = rng.choice((3, 5, 7, 11, 13))
            p = _prime_at_least(int(target / q), avoid=q)
            s = d = q * p
        else:
            m = rng.randint(2, 9)
            s = _prime_at_least(int(target / (m * m)))
            d = s * m * m
        if d > FACTORIZATION_CAP:
            raise AssertionError(f"generated radicand {d} exceeds the cap")
        out.append((sign * d, sign * s))
    return out


def field_text(d: int | None) -> str:
    return "Q" if d is None else f"Q(sqrt {d})"


# Order, abelian invariants, 2-Sylow order and Q16 flag of the `fields`
# groups: SL2(7) and SL2(9) are perfect with Q16 as 2-Sylow.
_FIELD_GROUP_FACTS = {
    "Q16": (16, [2, 2], 16, True),
    "SL2_7": (336, [], 16, True),
    "SL2_9": (720, [], 16, True),
    "C16": (16, [16], 16, False),
    "C64": (64, [64], 64, False),
}

_WITNESS_15 = {"sylow_order": 16, "form_3_1_m7_anisotropic": True, "form_8_1_anisotropic": True}


def expected_field_answer(group: str, s: int | None) -> dict:
    """Expected exit code and report fields for `check --group catalog:G
    --field Q(sqrt D) --json`, where s is the squarefree part of D.

    Q16, SL2_7, SL2_9: criterion 1.5 fires iff k = Q, or s > 0 and
    s = 1 mod 8 (3<1>+<-7> stays anisotropic exactly when 2 splits, 8<1>
    exactly when k is real). C_{2^n}: criterion 1.2 fires unless n <= 2,
    s in {-1, -2}, or s = 2 with n = 3; its witness n is 4 for s = 2 and 3
    otherwise.
    """
    name = group[len("catalog:"):]
    order, invs, sylow, q16 = _FIELD_GROUP_FACTS[name]
    rational = s is None
    f7_aniso = rational or s % 8 == 1
    f8_aniso = rational or s > 0
    if q16:
        fired = f7_aniso and f8_aniso
        theorem = "1.5" if fired else None
        witness = _WITNESS_15 if fired else None
        checks = [("cyclic_2power_quotient", "fail"), ("sylow2_q16", "pass")]
        bailey_e = 0
    else:
        n = order.bit_length() - 1
        fired = not (n <= 2 or s in (-1, -2) or (s == 2 and n == 3))
        theorem = "1.2" if fired else None
        witness = {"n": 4 if s == 2 else 3, "d1": n} if fired else None
        checks = [("cyclic_2power_quotient", "pass"), ("cyclotomic_noncyclic", "pass" if fired else "fail")]
        if not fired:
            checks.append(("sylow2_q16", "fail"))
        bailey_e = 1 if fired else 0
    if not (fired and theorem == "1.2"):
        checks += [
            ("form_3_1_m7_anisotropic", "pass" if f7_aniso else "fail"),
            ("form_8_1_anisotropic", "pass" if f8_aniso else "fail"),
        ]
    return {
        "rc": 0 if fired else 2,
        "group": {
            "spec": group,
            "order": order,
            "abelian_invariants": invs,
            "sylow2_order": sylow,
            "sylow2_is_q16": q16,
        },
        "field": field_text(s),
        "verdict": "not_retract_rational" if fired else "inconclusive",
        "theorem": theorem,
        "witness": witness,
        "checks": checks,
        "bailey_e": bailey_e,
    }


def check_field_output(group: str, s: int | None, rc: int, out: str) -> str | None:
    """None when the report matches the closed-form rules, else why not."""
    want = expected_field_answer(group, s)
    try:
        got = json.loads(out)
    except ValueError:
        return f"not JSON: {out[:200]!r}"
    got_checks = [(c.get("name"), c.get("result")) for c in got.get("checks", [])]
    for key in ("group", "field", "verdict", "theorem", "witness", "bailey_e"):
        if got.get(key) != want[key]:
            return f"{key}: got {got.get(key)!r}, expected {want[key]!r}"
    if got_checks != want["checks"]:
        return f"checks: got {got_checks}, expected {want['checks']}"
    if rc != want["rc"]:
        return f"exit code {rc}, expected {want['rc']}"
    return None


def check_group_output(spec: str, rc: int, out: str, frozen: dict[str, str]) -> str | None:
    """Byte comparison with the frozen report, plus the Smith normal form
    cross-check of the abelian invariants for metacyclic presentations."""
    want = frozen[spec]
    if out.rstrip("\n") != want:
        return f"report differs from the frozen one: {out[:300]!r}"
    payload = json.loads(want)
    want_rc = 0 if payload["verdict"] == "not_retract_rational" else 2
    if rc != want_rc:
        return f"exit code {rc}, expected {want_rc}"
    snf = metacyclic_invariants(spec)
    if snf is not None and tuple(json.loads(out)["group"]["abelian_invariants"]) != snf:
        return f"abelian invariants differ from the Smith normal form {snf}"
    return None


# ---------------------------------------------------------------- oracle


def three_squares_exceptions(bound: int) -> list[int]:
    """n in [1, bound] of the form 4**a * (8b + 7), the integers that are
    not sums of three squares (Legendre)."""
    out = []
    a = 1
    while 7 * a <= bound:
        out.extend(range(7 * a, bound + 1, 8 * a))
        a *= 4
    return sorted(out)


def check_oracle_output(name: str, value) -> str | None:
    if name == "reciprocity_failures":
        return None if value == 0 else f"{value} reciprocity failures, expected 0"
    if name == "isotropy_grid_check":
        return None if value == 1000 else f"{value} forms checked, expected 1000"
    agree, missing = value
    if agree != ORACLE_SIEVE_BOUND:
        return f"{agree}/{ORACLE_SIEVE_BOUND} agree with three_squares_nat"
    if missing != three_squares_exceptions(ORACLE_SIEVE_BOUND):
        return "sieve misses a different set than 4^a(8b+7)"
    return None
