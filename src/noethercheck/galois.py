"""Galois-side data for the two obstruction criteria and the verdict engine
that combines them.

The first criterion needs to know whether k(zeta_{2^n})/k is cyclic, which
is_cyclic_ext answers in closed form. The second criterion needs the
2-Sylow recognizer together with anisotropy of two fixed forms over k,
which forms_anisotropic answers in closed form from d alone. Everything is
assembled into a Verdict with named checks so a caller can see which
hypothesis failed. The general procedures both rules stand in for, the
enumerated Galois group in oracles and Hasse-Minkowski in quadforms, are
what the tests compare them against; nothing here calls either.
"""

from __future__ import annotations

from .exact import FieldDescriptor, Frozen, QQ
from .groups import GroupSpec, group_facts


def is_cyclic_ext(k: FieldDescriptor, n: int) -> bool:
    """Is k(zeta_{2^n})/k a cyclic extension?

    Yes iff n <= 2, or k is Q(sqrt -1) or Q(sqrt -2), or k = Q(sqrt 2) and
    n = 3. The only quadratic subfields of Q(zeta_{2^n}) are Q(i) and
    Q(sqrt +-2), so over every other k the Galois group is all of
    (Z/2^n)*, which is cyclic only for n <= 2. Over Q(i) it is
    {x = 1 mod 4}, generated by 5; over Q(sqrt -2) it is {x = 1, 3 mod 8},
    generated by 3; over Q(sqrt 2) it is {x = +-1 mod 8} = <-1> x <9>,
    whose second factor is trivial only for n = 3. oracles.cyclotomic_galois
    enumerates the same groups, and the tests compare the two.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return n <= 2 or k.d in (-1, -2) or (k.d == 2 and n == 3)


def forms_anisotropic(k: FieldDescriptor) -> tuple[bool, bool]:
    """Are 3<1>+<-7> and 8<1> anisotropic over k = Q(sqrt D), in that order?

    The first iff D = 1 mod 8, the second iff D > 0, with k = Q counted as
    D = 1 (Lam). 8<1> has dimension at least 5, so it is isotropic at every
    finite place and anisotropic iff k has a real place. 3<1>+<-7> has
    discriminant -7, a square in Q_2; over Q its only local obstruction is
    at 2 and every quadratic extension of Q_2 splits it, so it stays
    anisotropic iff 2 splits in k. quadforms.isotropic_quad decides both
    by Hasse-Minkowski, and the tests compare the two.
    """
    D = 1 if k.is_rational else k.d
    return D % 8 == 1, D > 0


def bailey_group(k: FieldDescriptor, dvec: tuple[int, ...]) -> tuple[int, str]:
    """Elementary abelian unramified Brauer quotient attached to a 2-power
    invariant-factor profile: for dvec = (d_1 >= d_2 >= ...) the group is
    (Z/2)^e with e the number of indices where d_i >= 3 and
    k(zeta_{2^d_i})/k is not cyclic.

    Non-cyclicity is monotone in the level, so the counted indices form a
    prefix of the descending vector.
    """
    if any(d < 1 for d in dvec):
        raise ValueError("entries of dvec must be at least 1")
    if any(dvec[i] < dvec[i + 1] for i in range(len(dvec) - 1)):
        raise ValueError(f"dvec must be non-increasing: {dvec}")
    e = sum(1 for d in dvec if d >= 3 and not is_cyclic_ext(k, d))
    return e, "trivial" if e == 0 else f"(Z/2)^{e}"


class Check(Frozen):
    """One named hypothesis test inside a verdict."""

    __slots__ = ("name", "result", "detail")

    def __init__(self, name: str, result: str, detail: str) -> None:
        if result not in ("pass", "fail"):
            raise ValueError(f"bad check result: {result}")
        super().__init__(name, result, detail)


class Verdict(Frozen):
    __slots__ = ("outcome", "theorem", "witness", "reasons", "bailey_e", "abelian_invariants",
                 "group_order", "sylow_order", "sylow_is_q16", "checks")

    @property
    def fired(self) -> bool:
        return self.outcome == "not_retract_rational"


# (check name, form, short name) in the order forms_anisotropic answers
_FORMS = (
    ("form_3_1_m7_anisotropic", "<1,1,1,-7>", "3<1>+<-7>"),
    ("form_8_1_anisotropic", "<1,1,1,1,1,1,1,1>", "8<1>"),
)
# the witness of criterion 1.5, copied into each verdict that it fires in
_WITNESS_15 = {"sylow_order": 16, **{name: True for name, _, _ in _FORMS}}


def _record(checks: list[Check], reasons: list[str], name: str, holds: bool, detail: str,
            reason: str = "") -> bool:
    """Record one hypothesis of a verdict: append its check and, when it
    fails, its reason, the detail unless a shorter one is given. Returns
    whether it holds."""
    checks.append(Check(name, "pass" if holds else "fail", detail))
    if not holds:
        reasons.append(reason or detail)
    return holds


def verdict(spec: GroupSpec, field: FieldDescriptor = QQ) -> Verdict:
    """Run both obstruction criteria for the invariant field of the given
    group over the given base field.

    Criterion "1.2" fires when the group has a cyclic quotient of order 2^n
    with n >= 3 and k(zeta_{2^n})/k is not cyclic at the largest such n.
    Non-cyclicity is upward monotone, so one scan finds the least
    non-cyclic level n: it decides the largest one and is the witness, and
    bailey_e, the e of bailey_group, is the number of entries of the 2-power
    profile from n on (0 when no level is non-cyclic).
    Criterion "1.5" fires when the 2-Sylow subgroup is Q16 and both
    3<1>+<-7> and 8<1> stay anisotropic over k. Either one yields
    "not_retract_rational"; otherwise the verdict is "inconclusive" with one
    reason per failed hypothesis.
    """
    facts = group_facts(spec)
    invs = facts.abelian_invariants
    # the exponent of 2 in m is the index of its lowest set bit; for a few
    # factors a list comprehension builds the tuple faster than a generator
    dvec = tuple([(m & -m).bit_length() - 1 for m in invs if m % 2 == 0])
    # the invariant factors divide one another, so the first carries the
    # largest 2-power
    d1 = dvec[0] if dvec else 0
    sylow_order = facts.sylow2_order
    q16 = facts.sylow2_is_q16
    k = str(field)  # once: the descriptor formats itself anew on each call
    checks: list[Check] = []
    reasons: list[str] = []

    # only the detail that is recorded gets formatted
    detail = (f"largest cyclic 2-power quotient 2^{d1}" if d1 >= 3 else
              f"no cyclic quotient of order 2^n with n >= 3 (largest is 2^{d1})")
    n = None
    if _record(checks, reasons, "cyclic_2power_quotient", d1 >= 3, detail):
        n = next((m for m in range(3, d1 + 1) if not is_cyclic_ext(field, m)), None)
        detail = (f"{k}(zeta_(2^{d1}))/{k} is not cyclic" if n else
                  f"cyclotomic extension cyclic: {k}(zeta_(2^{d1}))/{k}")
        _record(checks, reasons, "cyclotomic_noncyclic", n is not None, detail)
    bailey_e = sum(1 for m in dvec if m >= n) if n else 0
    theorem = witness = None
    if n:
        theorem, witness = "1.2", {"n": n, "d1": d1}
    else:
        detail = ("2-Sylow subgroup is Q16" if q16 else
                  f"2-Sylow subgroup is not Q16 (order {sylow_order})")
        ok = _record(checks, reasons, "sylow2_q16", q16, detail)
        for (name, form, short), anisotropic in zip(_FORMS, forms_anisotropic(field)):
            detail = f"{form} {'anisotropic' if anisotropic else 'isotropic'} over {k}"
            reason = "" if anisotropic else f"{short} isotropic over {k}"
            ok = _record(checks, reasons, name, anisotropic, detail, reason) and ok
        if ok:
            theorem, witness = "1.5", dict(_WITNESS_15)
            reasons.clear()

    outcome = "not_retract_rational" if theorem else "inconclusive"
    return Verdict(outcome, theorem, witness, tuple(reasons), bailey_e, invs, facts.order,
                   sylow_order, q16, tuple(checks))
