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
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "result", result)
        object.__setattr__(self, "detail", detail)


class Verdict(Frozen):
    __slots__ = ("outcome", "theorem", "witness", "reasons", "bailey_e", "abelian_invariants",
                 "group_order", "sylow_order", "sylow_is_q16", "checks")

    def __init__(self, outcome: str, theorem: str | None, witness: dict | None,
                 reasons: tuple[str, ...], bailey_e: int, abelian_invariants: tuple[int, ...],
                 group_order: int, sylow_order: int, sylow_is_q16: bool,
                 checks: tuple[Check, ...]) -> None:
        object.__setattr__(self, "outcome", outcome)
        object.__setattr__(self, "theorem", theorem)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "reasons", reasons)
        object.__setattr__(self, "bailey_e", bailey_e)
        object.__setattr__(self, "abelian_invariants", abelian_invariants)
        object.__setattr__(self, "group_order", group_order)
        object.__setattr__(self, "sylow_order", sylow_order)
        object.__setattr__(self, "sylow_is_q16", sylow_is_q16)
        object.__setattr__(self, "checks", checks)

    @property
    def fired(self) -> bool:
        return self.outcome == "not_retract_rational"


# (check name, form, short name) in the order forms_anisotropic answers
_FORMS = (
    ("form_3_1_m7_anisotropic", "<1,1,1,-7>", "3<1>+<-7>"),
    ("form_8_1_anisotropic", "<1,1,1,1,1,1,1,1>", "8<1>"),
)


def verdict(spec: GroupSpec, field: FieldDescriptor = QQ) -> Verdict:
    """Run both obstruction criteria for the invariant field of the given
    group over the given base field.

    Criterion "1.2" fires when the group has a cyclic quotient of order 2^n
    with n >= 3 and k(zeta_{2^n})/k is not cyclic at the largest such n
    (non-cyclicity is upward monotone, so checking the top level decides
    every level; the witness records the smallest failing n). Criterion
    "1.5" fires when the 2-Sylow subgroup is Q16 and both 3<1>+<-7> and
    8<1> stay anisotropic over k. Either one yields "not_retract_rational";
    otherwise the verdict is "inconclusive" with one reason per failed
    hypothesis.
    """
    facts = group_facts(spec)
    invs = facts.abelian_invariants
    # the exponent of 2 in m is the index of its lowest set bit
    dvec = tuple((m & -m).bit_length() - 1 for m in invs if m % 2 == 0)
    # the invariant factors divide one another, so the first carries the
    # largest 2-power
    d1 = dvec[0] if dvec else 0
    bailey_e, _ = bailey_group(field, dvec)
    sylow_order = facts.sylow2_order
    q16 = facts.sylow2_is_q16

    checks: list[Check] = []
    reasons: list[str] = []
    fired: str | None = None
    witness: dict | None = None

    if d1 >= 3:
        checks.append(
            Check("cyclic_2power_quotient", "pass", f"largest cyclic 2-power quotient 2^{d1}")
        )
        if not is_cyclic_ext(field, d1):
            checks.append(
                Check(
                    "cyclotomic_noncyclic",
                    "pass",
                    f"{field}(zeta_(2^{d1}))/{field} is not cyclic",
                )
            )
            n = next(m for m in range(3, d1 + 1) if not is_cyclic_ext(field, m))
            fired = "1.2"
            witness = {"n": n, "d1": d1}
        else:
            detail = f"cyclotomic extension cyclic: {field}(zeta_(2^{d1}))/{field}"
            checks.append(Check("cyclotomic_noncyclic", "fail", detail))
            reasons.append(detail)
    else:
        detail = f"no cyclic quotient of order 2^n with n >= 3 (largest is 2^{d1})"
        checks.append(Check("cyclic_2power_quotient", "fail", detail))
        reasons.append(detail)

    if fired is None:
        if q16:
            checks.append(Check("sylow2_q16", "pass", "2-Sylow subgroup is Q16"))
            ok = True
        else:
            detail = f"2-Sylow subgroup is not Q16 (order {sylow_order})"
            checks.append(Check("sylow2_q16", "fail", detail))
            reasons.append(detail)
            ok = False
        for (name, form, short), anisotropic in zip(_FORMS, forms_anisotropic(field)):
            detail = f"{form} {'anisotropic' if anisotropic else 'isotropic'} over {field}"
            checks.append(Check(name, "pass" if anisotropic else "fail", detail))
            if not anisotropic:
                reasons.append(f"{short} isotropic over {field}")
                ok = False
        if ok:
            fired = "1.5"
            witness = {
                "sylow_order": 16,
                "form_3_1_m7_anisotropic": True,
                "form_8_1_anisotropic": True,
            }
            reasons = []

    return Verdict(
        outcome="not_retract_rational" if fired else "inconclusive",
        theorem=fired,
        witness=witness,
        reasons=tuple(reasons),
        bailey_e=bailey_e,
        abelian_invariants=invs,
        group_order=facts.order,
        sylow_order=sylow_order,
        sylow_is_q16=q16,
        checks=tuple(checks),
    )
