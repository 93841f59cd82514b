"""Galois-side data for the two obstruction criteria and the verdict engine
that combines them.

The first criterion needs to know whether k(zeta_{2^n})/k is cyclic, which
is_cyclic_ext answers in closed form; the Galois group enumerated as a
subgroup of the units mod 2^n is the cross-check of that rule. The second
criterion needs the 2-Sylow recognizer together with anisotropy of two
fixed forms over k. Everything is assembled into a Verdict with named
checks so a caller can see which hypothesis failed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import FieldDescriptor, QQ, padic_valuation
from .groups import GroupSpec, group_facts
from .localfields import DiagonalForm
from .quadforms import isotropic_Q, isotropic_quad


@dataclass(frozen=True)
class UnitSubgroup2n:
    """A subgroup of the units of Z/2^n, given by its member residues.

    Only cheap shape checks run here; closure is an invariant the tests
    assert, since validating it for large n would square the member count.
    """

    n: int
    members: frozenset[int]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be at least 1")
        mod = 1 << self.n
        if 1 not in self.members:
            raise ValueError("unit subgroups contain 1")
        if any(x % 2 == 0 or not 0 < x < mod for x in self.members):
            raise ValueError(f"members must be odd residues in (0, {mod})")

    @property
    def size(self) -> int:
        return len(self.members)

    def is_cyclic(self) -> bool:
        return max(_order_mod_2n(x, self.n) for x in self.members) == self.size


def _order_mod_2n(x: int, n: int) -> int:
    """Multiplicative order of an odd residue mod 2^n. All such orders are
    powers of 2, so repeated squaring reaches 1."""
    mod = 1 << n
    x %= mod
    o = 1
    while x != 1:
        x = x * x % mod
        o *= 2
    return o


def cyclotomic_galois(k: FieldDescriptor, n: int) -> UnitSubgroup2n:
    """Gal(k(zeta_{2^n})/k) inside (Z/2^n)*.

    The restriction to Q(zeta_{2^n}) is injective and its image is the
    stabilizer of k intersect Q(zeta_{2^n}). The only quadratic subfields of
    any Q(zeta_{2^n}) are Q(i), Q(sqrt 2), Q(sqrt -2), so for every other k
    the image is everything; for those three it is the kernel of the
    matching character (x = 1 mod 4; x = +-1 mod 8; x = 1, 3 mod 8), once n
    is large enough for the subfield to be present at all.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    units = range(1, 1 << n, 2)
    if k.is_rational:
        members = frozenset(units)
    elif k.d == -1:
        members = frozenset(x for x in units if x % 4 == 1)
    elif k.d == 2 and n >= 3:
        members = frozenset(x for x in units if x % 8 in (1, 7))
    elif k.d == -2 and n >= 3:
        members = frozenset(x for x in units if x % 8 in (1, 3))
    else:
        members = frozenset(units)
    return UnitSubgroup2n(n, members)


def is_cyclic_ext(k: FieldDescriptor, n: int) -> bool:
    """Is k(zeta_{2^n})/k a cyclic extension?

    Yes iff n <= 2, or k is Q(sqrt -1) or Q(sqrt -2), or k = Q(sqrt 2) and
    n = 3. The only quadratic subfields of Q(zeta_{2^n}) are Q(i) and
    Q(sqrt +-2), so over every other k the Galois group is all of
    (Z/2^n)*, which is cyclic only for n <= 2. Over Q(i) it is
    {x = 1 mod 4}, generated by 5; over Q(sqrt -2) it is {x = 1, 3 mod 8},
    generated by 3; over Q(sqrt 2) it is {x = +-1 mod 8} = <-1> x <9>,
    whose second factor is trivial only for n = 3. cyclotomic_galois
    enumerates the same groups, and the tests compare the two.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return n <= 2 or k.d in (-1, -2) or (k.d == 2 and n == 3)


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


@dataclass(frozen=True)
class Check:
    """One named hypothesis test inside a verdict."""

    name: str
    result: str
    detail: str

    def __post_init__(self) -> None:
        if self.result not in ("pass", "fail"):
            raise ValueError(f"bad check result: {self.result}")


@dataclass(frozen=True)
class Verdict:
    outcome: str
    theorem: str | None
    witness: dict | None
    reasons: tuple[str, ...]
    bailey_e: int
    abelian_invariants: tuple[int, ...]
    group_order: int
    sylow_order: int
    sylow_is_q16: bool
    checks: tuple[Check, ...]

    @property
    def fired(self) -> bool:
        return self.outcome == "not_retract_rational"


F7 = DiagonalForm.of(1, 1, 1, -7)
F8 = DiagonalForm.repeated(8)


def _form_check(
    name: str,
    form: DiagonalForm,
    display: str,
    field: FieldDescriptor,
    checks: list[Check],
    reasons: list[str],
) -> bool:
    """Append the check that form is anisotropic over field; True if it is."""
    if field.is_rational:
        iso = isotropic_Q(form)
    else:
        iso = isotropic_quad(form, field.d).is_isotropic
    detail = f"{form} {'isotropic' if iso else 'anisotropic'} over {field}"
    if iso:
        checks.append(Check(name, "fail", detail))
        reasons.append(f"{display} isotropic over {field}")
        return False
    checks.append(Check(name, "pass", detail))
    return True


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
    dvec = tuple(padic_valuation(m, 2) for m in invs if m % 2 == 0)
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
        ok &= _form_check(
            "form_3_1_m7_anisotropic", F7, "3<1>+<-7>", field, checks, reasons
        )
        ok &= _form_check("form_8_1_anisotropic", F8, "8<1>", field, checks, reasons)
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
