"""Command line front end.

Subcommands:
  check --group SPEC --field FIELD [--json]   run the obstruction tests
  catalog                                     list the built-in groups
  oracle {three-squares,isotropy,hilbert} N   run a self-contained cross-check

Group specs: "catalog:NAME", "perm:(1 2);(1 2 3 4)" (generators separated
by semicolons, cycles on 1-based points), or "metacyclic:a=8,b=2,c=4,r=7"
(order a*b up to the metacyclic cap 10**24).
Fields: "Q" or "Q(sqrt D)" with D a nonsquare integer; D is reduced to its
squarefree part.

Exit codes for check: 0 when an obstruction fires, 2 when the verdict is
inconclusive, 1 on bad input. The other subcommands exit 0 on success and
1 on any failure or mismatch.
"""

from __future__ import annotations

import json
import re
import sys
from functools import cache
from types import SimpleNamespace

from .exact import QQ, FieldDescriptor
from .galois import verdict
from .groups import (
    CATALOG_NAMES,
    Catalog,
    GroupSpec,
    Metacyclic,
    PermGens,
    group_facts,
)
from .quadforms import three_squares_nat

_ORACLE_LIMITS = {"three-squares": 10**4, "isotropy": 60, "hilbert": 10**4}


def parse_field(text: str) -> FieldDescriptor:
    s = text.strip()
    if s == "Q":
        return QQ
    m = re.fullmatch(r"Q\s*\(\s*sqrt\s*(-?\d+)\s*\)", s)
    if not m:
        raise ValueError(f'bad field (expected "Q" or "Q(sqrt D)"): {text!r}')
    return FieldDescriptor(int(m.group(1)))


def parse_group(text: str) -> GroupSpec:
    s = text.strip()
    if s.startswith("catalog:"):
        name = s[len("catalog:"):].strip()
        if name not in CATALOG_NAMES:
            raise ValueError(f"unknown catalog group: {name}")
        return Catalog(name)
    if s.startswith("perm:"):
        parts = [p for p in (q.strip() for q in s[len("perm:"):].split(";")) if p]
        if not parts:
            raise ValueError("perm: needs at least one generator")
        return PermGens.from_cycles(*parts)
    if s.startswith("metacyclic:"):
        kv: dict[str, int] = {}
        for item in s[len("metacyclic:"):].split(","):
            k, sep, v = item.partition("=")
            k = k.strip()
            if not sep or k not in ("a", "b", "c", "r") or k in kv:
                raise ValueError(f"bad metacyclic parameter: {item.strip()!r}")
            kv[k] = int(v)
        if len(kv) != 4:
            raise ValueError("metacyclic: needs all of a=, b=, c=, r=")
        return Metacyclic(kv["a"], kv["b"], kv["c"], kv["r"])
    raise ValueError(f"unrecognized group spec: {text!r}")


def _perm_cycles(img: tuple[int, ...]) -> str:
    seen = [False] * len(img)
    parts = []
    for i in range(len(img)):
        if seen[i] or img[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = img[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = img[j]
        parts.append("(" + " ".join(str(k + 1) for k in cyc) + ")")
    return "".join(parts) or "()"


def group_spec_string(spec: GroupSpec) -> str:
    """Canonical echo of a parsed group spec."""
    if isinstance(spec, Catalog):
        return f"catalog:{spec.name}"
    if isinstance(spec, Metacyclic):
        return f"metacyclic:a={spec.a},b={spec.b},c={spec.c},r={spec.r}"
    return "perm:" + ";".join(_perm_cycles(g) for g in spec.generators)


def cmd_check(args) -> int:
    spec = parse_group(args.group)
    field = parse_field(args.field)
    v = verdict(spec, field)
    if args.json:
        payload = {
            "group": {
                "spec": group_spec_string(spec),
                "order": v.group_order,
                "abelian_invariants": list(v.abelian_invariants),
                "sylow2_order": v.sylow_order,
                "sylow2_is_q16": v.sylow_is_q16,
            },
            "field": str(field),
            "verdict": v.outcome,
            "theorem": v.theorem,
            "witness": v.witness,
            "checks": [
                {"name": c.name, "result": c.result, "detail": c.detail} for c in v.checks
            ],
            "bailey_e": v.bailey_e,
        }
        print(json.dumps(payload, separators=(",", ":")))
    else:
        invs = ",".join(str(m) for m in v.abelian_invariants) or "-"
        print(f"group: {group_spec_string(spec)} (order {v.group_order})")
        print(f"field: {field}")
        print(f"abelian invariants: ({invs})")
        print(f"2-Sylow: order {v.sylow_order}, Q16 = {'yes' if v.sylow_is_q16 else 'no'}")
        print(f"bailey_e: {v.bailey_e}")
        for c in v.checks:
            print(f"  {c.name}: {c.result} ({c.detail})")
        if v.fired:
            wit = ", ".join(f"{k}={val}" for k, val in v.witness.items())
            print(f"verdict: not_retract_rational by theorem {v.theorem} ({wit})")
        else:
            print("verdict: inconclusive")
            for r in v.reasons:
                print(f"  reason: {r}")
    return 0 if v.fired else 2


def cmd_catalog(args) -> int:
    for name in CATALOG_NAMES:
        g = group_facts(Catalog(name))
        sylow = "= itself" if g.sylow2_order == g.order else f"order {g.sylow2_order}"
        print(f"{name}: order {g.order}, sylow2 {sylow}, Q16 = {'yes' if g.sylow2_is_q16 else 'no'}")
    return 0


def cmd_oracle(args) -> int:
    from .oracles import isotropy_grid_check, reciprocity_failures, three_squares_sieve

    bound = args.bound
    limit = _ORACLE_LIMITS[args.kind]
    if not 1 <= bound <= limit:
        print(f"error: bound for {args.kind} must be in [1, {limit}]", file=sys.stderr)
        return 1
    if args.kind == "three-squares":
        sieve = three_squares_sieve(bound)
        for n in range(1, bound + 1):
            if three_squares_nat(n) != bool(sieve[n]):
                print(f"mismatch at n = {n}", file=sys.stderr)
                return 1
        print(f"{bound}/{bound} agree")
        return 0
    if args.kind == "hilbert":
        fails = reciprocity_failures(bound)
        if fails:
            print(f"{fails} reciprocity failures", file=sys.stderr)
            return 1
        print(f"reciprocity holds on {bound} samples")
        return 0
    try:
        isotropy_grid_check(height=bound)
    except AssertionError as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return 1
    print("all dim <= 4 sample forms agree")
    return 0


@cache
def _build_parser():
    """The parser and argparse itself, loaded on first use and then reused:
    building it costs more than parsing a typical command line."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        # argparse exits with status 2 on bad usage, which collides with the
        # "inconclusive" exit code; route all usage errors to status 1
        def error(self, message: str) -> None:
            self.print_usage(sys.stderr)
            print(f"error: {message}", file=sys.stderr)
            raise SystemExit(1)

    parser = _Parser(prog="noethercheck")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run the obstruction tests")
    p_check.add_argument("--group", required=True, help="group spec")
    p_check.add_argument("--field", required=True, help='"Q" or "Q(sqrt D)"')
    p_check.add_argument("--json", action="store_true", help="machine readable output")
    p_check.set_defaults(func=cmd_check)

    p_catalog = sub.add_parser("catalog", help="list the built-in groups")
    p_catalog.set_defaults(func=cmd_catalog)

    p_oracle = sub.add_parser("oracle", help="run a self-contained cross-check")
    p_oracle.add_argument("kind", choices=("three-squares", "isotropy", "hilbert"))
    p_oracle.add_argument("bound", type=int)
    p_oracle.set_defaults(func=cmd_oracle)

    return parser


def _plain_check_args(argv: list[str]) -> SimpleNamespace | None:
    """The arguments of `check --group SPEC --field FIELD [--json]`, with
    the options in any order and no value starting with "-", as argparse
    would read them; None for any other line. Importing argparse and
    building its parser cost several checks, and running it half of one."""
    if argv[:1] != ["check"]:
        return None
    opts: dict[str, str | bool] = {"--json": False}
    rest = iter(argv[1:])
    for opt in rest:
        if opt == "--json":
            opts[opt] = True
        elif opt in ("--group", "--field") and not (value := next(rest, "-")).startswith("-"):
            opts[opt] = value
        else:
            return None
    if len(opts) != 3:
        return None
    return SimpleNamespace(
        command="check", group=opts["--group"], field=opts["--field"], json=opts["--json"], func=cmd_check
    )


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if (args := _plain_check_args(argv)) is None:
        try:  # every other line, and every usage error, goes through argparse
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
