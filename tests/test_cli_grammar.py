"""A grammar fuzzer for the command line. Check and oracle lines are drawn
from the grammar of their arguments, over small group specs (degree at
most 12) and fields, and their numerals are mutated the ways a typed
number goes wrong: an underscore, a non-ASCII digit, a sign, leading
zeros, spaces, or more digits than the cap has. Each line runs in process
through cli.main, and whatever it does must be one of the documented
outcomes: no exception escapes; check exits 0, 1 or 2 and the others 0 or
1; a line that exits 1 ends stderr with its one error line, and any other
writes nothing there; and a check that answers echoes a spec and a field
that, fed back, print the same bytes."""

import contextlib
import io
import json
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from noethercheck.cli import main

# a numeral past each cap, which the parse refuses by naming the cap; the
# caps are 10**24 for a radicand or a metacyclic parameter, 10**6 for a
# point and 10**4 for an oracle bound
_PAST_CAP = {"radicand": "9" * 26, "parameter": "9" * 26, "point": "9" * 8, "bound": "9" * 6}
_CATALOG = ("C1", "C8", "C16", "D16", "SD16", "Q16", "S4", "A4", "SL2_7", "c8", "C٨")
_KINDS = ("three-squares", "isotropy", "hilbert")


@st.composite
def _mutated(draw, place: str, n: int) -> str:
    """The numeral of n at place, typed wrong in one way, which may still
    be a numeral."""
    text = str(n)
    i = draw(st.integers(0, len(text)))
    return draw(st.sampled_from((
        text[:i] + "_" + text[i:],
        # a digit in Arabic-Indic or fullwidth form
        text[:i] + draw(st.sampled_from("٠١٢٣٤٥٦٧٨٩０１２３４５６７８９")) + text[i + 1 :],
        draw(st.sampled_from("+-")) + text,
        "0" * draw(st.integers(1, 40)) + text,
        text[:i] + " " + text[i:],
        " " + text + " ",
        _PAST_CAP[place],
    )))


@st.composite
def _render(draw, parts: list) -> str:
    """The text of parts, each a str or a numeral (place, n), with at most
    one numeral mutated."""
    slots = [i for i, part in enumerate(parts) if type(part) is tuple]
    chosen = draw(st.sampled_from(slots)) if slots and draw(st.booleans()) else None
    return "".join(
        draw(_mutated(*part)) if i == chosen else str(part[1]) if type(part) is tuple else part
        for i, part in enumerate(parts)
    )


@st.composite
def _cycles(draw, degree: int) -> list:
    """One generator on the points 1..degree in cycle notation, with the
    singleton cycles of some fixed points, or "()"."""
    if draw(st.integers(0, 7)) == 0:
        return ["()"]
    perm = draw(st.permutations(range(degree)))
    seen, out = set(), []
    for start in range(degree):
        if start in seen:
            continue
        cycle, x = [], start
        while x not in seen:
            seen.add(x)
            cycle.append(("point", x + 1))
            x = perm[x]
        if len(cycle) > 1 or draw(st.integers(0, 3)) == 0:
            out += ["(", *(part for p in cycle for part in (p, " "))][:-1] + [")"]
    return out or ["()"]


@st.composite
def _group(draw) -> list:
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return ["catalog:" + draw(st.sampled_from(_CATALOG))]
    if kind == 1:
        degree = draw(st.integers(1, 12))
        gens = draw(st.lists(_cycles(degree), min_size=1, max_size=3))
        return ["perm:", *(part for g in gens for part in (*g, ";"))][:-1]
    # a consistent presentation, whose parameters a mutation may break
    a, b = draw(st.integers(1, 32)), draw(st.integers(1, 4))
    r = draw(st.sampled_from([r for r in range(a) if gcd(r, a) == 1 and pow(r, b, a) == 1 % a]))
    c = draw(st.sampled_from([c for c in range(a) if c * (r - 1) % a == 0]))
    out = ["metacyclic:"]
    for k, v in zip("abcr", (a, b, c, r)):
        out += [f"{k}=", ("parameter", v), ","]
    return out[:-1]


_RADICANDS = (-7, -3, -2, -1, 2, 3, 5, 8, 12, 17, 41, 999999999989)


@st.composite
def _line(draw) -> list[str]:
    if draw(st.integers(0, 3)) == 0:
        bound = draw(_render([("bound", draw(st.integers(-1, 12)))]))
        return ["oracle", draw(st.sampled_from(_KINDS)), bound]
    d = ("radicand", draw(st.sampled_from(_RADICANDS)))
    field = draw(st.sampled_from((["Q"], [" Q"], ["Q(sqrt ", d, ")"], ["Q( sqrt ", d, " )"])))
    flags = ["--json"] if draw(st.booleans()) else []
    return ["check", "--group", draw(_render(draw(_group()))), "--field", draw(_render(field)), *flags]


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _echo(argv: list[str], out: str) -> list[str]:
    """The check line of the spec and field that out echoes."""
    if "--json" in argv:
        data = json.loads(out)
        spec, field = data["group"]["spec"], data["field"]
    else:
        group, field, *_ = out.splitlines()
        spec = group.removeprefix("group: ").rpartition(" (order ")[0]
        field = field.removeprefix("field: ")
    return ["check", "--group", spec, "--field", field, *argv[5:]]


@settings(max_examples=250, deadline=None)
@given(_line())
def test_every_drawn_line_has_a_documented_outcome(argv):
    code, out, err = _run(argv)
    assert code in ((0, 1, 2) if argv[0] == "check" else (0, 1))
    if code == 1:
        lines = err.splitlines()
        assert err.endswith("\n") and lines[-1].startswith("error: ")
        assert sum(line.startswith("error:") for line in lines) == 1
    else:
        assert err == ""
    if argv[0] == "check" and code != 1:
        again = _run(_echo(argv, out))
        assert again == (code, out, "")
