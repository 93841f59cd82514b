"""Byte parity of the command line between the working tree and a revision.

    python tools/parity.py --against REV [--expect-diff FILE]

Exports the src/ of REV with git archive into a temporary directory and
runs one seeded corpus of command lines through noethercheck.cli.main, in
process, in one fresh interpreter per tree: the working tree's src/ and
REV's. Each command line gives one record: its argv, stdout, stderr and
exit code. The first record that differs is printed with both outputs,
and the exit status is then 1; with none, it says so, prints one SHA-256
over the working tree's records, and the exit status is 0.

A change that means to alter some outputs lists their argv in FILE, one
JSON list per line (blank lines are skipped). Each listed record that
differs is printed with both outputs, as expected. The run then fails on
any differing record that FILE does not list, and on any listed argv
whose record did not change, the corpus not holding it included.

The corpus is generated here, without importing the package, from the
families that the tests share in tools/families.py and the seeded specs
below:
- the catalog subcommand, and every name that REV's catalog lists over a
  fixed list of fields, Q(sqrt -2) among them, plain and --json;
- the GROUP_ITEMS of bench/workloads.py, read from its source;
- four products of cyclic 2-groups on disjoint points, three of them with
  two or three 2-power invariants of order at least 8, over the same
  fields, plain and --json;
- the cap errors and the usage errors, one generator of an order past
  the metacyclic cap, and a longer one given twice;
- numerals with a sign, leading zeros, an underscore or non-ASCII digits,
  in each place a command line holds one;
- the oracle subcommands at small bounds;
- 2000 seeded permutation specs, a third of them groups of 2-part 16 on
  16 points or more;
- S_n and A_n for n = 5..40, from a transposition and an n-cycle, from a
  3-cycle and an n-cycle or an (n - 1)-cycle, from the n - 1 adjacent
  transpositions and, for n >= 8, from a 5-cycle and an n-cycle, and the
  look-alike groups in TRAPS, over Q, plain and --json;
- SL2(p) on its p**2 - 1 nonzero vectors for p in SL2_PRIMES, over Q and
  Q(sqrt 17), plain and --json;
- S_8 and the regular Q16 on a few points just below 10**6, over Q;
- every metacyclic presentation with 2-part 16 and a*b <= 1200, over
  Q(sqrt 17).
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from itertools import zip_longest
from math import gcd
from pathlib import Path

from families import (
    CYCLIC_PRODUCTS,
    ORDER_16,
    TRAPS,
    cycle,
    cycle_string,
    cyclic_product,
    giants,
    perm_spec,
    regular,
    sl2,
)

ROOT = Path(__file__).resolve().parent.parent
SEED = 20191
PERM_SPECS = 2000
SL2_PRIMES = (5, 7, 11, 13, 23)
FIELDS = ("Q", "Q(sqrt -1)", "Q(sqrt 2)", "Q(sqrt -7)", "Q(sqrt 17)", "Q(sqrt 999999999989)")
# the catalog and the cyclic products also run over the other field where
# k(zeta_{2^n})/k is cyclic at every level; the seeded specs draw from
# FIELDS alone, so each keeps its field
CATALOG_FIELDS = FIELDS + ("Q(sqrt -2)",)

# Runs in the child: argv[1] is the src/ directory to import from, argv[2]
# the corpus, one JSON argv per line, argv[3] the file for the records.
# -I -S keep any installed copy of the package off the path.
RUNNER = r"""
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import noethercheck.cli as cli
if not cli.__file__.startswith(sys.argv[1]):
    sys.exit(f"imported {cli.__file__}, not from {sys.argv[1]}")
with open(sys.argv[2], encoding="utf-8") as corpus, open(sys.argv[3], "w", encoding="utf-8") as out:
    for line in corpus:
        argv = json.loads(line)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except Exception as exc:
                code = f"raised {type(exc).__name__}: {exc}"
        record = [argv, stdout.getvalue(), stderr.getvalue(), code]
        out.write(json.dumps(record, separators=(",", ":")) + "\n")
"""


def _check(group: str, field: str, *flags: str) -> list[str]:
    return ["check", "--group", group, "--field", field, *flags]


def _two_part_16(rng: random.Random) -> str:
    """A group of 2-part 16 on 16 points or more: a regular group of order
    16, or S4 x C2 or A4 x C4, on shifted points, times odd cycles on
    fresh points, each a generator of its own or carried by the first."""
    shift = rng.randint(0, 6)
    kind = rng.randrange(len(ORDER_16) + 2)
    if kind < len(ORDER_16):
        gens = regular(*list(ORDER_16.values())[kind], shift=shift)
        first = shift + 17
    elif kind == len(ORDER_16):
        gens = [cycle(shift + 1, 2), cycle(shift + 1, 4), cycle(shift + 5, 2)]
        first = shift + 7
    else:
        double = f"({shift + 1} {shift + 2})({shift + 3} {shift + 4})"
        gens = [cycle(shift + 1, 3), double, cycle(shift + 5, 4)]
        first = shift + 9
    for n in rng.sample((3, 5, 7, 9, 11, 13, 15), rng.randint(0, 3)):
        odd = cycle(first, n)
        first += n
        if rng.random() < 0.5:
            gens.append(odd)
        else:
            gens[0] += odd
    if first <= 17:  # a fixed point that raises the degree to 16 or more
        gens[-1] += f"({rng.randint(17, 24)})"
    rng.shuffle(gens)
    return perm_spec(gens)


def _random_perm(rng: random.Random) -> str:
    degree = rng.randint(2, 9)
    gens = []
    for _ in range(rng.randint(1, 4)):
        gens.append(cycle_string(rng.sample(range(degree), degree)))
    return perm_spec(gens)


def _group_items() -> list[str]:
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text(encoding="utf-8"))
    for node in tree.body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and targets == ["GROUP_ITEMS"]:
            return list(ast.literal_eval(node.value))
    raise SystemExit("bench/workloads.py defines no GROUP_ITEMS")


def corpus(catalog: list[str]) -> list[list[str]]:
    rng = random.Random(SEED)
    lines = [["catalog"]]
    for name in catalog:
        for field in CATALOG_FIELDS:
            lines += [_check(f"catalog:{name}", field), _check(f"catalog:{name}", field, "--json")]
    for spec in _group_items():
        for field in ("Q", "Q(sqrt -1)"):
            lines += [_check(spec, field), _check(spec, field, "--json")]
    for orders in CYCLIC_PRODUCTS:
        spec = perm_spec(cyclic_product(orders))
        for field in CATALOG_FIELDS:
            lines += [_check(spec, field), _check(spec, field, "--json")]
    caps = [
        perm_spec(["(1 2)", cycle(1, 3000)]),  # the chain cap
        "perm:(1 1000001)",  # the degree cap
        # the closure cap of the Q16 test
        perm_spec(regular(*ORDER_16["Q16"], odd=(3, 5, 7, 11, 13, 17), carried=True)),
        "metacyclic:a=1000000000000,b=1000000000001,c=0,r=1",  # the metacyclic cap
        "metacyclic:a=" + "9" * 30 + ",b=1,c=0,r=1",
        "perm:(1 " + "9" * 30 + ")",
        # one generator of the prime orders up to 71, of order about 5.6 * 10**26,
        # which no metacyclic cap bounds
        perm_spec(["".join(cyclic_product(p for p in range(2, 72) if all(p % q for q in range(2, p))))]),
        # one generator of the 46 primes below 200 given twice, whose chain
        # would pass the chain cap
        perm_spec(["".join(cyclic_product(p for p in range(2, 200) if all(p % q for q in range(2, p))))] * 2),
    ]
    lines += [_check(spec, "Q") for spec in caps]
    for radicand in ("1000000000000000000000001", "7" * 40):  # the factorization cap
        lines.append(_check("catalog:C8", f"Q(sqrt {radicand})"))
    bad = [
        ("catalog:C65", "Q"), ("catalog:c8", "Q"), ("catalog:C٨", "Q"), ("perm:", "Q"),
        ("perm:(1 2", "Q"), ("perm:(0 1)", "Q"), ("perm:(1 1)", "Q"), ("perm:(1 2)x", "Q"),
        ("metacyclic:a=8,b=2,c=4", "Q"), ("metacyclic:a=8,b=2,c=4,r=3", "Q"),
        ("metacyclic:a=1e3,b=1,c=0,r=0", "Q"), ("metacyclic:a=8,a=8,b=2,c=4,r=7", "Q"),
        ("metacyclic:a=0,b=2,c=0,r=0", "Q"), ("nonsense", "Q"), ("catalog:C8", "Q(sqrt 4)"),
        ("catalog:C8", "Q(sqrt 0)"), ("catalog:C8", "Q(sqrt 1)"), ("catalog:C8", "Q(sqrt x)"),
        ("catalog:C8", "R"), ("catalog:C8", "Q(sqrt 1_7)"), ("catalog:C8", "Q(sqrt ١٧)"),
    ]
    lines += [_check(g, f) for g, f in bad]
    numerals = [
        ("catalog:C8", "Q(sqrt +17)"), ("catalog:C8", "Q(sqrt 0017)"),
        ("metacyclic:a=008,b=2,c=4,r=7", "Q"), ("metacyclic:a=1_6,b=1,c=0,r=1", "Q"),
        ("perm:(01 2)", "Q"), ("perm:(1_0 2)", "Q"), ("perm:(١ 2)", "Q"),
    ]
    lines += [_check(g, f) for g, f in numerals]
    lines += [["oracle", "three-squares", "+50"], ["oracle", "three-squares", "1_000"]]
    lines += [
        [], ["check"], ["check", "--group"], ["check", "--group", "catalog:C8"],
        ["check", "--field", "Q"], ["frobnicate"], ["catalog", "extra"], ["oracle"],
        ["oracle", "hilbert"], ["oracle", "hilbert", "x"], ["oracle", "foo", "3"],
        ["check", "--group", "catalog:C8", "--field", "Q", "--bogus"],
        ["check", "--group", "-x", "--field", "Q"],
        ["check", "--json", "--field", "Q", "--group", "catalog:Q16"],
        ["check", "--group", "catalog:C8", "--group", "catalog:Q16", "--field", "Q"],
        ["--help"], ["check", "--help"],
    ]
    for kind, limit in (("three-squares", 10**4), ("isotropy", 60), ("hilbert", 10**4)):
        lines += [["oracle", kind, str(n)] for n in (-1, 0, 1, 2, 7, 12, limit + 1)]
    for k in range(PERM_SPECS):
        spec = _two_part_16(rng) if k % 3 == 0 else _random_perm(rng)
        lines.append(_check(spec, FIELDS[k % len(FIELDS)], *(["--json"] if k % 2 else [])))
    # S_n and A_n, then the groups that look like them
    specs = [perm_spec(gens) for n in range(5, 41) for gens in giants(n).values()]
    for spec in specs + [perm_spec(gens) for gens, _ in TRAPS.values()]:
        lines += [_check(spec, "Q"), _check(spec, "Q", "--json")]
    for p in SL2_PRIMES:
        spec = perm_spec(sl2(p))
        for field in ("Q", "Q(sqrt 17)"):
            lines += [_check(spec, field), _check(spec, field, "--json")]
    # S_8 and the regular Q16 on the points 999993...10**6 and 999985...10**6,
    # a few moved points at the top of the degree cap
    high = [["(999993 999994)", cycle(999993, 8)], regular(*ORDER_16["Q16"], shift=999984)]
    lines += [_check(perm_spec(gens), "Q") for gens in high]
    for a in range(1, 1201):
        for b in range(1, 1200 // a + 1):
            if a * b & -(a * b) != 16:
                continue
            for r in (r for r in range(a) if gcd(r, a) == 1 and pow(r, b, a) == 1 % a):
                for c in (c for c in range(a) if c * (r - 1) % a == 0):
                    spec = f"metacyclic:a={a},b={b},c={c},r={r}"
                    lines.append(_check(spec, "Q(sqrt 17)", "--json"))
    return lines


def export(rev: str, dest: Path) -> Path:
    """Extract the src/ of the git revision rev under dest, with git
    archive, and return that src/. Raises ValueError with git's message
    for a revision it cannot export."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"], capture_output=True
    )
    if archive.returncode:
        raise ValueError(archive.stderr.decode(errors="replace").strip())
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def _run(src: Path, corpus_path: Path, out_path: Path, runner: str = RUNNER) -> None:
    """Run runner in a fresh interpreter with the arguments src, corpus_path
    and out_path."""
    cmd = [sys.executable, "-I", "-S", "-c", runner, str(src), str(corpus_path), str(out_path)]
    # argparse wraps its usage lines to the terminal width it reads
    subprocess.run(cmd, check=True, timeout=600, env={**os.environ, "COLUMNS": "80"})


def _catalog_names(src: Path, tmp: Path) -> list[str]:
    """The names that the catalog subcommand of src lists, each before the
    colon of its line."""
    corpus_path, out_path = tmp / "catalog.jsonl", tmp / "names.jsonl"
    corpus_path.write_text(json.dumps(["catalog"]) + "\n", encoding="utf-8")
    _run(src, corpus_path, out_path)
    stdout = json.loads(out_path.read_text(encoding="utf-8"))[1]
    return [line.split(":")[0] for line in stdout.splitlines()]


# the record read where one stream has run out
MISSING = "[null,null,null,null]"


def compare(ours, theirs, expected):
    """Compare two streams of records, one JSON line each, in corpus order.

    expected is an iterable of argv lists whose records may differ.
    Returns the SHA-256 of ours, the (ours, theirs) pairs that differ at an
    argv not expected, the pairs that differ as expected, and the expected
    argv whose records did not change. A stream that runs out is read as
    records of null fields."""
    want = {json.dumps(argv) for argv in expected}
    digest = hashlib.sha256()
    unexpected, as_expected, changed = [], [], set()
    for x, y in zip_longest(ours, theirs, fillvalue=MISSING):
        digest.update(x.encode("utf-8"))
        if x == y:
            continue
        key = json.dumps(_argv(x, y))
        if key in want:
            as_expected.append((x, y))
            changed.add(key)
        else:
            unexpected.append((x, y))
    unchanged = [json.loads(key) for key in sorted(want - changed)]
    return digest.hexdigest(), unexpected, as_expected, unchanged


def _argv(x: str, y: str) -> list[str]:
    """The argv of a pair of records, read from one that did not run out."""
    return json.loads(y if x == MISSING else x)[0]


def _read_expected(path: str, parser: argparse.ArgumentParser) -> list[list[str]]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        parser.error(f"cannot read {path}: {exc.strerror}")
    out = []
    for n, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            argv = json.loads(line)
        except ValueError:
            argv = None
        if not (isinstance(argv, list) and all(isinstance(a, str) for a in argv)):
            parser.error(f"{path}:{n}: not a JSON list of strings: {line!r}")
        out.append(argv)
    return out


def _show(label: str, line: str) -> None:
    _, stdout, stderr, code = json.loads(line)
    print(f"--- {label}: exit {code}")
    print(f"stdout: {stdout!r}")
    print(f"stderr: {stderr!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, metavar="REV", help="git revision to compare")
    parser.add_argument(
        "--expect-diff", metavar="FILE", help="argv whose records must differ, one JSON list per line"
    )
    args = parser.parse_args(argv)
    expected = _read_expected(args.expect_diff, parser) if args.expect_diff else []
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        tmp = Path(tmp)
        try:
            rev_src = export(args.against, tmp / "rev")
        except ValueError as exc:  # a revision git cannot export is a usage error
            parser.error(str(exc))
        lines = corpus(_catalog_names(rev_src, tmp))
        corpus_path = tmp / "corpus.jsonl"
        corpus_path.write_text("".join(json.dumps(a) + "\n" for a in lines), encoding="utf-8")
        ours, theirs = tmp / "tree.jsonl", tmp / "rev.jsonl"
        _run(ROOT / "src", corpus_path, ours)
        _run(rev_src, corpus_path, theirs)
        with open(ours, encoding="utf-8") as a, open(theirs, encoding="utf-8") as b:
            digest, unexpected, as_expected, unchanged = compare(a, b, expected)
    for x, y in as_expected:
        print(f"differs as expected: argv {_argv(x, y)}")
        _show("working tree", x)
        _show(args.against, y)
    for argv in unchanged:
        print(f"expected to differ, but unchanged or not in the corpus: argv {argv}")
    if unexpected:
        x, y = unexpected[0]
        print(f"{len(unexpected)} records differ unexpectedly; the first: argv {_argv(x, y)}")
        _show("working tree", x)
        _show(args.against, y)
    if unexpected or unchanged:
        return 1
    same = len(lines) - len(as_expected)
    print(f"{same} records identical to {args.against}", end="")
    print(f", {len(as_expected)} differ as expected" if expected else "")
    print(f"sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
