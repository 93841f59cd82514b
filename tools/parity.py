"""Byte parity of the command line between the working tree and a revision.

    python tools/parity.py --against REV

Exports the src/ of REV with git archive into a temporary directory and
runs one seeded corpus of command lines through noethercheck.cli.main, in
process, in one fresh interpreter per tree: the working tree's src/ and
REV's. Each command line gives one record: its argv, stdout, stderr and
exit code. The first record that differs is printed with both outputs,
and the exit status is then 1; with none, it says so, prints one SHA-256
over all records, and the exit status is 0.

The corpus is generated here, without importing the package:
- the catalog subcommand, and every name that REV's catalog lists over a
  fixed list of fields, plain and --json;
- the GROUP_ITEMS of bench/workloads.py, read from its source;
- four products of cyclic 2-groups on disjoint points, three of them with
  two or three 2-power invariants of order at least 8, over the same
  fields, plain and --json;
- the cap errors and the usage errors;
- the oracle subcommands at small bounds;
- 2000 seeded permutation specs, a third of them groups of 2-part 16 on
  16 points or more;
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

ROOT = Path(__file__).resolve().parent.parent
SEED = 20191
PERM_SPECS = 2000
FIELDS = ("Q", "Q(sqrt -1)", "Q(sqrt 2)", "Q(sqrt -7)", "Q(sqrt 17)", "Q(sqrt 999999999989)")
# C8xC8, C16xC8xC4, C32xC8xC8 and C4xC4
CYCLIC_PRODUCTS = ((8, 8), (16, 8, 4), (32, 8, 8), (4, 4))

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


def _cycle(first: int, n: int) -> str:
    return "(" + " ".join(str(first + i) for i in range(n)) + ")"


def _cycle_string(perm: list[int], shift: int = 0) -> str:
    """perm on 0..n-1 in 1-based cycle notation, its points moved up by shift."""
    seen, out = set(), []
    for i in range(len(perm)):
        if i in seen or perm[i] == i:
            continue
        cycle, j = [], i
        while j not in seen:
            seen.add(j)
            cycle.append(str(j + 1 + shift))
            j = perm[j]
        out.append("(" + " ".join(cycle) + ")")
    return "".join(out) or "()"


def _regular(a: int, b: int, c: int, r: int) -> list[list[int]]:
    """<s, t | s**a, t**b = s**c, t*s*t**-1 = s**r> acting on its a*b
    elements s**i * t**j, numbered i + a*j, by right multiplication: the
    images of s and t."""

    def mult(x, y):
        (i1, j1), (i2, j2) = x, y
        i, j = i1 + i2 * pow(r, j1, a), j1 + j2
        if j >= b:
            i, j = i + c, j - b
        return i % a, j

    elems = [(i, j) for j in range(b) for i in range(a)]
    return [[k + a * m for k, m in (mult(x, g) for x in elems)] for g in ((1 % a, 0), (0, 1 % b))]


# (a, b, c, r) of Q16, D16, SD16, C16, C8xC2, M16, C4:C4 and C4xC4
ORDER_16 = [
    (8, 2, 4, 7), (8, 2, 0, 7), (8, 2, 0, 3), (16, 1, 0, 1),
    (8, 2, 0, 1), (8, 2, 0, 5), (4, 4, 0, 3), (4, 4, 0, 1),
]


def _two_part_16(rng: random.Random) -> str:
    """A group of 2-part 16 on 16 points or more: a regular group of order
    16, or S4 x C2 or A4 x C4, on shifted points, times odd cycles on
    fresh points, each a generator of its own or carried by the first."""
    shift = rng.randint(0, 6)
    kind = rng.randrange(len(ORDER_16) + 2)
    if kind < len(ORDER_16):
        gens = [_cycle_string(g, shift) for g in _regular(*ORDER_16[kind])]
        first = shift + 17
    elif kind == len(ORDER_16):
        gens = [_cycle(shift + 1, 2), _cycle(shift + 1, 4), _cycle(shift + 5, 2)]
        first = shift + 7
    else:
        double = f"({shift + 1} {shift + 2})({shift + 3} {shift + 4})"
        gens = [_cycle(shift + 1, 3), double, _cycle(shift + 5, 4)]
        first = shift + 9
    for n in rng.sample((3, 5, 7, 9, 11, 13, 15), rng.randint(0, 3)):
        cycle = _cycle(first, n)
        first += n
        if rng.random() < 0.5:
            gens.append(cycle)
        else:
            gens[0] += cycle
    if first <= 17:  # a fixed point that raises the degree to 16 or more
        gens[-1] += f"({rng.randint(17, 24)})"
    rng.shuffle(gens)
    return "perm:" + ";".join(gens)


def _random_perm(rng: random.Random) -> str:
    degree = rng.randint(2, 9)
    gens = []
    for _ in range(rng.randint(1, 4)):
        gens.append(_cycle_string(rng.sample(range(degree), degree)))
    return "perm:" + ";".join(gens)


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
        for field in FIELDS:
            lines += [_check(f"catalog:{name}", field), _check(f"catalog:{name}", field, "--json")]
    for spec in _group_items():
        for field in ("Q", "Q(sqrt -1)"):
            lines += [_check(spec, field), _check(spec, field, "--json")]
    for orders in CYCLIC_PRODUCTS:
        firsts = [1 + sum(orders[:i]) for i in range(len(orders))]
        spec = "perm:" + ";".join(_cycle(f, n) for f, n in zip(firsts, orders))
        for field in FIELDS:
            lines += [_check(spec, field), _check(spec, field, "--json")]
    s, t = (_cycle_string(g) for g in _regular(8, 2, 4, 7))
    first, odd = 17, ""
    for n in (3, 5, 7, 11, 13, 17):
        odd, first = odd + _cycle(first, n), first + n
    caps = [
        "perm:(1 2);" + _cycle(1, 3000),  # the chain cap
        "perm:(1 1000001)",  # the degree cap
        f"perm:{s}{odd};{t}",  # the closure cap of the Q16 test
        "metacyclic:a=1000000000000,b=1000000000001,c=0,r=1",  # the metacyclic cap
        "metacyclic:a=" + "9" * 30 + ",b=1,c=0,r=1",
        "perm:(1 " + "9" * 30 + ")",
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
    for a in range(1, 1201):
        for b in range(1, 1200 // a + 1):
            if a * b & -(a * b) != 16:
                continue
            for r in (r for r in range(a) if gcd(r, a) == 1 and pow(r, b, a) == 1 % a):
                for c in (c for c in range(a) if c * (r - 1) % a == 0):
                    spec = f"metacyclic:a={a},b={b},c={c},r={r}"
                    lines.append(_check(spec, "Q(sqrt 17)", "--json"))
    return lines


def _run(src: Path, corpus_path: Path, out_path: Path) -> None:
    cmd = [sys.executable, "-I", "-S", "-c", RUNNER, str(src), str(corpus_path), str(out_path)]
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


def _show(label: str, line: str) -> None:
    _, stdout, stderr, code = json.loads(line)
    print(f"--- {label}: exit {code}")
    print(f"stdout: {stdout!r}")
    print(f"stderr: {stderr!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, metavar="REV", help="git revision to compare")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", "--format=tar", args.against, "src"],
            capture_output=True,
        )
        if archive.returncode:  # a revision git cannot export is a usage error
            parser.error(archive.stderr.decode(errors="replace").strip())
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp / "rev", filter="data")
        lines = corpus(_catalog_names(tmp / "rev" / "src", tmp))
        corpus_path = tmp / "corpus.jsonl"
        corpus_path.write_text("".join(json.dumps(a) + "\n" for a in lines), encoding="utf-8")
        ours, theirs = tmp / "tree.jsonl", tmp / "rev.jsonl"
        _run(ROOT / "src", corpus_path, ours)
        _run(tmp / "rev" / "src", corpus_path, theirs)
        digest = hashlib.sha256()
        with open(ours, encoding="utf-8") as a, open(theirs, encoding="utf-8") as b:
            for n, (x, y) in enumerate(zip_longest(a, b, fillvalue="[null,null,null,null]")):
                digest.update(x.encode("utf-8"))
                if x != y:
                    print(f"record {n} differs: argv {json.loads(x)[0]}")
                    _show("working tree", x)
                    _show(args.against, y)
                    return 1
        print(f"{len(lines)} records identical to {args.against}")
        print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
