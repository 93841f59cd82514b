"""The work of the stabilizer chains, counted per group spec, in the working
tree and, optionally, in a revision.

    python tools/chainwork.py [--against REV]

Runs group_facts, in one fresh interpreter per tree as tools/parity.py
does, on every distinct perm: spec of parity's corpus and on
catalog:SL2_7 and catalog:SL2_9, and counts five kinds of work for each:
compositions (chain._perm_compose, and the name groups imported), inverses
(chain._perm_inverse, likewise), sifts (StabilizerChain._sift), Schreier
passes (StabilizerChain._schreier_residue) and chains (constructions of a
StabilizerChain); and, sixth, whether groups._giant_facts answered it, so
that a spec moved onto or off that closed-form route shows as such. A
spec refused with an error counts the work done before it. Prints the six
totals, the
counts of each catalog SL2 and of each group of TRAPS, and one SHA-256
over the facts, or the errors, of every spec.

With --against, REV's src/ is exported with git archive and run too, both
trees are printed, and so are the first spec whose counts differ and the
first whose facts differ; the exit status is then 1 if either exists, and
0 if every spec does the same work with the same facts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from families import TRAPS, perm_spec
from parity import ROOT, _run, corpus, export

KINDS = ("compositions", "inverses", "sifts", "schreier passes", "chains", "certified giants")
CATALOG = ("catalog:SL2_7", "catalog:SL2_9")

# Runs in the child: argv[1] is the src/ directory to import from, argv[2]
# the specs, one JSON string per line, argv[3] the file for the records.
RUNNER = r"""
import json, sys
sys.path.insert(0, sys.argv[1])
from noethercheck import chain, cli, groups
if not chain.__file__.startswith(sys.argv[1]):
    sys.exit(f"imported {chain.__file__}, not from {sys.argv[1]}")
counts = [0, 0, 0, 0, 0, 0]

def counted(kind, f):
    def wrapped(*args, **kwargs):
        counts[kind] += 1
        return f(*args, **kwargs)
    return wrapped

chain._perm_compose = groups._perm_compose = counted(0, chain._perm_compose)
chain._perm_inverse = groups._perm_inverse = counted(1, chain._perm_inverse)
Chain = chain.StabilizerChain
Chain._sift = counted(2, Chain._sift)
Chain._schreier_residue = counted(3, Chain._schreier_residue)
Chain.__init__ = counted(4, Chain.__init__)
giant_facts = groups._giant_facts

def answered(*args):
    facts = giant_facts(*args)
    counts[5] += facts is not None
    return facts

groups._giant_facts = answered
with open(sys.argv[2], encoding="utf-8") as specs, open(sys.argv[3], "w", encoding="utf-8") as out:
    for line in specs:
        spec = json.loads(line)
        before = list(counts)
        try:
            facts = groups.group_facts(cli.parse_group(spec))
            facts = [getattr(facts, name) for name in type(facts).__slots__]
        except Exception as exc:
            facts = f"raised {type(exc).__name__}: {exc}"
        work = [n - m for n, m in zip(counts, before)]
        out.write(json.dumps([spec, work, facts], separators=(",", ":")) + "\n")
"""


def specs() -> list[str]:
    """The distinct perm: specs of parity's corpus, in its order, then the
    catalog SL2s."""
    checks = (argv for argv in corpus([]) if argv[:2] == ["check", "--group"] and len(argv) > 2)
    found = {argv[2]: None for argv in checks}
    return [s for s in found if s.startswith("perm:")] + list(CATALOG)


def work(src: Path, spec_list: list[str], tmp: Path) -> list[list]:
    """The [spec, counts, facts] record of each spec, run on src."""
    spec_path, out_path = tmp / "specs.jsonl", tmp / "work.jsonl"
    spec_path.write_text("".join(json.dumps(s) + "\n" for s in spec_list), encoding="utf-8")
    _run(src, spec_path, out_path, RUNNER)
    with open(out_path, encoding="utf-8") as out:
        return [json.loads(line) for line in out]


def report(label: str, records: list[list]) -> None:
    totals = [sum(counts[k] for _, counts, _ in records) for k in range(len(KINDS))]
    print(f"{label}: {len(records)} specs")
    print("  total: " + ", ".join(f"{n} {kind}" for n, kind in zip(totals, KINDS)))
    by_spec = {spec: counts for spec, counts, _ in records}
    named = [(s, s) for s in CATALOG] + [(name, perm_spec(g)) for name, (g, _) in TRAPS.items()]
    for name, spec in named:
        print(f"  {name}: " + ", ".join(f"{n} {kind}" for n, kind in zip(by_spec[spec], KINDS)))
    print(f"  facts sha256 {digest(records)}")


def digest(records: list[list]) -> str:
    facts = hashlib.sha256()
    for spec, _, answer in records:
        facts.update(json.dumps([spec, answer], separators=(",", ":")).encode("utf-8") + b"\n")
    return facts.hexdigest()


def first_difference(ours: list[list], theirs: list[list], field: int):
    """The first pair of records, one spec's in each tree, that differ at
    field (1 the counts, 2 the facts), or None."""
    return next(((x, y) for x, y in zip(ours, theirs) if x[field] != y[field]), None)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", help="git revision to compare")
    args = parser.parse_args(argv)
    spec_list = specs()
    with tempfile.TemporaryDirectory(prefix="chainwork-") as tmp:
        tmp = Path(tmp)
        rev_src = None
        if args.against is not None:
            try:
                rev_src = export(args.against, tmp / "rev")
            except ValueError as exc:  # a revision git cannot export is a usage error
                parser.error(str(exc))
        ours = work(ROOT / "src", spec_list, tmp)
        theirs = None if rev_src is None else work(rev_src, spec_list, tmp)
    report("working tree", ours)
    if theirs is None:
        return 0
    report(args.against, theirs)
    status = 0
    for field, what in ((1, "counts"), (2, "facts")):
        pair = first_difference(ours, theirs, field)
        if pair is None:
            print(f"every spec has the same {what} in both trees")
            continue
        status = 1
        print(f"first spec whose {what} differ: {pair[0][0]}")
        print(f"  working tree: {pair[0][field]}")
        print(f"  {args.against}: {pair[1][field]}")
    return status


if __name__ == "__main__":
    sys.exit(main())
