"""The work of the stabilizer chains, counted per group spec, in the working
tree and, optionally, in a revision.

    python tools/chainwork.py [--against REV]

Runs group_facts, in one fresh interpreter per tree as tools/parity.py
does, on every distinct perm: spec of parity's corpus and on
catalog:SL2_7 and catalog:SL2_9, and counts five kinds of work for each:
compositions (chain._perm_compose, and the name groups imported), inverses
(chain._perm_inverse), sifts (StabilizerChain._sift), Schreier
passes (StabilizerChain._schreier_residue) and chains (constructions of a
StabilizerChain); and, sixth, whether groups._giant_facts answered it, so
that a spec moved onto or off that closed-form route shows as such. A
spec refused with an error counts the work done before it. Prints the six
totals, the
counts of each catalog SL2 and of each group of TRAPS, and one SHA-256
over the facts, or the errors, of every spec.

With --against, REV's src/ is exported with git archive and run too, both
trees are printed, and then the specs are compared one by one: for each
kind of work, how many specs did more, less and the same work in the
working tree, and the five largest increases; the specs whose route
changed, that is, whose certified-giant count flipped; and the specs whose
facts differ. The exit status is then 1 if any spec's facts differ or any
spec does more work of any kind, and 0 if the only differences are
savings.
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
WORK = KINDS[:-1]  # the last kind is a route, not work
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
chain._perm_inverse = counted(1, chain._perm_inverse)
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


def compare(ours: list[list], theirs: list[list]):
    """Compare the [spec, counts, facts] records of two runs over the same
    specs, in the same order, spec by spec. Returns, for each kind of work
    in WORK, the (more, less, same) number of specs in ours against theirs
    and the (increase, spec) of its five largest increases, largest first;
    the (spec, ours, theirs) certified-giant counts that flipped; and the
    (spec, ours, theirs) facts that differ."""
    table = [[0, 0, 0] for _ in WORK]
    increases: list[list[tuple[int, str]]] = [[] for _ in WORK]
    routes, facts = [], []
    for (spec, counts, answer), (other, before, was) in zip(ours, theirs, strict=True):
        if spec != other:
            raise ValueError(f"the runs read different specs: {spec!r} and {other!r}")
        for k in range(len(WORK)):
            delta = counts[k] - before[k]
            table[k][0 if delta > 0 else 1 if delta < 0 else 2] += 1
            if delta > 0:
                increases[k].append((delta, spec))
        if counts[-1] != before[-1]:
            routes.append((spec, counts[-1], before[-1]))
        if answer != was:
            facts.append((spec, answer, was))
    largest = [sorted(found, key=lambda pair: -pair[0])[:5] for found in increases]
    return [tuple(row) for row in table], largest, routes, facts


def _short(spec: str) -> str:
    return spec if len(spec) <= 72 else f"{spec[:60]}… ({len(spec)} characters)"


def show(against: str, table, largest, routes, facts) -> int:
    """Print what compare found, and return the exit status: 1 if any
    facts differ or any spec does more work of any kind, else 0."""
    print(f"per spec, working tree against {against}:")
    print(f"  {'kind':<16} {'more':>6} {'less':>6} {'same':>6}")
    for kind, (more, less, same) in zip(WORK, table):
        print(f"  {kind:<16} {more:>6} {less:>6} {same:>6}")
    for kind, found in zip(WORK, largest):
        if found:
            print(f"  largest increases in {kind}:")
            for delta, spec in found:
                print(f"    +{delta} {_short(spec)}")
    print(f"specs whose route changed: {len(routes)}")
    for spec, now, was in routes:
        print(f"  {_short(spec)}: {'onto' if now > was else 'off'} the certified-giant route")
    print(f"specs whose facts differ: {len(facts)}")
    for spec, now, was in facts:
        print(f"  {_short(spec)}")
        print(f"    working tree: {now}")
        print(f"    {against}: {was}")
    return 1 if facts or any(more for more, _, _ in table) else 0


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
    return show(args.against, *compare(ours, theirs))


if __name__ == "__main__":
    sys.exit(main())
