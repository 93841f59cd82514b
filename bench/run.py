"""Benchmark of the noethercheck verdict engine.

    python3 bench/run.py --workload {groups,fields,oracle} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout. Each pass of a workload runs in a
fresh child process (bench/child.py), one child at a time, with src/ on
the import path. Every call into the program is timed from outside and
reported in seconds at reference speed (see refspeed.py); every answer is
checked against an expectation the benchmark derives without calling the
program (see workloads.py). The last line of stdout is one JSON object:
the end-to-end metrics with --trace 0, the per-layer metrics of a
separate traced child with --trace 1.

Workloads:
  groups  the fixed list in workloads.GROUP_ITEMS over Q, cold: the
          catalog cache is cleared before each item; plus the deadline
          item, once, in a child that is killed at the deadline
  fields  catalog:{Q16,SL2_7,SL2_9,C16,C64} over 24 fields Q(sqrt D)
          drawn from the seed, warm: the groups are built before timing
  oracle  reciprocity_failures, isotropy_grid_check and
          three_squares_sieve at the CLI's limits, cold: a fresh child
          per pass and each function once per child
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable

import refspeed
import workloads as wl
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

# A run makes one pass per PASS_S seconds of --seconds, and never fewer
# than MIN_PASSES, since the per-item median needs three samples. At
# --seconds 15 that is 3, 4 and 4 passes, and a run takes about 48, 30 and
# 22 s of wall time on a 2-CPU VM, which keeps the 70 runs of a full
# comparison inside 3420 s on a host up to a quarter slower than that one.
PASS_S = {"groups": 5.0, "fields": 3.75, "oracle": 3.75}
MIN_PASSES = 3
SETUP_SAMPLES = 11
# An import takes about 40 ms, so the kernel ticks more often during it.
SETUP_PERIOD_S = 0.004
CHILD_TIMEOUT_S = 120

# Per-function metrics kept in the result line; the traced child records
# every public function, and all of them are printed above the result.
TRACED_FUNCTIONS = (
    "cli.main", "cli.parse_field", "cli.cmd_check",
    "galois.verdict", "galois.bailey_group", "galois.is_cyclic_ext", "galois.cyclotomic_galois",
    "groups.build_group", "groups.catalog_group", "groups.abelian_invariants",
    "groups.derived_subgroup", "groups.quotient_by", "groups.two_sylow",
    "groups.is_generalized_quaternion16", "groups.max_cyclic_two_quotient",
    "quadforms.isotropic_Q", "quadforms.isotropic_quad", "quadforms.form_invariants",
    "quadforms.candidate_places", "quadforms.three_squares_nat",
    "localfields.hilbert_symbol", "localfields.hasse_invariant",
    "localfields.legendre_symbol", "localfields.local_isotropic",
    "exact.factorize", "exact.is_prime", "exact.squarefree_part",
    "exact.square_class", "exact.padic_valuation",
    "oracles.reciprocity_failures", "oracles.isotropy_grid_check",
    "oracles.three_squares_sieve", "oracles.isotropy_witness", "oracles.local_oracle",
)
COUNTERS = (
    "groups.build_group.elements",
    "groups.quotient_by.elements",
    "groups.Subgroup.checked_pairs",
    "groups.catalog_group.hits",
    "groups.catalog_group.misses",
    "exact.is_prime.hits",
    "exact.is_prime.misses",
    "galois.cyclotomic_galois.residues",
    "quadforms.candidate_places.places",
    "exact.factorize.trial_bound",
)


class ChildFailed(RuntimeError):
    pass


def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    # setup_s times an import from cached bytecode, as an installed package
    # has it; the untimed first import of a run writes the cache
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(cfg: dict, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(cfg)],
        cwd=ROOT,
        env=_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise ChildFailed(f"child exited with {proc.returncode}: {' | '.join(tail)}")
    return json.loads(lines[-1])


def scaled(raw: float, ref: float) -> float:
    return raw * refspeed.NOMINAL_REF_S / ref


def p90(values: list[float]) -> float:
    """90th percentile, interpolating linearly between order statistics."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def measure_setup() -> tuple[list[float], list[float]]:
    """`import noethercheck` in fresh interpreters: one untimed import that
    may compile bytecode, then SETUP_SAMPLES timed ones."""
    cfg = {"import_period": SETUP_PERIOD_S}
    run_child(cfg, CHILD_TIMEOUT_S)
    raw, scl = [], []
    for _ in range(SETUP_SAMPLES):
        rep = run_child(cfg, CHILD_TIMEOUT_S)
        raw.append(rep["import_raw_s"])
        scl.append(scaled(rep["import_raw_s"], rep["import_ref_s"]))
    return raw, scl


# ---------------------------------------------------------------- plans


def _check_item(spec: str, field: str, cold: bool) -> dict:
    return {"kind": "check", "argv": ["check", "--group", spec, "--field", field, "--json"], "cold": cold}


def plan(workload: str, seed: int) -> tuple[dict, list[str], Callable]:
    """(child config, item labels, checker) for one pass of a workload.
    checker(index, record) returns None or the reason the item failed."""
    if workload == "groups":
        frozen = wl.frozen_group_outputs()
        cfg = {"items": [_check_item(spec, "Q", True) for spec in wl.GROUP_ITEMS]}

        def checker(i, rec):
            return wl.check_group_output(wl.GROUP_ITEMS[i], rec["rc"], rec["out"], frozen)

        return cfg, list(wl.GROUP_ITEMS), checker
    if workload == "fields":
        values = wl.field_values(seed)
        pairs = [(f"catalog:{g}", d, s) for d, s in values for g in wl.FIELD_GROUPS]
        cfg = {
            "items": [_check_item(g, wl.field_text(d), False) for g, d, _ in pairs],
            "warm_catalog": list(wl.FIELD_GROUPS),
            "warm_argv": [["check", "--group", f"catalog:{g}", "--field", "Q", "--json"] for g in wl.FIELD_GROUPS],
        }

        def checker(i, rec):
            g, _, s = pairs[i]
            return wl.check_field_output(g, s, rec["rc"], rec["out"])

        return cfg, [f"{g} {wl.field_text(d)}" for g, d, _ in pairs], checker
    args = {
        "reciprocity_failures": [wl.ORACLE_HILBERT_SAMPLES, seed],
        "isotropy_grid_check": [wl.ORACLE_ISOTROPY_HEIGHT],
        "three_squares_sieve": [wl.ORACLE_SIEVE_BOUND],
    }
    cfg = {"items": [{"kind": "oracle", "name": n, "args": args[n]} for n in wl.ORACLE_ITEMS]}

    def checker(i, rec):
        return wl.check_oracle_output(wl.ORACLE_ITEMS[i], rec["value"])

    return cfg, [f"{n}({', '.join(map(str, args[n]))})" for n in wl.ORACLE_ITEMS], checker


def _judge(rec: dict, i: int, checker) -> str | None:
    if "error" in rec:
        return rec["error"]
    return checker(i, rec)


def run_deadline_item() -> tuple[str, str]:
    """('done' | 'missed' | 'wrong', detail) for the deadline item."""
    frozen = wl.frozen_group_outputs()
    cfg = {"items": [_check_item(wl.DEADLINE_ITEM, "Q", True)]}
    try:
        rep = run_child(cfg, wl.DEADLINE_S)
    except subprocess.TimeoutExpired:
        return "missed", f"no answer within {wl.DEADLINE_S} s"
    rec = rep["items"][0]
    why = _judge(rec, 0, lambda i, r: wl.check_group_output(wl.DEADLINE_ITEM, r["rc"], r["out"], frozen))
    if why:
        return "wrong", why
    return "done", f"answered in {rec['raw_s']:.3f} s raw"


# ---------------------------------------------------------------- metrics


def end_to_end(per_item: list[list[tuple[float, float]]], rss: list[float], setup: list[float]) -> dict:
    """per_item[i] holds the (scaled, raw) samples of item i."""
    times = [statistics.median(s for s, _ in samples) for samples in per_item if samples]
    return {
        "total_s": (sum(times), "s"),
        "item_p50_s": (statistics.median(times), "s"),
        "item_p90_s": (p90(times), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def layer_metrics(rep: dict, untraced_total: float, deadline_missed: int) -> tuple[dict, dict]:
    """(per-layer metrics, per-function table) from one traced child. Times
    are scaled per item with that item's reference measurement, like the
    untraced samples."""
    funcs: dict[str, list] = {}
    traced_total = 0.0
    for rec in rep["items"]:
        if "raw_s" not in rec:
            continue
        factor = refspeed.NOMINAL_REF_S / rec["ref_s"]
        traced_total += rec["raw_s"] * factor
        for name, (calls, incl, self_s) in rec["layers"].items():
            acc = funcs.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += incl * factor
            acc[2] += self_s * factor
    out: dict[str, tuple[float, str]] = {}
    module_self = {layer: 0.0 for layer in LAYERS}
    for name, (_, _, self_s) in funcs.items():
        module_self[name.split(".")[0]] += self_s
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (module_self[layer], "s")
    out["unattributed_s"] = (traced_total - sum(module_self.values()), "s")
    out["traced_total_s"] = (traced_total, "s")
    out["trace_overhead_s"] = (traced_total - untraced_total, "s")
    for name in TRACED_FUNCTIONS:
        calls, incl, self_s = funcs.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.s"] = (incl, "s")
        out[f"{name}.self_s"] = (self_s, "s")
    for name in COUNTERS:
        unit = "computed_bound" if name.endswith("trial_bound") else "count"
        out[name] = (rep["counters"].get(name, 0), unit)
    out["deadline_item.missed"] = (deadline_missed, "count")
    return out, funcs


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("groups", "fields", "oracle"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "noethercheck" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'noethercheck'} is missing", file=sys.stderr)
        return 2

    cfg, labels, checker = plan(args.workload, args.seed)
    passes = max(MIN_PASSES, round(args.seconds / PASS_S[args.workload]))
    try:
        setup_raw, setup = measure_setup()
        per_item: list[list[tuple[float, float]]] = [[] for _ in labels]
        refs: list[float] = []
        rss: list[float] = []
        failures: list[str] = []
        attempted = 0
        for _ in range(passes):
            rep = run_child(cfg, CHILD_TIMEOUT_S)
            rss.append(rep["rss_mb"])
            for i, rec in enumerate(rep["items"]):
                attempted += 1
                why = _judge(rec, i, checker)
                if why:
                    failures.append(f"{labels[i]}: {why}")
                if "raw_s" in rec:
                    per_item[i].append((scaled(rec["raw_s"], rec["ref_s"]), rec["raw_s"]))
                    refs.append(rec["ref_s"])
        deadline = run_deadline_item() if args.workload == "groups" else None
        traced = None
        if args.trace:
            OUT_DIR.mkdir(exist_ok=True)
            spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            traced = run_child(dict(cfg, trace=True, spans_path=str(spans)), CHILD_TIMEOUT_S)
            for i, rec in enumerate(traced["items"]):
                attempted += 1
                why = _judge(rec, i, checker)
                if why:
                    failures.append(f"traced {labels[i]}: {why}")
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if not refs:
        print("error: no item produced an answer:\n  " + "\n  ".join(failures), file=sys.stderr)
        return 1
    metrics = end_to_end(per_item, rss, setup)
    raw_times = [statistics.median(r for _, r in samples) for samples in per_item if samples]
    speed = refspeed.NOMINAL_REF_S / statistics.median(refs)
    raw = {
        "total_s": sum(raw_times),
        "item_p50_s": statistics.median(raw_times),
        "item_p90_s": p90(raw_times),
        "setup_s": statistics.median(setup_raw),
    }

    print(f"workload {args.workload}  seed {args.seed}  passes {passes}  "
          f"reference speed {speed:.4f} (nominal / measured reference time)")
    for label, samples in zip(labels, per_item):
        if samples:
            s = statistics.median(x for x, _ in samples)
            r = statistics.median(x for _, x in samples)
            print(f"  item {label}: {s:.6f} s scaled, {r:.6f} s raw")
    for name, (value, unit) in metrics.items():
        extra = f"  (raw {raw[name]:.6f} s)" if name in raw else ""
        print(f"metric {name} {value:.6f} {unit}{extra}")
    failed_items = len(failures)
    total_items = attempted
    if deadline is not None:
        print(f"deadline item {wl.DEADLINE_ITEM}: {deadline[0]} ({deadline[1]})")
        total_items += 1
        failed_items += deadline[0] != "done"
    print(f"metric fail_rate {failed_items / total_items:.6f} ratio  ({failed_items} of {total_items} items"
          f"{', deadline item counted' if deadline is not None else ''})")
    for f in failures:
        print(f"FAILED {f}")
    print("hardware counters: not used; perf_event_open is unavailable on the hosts this "
          "benchmark was built on, so timings are scaled by the reference loop instead")

    if traced is not None:
        lm, funcs = layer_metrics(traced, metrics["total_s"][0], int(deadline is not None and deadline[0] != "done"))
        for name in sorted(funcs):
            calls, incl, self_s = funcs[name]
            print(f"  layer {name}: {calls} calls, {incl:.6f} s, self {self_s:.6f} s")
        for name, (value, unit) in lm.items():
            print(f"layer-metric {name} {value} {unit}")
        result = lm
    else:
        result = metrics
    print("raw: " + json.dumps(dict(raw, speed=speed, passes=passes)))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
