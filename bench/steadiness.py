"""Run-to-run spread of the end-to-end metrics.

    python3 bench/steadiness.py --workloads groups fields oracle \
        --seeds 10 [--first-seed 1] [--seconds 15]

Runs bench/run.py once per seed and workload, one run at a time, and
prints a Markdown table per workload: median, quartiles and range of each
end-to-end metric, the interquartile spread as a share of the median
(quartiles as statistics.quantiles(values, n=4) gives them) next to the
metric's bound in BENCHMARK.json, and the same spread of the raw, unscaled
seconds beside it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: wrong answers:\n{proc.stdout}")
    raw = json.loads(next(x for x in lines if x.startswith("raw: "))[len("raw: "):])
    return {k: v["value"] for k, v in result["metrics"].items()}, raw


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=["groups", "fields", "oracle"])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in args.workloads:
        runs = [one_run(workload, s, seconds)
                for s in range(args.first_seed, args.first_seed + args.seeds)]
        print(f"\n### {workload}: {len(runs)} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.seeds - 1}, --seconds {seconds}\n")
        speeds = [raw["speed"] for _, raw in runs]
        print(f"reference speed: median {statistics.median(speeds):.3f}, "
              f"range {min(speeds):.3f}..{max(speeds):.3f}\n")
        print("| metric | median | q1 | q3 | min | max | IQR/median | bound | raw IQR/median |")
        print("|---|---|---|---|---|---|---|---|---|")
        for name, bound in bounds.items():
            values = [m[name] for m, _ in runs]
            med, q1, q3, rel = spread(values)
            raw_values = [raw[name] for _, raw in runs if name in raw]
            raw_rel = f"{spread(raw_values)[3]:.3f}" if raw_values else "-"
            print(f"| {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | {min(values):.6g} | "
                  f"{max(values):.6g} | {rel:.3f} | {bound} | {raw_rel} |")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
