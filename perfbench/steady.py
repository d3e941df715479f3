"""Steadiness of one workload on one commit.

    python3 perfbench/steady.py --workload blocks

Runs the workload once on each of the seeds 1..SEEDS, then REPEATS more
times on seed 1, each run as ``run.py`` makes it with the run length of
BENCHMARK.json.  For every end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound: first across seeds, then across runs of one seed.  It also
prints the share of failed operations of every run, which must not move.
The records go to ``perfbench/results/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import run as bench

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
SEEDS = 10
REPEATS = 5


def spread_table(title, results):
    print(title)
    print(f"  {'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s} {'spread/bound':>12s}")
    for metric in SPEC["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        print(
            f"  {metric['name']:18s} {median:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.2%} {metric['bound']:6.2f}"
            f" {spread / metric['bound']:12.2f}"
        )
    shares = sorted({(r["failed"], r["attempted"]) for r in results})
    print("  failed/attempted: " + ", ".join(f"{f}/{a}" for f, a in shares))
    if not all(r["correct"] for r in results):
        print("  some outputs failed their checks")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=bench.WORKLOADS)
    args = parser.parse_args(argv)
    seconds = SPEC["run_seconds"]
    by_seed, same_seed = [], []
    try:
        for seed in range(1, SEEDS + 1):
            by_seed.append(bench.run(args.workload, seed, seconds, False)["result"])
            print(f"seed {seed}: {json.dumps(by_seed[-1])}", flush=True)
        same_seed.append(by_seed[0])
        for _ in range(REPEATS):
            same_seed.append(bench.run(args.workload, 1, seconds, False)["result"])
            print(f"seed 1 again: {json.dumps(same_seed[-1])}", flush=True)
    except bench.BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    spread_table(f"{args.workload}: {len(by_seed)} seeds", by_seed)
    spread_table(f"{args.workload}: {len(same_seed)} runs of seed 1", same_seed)
    out = Path(bench.HERE / "results")
    out.mkdir(exist_ok=True)
    (out / f"steady-{args.workload}.json").write_text(json.dumps({"by_seed": by_seed, "same_seed": same_seed}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
