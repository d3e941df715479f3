"""Run one workload of the weylkit benchmark and print its metrics.

    python3 perfbench/run.py --workload blocks --seed 1 --seconds 34 --trace 0

Run it from the root of a checkout that holds ``src/weylkit``.  A run does a
fixed amount of work, never a time box: the seeded scenario list of the
workload, made in round(seconds / PASS_SECONDS[workload]) passes.  Each pass
is a fresh single-threaded Python process (``worker.py``), started only after
the last one ended, so every pass starts with weylkit's caches empty.

The passes come in pairs: one on the checkout's ``src/weylkit`` and one on
``baseline/weylkit``, a frozen copy of weylkit as it was when the benchmark
was added, in alternating order.  A scenario's time is its median over the
passes of one side.  The machine's speed drifts by up to 2x over seconds to
minutes, and both sides of a pair see the same drift, so each end-to-end
figure is the checkout's time over the baseline's in the same run, times the
baseline's figure at nominal speed (BASELINE_*).  Set-up is timed in
workers that stop after set-up: before each pair of passes, SETUP_PAIRS
pairs of them run, the two of a pair back to back, and ``setup_s`` is the
median over these pairs of checkout over baseline.  The README gives the
measurements behind this.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the passes alternate between untraced
and traced, and the metrics are the per-layer counts and self times, each the
median over the traced passes, plus the tracing overhead.  Every run also
writes its full record, per scenario and per pass, to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# nominal seconds of one pass, timed work plus checks and start-up
PASS_SECONDS = {"blocks": 3.3, "levels": 4.2, "soergel": 2.4}
WORKLOADS = tuple(PASS_SECONDS)
# the baseline copy at nominal machine speed: summed scenario times, median
# scenario time, set-up time (seconds)
BASELINE_SUM_S = {"blocks": 2.8, "levels": 4.2, "soergel": 2.0}
BASELINE_P50_S = {"blocks": 0.17, "levels": 0.55, "soergel": 0.155}
BASELINE_SETUP_S = 0.063
# set-up-only pairs of workers before each pair of passes
SETUP_PAIRS = 2
PASS_TIMEOUT_S = 150
RUN_BUDGET_S = 170


class BenchmarkError(RuntimeError):
    pass


def run_pass(workload: str, seed: int, timeout: float, traced=False, baseline=False, setup_only=False) -> dict:
    """One pass in a fresh worker, on the checkout's weylkit or on the baseline copy."""
    if not (ROOT / "src" / "weylkit" / "__init__.py").is_file():
        raise BenchmarkError(f"no weylkit sources under {ROOT / 'src'}")
    src = HERE / "baseline" if baseline else ROOT / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(HERE)]), PYTHONHASHSEED="0")
    # bytecode is cached in the checkout, so only a checkout's first pass compiles
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"pass exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"pass exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["traced"], rec["baseline"] = traced, baseline
    return rec


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """All passes of one run and the metrics made from them."""
    passes = max(2, round(seconds / PASS_SECONDS[workload]))
    deadline = time.monotonic() + RUN_BUDGET_S

    def timeout():
        return min(PASS_TIMEOUT_S, deadline - time.monotonic())

    records, setups = [], []
    for k in range(passes // 2):
        if trace:
            # an untraced and a traced pass
            records += [run_pass(workload, seed, timeout(), traced=t) for t in (False, True)]
            continue
        # SETUP_PAIRS pairs of set-up-only workers, each pair back to back,
        # then a pair of passes; the order within a pair alternates
        for j in range(SETUP_PAIRS):
            order = (False, True) if (k + j) % 2 == 0 else (True, False)
            pair = {b: run_pass(workload, seed, timeout(), baseline=b, setup_only=True)["setup_s"] for b in order}
            setups.append((pair[False], pair[True]))
        order = (False, True) if k % 2 == 0 else (True, False)
        records += [run_pass(workload, seed, timeout(), baseline=b) for b in order]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "setups": setups,
        "passes": records,
        "result": summarize(workload, records, setups, trace),
    }


def _scenario_times(records):
    """Each scenario's median time over the passes."""
    names = [s["name"] for s in records[0]["scenarios"]]
    for rec in records[1:]:
        if [s["name"] for s in rec["scenarios"]] != names:
            raise BenchmarkError("passes ran different scenario lists")
    return [statistics.median(rec["scenarios"][i]["seconds"] for rec in records) for i in range(len(names))]


def summarize(workload: str, records, setups, trace: bool) -> dict:
    own = [rec for rec in records if not rec["baseline"]]
    attempted = sum(s["ops"] for rec in own for s in rec["scenarios"])
    failed = sum(len(s["failures"]) for rec in own for s in rec["scenarios"])
    correct = not any(s["problems"] for rec in records for s in rec["scenarios"])
    plain = [rec for rec in own if not rec["traced"]]
    times = _scenario_times(plain)
    if not trace:
        base = [rec for rec in records if rec["baseline"]]
        base_times = _scenario_times(base)
        # each figure is the checkout's time over the baseline copy's, both
        # measured in the same run, times the baseline's nominal figure
        ratio_sum = sum(times) / sum(base_times)
        ratio_p50 = statistics.median(times) / statistics.median(base_times)
        ratio_setup = statistics.median(c / b for c, b in setups)
        metrics = {
            "setup_s": (BASELINE_SETUP_S * ratio_setup, "s"),
            "scenarios_per_s": (len(times) / (BASELINE_SUM_S[workload] * ratio_sum), "1/s"),
            "scenario_p50_ms": (1000 * BASELINE_P50_S[workload] * ratio_p50, "ms"),
            "peak_rss_mb": (statistics.median(rec["peak_rss_kb"] for rec in plain) / 1024, "MB"),
        }
    else:
        from trace_layers import per_layer_metrics

        traced = [rec for rec in records if rec["traced"]]
        per_pass = []
        for rec in traced:
            stats = {}
            for s in rec["scenarios"]:
                for key, value in s["stats"].items():
                    stats[key] = stats.get(key, 0) + value
            per_pass.append(per_layer_metrics(rec["trace"], stats))
        metrics = {name: (statistics.median_low(m[name][0] for m in per_pass), unit) for name, (_, unit) in per_pass[0].items()}
        metrics["trace.overhead_pct"] = (100 * (sum(_scenario_times(traced)) / sum(times) - 1), "%")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=34)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1))
    seen = set()
    for rec in record["passes"]:
        for s in rec["scenarios"]:
            for line in s["failures"] + s["problems"]:
                if (s["name"], line) not in seen:
                    seen.add((s["name"], line))
                    print(f"{s['name']}: {line}", file=sys.stderr)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
