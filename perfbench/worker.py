"""One pass of a workload, in a fresh process: set up, run every scenario
once, check every output, and print one JSON line.

python3 perfbench/worker.py --workload blocks --seed 1 [--trace | --setup-only]

With ``--setup-only`` the pass stops after set-up and prints its time.

The root of the checkout must hold ``src/weylkit``; ``run.py`` starts this
script with ``src`` on ``PYTHONPATH``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--trace", action="store_true")
    group.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import workloads

    tracer = None
    if args.trace:
        from trace_layers import Tracer

        tracer = Tracer(extra_namespaces=[workloads])
        tracer.install()
    scenarios = workloads.build(args.workload, args.seed)
    setup_s = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return
    if tracer:
        tracer.reset()

    results = []
    for sc in scenarios:
        times, failures, problems = {}, [], []
        for op in sc.ops:
            t0 = time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # a failed call is counted, not fatal
                times[op.kind] = times.get(op.kind, 0.0) + time.perf_counter() - t0
                failures.append(f"{op.kind}: {type(exc).__name__}: {str(exc)[:200]}")
                continue
            times[op.kind] = times.get(op.kind, 0.0) + time.perf_counter() - t0
            try:
                problems += [f"{op.kind}: {p}" for p in op.check(out)]
            except Exception as exc:  # an output the check cannot read is wrong
                problems.append(f"{op.kind}: check raised {type(exc).__name__}: {str(exc)[:200]}")
        results.append(
            {
                "name": sc.name,
                "seconds": sum(times.values()),
                "op_seconds": times,
                "ops": len(sc.ops),
                "failures": failures,
                "problems": problems,
                "stats": sc.stats,
            }
        )

    record = {
        "setup_s": setup_s,
        "scenarios": results,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        record["trace"] = tracer.report()
    print(json.dumps(record))


if __name__ == "__main__":
    sys.exit(main())
