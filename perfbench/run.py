"""CachePortal benchmark: one workload per invocation, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload read-miss --seed 1 --seconds 10 --trace 0

``--trace 0`` sets up the workload several times (``setup_s`` is the
median), measures the timed window untraced and prints every end-to-end
metric.  ``--trace 1`` does the same, then sets up once more with every
layer's public calls wrapped in spans, measures again and prints the
per-layer metrics plus ``overhead.*``: traced minus untraced, per gated
end-to-end metric.  Spans are written to ``perfbench/out/``.

The last line of standard output is the JSON result; the lines before it
print every metric by name with its unit.  The exit code is 1 when any
correctness check failed, 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: The metrics BENCHMARK.json gates, in its order.
GATED = [("cpu_us_per_op", "us"), ("setup_s", "s")]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["read-hot", "read-miss", "read-write", "invalidate-scale"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def load_program():
    """Import the package from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [SRC, HERE]
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def run_pass(workloads, workload, repeats, tracer=None):
    """Set up ``repeats`` times, measure on the last; ``setup_s`` is the
    median set-up time."""
    setups = []
    dep = None
    for attempt in range(repeats):
        if dep is not None:
            if attempt == 1 and hasattr(workload, "replay"):
                workload.replay(dep)
            dep = None
            workloads.release()
        begin = time.perf_counter()
        dep = workload.setup(tracer)
        setups.append(time.perf_counter() - begin)
    result = workload.measure(dep, tracer)
    dep = None
    workloads.release()
    result.put("setup_s", statistics.median(setups), "s")
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    import spans
    import workloads

    workload = workloads.make(args.workload, args.seed, args.seconds)
    result = run_pass(workloads, workload, workloads.SETUP_REPEATS)
    errors = list(result.errors)
    layers = {}
    units = dict(workloads.LAYER_METRICS)
    units.update((f"overhead.{name}", unit) for name, unit in GATED)
    if args.trace:
        tracer = spans.Tracer()
        traced = run_pass(workloads, workload, 1, tracer)
        errors += traced.errors
        layers = dict(traced.layers)
        for name, _unit in GATED:
            layers[f"overhead.{name}"] = (
                traced.metrics[name][0] - result.metrics[name][0]
            )
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(
            out_dir, f"spans-{args.workload}-{args.seed}.jsonl"))

    failed = sum(result.failures.values())
    result.put("failed_share", failed / max(1, result.attempted), "ratio")
    for name, (value, unit) in result.metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    for note in result.notes:
        print(f"{args.workload} {note}")
    for name, count in result.failures.items():
        print(f"{args.workload} failed.{name} {count} count")
    for name, value in layers.items():
        print(f"{args.workload} {name} {value:.6g} {units[name]}")
    for error in errors:
        print(f"{args.workload} CHECK FAILED: {error}")

    if args.trace:
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in layers.items()}
    else:
        metrics = {name: {"value": result.metrics[name][0], "unit": unit}
                   for name, unit in GATED}
    print(json.dumps({
        "correct": not errors,
        "attempted": result.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
