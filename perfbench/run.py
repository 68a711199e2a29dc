"""Host-cost benchmark: one command, three workloads, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ycsb-a --seed 1 --seconds 20 --trace 0

``--workload`` is ``ycsb-a``, ``txn-bank`` or ``certify`` (see
``perfbench/README.md``).  With ``--trace 0`` the run measures the
end-to-end metrics listed in ``BENCHMARK.json``; with ``--trace 1`` it
measures the per-layer metrics instead, from a separate run with runtime
wrappers around each layer's public functions.  Human-readable figures
go to standard output first; the last line is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The command exits 0 only when every correctness check passed and no op
failed: 1 when a check failed or an op raised (the JSON line then says
``"correct": false``), 2 when the program under test is missing (no
``src/repro`` beside ``perfbench``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORKLOADS = ("ycsb-a", "txn-bank", "certify")


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _missing_inputs() -> list[str]:
    needed = (
        os.path.join("src", "repro", "__init__.py"),
        os.path.join("analysis", "cost_baseline.json"),
        "BENCHMARK.json",
    )
    return [path for path in needed if not os.path.isfile(path)]


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(workload: str, seed: int, seconds: float, trace: int, result) -> None:
    """Run one workload into ``result`` (a :class:`harness.Result`)."""
    if workload == "certify":
        import certify

        if trace:
            certify.run_traced(seed, result)
        else:
            certify.run_untraced(seed, seconds, result)
        return
    import runner

    if workload == "ycsb-a":
        from ycsb_a import WORKLOAD
    else:
        from txn_bank import WORKLOAD
    if trace:
        runner.run_traced(WORKLOAD, seed, result)
    else:
        runner.run_untraced(WORKLOAD, seed, seconds, result)


def main(argv: list[str]) -> int:
    args = _parse(argv)
    os.chdir(ROOT)
    missing = _missing_inputs()
    if missing:
        print(f"perfbench: missing {', '.join(missing)}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from harness import CheckFailed, Result

    wanted = declared_metrics(args.trace)
    result = Result()
    try:
        measure(args.workload, args.seed, args.seconds, args.trace, result)
    except CheckFailed as err:
        print(f"perfbench: CHECK FAILED: {err}", file=sys.stderr)
        attempted = result.attempted + err.attempted
        print(json.dumps({"correct": False, "attempted": attempted, "failed": 1, "metrics": {}}))
        return 1

    # A layer a workload never reaches reads 0 (see perfbench/README.md).
    for name, unit in wanted.items():
        if args.trace and name not in result.metrics:
            result.put(name, 0.0, unit)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in sorted(result.metrics.items()):
        print(f"  {name:34s} {value:14.6g} {unit}")
    for name, value in sorted(result.notes.items()):
        print(f"  ({name}: {value})")
    print(json.dumps(result.record(list(wanted))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
