"""Benchmark for dippl's exact inference: chain, grid and small workloads.

Run from the repository root:

    python3 perfbench/run.py --workload chain --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see BENCHMARK.json and perfbench/README.md).
``all`` runs each workload in a fresh process, one after the other.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The library is
imported from ``src/`` next to this directory; without it the run exits
with status 2.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("chain", "grid", "small")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        child = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(child.stderr)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if child.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with status {child.returncode}", file=sys.stderr)
            status = 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    if not combined["correct"]:
        status = 1
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "dippl" / "__init__.py").is_file():
        print(f"perfbench: no dippl sources at {SRC / 'dippl'}", file=sys.stderr)
        return 2
    if not SPEC.is_file():
        print(f"perfbench: no metric list at {SPEC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import measure

    spec = json.loads(SPEC.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl.gz"
        result = measure.traced_run(args.workload, args.seed, args.seconds, spans_path)
    else:
        result = measure.timed_run(args.workload, args.seed, args.seconds)
    missing = [m["name"] for m in declared if m["name"] not in result.metrics]
    if missing:
        print(f"perfbench: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 3
    metrics = {
        m["name"]: {"value": result.metrics[m["name"]], "unit": m["unit"]} for m in declared
    }
    for line in result.info:
        print(f"  {line}")
    for metric, entry in metrics.items():
        print(f"  {metric:34} {entry['value']:.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": result.failed == 0,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
