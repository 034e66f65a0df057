#!/usr/bin/env python3
"""Tiny-size run of every workload, untraced and traced.

Run from the repository root:

    python3 perfbench/smoke.py

Each run must exit 0 and end with a result line that is correct, has zero
failures, and names every metric `BENCHMARK.json` declares for its mode,
with the declared unit. Exits 1 on the first violation. Besides the
workloads `BENCHMARK.json` gates, it runs `wire_mix`, which the benchmark
still serves by name but does not gate (see `NOTES.md`).
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in ["wire_mix"] + [w["name"] for w in bench["workloads"]]:
        for trace in ("0", "1"):
            args = ["python3", os.path.join(HERE, "run.py"), "--workload", workload,
                    "--seed", "1", "--seconds", str(bench["run_seconds"]),
                    "--trace", trace, "--size", "tiny"]
            run = subprocess.run(args, capture_output=True, text=True, timeout=600)
            label = f"{workload} --trace {trace}"
            if run.returncode != 0:
                sys.exit(f"{label}: exit {run.returncode}\n{run.stderr}")
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                sys.exit(f"{label}: {result}")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected[trace]:
                sys.exit(f"{label}: metrics {units} != declared {expected[trace]}")
            print(f"ok {label}: {result['attempted']} requests, {len(units)} metrics")


if __name__ == "__main__":
    main()
