#!/usr/bin/env python3
"""Builds `qvsec-cli` and the benchmark binary, then runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload wire_mix --seed 1 --seconds 15 --trace 0

Both binaries are built in release mode into `$CARGO_TARGET_DIR` (default
`.bench_build`); run scratch (the durable workload's stores) lives under
`<target>/perfbench-run` and is deleted when the run ends. All arguments
are passed through to the benchmark binary (see `perfbench/src/main.rs`).
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def cargo(*args, env):
    result = subprocess.run(["cargo", *args], cwd=ROOT, env=env, stdout=sys.stderr)
    if result.returncode != 0:
        fail(f"cargo {' '.join(args)} failed with exit code {result.returncode}")


def main():
    for needed in ("Cargo.toml", os.path.join("crates", "cli", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"run from the repository root: {needed} is missing")
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo("build", "--offline", "--release", "-q", "-p", "qvsec-cli", "--bin", "qvsec-cli", env=env)
    cargo("build", "--offline", "--release", "-q", "--manifest-path",
          os.path.join(HERE, "Cargo.toml"), env=env)
    release = os.path.join(target, "release")
    bench = os.path.join(release, "qvsec-perfbench")
    argv = [bench, *sys.argv[1:],
            "--server-bin", os.path.join(release, "qvsec-cli"),
            "--spec-dir", os.path.join(HERE, "specs"),
            "--work-dir", os.path.join(target, "perfbench-run")]
    sys.stdout.flush()
    os.execv(bench, argv)


if __name__ == "__main__":
    main()
