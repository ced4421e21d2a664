#!/usr/bin/env python3
"""Builds the AIDA host-time benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload agentic_legal --seed 1 --seconds 20 --trace 0

The benchmark is a cargo package of its own (perfbench/Cargo.toml) that
depends on the runtime's crates by path. It builds offline into
$CARGO_TARGET_DIR (default: .bench_build at the repository root); build
output goes to stderr. The binary's report and its one-line JSON result
go to stdout. A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

# A run measures for --seconds (at most 60) plus its set-ups; anything
# past this is a hang.
RUN_TIMEOUT_S = 170


def main() -> int:
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(root, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(root, target)
        env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(bench_dir, "Cargo.toml"),
        ],
        cwd=root,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "aida-perfbench")
    try:
        run = subprocess.run([binary, *sys.argv[1:]], cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 124
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
