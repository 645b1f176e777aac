#!/usr/bin/env python3
"""Builds the HiPEC benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <join|kv_zipf|tenants_storm> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is the Cargo package in this directory; it is built in
release mode into $CARGO_TARGET_DIR (default: .bench_build at the
repository root). Build output goes to standard error, so the last line
of standard output is the benchmark's JSON result. The exit code is
non-zero when the build fails, when a run fails, or when a check on the
program's output fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"benchmark build failed: {e}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("benchmark build failed", file=sys.stderr)
        return 2
    exe = os.path.join(target, "release", "hipec-perfbench")
    try:
        ran = subprocess.run([exe] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 2
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
