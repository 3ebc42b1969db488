#!/usr/bin/env python3
"""Build and run the Compresso host-time benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <fill-grid|writeback-churn|crash-recovery> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark crate (release, offline) into $CARGO_TARGET_DIR,
`.bench_build` by default, then runs it with the same arguments. The
build log goes to standard error, so the last line of standard output
is the benchmark's JSON result. With --trace 1 the recorded spans are
written to perfbench/out/. Exits non-zero, printing no result, if the
build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", manifest],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=850,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build did not run: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "compresso-perfbench")
    args = sys.argv[1:] + ["--spans-dir", os.path.join(HERE, "out")]
    try:
        run = subprocess.run([binary] + args, env=env, timeout=170)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
