#!/usr/bin/env python3
"""Build and run the Muppet end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The benchmark is a Cargo package of
its own (perfbench/Cargo.toml) that depends on the repository's crates by
path; this script builds it in release mode into $CARGO_TARGET_DIR
(default: .bench_build) and runs it with the given arguments. Build output
goes to stderr, so the last line on stdout is the benchmark's JSON result.
The exit status is the benchmark's, or non-zero if the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run measures for at most 60 s plus set-up; anything longer is hung.
RUN_TIMEOUT_S = 170


def main() -> int:
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    try:
        build = subprocess.run(
            [
                "cargo",
                "build",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                os.path.join(HERE, "Cargo.toml"),
            ],
            env=env,
            stdout=sys.stderr,
        )
    except FileNotFoundError:
        print("perfbench: cargo not found", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    try:
        return subprocess.run([exe, *sys.argv[1:]], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main())
