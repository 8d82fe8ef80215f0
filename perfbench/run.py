#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

`--workload all` runs the four workloads one after the other and exits
non-zero if any of them failed. Run it from the root of the repository.
The build goes to $CARGO_TARGET_DIR (default `.bench_build`); its output
goes to standard error, so the last line of standard output is the
benchmark's result. A failed build exits non-zero and prints no result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["tb-stencil-smp", "tb-spread-dist", "mra-k10", "tcp-mesh"]


def run_all(binary: str, args: list) -> int:
    """Runs every workload with `args` (minus `--workload all`)."""
    rest = []
    it = iter(args)
    for flag in it:
        value = next(it, None)
        if flag != "--workload" and value is not None:
            rest += [flag, value]
    worst = 0
    for w in WORKLOADS:
        code = subprocess.run([binary, "--workload", w] + rest).returncode
        print(f"run.py: {w} exited with {code}", flush=True)
        worst = worst or code
    return worst


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
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
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print(f"run.py: build failed ({build.returncode})", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    args = sys.argv[1:]
    if "all" in args and args[args.index("all") - 1] == "--workload":
        return run_all(binary, args)
    sys.stdout.flush()
    # The benchmark replaces this process, so no child outlives the run.
    os.execv(binary, [binary] + sys.argv[1:])
    return 1


if __name__ == "__main__":
    sys.exit(main())
