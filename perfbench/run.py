#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fanout_clean --seed 1 --seconds 10 --trace 0

The script builds the perfbench Go module (which compiles the repository's
packages from source) into the build directory, then runs it with the
given arguments. The last line of standard output is the JSON result.

Everything the build and the run write stays under the build directory:
$CARGO_TARGET_DIR when set, otherwise .bench_build. That includes the Go
build cache, span traces and the exact-count records.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main(argv):
    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    out_dir = os.path.join(build_dir, "perfbench")
    binary = os.path.join(out_dir, "perfbench")
    for d in ("gocache", "gopath", "tmp", "home"):
        os.makedirs(os.path.join(build_dir, "go", d), exist_ok=True)

    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build_dir, "go", "gocache"),
        "GOPATH": os.path.join(build_dir, "go", "gopath"),
        "GOTMPDIR": os.path.join(build_dir, "go", "tmp"),
        "HOME": os.path.join(build_dir, "go", "home"),
        "XDG_CONFIG_HOME": os.path.join(build_dir, "go", "home"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOFLAGS": "-buildvcs=false",
    })
    try:
        build = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=bench_dir, env=env, timeout=BUILD_TIMEOUT_S,
            stdout=sys.stderr, stderr=sys.stderr,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    try:
        proc = subprocess.run(
            [binary, *argv, "--out", out_dir],
            cwd=root, env=env, timeout=RUN_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: run failed: {err}", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
