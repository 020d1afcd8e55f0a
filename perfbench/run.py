#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload storm --seed 1 --seconds 20 --trace 0

The Go build cache, the binary and the traced run's spans and profiles all
go under the build directory ($CARGO_TARGET_DIR, default .bench_build), so
nothing is written outside the checkout. A failed build exits non-zero
without printing a result; otherwise the benchmark's own exit code and
output (its last line is the JSON result) pass through unchanged.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "go-cache"),
        GOPATH=os.path.join(build, "go-path"),
        GOMODCACHE=os.path.join(build, "go-path", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        XDG_CACHE_HOME=os.path.join(build, "cache"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        GOFLAGS="-mod=mod",
    )
    exe = os.path.join(build, "perfbench", "perfbench")
    os.makedirs(os.path.dirname(exe), exist_ok=True)
    try:
        built = subprocess.run(["go", "build", "-o", exe, "."], cwd=here, env=env,
                               stdout=sys.stderr, stderr=sys.stderr)
    except OSError as err:
        print("perfbench: cannot run go:", err, file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [exe, "--out", os.path.join(build, "perfbench-trace")] + sys.argv[1:]
    return subprocess.run(args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
