#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload ctl-durable --seed 1 --seconds 10 --trace 0

Run from the repository root. The Go program is built from source into
.bench_build/ (its build cache and Go's config writes stay there too), then
run with the given arguments; its last stdout line is the JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def stale():
    """Whether any Go source of the repository is newer than the binary."""
    try:
        built = os.path.getmtime(BINARY)
    except OSError:
        return True
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if not d.startswith(".")]
        for name in filenames:
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                if os.path.getmtime(os.path.join(dirpath, name)) > built:
                    return True
    return False


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod beside perfbench/; run from a full checkout", file=sys.stderr)
        return 2
    os.makedirs(BUILD, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        TMPDIR=BUILD,
        GOTOOLCHAIN="local",
        GOFLAGS="",
    )
    # Building only when stale keeps the compiler off the CPU right before
    # a measured run.
    if stale():
        try:
            build = subprocess.run(
                ["go", "build", "-o", BINARY, "."],
                cwd=HERE, env=env, stdout=sys.stderr, timeout=850,
            )
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: build: {err}", file=sys.stderr)
            return 1
        if build.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1
    try:
        run = subprocess.run(
            [BINARY, "--workdir", BUILD] + sys.argv[1:],
            cwd=ROOT, env=env, timeout=170,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
