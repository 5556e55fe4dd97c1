#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload serve-steady --seed 1 --seconds 10 --trace 0

The Go build cache, temporary files and the binary live under the build
directory (.bench_build, or $CARGO_TARGET_DIR when set) inside the checkout,
and the module proxy is off, so nothing is fetched. The exit code is the
benchmark's own; a build failure exits 2 without printing a result.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "go-cache"),
        GOTMPDIR=os.path.join(build, "go-tmp"),
        GOPATH=os.path.join(build, "go-path"),
        TMPDIR=os.path.join(build, "tmp"),
        GOENV="off",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-buildvcs=false",
    )
    for key in ("GOCACHE", "GOTMPDIR", "GOPATH", "TMPDIR"):
        os.makedirs(env[key], exist_ok=True)
    binary = os.path.join(build, "perfbench-bin")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = sys.argv[1:] + ["--out", os.path.join(build, "perfbench")]
    proc = subprocess.Popen([binary] + args, cwd=root, env=env)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
