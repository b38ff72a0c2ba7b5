#!/usr/bin/env python3
"""Build and run the end-to-end discovery benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload border-replay --seed 1 --seconds 15 --trace 0

The Go program is built from the checkout's sources on every run (the
build cache makes repeats cheap). The build cache, temporary files, the
binary, checkpoints and span dumps all live under the build directory:
$CARGO_TARGET_DIR when set, else .bench_build in the current directory. The benchmark's output
is the program's output; its last line is the JSON result.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    work = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    for k in ("GOFLAGS", "GOWORK", "GOOS", "GOARCH"):
        env.pop(k, None)
    env.update(
        GOCACHE=os.path.join(work, "gocache"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOPATH=os.path.join(work, "gopath"),
        GOMODCACHE=os.path.join(work, "gopath", "pkg", "mod"),
        GOENV="off",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOTELEMETRY="off",
        XDG_CONFIG_HOME=os.path.join(work, "config"),
        CGO_ENABLED="0",
    )
    binary = os.path.join(work, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    run = subprocess.run([binary, "-work", work] + sys.argv[1:], env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
