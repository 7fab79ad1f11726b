#!/usr/bin/env python3
"""Build and run wizgo's benchmark (the Go program in this directory).

Run from the repository root:

    python3 perfbench/run.py --workload cold-start --seed 1 --seconds 20 --trace 0

Every flag is passed to the benchmark program. The program is built from
source into .bench_build/ at the repository root, with the Go build cache
there too, so a run reads and writes nothing outside the checkout. The
program's standard output is passed through; its last line is the JSON
result. A failed build or run exits non-zero without printing a result.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

# The first build in a fresh checkout also compiles the standard library.
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def call(args, timeout, **kw):
    """Run args in its own process group; on timeout kill the whole group
    (go build's compiler children included) and wait for it. Returns the
    exit code, or None on timeout."""
    p = subprocess.Popen(args, start_new_session=True, **kw)
    try:
        return p.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        return None
    except BaseException:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        raise


def main():
    # A SIGTERM becomes SystemExit, so call() kills its process group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    go = shutil.which("go")
    if go is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 1
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: %s holds no wizgo source tree" % ROOT, file=sys.stderr)
        return 1
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
    )
    for d in (env["GOCACHE"], env["GOTMPDIR"]):
        os.makedirs(d, exist_ok=True)
    out = os.path.join(BUILD, "perfbench", "perfbench")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    tmp = "%s.%d" % (out, os.getpid())
    try:
        code = call([go, "build", "-o", tmp, "."], BUILD_TIMEOUT_S,
                    cwd=HERE, env=env, stdout=sys.stderr)
        if code != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1
        os.replace(tmp, out)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    code = call([out] + sys.argv[1:], RUN_TIMEOUT_S, cwd=ROOT)
    if code is None:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
