#!/usr/bin/env python3
"""Build and run the ZugChain benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload bus-jru --seed 1 --seconds 10 --trace 0

The benchmark is a Go module of its own (perfbench/go.mod) that builds the
repository's packages from source through a replace directive. Everything
the build and the run write stays inside the checkout: the Go build cache
and the binary go to .bench_build/, results, span files and scratch data
dirs to .bench_out/. The last line of standard output is the run's JSON
result; the exit code is the benchmark's own (non-zero when a check fails,
or when the sources it needs are missing).
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    build = os.path.join(root, ".bench_build")
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("perfbench: no go.mod in %s: run from the repository root" % root, file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "HOME": build,
        "GOFLAGS": "-mod=mod",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOTELEMETRY": "off",
        "CGO_ENABLED": "0",
    })
    os.makedirs(build, exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=root, env=env)
    try:
        return proc.wait()
    except KeyboardInterrupt:
        proc.terminate()
        return proc.wait()


if __name__ == "__main__":
    sys.exit(main())
