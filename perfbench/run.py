#!/usr/bin/env python3
"""Build the perfbench binary from this checkout's sources and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The binary is built with `go build` into .bench_build/ under the repository
root, with the Go build cache and every other file the toolchain writes kept
there too, so a run reads and writes only inside the checkout. The binary's
standard output is passed through unchanged: its last line is the result
object. The exit status is the binary's, or nonzero when the sources are
missing, the build fails or the run exceeds its time limit.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def source_digest():
    """SHA-256 over the Go module's sources: what the binary was built from,
    recorded beside the VCS revision (absent when the checkout has no .git)."""
    h = hashlib.sha256()
    files = []
    for top in ("go.mod", "internal", "cmd", "perfbench"):
        p = os.path.join(ROOT, top)
        if os.path.isfile(p):
            files.append(p)
        for dirpath, dirnames, filenames in os.walk(p):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            files += [os.path.join(dirpath, f) for f in filenames
                      if f.endswith(".go") or f == "go.mod"]
    for f in sorted(files):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def go_env():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"), ("GOPATH", "gopath"),
                     ("GOMODCACHE", "gopath/pkg/mod"), ("XDG_CONFIG_HOME", "config"),
                     ("PPROF_TMPDIR", "tmp"), ("TMPDIR", "tmp")):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env["GOTOOLCHAIN"] = "local"
    env["GOWORK"] = "off"
    env["GOFLAGS"] = ""
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("go.mod", "internal"):
        if not os.path.exists(os.path.join(ROOT, need)):
            print(f"perfbench: {need} not found beside perfbench/; run from a full checkout",
                  file=sys.stderr)
            return 2

    env = go_env()
    binary = os.path.join(BUILD, "perfbench", "perfbench")
    os.makedirs(os.path.dirname(binary), exist_ok=True)
    tmp = f"{binary}.{os.getpid()}"
    build = subprocess.run(["go", "build", "-o", tmp, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    os.replace(tmp, binary)

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-out", os.path.join(BUILD, "perfbench", "out"), "-source", source_digest()]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main())
