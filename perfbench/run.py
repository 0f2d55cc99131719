#!/usr/bin/env python3
"""Build and run the ruidx end-to-end benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (which compiles the ruidx
libraries from src/) in Release mode into the build directory: the value of
CARGO_TARGET_DIR if set, else .bench_build, relative to the checkout root.
Later runs only re-check the build. The benchmark's stdout is passed through;
its last line is the JSON result. Build output goes to stderr. Any failure
(missing sources, build error, wrong answer, timeout) exits non-zero without
printing a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def child_env(out):
    """Compiler and benchmark temporaries stay inside the build directory."""
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmp
    return env


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no ruidx sources at %s/src" % ROOT, file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    env = child_env(out)
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S, check=False, env=env)
        except (OSError, subprocess.TimeoutExpired) as e:
            print("perfbench: %s: %s" % (" ".join(cmd), e), file=sys.stderr)
            return False
        if r.returncode != 0:
            print("perfbench: build step failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--corrupt", default="",
                    help="answer class to corrupt on purpose (self-test)")
    args = ap.parse_args()

    out = build_dir()
    if not build(out):
        return 2
    binary = os.path.join(out, "ruidx_perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work-dir", os.path.join(out, "run")]
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                           check=False, text=True, env=child_env(out))
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    if r.returncode != 0:
        print("perfbench: benchmark exited with %d" % r.returncode,
              file=sys.stderr)
        return r.returncode
    sys.stdout.write(r.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
