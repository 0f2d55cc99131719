#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

Run from the root of a checkout:  python3 perfbench/selftest.py

1. A short clean run of every workload, traced and untraced, must exit 0
   and print a result naming exactly the metrics BENCHMARK.json declares.
2. A run with one deliberately corrupted answer (--corrupt <class>) must
   exit non-zero and print no result, for every answer class.
3. A tree holding only BENCHMARK.json and perfbench/ must fail the same way.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
CORRUPT_CLASSES = ["ingest", "get", "join", "xpath", "scan"]


def run(args, cwd=ROOT, env=None):
    r = subprocess.run(RUN + args, cwd=cwd, env=env, capture_output=True,
                       text=True, timeout=900)
    lines = r.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return r.returncode, result, r.stderr


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    expected = {
        "0": {m["name"] for m in spec["end_to_end"]},
        "1": {m["name"] for m in spec["per_layer"]},
    }
    failures = []

    for w in spec["workloads"]:
        for trace in ("0", "1"):
            code, result, err = run(["--workload", w["name"], "--seed", "7",
                                     "--seconds", "2", "--trace", trace])
            what = "%s --trace %s" % (w["name"], trace)
            if code != 0 or result is None:
                failures.append("%s: exit %d\n%s" % (what, code, err[-2000:]))
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append("%s: result keys %s" % (what, sorted(result)))
            got = set(result["metrics"])
            if got != expected[trace]:
                failures.append("%s: metrics differ: missing %s, extra %s" % (
                    what, sorted(expected[trace] - got),
                    sorted(got - expected[trace])))
            if not result["correct"] or result["failed"] != 0:
                failures.append("%s: correct=%s failed=%s" % (
                    what, result["correct"], result["failed"]))
            print("ok   %s" % what, flush=True)

    for cls in CORRUPT_CLASSES:
        code, result, _ = run(["--workload", "query_xmark", "--seed", "7",
                               "--seconds", "1", "--trace", "0",
                               "--corrupt", cls])
        if code == 0 or result is not None:
            failures.append("--corrupt %s: exit %d, result %s" % (
                cls, code, result is not None))
        else:
            print("ok   --corrupt %s exits %d without a result" % (cls, code),
                  flush=True)

    build_root = os.path.join(ROOT, ".bench_build")
    os.makedirs(build_root, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="selftest-tree-", dir=build_root)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        r = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                            "query_xmark", "--seed", "1", "--seconds", "1",
                            "--trace", "0"], cwd=bare, env=env,
                           capture_output=True, text=True, timeout=180)
        if r.returncode == 0 or r.stdout.strip():
            failures.append("bare tree: exit %d, stdout %r" % (
                r.returncode, r.stdout[-200:]))
        else:
            print("ok   bare tree exits %d without a result" % r.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for f in failures:
        print("FAIL " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
