#!/usr/bin/env python3
"""Builds the PIPES benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Workloads: served_latency, cql_throughput, typed_fragments, tenant_churn,
or `all` to run every workload in turn. The driver's report goes to
standard output; its last line is one JSON object with the keys correct,
attempted, failed and metrics. Build output goes to standard error.

The build directory is $CARGO_TARGET_DIR (default .bench_build), relative
to the repository root. The script exits non-zero without a result when
the library sources are missing, the build or the self-test fails, or an
output does not match its reference.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["served_latency", "cql_throughput", "typed_fragments",
             "tenant_churn"]
RUN_TIMEOUT_S = 170


def fail(message, code):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "engine.h")):
        fail("library sources not found under " + os.path.join(ROOT, "src"),
             2)
    if shutil.which("cmake") is None:
        fail("cmake is not installed", 2)
    out = build_dir()
    configure = ["cmake", "-S", HERE, "-B", out,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if (not os.path.isfile(os.path.join(out, "CMakeCache.txt"))
            and shutil.which("ninja") is not None):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for command in (configure, ["cmake", "--build", out, "-j", jobs]):
        result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            fail("build step failed: " + " ".join(command), 2)
    selftest = subprocess.run([os.path.join(out, "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode != 0:
        fail("metric self-test failed", 3)
    return os.path.join(out, "pipes_perfbench")


def git_commit():
    """Commit of the checkout, read from .git without leaving it."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:])) as f:
                return f.read().strip()
        return head
    except OSError:
        return "unknown"


def check_metrics(workload, args, out):
    """The result line must carry exactly the metrics BENCHMARK.json names."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        result = json.loads(out.strip().splitlines()[-1])
    except (OSError, ValueError, IndexError) as e:
        fail("cannot check the %s result: %s" % (workload, e), 5)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want != got:
        fail("%s reported metrics that differ from BENCHMARK.json" % workload,
             5)


def run_one(binary, workload, args):
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--commit", git_commit()]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(workload + " did not finish within %d s" % RUN_TIMEOUT_S, 4)
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    if result.returncode in (0, 1):
        check_metrics(workload, args, result.stdout)
    return result.returncode, result.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    if args.workload != "all":
        code, _ = run_one(binary, args.workload, args)
        sys.exit(code)

    # Every workload in turn, then one summary line over all of them.
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        code, out = run_one(binary, workload, args)
        lines = out.strip().splitlines()
        if code not in (0, 1) or not lines:
            fail(workload + " exited with code %d" % code, code or 1)
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][workload + "." + name] = metric
    print(json.dumps(summary))
    sys.exit(0 if summary["correct"] else 1)


if __name__ == "__main__":
    main()
