#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source and run one workload.

    python3 perfbench/run.py --workload serve-snapshot --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the library modules from src/ plus the benchmark
binary) into .bench_build/; later runs rebuild incrementally. The binary's
standard output is passed through once it has finished and its last line has
been checked:
one JSON object with the keys correct, attempted, failed and metrics, holding
every end-to-end metric of BENCHMARK.json (--trace 0) or every per-layer
metric (--trace 1). Any failure exits non-zero without printing a result.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("serve-snapshot", "tenant-churn", "train-offline")
RUN_TIMEOUT_S = 170


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def build():
    """Configure once, then build the binary incrementally; returns its path."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                return None
        cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
               "-j", str(os.cpu_count() or 1)]
        if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
            return None
    return os.path.join(BUILD_DIR, "perfbench")


def source_id():
    """Commit when the checkout is a git repository, plus a digest of the
    library sources the benchmark compiles (checkouts may carry no .git)."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    ident = "src-sha256:" + digest.hexdigest()[:16]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10)
            if commit.returncode == 0:
                ident = "git:" + commit.stdout.strip() + " " + ident
        except (OSError, subprocess.TimeoutExpired):
            pass
    return ident


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys are not correct/attempted/failed/metrics")
    if result["attempted"] < 1:
        raise ValueError("nothing was attempted")
    expected = expected_metrics(trace)
    if expected is not None and set(result["metrics"]) != expected:
        missing = sorted(expected - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - expected)
        raise ValueError(f"metric set differs from BENCHMARK.json: missing {missing}, "
                         f"extra {extra}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        return fail(2, "--seconds must be at least 1")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail(2, f"no library sources under {os.path.join(ROOT, 'src')}")

    binary = build()
    if binary is None:
        return fail(3, f"build failed; see {os.path.join(BUILD_DIR, 'build.log')}")

    env = dict(os.environ)
    env.setdefault("REGHD_THREADS", str(os.cpu_count() or 1))
    trace_dir = os.path.join(BUILD_DIR, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source", source_id(),
           "--trace-file", os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        run = subprocess.run(cmd, capture_output=True, text=True, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(4, f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    if run.returncode != 0:
        return fail(run.returncode, "benchmark binary failed")
    lines = run.stdout.strip().splitlines()
    try:
        check_result(lines[-1], args.trace)
    except (ValueError, KeyError, IndexError, json.JSONDecodeError) as err:
        return fail(5, f"malformed result: {err}")
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
