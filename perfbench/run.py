#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: stills-640, video-1080p, serve-4stream, tn-sim (see
perfbench/README.md). The first call configures and builds
perfbench/CMakeLists.txt (the pcnn libraries plus the benchmark binary) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later calls
only rebuild what changed. Build output goes to stderr. The pool runs at
every CPU unless it fails a short stress test, in which case the run
measures at 1 thread (see pool_threads).

The binary's stdout is passed through. Its last line is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
which this script checks against BENCHMARK.json (every end-to-end metric
with --trace 0, every per-layer metric with --trace 1, each with its
unit). Any build failure, crash, timeout or mismatch exits non-zero, and
so does a run whose output checks failed (after printing its result).
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
SELFTEST_TIMEOUT_S = 3
RUN_TIMEOUT_S = 160


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(build_dir, jobs):
    """Configures (once) and builds the benchmark; returns the binary path."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(jobs)])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"build step timed out: {' '.join(step)}")
        if done.returncode != 0:
            fail(f"build step failed ({done.returncode}): {' '.join(step)}")
    return os.path.join(build_dir, "perfbench")


def pool_threads(binary, env, jobs):
    """The pool size to measure at: every CPU when the thread pool survives
    its stress test (perfbench --pool-selftest), else 1. On a pool that
    deadlocks (README.md, "Known limits") a run at more than one thread
    would hang instead of finishing."""
    if jobs == 1:
        return 1
    try:
        done = subprocess.run([binary, "--pool-selftest"],
                              env={**env, "PCNN_NUM_THREADS": str(jobs)},
                              stdout=subprocess.DEVNULL,
                              timeout=SELFTEST_TIMEOUT_S)
        if done.returncode == 0:
            return jobs
    except subprocess.TimeoutExpired:
        pass  # subprocess.run has killed and reaped the hung self-test
    print(f"perfbench: thread pool failed its {jobs}-thread stress test; "
          "measuring at 1 thread", file=sys.stderr)
    return 1


def check_result(line, trace):
    """The result line must name every metric BENCHMARK.json lists.
    Returns the parsed result."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail(f"last line is not JSON: {line[:200]}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys: {sorted(result)}")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail(f"no {spec_path} to check the result against")
    with open(spec_path) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if trace == "1" else "end_to_end"]
    metrics = result["metrics"]
    names = {m["name"] for m in wanted}
    if set(metrics) != names:
        fail(f"metrics differ from BENCHMARK.json: "
             f"missing {sorted(names - set(metrics))}, "
             f"extra {sorted(set(metrics) - names)}")
    for m in wanted:
        if metrics[m["name"]]["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {metrics[m['name']]['unit']} "
                 f"!= {m['unit']}")
    return result


def main(argv):
    trace = "0"
    for flag, value in zip(argv, argv[1:]):
        if flag == "--trace":
            trace = value
    jobs = cpu_count()
    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
        "perfbench")
    binary = build(build_dir, jobs)
    # The program sees only the generated inputs and the pool size: no
    # inherited PCNN_* switch (tracing, faults, thread count, ...) may
    # change what is measured.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PCNN_")}
    env["PCNN_NUM_THREADS"] = str(pool_threads(binary, env, jobs))
    try:
        done = subprocess.run([binary] + argv, stdout=subprocess.PIPE,
                              env=env, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run timed out after {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"benchmark exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed nothing")
    if "--digest" in argv:
        sys.stdout.write(done.stdout)
        return 0
    result = check_result(lines[-1], trace)
    sys.stdout.write(done.stdout)
    if result["failed"] > 0 or not result["correct"]:
        print(f"perfbench: {result['failed']} of {result['attempted']} "
              "operations failed their output checks", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
