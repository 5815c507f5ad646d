#!/usr/bin/env python3
"""End-to-end cyclerankd benchmark: one command per workload.

    python3 e2ebench/run.py --workload compare_cold --seed 1 --seconds 12 --trace 0

Run from the repository root. It builds the daemon, the load generator and
the traced replay from source into .bench_build/ (Release), then:

  --trace 0  drives a real cyclerankd over CYRQ1 (e2e_loadgen) and reports
             the end-to-end metrics;
  --trace 1  runs the traced in-process replay of the same seeded requests
             (e2e_replay) and reports the per-layer metrics, each labelled
             with the end-to-end metric and workload it should move, plus
             the tracing overhead.

The last line of standard output is the result as one JSON object with the
keys correct, attempted, failed and metrics. The line before it stamps the
run's provenance. Both, with every count and label, are also written to
.bench_out/results/. The exit code is non-zero when the build or the run
fails or any output is wrong.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("compare_cold", "explore_hot", "upload_churn")
# The daemon's compute pool, sized to its num_workers: with the load
# generator's one thread this keeps the busy threads within a 4-core host.
COMPUTE_THREADS = "2"
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the benchmark's targets; returns the
    CMake cache entries the provenance stamp needs."""
    for needed in ("src/platform/gateway.h", "tools/cyclerankd.cc"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from a full checkout", 2)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", "3", "--target",
                      "cyclerankd", "e2e_loadgen", "e2e_replay"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed")
    cache = {}
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    return cache


def source_digest():
    """SHA-256 over the sources the benchmark builds, so runs of a checkout
    that is not a git repository can still be told apart."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "tools", "cyclerankd.cc")]
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            paths += [os.path.join(dirpath, name) for name in sorted(filenames)
                      if name.endswith((".h", ".cc", ".py", ".txt"))]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "none (git unavailable)"
    return out.stdout.strip() if out.returncode == 0 else "none (not a git checkout)"


def compiler(cache):
    path = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        out = subprocess.run([path, "--version"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.splitlines()[0]
    except (OSError, IndexError):
        return path


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is there."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    cache = build()
    binary = "e2e_replay" if args.trace else "e2e_loadgen"
    workdir = os.path.join(OUT_DIR, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    command = [os.path.join(BUILD_DIR, binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--workdir", workdir]
    results_dir = os.path.join(OUT_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = os.path.join(results_dir, f"{args.workload}-seed{args.seed}")
    if args.trace:
        # One spans file per workload, overwritten by its next traced run.
        command += ["--spans", os.path.join(results_dir, f"{args.workload}-spans.json")]
    else:
        command += ["--daemon", os.path.join(BUILD_DIR, "cyclerankd")]
    env = dict(os.environ, CYCLERANK_NUM_THREADS=COMPUTE_THREADS)
    started = time.monotonic()
    try:
        proc = subprocess.run(command, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{binary} exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{binary} exited with code {proc.returncode}")
    record = json.loads(lines[-1])

    provenance = dict(record["provenance"])
    provenance.update({
        "seed": str(args.seed),
        "seconds": str(args.seconds),
        "trace": str(args.trace),
        "nproc": str(len(os.sched_getaffinity(0))),
        "build_type": cache.get("CMAKE_BUILD_TYPE", "?"),
        "compiler": compiler(cache),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "cyclerank_num_threads": COMPUTE_THREADS,
        "wall_s": f"{time.monotonic() - started:.3f}",
    })
    record["provenance"] = provenance
    with open(f"{stem}-trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    if args.trace:
        print(f"{'per-layer metric':44} {'value':>14}  unit   maps to")
        for name, m in sorted(record["metrics"].items()):
            print(f"{name:44} {m['value']:14.6g}  {m['unit']:6} {m.get('maps_to', '')}")
    for error in record["errors"]:
        print(f"failure: {error}", file=sys.stderr)
    print("provenance: " + json.dumps(provenance, sort_keys=True))

    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for name, m in record["metrics"].items()}
    expected = expected_metrics(args.trace)
    if expected is not None and sorted(expected) != sorted(metrics):
        fail(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(expected)}")
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if record["correct"] and record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
