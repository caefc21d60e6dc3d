#!/usr/bin/env python3
"""Repository benchmark: build the perfbench binary from source, run it.

  python3 perfbench/run.py --workload local_tables --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --seed 1 --seconds 30     # every workload, one table
  python3 perfbench/run.py --workload local_tables --seed 1 --seconds 5 \\
      --trace 0 --corrupt-tape                      # self-test: >= 1 failed op
  python3 perfbench/run.py --write-spec              # regenerate BENCHMARK.json

The binary is built (Release) with CMake from perfbench/CMakeLists.txt,
which pulls in the simulator's src/ libraries, into $CARGO_TARGET_DIR,
default .bench_build/, at the repository root. The last stdout line of a
workload run is its result as one JSON object; with --trace 1 the metrics
are the per-layer ones and a Chrome trace is written next to the build.
The binary defines the workloads and metrics (`perfbench --spec`); this
script adds how to run them.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_root():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no simulator sources under {ROOT}/src; run from a full checkout")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(f"{tool} not found")
    build_dir = os.path.join(build_root(), "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(os.path.join(build_dir, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                      "-j", jobs])
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=850)
            except subprocess.TimeoutExpired:
                fail(f"build timed out: {' '.join(cmd)}")
            if done.returncode != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                sys.stderr.write(tail)
                fail(f"build failed ({' '.join(cmd)}); log: {log_path}")
    return os.path.join(build_dir, "perfbench")


def spec(binary):
    """The workloads and metrics, as the binary defines them."""
    done = subprocess.run([binary, "--spec"], stdout=subprocess.PIPE,
                          text=True, timeout=30)
    if done.returncode != 0:
        fail(f"perfbench --spec exited {done.returncode}", 1)
    return json.loads(done.stdout)


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_workload(binary, args, workload):
    """Runs one workload; returns its stdout lines and parsed result."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git", git_commit()]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_root(), f"perfbench-{workload}-s{args.seed}.trace.json")]
    if args.corrupt_tape:
        cmd.append("--corrupt-tape")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=175)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        fail(f"{workload}: timed out", 1)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        fail(f"{workload}: perfbench exited {done.returncode}", done.returncode)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"{workload}: bad result line: {e}", 1)
    return lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--corrupt-tape", action="store_true",
                        help="flip one tape byte before the logical restore")
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json at the repository root")
    args = parser.parse_args()

    binary = build()
    if args.write_spec:
        benchmark = {"command": COMMAND, "paths": PATHS,
                     "run_seconds": RUN_SECONDS, **spec(binary)}
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(benchmark, f, indent=2)
            f.write("\n")
        return 0

    if args.workload:
        lines, _ = run_workload(binary, args, args.workload)
        sys.stdout.write("\n".join(lines) + "\n")
        return 0

    # Every workload for one seed: each metric by name, with its unit.
    definition = spec(binary)
    names = [w["name"] for w in definition["workloads"]]
    results = {}
    for workload in names:
        lines, results[workload] = run_workload(binary, args, workload)
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
    section = "per_layer" if args.trace else "end_to_end"
    print(f"\n{'metric':40} {'unit':>6} " + " ".join(f"{n:>14}" for n in names))
    for m in definition[section]:
        row = [results[n]["metrics"][m["name"]]["value"] for n in names]
        print(f"{m['name']:40} {m['unit']:>6} " +
              " ".join(f"{v:14.6g}" for v in row))
    for n in names:
        r = results[n]
        print(f"{n}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']}")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
