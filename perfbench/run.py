#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload suite50 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and builds the
optimizer and the benchmark program in .bench_build/perfbench (Release);
later runs only rebuild what changed. Build output goes to stderr. The last
line of stdout is the JSON result of the run; the exit code is 0 only when
every output of the run was correct.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("suite50", "bigfunc", "exec", "serve-mix")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def expected_metrics(trace):
    """The metric names BENCHMARK.json promises for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    build()
    expected = expected_metrics(a.trace)
    rundir = os.path.join(BUILD, "run")
    os.makedirs(rundir, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--served", os.path.join(BUILD, "epre-served")]
    # Own process group, so the daemon the benchmark starts is reaped with it
    # on every path out of here.
    proc = subprocess.Popen(cmd, cwd=rundir, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("perfbench: run timed out")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit("perfbench: no result (exit %d)" % proc.returncode)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        sys.exit("perfbench: metrics do not match BENCHMARK.json: "
                 "missing %s, unexpected %s"
                 % (sorted(set(expected) - set(got)),
                    sorted(set(got) - set(expected))))
    print(json.dumps(result))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
