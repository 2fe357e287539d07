#!/usr/bin/env python3
"""The dsp_served serving benchmark: one run of one workload.

    python3 perfbench/run.py --workload cold-portfolio --seed 1 \
        --seconds 17 --trace 0

Run from the root of a checkout.  Builds the dsp library, the dsp_served
daemon and the perfbench binary (perfbench/CMakeLists.txt) into
.bench_build/ on first use, then runs that binary with the workload's
parameters from perfbench/workloads.json.  It launches the real
daemon, drives it open-loop over loopback, checks every answer, and prints
rows in the shared schema; this script passes them through and ends with
one JSON line:

    {"correct": ..., "attempted": ..., "failed": ...,
     "metrics": {name: {"value": ..., "unit": ...}, ...}}

carrying every end-to-end metric of BENCHMARK.json with --trace 0, and
every per-layer metric with --trace 1 (the traced in-process replay).
"""

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "perfbench"
RUN_DEADLINE_S = 170.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once and builds the two binaries (a no-op when current)."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (
        ROOT / "src" / "service" / "dsp_served_main.cpp"
    ).is_file():
        fail(f"no dsp sources next to {HERE.name}/: run from a checkout root")
    BUILD_ROOT.mkdir(exist_ok=True)
    log_path = BUILD_ROOT / "build.log"
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "dsp_served", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.close()
                tail = log_path.read_text().splitlines()[-40:]
                print("\n".join(tail), file=sys.stderr)
                fail("build failed (see " + str(log_path) + ")")


def workload_flags(name, spec):
    flags = {
        "families": ",".join(spec["families"]),
        "sizes": ",".join(str(n) for n in spec["sizes"]),
        "widths": ",".join(str(w) for w in spec["widths"]),
        "working-set": spec["working_set"],
        "json-every": spec["json_every"],
        "persist": spec["persist"],
        "daemon-flags": " ".join(spec["daemon_flags"]),
        "ladder": ",".join(str(r) for r in spec["ladder_rps"]),
        "connections": spec["connections"],
        "limit-ms": spec["p99_limit_ms"],
        "replay": spec["replay"],
    }
    if spec["ladder_rps"] != sorted(set(spec["ladder_rps"])):
        fail(f"{name}: the rate ladder must ascend")
    out = []
    for key, value in flags.items():
        out += [f"--{key}", str(value)]
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()
    started = time.monotonic()

    build()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = json.loads((HERE / "workloads.json").read_text())["workloads"]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload}; known: {', '.join(workloads)}")
    wanted = benchmark["per_layer" if args.trace == "1" else "end_to_end"]

    workdir = BUILD_ROOT / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    command = [
        str(BUILD / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--daemon", str(BUILD / "dsp" / "dsp_served"),
        "--workdir", str(workdir),
    ] + workload_flags(args.workload, workloads[args.workload])
    timeout = max(10.0, RUN_DEADLINE_S - (time.monotonic() - started))
    # Its own process group, so a timeout also takes down the daemons the
    # binary launched.
    bench = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             preexec_fn=os.setpgrp)
    try:
        stdout, _ = bench.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(bench.pid, signal.SIGKILL)
        bench.communicate()
        fail(f"run exceeded {timeout:.0f} s")
    lines = stdout.splitlines()
    if bench.returncode != 0 or not lines:
        fail(f"perfbench exited with status {bench.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in result["metrics"]:
            fail(f"perfbench reported no {name}")
        metrics[name] = {"value": result["metrics"][name], "unit": metric["unit"]}
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
