#!/usr/bin/env python3
"""Runs one workload of the swapgame benchmark.

    python3 perfbench/run.py --workload sweep_service|mc_validation|population \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  The first run configures and
builds the library, the swapgamed daemon and the perfbench program into
.bench_build/ in the repository's default build type; later runs rebuild
incrementally.  Build output goes to stderr.  The last line of stdout is
the JSON result, with the metric names BENCHMARK.json lists for the mode.
See perfbench/README.md.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("sweep_service", "mc_validation", "population")
# The program's time limit at --seconds 10; it grows in proportion above.
RUN_TIMEOUT_S = 170.0


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                   os.path.join("tools", "swapgamed.cpp")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no swapgame sources here (missing %s)" % needed)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))


def complete(result, trace):
    """Checks the program's metrics against BENCHMARK.json and adds a 0 for
    each per-layer metric of a layer the workload does not exercise."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    units = {m["name"]: m["unit"] for m in listed}
    extra = sorted(set(metrics) - set(units))
    wrong = sorted(n for n in metrics if n in units and metrics[n]["unit"] != units[n])
    missing = sorted(set(units) - set(metrics))
    if extra or wrong or (missing and not trace):
        fail("metrics disagree with BENCHMARK.json: extra %s, wrong unit %s, "
             "missing %s" % (extra, wrong, missing))
    result["metrics"] = {m["name"]: metrics.get(
        m["name"], {"value": 0, "unit": m["unit"]}) for m in listed}
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    timeout = RUN_TIMEOUT_S * max(1.0, args.seconds / 10.0)
    out_dir = os.path.join(BUILD, "run")
    os.makedirs(out_dir, exist_ok=True)
    # Relative paths keep the daemon's AF_UNIX socket path short.
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--daemon", os.path.relpath(
               os.path.join(BUILD, "swapgame", "tools", "swapgamed"), ROOT),
           "--out", os.path.relpath(out_dir, ROOT)]
    # Own process group, so a timeout also stops the daemon it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s did not finish within %.0f s" % (args.workload, timeout))
    if proc.returncode != 0:
        sys.stdout.write(stdout)
        fail("%s exited with code %d" % (args.workload, proc.returncode))
    lines = stdout.rstrip("\n").split("\n")
    result = complete(json.loads(lines[-1]), args.trace == "1")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
