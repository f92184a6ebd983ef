#!/usr/bin/env python3
"""Build and run the hcmm repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  The script configures and builds
perfbench/CMakeLists.txt (the hcmm library from ../src plus the
hcmm_perfbench binary) into .bench_build/, or into $CARGO_TARGET_DIR when
that is set, then runs the binary.  With --trace 0 it first times the
set-up alone in SETUP_PROBES fresh processes and reports the median set-up
time over those and the measuring run.  With --trace 1 the Chrome trace of
the traced run is written under the build directory.  The last line of
standard output is the result JSON; build output goes to standard error.
See perfbench/docs.md for the workloads and metrics.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 8      # extra set-up-only processes per --trace 0 run
CHILD_TIMEOUT_S = 150  # a run must finish in 180 s; builds are not limited


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out], check=True,
                       stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "--target", "hcmm_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "hcmm_perfbench")


def run_child(cmd):
    """Run hcmm_perfbench; return its stdout lines.  Exits on failure."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"exit code {proc.returncode}: {' '.join(cmd)}")
    lines = proc.stdout.splitlines()
    if not lines:
        fail(f"no output: {' '.join(cmd)}")
    return lines


def main():
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the child it is waiting on (hcmm_perfbench's measuring child dies
    # with it).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="sim-3dd-1024, sim-sweep-64, spmd-socket-1024 or "
                         "spmd-socket-64")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    base = [exe, "--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if args.trace == 0:
        for _ in range(SETUP_PROBES):
            probe = run_child(base + ["--setup-only"])
            setups.append(json.loads(probe[-1])["setup_s"])

    cmd = base + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        traces = os.path.join(os.path.dirname(build_dir()), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    lines = run_child(cmd)
    result = json.loads(lines[-1])
    if args.trace == 0:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        lines.insert(-1, "setup_s samples: " +
                     " ".join(f"{s:.6f}" for s in setups))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
