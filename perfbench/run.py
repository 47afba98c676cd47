#!/usr/bin/env python3
"""pardsm-bench entry point: build the benchmark from source, run workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # every workload, seed 1, 20 s each

Run from the root of a checkout of the repository.  The benchmark binary is
configured and built (CMake, Release) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, the first time and brought up to date on
every later call; build output goes to stderr.  The binary's last stdout
line is the run's JSON result; without --workload each workload runs in a
process of its own, one after the other, and prints its own result.  With --trace 1 the spans are also written
as Chrome trace-event JSON to <build dir>/traces/<workload>-seed<N>.json.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the pardsm sources (src/) are not next to perfbench/; "
             "run from the root of a full checkout")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "pardsm_bench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "pardsm_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="default: every workload in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    if args.workload:
        workloads = [args.workload]
    else:
        listed = subprocess.run([binary, "--list"], check=True,
                                capture_output=True, text=True)
        workloads = listed.stdout.split()
    status = 0
    for workload in workloads:
        if len(workloads) > 1:
            print(f"== {workload}", flush=True)
        status = max(status, run_workload(binary, out, workload, args))
    sys.exit(status)


def run_workload(binary, out, workload, args):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{workload}-seed{args.seed}.json")]
    # A run measures for --seconds, then its traced mode replays once more
    # and checks; a run well past that has hung.
    timeout_s = max(170, 3 * args.seconds + 60)
    sys.stdout.flush()
    try:
        # run() kills the child on timeout and waits for it to end.
        return subprocess.run(cmd, timeout=timeout_s).returncode
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {timeout_s:g} s")


if __name__ == "__main__":
    main()
