#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (the sion library from
src/ plus the harness) into .bench_build/ with the release settings; later
calls rebuild incrementally. The harness's human-readable report goes to
stdout, and its last line is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is nonzero on a build failure,
a correctness failure, or a run that exceeds its time limit.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("open_close", "checkpoint_restart", "posix_roundtrip")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(target):
    """Configure (once) and build `target`; returns its path or None."""
    out = os.path.join(build_dir(), "cmake")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, target)


def run(cmd):
    """Run `cmd` to completion; returns (exit code, stdout). The child is
    killed and reaped when it exceeds RUN_TIMEOUT_S or this script is
    interrupted."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode, out


def main():
    # SIGTERM unwinds like Ctrl-C, so children are killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the harness's own tests")
    args = ap.parse_args()

    if args.selftest:
        binary = build("perfbench_selftest")
        return 1 if binary is None else subprocess.run([binary]).returncode
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    binary = build("perfbench")
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    code, out = run([binary, "--workload", args.workload,
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", str(args.trace),
                     "--out-dir", os.path.join(build_dir(), "run")])
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == RESULT_KEYS
    except (json.JSONDecodeError, TypeError):
        ok = False
    if not ok:
        print("perfbench: the harness printed no result", file=sys.stderr)
        return code or 1
    sys.stdout.write(out)
    return code if code != 0 or result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
