#!/usr/bin/env python3
"""Build and run the simulator benchmark.

Run from the repository root:

    python3 simbench/run.py --workload table3-full --seed 1 --seconds 10 --trace 0

The first run configures and builds the benchmark (this directory's
CMake package, which compiles ../src) into .bench_build/; later runs
rebuild incrementally. Build output goes to standard error, so the last
line of standard output is the benchmark's JSON result. Each run gets a
private temp directory under .bench_build/tmp/ that is removed when the
run ends, whether it succeeded or not. Extra flags (--spans,
--update-reference) are passed to the binary.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build the simbench target; the binary path."""
    if shutil.which("cmake") is None:
        raise RuntimeError("cmake is not installed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "simbench", "-j", jobs],
        stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, "simbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args, extra = ap.parse_known_args()

    # A terminating signal unwinds through the finally blocks below, so
    # the child is stopped and the temp directory removed.
    def on_signal(signum, _frame):
        raise SystemExit(128 + signum)
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)

    try:
        binary = build()
    except (subprocess.SubprocessError, OSError, RuntimeError) as e:
        log("build failed: %s" % e)
        return 1

    tmp_root = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--tmp", tmp, "--reference", os.path.join(HERE, "reference.json")]
    if args.trace and "--spans" not in extra:
        spans_dir = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    cmd += extra

    proc = None
    try:
        proc = subprocess.Popen(cmd)
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
