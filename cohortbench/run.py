#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 cohortbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Builds the library sources of the
checkout and the benchmark binary (Release) into the build directory
($CARGO_TARGET_DIR, default .bench_build), runs the binary and passes its
output through: the last line of standard output is the result object.
Build and progress messages go to standard error.  Exits non-zero without a
result when the build or the run fails.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("flue2d_lb", "demo2d_ckpt", "duct3d_blocked")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"cohortbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(bdir):
    """Configures once, then builds incrementally; returns the binary path."""
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)
    return os.path.join(bdir, "cohortbench")


def source_revision():
    """The git revision, or a digest of src/ when the checkout has no git."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for root, dirs, files in os.walk("src"):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not os.path.isdir("src"):
        log("no library sources (src/) in the current directory")
        return 2
    bdir = build_dir()
    try:
        binary = build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    workdir = os.path.join(bdir, "work", args.workload)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--git-rev", source_revision()]
    # Own process group, so a timeout takes the rank processes down too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"benchmark binary exceeded {RUN_TIMEOUT_S} s and was killed")
        return 3
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    except (IndexError, ValueError, AssertionError):
        log(f"benchmark binary exited {proc.returncode} without a result line")
        return proc.returncode or 4
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
