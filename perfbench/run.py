#!/usr/bin/env python3
"""Builds the grouplink benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

The workloads are `serve`, `ingest` and `paged` (see perfbench/SPEC.md).
Build output goes to stderr; the benchmark's report goes to stdout, and
its last line is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. The exit code is 0 only when every answer was
checked and correct.

The build, the run's scratch files, its reports (`results/*.json`) and, for
traced runs, its Chrome trace-event files live under $CARGO_TARGET_DIR
(default `.bench_build`), relative to the current directory; a run reads
and writes nothing outside it and the checkout.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_dir():
    # One build per checkout: a build directory shared through an absolute
    # $CARGO_TARGET_DIR must never serve another checkout's sources.
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    tag = hashlib.sha1(HERE.encode()).hexdigest()[:12]
    return os.path.join(os.path.abspath(base), "perfbench-" + tag)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; True when it succeeded."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {cmd[0]} failed: {err}", file=sys.stderr)
        return False


def build(out):
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_logged(cmd, BUILD_TIMEOUT_S):
            shutil.rmtree(out, ignore_errors=True)
            return False
    jobs = str(os.cpu_count() or 1)
    return run_logged(["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
                      BUILD_TIMEOUT_S)


def main(argv):
    if not os.path.exists(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        print("perfbench: the grouplink sources (src/) are not next to perfbench/",
              file=sys.stderr)
        return 2
    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(out, "perfbench")
    env = dict(os.environ, PERFBENCH_WORK_DIR=os.path.join(out, "work"))
    proc = subprocess.Popen([binary] + argv, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
