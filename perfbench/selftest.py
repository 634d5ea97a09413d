#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size (about a minute after the build).

Run from the repository root:

    python3 perfbench/selftest.py

It checks that
  * every workload in BENCHMARK.json runs, answers correctly, and prints
    as its last line a JSON object with exactly the keys correct,
    attempted, failed and metrics, holding every end-to-end metric
    (--trace 0) or every per-layer metric (--trace 1) with the unit
    BENCHMARK.json gives it;
  * the end-to-end metrics are never 0;
  * a planted wrong answer fails the run: a non-zero exit and
    "correct": false;
  * in a directory holding only BENCHMARK.json and the benchmark's own
    files (no library sources), the command exits non-zero without
    printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(args, cwd=ROOT):
    cmd = SPEC["command"] + args
    env = dict(os.environ)
    if cwd != ROOT:
        env.pop("CARGO_TARGET_DIR", None)
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result, proc


def check_result(result, table, label):
    errors = []
    if result is None:
        return [f"{label}: no JSON result line"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: top-level keys are {sorted(result)}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{label}: attempted must be a whole number >= 1")
    if not isinstance(result.get("failed"), int):
        errors.append(f"{label}: failed must be a whole number")
    metrics = result.get("metrics", {})
    expected = {m["name"]: m["unit"] for m in SPEC[table]}
    if set(metrics) != set(expected):
        errors.append(f"{label}: metric names differ: missing "
                      f"{sorted(set(expected) - set(metrics))}, extra "
                      f"{sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        got = metrics.get(name)
        if got is None:
            continue
        if got.get("unit") != unit:
            errors.append(f"{label}: {name} has unit {got.get('unit')}, not {unit}")
        if not isinstance(got.get("value"), (int, float)):
            errors.append(f"{label}: {name} has no numeric value")
        elif table == "end_to_end" and got["value"] == 0:
            errors.append(f"{label}: end-to-end metric {name} reads 0")
    return errors


def main():
    errors = []
    base = ["--seed", "7", "--seconds", "2", "--size", "tiny"]
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace, table in (("0", "end_to_end"), ("1", "per_layer")):
            label = f"{workload} --trace {trace}"
            code, result, proc = run(["--workload", workload, "--trace", trace] + base)
            errors += check_result(result, table, label)
            if code != 0 or not (result or {}).get("correct"):
                errors.append(f"{label}: exit {code}, result {result}\n{proc.stderr[-2000:]}")
            print(f"ok?  {label}: exit {code}", flush=True)

    for workload in [w["name"] for w in SPEC["workloads"]]:
        label = f"{workload} --plant-wrong-answer"
        code, result, _ = run(["--workload", workload, "--trace", "0",
                               "--plant-wrong-answer"] + base)
        if code == 0 or result is None or result.get("correct") is not False \
                or result.get("failed", 0) < 1:
            errors.append(f"{label}: a planted wrong answer did not fail the run "
                          f"(exit {code}, result {result})")
        print(f"ok?  {label}: exit {code}", flush=True)

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = run(["--workload", SPEC["workloads"][0]["name"], "--trace", "0"] + base,
                          cwd=bare)
    if code == 0 or result is not None:
        errors.append(f"bare directory: expected a non-zero exit and no result, got "
                      f"exit {code}, result {result}")
    print(f"ok?  bare directory: exit {code}", flush=True)
    shutil.rmtree(bare, ignore_errors=True)

    for error in errors:
        print("FAIL", error)
    print("selftest:", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
