#!/usr/bin/env python3
"""Repository benchmark: builds the URCL workload program and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload protocol --seed 1 --seconds 20 --trace 0

The workload program (perfbench/urcl_perfbench.cc) is built from source with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on first use;
later runs rebuild incrementally. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. Build
output and diagnostics go to stderr. Exits non-zero, printing no result, when
the build fails or the workload program's output does not match BENCHMARK.json.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the workload program; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no URCL sources next to {HERE.name}/ (expected {ROOT / 'src'})")
    target_root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target_root.is_absolute():
        target_root = ROOT / target_root
    build_dir = target_root / "perfbench"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "urcl_perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"build step timed out: {' '.join(step)}")
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail(f"build step failed: {' '.join(step)}")
    binary = build_dir / "urcl_perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    binary = build()
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} ran longer than {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"workload program exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("workload program printed no result")
    result = json.loads(lines[-1])

    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    want = expected_metrics(args.trace == 1)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"workload program metrics {sorted(got.items())} do not match BENCHMARK.json "
             f"{sorted(want.items())}")
    if result["attempted"] < 1:
        fail("workload program attempted nothing")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
