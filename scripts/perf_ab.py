#!/usr/bin/env python3
"""A/B benchmark: a git revision against the working tree, in alternating perfbench pairs.

Run from anywhere inside the repository:

    python3 scripts/perf_ab.py --base HEAD --workload protocol --pairs 10 --seed 7

The base revision is extracted with `git archive` into a temporary directory,
so no git state changes; the change side is the working tree as it stands.
Each pair runs `perfbench/run.py --workload W --seed S --trace 0` for
BENCHMARK.json's run_seconds on both sides, alternating which side runs
first. Each side builds perfbench into its own CARGO_TARGET_DIR inside that
temporary directory, on its first run and before the workload's timers
start. The result goes to BENCH_ab_<workload>.json at the repository root:
every run's metrics with its correct and failed fields; per end-to-end
metric, both sides' medians and quartiles, the change/base ratio of the
medians, the number of pairs each side won (ties count for neither), and
whether the change is worse than the base by more than BENCHMARK.json's
bound; and a context block naming both commits, the seed, the pair count,
the core count, each side's build type and the git blob id of
perfbench/urcl_perfbench.cc (that file fixes the executor and model
config). Exits non-zero when any run fails or reports correct false.
perfbench/ and BENCHMARK.json are only read.
"""
import argparse
import io
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 1500  # perfbench/run.py bounds its own build and run; this is a backstop


def git(*args, cwd=ROOT, binary=False):
    done = subprocess.run(["git", *args], cwd=cwd, stdout=subprocess.PIPE, check=True)
    return done.stdout if binary else done.stdout.decode().strip()


def extract(commit, dest):
    """Writes the tree of `commit` into `dest` without touching the repository."""
    archive = io.BytesIO(git("archive", "--format=tar", commit, binary=True))
    with tarfile.open(fileobj=archive) as tar:
        tar.extractall(dest, filter="data")


def build_type(target_dir):
    cache = target_dir / "perfbench" / "CMakeCache.txt"
    for line in cache.read_text().splitlines() if cache.is_file() else []:
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return None


def run_once(side, workload, seed, seconds):
    """One perfbench/run.py run on `side`; returns its record."""
    command = [sys.executable, str(side["root"] / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, CARGO_TARGET_DIR=str(side["target"]))
    try:
        done = subprocess.run(command, cwd=side["root"], env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        exit_code, stdout, stderr = done.returncode, done.stdout, done.stderr
    except subprocess.TimeoutExpired:
        exit_code, stdout, stderr = None, "", f"timed out after {RUN_TIMEOUT_S} s"
    record = {"side": side["name"], "seconds": seconds, "exit_code": exit_code}
    lines = stdout.strip().splitlines()
    if exit_code != 0 or not lines:
        record["error"] = stderr.strip()[-2000:]
        return record
    result = json.loads(lines[-1])
    record.update(correct=result["correct"], attempted=result["attempted"],
                  failed=result["failed"],
                  metrics={name: m["value"] for name, m in result["metrics"].items()})
    return record


def ok(record):
    return record["exit_code"] == 0 and record.get("correct") is True


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(spec, pairs):
    """Per end-to-end metric statistics over the complete pairs."""
    summary = {}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        entry = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
                 "pairs": len(pairs)}
        if pairs:
            for side, values in (("base", base), ("change", change)):
                q1, median, q3 = quartiles(values)
                entry[side] = {"median": median, "q1": q1, "q3": q3}
            b, c = entry["base"]["median"], entry["change"]["median"]
            entry["ratio"] = c / b if b else None
            entry["change_wins"] = sum((x < y) if lower else (x > y) for x, y in zip(change, base))
            entry["base_wins"] = sum((y < x) if lower else (y > x) for x, y in zip(change, base))
            limit = b * (1 + metric["bound"]) if lower else b * (1 - metric["bound"])
            entry["worse_than_bound"] = c > limit if lower else c < limit
        summary[name] = entry
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    seconds = spec["run_seconds"]
    base_commit = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    program = "perfbench/urcl_perfbench.cc"

    with tempfile.TemporaryDirectory(prefix="perf_ab_") as tmp:
        tmp = pathlib.Path(tmp)
        extract(base_commit, tmp / "base")
        sides = {
            "base": {"name": "base", "root": tmp / "base", "target": tmp / "base-target"},
            "change": {"name": "change", "root": ROOT, "target": tmp / "change-target"},
        }
        runs, pairs = [], []
        for k in range(args.pairs):
            order = ("change", "base") if k % 2 == 0 else ("base", "change")
            pair = {}
            for position, name in enumerate(order):
                record = run_once(sides[name], args.workload, args.seed, seconds)
                record.update(pair=k, position=position)
                runs.append(record)
                pair[name] = record
                print(f"perf_ab: pair {k} {name}: "
                      + (json.dumps(record["metrics"]) if ok(record) else "FAILED"),
                      file=sys.stderr)
            if not all(ok(r) for r in pair.values()):
                break
            pairs.append(pair)
        build_types = {name: build_type(side["target"]) for name, side in sides.items()}

    every_ok = len(pairs) == args.pairs
    report = {
        "workload": args.workload,
        "context": {
            "base_commit": base_commit,
            "change_commit": git("rev-parse", "HEAD"),
            "change_dirty": bool(git("status", "--porcelain")),
            "seed": args.seed,
            "pairs": args.pairs,
            "run_seconds": seconds,
            "cpu_count": os.cpu_count(),
            "build_type": build_types,
            "workload_program_blob": {
                "base": git("rev-parse", f"{base_commit}:{program}"),
                "change": git("hash-object", program),
            },
        },
        "all_runs_ok": every_ok,
        "end_to_end": summarize(spec, pairs),
        "runs": runs,
    }
    out = ROOT / f"BENCH_ab_{args.workload}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    for name, entry in report["end_to_end"].items():
        if entry.get("ratio") is not None:
            print(f"{name}: base {entry['base']['median']:.6g} -> change "
                  f"{entry['change']['median']:.6g} (ratio {entry['ratio']:.3f}, change better "
                  f"in {entry['change_wins']}/{entry['pairs']}, worse than bound: "
                  f"{entry['worse_than_bound']})")
    print(f"wrote {out}")
    if not every_ok:
        print("perf_ab: a run failed or reported correct false", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
