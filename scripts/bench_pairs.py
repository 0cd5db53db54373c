#!/usr/bin/env python3
"""Before/after pairs of perfbench runs: a parent revision against the
working tree, on the same host.

The parent's committed files are exported (git archive) into a temporary
directory.  For each workload, perfbench/run.py then runs --pairs times
in each checkout, alternately, the first of each pair switching sides, so
that a slow spell of the host does not land on one side only.  The JSON
file written holds, per workload, every pair's end-to-end metrics, each
side's operations attempted and failed and its failed share, the
medians and quartiles of both sides, and per metric the number of pairs
in which the working tree did better.  The run length and the metrics'
directions come from BENCHMARK.json.

Usage, from the root of a checkout:
    python3 scripts/bench_pairs.py --parent HEAD~1 --pairs 10 \\
        --workload scale-comparability [lp-cloud ...] --seed 7001 \\
        --out BENCH.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_result(stdout: str) -> dict:
    """perfbench's result line (the last line of its standard output) with
    each metric reduced to its value."""
    out = json.loads(stdout.strip().splitlines()[-1])
    out["metrics"] = {k: m["value"] for k, m in out["metrics"].items()}
    return out


def _spread(values: list) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2]}


def _operations(runs: list) -> dict:
    """Operations attempted and failed over a side's runs, and the failed
    share."""
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {"attempted": attempted, "failed": failed,
            "failed_share": failed / attempted if attempted else 0.0}


def aggregate(pairs: list, better: dict) -> dict:
    """Summary of (parent, change) result pairs: each side's operations
    attempted and failed, and per end-to-end metric the median and
    quartiles of each side and the number of pairs in which the change
    did better; `better` maps a metric to "lower" or "higher"."""
    metrics = {}
    for name, direction in better.items():
        if not all(name in p["metrics"] and name in c["metrics"]
                   for p, c in pairs):
            continue
        before = [p["metrics"][name] for p, _ in pairs]
        after = [c["metrics"][name] for _, c in pairs]
        sign = 1.0 if direction == "lower" else -1.0
        metrics[name] = {
            "better": direction,
            "parent": _spread(before),
            "change": _spread(after),
            "pairs_better": sum(sign * (b - a) > 0
                                for b, a in zip(before, after)),
        }
    return {
        "pairs": [{"parent": p, "change": c} for p, c in pairs],
        "all_correct": all(p["correct"] and c["correct"] for p, c in pairs),
        "operations": {"parent": _operations([p for p, _ in pairs]),
                       "change": _operations([c for _, c in pairs])},
        "metrics": metrics,
    }


def benchmark_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def directions(spec: dict) -> dict:
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def export(rev: str, dest: str) -> str:
    """The committed files of rev, unpacked into dest; returns rev's hash."""
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", rev], check=True,
                         capture_output=True, text=True).stdout.strip()
    archive = os.path.join(dest, "parent.tar")
    subprocess.run(["git", "-C", ROOT, "archive", "-o", archive, sha],
                   check=True)
    tree = os.path.join(dest, "parent")
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    os.remove(archive)
    return sha


def run(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    return parse_result(proc.stdout)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision to compare")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--workload", required=True, nargs="+")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    spec = benchmark_spec(ROOT)
    better, seconds = directions(spec), spec["run_seconds"]
    report = {"seed": args.seed, "seconds": seconds, "workloads": {},
              "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                       "python": platform.python_version()}}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        report["parent"] = export(args.parent, tmp)
        sides = {"parent": os.path.join(tmp, "parent"), "change": ROOT}
        for workload in args.workload:
            pairs = []
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 \
                    else ("change", "parent")
                got = {side: run(sides[side], workload, args.seed, seconds)
                       for side in order}
                pairs.append((got["parent"], got["change"]))
                print(f"{workload} pair {i}: " + ", ".join(
                    f"{side} wall_s={got[side]['metrics'].get('wall_s')}"
                    for side in order), file=sys.stderr)
            report["workloads"][workload] = aggregate(pairs, better)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
