#!/usr/bin/env python3
"""What the covering LP does on each perfbench workload.

Runs one round of each workload named, in this process, on the package
in ./src of this checkout, with perfbench/workloads.py supplying the
inputs (imported, never modified).  Per workload it prints:

    solves      covering LPs solved (memo hits solve nothing)
    W rows      grid rows in the working sets W the LPs were solved on,
                summed over the solves
    rounds      covering rounds, summed over the solves
    iterations  simplex iterations (CapacityEstimate.lp_iterations)
    highs_s     seconds inside capacity._covering_solve, the one call
                that appends rows to the HiGHS model and runs it
    kernel_s    seconds inside kernel.GaussianKernel.matrix, which builds
                every kernel matrix (HeatKernel's included)
    fallbacks   full-grid linprog solves

capacity._solve_lp, capacity._covering_solve, capacity.linprog and
GaussianKernel.matrix are wrapped for the round and restored after it.
The seconds are wall time on whatever host runs the script; the counts
depend on the seed only.

Usage, from the root of a checkout:
    python3 scripts/lp_census.py [--workload lp-cloud ...] [--seed 13] \\
        [--json census.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, os.path.join(ROOT, "perfbench"))

from wienercap import capacity, kernel  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COLUMNS = ("solves", "W rows", "rounds", "iterations", "highs_s", "kernel_s",
           "fallbacks")
SECONDS = ("highs_s", "kernel_s")


def census(name: str, seed: int) -> dict:
    """One round of workload `name` at `seed`, counted."""
    row = dict.fromkeys(COLUMNS, 0)
    row.update(dict.fromkeys(SECONDS, 0.0))
    solve_lp, covering_solve = capacity._solve_lp, capacity._covering_solve
    linprog, matrix = capacity.linprog, kernel.GaussianKernel.matrix

    def counted_solve_lp(K, c, kappa):
        out = solve_lp(K, c, kappa)
        row["solves"] += 1
        row["W rows"] += out[2]
        row["rounds"] += out[3]
        row["iterations"] += out[4]
        return out

    def timed_covering_solve(h, rows):
        start = time.perf_counter()
        try:
            return covering_solve(h, rows)
        finally:
            row["highs_s"] += time.perf_counter() - start

    def timed_matrix(self, *args):
        start = time.perf_counter()
        try:
            return matrix(self, *args)
        finally:
            row["kernel_s"] += time.perf_counter() - start

    def counted_linprog(*args, **kwargs):
        row["fallbacks"] += 1
        return linprog(*args, **kwargs)

    with tempfile.TemporaryDirectory(prefix="lp-census-") as out_dir:
        work = WORKLOADS[name](seed, out_dir)
        work.setup()
        capacity._solve_lp = counted_solve_lp
        capacity._covering_solve = timed_covering_solve
        capacity.linprog = counted_linprog
        kernel.GaussianKernel.matrix = timed_matrix
        try:
            # a round reads the recorder's captured tables only
            work.round(SimpleNamespace(tables=[]), 0)
        finally:
            capacity._solve_lp = solve_lp
            capacity._covering_solve = covering_solve
            capacity.linprog = linprog
            kernel.GaussianKernel.matrix = matrix
    return row


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS),
                    default=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=13)
    ap.add_argument("--json", help="also write the rows to this JSON file")
    args = ap.parse_args()

    rows = {name: census(name, args.seed) for name in args.workload}
    width = max(len(n) for n in rows)
    print(f"{'workload':<{width}}  " + "  ".join(f"{c:>10}" for c in COLUMNS))
    for name, row in rows.items():
        cells = [f"{row[c]:>10.3f}" if c in SECONDS else f"{row[c]:>10d}"
                 for c in COLUMNS]
        print(f"{name:<{width}}  " + "  ".join(cells))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "workloads": rows}, fh, indent=2,
                      sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
