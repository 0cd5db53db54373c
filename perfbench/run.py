#!/usr/bin/env python3
"""Benchmark of the wienercap pipeline, one workload per process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload registry-suite --seed 1 \
        --seconds 20 --trace 0

Workloads: registry-suite, scale-comparability, lp-cloud (see README.md).
The run repeats whole rounds of its workload while the projected end
stays within --seconds (at least one round; two for registry-suite),
checks every output after the timed region, and prints
one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports wall_s, setup_s, capacities_per_s and peak_rss_mb.
Its times are scaled to the host's nominal speed by a reference
computation timed beside the work (hostspeed.py).
--trace 1 runs an untraced warm-up round, then alternates traced and
untraced rounds (at least three rounds in all); it reports the per-layer
figures of the traced rounds and the tracing overhead (median traced
round minus median warm untraced round), and writes the spans to
perfbench/out/trace-<workload>-seed<seed>.json.

The program is imported from ./src of the same checkout; without it the
run exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

# One BLAS thread, set before numpy loads, in this process and the ones it
# starts.  With more, OpenBLAS workers keep spinning on the second vCPU after
# lp-cloud's large matrix-vector products and slow the host-speed reference
# that runs next, by up to 40% in some sets of runs and not in others.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 3


def import_program():
    pkg = os.path.join(SRC, "wienercap")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        sys.exit(f"perfbench: no wienercap sources at {pkg}")
    sys.path.insert(0, SRC)
    import wienercap
    if os.path.dirname(os.path.abspath(wienercap.__file__)) != pkg:
        sys.exit(f"perfbench: imported wienercap from {wienercap.__file__}, "
                 f"not from {pkg}")


def setup_probe(workload: str, seed: int):
    """Child process: import, build the inputs, print the monotonic clock."""
    import_program()
    from workloads import WORKLOADS
    out_dir = os.path.join(OUT, f"probe-{os.getpid()}")
    try:
        WORKLOADS[workload](seed, out_dir).setup()
        print(repr(time.monotonic()), flush=True)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def measure_setup(workload: str, seed: int, speed) -> float:
    """Median over SETUP_PROBES fresh processes of the time from spawning
    the interpreter to the workload's inputs being built, each scaled to
    the host's nominal speed by reference samples taken just before and
    after it."""
    samples = []
    for _ in range(SETUP_PROBES):
        before = speed.sample()
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        ready = float(proc.stdout.strip().splitlines()[-1]) - t0
        samples.append(speed.scale(ready, before, speed.sample()))
    return statistics.median(samples)


def main() -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    import_program()
    from hostspeed import HostSpeed
    from tracing import Recorder, layer_metrics

    traced = bool(args.trace)
    run_dir = os.path.join(OUT, f"run-{os.getpid()}")
    speed = None
    try:
        wl = WORKLOADS[args.workload](args.seed, run_dir)
        wl.setup()
        speed = HostSpeed()
        # untraced runs sample the host's speed inside rounds too; traced
        # runs only before and after each round, for host.ref_ms
        recorders = [Recorder(False, None if traced else speed),
                     Recorder(True)]
        # traced runs: untraced warm-up round, then traced and untraced
        # rounds alternate so the overhead compares warm rounds only
        min_rounds = max(wl.min_rounds, 3 if traced else 1)
        results, walls, spans_s, is_traced = [], [], [], []
        attempted = failed = 0
        rates = []
        t_begin = time.perf_counter()
        i = 0
        while True:
            tr = traced and i % 2 == 1
            rec = recorders[tr]
            rec.round, rec.tables = i, []
            rec.install()
            t = time.perf_counter()
            try:
                speed.start()
                res = rec.call("bench.round", lambda: wl.round(rec, i))
                raw, scaled = speed.stop()
            finally:
                rec.uninstall()
            spans_s.append(time.perf_counter() - t)
            dt = raw if traced else scaled
            ok, att, bad = wl.tally(res)
            attempted, failed = attempted + att, failed + bad
            results.append(res)
            walls.append(dt)
            is_traced.append(tr)
            rates.append(ok / dt)
            print(f"perfbench: {args.workload} round {i} "
                  f"{'traced ' if tr else ''}{raw:.3f} s raw, "
                  f"{scaled:.3f} s at nominal speed, {ok} capacities",
                  file=sys.stderr)
            i += 1
            elapsed = time.perf_counter() - t_begin
            if (i >= min_rounds
                    and elapsed + statistics.median(spans_s) > args.seconds):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        errors = wl.check(results)
        for e in errors:
            print(f"perfbench: CHECK FAILED: {e}", file=sys.stderr)

        plain = [w for w, t in zip(walls, is_traced) if not t]
        if traced:
            timed = [w for w, t in zip(walls, is_traced) if t]
            metrics = layer_metrics(recorders[1].spans, len(timed))
            metrics["trace.wall_s"] = statistics.median(timed)
            metrics["trace.overhead_s"] = (statistics.median(timed)
                                           - statistics.median(plain[1:]))
            metrics["host.ref_ms"] = 1e3 * statistics.median(speed.refs)
            recorders[1].write(os.path.join(
                OUT, f"trace-{args.workload}-seed{args.seed}.json"))
        else:
            metrics = {
                "wall_s": statistics.median(plain),
                "setup_s": measure_setup(args.workload, args.seed, speed),
                "capacities_per_s": statistics.median(rates),
                "peak_rss_mb": peak_rss_mb,
            }
        units = unit_table()
        out = {"correct": not errors, "attempted": attempted, "failed": failed,
               "metrics": {k: {"value": v, "unit": units[k]}
                           for k, v in metrics.items()}}
    finally:
        if speed is not None:
            speed.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(out))
    return 0


def unit_table() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
