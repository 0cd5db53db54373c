#!/usr/bin/env python3
"""Status counts of benchmark-suite's Monte Carlo probe over walk seeds.

Classifies the six registry domains once (the verdict does not depend on
the seed), then runs the suite's probe (pde.classification_probe with the
suite's offsets and walk settings) at every seed of a range.  Prints, per
domain, how often each probe status came up, the smallest decay margin in
its own standard errors (how near the rule came to another status), the
median wall time of one probe, the walker moves per probe point (the
normals the walk drew divided by N, counted by wrapping
numpy.random.default_rng around the probe, averaged over the seeds), the
walk iterations per probe batch (the calls of pde.contains_at, one per
iteration, averaged over the seeds), a sha256 digest of every probe's
(value, std_error) over the seed range, and at which seeds the probe
contradicted the verdict.  Two checkouts whose probes agree bit for bit
print the same digests.  Exits 1 if it contradicted a pinned verdict.

Usage:
    python3 scripts/probe_flip_rate.py [--seeds 1 24] [--walkers 2000]
        [--k-max 16] [--resolution 3]
"""

import argparse
import hashlib
import math
import statistics
import time
from contextlib import contextmanager

import numpy as np

from wienercap import pde
from wienercap.cli import (SUITE_PROBE_OFFSETS, build_bounds, classifier,
                           walk_config)
from wienercap.config import RunConfig
from wienercap.domain import BENCHMARK_STATUS, benchmark, benchmark_names
from wienercap.pde import classification_probe, decay_margin

STATUSES = ("DECAY-FIT", "NO-DECAY", "INSUFFICIENT")


class _CountingRng:
    """A numpy Generator that adds the normals it draws to a tally."""

    def __init__(self, rng, tally):
        self._rng, self._tally = rng, tally

    def standard_normal(self, *args, **kwargs):
        got = self._rng.standard_normal(*args, **kwargs)
        self._tally[0] += np.size(got)
        return got


@contextmanager
def counting_normals():
    """Within the block, every numpy.random.default_rng generator counts
    the normals it draws into the yielded one-element list."""
    real, tally = np.random.default_rng, [0]
    np.random.default_rng = lambda seed: _CountingRng(real(seed), tally)
    try:
        yield tally
    finally:
        np.random.default_rng = real


@contextmanager
def counting_iterations():
    """Within the block, every walk iteration (one pde.contains_at call)
    adds 1 to the yielded one-element list."""
    real, tally = pde.contains_at, [0]

    def counted(*args):
        tally[0] += 1
        return real(*args)

    pde.contains_at = counted
    try:
        yield tally
    finally:
        pde.contains_at = real


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs=2, default=[1, 24],
                    metavar=("FIRST", "LAST"), help="inclusive seed range")
    ap.add_argument("--walkers", type=int, default=2000)
    ap.add_argument("--k-max", type=int, default=16)
    ap.add_argument("--resolution", type=int, default=3)
    args = ap.parse_args()

    cfg = (RunConfig().with_override("wiener.K-max", args.k_max)
           .with_override("capacity.resolution", args.resolution)
           .with_override("pde.walkers", args.walkers))
    seeds = range(args.seeds[0], args.seeds[1] + 1)
    print(f"seeds {seeds.start}..{seeds.stop - 1}, {args.walkers} walkers")
    print(f"{'domain':<18} {'verdict':<12}"
          + "".join(f" {s:>12}" for s in STATUSES)
          + f" {'min |m|/se':>11} {'median s':>9} {'moves':>7}"
          + f" {'iters':>6}"
          + f" {'digest':>12}"
          + "  contradicted at")
    pinned_contradicted = False
    for name in benchmark_names():
        dom = benchmark(name)
        verdict = classifier(cfg, build_bounds(cfg, dom.metric))(dom).verdict
        counts = dict.fromkeys(STATUSES, 0)
        contradicted, closest_call, walls = [], math.inf, []
        digest = hashlib.sha256()
        with counting_normals() as drawn, counting_iterations() as iters:
            for seed in seeds:
                start = time.perf_counter()
                fit, contra = classification_probe(
                    dom, verdict, SUITE_PROBE_OFFSETS,
                    walk_config(cfg.with_override("seed", seed)))
                walls.append(time.perf_counter() - start)
                for p in fit.probes:
                    digest.update(f"{p.value.hex()} {p.std_error.hex()}\n"
                                  .encode())
                counts[fit.status] += 1
                usable = [p for p in fit.probes if p.usable]
                if len(usable) >= 3:
                    margin, se = decay_margin(usable)
                    if se > 0:
                        closest_call = min(closest_call, abs(margin) / se)
                if contra:
                    contradicted.append(seed)
        moves = drawn[0] / dom.N / (len(seeds) * len(SUITE_PROBE_OFFSETS))
        if contradicted and BENCHMARK_STATUS[name] is not None:
            pinned_contradicted = True
        print(f"{name:<18} {verdict:<12}"
              + "".join(f" {counts[s]:>12}" for s in STATUSES)
              + f" {closest_call:>11.1f} {statistics.median(walls):>9.3f}"
              + f" {moves:>7.0f} {iters[0] / len(seeds):>6.0f}"
              + f" {digest.hexdigest()[:12]:>12}"
              + f"  {contradicted or '-'}")
    return 1 if pinned_contradicted else 0


if __name__ == "__main__":
    raise SystemExit(main())
