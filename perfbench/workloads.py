"""The three workloads: inputs from a seed, one timed round, output checks.

Each workload class has
    setup()            build the inputs (counted in setup_s)
    round(rec, i)      one timed round; returns what the checks need
    tally(result)      (capacity values handed back, attempted, failed)
    check(results)     list of error strings, run after the timed region
"""

from __future__ import annotations

import json
import os
import random

import numpy as np

import oracles

RESOLUTION = 3


class RegistrySuite:
    """`wienercap benchmark-suite` on the six registry domains: Euclidean
    N=1, wiener.K-max = 16, capacity.resolution = 3, 2000 walkers.  The
    seed is the config seed, which drives the Monte Carlo walks."""

    name = "registry-suite"
    min_rounds = 2  # bundles of two rounds are compared byte for byte

    def __init__(self, seed: int, out_dir: str):
        self.seed, self.out_dir = seed, out_dir

    def setup(self):
        from wienercap import cli
        self.cli = cli
        os.makedirs(self.out_dir, exist_ok=True)
        self.config_path = os.path.join(self.out_dir, "suite.cfg")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write("wiener.K-max = 16\n"
                     "capacity.resolution = 3\n"
                     f"seed = {self.seed}\n")

    def round(self, rec, i):
        out = os.path.join(self.out_dir, f"round{i}")
        code = self.cli.main(["benchmark-suite", "--config", self.config_path,
                              "--out", out, "--quiet"])
        return {"code": code, "out": out, "tables": list(rec.tables)}

    def tally(self, result):
        failed_run = os.path.exists(os.path.join(result["out"], "failure.json"))
        return _table_tally(result["tables"], failed_run)

    def check(self, results):
        errs = []
        bundles = []
        for r in results:
            if r["code"] != 0:
                errs.append(f"benchmark-suite exit code {r['code']}")
            files = {}
            for name in sorted(os.listdir(r["out"])):
                with open(os.path.join(r["out"], name), "rb") as fh:
                    files[name] = fh.read()
            bundles.append(files)
            parsed = {n: json.loads(b) for n, b in files.items()
                      if n.endswith(".json")}
            errs += oracles.check_registry(parsed)
        for j, b in enumerate(bundles[1:], start=1):
            if b != bundles[0]:
                diff = sorted(n for n in set(b) | set(bundles[0])
                              if b.get(n) != bundles[0].get(n))
                errs.append(f"bundle of round {j} differs from round 0: {diff}")
        return errs


class ScaleComparability:
    """lambda_comparability on the time halfspace, (lam, mu) = (1/4, 1/2),
    s = 2..5, capacity exponent a = 1/4, weight exponent b = 1/2.  The
    seed translates the marked point to t0 = j/64, j in [-32, 32]: a
    dyadic shift, so the ring grids stay exact translates."""

    name = "scale-comparability"
    min_rounds = 1
    lam, mu, a, b = 0.25, 0.5, 0.25, 0.5
    s_values = (2, 3, 4, 5)

    def __init__(self, seed: int, out_dir: str):
        self.t0 = random.Random(seed).randint(-32, 32) / 64.0

    def setup(self):
        import wienercap as wc
        self.wc = wc
        self.dom = wc.halfspace_time(wc.euclidean(1), t0=self.t0,
                                     t_top=self.t0 + 1.0)

    def round(self, rec, i):
        rep = self.wc.lambda_comparability(self.dom, self.a, self.b, self.lam,
                                           self.mu, self.s_values,
                                           resolution=RESOLUTION)
        return {"report": rep, "tables": list(rec.tables)}

    def tally(self, result):
        return _table_tally(result["tables"], False)

    def check(self, results):
        wc = self.wc
        errs = []
        kern = wc.GaussianKernel(self.dom.metric, self.a)
        vol = lambda r: float(oracles.ball_volume("euclidean", 1, r))
        for j, r in enumerate(results):
            rep = r["report"]
            errs += oracles.check_comparability(rep.sigma, rep.constant,
                                                rep.stability)
            if len(r["tables"]) != 2:
                errs.append(f"expected 2 nested tables, got {len(r['tables'])}")
                continue
            for tab in r["tables"]:
                label = f"round {j} lam={tab.lam}"
                if tab.failed or tab.partial:
                    errs.append(f"{label}: failed solves {tab.failed}")
                errs += oracles.check_dilation(label, tab.lam, tab.K_max,
                                               tab.capacities, vol)
        # independent re-solve of a few entries of the last round's tables
        for tab in results[-1]["tables"]:
            for k, h in [(2, 1), (3, 2), (tab.K_max, 1)]:
                est = tab.capacities.get((k, h))
                if est is None:
                    errs.append(f"lam={tab.lam}: entry {(k, h)} missing")
                    continue
                rs = wc.RingSpec(tab.lam, k, h, "nested")
                prob = wc.build_problem(self.dom, wc.RingTarget(rs), kern,
                                        RESOLUTION)
                K = oracles.kernel_matrix("euclidean", 1, self.a, prob.cons_x,
                                          prob.cons_t, prob.support.xs,
                                          prob.support.ts)
                errs += oracles.check_resolve(f"lam={tab.lam} (k, h)={(k, h)}",
                                              est.value,
                                              oracles.packing_value(K))
        return errs


class LPCloud:
    """solve_capacity on a fixed list of 12 random space-time clouds of
    50..400 atoms (drawn once from CLOUD_SEED), metrics cycling
    euclidean(1), euclidean(2), heisenberg_koranyi(), each against its
    constraint_points grid at resolution 3.  The run's seed sets the order
    in which the clouds are solved.  The list is fixed because whether a
    cloud's LP meets the 1e-6 gap gate depends on the draw (some draws
    fail it), and a run must attempt the same operations whatever its seed.
    """

    name = "lp-cloud"
    min_rounds = 1
    sizes = (50, 75, 100, 130, 160, 190, 220, 260, 300, 340, 370, 400)
    a = 0.25
    radius = 0.5
    CLOUD_SEED = 0

    def __init__(self, seed: int, out_dir: str):
        self.order = np.random.default_rng(seed).permutation(len(self.sizes))

    def setup(self):
        import wienercap as wc
        from wienercap.domain import SetSample
        from wienercap.metric import ball_coord_halfwidths
        self.wc = wc
        metrics = [wc.euclidean(1), wc.euclidean(2), wc.heisenberg_koranyi()]
        rng = np.random.default_rng(self.CLOUD_SEED)
        problems = []
        for i, n in enumerate(self.sizes):
            m = metrics[i % 3]
            half = ball_coord_halfwidths(m, self.radius)
            X = rng.uniform(-1.0, 1.0, size=(n, m.N)) * half
            T = rng.uniform(-self.radius ** 2, 0.0, size=n)
            s = SetSample(X, T, np.full(n, 1.0 / n), 1.0, 0.0, RESOLUTION)
            cx, ct = wc.constraint_points(s, m, RESOLUTION)
            problems.append(
                wc.CapacityProblem(wc.GaussianKernel(m, self.a), s, cx, ct))
        self.problems = [problems[j] for j in self.order]

    def round(self, rec, i):
        out = []
        for p in self.problems:
            try:
                out.append(self.wc.solve_capacity(p))
            except (self.wc.CapacityConvergenceError,
                    self.wc.CapacityInputError):
                out.append(None)
        return {"estimates": out}

    def tally(self, result):
        failed = sum(1 for e in result["estimates"] if e is None)
        n = len(result["estimates"])
        return n - failed, n, failed

    def check(self, results):
        errs = []
        smallest = {}
        for j, r in enumerate(results):
            for p, est in zip(self.problems, r["estimates"]):
                if est is None:
                    continue
                m = p.kernel.metric
                label = f"round {j} {m.kind} N={m.N} n={p.support.n}"
                errs += oracles.check_packing(
                    label, m.kind, m.N, self.a, est.value, est.dual_value,
                    est.mu, p.support.xs, p.support.ts, p.cons_x, p.cons_t)
                key = (m.kind, m.N)
                if key not in smallest or p.support.n < smallest[key][0].support.n:
                    smallest[key] = (p, est)
        for (kind, N), (p, est) in sorted(smallest.items()):
            K = oracles.kernel_matrix(kind, N, self.a, p.cons_x, p.cons_t,
                                      p.support.xs, p.support.ts)
            errs += oracles.check_resolve(f"{kind} N={N} n={p.support.n}",
                                          est.value, oracles.packing_value(K))
        return errs


def _table_tally(tables, failed_run: bool):
    """Capacity values in the returned series tables: every (k, h) with a
    nonzero term (solved, or reused past the band ceiling) plus every
    recorded failure.  A run that ended in analysis failure (failure.json)
    counts one more failed operation."""
    ok = failed = 0
    for tab in tables:
        bad = set(tab.failed)
        nz = {(k + 1, h + 1) for k, h in zip(*np.nonzero(tab.terms))}
        ok += len(nz - bad)
        failed += len(bad)
    if failed_run:
        failed += 1
    return ok, ok + failed, failed


WORKLOADS = {w.name: w for w in (RegistrySuite, ScaleComparability, LPCloud)}
