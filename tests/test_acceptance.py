"""Acceptance checks: twelve end-to-end criteria covering the capacity LP,
capacity laws and scaling, the ring-series and integral criteria, boundary
classification on the benchmark registry, scale/operator robustness, and the
Monte Carlo boundary-value oracle.

Each test prints one `[PASS]`/`[FAIL]` summary line with the measured
quantities (written straight to the terminal, bypassing pytest capture).
Criteria with stated wall-clock budgets assert them.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

import wienercap as wc
from wienercap.capacity import CapacityProblem, constraint_points, solve_capacity
from wienercap.domain import cusp
from wienercap.kernel import HeatKernel, euclidean_bounds
from wienercap.metric import euclidean, stp
from wienercap.pde import WalkConfig, boundary_holder, pwb_solve
from wienercap.wiener import (
    bound_check,
    divergence_verdict,
    integral_test,
    lambda_comparability,
    series_table,
    term_tail_fit,
)

from conftest import flat_rect_sample, parabolic_ball_sample, random_cloud_sample

LP_TOL = 1e-6


@pytest.fixture
def passline(capfd):
    """Emit one visible pass/fail line per criterion, then assert."""

    def emit(num, ok, detail):
        with capfd.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}",
                  flush=True)
        assert ok, f"criterion {num}: {detail}"

    return emit


def _solve(metric, sample, a, cons=None):
    if cons is None:
        cons = constraint_points(sample, metric, max(sample.resolution, 3))
    kern = wc.GaussianKernel(metric, a)
    return solve_capacity(CapacityProblem(kern, sample, cons[0], cons[1]))


# ---------------------------------------------------------------------------
# 1. LP duality certificates on randomized instances


def test_criterion_01_lp_duality(passline):
    rng = np.random.default_rng(101)
    worst_gap, worst_time = 0.0, 0.0
    for i in range(20):
        N = 1 + (i % 2)
        n_atoms = int(rng.integers(50, 401))
        s = random_cloud_sample(rng, N, n_atoms)
        t0 = time.perf_counter()
        est = _solve(euclidean(N), s, 0.25)
        dt = time.perf_counter() - t0
        worst_gap = max(worst_gap, est.rel_gap())
        worst_time = max(worst_time, dt)
    ok = worst_gap <= LP_TOL and worst_time <= 10.0
    passline(1, ok, f"20 instances (<=400 atoms): max relative duality gap "
                    f"{worst_gap:.2e} <= 1e-06, slowest solve {worst_time:.2f}s"
                    f" <= 10s")


# ---------------------------------------------------------------------------
# 2. capacity laws on randomized instances


def test_criterion_02_capacity_laws(passline):
    rng = np.random.default_rng(102)
    slack = 2.0 * LP_TOL
    viol = {"monotonicity": 0, "subadditivity": 0, "kernel-ordering": 0}
    for i in range(100):
        m = euclidean(1 + (i % 2))
        big = random_cloud_sample(rng, m.N, 48)
        sub = wc.SetSample(big.xs[:24], big.ts[:24], big.weights[:24],
                           0.5, 0.0, 3)
        cons = constraint_points(big, m, 3)
        cb, cs = _solve(m, big, 0.25, cons), _solve(m, sub, 0.25, cons)
        if cs.value > cb.value * (1 + slack) + slack:
            viol["monotonicity"] += 1
    for _ in range(100):
        m = euclidean(1)
        A = random_cloud_sample(rng, 1, 30)
        B = random_cloud_sample(rng, 1, 30)
        U = wc.SetSample(np.vstack([A.xs, B.xs]), np.concatenate([A.ts, B.ts]),
                         np.concatenate([A.weights, B.weights]), 2.0, 0.0, 3)
        cons = constraint_points(U, m, 3)
        cu = _solve(m, U, 0.25, cons)
        ca, cb = _solve(m, A, 0.25, cons), _solve(m, B, 0.25, cons)
        if cu.value > ca.value + cb.value + slack * cu.value + slack:
            viol["subadditivity"] += 1
    for _ in range(100):
        m = euclidean(1)
        s = random_cloud_sample(rng, 1, 40)
        cons = constraint_points(s, m, 3)
        lo, hi = _solve(m, s, 0.125, cons), _solve(m, s, 0.5, cons)
        if lo.value > hi.value * (1 + slack) + slack:
            viol["kernel-ordering"] += 1
    ok = all(v == 0 for v in viol.values())
    passline(2, ok, "100 instances per law, violations "
                    f"monotonicity={viol['monotonicity']} "
                    f"subadditivity={viol['subadditivity']} "
                    f"kernel-ordering={viol['kernel-ordering']} (all 0)")


# ---------------------------------------------------------------------------
# 3. flat-set law: capacity of A x {tau} proportional to |A|


def test_criterion_03_flat_set_law(passline):
    t0 = time.perf_counter()
    cases = ([( (w,), (5, 6)) for w in (0.5, 0.75, 1.0, 1.25, 1.6)]
             + [((wx, wy), (3, 4)) for wx, wy in
                ((0.5, 0.5), (0.75, 1.0), (1.0, 1.0), (1.25, 0.8), (1.5, 1.5))])
    densities, refine_shift = [], []
    for widths, (r_lo, r_hi) in cases:
        m = euclidean(len(widths))
        vals = {}
        for r in (r_lo, r_hi):
            s = flat_rect_sample(widths, 0.0, r)
            vals[r] = _solve(m, s, 0.25, constraint_points(s, m, r)).value
        densities.append(vals[r_hi] / float(np.prod(widths)))
        refine_shift.append(abs(vals[r_hi] / vals[r_lo] - 1.0))
    bracket = max(densities) / min(densities)
    shift = max(refine_shift)
    dt = time.perf_counter() - t0
    ok = bracket <= 10.0 and shift < 0.20 and dt <= 300.0
    passline(3, ok, f"10 rectangles (N=1,2): density bracket {bracket:.2f} "
                    f"<= 10, finest-refinement shift {shift:.2%} < 20%, "
                    f"{dt:.0f}s <= 300s")


# ---------------------------------------------------------------------------
# 4. comparability of capacities across Gaussian exponents


def test_criterion_04_exponent_comparability(passline):
    rng = np.random.default_rng(104)
    samples = []
    for i in range(5):
        N = 1 + (i % 2)
        samples.append((euclidean(N), random_cloud_sample(rng, N, 30 + 15 * i)))
    for w in (0.5, 1.0, 1.6):
        samples.append((euclidean(1), flat_rect_sample((w,), 0.0, 4)))
    samples.append((euclidean(2), flat_rect_sample((1.0, 1.0), 0.0, 3)))
    samples.append((euclidean(2), flat_rect_sample((0.6, 1.2), 0.0, 3)))
    for r in (0.25, 0.125, 0.0625):
        samples.append((euclidean(1), parabolic_ball_sample(1, r, 4)))
    samples.append((euclidean(2), parabolic_ball_sample(2, 0.25, 3)))
    samples.append((euclidean(2), parabolic_ball_sample(2, 0.125, 3)))
    ratios = []
    for m, s in samples:
        cons = constraint_points(s, m, max(s.resolution, 3))
        lo, hi = _solve(m, s, 0.125, cons), _solve(m, s, 0.5, cons)
        ratios.append(lo.value / hi.value)
    spread = max(ratios) / min(ratios)
    ok = len(samples) == 15 and spread <= 20.0
    passline(4, ok, f"15 compact sets: C_(1/8)/C_(1/2) ratio spread "
                    f"{spread:.2f} <= 20")


# ---------------------------------------------------------------------------
# 5. parabolic-ball capacity tracks the spatial ball volume


def test_criterion_05_ball_bound(passline):
    m = euclidean(1)
    ratios = []
    for j in range(2, 7):
        r = 2.0 ** -j
        s = parabolic_ball_sample(1, r, 4)
        est = _solve(m, s, 0.25, constraint_points(s, m, 4))
        ratios.append(est.value / (2.0 * r))
    vary = max(ratios) / min(ratios)
    ok = vary <= 3.0
    passline(5, ok, f"parabolic balls r=2^-2..2^-6: C/|B| in "
                    f"[{min(ratios):.4f}, {max(ratios):.4f}], "
                    f"max/min {vary:.4f} <= 3")


# ---------------------------------------------------------------------------
# 6. regular benchmark: divergent series, REGULAR verdict, PDE decay


def test_criterion_06_regular_benchmark(passline):
    t0 = time.perf_counter()
    dom = wc.benchmark("halfspace")
    bounds = euclidean_bounds(1, 1.0)
    tab = series_table(dom, 0.25, bounds.a0, 2 * bounds.b0, "sufficient",
                       K_max=40, H_max=40, resolution=3)
    S = tab.partial_sums()
    r10, r20 = S[19] / S[9], S[39] / S[19]
    cls = wc.classify(dom, bounds, lam=0.25, K_max=16, resolution=3)

    # boundary data vanishing near z0: the solution must relax to phi(z0)=0
    z0 = dom.z0
    ramp = lambda X, T: np.clip((np.abs(X[:, 0] - z0.x[0]) - 0.3) / 0.2,
                                0.0, 1.0)
    walk = WalkConfig(1.0, 1e-3, 2000, 11, 4.0)
    gaps, ses = [], []
    for s in (0.05, 0.02, 0.01, 0.005, 0.002):
        est = pwb_solve(dom, ramp, stp(z0.x.copy(), z0.t + s), walk)
        gaps.append(abs(est.value))
        ses.append(est.std_error)
    decreasing = all(gaps[i + 1] <= gaps[i] + 1e-12 for i in range(len(gaps) - 1))
    settled = gaps[-1] <= 3.0 * ses[-1] + 1e-12
    dt = time.perf_counter() - t0
    ok = (r10 >= 1.5 and r20 >= 1.5 and cls.verdict == "REGULAR"
          and decreasing and settled and dt <= 600.0)
    passline(6, ok, f"halfspace: S(20)/S(10)={r10:.2f}, S(40)/S(20)={r20:.2f}"
                    f" >= 1.5, verdict={cls.verdict}, probe gaps "
                    f"{gaps[0]:.3f}->{gaps[-1]:.2e} (<= 3 SE), {dt:.0f}s"
                    f" <= 600s")


# ---------------------------------------------------------------------------
# 7. irregular benchmark: geometric series tail, IRREGULAR verdict, no decay


def test_criterion_07_irregular_benchmark(passline):
    t0 = time.perf_counter()
    dom = wc.benchmark("cylinder-top")
    bounds = euclidean_bounds(1, 1.0)
    tab = series_table(dom, 0.25, bounds.a0, 2 * bounds.b0, "necessary",
                       K_max=16, H_max=40, resolution=3)
    fit = term_tail_fit(tab)
    cls = wc.classify(dom, bounds, lam=0.25, K_max=16, resolution=3)

    # indicator-style data: 0 on the top cap (where z0 sits), 1 elsewhere;
    # interior probes never see the cap, so the solution pins at 1
    indicator = lambda X, T: (T < -1e-9).astype(float)
    walk = WalkConfig(1.0, 2e-4, 2000, 7, 4.0)
    probes = [stp(dom.z0.x.copy(), dom.z0.t - s)
              for s in (0.05, 0.03, 0.02, 0.013, 0.008)]
    hol = boundary_holder(dom, indicator, probes, walk, phi0=0.0)
    gap_ok = all(p.gap >= 5.0 * p.std_error and p.gap >= 0.5 for p in hol.probes)
    dt = time.perf_counter() - t0
    ok = (fit.ratio <= 0.9 and fit.r2 >= 0.95 and cls.verdict == "IRREGULAR"
          and hol.status == "NO-DECAY" and hol.closest_gap_sigma >= 5.0
          and gap_ok and dt <= 600.0)
    passline(7, ok, f"cylinder-top: tail ratio {fit.ratio:.3f} <= 0.9, "
                    f"r2 {fit.r2:.3f} >= 0.95, verdict={cls.verdict}, "
                    f"pde={hol.status} (gap >= 5 SE at all probes), {dt:.0f}s"
                    f" <= 600s")


# ---------------------------------------------------------------------------
# 8. two ring scales are comparable after exponent sigma = log(lam)/log(mu)


def test_criterion_08_scale_comparability(passline):
    dom = wc.benchmark("halfspace")
    rep = lambda_comparability(dom, a=0.25, b=0.5, lam=0.25, mu=0.5,
                               s_values=(5, 10, 15, 20, 25, 30), resolution=3)
    finite = math.isfinite(rep.constant) and rep.constant > 0
    ok = finite and rep.stability <= 2.0 and rep.sigma == 2.0
    passline(8, ok, f"halfspace (lam, mu)=(1/4, 1/2): fitted C={rep.constant:.4f}"
                    f" finite, stability over s in 5..30 = {rep.stability:.4f}"
                    f" <= 2")


# ---------------------------------------------------------------------------
# 9. series and integral criteria never contradict on the registry


def test_criterion_09_criteria_consistency(passline):
    conflicts = []
    for name in wc.benchmark_names():
        dom = wc.benchmark(name)
        tab = series_table(dom, 0.25, 0.25, 0.5, "sufficient",
                           K_max=12, H_max=24, resolution=3)
        verdict = divergence_verdict(tab).verdict
        irep = integral_test(dom, 0.25, 0.5,
                             probes=[0.4, 0.28, 0.2, 0.14, 0.1, 0.07, 0.05,
                                     0.035])
        if irep.divergent and verdict == "CONVERGENT":
            conflicts.append(name)
    ok = not conflicts
    passline(9, ok, "6 registry benchmarks: no divergent-integral vs "
                    f"convergent-series contradiction (conflicts={conflicts})")


# ---------------------------------------------------------------------------
# 10. exponential decay bound between series depth and Wiener function


def test_criterion_10_bound_shape(passline):
    dom = wc.benchmark("cone")
    kern = wc.GaussianKernel(dom.metric, 0.25)
    offsets = [0.4 * 0.55 ** j for j in range(12)]
    probes = wc.axis_probes(dom, offsets)
    rep = bound_check(dom, kern, lam=0.25, a=0.25, b=0.5, rho=0.05,
                      probes=probes, L_max=8, resolution=3)
    W = np.asarray(rep.W_values)
    Z = np.asarray(rep.Z_values)
    corr = float(spearmanr(Z, np.log(W)).statistic)
    bound_holds = bool(np.all(W <= rep.C * np.exp(-Z / rep.C) + 1e-12))
    ok = (len(probes) == 12 and rep.spearman <= -0.9
          and math.isfinite(rep.C) and bound_holds
          and abs(corr - rep.spearman) < 1e-9)
    passline(10, ok, f"cone, 12 probes: spearman(Z, log W)={rep.spearman:.3f}"
                     f" <= -0.9, fitted C={rep.C:.3f} finite, "
                     f"W <= C exp(-Z/C) at all probes: {bound_holds}")


# ---------------------------------------------------------------------------
# 11. REGULAR verdicts are downward-closed in the operator scale beta


def test_criterion_11_beta_monotonicity(passline):
    m = euclidean(1)
    betas = (0.5, 1.0, 2.0, 4.0)
    sweeps = {}
    for label, c, theta_min in (("c=0.5", 0.5, 0.01), ("c=1", 1.0, 0.01),
                                ("c=2", 2.0, 0.01),
                                ("c=0.5/series", 0.5, 0.999)):
        dom = cusp(m, profile="loglog", c=c)
        sweeps[label] = [
            wc.classify(dom, euclidean_bounds(1, beta), lam=0.25, K_max=12,
                        H_max=24, resolution=3, cone_theta_min=theta_min).verdict
            for beta in betas
        ]
    violations = []
    for label, verdicts in sweeps.items():
        for i, vi in enumerate(verdicts):          # gamma = betas[i]
            for j in range(i + 1, len(betas)):     # beta = betas[j] > gamma
                if verdicts[j] == "REGULAR" and vi == "IRREGULAR":
                    violations.append((label, betas[i], betas[j]))
    ok = not violations
    detail = "; ".join(f"{k}: {'/'.join(v)}" for k, v in sweeps.items())
    passline(11, ok, f"loglog cusps over beta 1/2..4 downward-closed "
                     f"(violations={violations}) [{detail}]")


# ---------------------------------------------------------------------------
# 12. Monte Carlo boundary-value oracle sanity


def test_criterion_12_pde_oracle(passline):
    m = euclidean(1)
    dom = wc.halfspace_time(m)
    z = stp(np.array([0.3]), 0.25)
    walk = WalkConfig(1.0, 1e-3, 2000, 0, 4.0)

    sol_c = pwb_solve(dom, lambda X, T: np.ones(T.shape[0]), z, walk)
    exact = sol_c.value == 1.0 and sol_c.std_error == 0.0

    sol_l = pwb_solve(dom, lambda X, T: X[:, 0], z, walk)
    linear_ok = abs(sol_l.value - z.x[0]) <= 3.0 * sol_l.std_error

    # independent cross-check: solution from heat-kernel quadrature over
    # the initial slice
    phi_g = lambda X, T: np.exp(-np.sum(X ** 2, axis=-1))
    hk = HeatKernel(1, 1.0)
    ys = np.linspace(-8.0, 8.0, 20001)
    kv = hk.matrix(z.x[None, :], np.array([z.t]),
                   ys[:, None], np.zeros(ys.size))[0]
    quad = float(np.sum(kv * np.exp(-ys ** 2)) * (ys[1] - ys[0]))
    sol_g = pwb_solve(dom, phi_g, z, walk)
    quad_ok = abs(sol_g.value - quad) <= 3.0 * sol_g.std_error + 2.0 * walk.step

    half = WalkConfig(1.0, walk.step / 2.0, 2000, 1, 4.0)
    sol_h = pwb_solve(dom, phi_g, z, half)
    comb = math.hypot(sol_g.std_error, sol_h.std_error)
    halving_ok = abs(sol_g.value - sol_h.value) <= 2.0 * comb

    ok = exact and linear_ok and quad_ok and halving_ok
    passline(12, ok, f"constant exact={exact}, linear |err|="
                     f"{abs(sol_l.value - 0.3):.4f} <= 3 SE, quadrature |err|="
                     f"{abs(sol_g.value - quad):.4f} <= 3 SE + step bias, "
                     f"step-halving shift {abs(sol_g.value - sol_h.value):.4f}"
                     f" <= 2 combined SE")
