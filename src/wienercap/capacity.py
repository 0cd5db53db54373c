"""Kernel capacities of compact space-time sets by finite packing programs.

The capacity of a compact F under a kernel K is sup { mu(F) : K*mu <= 1 }.
Discretized: atoms live on a grid sample of F, the potential constraint is
enforced on a finite evaluation grid, and the resulting packing LP

    max sum(mu)  s.t.  sum_i K(z_j, zeta_i) mu_i <= 1,  mu >= 0

is solved together with its covering dual

    min sum(y)   s.t.  sum_j K(z_j, zeta_i) y_j >= 1,   y >= 0.

Both solutions are rescaled into exactly feasible points, so the reported
(value, dual_value) pair is a certified bracket and gap >= 0 up to the
rounding of two matrix-vector products.  The kernel matrix is normalized
by its largest entry before the solve; capacities of sets at depth
lambda^40 are ~1e-25 in absolute size and would otherwise drown in the
solver's absolute tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .domain import DomainSpec, SetSample, sample_set_and_measure
from .metric import MetricSpace, ball_coord_halfwidths

MAX_CONSTRAINT_GRID = 4096


class CapacityInputError(ValueError):
    pass


class CapacityConvergenceError(RuntimeError):
    """LP failed or the duality gap exceeded tolerance; carries the best
    primal/dual pair found (attribute `estimate`, may be None)."""

    def __init__(self, msg, estimate=None):
        super().__init__(msg)
        self.estimate = estimate


@dataclass
class CapacityProblem:
    kernel: object                 # GaussianKernel / HeatKernel / compatible
    support: SetSample
    cons_x: np.ndarray             # (m, N) potential evaluation points
    cons_t: np.ndarray             # (m,)
    tolerance: float = 1e-6


@dataclass
class CapacityEstimate:
    value: float
    mu: np.ndarray
    dual_value: float
    gap: float
    resolution: int
    n_atoms: int = 0
    n_constraints: int = 0

    def rel_gap(self) -> float:
        return self.gap / max(self.value, 1e-300)


def constraint_points(support: SetSample, metric: MetricSpace,
                      resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Evaluation grid for the potential constraint.

    One dyadic level finer than the support grid, covering the support
    bounding box extended forward in time by the diffusion span of the
    set, plus every support point shifted forward by one fine time step
    (the near-field constraints that actually bind).  Deterministic; the
    grid is thinned axis-by-axis if it would exceed MAX_CONSTRAINT_GRID.
    """
    if support.is_empty():
        return np.zeros((0, metric.N)), np.zeros(0)
    xs, ts = support.xs, support.ts
    x_lo, x_hi = xs.min(axis=0), xs.max(axis=0)
    t_lo, t_hi = float(ts.min()), float(ts.max())
    ext = float(np.max(x_hi - x_lo))
    T = t_hi - t_lo
    dT_fwd = max(T, (0.5 * ext) ** 2)
    if dT_fwd == 0.0:
        dT_fwd = 4.0 ** (-resolution)
    pad = ball_coord_halfwidths(metric, math.sqrt(dT_fwd))
    cells = [2 ** (resolution + 1)] * (metric.N + 1)
    while int(np.prod(cells)) > MAX_CONSTRAINT_GRID:
        cells[int(np.argmax(cells))] //= 2
    axes = []
    for i in range(metric.N):
        lo, hi = x_lo[i] - pad[i], x_hi[i] + pad[i]
        edges = np.linspace(lo, hi, cells[i] + 1)
        axes.append(0.5 * (edges[:-1] + edges[1:]))
    dt_fine = (t_hi + dT_fwd - t_lo) / cells[-1]
    t_edges = np.linspace(t_lo, t_hi + dT_fwd, cells[-1] + 1)
    t_ax = 0.5 * (t_edges[:-1] + t_edges[1:])
    mesh = np.meshgrid(*axes, t_ax, indexing="ij")
    flat = [m.reshape(-1) for m in mesh]
    gx = np.stack(flat[:-1], axis=-1)
    gt = flat[-1]
    cx = np.concatenate([gx, xs], axis=0)
    ct = np.concatenate([gt, ts + dt_fine])
    return cx, ct


def build_problem(dom: DomainSpec, target, kernel, resolution: int,
                  tolerance: float = 1e-6) -> CapacityProblem:
    support = sample_set_and_measure(dom, target, resolution)
    cx, ct = constraint_points(support, dom.metric, resolution)
    return CapacityProblem(kernel, support, cx, ct, tolerance)


def solve_capacity(p: CapacityProblem) -> CapacityEstimate:
    """Solve the packing LP and its covering dual; certify both."""
    n = p.support.n
    if n == 0:
        return CapacityEstimate(0.0, np.zeros(0), 0.0, 0.0,
                                p.support.resolution, 0, 0)
    K = p.kernel.matrix(p.cons_x, p.cons_t, p.support.xs, p.support.ts)
    col_max = K.max(axis=0) if K.size else np.zeros(n)
    if K.size == 0 or np.any(col_max <= 0.0):
        raise CapacityInputError(
            "some support atoms are invisible to every constraint point; "
            "the packing program would be unbounded")
    kappa = float(K.max())
    Kn = K / kappa
    m = K.shape[0]

    res_p = linprog(c=-np.ones(n), A_ub=Kn, b_ub=np.ones(m),
                    bounds=(0.0, None), method="highs")
    if not res_p.success:
        raise CapacityConvergenceError(f"packing LP failed: {res_p.message}")
    nu = np.maximum(res_p.x, 0.0)
    pot = Kn @ nu
    overshoot = float(pot.max(initial=0.0))
    if overshoot > 1.0:
        nu = nu / overshoot
    value = float(nu.sum() / kappa)

    # covering certificate: the packing solve's constraint marginals are a
    # dual-optimal vector; verify feasibility directly and rescale.  Fall
    # back to an explicit covering solve if the marginals are degenerate.
    y = np.maximum(-np.asarray(res_p.ineqlin.marginals), 0.0)
    slack = float((Kn.T @ y).min()) if y.any() else 0.0
    if slack < 0.5:
        res_d = linprog(c=np.ones(m), A_ub=-Kn.T, b_ub=-np.ones(n),
                        bounds=(0.0, None), method="highs")
        if not res_d.success:
            raise CapacityConvergenceError(
                f"covering LP failed: {res_d.message}",
                estimate=CapacityEstimate(value, nu / kappa, math.inf,
                                          math.inf, p.support.resolution, n, m))
        y = np.maximum(res_d.x, 0.0)
        slack = float((Kn.T @ y).min())
        if slack <= 0.0:
            raise CapacityConvergenceError("covering certificate degenerate")
    y = y / slack
    dual_value = float(y.sum() / kappa)

    est = CapacityEstimate(value=value, mu=nu / kappa,
                           dual_value=dual_value,
                           gap=max(dual_value - value, 0.0),
                           resolution=p.support.resolution,
                           n_atoms=n, n_constraints=m)
    if est.gap > p.tolerance * max(value, 1e-300) + 1e-14 * dual_value:
        raise CapacityConvergenceError(
            f"duality gap {est.gap:.3e} exceeds tolerance "
            f"({p.tolerance:.1e} relative)", estimate=est)
    return est


def potential_many(est: CapacityEstimate, p: CapacityProblem, X, T) -> np.ndarray:
    """K*mu at arbitrary space-time points."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    T = np.atleast_1d(np.asarray(T, dtype=float))
    if est.mu.size == 0:
        return np.zeros(T.shape[0])
    K = p.kernel.matrix(X, T, p.support.xs, p.support.ts)
    return K @ est.mu


@dataclass
class RefinementStep:
    resolution: int
    estimate: CapacityEstimate
    problem: CapacityProblem


def refine_capacity(dom: DomainSpec, target, kernel, levels: int = 3,
                    base_resolution: int = 3,
                    tolerance: float = 1e-6) -> list[RefinementStep]:
    """Re-solve the capacity across a ladder of grid resolutions."""
    out = []
    for j in range(levels):
        res = base_resolution + j
        prob = build_problem(dom, target, kernel, res, tolerance)
        out.append(RefinementStep(res, solve_capacity(prob), prob))
    return out
