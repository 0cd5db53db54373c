"""Kernel capacities of compact space-time sets by finite packing programs.

The capacity of a compact F under a kernel K is sup { mu(F) : K*mu <= 1 }.
Discretized: atoms live on a grid sample of F, the potential constraint is
enforced on a finite evaluation grid, and the resulting packing LP

    max sum(mu)  s.t.  sum_i K(z_j, zeta_i) mu_i <= 1,  mu >= 0

is solved together with its covering dual

    min sum(y)   s.t.  sum_j K(z_j, zeta_i) y_j >= 1,   y >= 0.

Both solutions are rescaled into exactly feasible points, so the reported
(value, dual_value) pair is a certified bracket and gap >= 0 up to the
rounding of two matrix-vector products.  The gap gate is the fixed
constant GAP_TOLERANCE = 1e-6: a bracket is accepted only if its gap is at
most 1e-6 of its value.  The LP is posed on Kn = K / kappa, kappa the
largest entry of the kernel matrix K; capacities of sets at depth
lambda^40 are ~1e-25 in absolute size and would otherwise drown in the
solver's absolute tolerances.

HiGHS runs without presolve, which on these dense LPs costs more than it
saves.  The LP's columns are equilibrated: with c the column maxima of K
and s = c / kappa those of Kn, A = K / c has unit column maxima and the
packing point is x = s * nu, because HiGHS drops matrix entries below
1e-9, and with large nu those dropped entries would let Kn nu overshoot 1
by more than the gap gate allows.  K itself is never rescaled: kappa and
c are carried in the vectors.  Only the rows handed to HiGHS are divided
by c, the pricing product A x is K (x / c), and certification reads
Kn nu and Kn^T y as (K nu) / kappa and (K^T y) / kappa, so the one
m x n array a solve holds is the kernel matrix as built.

The covering model runs unscaled (simplex_scale_strategy = 0).  Its
matrix already has unit column maxima, and HiGHS's own scaling on top of
that cost simplex iterations: 2659 per round of the benchmark's 12
random clouds, against 1624 unscaled (both with HiGHS's default dual
steepest-edge pricing).  Its primal and dual feasibility tolerances are
1e-9 instead of HiGHS's default 1e-7.  Unscaled at 1e-7, the halfspace
ring (5, 15) solved in place lands 1.02e-9 from its solve in the
dilation frame, which is the same LP up to rounding; at 1e-9 the worst
such difference over the nested tables is 1.4e-10.

The dual simplex prices by Dantzig's rule, the largest primal
infeasibility (simplex_dual_edge_weight_strategy = 0).  Dual steepest
edge, HiGHS's default, updates an edge weight for every row on every
iteration, and on these dense kernel columns that update costs more than
the iterations it saves: a round of the 12 clouds takes 1743 iterations
instead of 1624, and 0.126 s inside HiGHS instead of 0.163 s on a
2-core x86_64 host (scripts/lp_census.py, seed 13).  Devex pricing and
the primal simplex were no faster there.

HiGHS is handed the covering side, min 1.y s.t. A_W^T y >= 1/s, and the
packing point is read off its row marginals.  The covering LP has one row
per atom, so its basis is n-dimensional where the packing LP's is m ~ 4500
on a fine grid; and few grid rows bind (93 of 4496 on a 400-atom cloud),
so it runs on a working set W of them: each atom's argmax row (where its
column of A is 1), grown by the rows of the full grid that the packing
point overshoots most, until none outside W does.  Both points are certified
on the full grid: y is zero outside W, so it is feasible for the full
covering LP, and x is rescaled by its overshoot over all m rows.

One HiGHS model, built through the binding scipy ships
(scipy.optimize._highspy._core._Highs), serves every round of a solve: it
holds the n atom rows, each round appends the rows joining W as columns,
and the dual simplex restarts from the last basis instead of from
scratch, with none of linprog's per-call input checks and copies.  If a
round fails or its marginals are degenerate, one packing LP on the full
grid is solved by scipy.optimize.linprog instead.

solve_capacity solves every problem it is given; it keeps no memo.
solve_framed, the one way the package solves a sampled set, builds the
problem in the frame of z0 at the set's parabolic scale r, memoizes the
estimate on the exact bytes of the framed atoms, and multiplies it by
r^Q, the dilation law of the homogeneous kernels.  It serves
series_table (r = lam^(k/2)), refine_capacity and the capacity command,
wiener_function (r = lam^(l/2)) and classify's provenance measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import linprog
from scipy.optimize._highspy._core import (HighsModelStatus, _Highs,
                                           kHighsInf)

from .domain import DomainSpec, SetSample, sample_set_and_measure
from .metric import MetricSpace, ball_coord_halfwidths, frame

MAX_CONSTRAINT_GRID = 4096
MAX_REFINE_CELLS = 2 ** 17     # sample grid cells of a ladder's finest level
WORKING_SET_MIN_BATCH = 16     # rows added per pricing round: max(n // 4, 16)
PRICING_TOLERANCE = 1e-9       # overshoot of A x <= 1 that sends a row into W
GAP_TOLERANCE = 1e-6           # relative duality gap a certified pair may have
MAX_KERNEL_ENTRIES = 2 ** 27   # entries of a kernel matrix: 1 GiB of float64


class CapacityInputError(ValueError):
    pass


class CapacityConvergenceError(RuntimeError):
    """LP failed or the duality gap exceeded GAP_TOLERANCE; carries the best
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


@dataclass
class CapacityEstimate:
    value: float
    mu: np.ndarray
    dual_value: float
    gap: float
    resolution: int
    n_atoms: int = 0
    n_constraints: int = 0
    reused: bool = False           # a memo hit of solve_framed, rescaled
    lp_rows: int = 0               # grid rows in the LP that was solved
    lp_rounds: int = 0             # covering rounds; 0 for a memo hit
    lp_iterations: int = 0         # simplex iterations; 0 for a memo hit

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

    Row layout, which GaussianKernel.matrix relies on to build the kernel
    matrix from its space and time factors: first the grid, C spatial
    cells by T time cells with time fastest (row c T + j is spatial cell
    c at time cell j), then the n near-field rows in atom order.
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


def build_problem(dom: DomainSpec, target, kernel,
                  resolution: int) -> CapacityProblem:
    """The target's problem in place, unframed: the reference that tests
    and the benchmark's independent re-solve compare solve_framed with."""
    support = sample_set_and_measure(dom, target, resolution)
    cx, ct = constraint_points(support, dom.metric, resolution)
    return CapacityProblem(kernel, support, cx, ct)


def _covering_model(s: np.ndarray) -> _Highs:
    """HiGHS model of the covering LP with its n atom rows, 1/s <= row,
    and no columns yet; presolve and output off.

    The model is unscaled: the grid rows it is given are rows of
    A = K / c, which has unit column maxima, and rescaling them again
    only costs iterations.  Without HiGHS's scaling its feasibility
    tolerances act on these rows directly, so both are 1e-9, not the
    default 1e-7, to keep a solve within 1e-9 of the same LP solved in
    another dilation frame.  The dual simplex prices by Dantzig's rule
    (simplex_dual_edge_weight_strategy = 0): the default dual steepest
    edge updates an edge weight every iteration, which on these dense
    columns costs more than the iterations it saves."""
    h = _Highs()
    h.setOptionValue("output_flag", False)
    h.setOptionValue("presolve", "off")
    h.setOptionValue("simplex_scale_strategy", 0)
    h.setOptionValue("simplex_dual_edge_weight_strategy", 0)
    h.setOptionValue("primal_feasibility_tolerance", 1e-9)
    h.setOptionValue("dual_feasibility_tolerance", 1e-9)
    n = s.size
    h.addRows(n, 1.0 / s, np.full(n, kHighsInf), 0, np.zeros(n, np.int32),
              np.zeros(0, np.int32), np.zeros(0))
    return h


def _covering_solve(h: _Highs, rows: np.ndarray):
    """Append `rows` (grid rows of A, one covering column each: cost 1,
    bounds [0, inf)) to the covering model h and re-solve it from its last
    basis.  Returns the packing point x (the row marginals), y over every
    column added so far, and the simplex iterations of this run; x and y
    are None unless HiGHS reports the model optimal."""
    k = rows.shape[0]
    nz = rows != 0.0
    starts = np.zeros(k, np.int32)
    np.cumsum(nz.sum(axis=1)[:-1], out=starts[1:])
    index = np.nonzero(nz)[1].astype(np.int32)
    h.addCols(k, np.ones(k), np.zeros(k), np.full(k, kHighsInf), index.size,
              starts, index, rows[nz])
    h.run()
    iterations = h.getInfo().simplex_iteration_count
    if h.getModelStatus() != HighsModelStatus.kOptimal:
        return None, None, iterations
    sol = h.getSolution()
    return (np.maximum(np.asarray(sol.row_dual), 0.0),
            np.maximum(np.asarray(sol.col_value), 0.0), iterations)


def _solve_lp(K: np.ndarray, c: np.ndarray, kappa: float):
    """Fresh primal/dual pair (nu, y) for Kn = K / kappa, whose column
    maxima are s = c / kappa, the number of grid rows in the LP that
    produced it, the covering rounds solved and the simplex iterations of
    every HiGHS solve made.

    The covering LP  min 1.y  s.t.  A_W^T y >= 1/s, y >= 0  on
    A = K / c is solved on a working set W of grid rows; its row
    marginals are the packing point x = s * nu of the same rows.  Rows of
    the full grid that x overshoots join W, the most violated first and
    at most max(n // 4, WORKING_SET_MIN_BATCH) a round, until none outside
    W exceeds 1 + PRICING_TOLERANCE.  Only the rows joining W are divided
    by c; the overshoot A x is priced as K (x / c).  One HiGHS model
    serves every round: the rows joining W are appended as columns and
    the model is re-solved from the last basis.  y is zero outside W, so
    it stays feasible for the full covering LP.  If a restricted solve
    fails or its marginals are degenerate (worth less than half the
    covering value), one full-grid packing LP on K / c is solved by
    linprog instead and its marginals give y."""
    m, n = K.shape
    s = c / kappa
    h = _covering_model(s)
    # each column's first maximum, its argmax row: a column-wise argmax
    # of K itself is a strided reduction, several times slower
    W = new = np.unique((K == c).argmax(axis=0))
    batch = max(n // 4, WORKING_SET_MIN_BATCH)
    rounds = iterations = 0
    while True:
        rounds += 1
        x, yW, its = _covering_solve(h, K[new] / c)
        iterations += its
        if x is None or not x.any() or \
                float((x / s).sum()) < 0.5 * float(yW.sum()):
            break
        excess = K @ (x / c)
        excess[W] = 0.0
        violated = np.flatnonzero(excess > 1.0 + PRICING_TOLERANCE)
        if violated.size == 0:
            y = np.zeros(m)
            y[W] = yW
            return x / s, y, W.size, rounds, iterations
        new = violated[np.argsort(excess[violated])[::-1][:batch]]
        W = np.concatenate([W, new])
    res_p = linprog(c=-1.0 / s, A_ub=K / c, b_ub=np.ones(m),
                    bounds=(0.0, None), method="highs",
                    options={"presolve": False})
    if not res_p.success:
        raise CapacityConvergenceError(f"packing LP failed: {res_p.message}")
    nu = np.maximum(res_p.x, 0.0) / s
    y = np.maximum(-np.asarray(res_p.ineqlin.marginals), 0.0)
    return nu, y, m, rounds, iterations + res_p.nit


def _certify(p: CapacityProblem, K: np.ndarray, kappa: float,
             nu: np.ndarray, y: np.ndarray) -> CapacityEstimate:
    """Rescale (nu, y) into exactly feasible points for this problem's
    Kn = K / kappa: Kn nu = (K nu) / kappa and Kn^T y = (K^T y) / kappa."""
    overshoot = float((K @ nu).max(initial=0.0)) / kappa
    if overshoot > 1.0:
        nu = nu / overshoot
    value = float(nu.sum() / kappa)
    slack = float((K.T @ y).min()) / kappa if y.any() else 0.0
    dual_value = float((y / slack).sum() / kappa) if slack > 0.0 else math.inf
    return CapacityEstimate(value=value, mu=nu / kappa, dual_value=dual_value,
                            gap=max(dual_value - value, 0.0),
                            resolution=p.support.resolution,
                            n_atoms=K.shape[1], n_constraints=K.shape[0])


def _within_gap(est: CapacityEstimate) -> bool:
    return math.isfinite(est.dual_value) and (
        est.gap <= GAP_TOLERANCE * max(est.value, 1e-300)
        + 1e-14 * est.dual_value)


def solve_capacity(p: CapacityProblem) -> CapacityEstimate:
    """Solve the packing LP and its covering dual; certify both.

    Every call builds the kernel matrix and solves the LP afresh;
    solve_framed calls it once per framed problem whose exact bytes its
    memo has not met.  A bracket wider than the gap gate raises
    CapacityConvergenceError, which carries that bracket's estimate.  A
    kernel matrix of more than MAX_KERNEL_ENTRIES entries raises
    CapacityInputError before it is allocated."""
    n = p.support.n
    if n == 0:
        return CapacityEstimate(0.0, np.zeros(0), 0.0, 0.0,
                                p.support.resolution, 0, 0)
    m = p.cons_t.shape[0]
    if m * n > MAX_KERNEL_ENTRIES:
        raise CapacityInputError(
            f"the kernel matrix of {m} constraint rows x {n} atoms would "
            f"hold {m * n} entries, past MAX_KERNEL_ENTRIES = 2^27 (1 GiB)")
    K = p.kernel.matrix(p.cons_x, p.cons_t, p.support.xs, p.support.ts)
    c = K.max(axis=0) if K.size else np.zeros(n)
    if K.size == 0 or np.any(c <= 0.0):
        raise CapacityInputError(
            "some support atoms are invisible to every constraint point; "
            "the packing program would be unbounded")
    kappa = float(c.max())           # Kn = K / kappa has entries in [0, 1]
    nu, y, rows, rounds, iterations = _solve_lp(K, c, kappa)
    est = _certify(p, K, kappa, nu, y)
    est.lp_rows, est.lp_rounds, est.lp_iterations = rows, rounds, iterations
    if not _within_gap(est):
        raise CapacityConvergenceError(
            f"duality gap {est.gap:.3e} exceeds tolerance "
            f"({GAP_TOLERANCE:.1e} relative)", estimate=est)
    return est


def dilation_frame(dom: DomainSpec, support: SetSample,
                   r: float) -> tuple[np.ndarray, np.ndarray, float]:
    """The atoms of a sample in the frame of z0 at scale r, snapped to 12
    decimals: (X, T, r).

    Space goes through metric.frame: x -> delta_{1/r}(x0^-1 o x), which
    is (x - x0) / r on R^N and (u1 / r, u2 / r, u3 / r^2) on the Koranyi
    group; a table metric has no dilations and keeps x, with r = 1.  Time:
    t -> (t - t_last) / r^2, with t_last the sample's latest time: it
    moves with the set under a dilation about z0, and a set that is a
    time translate of another (a cylinder wall's rings) gets the same
    frame.  Both kernels are homogeneous, G_a(delta_r z, delta_r w) =
    r^-Q G_a(z, w), and depend on time differences only, so the set's
    capacity is r^Q times that of the framed sample.  Adding 0.0 turns
    the -0.0 of rounding into 0.0."""
    X, r = frame(dom.metric, dom.z0.x, support.xs, r)
    T = (support.ts - support.ts.max(initial=-np.inf)) / r ** 2
    return np.round(X, 12) + 0.0, np.round(T, 12) + 0.0, r


def _dilated(est: CapacityEstimate, rQ: float, **changes) -> CapacityEstimate:
    """est with its bracket and measure multiplied by rQ = r^Q, and any
    other fields set from `changes`."""
    return replace(est, value=est.value * rQ, dual_value=est.dual_value * rQ,
                   gap=est.gap * rQ, mu=est.mu * rQ, **changes)


def solve_framed(dom: DomainSpec, kernel, support: SetSample, r: float,
                 resolution: int, memo: dict) -> CapacityEstimate:
    """Capacity of a sample of a set at parabolic scale r about z0: solved
    in its frame (dilation_frame) on the constraint grid of that frame and
    multiplied by r^Q, or taken from memo, which maps the exact bytes of a
    framed sample to its certified estimate.

    A memo key is the framed problem itself (the constraint grid is a
    function of the sample), so a hit is the bracket a fresh solve would
    give, bit for bit; it is marked reused, with no LP work.  A failed
    solve raises CapacityConvergenceError with its estimate rescaled, and
    is not memoized.  A memo serves one kernel and one resolution."""
    X, T, r = dilation_frame(dom, support, r)
    rQ = r ** dom.metric.Q
    key = (X.shape, X.tobytes() + T.tobytes())
    if key in memo:
        return _dilated(memo[key], rQ, reused=True, lp_rows=0, lp_rounds=0,
                        lp_iterations=0)
    framed = replace(support, xs=X, ts=T)      # the LP reads the atoms only
    prob = CapacityProblem(kernel, framed,
                           *constraint_points(framed, dom.metric, resolution))
    try:
        est = solve_capacity(prob)
    except CapacityConvergenceError as exc:
        if exc.estimate is not None:
            exc.estimate = _dilated(exc.estimate, rQ)
        raise
    memo[key] = est
    return _dilated(est, rQ)


def potential_many(est: CapacityEstimate, support: SetSample, kernel,
                   X, T) -> np.ndarray:
    """K*mu at arbitrary space-time points, mu on the atoms of support."""
    return kernel.matrix(X, T, support.xs, support.ts) @ est.mu


@dataclass
class RefinementStep:
    resolution: int
    estimate: CapacityEstimate
    support: SetSample


def refine_capacity(dom: DomainSpec, target, kernel, r: float, levels: int = 3,
                    base_resolution: int = 3) -> list[RefinementStep]:
    """Re-solve the capacity of a target at parabolic scale r
    (solve_framed) across a ladder of grid resolutions.

    Each level doubles the sample grid per axis, to (2^res + 1)^N 2^res
    cells, each a possible atom.  A ladder whose finest level has more
    than MAX_REFINE_CELLS = 2^17 cells is rejected before any level is
    sampled.  Past that size (R at resolution 9, R^2 at 6, the Koranyi
    group at 5) the ring samples measured hold at least 70000 atoms, so
    the kernel matrix alone would take at least 40 GB."""
    if levels < 1:
        raise CapacityInputError("refinement levels must be >= 1")
    finest = base_resolution + levels - 1
    if (2 ** finest + 1) ** dom.metric.N * 2 ** finest > MAX_REFINE_CELLS:
        raise CapacityInputError(
            f"refinement to resolution {finest} samples more than "
            f"MAX_REFINE_CELLS = 2^17 grid cells")
    out = []
    for res in range(base_resolution, base_resolution + levels):
        support = sample_set_and_measure(dom, target, res)
        out.append(RefinementStep(
            res, solve_framed(dom, kernel, support, r, res, {}), support))
    return out
