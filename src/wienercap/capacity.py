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
round fails or its marginals are degenerate, the model is cleared and one
cold round on every grid row is certified and gated like any other.

A problem whose atoms and constraint rows are both unions of whole
orbits of the coordinate reflections x_i -> -x_i, under a kernel on a
Euclidean metric, is solved folded, as one LP over orbits.  With sigma a
reflection and tau its action on the rows, K[tau j, sigma i] == K[j, i]
by bytes (the reflection negates both points exactly), so averaging an
optimal measure over the group keeps it feasible and optimal: some
optimum is constant on atom orbits.  The folded matrix G keeps one
representative row j_J of each row orbit J, against all atoms, with the
columns of each atom orbit I averaged: G[J, I] = mean_{i in I} K[j_J, i].
Then sum_{j in J} K[j, i] = |J| G[J, I] for every i in I, so
mu_i = nu_I / |I| gives K mu = G nu on every row of J, and y_j = y_J / |J|
gives K^T y = G^T y on every atom of I: the bracket certified on G is the
full problem's, up to the rounding of one matrix-vector product.  Every
framed ring of a scale-comparability round folds, to about half its
atoms and rows: 2.51 M kernel entries per round become 1.29 M and 4484
simplex iterations 1848 (scripts/lp_census.py, seed 13).  A sample with
no such symmetry (a random cloud, any sample on the Koranyi group, where
the reflections are no isometries) is its own fold: every orbit a
singleton, every row kept, the same LP as before, and one lexsort of its
atoms is all the fold costs.

A FramedSolver holds one model for the solves it makes: each clears it
with clearModel(), which keeps its six options, where building one costs
about ten times as much.  The 128 solves of a scale-comparability round
build 2 models instead of 128, one per series table, and a model is freed
with its solver.  One model kept for the life of the process ran
lp-cloud's rounds 13% faster but raised their peak RSS from 121 to 140 MB:
the long-lived model kept glibc from trimming the heap.  solve_capacity
called without a model builds its own.

solve_capacity solves every problem it is given; it keeps no memo.
FramedSolver(dom, kernel, resolution).solve(support, r), the one way the
package solves a sampled set, builds the problem in the frame of z0 at the
set's parabolic scale r, memoizes the estimate on the exact bytes of the
framed atoms, and multiplies it by r^Q, the dilation law of the
homogeneous kernels.  One solver serves a series_table (r = lam^(k/2)),
a wiener_function (r = lam^(l/2)), a level of refine_capacity and the
capacity command, or classify's provenance measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import linprog  # only perfbench's tracer reads it
from scipy.optimize._highspy._core import (HighsModelStatus, _Highs,
                                           kHighsInf)

from .domain import (DomainSpec, SetSample, axis_centers,
                     sample_set_and_measure)
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
    reused: bool = False           # a FramedSolver memo hit, rescaled
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

    Every axis is laid out by domain.axis_centers, so a sample that is
    mirror-symmetric about the origin by bytes gets a grid that is too,
    and solve_capacity can fold the two.

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
    lo, hi = x_lo - pad, x_hi + pad
    axes = [axis_centers(0.5 * (lo[i] + hi[i]), 0.5 * (hi[i] - lo[i]),
                         cells[i]) for i in range(metric.N)]
    t_end = t_hi + dT_fwd
    dt_fine = (t_end - t_lo) / cells[-1]
    t_ax = axis_centers(0.5 * (t_lo + t_end), 0.5 * (t_end - t_lo),
                        cells[-1])
    G = math.prod(cells)
    cx = np.empty((G + xs.shape[0], metric.N))
    ct = np.empty(G + ts.size)
    inner = G                        # grid rows per value of axis i
    for i, ax in enumerate(axes):
        inner //= cells[i]
        cx[:G, i] = np.tile(np.repeat(ax, inner), G // (inner * cells[i]))
    ct[:G] = np.tile(t_ax, G // cells[-1])
    cx[G:] = xs
    np.add(ts, dt_fine, out=ct[G:])
    return cx, ct


def build_problem(dom: DomainSpec, target, kernel,
                  resolution: int) -> CapacityProblem:
    """The target's problem in place, unframed: the reference that tests
    and the benchmark's independent re-solve compare FramedSolver with."""
    support = sample_set_and_measure(dom, target, resolution)
    cx, ct = constraint_points(support, dom.metric, resolution)
    return CapacityProblem(kernel, support, cx, ct)


def _new_model() -> _Highs:
    """An empty HiGHS model with the covering LP's options: output and
    presolve off, unscaled, Dantzig pricing, 1e-9 feasibility.

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
    return h


def _covering_model(h: _Highs, s: np.ndarray) -> None:
    """Clear h, keeping its options, and give it the covering LP's n atom
    rows, 1/s <= row, and no columns.  A cleared model solves as a fresh
    one does, bit for bit, for about a tenth of the cost of building one."""
    h.clearModel()
    n = s.size
    h.addRows(n, 1.0 / s, np.full(n, kHighsInf), 0, np.zeros(n, np.int32),
              np.zeros(0, np.int32), np.zeros(0))


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


def _solve_lp(K: np.ndarray, c: np.ndarray, kappa: float, h: _Highs):
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
    by c; the overshoot A x is priced as K (x / c).  The HiGHS model h,
    cleared, serves every round: the rows joining W are appended as
    columns and the model is re-solved from the last basis.  y is zero
    outside W, so it stays feasible for the full covering LP.  If a
    restricted round fails or its marginals are degenerate (worth less
    than half the covering value), h is cleared again and one cold round
    runs on every grid row; its pair goes to certification as it is, and
    HiGHS failing on it raises CapacityConvergenceError."""
    m, n = K.shape
    s = c / kappa
    _covering_model(h, s)
    # each column's first maximum, its argmax row: a column-wise argmax
    # of K itself is a strided reduction, several times slower
    W = new = np.unique((K == c).argmax(axis=0))
    batch = max(n // 4, WORKING_SET_MIN_BATCH)
    rounds = iterations = 0
    while True:
        rounds += 1
        x, yW, its = _covering_solve(h, K[new] / c)
        iterations += its
        if W.size < m and (x is None or not x.any() or
                           float((x / s).sum()) < 0.5 * float(yW.sum())):
            _covering_model(h, s)    # W's rows are distinct: runs at most once
            W = new = np.arange(m)
            continue
        if x is None:
            raise CapacityConvergenceError(
                "covering LP failed on the full grid: "
                + h.modelStatusToString(h.getModelStatus()))
        excess = K @ (x / c)
        excess[W] = 0.0
        violated = np.flatnonzero(excess > 1.0 + PRICING_TOLERANCE)
        if violated.size == 0:
            y = np.zeros(m)
            y[W] = yW
            return x / s, y, W.size, rounds, iterations
        new = violated[np.argsort(excess[violated])[::-1][:batch]]
        W = np.concatenate([W, new])


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


def _mirror_orbits(X: np.ndarray, T: np.ndarray):
    """The orbits of the points (X, T) under the coordinate reflections
    x_i -> -x_i, as (order, starts): `order` lists the points orbit by
    orbit and orbit j begins at order[starts[j]]; or None if some orbit is
    not whole.

    One lexsort on (t, |x|), with the signed coordinates breaking ties,
    groups the points by (|x|, t).  A group is a whole orbit when its
    points are distinct and there are 2^z of them, z the nonzero
    coordinates of |x|: every sign pattern of |x| is then present once."""
    A = np.abs(X)
    order = np.lexsort((*X.T, *A.T, T))
    As, Xs, Ts = A[order], X[order], T[order]
    new = np.ones(T.size, bool)
    new[1:] = (As[1:] != As[:-1]).any(axis=1) | (Ts[1:] != Ts[:-1])
    if ((Xs[1:] == Xs[:-1]).all(axis=1) & ~new[1:]).any():
        return None                  # a repeated point
    starts = np.flatnonzero(new)
    size = np.diff(starts, append=T.size)
    if not np.array_equal(size, 2 ** np.count_nonzero(As[starts], axis=1)):
        return None
    return order, starts


def _mirror_fold(p: CapacityProblem):
    """(rows, atoms): the constraint rows the folded LP keeps, ascending,
    and the atom orbits as _mirror_orbits gives them.  Atoms and rows are
    folded by the coordinate reflections when both are unions of whole
    orbits and the kernel's metric is Euclidean, whose kernels are
    invariant under them by bytes; otherwise every orbit is a singleton."""
    n = p.support.n
    if p.kernel.metric.kind == "euclidean":
        atoms = _mirror_orbits(p.support.xs, p.support.ts)
        if atoms is not None:
            rows = _mirror_orbits(p.cons_x, p.cons_t)
            if rows is not None:
                return np.sort(np.minimum.reduceat(*rows)), atoms
    return np.arange(p.cons_t.size), (np.arange(n), np.arange(n))


def _within_gap(est: CapacityEstimate) -> bool:
    return math.isfinite(est.dual_value) and (
        est.gap <= GAP_TOLERANCE * max(est.value, 1e-300)
        + 1e-14 * est.dual_value)


def solve_capacity(p: CapacityProblem,
                   highs: _Highs | None = None) -> CapacityEstimate:
    """Solve the packing LP and its covering dual; certify both.

    The problem is folded by the coordinate reflections where its atoms
    and rows allow it (_mirror_fold; see the module docstring): the LP
    and its certificate run on the orbits, and mu is expanded back onto
    the atoms.  n_atoms and n_constraints count the problem's atoms and
    rows; lp_rows counts rows of the LP solved, so of the folded LP.

    Every call builds the kernel matrix and solves the LP afresh, on the
    HiGHS model `highs`, cleared, or on a model of its own when none is
    given; FramedSolver.solve calls it with its model once per framed
    problem whose exact bytes its memo has not met.  A bracket wider than
    the gap gate raises CapacityConvergenceError, which carries that
    bracket's estimate.  A problem of more than MAX_KERNEL_ENTRIES
    atom-row pairs, folded or not, or a NaN or infinite atom or
    constraint point, raises CapacityInputError before the matrix is
    built."""
    n = p.support.n
    if n == 0:
        return CapacityEstimate(0.0, np.zeros(0), 0.0, 0.0,
                                p.support.resolution, 0, 0)
    m = p.cons_t.shape[0]
    if m * n > MAX_KERNEL_ENTRIES:
        raise CapacityInputError(
            f"the kernel matrix of {m} constraint rows x {n} atoms would "
            f"hold {m * n} entries, past MAX_KERNEL_ENTRIES = 2^27 (1 GiB)")
    for name, v in (("atom coordinates", p.support.xs),
                    ("atom times", p.support.ts),
                    ("constraint point coordinates", p.cons_x),
                    ("constraint point times", p.cons_t)):
        if not np.isfinite(v).all():
            raise CapacityInputError(f"the problem's {name} are not all "
                                     "finite")
    rows, (order, starts) = _mirror_fold(p)
    size = np.diff(starts, append=n)
    K = p.kernel.matrix(p.cons_x[rows], p.cons_t[rows], p.support.xs,
                        p.support.ts)
    if starts.size < n:              # average each atom orbit's columns
        K = np.add.reduceat(K[:, order], starts, axis=1)
        K /= size
    c = K.max(axis=0) if K.size else np.zeros(n)
    if K.size == 0 or np.any(c <= 0.0):
        raise CapacityInputError(
            "some support atoms are invisible to every constraint point; "
            "the packing program would be unbounded")
    kappa = float(c.max())           # Kn = K / kappa has entries in [0, 1]
    nu, y, lp_rows, rounds, iterations = _solve_lp(
        K, c, kappa, _new_model() if highs is None else highs)
    est = _certify(p, K, kappa, nu, y)
    mu = np.empty(n)                 # mu_i = nu_I / |I| on each orbit I
    mu[order] = np.repeat(est.mu / size, size)
    est.mu = mu
    est.n_atoms, est.n_constraints = n, m
    est.lp_rows, est.lp_rounds, est.lp_iterations = lp_rows, rounds, iterations
    if not _within_gap(est):
        raise CapacityConvergenceError(
            f"duality gap {est.gap:.3e} exceeds tolerance "
            f"({GAP_TOLERANCE:.1e} relative)", estimate=est)
    return est


def dilation_frame(dom: DomainSpec, support: SetSample,
                   r: float) -> tuple[np.ndarray, np.ndarray]:
    """The atoms of a sample in the frame of z0 at scale r, snapped to 12
    decimals: (X, T).

    Space goes through metric.frame: x -> delta_{1/r}(x0^-1 o x), which
    is (x - x0) / r on R^N and (u1 / r, u2 / r, u3 / r^2) on the Koranyi
    group.  Time: t -> (t - t_last) / r^2, with t_last the sample's
    latest time: it moves with the set under a dilation about z0, and a
    set that is a time translate of another (a cylinder wall's rings)
    gets the same frame.  Both kernels are homogeneous,
    G_a(delta_r z, delta_r w) = r^-Q G_a(z, w), and depend on time
    differences only, so the set's capacity is r^Q times that of the
    framed sample.  Adding 0.0 turns the -0.0 of rounding into 0.0."""
    X = frame(dom.metric, dom.z0.x, support.xs, r)
    T = (support.ts - support.ts.max(initial=-np.inf)) / r ** 2
    return np.round(X, 12) + 0.0, np.round(T, 12) + 0.0


def _dilated(est: CapacityEstimate, rQ: float, **changes) -> CapacityEstimate:
    """est with its bracket and measure multiplied by rQ = r^Q, and any
    other fields set from `changes`."""
    return replace(est, value=est.value * rQ, dual_value=est.dual_value * rQ,
                   gap=est.gap * rQ, mu=est.mu * rQ, **changes)


class FramedSolver:
    """Capacities of samples of sets of one domain, under one kernel, at
    one resolution: each is solved in its frame (dilation_frame) on the
    constraint grid of that frame and multiplied by r^Q, or taken from the
    memo, which maps the exact bytes of a framed sample to its certified
    estimate.  The solves share one HiGHS model, freed with the solver.

    A memo key is the framed problem itself (the constraint grid is a
    function of the sample), so a hit is the bracket a fresh solve would
    give, bit for bit; it is marked reused, with no LP work.  A failed
    solve raises CapacityConvergenceError with its estimate rescaled, and
    is not memoized."""

    def __init__(self, dom: DomainSpec, kernel, resolution: int):
        self.dom, self.kernel, self.resolution = dom, kernel, resolution
        self._memo = {}
        self._highs = _new_model()

    def solve(self, support: SetSample, r: float) -> CapacityEstimate:
        """The capacity of `support`, a sample of a set at parabolic scale
        r about z0."""
        X, T = dilation_frame(self.dom, support, r)
        rQ = r ** self.dom.metric.Q
        key = (X.shape, X.tobytes() + T.tobytes())
        if key in self._memo:
            return _dilated(self._memo[key], rQ, reused=True, lp_rows=0,
                            lp_rounds=0, lp_iterations=0)
        framed = replace(support, xs=X, ts=T)  # the LP reads the atoms only
        prob = CapacityProblem(self.kernel, framed, *constraint_points(
            framed, self.dom.metric, self.resolution))
        try:
            est = solve_capacity(prob, self._highs)
        except CapacityConvergenceError as exc:
            if exc.estimate is not None:
                exc.estimate = _dilated(exc.estimate, rQ)
            raise
        self._memo[key] = est
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
    (FramedSolver.solve) across a ladder of grid resolutions.

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
            res, FramedSolver(dom, kernel, res).solve(support, r), support))
    return out
