"""Packing LP capacities: certificates, laws, and an independent oracle.

Oracle provenance (computed once with scipy.optimize.linprog on dense
matched-refinement grids for C_{1/4}([0,1] x {0}), near-field time cutoff
0.5 h^2, spatial window [-0.6, 1.6], 80 geometric time levels):

    n=20   0.6254538889215207
    n=40   0.5948086943201603
    n=80   0.5794991031283216
    n=160  0.5718443436269500

The differences halve with h, and Richardson extrapolation gives 0.56419,
matching the interior equilibrium density 2 sqrt(a/pi) = 0.5641895835...
of the infinite plate.  The n=20 oracle is recomputed live below; the rest
are frozen.
"""

import gc
import math
import time
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linprog
# the private HiGHS binding the capacity solve drives; a scipy that moves
# it fails here, at collection
from scipy.optimize._highspy._core import _Highs

import wienercap as wc
from wienercap import capacity
from wienercap.capacity import (CapacityInputError, CapacityProblem,
                                FramedSolver, build_problem,
                                constraint_points, potential_many,
                                refine_capacity, solve_capacity)
from wienercap.domain import RingSpec, RingTarget, SetSample
from wienercap.metric import ball_coord_halfwidths

from conftest import (counting_solves, flat_rect_sample,
                      parabolic_ball_sample, random_cloud_sample)

ORACLE_N20 = 0.6254538889215207
ORACLE_N40 = 0.5948086943201603
ORACLE_EXTRAPOLATED = 0.56419
PLATE_DENSITY = 2 * math.sqrt(0.25 / math.pi)   # 0.5641895835477563


def dense_oracle(n, c=0.5, a=0.25):
    """Independent dense-grid LP for C_a([0,1] x {0}); see module docstring."""
    atoms = np.linspace(0.0, 1.0, n + 1)
    h = 1.0 / n
    cx = np.linspace(-0.6, 1.6, 2 * int(2.2 / h) + 1)
    ct = np.geomspace(c * h * h, 0.7, 80)
    CX, CT = np.meshgrid(cx, ct, indexing="ij")
    CX, CT = CX.ravel(), CT.ravel()
    K = (np.exp(-a * (CX[:, None] - atoms[None, :]) ** 2 / CT[:, None])
         / (2 * np.sqrt(CT[:, None])))
    res = linprog(c=-np.ones(atoms.size), A_ub=K, b_ub=np.ones(K.shape[0]),
                  bounds=(0, None), method="highs")
    assert res.status == 0
    return -res.fun


def solve_sample(m, sample, a, constraints=None):
    if constraints is None:
        constraints = constraint_points(sample, m, max(sample.resolution, 3))
    kern = wc.GaussianKernel(m, a)
    prob = CapacityProblem(kern, sample, constraints[0], constraints[1])
    return solve_capacity(prob), prob


# ---------------------------------------------------------------------------
# certificates

def test_duality_gap_certified_on_random_instances(m1, m2):
    rng = np.random.default_rng(21)
    for i in range(6):
        m = m1 if i % 2 == 0 else m2
        s = random_cloud_sample(rng, m.N, 40 + 10 * i)
        est, _ = solve_sample(m, s, 0.25)
        assert est.gap >= 0.0
        assert est.rel_gap() <= 1e-6
        assert est.dual_value >= est.value - 1e-12 * max(est.value, 1.0)


def test_certificate_is_verifiable(m1):
    """Primal feasibility of mu re-checked against the raw kernel matrix."""
    rng = np.random.default_rng(22)
    s = random_cloud_sample(rng, 1, 50)
    est, prob = solve_sample(m1, s, 0.25)
    pot = potential_many(est, prob.support, prob.kernel, prob.cons_x,
                         prob.cons_t)
    assert float(pot.max()) <= 1.0 + 1e-9
    assert np.all(est.mu >= -1e-12)
    assert est.value == pytest.approx(float(est.mu.sum()), rel=1e-12)


def test_empty_support_has_zero_capacity(m1):
    empty = SetSample(np.zeros((0, 1)), np.zeros(0), np.zeros(0), 0.0, 0.0, 3)
    est, _ = solve_sample(m1, empty, 0.25, constraints=(np.zeros((0, 1)),
                                                        np.zeros(0)))
    assert est.value == 0.0
    assert est.gap == 0.0


def test_solver_deterministic(m1):
    rng = np.random.default_rng(23)
    s = random_cloud_sample(rng, 1, 60)
    e1, _ = solve_sample(m1, s, 0.25)
    e2, _ = solve_sample(m1, s, 0.25)
    assert e1.value == e2.value
    assert np.array_equal(e1.mu, e2.mu)


def test_invisible_atom_rejected(m1):
    """An atom later than every constraint point is unbounded mass."""
    s = SetSample(np.array([[0.0]]), np.array([5.0]), np.array([1.0]),
                  1.0, 0.0, 3)
    kern = wc.GaussianKernel(m1, 0.25)
    prob = CapacityProblem(kern, s, np.array([[0.0]]), np.array([0.0]))
    with pytest.raises(CapacityInputError):
        solve_capacity(prob)


@pytest.mark.parametrize("bad, named", [
    ("atom-x-nan", "atom coordinates"), ("atom-t-nan", "atom times"),
    ("row-x-nan", "constraint point coordinates"),
    ("row-t-nan", "constraint point times"),
    ("atom-x-inf", "atom coordinates")])
def test_non_finite_input_is_named_before_the_kernel_is_built(
        m1, monkeypatch, bad, named):
    """A NaN or infinite atom or constraint point raises CapacityInputError
    naming it, without building the kernel matrix: not linprog's NaN
    message from the fallback, nor, for an infinite atom, the invisible
    atom error."""
    s = random_cloud_sample(np.random.default_rng(34), 1, 20)
    cx, ct = constraint_points(s, m1, 3)
    xs, ts = s.xs.copy(), s.ts.copy()
    {"atom-x-nan": xs, "atom-t-nan": ts, "row-x-nan": cx,
     "row-t-nan": ct, "atom-x-inf": xs}[bad][3] = \
        math.inf if bad.endswith("inf") else math.nan
    bad_s = SetSample(xs, ts, s.weights, s.measure_estimate,
                      s.standard_error, s.resolution)

    def no_kernel(*args):
        raise AssertionError("kernel matrix built")

    monkeypatch.setattr(wc.GaussianKernel, "matrix", no_kernel)
    prob = CapacityProblem(wc.GaussianKernel(m1, 0.25), bad_s, cx, ct)
    with pytest.raises(CapacityInputError,
                       match=f"the problem's {named} are not all finite"):
        solve_capacity(prob)


def test_kernel_matrix_past_the_budget_is_never_built(m1, monkeypatch):
    """A problem of more than MAX_KERNEL_ENTRIES kernel entries raises
    CapacityInputError naming both sizes, before the kernel is called;
    one entry fewer is solved."""
    rng = np.random.default_rng(25)
    s = random_cloud_sample(rng, 1, 30)
    cx, ct = constraint_points(s, m1, 3)
    kern = wc.GaussianKernel(m1, 0.25)
    monkeypatch.setattr(capacity, "MAX_KERNEL_ENTRIES", len(ct) * 30 - 1)

    class Unbuilt:
        def matrix(self, *args):
            raise AssertionError("kernel matrix built")

    with pytest.raises(CapacityInputError,
                       match=f"{len(ct)} constraint rows x 30 atoms"):
        solve_capacity(CapacityProblem(Unbuilt(), s, cx, ct))
    monkeypatch.setattr(capacity, "MAX_KERNEL_ENTRIES", len(ct) * 30)
    assert solve_capacity(CapacityProblem(kern, s, cx, ct)).value > 0


# ---------------------------------------------------------------------------
# capacity laws (shared constraint grids make the inequalities exact)

def test_monotonicity_under_inclusion(m1, m2):
    rng = np.random.default_rng(24)
    tol = 1e-6
    for i in range(25):
        m = m1 if i % 2 == 0 else m2
        big = random_cloud_sample(rng, m.N, 48)
        half = SetSample(big.xs[:24], big.ts[:24], big.weights[:24],
                         0.5, 0.0, 3)
        cons = constraint_points(big, m, 3)
        eb, _ = solve_sample(m, big, 0.25, cons)
        ea, _ = solve_sample(m, half, 0.25, cons)
        assert ea.value <= eb.value * (1 + 2 * tol) + 2 * tol


def test_subadditivity(m1):
    rng = np.random.default_rng(25)
    tol = 1e-6
    for _ in range(25):
        A = random_cloud_sample(rng, 1, 30)
        B = random_cloud_sample(rng, 1, 30)
        U = SetSample(np.vstack([A.xs, B.xs]), np.concatenate([A.ts, B.ts]),
                      np.concatenate([A.weights, B.weights]), 2.0, 0.0, 3)
        cons = constraint_points(U, m1, 3)
        eu, _ = solve_sample(m1, U, 0.25, cons)
        ea, _ = solve_sample(m1, A, 0.25, cons)
        eb, _ = solve_sample(m1, B, 0.25, cons)
        assert eu.value <= ea.value + eb.value + 2 * tol * eu.value + 2 * tol


def test_kernel_ordering(m1):
    """a1 <= a2 pointwise dominates, so C_(a1) <= C_(a2)."""
    rng = np.random.default_rng(26)
    tol = 1e-6
    for _ in range(25):
        s = random_cloud_sample(rng, 1, 40)
        cons = constraint_points(s, m1, 3)
        e1, _ = solve_sample(m1, s, 0.125, cons)
        e2, _ = solve_sample(m1, s, 0.5, cons)
        assert e1.value <= e2.value * (1 + 2 * tol) + 2 * tol


# ---------------------------------------------------------------------------
# oracle comparison and scaling laws

def test_flat_segment_against_dense_oracle(m1):
    live = dense_oracle(20)
    assert live == pytest.approx(ORACLE_N20, rel=1e-6)
    s = flat_rect_sample((1.0,), 0.0, 5)
    est, _ = solve_sample(m1, s, 0.25, constraints=constraint_points(s, m1, 5))
    # two independent discretizations of the same continuum value; both
    # are first-order biased above the extrapolated limit
    assert est.value / ORACLE_N40 == pytest.approx(1.0, abs=0.15)
    assert est.value >= ORACLE_EXTRAPOLATED * 0.9
    assert abs(ORACLE_EXTRAPOLATED - PLATE_DENSITY) / PLATE_DENSITY < 5e-3


def test_flat_capacity_scales_linearly_in_measure(m1):
    vals = {}
    for w in (0.5, 1.0, 2.0):
        s = flat_rect_sample((w,), 0.0, 5)
        est, _ = solve_sample(m1, s, 0.25,
                              constraints=constraint_points(s, m1, 5))
        vals[w] = est.value / w
    ratios = list(vals.values())
    assert max(ratios) / min(ratios) == pytest.approx(1.0, abs=1e-6)


def test_parabolic_ball_capacity_scaling(m1):
    ratios = []
    for j in (2, 4, 6):
        r = 2.0 ** -j
        s = parabolic_ball_sample(1, r, 4)
        est, _ = solve_sample(m1, s, 0.25,
                              constraints=constraint_points(s, m1, 4))
        ratios.append(est.value / (2 * r))
    assert max(ratios) / min(ratios) <= 3.0
    # parabolic covariance of the scheme makes the ratio exactly constant
    assert max(ratios) / min(ratios) == pytest.approx(1.0, rel=1e-9)


def heat_ball_sample(N, r, res):
    """Midpoints inside the heat ball E(0; r) = {w : Gamma(-w) > r^-N} of
    the heat kernel Gamma of Laplace - d/dt on R^N, z0 = (0, 0), among
    (2^res + 1)^N x 2^res cells over its box |x| <= r sqrt(N / (2 pi e)),
    0 < -s < r^2 / (4 pi)."""
    nx, nt = 2 ** res + 1, 2 ** res
    hw, depth = r * math.sqrt(N / (2 * math.pi * math.e)), r * r / (4 * math.pi)
    ax = -hw + (np.arange(nx) + 0.5) * (2 * hw / nx)
    mesh = np.meshgrid(*[ax] * N, (np.arange(nt) + 0.5) * (depth / nt),
                       indexing="ij")
    X = np.stack([g.reshape(-1) for g in mesh[:-1]], axis=-1)
    tau = mesh[-1].reshape(-1)
    gamma = np.exp(-(X ** 2).sum(axis=1) / (4 * tau)) \
        / (4 * math.pi * tau) ** (N / 2)
    keep = gamma > r ** -N
    cell = (2 * hw / nx) ** N * depth / nt
    return SetSample(X[keep], -tau[keep], np.full(int(keep.sum()), cell),
                     cell * int(keep.sum()), 0.0, res)


def heat_ball_capacity(N, r, res):
    s = heat_ball_sample(N, r, res)
    prob = CapacityProblem(wc.HeatKernel(N, 1.0), s, *constraint_points(
        s, wc.euclidean(N), res))
    return solve_capacity(prob)


@pytest.mark.parametrize("N, resolutions, band",
                         [(1, (3, 4, 5), 0.05), (2, (2, 3), 0.16)])
def test_heat_ball_capacity_is_r_to_the_N(N, resolutions, band,
                                          monkeypatch):
    """The heat ball E(z0; r) has thermal capacity exactly r^N (Watson
    1978).  Sampled from inside, its capacity under HeatKernel(N, 1)
    lies within `band` below r^N, 1 - cap / r^N falling with resolution
    (0.041, 0.025, 0.015 on N = 1; 0.143, 0.123 on N = 2); r = 1/2 gives
    r = 1's value times 2^-N, and the full-grid fallback the same value."""
    caps = []
    for res in resolutions:
        cap = heat_ball_capacity(N, 1.0, res).value
        assert 0.0 < 1.0 - cap < band
        assert heat_ball_capacity(N, 0.5, res).value / 0.5 ** N == \
            pytest.approx(cap, rel=1e-9)
        caps.append(cap)
    assert caps == sorted(caps) and len(set(caps)) == len(caps)
    solves = forced_fallback(monkeypatch)
    forced = [heat_ball_capacity(N, 1.0, res) for res in resolutions]
    assert [e.lp_rows for e in forced] == [e.n_constraints for e in forced]
    assert len(solves) == len(resolutions)
    assert [e.value for e in forced] == pytest.approx(caps, rel=1e-9)


def test_refinement_ladder(m1):
    dom = wc.benchmark("halfspace", m1)
    kern = wc.GaussianKernel(m1, 0.5)
    steps = refine_capacity(dom, RingTarget(RingSpec(0.25, 1, 1)), kern,
                            0.25 ** 0.5, levels=3, base_resolution=2)
    assert [s.resolution for s in steps] == [2, 3, 4]
    vals = [s.estimate.value for s in steps]
    assert all(v > 0 for v in vals)
    # successive refinements settle: last change smaller than first
    assert abs(vals[2] - vals[1]) <= abs(vals[1] - vals[0]) + 1e-12


def test_refinement_past_the_cell_bound_samples_nothing(m1, monkeypatch):
    """A ladder whose finest level has more than MAX_REFINE_CELLS sample
    cells is rejected before any level is sampled; the finest level of
    R at resolution 9 has 513 x 512 cells."""
    def unsampled(*args):
        raise AssertionError("a level was sampled")

    monkeypatch.setattr(capacity, "sample_set_and_measure", unsampled)
    dom = wc.benchmark("halfspace", m1)
    kern = wc.GaussianKernel(m1, 0.5)
    target = RingTarget(RingSpec(0.25, 1, 1))
    assert 513 * 512 > capacity.MAX_REFINE_CELLS > 257 * 256
    for levels, base in ((1, 9), (2, 8), (10 ** 6, 2)):
        with pytest.raises(CapacityInputError, match="MAX_REFINE_CELLS"):
            refine_capacity(dom, target, kern, 0.5, levels, base)


def test_build_problem_samples_a_ring_once(m1, monkeypatch):
    """The support is sampled on its own grid only: no coarser pass."""
    calls = []
    real = wc.domain._ring_bands

    def counting(*args):
        calls.append((list(args[3]),) + args[5:])
        return real(*args)

    monkeypatch.setattr(wc.domain, "_ring_bands", counting)
    prob = build_problem(wc.benchmark("halfspace", m1),
                         RingTarget(RingSpec(0.25, 1, 1)),
                         wc.GaussianKernel(m1, 0.5), 3)
    assert calls == [([1], 9, 8)]
    assert prob.support.n > 0 and math.isnan(prob.support.standard_error)


def test_constraint_grid_covers_forward_time(m1):
    rng = np.random.default_rng(27)
    s = random_cloud_sample(rng, 1, 30)
    cx, ct = constraint_points(s, m1, 3)
    assert ct.max() > s.ts.max()
    assert cx.shape[0] == ct.shape[0]
    assert cx.shape[0] <= 4096 + s.n


def test_parabolic_dilation_scales_capacity_by_r_to_the_Q(m1, m2, heis):
    """cap(delta_r F) = r^Q cap(F) for delta_r(x, t) = (r x, r^2 t) on R^N
    and ((r x1, r x2, r^2 x3), r^2 t) on the Heisenberg group: G_a scales
    by r^(-Q), so with the constraint grid dilated too the two LPs differ
    by a constant factor and their certified brackets must meet."""
    rng = np.random.default_rng(31)
    for m, x_scale in ((m1, [1.0]), (m2, [1.0, 1.0]),
                       (heis, [1.0, 1.0, 2.0])):
        s = random_cloud_sample(rng, m.N, 40)
        cx, ct = constraint_points(s, m, 3)
        est, _ = solve_sample(m, s, 0.25, (cx, ct))
        for r in (0.3, 1.7, 5.0):
            xr = r ** np.asarray(x_scale)
            sd = SetSample(s.xs * xr, s.ts * r * r, s.weights, s.measure_estimate,
                           s.standard_error, s.resolution)
            ed, _ = solve_sample(m, sd, 0.25, (cx * xr, ct * r * r))
            scale = r ** m.Q
            assert ed.value / scale == pytest.approx(est.value, rel=2e-6)
            # the two certified brackets meet
            assert ed.value / scale <= est.dual_value * (1 + 1e-9)
            assert est.value <= ed.dual_value / scale * (1 + 1e-9)


LP_CLOUD_SIZES = (50, 75, 100, 130, 160, 190, 220, 260, 300, 340, 370, 400)


def lp_clouds(draw):
    """The twelve random clouds of the lp-cloud benchmark workload drawn
    from default_rng(draw): cloud i has LP_CLOUD_SIZES[i] atoms on
    euclidean(1), euclidean(2) and the Koranyi group in turn, uniform in
    the coordinate box of the radius-0.5 ball and in time on [-0.25, 0],
    at resolution 3."""
    rng = np.random.default_rng(draw)
    metrics = (wc.euclidean(1), wc.euclidean(2), wc.heisenberg_koranyi())
    clouds = []
    for i, n in enumerate(LP_CLOUD_SIZES):
        m = metrics[i % 3]
        X = rng.uniform(-1.0, 1.0, size=(n, m.N)) * ball_coord_halfwidths(m, 0.5)
        T = rng.uniform(-0.25, 0.0, size=n)
        clouds.append((m, SetSample(X, T, np.full(n, 1.0 / n), 1.0, 0.0, 3)))
    return clouds


@pytest.mark.parametrize("draw", [0, 1, 5])
def test_every_lp_cloud_certifies_without_the_fallback(draw, monkeypatch):
    """Every cloud of three lp-cloud draws (36 LPs of 50 to 400 atoms
    against up to 4496 grid rows) certifies a bracket within GAP_TOLERANCE
    on the warm-started covering model alone: each solve fills its model
    once, never again for a full-grid round."""
    solves = counting_solves(monkeypatch)
    fills = []
    real = capacity._covering_model

    def covering_model(h, s):
        fills.append(s.size)
        return real(h, s)

    monkeypatch.setattr(capacity, "_covering_model", covering_model)
    for m, s in lp_clouds(draw):
        est, _ = solve_sample(m, s, 0.25)
        assert 0.0 <= est.rel_gap() <= capacity.GAP_TOLERANCE
        assert est.lp_rows < est.n_constraints
    assert fills == [n for _, n in solves] == list(LP_CLOUD_SIZES)


def shared_model_problems():
    """Small clouds and a ring on R, R^2 and the Koranyi group, then the
    twelve lp-cloud clouds of draw 0."""
    rng = np.random.default_rng(35)
    probs = []
    for m in (wc.euclidean(1), wc.euclidean(2), wc.heisenberg_koranyi()):
        s = random_cloud_sample(rng, m.N, 20)
        probs.append(CapacityProblem(wc.GaussianKernel(m, 0.25), s,
                                     *constraint_points(s, m, 3)))
    m1 = wc.euclidean(1)
    probs.append(build_problem(wc.benchmark("halfspace", m1),
                               RingTarget(RingSpec(0.25, 3, 2)),
                               wc.GaussianKernel(m1, 0.5), 3))
    for m, s in lp_clouds(0):
        probs.append(CapacityProblem(wc.GaussianKernel(m, 0.25), s,
                                     *constraint_points(s, m, 3)))
    return probs


def test_a_shared_model_solves_as_fresh_models_do(monkeypatch):
    """A sequence of solves on one FramedSolver's model, the second
    forced into the full-grid fallback, gives every estimate a solve on a
    fresh model gives, bit for bit, and builds one HiGHS model, which is
    freed with its solver."""
    probs = shared_model_problems()
    force = {"fallback": None}
    real_covering = capacity._covering_solve

    def covering(h, rows):
        x, y, iterations = real_covering(h, rows)
        if force["fallback"] is not None:
            force["fallback"] = None
            x = np.zeros_like(x)
        return x, y, iterations

    built = []
    real_new_model = capacity._new_model

    def counting_new_model():
        built.append(real_new_model())
        return built[-1]

    monkeypatch.setattr(capacity, "_covering_solve", covering)
    monkeypatch.setattr(capacity, "_new_model", counting_new_model)

    def solve_all(highs):
        out = []
        for i, p in enumerate(probs):
            force["fallback"] = True if i == 1 else None
            out.append(solve_capacity(p, highs))
        # only the forced solve ran its LP on every grid row
        assert [e.lp_rows == p.cons_t.shape[0]
                for e, p in zip(out, probs)] == [i == 1 for i in
                                                 range(len(probs))]
        return out

    fresh = solve_all(None)
    assert len(built) == len(probs)
    built.clear()
    m1 = wc.euclidean(1)
    solver = FramedSolver(wc.benchmark("halfspace", m1),
                          wc.GaussianKernel(m1, 0.5), 3)
    shared = solve_all(solver._highs)
    assert built == [solver._highs]
    for a, b in zip(fresh, shared):
        assert (a.value, a.dual_value, a.gap, a.lp_rows, a.lp_rounds,
                a.lp_iterations) == (b.value, b.dual_value, b.gap, b.lp_rows,
                                     b.lp_rounds, b.lp_iterations)
        assert a.mu.tobytes() == b.mu.tobytes()
    model = weakref.ref(built.pop())
    del solver
    gc.collect()
    assert model() is None


def gap_gate_cloud():
    """The 8th lp-cloud cloud of draw 5 (Euclidean N=2, 260 atoms).
    Against its resolution-3 constraint grid the normalized matrix has
    33,276 nonzeros below HiGHS's dropping threshold of 1e-9; solved
    without column scaling, the primal overshoots K mu <= 1 by ~2e-6 and
    the certified gap came out at 1.98e-6 relative."""
    return lp_clouds(5)[7]


def test_gap_gate_met_on_cloud_with_tiny_kernel_entries():
    m, s = gap_gate_cloud()
    assert (m.kind, m.N, s.n) == ("euclidean", 2, 260)
    est, prob = solve_sample(m, s, 0.25)
    assert 0.0 <= est.rel_gap() <= 1e-6
    pot = potential_many(est, prob.support, prob.kernel, prob.cons_x,
                         prob.cons_t)
    assert float(pot.max()) <= 1.0 + 1e-9


def forced_fallback(monkeypatch):
    """Zero the packing marginals of each solve's first covering round, so
    that every solve takes the full-grid round.  Returns, per solve, the
    shape of the grid rows each of its covering rounds appended."""
    solves = []
    real_solve, real_covering = capacity._solve_lp, capacity._covering_solve

    def solve(K, c, kappa, h):
        solves.append([])
        return real_solve(K, c, kappa, h)

    def zero_first_marginals(h, rows):
        x, y, iterations = real_covering(h, rows)
        solves[-1].append(rows.shape)
        if len(solves[-1]) == 1:
            x = np.zeros_like(x)
        return x, y, iterations

    monkeypatch.setattr(capacity, "_solve_lp", solve)
    monkeypatch.setattr(capacity, "_covering_solve", zero_first_marginals)
    return solves


def test_packing_fallback_yields_certified_bracket(m1, monkeypatch):
    """Degenerate marginals of the restricted covering LP send the solve to
    one cold covering round on the full grid, which must still produce a
    certified bracket."""
    s = random_cloud_sample(np.random.default_rng(32), 1, 50)
    ref, _ = solve_sample(m1, s, 0.25)

    solves = forced_fallback(monkeypatch)
    est, prob = solve_sample(m1, s, 0.25)
    m = prob.cons_t.shape[0]
    [[restricted, full]] = solves
    assert restricted[1] == s.n and restricted[0] < m
    assert full == (m, s.n)
    assert est.lp_rows == m and est.lp_rounds == 2
    assert est.dual_value >= est.value > 0.0
    assert est.rel_gap() <= 1e-6
    assert est.value == pytest.approx(ref.value, rel=1e-6)


@pytest.mark.parametrize("draw, index, metric, n", [
    (1, 10, "euclidean", 370), (2, 8, "heisenberg-koranyi", 300),
    (8, 11, "heisenberg-koranyi", 400)])
def test_full_grid_fallback_bracket_is_tight(draw, index, metric, n,
                                             monkeypatch):
    """The full-grid round runs on the unscaled covering model at 1e-9
    feasibility, so its bracket is as tight as a normal solve's: within
    1e-8 on three lp-cloud clouds where a scaled packing LP at HiGHS's
    default 1e-7 tolerances left 3.4e-8 to 1.2e-7."""
    m, s = lp_clouds(draw)[index]
    assert (m.kind, s.n) == (metric, n)
    solves = forced_fallback(monkeypatch)
    est, prob = solve_sample(m, s, 0.25)
    assert 0.0 <= est.rel_gap() <= 1e-8
    assert [shape for _, shape in solves] == [(prob.cons_t.shape[0], n)]


def warm_and_cold(prob, monkeypatch, method="highs"):
    """Solve prob through the warm-started covering model, recording the
    column maxima s = c / kappa of the normalized matrix and the grid rows
    appended in each round, and solve the covering LP of the final working
    set cold by linprog's `method`."""
    seen, rows = {}, []
    real_solve, real_covering = capacity._solve_lp, capacity._covering_solve

    def solve(K, c, kappa, h):
        seen["s"] = c / kappa
        seen["out"] = real_solve(K, c, kappa, h)
        return seen["out"]

    def covering(h, new):
        assert isinstance(h, _Highs)
        rows.append(new.copy())
        return real_covering(h, new)

    monkeypatch.setattr(capacity, "_solve_lp", solve)
    monkeypatch.setattr(capacity, "_covering_solve", covering)
    est = solve_capacity(prob)
    s = seen["s"]
    AW = np.concatenate(rows)
    cold = linprog(c=np.ones(AW.shape[0]), A_ub=-AW.T, b_ub=-1.0 / s,
                   bounds=(0.0, None), method=method,
                   options={"presolve": False})
    assert cold.success
    return est, seen["out"], s, cold


@pytest.mark.parametrize("case", ["heisenberg-cloud", "euclidean2-cloud",
                                  "ring", "deep-ring"])
def test_warm_covering_model_matches_cold_linprog(case, m1, monkeypatch):
    """The covering LP re-solved round by round from the last basis, by
    the unscaled model at 1e-9 feasibility, agrees with the same LP solved
    cold by linprog with its default scaling and tolerances: the covering
    value to 1e-9 relative and the packing marginals to 1e-8.

    The deep ring (k = 80, solved in place) has a raw capacity near 2e-24
    and working-set entries down to 1e-61.  On it the scaled dual simplex
    stops 1.1e-8 above the optimum, with a covering row short by 1.7e-8,
    so its cold reference is the interior-point method, with crossover to
    a basis."""
    if case in ("ring", "deep-ring"):
        k = 1 if case == "ring" else 80
        prob = build_problem(wc.benchmark("halfspace", m1),
                             RingTarget(RingSpec(0.25, k, 1)),
                             wc.GaussianKernel(m1, 0.5), 3)
    else:
        m = wc.heisenberg_koranyi() if case == "heisenberg-cloud" \
            else wc.euclidean(2)
        rng = np.random.default_rng(41)
        n = 400
        X = rng.uniform(-1.0, 1.0, size=(n, m.N)) * ball_coord_halfwidths(m, 0.5)
        T = rng.uniform(-0.25, 0.0, size=n)
        s = SetSample(X, T, np.full(n, 1.0 / n), 1.0, 0.0, 3)
        cx, ct = constraint_points(s, m, 3)
        prob = CapacityProblem(wc.GaussianKernel(m, 0.25), s, cx, ct)
    est, (nu, y, rows, rounds, iterations), s, cold = warm_and_cold(
        prob, monkeypatch, "highs-ipm" if case == "deep-ring" else "highs")
    # at least one round restarts from an earlier basis
    assert rounds >= 2 and rows < prob.cons_t.shape[0] and iterations > 0
    assert est.lp_iterations == iterations and est.lp_rounds == rounds
    assert float(y.sum()) == pytest.approx(cold.fun, rel=1e-9)
    np.testing.assert_allclose(s * nu, -cold.ineqlin.marginals, rtol=0.0,
                               atol=1e-8)
    if case == "deep-ring":
        assert est.value < 1e-20


@pytest.mark.parametrize("N, resolution", [(1, 5), (2, 3), ("heis", 3)],
                         ids=["euclidean1", "euclidean2", "heisenberg"])
def test_column_generation_matches_full_grid_lp(N, resolution):
    """The covering LP on a generated working set of rows certifies the
    same capacity as the packing LP on the full grid, and its packing
    point is feasible on every grid point."""
    m = wc.heisenberg_koranyi() if N == "heis" else wc.euclidean(N)
    rng = np.random.default_rng(40 + m.N)
    n = 120
    X = rng.uniform(-1.0, 1.0, size=(n, m.N)) * ball_coord_halfwidths(m, 0.5)
    T = rng.uniform(-0.25, 0.0, size=n)
    s = SetSample(X, T, np.full(n, 1.0 / n), 1.0, 0.0, resolution)
    est, prob = solve_sample(m, s, 0.25)
    rows = prob.cons_t.shape[0]
    assert rows >= 4000
    assert 0.0 <= est.rel_gap() <= 1e-6
    pot = potential_many(est, prob.support, prob.kernel, prob.cons_x,
                         prob.cons_t)
    assert float(pot.max()) <= 1.0 + 1e-9
    K = prob.kernel.matrix(prob.cons_x, prob.cons_t, s.xs, s.ts)
    kappa = float(K.max())
    res = linprog(c=-np.ones(n), A_ub=K / kappa, b_ub=np.ones(rows),
                  bounds=(0, None), method="highs")
    assert res.status == 0
    assert est.value == pytest.approx(-res.fun / kappa, rel=1e-6)
    assert est.lp_rows < rows / 2 and est.lp_rounds >= 1


# ---------------------------------------------------------------------------
# the mirror fold

def framed_problems(monkeypatch):
    """Every framed problem solve_capacity is handed by a
    scale-comparability round (lambda_comparability on the time halfspace
    at t0 = 3/64, resolution 3) and by classify on the six registry
    domains (K-max 16, resolution 3), as the benchmark runs them."""
    probs = []
    real = capacity.solve_capacity

    def recording(p, highs=None):
        probs.append(p)
        return real(p, highs)

    monkeypatch.setattr(capacity, "solve_capacity", recording)
    m1 = wc.euclidean(1)
    dom = wc.halfspace_time(m1, t0=3 / 64, t_top=3 / 64 + 1.0)
    wc.lambda_comparability(dom, 0.25, 0.5, 0.25, 0.5, (2, 3, 4, 5),
                            resolution=3)
    scale = len(probs)
    bounds = wc.euclidean_bounds(1, 1.0)
    for name in wc.benchmark_names():
        wc.classify(wc.benchmark(name, m1), bounds, K_max=16, resolution=3)
    monkeypatch.undo()
    return probs, scale


def unfolded(p, monkeypatch):
    """solve_capacity on p with every orbit a singleton: the full LP,
    certified on the full kernel matrix."""
    n = p.support.n
    with monkeypatch.context() as mp:
        mp.setattr(capacity, "_mirror_fold", lambda q: (
            np.arange(q.cons_t.size), (np.arange(n), np.arange(n))))
        return solve_capacity(p)


def test_folded_brackets_meet_the_full_problems(monkeypatch):
    """Every ring the benchmark's scale-comparability and registry-suite
    workloads solve is mirror-invariant by bytes in its frame, so each is
    solved folded, on half its rows or fewer; the folded bracket agrees
    with the full problem's, certified on the full kernel matrix, within
    the gap gate, and the expanded measure is feasible on every row."""
    probs, scale = framed_problems(monkeypatch)
    assert (scale, len(probs) - scale) == (128, 54)
    for p in probs:
        rows, (order, starts) = capacity._mirror_fold(p)
        assert 2 * rows.size <= p.cons_t.size + p.support.n
        assert starts.size < p.support.n or not p.support.xs.any()
        est, full = solve_capacity(p), unfolded(p, monkeypatch)
        assert (est.n_atoms, est.n_constraints) == (full.n_atoms,
                                                    full.n_constraints)
        assert est.lp_rows < full.n_constraints
        assert est.rel_gap() <= capacity.GAP_TOLERANCE
        assert est.value == pytest.approx(full.value,
                                          rel=capacity.GAP_TOLERANCE)
        assert float(est.mu.sum()) == pytest.approx(est.value, rel=1e-12)
        pot = potential_many(est, p.support, p.kernel, p.cons_x, p.cons_t)
        assert float(pot.max()) <= 1.0 + 1e-9


def mirrored_problem(N):
    """A grid sample symmetric about the origin by bytes, a few times on
    each of three levels, and its constraint grid."""
    ax = wc.domain.axis_centers(0.0, 0.3, 5)
    X = np.stack([m.ravel() for m in np.meshgrid(*[ax] * N, indexing="ij")],
                 axis=-1)
    X = np.tile(X, (3, 1))
    T = np.repeat([-0.09, -0.05, -0.02], X.shape[0] // 3)
    s = SetSample(X, T, np.ones(T.size), 1.0, 0.0, 3)
    m = wc.euclidean(N)
    return CapacityProblem(wc.GaussianKernel(m, 0.25), s,
                           *constraint_points(s, m, 3))


@pytest.mark.parametrize("N", [1, 2])
def test_mirrored_kernel_entries_are_equal_by_bytes(N):
    """On a mirrored grid on R and R^2, every coordinate reflection maps
    the atoms and the constraint rows onto themselves, by permutations
    sigma and tau, and K[tau j, sigma i] == K[j, i] by bytes."""
    p = mirrored_problem(N)
    K = p.kernel.matrix(p.cons_x, p.cons_t, p.support.xs, p.support.ts)

    def image(X, T, flip):
        """The permutation taking each point to its reflection."""
        Y = X * flip
        here, there = np.lexsort((*X.T, T)), np.lexsort((*Y.T, T))
        assert np.array_equal(X[here], Y[there])
        perm = np.empty(T.size, np.intp)
        perm[there] = here
        return perm

    for k in range(N):
        flip = np.ones(N)
        flip[k] = -1.0
        sigma = image(p.support.xs, p.support.ts, flip)
        tau = image(p.cons_x, p.cons_t, flip)
        assert not np.array_equal(sigma, np.arange(sigma.size))
        assert K[tau][:, sigma].tobytes() == K.tobytes()
    # 3^N orbits of atoms per level; the grid rows fold 2^N to one
    rows, (order, starts) = capacity._mirror_fold(p)
    assert starts.size == 3 ** N * 3
    grid = p.cons_t.size - p.support.n
    assert rows.size == grid // 2 ** N + starts.size


def test_asymmetric_samples_are_their_own_fold():
    """lp-cloud's clouds, an invariant sample with one atom moved by one
    ulp, and any problem on the Koranyi group get singleton orbits and
    keep every constraint row."""
    cases = [CapacityProblem(wc.GaussianKernel(m, 0.25), s,
                             *constraint_points(s, m, 3))
             for m, s in lp_clouds(0)]
    p = mirrored_problem(2)
    assert capacity._mirror_orbits(p.support.xs, p.support.ts) is not None
    xs = p.support.xs.copy()
    xs[7, 1] = np.nextafter(xs[7, 1], 1.0)
    moved = replace(p.support, xs=xs)
    cases.append(CapacityProblem(p.kernel, moved,
                                 *constraint_points(moved, p.kernel.metric,
                                                    3)))
    heis = wc.heisenberg_koranyi()
    cases.append(replace(p, kernel=wc.GaussianKernel(heis, 0.25),
                         support=replace(p.support,
                                         xs=np.pad(p.support.xs,
                                                   ((0, 0), (0, 1)))),
                         cons_x=np.pad(p.cons_x, ((0, 0), (0, 1)))))
    for q in cases:
        n, m = q.support.n, q.cons_t.size
        rows, (order, starts) = capacity._mirror_fold(q)
        assert np.array_equal(rows, np.arange(m))
        assert np.array_equal(order, np.arange(n))
        assert np.array_equal(starts, np.arange(n))
    assert capacity._mirror_orbits(moved.xs, moved.ts) is None


# ---------------------------------------------------------------------------
# the gap gate's failure path

@pytest.fixture
def halved_packing(monkeypatch):
    """Plant a fault: every fresh LP solve returns half its packing point,
    so the certified bracket has a relative gap near 1."""
    real = capacity._solve_lp

    def halved(K, c, kappa, h):
        nu, *rest = real(K, c, kappa, h)
        return (0.5 * nu, *rest)

    monkeypatch.setattr(capacity, "_solve_lp", halved)


def test_gap_gate_rejects_a_planted_wide_bracket(m1, halved_packing):
    s = random_cloud_sample(np.random.default_rng(33), 1, 50)
    prob = CapacityProblem(wc.GaussianKernel(m1, 0.25), s,
                           *constraint_points(s, m1, 3))
    with pytest.raises(capacity.CapacityConvergenceError,
                       match=r"exceeds tolerance \(1\.0e-06 relative\)") as exc:
        solve_capacity(prob)
    est = exc.value.estimate
    assert est is not None and est.rel_gap() > capacity.GAP_TOLERANCE


def test_failed_ring_solves_are_not_memoized(m1, monkeypatch, halved_packing):
    """A ring whose solve fails is not memoized: a later ring with the same
    framed problem is solved again and fails again, and each failure
    carries its estimate rescaled by r^Q to its own ring."""
    calls = counting_solves(monkeypatch)
    dom = wc.halfspace_time(m1, t0=0.0, t_top=1.0)
    lam = 0.25
    tab = wc.series_table(dom, lam, 0.25, 0.5, "nested", K_max=3, H_max=4,
                          resolution=3)
    assert tab.partial and not any(e.reused for e in tab.capacities.values())
    assert set(tab.failed) == set(tab.capacities)
    assert len(calls) == len(tab.failed)
    framed = {}
    for k, h in tab.failed:
        support = wc.sample_set_and_measure(
            dom, RingTarget(RingSpec(lam, k, h, "nested")), 3)
        r = lam ** (k / 2.0)
        X, T = capacity.dilation_frame(dom, support, r)
        framed.setdefault(X.tobytes() + T.tobytes(), []).append((k, h, r))
    repeats = [rings for rings in framed.values() if len(rings) > 1]
    assert repeats
    for rings in repeats:
        scaled = [tab.capacities[(k, h)].value / r ** m1.Q
                  for k, h, r in rings]
        assert scaled == pytest.approx([scaled[0]] * len(scaled), rel=1e-12)


def test_series_table_records_failed_rings_as_partial(m1, halved_packing):
    tab = wc.series_table(wc.benchmark("halfspace", m1), 0.25, 0.25, 0.5,
                          K_max=2, H_max=2, resolution=3)
    assert tab.partial
    assert (2, 1) in tab.failed
    assert set(tab.failed) == set(tab.capacities)


def test_classify_withholds_a_verdict_on_a_partial_table(m1, bounds1,
                                                         halved_packing):
    """cylinder-top does not pass the cone check, so both series run, and
    their PARTIAL tables decide nothing."""
    cls = wc.classify(wc.benchmark("cylinder-top", m1), bounds1, K_max=4,
                      H_max=3, resolution=3)
    assert not cls.cone.satisfied
    assert cls.verdict == "INCONCLUSIVE" and cls.basis == "none"
    assert cls.sufficient.table_partial and cls.necessary.table_partial
    assert cls.notes == ["capacity table PARTIAL: verdict withheld"]


@pytest.mark.parametrize("metric, n, repeat", [
    (wc.euclidean(1), 370, 1), (wc.euclidean(2), 400, 1),
    (wc.heisenberg_koranyi(), 340, 1), (wc.euclidean(2), 160, 2)])
def test_working_set_seeds_are_the_first_column_maxima(monkeypatch, metric,
                                                       n, repeat):
    """_solve_lp seeds its working set with (K == c).argmax(axis=0) on the
    unscaled kernel matrix K and its column maxima c: each seed entry is
    its column's maximum exactly, and the seeds are the rows
    K.argmax(axis=0) picks, on lp-cloud sized problems and where every
    maximum is tied (each constraint row given twice).  The first round
    hands HiGHS exactly those rows divided by c."""
    seen, rounds = [], []
    real_solve, real_covering = capacity._solve_lp, capacity._covering_solve
    monkeypatch.setattr(capacity, "_solve_lp", lambda K, c, kappa, h:
                        seen.append((K, c)) or real_solve(K, c, kappa, h))
    monkeypatch.setattr(capacity, "_covering_solve", lambda h, rows:
                        rounds.append(rows) or real_covering(h, rows))
    s = random_cloud_sample(np.random.default_rng(n), metric.N, n)
    cx, ct = constraint_points(s, metric, 3)
    cx, ct = np.tile(cx, (repeat, 1)), np.tile(ct, repeat)
    try:
        solve_capacity(CapacityProblem(wc.GaussianKernel(metric, 0.25), s,
                                       cx, ct))
    except wc.CapacityConvergenceError:
        pass                     # the seeds are taken before any LP round
    ((K, c),) = seen
    assert np.array_equal(c, K.max(axis=0))
    seeds = K.argmax(axis=0)
    assert (K[seeds, np.arange(n)] == c).all()
    assert ((K == c).sum(axis=0) >= repeat).all()
    assert np.array_equal((K == c).argmax(axis=0), seeds)
    assert np.array_equal(rounds[0], K[np.unique(seeds)] / c)
    assert (rounds[0].max(axis=0) == 1.0).all()
