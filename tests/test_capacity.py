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

import math
import time

import numpy as np
import pytest
from scipy.optimize import linprog
# the private HiGHS binding the capacity solve drives; a scipy that moves
# it fails here, at collection
from scipy.optimize._highspy._core import _Highs

import wienercap as wc
from wienercap import capacity
from wienercap.capacity import (CapacityInputError, CapacityProblem,
                                build_problem, constraint_points,
                                potential_many,
                                refine_capacity, solve_capacity)
from wienercap.domain import RingSpec, RingTarget, SetSample
from wienercap.metric import ball_coord_halfwidths

from conftest import (counting_linprog, counting_solves, flat_rect_sample,
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
    on the warm-started covering model alone: linprog is never called."""
    calls = counting_linprog(monkeypatch)
    for m, s in lp_clouds(draw):
        est, _ = solve_sample(m, s, 0.25)
        assert 0.0 <= est.rel_gap() <= capacity.GAP_TOLERANCE
        assert est.lp_rows < est.n_constraints
    assert calls == []


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


def test_packing_fallback_yields_certified_bracket(m1, monkeypatch):
    """Degenerate marginals of the restricted covering LP send the solve to
    one explicit full-grid packing LP, which must still produce a
    certified bracket."""
    s = random_cloud_sample(np.random.default_rng(32), 1, 50)
    ref, _ = solve_sample(m1, s, 0.25)

    rounds = []
    real = capacity._covering_solve

    def zero_first_marginals(h, rows):
        x, y, iterations = real(h, rows)
        rounds.append(rows.shape)
        if len(rounds) == 1:
            x = np.zeros_like(x)
        return x, y, iterations

    monkeypatch.setattr(capacity, "_covering_solve", zero_first_marginals)
    calls = counting_linprog(monkeypatch)
    est, prob = solve_sample(m1, s, 0.25)
    m = prob.cons_t.shape[0]
    assert len(rounds) == 1 and rounds[0][1] == s.n and rounds[0][0] < m
    assert calls == [(m, s.n)]
    assert est.lp_rows == m
    assert est.dual_value >= est.value > 0.0
    assert est.rel_gap() <= 1e-6
    assert est.value == pytest.approx(ref.value, rel=1e-6)


def warm_and_cold(prob, monkeypatch, method="highs"):
    """Solve prob through the warm-started covering model, recording the
    column maxima s = c / kappa of the normalized matrix and the grid rows
    appended in each round, and solve the covering LP of the final working
    set cold by linprog's `method`."""
    seen, rows = {}, []
    real_solve, real_covering = capacity._solve_lp, capacity._covering_solve

    def solve(K, c, kappa):
        seen["s"] = c / kappa
        seen["out"] = real_solve(K, c, kappa)
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
# the gap gate's failure path

@pytest.fixture
def halved_packing(monkeypatch):
    """Plant a fault: every fresh LP solve returns half its packing point,
    so the certified bracket has a relative gap near 1."""
    real = capacity._solve_lp

    def halved(K, c, kappa):
        nu, *rest = real(K, c, kappa)
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
    assert tab.partial and tab.reused == []
    assert set(tab.failed) == set(tab.capacities)
    assert len(calls) == len(tab.failed)
    framed = {}
    for k, h in tab.failed:
        support = wc.sample_set_and_measure(
            dom, RingTarget(RingSpec(lam, k, h, "nested")), 3)
        X, T, r = capacity.dilation_frame(dom, support, lam ** (k / 2.0))
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
    monkeypatch.setattr(capacity, "_solve_lp", lambda K, c, kappa:
                        seen.append((K, c)) or real_solve(K, c, kappa))
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
