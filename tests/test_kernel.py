"""Gaussian kernels, heat kernel, and the two-sided bound bookkeeping."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import wienercap as wc
from wienercap import kernel
from wienercap.kernel import GaussianKernel, HeatKernel
from wienercap.metric import (ball_volume, displacement, stp,
                              unit_ball_constant)

from conftest import random_cloud_sample

times = st.floats(-2.0, 2.0, allow_nan=False)
coords = st.floats(-2.0, 2.0, allow_nan=False)


# ---------------------------------------------------------------------------
# pointwise values against the defining formula

def test_gaussian_value_euclidean_n1(m1):
    # exp(-a d^2 / dt) / |B(x, sqrt(dt))| with |B| = 2 sqrt(dt)
    z = stp([1.0], 1.0)
    w = stp([0.0], 0.0)
    got = GaussianKernel(m1, 0.25).eval(z, w)
    assert got == pytest.approx(math.exp(-0.25) / 2.0, rel=1e-13)


def test_gaussian_value_euclidean_n2(m2):
    z = stp([1.0, 0.0], 0.0)
    w = stp([0.0, 0.0], -1.0)
    got = GaussianKernel(m2, 0.25).eval(z, w)
    assert got == pytest.approx(math.exp(-0.25) / math.pi, rel=1e-13)


def test_gaussian_value_heisenberg(heis):
    z = stp([1.0, 0.0, 0.0], 1.0)
    w = stp([0.0, 0.0, 0.0], 0.0)
    # gauge distance 1, |B(x, 1)| = pi^2/8
    got = GaussianKernel(heis, 0.5).eval(z, w)
    assert got == pytest.approx(math.exp(-0.5) / (math.pi ** 2 / 8),
                                rel=1e-9)


def test_kernel_vanishes_without_time_order(m1):
    z = stp([0.0], 0.0)
    w = stp([1.0], 0.0)
    assert GaussianKernel(m1, 0.25).eval(z, w) == 0.0
    assert GaussianKernel(m1, 0.25).eval(w, stp([0.0], 1.0)) == 0.0


def test_heat_kernel_closed_form():
    # (4 pi dt / beta)^(-N/2) exp(-beta d^2 / (4 dt))
    got = HeatKernel(1, 2.0).eval(stp([0.0], 1.0), stp([0.0], 0.0))
    assert got == pytest.approx((2 * math.pi) ** -0.5, rel=1e-13)
    got = HeatKernel(1, 1.0).eval(stp([0.5], 1.0), stp([0.0], 0.0))
    assert got == pytest.approx((4 * math.pi) ** -0.5 * math.exp(-0.0625),
                                rel=1e-13)


def test_heat_equals_scaled_gaussian(m1):
    """The Euclidean heat kernel is gaussian_factor * G_(beta/4)."""
    beta = 2.0
    hk = HeatKernel(1, beta)
    gk = GaussianKernel(m1, beta / 4.0)
    rng = np.random.default_rng(0)
    Zx = rng.normal(size=(6, 1))
    Zt = rng.uniform(0.5, 2.0, size=6)
    Wx = rng.normal(size=(5, 1))
    Wt = rng.uniform(-1.0, 0.4, size=5)
    A = hk.matrix(Zx, Zt, Wx, Wt)
    B = gk.matrix(Zx, Zt, Wx, Wt) * hk.gaussian_factor
    assert np.allclose(A, B, rtol=1e-12, atol=1e-300)


def test_two_sided_bound_brackets_heat_kernel(m1, bounds1):
    """(1/Lambda) G_b0 <= heat kernel <= Lambda G_a0 pointwise."""
    beta = 2.0
    lam = bounds1.Lambda
    ka = GaussianKernel(m1, bounds1.a0)
    kb = GaussianKernel(m1, bounds1.b0)
    rng = np.random.default_rng(1)
    for _ in range(50):
        z = stp(rng.normal(size=1), rng.uniform(0.1, 2.0))
        w = stp(rng.normal(size=1), rng.uniform(-2.0, 0.0))
        gamma = HeatKernel(1, beta).eval(z, w)
        assert gamma <= lam * ka.eval(z, w) * (1 + 1e-12)
        assert gamma >= kb.eval(z, w) / lam * (1 - 1e-12)


# ---------------------------------------------------------------------------
# monotonicity and matrix plumbing

@given(st.floats(0.05, 1.0), st.floats(0.05, 1.0))
def test_kernel_antitone_in_exponent(m1, a1, a2):
    if a1 > a2:
        a1, a2 = a2, a1
    z = stp([0.7], 0.5)
    w = stp([0.0], 0.0)
    assert GaussianKernel(m1, a1).eval(z, w) >= GaussianKernel(m1, a2).eval(z, w)


def test_matrix_matches_pointwise_eval(m2):
    kern = GaussianKernel(m2, 0.3)
    rng = np.random.default_rng(2)
    Zx = rng.normal(size=(4, 2))
    Zt = rng.uniform(-1, 1, size=4)
    Wx = rng.normal(size=(3, 2))
    Wt = rng.uniform(-1, 1, size=3)
    K = kern.matrix(Zx, Zt, Wx, Wt)
    assert K.shape == (4, 3)
    for i in range(4):
        for j in range(3):
            assert K[i, j] == pytest.approx(
                kern.eval(stp(Zx[i], Zt[i]), stp(Wx[j], Wt[j])),
                rel=1e-12, abs=1e-300)


LOG_TINY = math.log(1e-300)


def reference_matrix(kern, Zx, Zt, Wx, Wt):
    """G_a from its definition, one entry at a time: the distance, squared,
    the ball volume at radius sqrt(t - s), one exp at the end, and the
    flush of values at or below 1e-300."""
    K = np.zeros((len(Zt), len(Wt)))
    for i, j in np.ndindex(K.shape):
        dt = Zt[i] - Wt[j]
        if dt <= 0:
            continue
        d = wc.dist(kern.metric, Zx[i], Wx[j])
        logk = (math.log(kern.scale) - kern.a * d * d / dt
                - math.log(ball_volume(kern.metric, math.sqrt(dt))))
        K[i, j] = math.exp(logk) if logk > LOG_TINY else 0.0
    return K


def threshold_pairs(kern, rng, deltas):
    """Row and column points whose log kernel value is LOG_TINY + delta:
    the source sits at horizontal distance d from the row's point, with d
    solved from the definition."""
    m = kern.metric
    Zx, Zt, Wx, Wt = [], [], [], []
    for delta in deltas:
        x = rng.uniform(-0.5, 0.5, size=m.N)
        dt = rng.uniform(0.01, 0.1)
        logvol = math.log(ball_volume(m, math.sqrt(dt)))
        d = math.sqrt((math.log(kern.scale) - logvol - LOG_TINY - delta)
                      * dt / kern.a)
        if m.kind == "heisenberg-koranyi":
            # x o (d, 0, 0) by the polarized law: gauge distance d from x
            y = x + np.array([d, 0.0, -0.5 * x[1] * d])
        else:
            y = x + d * np.eye(m.N)[0]
        Zx.append(x)
        Zt.append(dt)
        Wx.append(y)
        Wt.append(0.0)
    return np.array(Zx), np.array(Zt), np.array(Wx), np.array(Wt)


@pytest.mark.parametrize("metric, a, scale", [
    (wc.euclidean(1), 0.25, 1.0),
    (wc.euclidean(2), 0.3, 1.0),
    (wc.euclidean(3), 0.5, 1.0),
    (wc.heisenberg_koranyi(), 0.25, 1.0),
    (wc.euclidean(2), 0.3, 3.7),
    (wc.heisenberg_koranyi(), 0.4, 0.02),
])
def test_fused_matrix_matches_definition(metric, a, scale):
    """The fused closed-form build agrees with the definition to 1e-12
    relative with the same zeros: off-axis Koranyi points (vertical twist
    and the 16 u3^2 term in play), pairs with t < s and t == s (one of
    them with x == y, where 0/0 would leak through without the mask), and
    pairs 1e-6 and 1e-9 either side of the 1e-300 flush threshold."""
    kern = GaussianKernel(metric, a, scale)
    rng = np.random.default_rng(11)
    Zx = rng.uniform(-0.6, 0.6, size=(30, metric.N))
    Wx = rng.uniform(-0.6, 0.6, size=(20, metric.N))
    Zt = rng.uniform(-0.2, 0.3, size=30)
    Wt = rng.uniform(-0.25, 0.05, size=20)
    Zt[:4] = Wt[:4]                              # t == s
    Zx[0] = Wx[0]                                # and z == w
    tx, tt, sx, ts = threshold_pairs(kern, rng, (-1e-6, -1e-9, 1e-9, 1e-6))
    Zx, Zt = np.vstack([Zx, tx]), np.concatenate([Zt, tt])
    Wx, Wt = np.vstack([Wx, sx]), np.concatenate([Wt, ts])
    K = kern.matrix(Zx, Zt, Wx, Wt)
    R = reference_matrix(kern, Zx, Zt, Wx, Wt)
    assert np.array_equal(K == 0, R == 0)
    nz = R != 0
    assert np.all(np.abs(K[nz] - R[nz]) <= 1e-12 * R[nz])
    # the diagonal of the threshold block straddles 1e-300
    diag = np.diag(K[-4:, -4:])
    assert list(diag > 0) == [False, False, True, True]
    assert np.all(diag[2:] < 1.01e-300)
    assert (Zt[:, None] < Wt[None, :]).any()
    assert (Zt[:, None] == Wt[None, :]).any()
    if metric.kind == "heisenberg-koranyi":
        assert np.abs(Zx[:, :2]).min() > 0 and np.abs(Wx[:, :2]).min() > 0


def dense_matrix(kern, Zx, Zt, Wx, Wt):
    """The closed-form build with every factor as its own (m, n) array:
    the row-by-row formula that the factor build must reproduce bit for
    bit, the same operations in the same order for each entry."""
    m = kern.metric
    dt = np.subtract.outer(Zt, Wt)
    late = dt <= 0
    dt[late] = 1.0
    if m.kind == "heisenberg-koranyi":
        u1, u2, u3 = displacement(m, Zx[:, None, :], Wx[None, :, :])
        d2 = np.sqrt((u1 ** 2 + u2 ** 2) ** 2 + u3 ** 2 * 16.0)
    else:
        d2 = np.subtract.outer(Zx[:, 0], Wx[:, 0]) ** 2
        for k in range(1, m.N):
            d2 = d2 + np.subtract.outer(Zx[:, k], Wx[:, k]) ** 2
    logvol = np.maximum(np.log(dt) * (0.5 * m.Q)
                        + math.log(unit_ball_constant(m)), LOG_TINY)
    logk = d2 * -kern.a / dt - logvol + math.log(kern.scale)
    return np.where(late | (logk <= LOG_TINY), 0.0, np.exp(logk))


def grid_problem(metric, res, n=60, seed=5):
    """A random cloud of n atoms and its constraint_points rows."""
    s = random_cloud_sample(np.random.default_rng(seed), metric.N, n)
    return (*wc.constraint_points(s, metric, res), s.xs, s.ts)


@pytest.mark.parametrize("metric, res, C, T", [
    (wc.euclidean(1), 2, 8, 8), (wc.euclidean(1), 3, 16, 16),
    (wc.euclidean(2), 2, 64, 8), (wc.euclidean(2), 3, 256, 16),
    (wc.heisenberg_koranyi(), 2, 512, 8),
    (wc.heisenberg_koranyi(), 3, 512, 8),      # thinned from 16^4 cells
])
def test_factor_build_equals_dense_build_on_constraint_grids(metric, res, C,
                                                             T):
    """On constraint_points rows (C spatial cells by T time cells, time
    fastest, then one near-field row per atom) the grid block is found
    whole and the matrix equals the dense build bit for bit, zeros of
    t <= s pairs inside the block included."""
    cx, ct, wx, wt = grid_problem(metric, res)
    assert kernel._grid_block(cx, ct) == (C, T)
    assert C * T + wt.size == ct.size
    kern = GaussianKernel(metric, 0.25)
    K = kern.matrix(cx, ct, wx, wt)
    assert np.array_equal(K, dense_matrix(kern, cx, ct, wx, wt))
    late = ct[:C * T, None] <= wt[None, :]
    assert late.any() and (K[:C * T][late] == 0.0).all()
    assert (K > 0).any()


@pytest.mark.parametrize("metric", [
    wc.euclidean(1), wc.euclidean(2), wc.heisenberg_koranyi()])
def test_factor_build_equals_dense_build_off_the_grid(metric):
    """Unstructured rows, a grid whose pattern breaks mid-block (one time
    changed, one point moved, the first run cut short), 0 and 1 rows,
    t == s pairs inside the block, scale != 1 and the heat kernel: every
    matrix equals the dense build bit for bit."""
    rng = np.random.default_rng(8)
    cx, ct, wx, wt = grid_problem(metric, 2)
    C, T = kernel._grid_block(cx, ct)
    kern = GaussianKernel(metric, 0.3, 3.7)

    def same(Zx, Zt, block=None):
        if block is not None:
            assert kernel._grid_block(Zx, Zt) == block
        assert np.array_equal(kern.matrix(Zx, Zt, wx, wt),
                              dense_matrix(kern, Zx, Zt, wx, wt))

    same(rng.uniform(-0.5, 0.5, (40, metric.N)), rng.uniform(-0.5, 0.5, 40))
    t_break = ct.copy()
    t_break[3 * T + 3] += 1e-3
    same(cx, t_break, (3, T))
    x_break = cx.copy()
    x_break[5 * T + 2, -1] += 1e-3
    same(x_break, ct, (5, T))
    x_short = cx.copy()
    x_short[3, 0] += 1e-3
    same(x_short, ct, (1, 3))
    same(cx[:0], ct[:0])
    same(cx[:1], ct[:1], (1, 1))
    same(cx[C * T:C * T + 1], ct[C * T:C * T + 1], (1, 1))
    wt = wt.copy()
    wt[:3] = ct[[1, 2, 5]]                       # t == s inside the block
    same(cx, ct, (C, T))
    if metric.kind == "euclidean":
        heat = HeatKernel(metric.N, 1.5)
        kern = GaussianKernel(metric, 1.5 / 4.0, heat.gaussian_factor)
        assert np.array_equal(heat.matrix(cx, ct, wx, wt),
                              dense_matrix(kern, cx, ct, wx, wt))


@pytest.mark.parametrize("metric, rows", [
    (wc.euclidean(2), 256 + 400), (wc.heisenberg_koranyi(), 512 + 400)])
def test_distances_are_computed_once_per_spatial_row(monkeypatch, metric,
                                                     rows):
    """On an lp-cloud-sized problem (400 atoms against 4096 grid rows and
    400 near-field rows) d^2 is handed the C distinct grid points and the
    n near-field rows, C + n rows in one call, not m = 4496."""
    seen = []
    real = kernel.sq_gauge
    monkeypatch.setattr(kernel, "sq_gauge", lambda m, X, Y:
                        seen.append(X.shape[0]) or real(m, X, Y))
    cx, ct, wx, wt = grid_problem(metric, 3, n=400)
    GaussianKernel(metric, 0.25).matrix(cx, ct, wx, wt)
    assert seen == [rows] and rows < ct.size


def masked_copy_gauss_into(out, nad2, dt, logvol, log_scale):
    """_gauss_into with its flush written as a masked copy of -inf before
    exp: the formula the mask product must reproduce bit for bit."""
    np.divide(nad2, dt, out=out)
    out -= logvol
    if log_scale != 0.0:
        out += log_scale
    np.copyto(out, -np.inf, where=out <= LOG_TINY)
    np.exp(out, out=out)


@pytest.mark.parametrize("metric, n, scale", [
    (wc.euclidean(1), 370, 1.0), (wc.euclidean(2), 400, 1.0),
    (wc.heisenberg_koranyi(), 340, 1.0), (wc.euclidean(2), 400, 3.7)])
def test_flush_by_mask_product_equals_the_masked_copy(monkeypatch, metric, n,
                                                      scale):
    """On lp-cloud-sized problems (up to 400 atoms against 4496 rows) the
    matrix flushed by a mask product has the bytes of the one flushed by a
    masked copy before exp, flushed tails and t <= s zeros included."""
    cx, ct, wx, wt = grid_problem(metric, 3, n=n)
    kern = GaussianKernel(metric, 0.25, scale)
    K = kern.matrix(cx, ct, wx, wt)
    monkeypatch.setattr(kernel, "_gauss_into", masked_copy_gauss_into)
    assert K.tobytes() == kern.matrix(cx, ct, wx, wt).tobytes()
    assert (K == 0).any() and (K > 0).any()


def test_flush_by_mask_product_keeps_nan_and_inf(monkeypatch):
    """Exponents that are nan, +-inf, or straddle log(1e-300) give the
    same bytes under both flushes, and so does a matrix whose nan atom
    makes a column of nan."""
    rng = np.random.default_rng(3)
    nad2 = -rng.uniform(0.0, 800.0, size=(6, 1, 50))
    nad2[0, 0, :4] = [np.nan, -np.inf, -0.0, 0.0]
    dt = rng.uniform(0.5, 2.0, size=(1, 7, 50))
    dt[0, 1, 4:8] = [np.nan, np.inf, 1e-300, 1.0]
    logvol = rng.uniform(-3.0, 3.0, size=(1, 7, 50))
    logvol[0, 2, 8:12] = [np.nan, np.inf, -np.inf, LOG_TINY]
    logvol[0, 3, :] = -LOG_TINY + np.linspace(-1e-12, 1e-12, 50)
    for log_scale in (0.0, 0.7):
        got, want = np.empty((6, 7, 50)), np.empty((6, 7, 50))
        kernel._gauss_into(got, nad2, dt, logvol, log_scale)
        masked_copy_gauss_into(want, nad2, dt, logvol, log_scale)
        assert np.isnan(got).any() and np.isinf(got).any()
        assert got.tobytes() == want.tobytes()
    cx, ct, wx, wt = grid_problem(wc.euclidean(2), 2)
    wx[3] = np.nan
    kern = GaussianKernel(wc.euclidean(2), 0.25)
    K = kern.matrix(cx, ct, wx, wt)
    assert np.isnan(K[:, 3]).any()
    monkeypatch.setattr(kernel, "_gauss_into", masked_copy_gauss_into)
    assert K.tobytes() == kern.matrix(cx, ct, wx, wt).tobytes()


def test_matrix_scale_factor(m1):
    k1 = GaussianKernel(m1, 0.25)
    k2 = GaussianKernel(m1, 0.25, scale=3.5)
    Zx = np.array([[0.0], [1.0]])
    Zt = np.array([1.0, 2.0])
    Wx = np.array([[0.2]])
    Wt = np.array([0.0])
    assert np.allclose(k2.matrix(Zx, Zt, Wx, Wt),
                       3.5 * k1.matrix(Zx, Zt, Wx, Wt))


def test_matrix_rejects_points_of_the_wrong_dimension(m2, heis):
    for metric, N in ((m2, 3), (heis, 2)):
        kern = GaussianKernel(metric, 0.25)
        with pytest.raises(wc.MetricError):
            kern.matrix(np.zeros((2, N)), np.ones(2), np.zeros((3, metric.N)),
                        np.zeros(3))
        with pytest.raises(wc.MetricError):
            kern.matrix(np.zeros((2, metric.N)), np.ones(2), np.zeros((3, N)),
                        np.zeros(3))


def test_kernel_rejects_bad_exponent(m1):
    with pytest.raises(wc.KernelError):
        GaussianKernel(m1, 0.0)
    with pytest.raises(wc.KernelError):
        GaussianKernel(m1, -1.0)


# ---------------------------------------------------------------------------
# bounds bookkeeping

def test_euclidean_bounds_exact_fit():
    b = wc.euclidean_bounds(1, 2.0)
    assert b.a0 == pytest.approx(0.5)
    assert b.b0 == pytest.approx(0.5)
    factor = 2.0 / math.sqrt(2 * math.pi)
    assert b.Lambda == pytest.approx(max(factor, 1.0 / factor), rel=1e-12)
    b2 = wc.euclidean_bounds(2, 1.0)
    assert b2.Lambda == pytest.approx(4.0, rel=1e-12)
    assert b2.c_d == pytest.approx(4.0)


def test_euclidean_bounds_past_the_float_range_raise_cleanly():
    """At beta = 1 the heat kernel's ratio omega_N / (4 pi)^(N/2) is
    subnormal or zero from N = 268 on, so Lambda = 1/ratio overflows:
    a KernelError naming N and beta, with no numpy warning.  N = 267,
    Lambda = 4.08e307, still fits.  At N = 3, beta = 1e308 the ratio's
    denominator (4 pi / beta)^(N/2) underflows to 0: the same error."""
    assert wc.euclidean_bounds(267).Lambda == pytest.approx(4.08e307,
                                                             rel=1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for N in range(268, 342):
            with pytest.raises(wc.KernelError,
                               match=f"N = {N}, beta = 1 puts"):
                wc.euclidean_bounds(N)
        with pytest.raises(wc.KernelError,
                           match=r"N = 3, beta = 1e\+308 puts"):
            wc.euclidean_bounds(3, 1e308)


def test_structural_constant_formula():
    b = wc.euclidean_bounds(2, 1.0)
    assert wc.structural_constant(b) == pytest.approx(
        b.Lambda + 1.0 / b.a0 + b.b0 + b.c_d, rel=1e-14)


def test_bounds_validation():
    with pytest.raises(wc.KernelError):
        wc.GaussBounds(Lambda=0.5, a0=0.5, b0=0.5, c_d=2.0)
    with pytest.raises(wc.KernelError):
        wc.GaussBounds(Lambda=2.0, a0=-0.1, b0=0.5, c_d=2.0)


def test_kernel_flushes_denormal_tails(m1):
    """Entries below the representable range flush to exact zero."""
    kern = GaussianKernel(m1, 0.5)
    K = kern.matrix(np.array([[60.0]]), np.array([1e-3]),
                    np.array([[0.0]]), np.array([0.0]))
    assert K[0, 0] == 0.0
