"""Metric spaces: gauges, distances, parabolic gauge, ball volumes."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate

import wienercap as wc
from wienercap.metric import (ball_coord_halfwidths, ball_volume,
                              parabolic_dist, parabolic_dist_many, stp,
                              unit_ball_constant)

coords = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


def vec(n):
    return st.lists(coords, min_size=n, max_size=n).map(
        lambda v: np.array(v, float))


# ---------------------------------------------------------------------------
# distances

def test_euclidean_dist_matches_norm(m2):
    x = np.array([0.3, -1.2])
    y = np.array([2.0, 0.5])
    assert wc.dist(m2, x, y) == pytest.approx(np.linalg.norm(x - y), rel=1e-14)


def test_euclidean_dist_broadcasts(m2):
    X = np.random.default_rng(0).normal(size=(7, 2))
    y = np.zeros(2)
    d = wc.dist(m2, X, y)
    assert d.shape == (7,)
    assert np.allclose(d, np.linalg.norm(X, axis=1))


def test_koranyi_gauge_pinned_values(heis):
    # d(0, (1,0,0)) = ((1)^2)^(1/4) of (x1^2+x2^2)^2 => 1
    assert wc.dist(heis, np.zeros(3), np.array([1.0, 0.0, 0.0])) == \
        pytest.approx(1.0, rel=1e-14)
    # pure vertical offset: gauge = (16 x3^2)^(1/4) = 2 sqrt(|x3|)
    assert wc.dist(heis, np.zeros(3), np.array([0.0, 0.0, 1.0])) == \
        pytest.approx(2.0, rel=1e-14)
    assert wc.dist(heis, np.zeros(3), np.array([0.0, 0.0, 0.25])) == \
        pytest.approx(1.0, rel=1e-14)


def written_out_koranyi_dist(x, y):
    """|x^{-1} o y| with the group law applied to the (..., 3) arrays."""
    x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
    u = y - x
    u[..., 2] -= 0.5 * (x[..., 0] * y[..., 1] - x[..., 1] * y[..., 0])
    return ((u[..., 0] ** 2 + u[..., 1] ** 2) ** 2 + 16.0 * u[..., 2] ** 2) ** 0.25


def test_koranyi_dist_is_bit_identical_to_written_out_gauge(heis):
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 3))
    Y = rng.normal(size=(25, 3))
    for x, y in ((X[:, None, :], Y[None, :, :]), (X, Y[0]), (Y[1], X)):
        got = wc.dist(heis, x, y)
        assert got.shape == np.broadcast_shapes(x.shape, y.shape)[:-1]
        assert (got == written_out_koranyi_dist(x, y)).all()
    assert wc.dist(heis, X[0], Y[0]) == float(written_out_koranyi_dist(X[0], Y[0]))
    x0 = X.copy()
    wc.dist(heis, X, Y[0])
    assert (X == x0).all()


def written_out_power(kind, x, y):
    """d(x, y)^p as the distance formulas were written before the one
    gauge routine: the squared norm of x - y, summed along the last axis
    (p = 2), on R^N; the quartic (u1^2 + u2^2)^2 + 16 u3^2 of u = x^{-1} o y,
    from the coordinates of the broadcast pair (p = 4), on the Koranyi
    group."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    if kind == "euclidean":
        return np.sum((x - y) ** 2, axis=-1)
    x, y = np.broadcast_arrays(x, y)
    x1, x2, x3 = np.moveaxis(x, -1, 0)
    y1, y2, y3 = np.moveaxis(y, -1, 0)
    u1, u2, u3 = y1 - x1, y2 - x2, (y3 - x3) - 0.5 * (x1 * y2 - x2 * y1)
    return (u1 ** 2 + u2 ** 2) ** 2 + 16.0 * u3 ** 2


@pytest.mark.parametrize("metric", [wc.euclidean(1), wc.euclidean(2),
                                    wc.euclidean(3), wc.heisenberg_koranyi()],
                         ids=["R1", "R2", "R3", "koranyi"])
def test_dist_is_bit_identical_to_the_written_out_formulas(metric):
    """dist, the root of the one gauge routine, equals sqrt of the squared
    norm and the fourth root of the Koranyi quartic written out, bit for
    bit, on outer pairs, rows against one point and single points;
    sq_gauge equals the squared norm and the square root of the quartic."""
    rng = np.random.default_rng(21)
    euclid = metric.kind == "euclidean"
    for scale in (1e-3, 1.0, 1e3):
        X = scale * rng.normal(size=(40, metric.N))
        Y = scale * rng.normal(size=(25, metric.N))
        for x, y in ((X[:, None, :], Y[None, :, :]), (X, Y[0]), (Y[1], X),
                     (X[0], Y[0])):
            g = written_out_power(metric.kind, x, y)
            got = wc.dist(metric, x, y)
            assert np.array_equal(got, np.sqrt(g) if euclid else g ** 0.25)
            assert np.ndim(got) == np.ndim(g)
            assert np.array_equal(wc.metric.sq_gauge(metric, x, y),
                                  g if euclid else np.sqrt(g))


# Coordinates on the dyadic grid 2^-20 Z within [-3, 3]: the products and
# sums in the group law then stay exact in float64. With arbitrary floats
# the translate g*b is rounded, and the gauge's square root turns a 1e-17
# vertical residue into a 1e-8 distance between near-coincident points.
dyadic = st.integers(-3 * 2 ** 20, 3 * 2 ** 20).map(lambda k: k / 2 ** 20)


def dyadic_vec(n):
    return st.lists(dyadic, min_size=n, max_size=n).map(
        lambda v: np.array(v, float))


@given(dyadic_vec(3), dyadic_vec(3))
def test_koranyi_left_invariance(heis, a, b):
    """d(g*a, g*b) == d(a, b) for the group translate by g."""
    g = np.array([0.6875, -0.40625, 0.1875])

    def mul(p, q):
        out = p + q
        out = out.copy()
        out[2] = p[2] + q[2] + 0.5 * (p[0] * q[1] - p[1] * q[0])
        return out

    d0 = wc.dist(heis, a, b)
    d1 = wc.dist(heis, mul(g, a), mul(g, b))
    assert d1 == pytest.approx(d0, rel=1e-10, abs=1e-10)


@given(vec(3), vec(3))
def test_koranyi_symmetry(heis, a, b):
    assert wc.dist(heis, a, b) == pytest.approx(wc.dist(heis, b, a),
                                                rel=1e-10, abs=1e-12)


@given(vec(3), vec(3), vec(3))
def test_koranyi_triangle_inequality(heis, a, b, c):
    """The Koranyi-Cygan gauge distance is a genuine metric."""
    dab = wc.dist(heis, a, b)
    dbc = wc.dist(heis, b, c)
    dac = wc.dist(heis, a, c)
    assert dac <= dab + dbc + 1e-10


@given(vec(2), vec(2), vec(2))
def test_euclidean_triangle_inequality(m2, a, b, c):
    assert wc.dist(m2, a, c) <= wc.dist(m2, a, b) + wc.dist(m2, b, c) + 1e-12


# ---------------------------------------------------------------------------
# parabolic gauge

def test_parabolic_dist_definition(m1):
    z = stp(np.array([0.0]), 0.0)
    w = stp(np.array([0.5]), -0.3)
    d = abs(0.5)
    expect = (d ** 4 + 0.3 ** 2) ** 0.25
    assert parabolic_dist(m1, z, w) == pytest.approx(expect, rel=1e-14)


def test_parabolic_dist_scaling_covariance(m1):
    """dhat((sx, s^2 t), (sy, s^2 tau)) = s * dhat((x,t),(y,tau))."""
    rng = np.random.default_rng(3)
    for _ in range(10):
        x, y = rng.normal(size=2)
        t, tau = rng.normal(size=2)
        s = float(rng.uniform(0.2, 3.0))
        d0 = parabolic_dist(m1, stp([x], t), stp([y], tau))
        d1 = parabolic_dist(m1, stp([s * x], s * s * t),
                            stp([s * y], s * s * tau))
        assert d1 == pytest.approx(s * d0, rel=1e-12)


def test_parabolic_dist_many_matches_scalar(m2):
    rng = np.random.default_rng(4)
    X = rng.normal(size=(11, 2))
    T = rng.normal(size=11)
    z = stp(np.array([0.1, -0.2]), 0.05)
    d = parabolic_dist_many(m2, X, T, z)
    for i in range(11):
        assert d[i] == pytest.approx(
            parabolic_dist(m2, stp(X[i], T[i]), z), rel=1e-13)


# ---------------------------------------------------------------------------
# ball volumes

def test_unit_ball_volumes_euclidean():
    assert unit_ball_constant(wc.euclidean(1)) == pytest.approx(2.0)
    assert unit_ball_constant(wc.euclidean(2)) == pytest.approx(math.pi)
    assert unit_ball_constant(wc.euclidean(3)) == pytest.approx(
        4 * math.pi / 3)


def test_euclidean_ball_volume_scales(m2):
    for r in (0.25, 1.0, 2.5):
        assert ball_volume(m2, r) == \
            pytest.approx(math.pi * r * r, rel=1e-12)
    assert ball_volume(m2, 0.0) == ball_volume(m2, -1.0) == 0.0


def test_koranyi_ball_constant_closed_form(heis):
    # the closed form pi^2/8 is the integral of the slice areas
    # pi*sqrt(1-16 v^2) over [-1/4, 1/4]
    slices, _ = integrate.quad(lambda v: math.pi * math.sqrt(1 - 16 * v * v),
                               -0.25, 0.25, epsabs=1e-14, epsrel=1e-13)
    assert unit_ball_constant(heis) == math.pi ** 2 / 8
    assert slices == pytest.approx(unit_ball_constant(heis), rel=1e-12)


def test_heisenberg_ball_volume_homogeneous(heis):
    v1 = ball_volume(heis, 1.0)
    assert v1 == pytest.approx(math.pi ** 2 / 8, rel=1e-9)
    for r in (0.5, 2.0):
        assert ball_volume(heis, r) == \
            pytest.approx(v1 * r ** heis.Q, rel=1e-9)


def test_ball_coord_halfwidths_cover_ball(heis):
    """Every ball point lies inside the coordinate box."""
    rng = np.random.default_rng(6)
    r = 0.8
    hw = ball_coord_halfwidths(heis, r)
    pts = rng.uniform(-1.5, 1.5, size=(4000, 3))
    gauge = wc.dist(heis, np.zeros(3), pts)
    inside = pts[gauge <= r]
    assert inside.shape[0] > 0
    assert np.all(np.abs(inside) <= hw + 1e-12)


def test_ball_coord_halfwidths_cover_off_axis_ball(heis):
    """Every point of B((0.15, 0, 0), 1/16) lies in the box around its
    centre: the vertical halfwidth carries the twist (|x1| + |x2|) r / 2.
    The origin's box holds only 29% of these points."""
    rng = np.random.default_rng(11)
    x, r = np.array([0.15, 0.0, 0.0]), 1.0 / 16.0
    hw = ball_coord_halfwidths(heis, r, x)
    pts = x + rng.uniform(-1.0, 1.0, size=(200000, 3)) * [2 * r, 2 * r, 0.02]
    inside = pts[wc.dist(heis, x, pts) <= r]
    assert inside.shape[0] > 1000
    assert np.all(np.abs(inside - x) <= hw + 1e-12)
    assert np.allclose(ball_coord_halfwidths(heis, r, np.zeros(3)),
                       ball_coord_halfwidths(heis, r), rtol=0, atol=0)


# ---------------------------------------------------------------------------
# construction

def test_metric_space_requires_positive_doubling():
    with pytest.raises(wc.MetricError):
        wc.MetricSpace("euclidean", 1, 1.0, 0.5)


def test_metric_space_rejects_table_kind():
    with pytest.raises(wc.MetricError):
        wc.MetricSpace("table", 1, 1.0, 2.0)


def test_euclidean_rejects_underflowing_ball_constant():
    """omega_N = pi^(N/2) / Gamma(N/2 + 1) is 0.0 in floats from N = 342."""
    assert unit_ball_constant(wc.euclidean(341)) > 0
    with pytest.raises(wc.MetricError, match="N = 342 underflows"):
        wc.euclidean(342)
