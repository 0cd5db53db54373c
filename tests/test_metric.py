"""Metric spaces: gauges, distances, parabolic gauge, ball volumes."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import wienercap as wc
from wienercap.metric import (ball_coord_halfwidths, ball_volume,
                              ball_volume_many, ball_volume_with_error,
                              koranyi_ball_constant, parabolic_dist,
                              parabolic_dist_many, stp,
                              unit_ball_volume_euclidean)

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
    assert unit_ball_volume_euclidean(1) == pytest.approx(2.0)
    assert unit_ball_volume_euclidean(2) == pytest.approx(math.pi)
    assert unit_ball_volume_euclidean(3) == pytest.approx(4 * math.pi / 3)


def test_euclidean_ball_volume_scales(m2):
    for r in (0.25, 1.0, 2.5):
        assert ball_volume(m2, np.zeros(2), r) == \
            pytest.approx(math.pi * r * r, rel=1e-12)


def test_koranyi_ball_constant_closed_form():
    # integral of pi*sqrt(1-16 v^2) over [-1/4, 1/4] equals pi^2/8
    assert koranyi_ball_constant() == pytest.approx(math.pi ** 2 / 8,
                                                    rel=1e-9)


def test_heisenberg_ball_volume_homogeneous(heis):
    v1 = ball_volume(heis, np.zeros(3), 1.0)
    assert v1 == pytest.approx(math.pi ** 2 / 8, rel=1e-9)
    for r in (0.5, 2.0):
        assert ball_volume(heis, np.zeros(3), r) == \
            pytest.approx(v1 * r ** heis.Q, rel=1e-9)


def test_heisenberg_ball_volume_translation_invariant(heis):
    v0 = ball_volume(heis, np.zeros(3), 0.7)
    v1 = ball_volume(heis, np.array([1.0, -2.0, 0.3]), 0.7)
    assert v1 == pytest.approx(v0, rel=1e-9)


def test_mc_ball_volume_agrees_with_analytic():
    heis_mc = wc.heisenberg_koranyi(volume_mode="monte-carlo",
                                    mc_samples=40000, seed=5)
    v, se = ball_volume_with_error(heis_mc, np.zeros(3), 1.0)
    assert se > 0
    assert abs(v - math.pi ** 2 / 8) <= 4 * se


def test_ball_volume_many_matches_scalar(m1, heis):
    rs = np.array([0.1, 0.5, 1.3])
    for m in (m1, heis):
        vm = ball_volume_many(m, np.zeros(m.N), rs)
        for i, r in enumerate(rs):
            assert vm[i] == pytest.approx(ball_volume(m, np.zeros(m.N), r),
                                          rel=1e-12)


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


# ---------------------------------------------------------------------------
# table metric

def test_table_metric_reproduces_axis_distance():
    axis = np.linspace(-2.0, 2.0, 81)
    vals = np.abs(axis[:, None] - axis[None, :])
    tm = wc.table_metric(axis, vals, Q=1.0, c_d=2.0)
    rng = np.random.default_rng(8)
    h = float(axis[1] - axis[0])
    for _ in range(20):
        x, y = rng.uniform(-2.0, 2.0, size=2)
        got = wc.dist(tm, np.array([x]), np.array([y]))
        # bilinear interpolation of |x - y| is exact away from the diagonal
        # kink and off by at most h/2 on cells crossing it
        assert got == pytest.approx(abs(x - y), abs=0.5 * h + 1e-9)


def test_table_metric_rejects_asymmetric_table():
    axis = np.linspace(0.0, 1.0, 5)
    vals = np.abs(axis[:, None] - axis[None, :])
    vals[0, 1] += 0.3
    with pytest.raises(wc.MetricError):
        wc.table_metric(axis, vals, Q=1.0, c_d=2.0)


def test_table_metric_rejects_nonzero_diagonal():
    axis = np.linspace(0.0, 1.0, 5)
    vals = np.abs(axis[:, None] - axis[None, :]) + 0.1
    with pytest.raises(wc.MetricError):
        wc.table_metric(axis, vals, Q=1.0, c_d=2.0)


def test_metric_space_requires_positive_doubling():
    with pytest.raises(wc.MetricError):
        wc.table_metric(np.linspace(0, 1, 5),
                        np.abs(np.subtract.outer(np.linspace(0, 1, 5),
                                                 np.linspace(0, 1, 5))),
                        Q=1.0, c_d=0.5)
