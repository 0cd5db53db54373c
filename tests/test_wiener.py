"""Series tables, verdicts, integral criterion, Wiener function, bound check."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import wienercap as wc
from wienercap import capacity, domain, wiener
from wienercap.capacity import CapacityProblem, constraint_points
from wienercap.domain import RingSpec, RingTarget, sample_set_and_measure
from wienercap.metric import ball_coord_halfwidths, ball_volume, stp
from wienercap.wiener import (SeriesTable, WienerError, divergence_verdict,
                              nested_partial_value, term_tail_fit)

from conftest import counting_solves


def synthetic_table(terms, variant="sufficient", lam=0.25, a=0.5, b=1.0):
    terms = np.asarray(terms, float)
    return SeriesTable(variant, lam, a, b, terms.shape[0], terms.shape[1],
                       3, terms)


# ---------------------------------------------------------------------------
# table assembly invariants

def test_series_table_term_formula(m1, bounds1):
    """terms[k-1, h-1] = lam^(w h) * C(ring) / |B(x0, lam^(k/2))|."""
    dom = wc.benchmark("halfspace", m1)
    lam, a, b = 0.25, bounds1.a0, 2 * bounds1.b0
    tab = wc.series_table(dom, lam, a, b, "sufficient", K_max=3, H_max=4,
                          resolution=3)
    assert tab.variant == "sufficient"
    assert tab.kernel_exponent == a
    assert tab.weight_exponent == b
    for (k, h), est in tab.capacities.items():
        vol = ball_volume(m1, lam ** (k / 2.0))
        want = lam ** (b * h) * est.value / vol
        assert tab.terms[k - 1, h - 1] == pytest.approx(want, rel=1e-12)


def test_series_table_necessary_swaps_exponents(m1, bounds1):
    dom = wc.benchmark("halfspace", m1)
    tab = wc.series_table(dom, 0.25, 0.5, 1.0, "necessary", K_max=2,
                          H_max=3, resolution=3)
    assert tab.kernel_exponent == 1.0
    assert tab.weight_exponent == 0.5


def test_series_table_rejects_bad_inputs(m1):
    dom = wc.benchmark("halfspace", m1)
    with pytest.raises(WienerError):
        wc.series_table(dom, 0.25, 0.5, 1.0, "bogus")
    with pytest.raises(WienerError):
        wc.series_table(dom, 1.5, 0.5, 1.0, "sufficient")


def test_partial_sums_cumulative():
    tab = synthetic_table(np.ones((4, 2)))
    assert np.allclose(tab.partial_sums(), [2.0, 4.0, 6.0, 8.0])


# ---------------------------------------------------------------------------
# verdict rules on synthetic tables

def test_verdict_linear_growth_divergent():
    tab = synthetic_table(np.full((20, 1), 0.7))
    rep = divergence_verdict(tab)
    assert rep.verdict == "DIVERGENT"
    assert rep.growth_ratio >= 1.5


def test_verdict_geometric_decay_convergent():
    terms = (0.8 ** np.arange(1, 25))[:, None]
    rep = divergence_verdict(synthetic_table(terms))
    assert rep.verdict == "CONVERGENT"
    assert rep.geometric_q == pytest.approx(0.8, rel=1e-6)
    assert rep.geometric_r2 > 0.999


def test_verdict_zero_tail_convergent():
    terms = np.zeros((20, 2))
    terms[0, 0] = 1.0
    terms[1, 0] = 0.5
    rep = divergence_verdict(synthetic_table(terms))
    assert rep.verdict == "CONVERGENT"


def test_verdict_all_zero_convergent():
    rep = divergence_verdict(synthetic_table(np.zeros((12, 2))))
    assert rep.verdict == "CONVERGENT"


def test_verdict_log_divergence_is_inconclusive():
    terms = (1.0 / np.arange(1, 41))[:, None]
    rep = divergence_verdict(synthetic_table(terms))
    assert rep.verdict == "INCONCLUSIVE"


def test_term_tail_fit_pure_geometric():
    terms = (0.6 ** np.arange(1, 13))[None, :]
    fit = term_tail_fit(synthetic_table(terms))
    assert fit.ratio == pytest.approx(0.6, rel=1e-9)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_term_tail_fit_uses_deepest_row():
    terms = np.zeros((3, 6))
    terms[0, :3] = [1.0, 0.9, 0.8]          # shallow row, flat
    terms[2, :5] = 0.5 ** np.arange(1, 6)   # deepest row, geometric
    fit = term_tail_fit(synthetic_table(terms))
    assert fit.n_tail == 5
    assert fit.ratio == pytest.approx(0.5, rel=1e-9)


# ---------------------------------------------------------------------------
# benchmark series behavior

def test_halfspace_sufficient_series_diverges(m1, bounds1):
    dom = wc.benchmark("halfspace", m1)
    tab = wc.series_table(dom, 0.25, bounds1.a0, 2 * bounds1.b0,
                          "sufficient", K_max=16, H_max=16, resolution=3)
    rep = divergence_verdict(tab)
    assert rep.verdict == "DIVERGENT"
    # self-similar geometry: constant increments, linear partial sums
    inc = tab.terms.sum(axis=1)
    assert inc[4:].std() / inc[4:].mean() < 0.05


@pytest.mark.parametrize("name", ["spatial-halfspace", "cone",
                                  "cusp-power", "cusp-loglog"])
def test_cone_decided_domains_sufficient_series_diverges(m1, bounds1, name):
    """classify stops at the cone check on these registry domains and never
    builds their series; their sufficient series still read DIVERGENT."""
    tab = wc.series_table(wc.benchmark(name, m1), 0.25, bounds1.a0,
                          2 * bounds1.b0, "sufficient", K_max=16, H_max=16,
                          resolution=3)
    assert divergence_verdict(tab).verdict == "DIVERGENT"


def test_cylinder_top_necessary_series_converges(m1, bounds1):
    dom = wc.benchmark("cylinder-top", m1)
    tab = wc.series_table(dom, 0.25, bounds1.a0, 2 * bounds1.b0,
                          "necessary", K_max=16, H_max=40, resolution=3)
    rep = divergence_verdict(tab)
    assert rep.verdict == "CONVERGENT"
    fit = term_tail_fit(tab)
    assert fit.ratio <= 0.9
    assert fit.r2 >= 0.95


def test_nested_dominates_band_rows(m1, bounds1):
    """Nested rings contain every band j <= h, so the nested table row
    dominates each single-band term at equal (k, h)."""
    dom = wc.benchmark("halfspace", m1)
    lam, a, b = 0.25, bounds1.a0, 2 * bounds1.b0
    band = wc.series_table(dom, lam, a, b, "sufficient", K_max=3, H_max=3,
                           resolution=3)
    nested = wc.series_table(dom, lam, a, b, "nested", K_max=3, H_max=3,
                             resolution=3)
    for k in range(1, 4):
        for h in range(1, 4):
            bk = band.capacities.get((k, h))
            nk = nested.capacities.get((k, h))
            if bk is not None and nk is not None:
                assert nk.value >= bk.value * (1 - 1e-6) - 1e-12


def framed_solve(dom, kern, r, support, resolution):
    """A fresh solve of a sample's problem in its frame at scale r
    (dilation_frame)."""
    X, T = capacity.dilation_frame(dom, support, r)
    framed = replace(support, xs=X, ts=T)
    prob = CapacityProblem(kern, framed,
                           *constraint_points(framed, dom.metric, resolution))
    return wc.solve_capacity(prob)


def test_nested_table_reuses_certified_solves(m1, heis, monkeypatch):
    """Nested halfspace rings at different levels are exact dilates of one
    another, so each ring is solved in the frame of z0 at its own scale
    r = lam^(k/2), and a table solves only the framed problems it has not
    met.  Every entry is r^Q times a fresh solve of its framed problem (a
    memo hit bit for bit), and within 1e-9 of a solve of the ring in
    place, on the Euclidean line and on the Heisenberg group."""
    calls = counting_solves(monkeypatch)
    lam = 0.25
    for m, K_max, H_max, res in [(m1, 5, 40, 3), (heis, 3, 4, 2)]:
        dom = wc.halfspace_time(m, t0=0.0, t_top=1.0)
        calls.clear()
        tab = wc.series_table(dom, lam, 0.25, 0.5, "nested", K_max=K_max,
                              H_max=H_max, resolution=res)
        assert not tab.failed
        reused = [kh for kh, est in tab.capacities.items() if est.reused]
        assert reused and len(calls) == len(tab.capacities) - len(reused)
        kern = wc.GaussianKernel(m, 0.25)
        for (k, h), est in tab.capacities.items():
            prob = wc.build_problem(
                dom, RingTarget(RingSpec(lam, k, h, "nested")), kern, res)
            r = lam ** (k / 2.0)
            fresh = framed_solve(dom, kern, r, prob.support, res)
            rQ = r ** m.Q
            assert (est.value, est.dual_value, est.gap) == (
                fresh.value * rQ, fresh.dual_value * rQ, fresh.gap * rQ)
            assert np.array_equal(est.mu, fresh.mu * rQ)
            if est.reused:
                assert est.lp_rounds == est.lp_iterations == est.lp_rows == 0
            in_place = wc.solve_capacity(prob)
            assert est.value == pytest.approx(in_place.value, rel=1e-9)


@pytest.mark.parametrize("kind, names, bounds, K_max, H_max, res", [
    ("euclidean", wc.benchmark_names(), wc.euclidean_bounds(1, 2.0), 8, 8, 3),
    ("heisenberg-koranyi", ["halfspace", "cylinder-top", "cone"],
     wc.GaussBounds(1.0, 0.25, 0.25, 16.0), 3, 8, 2)],
    ids=["euclidean1", "koranyi"])
def test_no_ring_falls_below_the_uniform_packing(kind, names, bounds, K_max,
                                                 H_max, res):
    """The uniform measure on a ring's framed sample, scaled so that its
    potential is at most 1 on the constraint grid, is a feasible packing:
    n / max(K 1) r^Q bounds the ring's capacity from below with no solver.
    Every ring of both series tables reaches it, up to the gap gate."""
    metric = (wc.euclidean(1) if kind == "euclidean"
              else wc.heisenberg_koranyi())
    a, b = bounds.exponents(None, None)
    lam = 0.25
    rings = 0
    for name in names:
        dom = wc.benchmark(name, metric)
        for variant in ("sufficient", "necessary"):
            tab = wc.series_table(dom, lam, a, b, variant, K_max=K_max,
                                  H_max=H_max, resolution=res)
            assert not tab.failed
            kern = wc.GaussianKernel(metric, tab.kernel_exponent)
            for (k, h), est in tab.capacities.items():
                support = wc.sample_set_and_measure(
                    dom, RingTarget(RingSpec(lam, k, h)), res)
                r = lam ** (k / 2.0)
                X, T = capacity.dilation_frame(dom, support, r)
                framed = replace(support, xs=X, ts=T)
                cx, ct = constraint_points(framed, metric, res)
                K = kern.matrix(cx, ct, X, T)
                assert K.shape == (est.n_constraints, est.n_atoms)
                uniform = K.shape[1] / K.sum(axis=1).max() * r ** metric.Q
                assert uniform <= est.value * (1.0 + capacity.GAP_TOLERANCE)
                rings += 1
    assert rings > 0


def test_comparability_is_independent_of_a_dyadic_shift(monkeypatch):
    """Translating z0 by t0 = j/64 moves every ring by a dyadic shift, so
    the framed problems, the LPs solved and the constants are the same
    for every j, bit for bit."""
    calls = counting_solves(monkeypatch)
    runs = []
    for j in (-20, 0, 7):
        t0 = j / 64.0
        dom = wc.halfspace_time(wc.euclidean(1), t0=t0, t_top=t0 + 1.0)
        calls.clear()
        rep = wc.lambda_comparability(dom, 0.25, 0.5, 0.25, 0.5, (2, 3, 4, 5),
                                      resolution=3)
        runs.append((rep.constants, len(calls)))
    assert runs[0][1] > 0
    assert runs[1] == runs[0] and runs[2] == runs[0]


@pytest.mark.parametrize("variant", ["sufficient", "necessary"])
def test_series_samples_each_level_in_one_pass(m1, monkeypatch, variant):
    """Bands of a level are sampled in at most one vectorized pass, and
    only nonempty rings the memo has not met get a constraint grid and a
    solve."""
    solves = counting_solves(monkeypatch)
    grids, passes = [], []
    real_grid, real_keep = capacity.constraint_points, wc.domain._ring_keep

    def counting_grid(*args):
        grids.append(args[0].n)
        return real_grid(*args)

    def counting_keep(dom, lam, k, *args):
        passes.append(k)
        return real_keep(dom, lam, k, *args)

    monkeypatch.setattr(capacity, "constraint_points", counting_grid)
    monkeypatch.setattr(wc.domain, "_ring_keep", counting_keep)
    tab = wc.series_table(wc.benchmark("cylinder-top", m1), 0.25, 1.0, 2.0,
                          variant, K_max=16, resolution=3)
    assert tab.capacities and not tab.failed
    assert len(solves) == len(grids) == sum(
        not est.reused for est in tab.capacities.values())
    assert all(n > 0 for n in grids)
    assert sorted(passes) == sorted(set(passes))
    assert set(passes) <= set(range(1, 17))


@given(C=st.floats(1e-30, 1e30), Q=st.sampled_from([3.0, 4.0, 6.0]),
       w=st.floats(0.01, 4.0), lam=st.floats(0.01, 0.99),
       h=st.integers(2, 2000))
def test_row_tail_is_at_least_its_first_term(C, Q, w, lam, h):
    """The fact series_table's tail skip rests on: the summed tail is at
    least its first term, computed as _tail_may_stop computes it."""
    head = wiener._tail_terms(C, Q, lam ** w, np.array([float(h)]))[0]
    assert wiener._row_tail(C, Q, w, lam, h) >= head


def recorded_tables(monkeypatch, run):
    """The series tables `run` builds, and the _row_tail calls made."""
    tables, tails = [], []
    real_table, real_tail = wiener.series_table, wiener._row_tail
    monkeypatch.setattr(wiener, "series_table", lambda *args, **kwargs:
                        tables.append(real_table(*args, **kwargs))
                        or tables[-1])
    monkeypatch.setattr(wiener, "_row_tail", lambda *args:
                        tails.append(args) or real_tail(*args))
    run()
    monkeypatch.setattr(wiener, "series_table", real_table)
    monkeypatch.setattr(wiener, "_row_tail", real_tail)
    return tables, len(tails)


def test_tail_skip_leaves_every_table_as_it_is(m1, bounds1, monkeypatch):
    """With the tail skip patched off (the tail summed after every band
    from 2 on), lambda_comparability's nested halfspace tables and the
    registry domains' sufficient and necessary tables have the same
    terms, truncation bounds and capacities, bit for bit, while the skip
    sums fewer tails."""
    a, b = bounds1.exponents(None, None)

    def run():
        dom = wc.halfspace_time(m1, t0=0.0, t_top=1.0)
        wc.lambda_comparability(dom, 0.25, 0.5, 0.25, 0.5, (2, 3, 4, 5),
                                resolution=3)
        for name in ("halfspace", "cylinder-top", "cone", "cusp-power"):
            for variant in ("sufficient", "necessary"):
                wiener.series_table(wc.benchmark(name, m1), 0.25, a, b,
                                    variant, K_max=16, resolution=3)

    skipped, n_skipped = recorded_tables(monkeypatch, run)
    monkeypatch.setattr(wiener, "_tail_may_stop",
                        lambda C_fit, Q, w, lam, h, running: h >= 2)
    summed, n_summed = recorded_tables(monkeypatch, run)
    assert len(skipped) == len(summed) == 10
    assert n_skipped < n_summed
    for x, y in zip(skipped, summed):
        assert x.terms.tobytes() == y.terms.tobytes()
        assert x.truncation_bound == y.truncation_bound
        assert x.capacities.keys() == y.capacities.keys()
        for key, est in x.capacities.items():
            other = y.capacities[key]
            assert (est.value, est.dual_value) == (other.value,
                                                   other.dual_value)
            assert est.mu.tobytes() == other.mu.tobytes()


def test_nested_partial_value_floors(m1):
    tab = synthetic_table(np.ones((10, 1)), variant="nested")
    assert nested_partial_value(tab, 3.7) == pytest.approx(3.0)
    assert nested_partial_value(tab, 0.5) == 0.0
    assert nested_partial_value(tab, 25.0) == pytest.approx(10.0)


# ---------------------------------------------------------------------------
# integral criterion

SUITE_PROBES = (0.4, 0.28, 0.2, 0.14, 0.1, 0.07, 0.05, 0.035)


def test_integral_halfspace_matches_closed_form():
    """Below the time halfspace every point is complement, so the inner
    integral is (1/b) int_0^inf e^(-b u) d(u^(Q/2)) = Gamma(Q/2 + 1) /
    b^(1 + Q/2) at every time node whose ball the cap (lam^2 - eta^2)^(1/4)
    does not cut: M grows with that slope along log(1/dhat^2), 2.5066 on
    R, 4 on R^2 and 16 on the Koranyi group at b = 1/2.  The spatial
    halfspace keeps the half x_1 <= 0 of each section, and the even grid
    is mirror-symmetric about x0, so its M is half the halfspace's to
    rounding."""
    b = 0.5
    for metric, rel in ((wc.euclidean(1), 1e-3), (wc.euclidean(2), 1e-3),
                        (wc.heisenberg_koranyi(), 5e-3)):
        rep = wc.integral_test(wc.benchmark("halfspace", metric), 0.25, b,
                               SUITE_PROBES)
        Q = metric.Q
        assert rep.divergent
        assert rep.slope == pytest.approx(math.gamma(Q / 2 + 1)
                                          / b ** (1 + Q / 2), rel=rel), Q
        assert rep.inner_truncation == pytest.approx(
            wiener.inner_tail(Q, b, 40.0) * math.log(0.25 / 0.035 ** 2))
        assert rep.inner_truncation < 1e-4
        # probes are listed with decreasing dhat, and M grows as dhat
        # shrinks
        assert all(m <= n + 1e-12
                   for m, n in zip(rep.M_values, rep.M_values[1:]))
        half = wc.integral_test(wc.benchmark("spatial-halfspace", metric),
                                0.25, b, SUITE_PROBES)
        for m, h in zip(rep.M_values, half.M_values):
            assert h == pytest.approx(m / 2, rel=1e-12, abs=0), Q


def test_inner_tail_is_the_incomplete_gamma_tail():
    """inner_tail(Q, b, U) against a direct midpoint sum of its integral
    (Q/2b) int_U^inf u^(Q/2 - 1) e^(-b u) du, and at U = 0 the whole
    Gamma(Q/2 + 1) / b^(1 + Q/2)."""
    for Q, b, U in ((1, 0.5, 40.0), (2, 0.5, 40.0), (4, 0.5, 40.0),
                    (4, 0.25, 64.0), (3, 2.0, 3.0)):
        n = 400000
        h = 400.0 / b / n
        u = U + h * (np.arange(n) + 0.5)
        want = Q / (2 * b) * float(np.sum(u ** (Q / 2 - 1) * np.exp(-b * u))) * h
        assert wiener.inner_tail(Q, b, U) == pytest.approx(want, rel=1e-6)
        assert wiener.inner_tail(Q, b, 0.0) == pytest.approx(
            math.gamma(Q / 2 + 1) / b ** (1 + Q / 2), rel=1e-12)
    assert wiener.inner_tail(1, 1e-300, 1.6e301) == math.inf


def test_integral_cylinder_not_divergent(m1):
    dom = wc.benchmark("cylinder-top", m1)
    rep = wc.integral_test(dom, 0.25, 0.5, probes=[0.2, 0.1, 0.05, 0.02])
    assert not rep.divergent


def reference_integral_inner(dom, lam, b, U, v_grid, resolution):
    """The inner integral point by point: at each time node eta, the
    section's grid laid out cell by cell, each point tested with contains
    and metric.dist, and the Gaussian weights summed in a Python loop."""
    x0, t0 = dom.z0.x, dom.z0.t
    n = 2 ** (resolution + 1)
    inner = np.zeros(v_grid.size)
    for iv, v in enumerate(v_grid):
        eta = math.exp(v)
        if not 0 < eta < lam:
            continue
        R = min(math.sqrt(eta * U), (lam ** 2 - eta ** 2) ** 0.25)
        half = ball_coord_halfwidths(dom.metric, R, x0)
        axes = [x0[i] + half[i] * ((2.0 * np.arange(n) + 1.0 - n) / n)
                for i in range(dom.N)]
        cellvol = float(np.prod(2.0 * half / n))
        total = 0.0
        for x in itertools.product(*axes):
            x = np.array(x)
            if wc.contains(dom, stp(x, t0 - eta)):
                continue
            d = float(wc.dist(dom.metric, x, x0))
            if d * d / eta <= U and d ** 4 + eta ** 2 <= lam ** 2:
                total += cellvol * math.exp(-b * d * d / eta)
        inner[iv] = total / (b * ball_volume(dom.metric, math.sqrt(eta)))
    return inner


@pytest.mark.parametrize("name, metric, kwargs", [
    ("halfspace", wc.euclidean(1), {"resolution": 4}),
    ("cone", wc.euclidean(1), {"resolution": 4}),
    ("cylinder-top", wc.euclidean(1), {"resolution": 4}),
    ("cone", wc.euclidean(2), {"resolution": 3}),
    ("halfspace", wc.heisenberg_koranyi(), {"resolution": 2}),
])
def test_integral_matches_per_target_sections(monkeypatch, name, metric,
                                              kwargs):
    """integral_test's one vectorized pass over all its time nodes matches
    the per-point reference section by section, to summation order; and
    in passes of three time nodes it matches itself."""
    dom = wc.benchmark(name, metric)
    probes = (0.45, 0.35, 0.25, 0.18, 0.12, 0.08, 0.055, 0.04, 0.028, 0.02)
    got = wc.integral_test(dom, 0.25, 0.5, probes, **kwargs)
    cells = (2 ** (kwargs["resolution"] + 1)) ** dom.N
    with monkeypatch.context() as mp:
        mp.setattr(domain, "MAX_SAMPLE_GRID", 3 * cells)
        chunked = wc.integral_test(dom, 0.25, 0.5, probes, **kwargs)
    assert chunked == got
    monkeypatch.setattr(wiener, "_integral_inner", reference_integral_inner)
    want = wc.integral_test(dom, 0.25, 0.5, probes, **kwargs)
    for g, w in zip(got.M_values, want.M_values):
        assert g == pytest.approx(w, rel=1e-12, abs=0)
    assert max(got.M_values) > 0


# the integral's divergent flag per registry benchmark on R, R^2 and the
# Koranyi group, each at its default resolution (8, 5 and 5)
INTEGRAL_DIVERGENT = {
    "halfspace": True, "spatial-halfspace": True, "cylinder-top": False,
    "cone": True, "cusp-power": True, "cusp-loglog": True}
INTEGRAL_DIVERGENT_N2 = dict(INTEGRAL_DIVERGENT, **{"cusp-power": False})


@pytest.mark.parametrize("metric, pinned", [
    (wc.euclidean(1), INTEGRAL_DIVERGENT),
    (wc.euclidean(2), INTEGRAL_DIVERGENT_N2),
    (wc.heisenberg_koranyi(), INTEGRAL_DIVERGENT_N2)])
def test_registry_integral_flags_are_pinned(metric, pinned):
    """The suite's integral call (b = 2 b0 = 1/2, its probes, the default
    resolution) on every registry benchmark gives the pinned flag."""
    got = {name: wc.integral_test(wc.benchmark(name, metric), 0.25, 0.5,
                                  SUITE_PROBES).divergent
           for name in wc.benchmark_names()}
    assert got == pinned


def test_integral_rejects_nonpositive_exponent(m1):
    dom = wc.benchmark("halfspace", m1)
    with pytest.raises(WienerError):
        wc.integral_test(dom, 0.25, 0.0, probes=[0.1])


def test_integral_past_the_point_bound_measures_nothing(m1, monkeypatch):
    """A resolution whose time-node grids would hold more than
    INTEGRAL_MAX_POINTS grid points in all is rejected before any grid is
    built."""
    def unmeasured(*args):
        raise AssertionError("a section was weighed")

    monkeypatch.setattr(wiener, "weighted_section_sums", unmeasured)
    dom = wc.benchmark("halfspace", m1)
    with pytest.raises(WienerError, match="INTEGRAL_MAX_POINTS"):
        wc.integral_test(dom, 0.25, 0.5, [0.1, 0.05], resolution=30)


# ---------------------------------------------------------------------------
# Wiener function and the decay bound

def test_wiener_function_range_and_decay(m1, bounds1):
    dom = wc.benchmark("halfspace", m1)
    kern = wc.GaussianKernel(m1, bounds1.a0)
    probes = wc.axis_probes(dom, [0.2, 0.05, 0.0125])
    west = wc.wiener_function(dom, kern, rho=0.05, L_max=6, probes=probes,
                              resolution=3)
    assert west.W.shape == (3,)
    assert np.all(west.W >= 0)
    assert np.all(west.W <= 0.05 / (1 - 0.05) + 1e-12)
    assert np.all(np.diff(west.W) <= 1e-12)   # smaller dhat => smaller W
    assert np.all((west.V >= -1e-12) & (west.V <= 1 + 1e-9))
    assert west.truncation >= 0


def test_wiener_function_solves_each_framed_complement_once(m1, bounds1,
                                                           monkeypatch):
    """The ball complements of the halfspace are dilates of one another
    about z0, so wiener_function, which solves each in the frame of z0 at
    its scale r = lam^(l/2) with one FramedSolver, solves fewer LPs than
    levels; every level is r^Q times a fresh solve of its framed problem,
    bit for bit."""
    calls = counting_solves(monkeypatch)
    dom = wc.benchmark("halfspace", m1)
    kern = wc.GaussianKernel(m1, bounds1.a0)
    lam, L_max, res = 0.25, 6, 3
    west = wc.wiener_function(dom, kern, rho=0.05, L_max=L_max,
                              probes=wc.axis_probes(dom, [0.2, 0.05]),
                              resolution=res, lam=lam)
    assert 0 < len(calls) < L_max
    assert sorted(west.level_estimates) == list(range(1, L_max + 1))
    for l, est in west.level_estimates.items():
        support = wc.sample_set_and_measure(
            dom, wc.BallComplementTarget(l, lam), res)
        r = lam ** (l / 2.0)
        fresh = framed_solve(dom, kern, r, support, res)
        rQ = r ** m1.Q
        assert (est.value, est.dual_value, est.gap) == (
            fresh.value * rQ, fresh.dual_value * rQ, fresh.gap * rQ)
        assert np.array_equal(est.mu, fresh.mu * rQ)


def test_wiener_function_rejects_bad_rho(m1, bounds1):
    dom = wc.benchmark("halfspace", m1)
    kern = wc.GaussianKernel(m1, bounds1.a0)
    with pytest.raises(WienerError):
        wc.wiener_function(dom, kern, rho=1.0, L_max=3,
                           probes=wc.axis_probes(dom, [0.1]))


def test_bound_check_on_cone(m1, bounds1):
    dom = wc.benchmark("cone", m1)
    kern = wc.GaussianKernel(m1, bounds1.a0)
    probes = wc.axis_probes(dom, [0.25 * 2.0 ** -j for j in range(6)])
    rep = wc.bound_check(dom, kern, 0.25, bounds1.a0, 2 * bounds1.b0,
                         rho=0.05, probes=probes, L_max=6, resolution=3)
    assert rep.spearman <= -0.9
    assert math.isfinite(rep.C) and rep.C >= 1.0
    for z, w in zip(rep.Z_values, rep.W_values):
        assert w <= rep.C * math.exp(-z / rep.C) * (1 + 1e-9)


# ---------------------------------------------------------------------------
# scale comparability

def test_lambda_comparability_small(m1):
    dom = wc.benchmark("halfspace", m1)
    rep = wc.lambda_comparability(dom, 0.5, 1.0, lam=0.25, mu=0.5,
                                  s_values=(4, 6), resolution=2)
    assert rep.sigma == pytest.approx(2.0)
    assert all(math.isfinite(c) and c > 0 for c in rep.constants)
    assert rep.stability >= 1.0
    assert rep.constant == max(rep.constants)


def test_lambda_comparability_rejects_equal_scales(m1):
    dom = wc.benchmark("halfspace", m1)
    with pytest.raises(WienerError):
        wc.lambda_comparability(dom, 0.5, 1.0, lam=0.25, mu=0.25,
                                s_values=(4,))
