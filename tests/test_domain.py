"""Domains, ring sets, sections, masks, and grid sampling."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import wienercap as wc
from wienercap import domain
from wienercap.domain import (BallComplementTarget, RingSpec, RingTarget,
                              SectionTarget, contains_many,
                              max_nonempty_band, measure_standard_error,
                              ring_mask, ring_samples, sample_set_and_measure)
from wienercap.metric import (ball_coord_halfwidths, dist,
                              parabolic_dist_many, stp)


# ---------------------------------------------------------------------------
# membership logic per family

def test_halfspace_membership(m1):
    dom = wc.benchmark("halfspace", m1)
    assert wc.contains(dom, stp([0.0], 0.5))
    assert not wc.contains(dom, stp([0.0], 0.0))
    assert not wc.contains(dom, stp([0.3], -0.2))


def test_spatial_halfspace_membership(m1):
    dom = wc.benchmark("spatial-halfspace", m1)
    assert wc.contains(dom, stp([0.5], 0.0))
    assert not wc.contains(dom, stp([-0.5], 0.0))
    assert not wc.contains(dom, stp([0.0], 0.0))


def test_cylinder_membership(m1):
    dom = wc.cylinder(m1, radius=0.4, t1=-1.0, t2=0.0)
    assert wc.contains(dom, stp([0.0], -0.5))
    assert not wc.contains(dom, stp([0.45], -0.5))
    assert not wc.contains(dom, stp([0.0], 0.0))   # top face closed out
    assert not wc.contains(dom, stp([0.0], 0.2))   # above the cylinder


def test_cone_exclusion_is_exact(m1):
    """At depth r^2 the excluded spatial fraction of B(x0, M0 r) is theta."""
    dom = wc.cone(m1, M0=1.0, theta=0.5, depth=0.25)
    r = 0.3
    xs = np.linspace(-r, r, 4001)[:, None]
    ts = np.full(xs.shape[0], dom.z0.t - r * r)
    frac = 1.0 - contains_many(dom, xs, ts).mean()
    assert frac == pytest.approx(0.5, abs=2e-3)


def test_cusp_power_profile(m1):
    dom = wc.cusp(m1, profile="power", p=1.0)
    s = 0.01
    w = s ** 1.0
    t = dom.z0.t - s
    assert not wc.contains(dom, stp([0.5 * w], t))
    assert wc.contains(dom, stp([1.5 * w], t))


def test_cusp_loglog_profile(m1):
    dom = wc.cusp(m1, profile="loglog", c=1.0)
    s = 1e-3
    w = math.sqrt(s * math.log(math.log(1.0 / s)))
    t = dom.z0.t - s
    assert not wc.contains(dom, stp([0.9 * w], t))
    assert wc.contains(dom, stp([1.1 * w], t))


def test_punctured_single_slice(m1):
    dom = wc.punctured(m1, radius=0.25, tau=0.0)
    assert not wc.contains(dom, stp([0.1], 0.0))
    assert wc.contains(dom, stp([0.1], 0.01))
    assert wc.contains(dom, stp([0.1], -0.01))
    assert wc.contains(dom, stp([0.5], 0.0))


# ---------------------------------------------------------------------------
# membership against a frozen copy of its formulas

def _frozen_dist(metric, x, y):
    """The Euclidean norm and the Koranyi gauge of x^{-1} o y."""
    x, y = np.broadcast_arrays(x, y)
    if metric.kind == "euclidean":
        return np.sqrt(np.sum((x - y) ** 2, axis=-1))
    x1, x2, x3 = np.moveaxis(x, -1, 0)
    y1, y2, y3 = np.moveaxis(y, -1, 0)
    u1, u2, u3 = y1 - x1, y2 - x2, (y3 - x3) - 0.5 * (x1 * y2 - x2 * y1)
    return ((u1 ** 2 + u2 ** 2) ** 2 + 16.0 * u3 ** 2) ** 0.25


def frozen_contains(dom, x, t):
    """Membership of the one point (x, t), written out condition by
    condition as a fixed copy of the formulas contains_many must keep."""
    X = np.asarray(x, dtype=float)[None, :]
    T = np.array([t], dtype=float)
    if np.any(T < domain.STRIP[0]) or np.any(T > domain.STRIP[1]):
        raise wc.DomainError("query point outside the strip of validity")
    inside = (T > dom.t_lo) & (T < dom.t_hi)
    inside &= np.all(X > dom.x_lo, axis=-1) & np.all(X < dom.x_hi, axis=-1)
    p, f = dom.params, dom.family
    if f == "halfspace-time":
        inside &= T > p["t0"]
    elif f == "spatial-halfspace":
        inside &= X[..., 0] > p["wall"]
    elif f == "cylinder":
        d = _frozen_dist(dom.metric, X, np.asarray(p["center"])[None, :])
        inside &= (d < p["radius"]) & (T > p["t1"]) & (T < p["t2"])
    elif f in ("cone", "cusp"):
        s = dom.z0.t - T
        d = _frozen_dist(dom.metric, X, dom.z0.x[None, :])
        if f == "cone":
            aper = p["M0"] * p["theta"] ** (1.0 / dom.metric.Q)
            edge = aper * np.sqrt(np.maximum(s, 0.0))
        elif p["profile"] == "power":
            edge = np.power(np.maximum(s, 0.0), p["p"])
        else:
            u = np.maximum(s, 0.0)
            ok = (u > 1e-12) & (u < math.exp(-1.0))
            ui = np.where(ok, u, 0.1)
            edge = np.where(ok, np.sqrt(p["c"] * ui * np.log(np.log(1.0 / ui))),
                            0.0)
        inside &= ~((s >= 0) & (s <= p["depth"]) & (d <= edge))
    elif f == "punctured":
        d = _frozen_dist(dom.metric, X, np.asarray(p["center"])[None, :])
        inside &= ~((T == p["tau"]) & (d <= p["radius"]))
    elif f == "mask":
        coords = np.concatenate([X, T[:, None]], axis=-1)
        idx = np.floor((coords - p["origin"]) / p["spacing"]).astype(int)
        shape = np.array(dom.mask_grid.shape)
        ok = np.all((idx >= 0) & (idx < shape), axis=-1)
        idx = np.clip(idx, 0, shape - 1)
        inside &= ok & dom.mask_grid[tuple(idx[:, i]
                                           for i in range(idx.shape[1]))]
    return bool(inside[0])


def _membership_domains(metric, tmp_path):
    doms = [wc.halfspace_time(metric), wc.spatial_halfspace(metric),
            wc.cylinder(metric, radius=0.4), wc.cone(metric),
            wc.cusp(metric, profile="power", p=1.0),
            wc.cusp(metric, profile="loglog", c=1.0),
            wc.punctured(metric, radius=0.5)]
    if metric.kind == "euclidean":
        rng = np.random.default_rng(metric.N)
        grid = rng.random((12,) * (metric.N + 1)) < 0.9
        path = tmp_path / f"random{metric.N}.mask"
        wc.write_mask(path, grid, [-1.0] * (metric.N + 1),
                      [0.1875] * (metric.N + 1))
        doms.append(wc.mask_domain(path, metric, stp([-1.0] * metric.N, 0.0)))
    return doms


def _edge_times(dom):
    """The times at which a condition of membership changes."""
    p = dom.params
    ts = [dom.t_lo, dom.t_hi, dom.z0.t, *domain.STRIP]
    ts += [p[k] for k in ("t0", "t1", "t2", "tau") if k in p]
    if "depth" in p:
        ts.append(dom.z0.t - p["depth"])
    return ts


def _edge_points(dom, t, rng, n):
    """n random points near z0 and the rows on the edges of the bbox, the
    wall, the radius and the exclusion at time t."""
    x0, N, p = dom.z0.x, dom.N, dom.params
    X = [x0 + rng.uniform(-0.6, 0.6, size=(n, N)),
         rng.uniform(dom.x_lo - 0.2, dom.x_hi + 0.2, size=(n, N)),
         np.stack([dom.x_lo, dom.x_hi, x0])]
    for i in range(N):     # one face of the bbox at a time
        for face in (dom.x_lo[i], dom.x_hi[i]):
            X.append(x0.copy()[None, :])
            X[-1][0, i] = face
    e1 = np.eye(N)[0]
    radii = [p[k] for k in ("wall", "radius") if k in p]
    s = max(dom.z0.t - t, 0.0)
    if dom.family == "cone":
        radii.append(p["M0"] * p["theta"] ** (1.0 / dom.metric.Q)
                     * math.sqrt(s))
    if dom.family == "cusp" and p["profile"] == "power":
        radii.append(s ** p["p"])
    center = np.asarray(p.get("center", x0))
    X.append(np.stack([center + r * e1 for r in radii] or [x0]))
    return np.concatenate(X)


@pytest.mark.parametrize("metric", [wc.euclidean(1), wc.euclidean(2),
                                    wc.heisenberg_koranyi()],
                         ids=["R1", "R2", "koranyi"])
def test_membership_matches_frozen_formulas(metric, tmp_path):
    """contains_many and contains_runs agree with frozen_contains bit for
    bit, one point at a time: random points near z0 and over the bbox at
    random times, and points on every spatial edge at every edge time."""
    rng = np.random.default_rng(7)
    for dom in _membership_domains(metric, tmp_path):
        lo, hi = domain.STRIP
        times = list(rng.uniform(max(dom.t_lo - 0.2, lo),
                                 min(dom.t_hi + 0.2, hi), size=24))
        times += list(dom.z0.t - rng.uniform(0.0, 0.3, size=24) ** 2)
        times += _edge_times(dom)
        blocks = [_edge_points(dom, t, rng, 6) for t in times]
        counts = [len(B) for B in blocks]
        X = np.concatenate(blocks)
        T = np.repeat(times, counts)
        want = [frozen_contains(dom, x, t) for x, t in zip(X, T)]
        assert contains_many(dom, X, T).tolist() == want, dom.family
        assert domain.contains_runs(dom, X, times, counts).tolist() == want, \
            dom.family
        for t in (lo - 1e-9, hi + 1e-9):
            with pytest.raises(wc.DomainError):
                frozen_contains(dom, dom.z0.x, t)
            with pytest.raises(wc.DomainError):
                contains_many(dom, X[:2], [t, t])
            with pytest.raises(wc.DomainError):
                domain.contains_runs(dom, X[:2], [dom.z0.t, t], [1, 1])


def _unit_ball(N):
    """A dense sample of the open unit ball of R^N, N = 1 or 2."""
    if N == 1:
        return np.linspace(-1.0, 1.0, 2001)[:, None] * (1.0 - 1e-9)
    r, a = np.meshgrid(np.linspace(0.0, 1.0 - 1e-9, 41),
                       np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False))
    return np.stack([(r * np.cos(a)).ravel(), (r * np.sin(a)).ravel()], 1)


@pytest.mark.parametrize("metric", [wc.euclidean(1), wc.euclidean(2)],
                         ids=["R1", "R2"])
def test_clearance_is_a_lower_bound_over_the_window(metric, tmp_path):
    """For random interior points and lattice windows of every family, no
    complement point lies within domain.clearance (fed the window's
    largest cut) at any of the next 16 lattice times that pass the time
    terms, on a dense sample of the open ball.  The dyadic steps and
    start times put the punctured disk's time on some windows' lattice.
    No clearance exceeds domain.clearance_bound, which the walk reads to
    skip clearance where no move can be longer than one step."""
    rng = np.random.default_rng(11)
    ball = _unit_ball(metric.N)
    for dom in _membership_domains(metric, tmp_path):
        positive = 0
        for _ in range(150):
            h = float(rng.choice([2.0 ** -10, 2.0 ** -7]))
            t = dom.z0.t + h * int(rng.integers(-40, 40))
            x = dom.z0.x + rng.uniform(-0.7, 0.7, size=metric.N)
            if not wc.contains(dom, stp(x, t)):
                continue
            window = np.subtract.accumulate(np.r_[t, np.full(16, h)])[1:]
            ok, cut = domain.time_terms(dom, window)
            d = domain.clearance(dom, x[None, :],
                                 None if cut is None else cut.max()[None])[0]
            assert d <= domain.clearance_bound(dom), dom.family
            if dom.family == "mask":
                assert d == 0.0
                continue
            if d < 1e-6:
                continue
            positive += 1
            pts = x + d * ball
            for tk in window[ok]:
                inside = contains_many(dom, pts, np.full(len(pts), tk))
                assert inside.all(), (dom.family, x, t, tk, d)
        assert dom.family == "mask" or positive >= 20, dom.family


# ---------------------------------------------------------------------------
# registry

def test_registry_names_and_boundary_points():
    names = wc.benchmark_names()
    assert set(names) == {"halfspace", "spatial-halfspace", "cylinder-top",
                          "cone", "cusp-power", "cusp-loglog"}
    for name in names:
        dom = wc.benchmark(name)
        wc.validate_boundary_point(dom)   # raises on failure


def test_registry_pinned_statuses_present():
    assert wc.BENCHMARK_STATUS["halfspace"] == "REGULAR"
    assert wc.BENCHMARK_STATUS["cylinder-top"] == "IRREGULAR"
    assert wc.BENCHMARK_STATUS["spatial-halfspace"] == "REGULAR"


def test_benchmark_rejects_unknown_name():
    with pytest.raises(wc.DomainError):
        wc.benchmark("no-such-benchmark")


# ---------------------------------------------------------------------------
# ring sets: independent membership oracle and nesting

def ring_oracle(dom, lam, k, h, variant, x, t):
    """Direct four-condition check, written independently of ring_mask."""
    if contains_many(dom, np.atleast_2d(x), np.atleast_1d(t))[0]:
        return False
    eta = dom.z0.t - t
    if not (lam ** (k + 1) <= eta <= lam ** k):
        return False
    d = float(np.linalg.norm(np.asarray(x) - dom.z0.x))
    if (d ** 4 + eta ** 2) ** 0.25 > math.sqrt(lam):
        return False
    level = math.exp(d * d / eta) if eta > 0 else math.inf
    if level > (1.0 / lam) ** h:
        return False
    if variant == "band" and level < (1.0 / lam) ** (h - 1):
        return False
    return True


@given(st.floats(-0.6, 0.6), st.floats(-0.3, 0.05),
       st.integers(1, 3), st.integers(1, 4),
       st.sampled_from(["band", "nested"]))
def test_ring_mask_matches_oracle(m1, x, t, k, h, variant):
    dom = wc.benchmark("halfspace", m1)
    rs = RingSpec(0.25, k, h, variant)
    got = bool(ring_mask(dom, rs, np.array([[x]]), np.array([t]))[0])
    assert got == ring_oracle(dom, 0.25, k, h, variant, [x], t)


@given(st.floats(-0.6, 0.6), st.floats(-0.3, 0.05),
       st.integers(1, 3), st.integers(1, 4))
def test_nested_ring_is_union_of_bands(m1, x, t, k, h):
    dom = wc.benchmark("halfspace", m1)
    X, T = np.array([[x]]), np.array([t])
    nested = bool(ring_mask(dom, RingSpec(0.25, k, h, "nested"), X, T)[0])
    bands = any(bool(ring_mask(dom, RingSpec(0.25, k, j, "band"), X, T)[0])
                for j in range(1, h + 1))
    assert nested == bands


def test_max_nonempty_band_matches_brute_force():
    lam = 0.25
    L = math.log(1.0 / lam)
    for k in (1, 2, 3, 4):
        etas = np.linspace(lam ** (k + 1), lam ** k, 20001)
        # band h reachable iff (h-1) L eta <= sqrt(lam^2 - eta^2) somewhere
        cap = np.sqrt(np.maximum(lam ** 2 - etas ** 2, 0.0))
        h_brute = int(np.floor(1.0 + (cap / (etas * L)).max()))
        assert max_nonempty_band(lam, k) == h_brute


def test_rings_vanish_beyond_max_band(m1):
    dom = wc.benchmark("halfspace", m1)
    lam, k = 0.25, 2
    h_cap = max_nonempty_band(lam, k)
    s = sample_set_and_measure(dom, RingTarget(RingSpec(lam, k, h_cap + 1)), 4)
    assert s.is_empty()


# ---------------------------------------------------------------------------
# sampling invariants

def test_ring_sample_points_lie_in_ring(m1):
    dom = wc.benchmark("halfspace", m1)
    rs = RingSpec(0.25, 2, 1, "band")
    s = sample_set_and_measure(dom, RingTarget(rs), 4)
    assert s.n > 0
    assert np.all(ring_mask(dom, rs, s.xs, s.ts))
    assert s.measure_estimate == pytest.approx(float(s.weights.sum()),
                                               rel=1e-12)


def test_section_measure_closed_form(m1):
    """Halfspace sections: |E| = 2 min(sqrt(eta log rho), (lam^2-eta^2)^(1/4))."""
    dom = wc.benchmark("halfspace", m1)
    lam = 0.25
    for eta, rho in ((0.05, 2.0), (0.1, 4.0), (0.2, 1.5)):
        tgt = SectionTarget(lam, rho, dom.z0.t - eta)
        s = sample_set_and_measure(dom, tgt, 7)
        want = 2.0 * min(math.sqrt(eta * math.log(rho)),
                         (lam ** 2 - eta ** 2) ** 0.25)
        assert s.measure_estimate == pytest.approx(want, rel=0.02)


# ---------------------------------------------------------------------------
# all bands of one ring level in one pass

def cell_midpoints(c, hw, n):
    """Midpoints of n equal cells over [c - hw, c + hw], as the samplers lay
    them out: c + hw * u with u = (2k + 1 - n) / n, exactly antisymmetric."""
    return c + hw * ((2.0 * np.arange(n) + 1.0 - n) / n)


def reference_ring_sample(dom, rs, resolution):
    """One ring sampled alone on its own space-time meshgrid: the per-ring
    arithmetic that ring_samples must reproduce bit for bit."""
    lam, k, h = rs.lam, rs.k, rs.h
    x0, t0 = dom.z0.x, dom.z0.t
    R = min(math.sqrt(h * (lam ** k) * math.log(1.0 / lam)), math.sqrt(lam))
    half = ball_coord_halfwidths(dom.metric, R, x0)
    cx, ct = 2 ** resolution + 1, 2 ** resolution
    t_lo, t_hi = t0 - lam ** k, t0 - lam ** (k + 1)
    axes = []
    for c, hw, n in [(x0[i], half[i], cx) for i in range(dom.N)] + [
            (0.5 * (t_lo + t_hi), 0.5 * (t_hi - t_lo), ct)]:
        axes.append(cell_midpoints(c, hw, n))
    mesh = [m.reshape(-1) for m in np.meshgrid(*axes, indexing="ij")]
    X, T = np.stack(mesh[:-1], axis=-1), mesh[-1]
    cellvol = float(np.prod([2.0 * half[i] / cx for i in range(dom.N)])) \
        * (t_hi - t_lo) / ct
    keep = ring_mask(dom, rs, X, T)
    return X[keep], T[keep], float(keep.sum() * cellvol)


def _ring_cases():
    """(domain, resolutions) per case: the registry domains on R, R^2 and
    the Heisenberg group, and a lateral (off-axis) Heisenberg cylinder."""
    m1, m2, heis = wc.euclidean(1), wc.euclidean(2), wc.heisenberg_koranyi()
    return ([wc.benchmark(n, m) for m in (m1, m2, heis)
             for n in wc.benchmark_names()]
            + [wc.cylinder(heis, z0="lateral")])


RING_LEVELS = (1, 2, 3, 5, 8)


def test_batched_rings_match_per_ring_samples(monkeypatch):
    """Every band h = 1..min(h_cap + 1, 12) of each level, band and nested,
    at resolutions 2 and 3, equals the per-ring sample exactly; also when
    a pass holds only three bands, so a level spans several passes."""
    lam = 0.25
    nonempty = 0
    for dom in _ring_cases():
        for variant in ("band", "nested"):
            for k in RING_LEVELS:
                hs = range(1, min(max_nonempty_band(lam, k) + 1, 12) + 1)
                for res in (2, 3):
                    want = [sample_set_and_measure(
                        dom, RingTarget(RingSpec(lam, k, h, variant)), res)
                        for h in hs]
                    got = list(ring_samples(dom, lam, k, hs, variant, res))
                    with monkeypatch.context() as mp:
                        mp.setattr(domain, "MAX_SAMPLE_GRID",
                                   3 * (2 ** res + 1) ** dom.N * 2 ** res)
                        chunked = list(ring_samples(dom, lam, k, hs,
                                                    variant, res))
                    case = (dom.family, dom.metric.kind, dom.N, variant, k,
                            res)
                    assert len(got) == len(chunked) == len(hs), case
                    for h, w, g, c in zip(hs, want, got, chunked):
                        for s in (g, c):
                            assert np.array_equal(s.xs, w.xs), (case, h)
                            assert np.array_equal(s.ts, w.ts), (case, h)
                            assert np.array_equal(s.weights, w.weights), \
                                (case, h)
                            assert s.measure_estimate == w.measure_estimate
                            assert s.resolution == res
                            assert math.isnan(s.standard_error)
                        nonempty += w.n > 0
                        if res == 2:
                            xs, ts, meas = reference_ring_sample(
                                dom, RingSpec(lam, k, h, variant), res)
                            assert np.array_equal(w.xs, xs), (case, h)
                            assert np.array_equal(w.ts, ts), (case, h)
                            assert w.measure_estimate == meas, (case, h)
    assert nonempty > 1000


def test_ring_sampler_keeps_its_checks(m1):
    dom = wc.benchmark("halfspace", m1)
    with pytest.raises(wc.DomainError):
        ring_samples(dom, 0.25, 1, [1], "band", 0)
    with pytest.raises(wc.DomainError):
        ring_samples(dom, 0.25, 1, [0, 1], "band", 3)
    with pytest.raises(wc.DomainError):
        ring_samples(dom, 1.5, 1, [1], "band", 3)
    with pytest.raises(wc.DomainError):
        ring_samples(dom, 0.25, 1, [1], "annulus", 3)
    assert list(ring_samples(dom, 0.25, 1, [], "band", 3)) == []


# ---------------------------------------------------------------------------
# complement sections

def reference_section_measure(dom, lam, rho, tau, resolution):
    """One section sampled alone on its own meshgrid: the arithmetic that
    sample_set_and_measure must reproduce bit for bit."""
    eta = dom.z0.t - tau
    if eta <= 0 or eta > lam:
        return 0.0
    r_cap = (lam ** 2 - eta ** 2) ** 0.25 if eta < lam else 0.0
    R = min(math.sqrt(eta * math.log(rho)), r_cap) if r_cap > 0 else 0.0
    if R <= 0:
        return 0.0
    x0 = dom.z0.x
    half = ball_coord_halfwidths(dom.metric, R, x0)
    cells = 2 ** resolution + 1
    axes = []
    for i in range(dom.N):
        axes.append(cell_midpoints(x0[i], half[i], cells))
    X = np.stack([m.reshape(-1) for m in np.meshgrid(*axes, indexing="ij")],
                 axis=-1)
    cellvol = float(np.prod([2.0 * half[i] / cells for i in range(dom.N)]))
    keep = ~contains_many(dom, X, np.full(X.shape[0], tau))
    d = dist(dom.metric, X, x0[None, :])
    keep &= d * d <= eta * math.log(rho)
    keep &= d ** 4 + eta ** 2 <= lam ** 2
    return float(keep.sum() * cellvol)


def _section_cases():
    """(domain, resolution, rho values) per case: log rho = 40 (j/31)^2,
    j = 1..31, every 4th on the Heisenberg group."""
    u = 40.0 * (np.arange(1, 32) / 31.0) ** 2
    rhos = [math.exp(v) for v in u]
    m1, m2, heis = wc.euclidean(1), wc.euclidean(2), wc.heisenberg_koranyi()
    names = wc.benchmark_names()
    return ([(wc.benchmark(n, m1), 8, rhos) for n in names]
            + [(wc.benchmark(n, m2), 5, rhos) for n in names]
            + [(wc.benchmark(n, heis), 5, rhos[::4])
               for n in ("halfspace", "cone")])


# eta = t0 - tau: three inside (0, lam), eta <= 0, eta = lam (zero radius:
# the cap (lam^2 - eta^2)^(1/4) vanishes), just below lam, and eta > lam
SECTION_ETAS = (0.002, 0.03, 0.2, -0.01, 0.0, 0.25,
                math.nextafter(0.25, 0.0), 0.3)


def test_section_samples_match_their_meshgrids():
    lam = 0.25
    for dom, res, rhos in _section_cases():
        for eta in SECTION_ETAS:
            tau = dom.z0.t - eta
            got = [sample_set_and_measure(
                dom, SectionTarget(lam, rho, tau), res).measure_estimate
                for rho in rhos]
            ref = [reference_section_measure(dom, lam, rho, tau, res)
                   for rho in rhos]
            assert got == ref, (dom.family, dom.N, eta)
            if eta in SECTION_ETAS[:3]:
                assert any(m > 0 for m in got), (dom.family, dom.N, eta)
            elif not 0 < eta < lam:
                assert not any(got)


def test_section_sampler_keeps_its_checks(m1):
    dom = wc.benchmark("halfspace", m1)
    with pytest.raises(wc.DomainError):
        sample_set_and_measure(dom, SectionTarget(0.25, 1.0, -0.1), 4)
    with pytest.raises(wc.DomainError):
        sample_set_and_measure(dom, SectionTarget(0.25, 2.0, -0.1), 0)


def test_section_sample_is_centred_on_an_off_axis_koranyi_z0(heis):
    """Below the time halfspace a section is a whole Koranyi ball of radius
    sqrt(eta log rho).  Around a z0 off the vertical axis the sampler's box
    must hold the ball's twist, or the measure falls short."""
    x0 = np.array([0.6, 0.0, 0.0])
    dom = wc.DomainSpec("halfspace-time", heis, {"t0": 0.0}, x0 - 2.0,
                        x0 + 2.0, -1.0, 1.0, stp(x0, 0.0))
    lam, rho, eta = 0.25, math.e, 0.04
    s = sample_set_and_measure(dom, SectionTarget(lam, rho, -eta), 6)
    R = math.sqrt(eta * math.log(rho))
    assert s.measure_estimate == pytest.approx(
        wc.unit_ball_constant(heis) * R ** 4, rel=0.03)


def test_ball_complement_carries_flat_top_slice(m1):
    dom = wc.benchmark("halfspace", m1)
    s = sample_set_and_measure(dom, BallComplementTarget(2, 0.25), 4)
    top = np.abs(s.ts - dom.z0.t) < 1e-12
    assert top.any()
    assert np.all(s.weights[top] == 0.0)
    # measure counts only the volumetric part
    assert s.measure_estimate == pytest.approx(float(s.weights.sum()),
                                               rel=1e-12)
    assert np.all(parabolic_dist_many(m1, s.xs, s.ts, dom.z0)
                  <= 0.25 + 1e-9)


def test_sample_error_estimate_shrinks(m1):
    dom = wc.benchmark("halfspace", m1)
    rs = RingTarget(RingSpec(0.25, 1, 1))
    errs = [measure_standard_error(dom, rs, res) for res in (3, 5)]
    assert errs[1] <= errs[0] + 1e-12


def test_odd_spatial_grid_catches_axis_spike(m1):
    """The center-aligned odd grid samples the axis through x0 exactly."""
    dom = wc.benchmark("cusp-power", m1)
    s = sample_set_and_measure(dom, RingTarget(RingSpec(0.25, 2, 1)), 3)
    assert s.n > 0
    assert np.any(np.all(np.abs(s.xs - dom.z0.x) < 1e-12, axis=1))


@pytest.mark.parametrize("halfwidth", [0.0076074, 0.1, 1.0 / 3.0])
def test_grid_centres_are_exact_and_mirrored(halfwidth):
    """The middle midpoint of an odd grid is its centre exactly, and the
    midpoints about a zero centre are mirror images by bytes, on one axis
    and on the spatial grids of several boxes at once.  Midpoints of
    np.linspace edges put the middle one 4.3e-19 off 0 at hw = 0.0076074."""
    ax = domain.axis_centers(0.0, halfwidth, 257)
    assert ax[128] == 0.0
    assert ax[::-1].tobytes() == (0.0 - ax).tobytes()
    assert domain.axis_centers(0.3, halfwidth, 257)[128] == 0.3
    half = np.array([[halfwidth, 2.0 * halfwidth], [halfwidth, 0.5]])
    S = domain._spatial_grids(np.zeros(2), half, 257)
    assert S.shape == (2, 257 ** 2, 2)
    assert (S[:, 128 * 257 + 128] == 0.0).all()
    assert S[:, ::-1].tobytes() == (0.0 - S).tobytes()


# ---------------------------------------------------------------------------
# parabolic-ball complements and cone slices against their own meshgrids

def _midpoint_mesh(axes):
    """Flattened "ij" meshgrid of the cell midpoints of each (center,
    halfwidth, cells) axis, one column per axis."""
    mids = []
    for c, hw, n in axes:
        mids.append(cell_midpoints(c, hw, n))
    return np.stack([m.reshape(-1) for m in np.meshgrid(*mids,
                                                         indexing="ij")],
                    axis=-1)


def reference_ball_complement_sample(dom, l, lam, resolution):
    """The complement in the parabolic ball of radius lam^(l/2), t <= t0,
    sampled alone on its space-time meshgrid, then the flat top slice at
    t0 at zero weight: (xs, ts, weights, measure), bit for bit."""
    x0, t0 = dom.z0.x, dom.z0.t
    r = lam ** (l / 2.0)
    half = ball_coord_halfwidths(dom.metric, r, x0)
    cx, ct = 2 ** resolution + 1, 2 ** resolution
    t_lo, t_hi = t0 - r * r, t0
    space = [(x0[i], half[i], cx) for i in range(dom.N)]
    P = _midpoint_mesh(space + [(0.5 * (t_lo + t_hi), 0.5 * (t_hi - t_lo),
                                 ct)])
    X, T = P[:, :-1], P[:, -1]
    cellvol = float(np.prod([2.0 * half[i] / cx for i in range(dom.N)])) \
        * (t_hi - t_lo) / ct
    keep = ~contains_many(dom, X, T)
    keep &= parabolic_dist_many(dom.metric, X, T, dom.z0) <= r
    S = _midpoint_mesh(space)
    top = ~contains_many(dom, S, np.full(S.shape[0], t0))
    top &= dist(dom.metric, S, x0[None, :]) <= r
    n, n_top = int(keep.sum()), int(top.sum())
    return (np.concatenate([X[keep], S[top]]),
            np.concatenate([T[keep], np.full(n_top, t0)]),
            np.concatenate([np.full(n, cellvol), np.zeros(n_top)]),
            float(n * cellvol))


def test_ball_complement_samples_match_their_meshgrids():
    lam = 0.25
    nonempty = 0
    for dom in _ring_cases():
        for l in (1, 2, 3, 5):
            for res in (2, 3, 4):
                case = (dom.family, dom.metric.kind, dom.N, l, res)
                s = sample_set_and_measure(dom, BallComplementTarget(l, lam),
                                           res)
                xs, ts, w, meas = reference_ball_complement_sample(
                    dom, l, lam, res)
                assert np.array_equal(s.xs, xs), case
                assert np.array_equal(s.ts, ts), case
                assert np.array_equal(s.weights, w), case
                assert s.measure_estimate == meas, case
                nonempty += meas > 0
    assert nonempty > 100


def reference_cone_thetas(dom, M0, r0, levels, resolution):
    """cone_check's tested radii and excluded densities, each slice ball
    counted alone on its own meshgrid."""
    x0, t0 = dom.z0.x, dom.z0.t
    cells = 2 ** resolution + 1
    radii, thetas = [], []
    for j in range(levels):
        r = r0 * 2.0 ** (-j)
        if t0 - r * r <= domain.STRIP[0]:
            continue
        R = M0 * r
        half = ball_coord_halfwidths(dom.metric, R, x0)
        X = _midpoint_mesh([(x0[i], half[i], cells) for i in range(dom.N)])
        cellvol = float(np.prod([2.0 * half[i] / cells
                                 for i in range(dom.N)]))
        keep = dist(dom.metric, X, x0[None, :]) <= R
        keep &= ~contains_many(dom, X, np.full(X.shape[0], t0 - r * r))
        radii.append(r)
        thetas.append(float(keep.sum()) * cellvol
                      / wc.ball_volume(dom.metric, R))
    return radii, thetas


def test_cone_check_matches_per_slice_meshgrids():
    """Default ladder at resolutions 5 and 7 (7 on R and R^2 only), and a
    ladder whose two widest slices fall below the strip."""
    for dom in _ring_cases():
        runs = [(1.0, 0.25, 6, res) for res in (5, 7)
                if res == 5 or dom.N < 3]
        runs.append((2.0, 6.0, 5, 4))
        for M0, r0, levels, res in runs:
            case = (dom.family, dom.metric.kind, dom.N, M0, r0, res)
            rep = wc.cone_check(dom, M0=M0, r0=r0, r_levels=levels,
                                resolution=res)
            radii, thetas = reference_cone_thetas(dom, M0, r0, levels, res)
            assert rep.radii == radii, case
            assert rep.theta_hats == thetas, case
            assert len(rep.skipped) == levels - len(radii), case
            if r0 > 1.0:
                assert rep.skipped == [6.0, 3.0], case


# ---------------------------------------------------------------------------
# voxel masks

def test_mask_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    grid = rng.random((12, 9)) < 0.6
    origin = np.array([-1.0, 0.0])
    spacing = np.array([0.25, 0.125])
    path = tmp_path / "dom.mask"
    wc.write_mask(path, grid, origin, spacing)
    got, o2, s2 = wc.read_mask(path)
    assert got.dtype == bool
    assert np.array_equal(got, grid)
    assert np.allclose(o2, origin)
    assert np.allclose(s2, spacing)


def test_mask_rejects_garbage(tmp_path):
    path = tmp_path / "bad.mask"
    path.write_bytes(b"something else entirely\n")
    with pytest.raises(wc.DomainError):
        wc.read_mask(path)


def test_erosion_is_strict_interior(tmp_path, m1):
    """mask_domain keeps exactly the voxels whose full 3x3 neighbourhood is
    set, cells outside the grid counting as unset: no kept voxel lacks
    one, and no voxel that has one is dropped."""
    rng = np.random.default_rng(10)
    grid = rng.random((15, 11)) < 0.7
    path = tmp_path / "random.mask"
    wc.write_mask(path, grid, np.full(2, -1.0), np.full(2, 0.125))
    er = wc.mask_domain(path, m1, stp([0.0], 0.0)).mask_grid
    padded = np.pad(grid, 1)
    full = np.array([[padded[i:i + 3, j:j + 3].all() for j in range(11)]
                     for i in range(15)])
    assert np.array_equal(er, full)
    assert er.any() and (grid & ~er).any()


def test_mask_domain_membership(tmp_path, m1):
    grid = np.zeros((32, 32), dtype=bool)
    grid[8:24, 8:24] = True
    origin = np.array([-1.0, -1.0])
    spacing = np.array([0.0625, 0.0625])
    path = tmp_path / "square.mask"
    wc.write_mask(path, grid, origin, spacing)
    dom = wc.mask_domain(path, m1, stp([-0.5 + 8 * 0.0625], -1.0 + 8 * 0.0625))
    # center of the solid block is inside, rim voxels are eroded away
    assert wc.contains(dom, stp([0.0], 0.0))
    assert not wc.contains(dom, stp([-0.45], 0.0))
    assert not wc.contains(dom, stp([0.9], 0.9))
