"""Monte Carlo Perron-Wiener solver: exactness, bias, and decay signatures."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import wienercap as wc
from wienercap import cli, domain, pde
from wienercap.config import parse_config
from wienercap.domain import STRIP, contains, contains_many
from wienercap.metric import dist, stp
from wienercap.pde import (EXIT_KINDS, PDEError, SolutionEstimate, WalkConfig,
                           classify_exit)
from wienercap.report import ReportBundle


def gaussian_data(X, T):
    return np.exp(-np.sum(X * X, axis=-1))


# ---------------------------------------------------------------------------
# exactness and bias checks

def test_constant_data_exact(m1):
    dom = wc.benchmark("halfspace", m1)
    cfg = WalkConfig(beta=2.0, step=1e-3, walkers=500, seed=1)
    est = wc.pwb_solve(dom, lambda X, T: np.ones(X.shape[0]),
                       stp([0.0], 0.3), cfg)
    assert est.value == 1.0
    assert est.std_error == 0.0
    assert est.n_timed_out == 0
    assert est.reliable


def test_linear_data_is_martingale(m1):
    """E[x at exit] equals the starting coordinate for caloric data x."""
    dom = wc.benchmark("halfspace", m1)
    cfg = WalkConfig(beta=2.0, step=1e-3, walkers=4000, seed=2)
    z = stp([0.3], 0.25)
    est = wc.pwb_solve(dom, lambda X, T: X[:, 0], z, cfg)
    assert abs(est.value - 0.3) <= 3 * est.std_error


def test_gaussian_data_closed_form(m1):
    """Starting at (x0, s) above the bottom of the time halfspace, the
    solution of phi = exp(-|x|^2) is (1+4s/beta)^(-1/2) exp(-x0^2/(1+4s/beta))."""
    dom = wc.benchmark("halfspace", m1)
    beta, s, x0 = 2.0, 0.2, 0.1
    cfg = WalkConfig(beta=beta, step=5e-4, walkers=6000, seed=3)
    est = wc.pwb_solve(dom, gaussian_data, stp([x0], s), cfg)
    lam = 1.0 + 4.0 * s / beta
    want = lam ** -0.5 * math.exp(-x0 * x0 / lam)
    # 3 standard errors plus a first-order step-bias allowance
    assert abs(est.value - want) <= 3 * est.std_error + 2.0 * cfg.step ** 0.5 * 0.05


def test_step_halving_consistent(m1):
    dom = wc.benchmark("halfspace", m1)
    z = stp([0.0], 0.15)
    e1 = wc.pwb_solve(dom, gaussian_data, z,
                      WalkConfig(beta=2.0, step=2e-3, walkers=4000, seed=4))
    e2 = wc.pwb_solve(dom, gaussian_data, z,
                      WalkConfig(beta=2.0, step=1e-3, walkers=4000, seed=5))
    combined = math.hypot(e1.std_error, e2.std_error)
    assert abs(e1.value - e2.value) <= 2 * combined + 1e-3


def test_diffusion_time_rescaling(m1):
    """(beta, s) and (beta/2, s/2) walks solve the same boundary problem."""
    dom = wc.benchmark("halfspace", m1)
    ea = wc.pwb_solve(dom, gaussian_data, stp([0.0], 0.2),
                      WalkConfig(beta=2.0, step=1e-3, walkers=5000, seed=6))
    eb = wc.pwb_solve(dom, gaussian_data, stp([0.0], 0.1),
                      WalkConfig(beta=1.0, step=5e-4, walkers=5000, seed=7))
    combined = math.hypot(ea.std_error, eb.std_error)
    assert abs(ea.value - eb.value) <= 3 * combined


def test_solver_deterministic(m1):
    dom = wc.benchmark("halfspace", m1)
    cfg = WalkConfig(beta=2.0, step=1e-3, walkers=800, seed=8)
    z = stp([0.1], 0.2)
    v1 = wc.pwb_solve(dom, gaussian_data, z, cfg).value
    v2 = wc.pwb_solve(dom, gaussian_data, z, cfg).value
    assert v1 == v2


# ---------------------------------------------------------------------------
# exits and guards

def test_halfspace_exits_through_bottom(m1):
    dom = wc.benchmark("halfspace", m1)
    cfg = WalkConfig(beta=2.0, step=1e-3, walkers=500, seed=9)
    est = wc.pwb_solve(dom, gaussian_data, stp([0.0], 0.05), cfg)
    assert est.exit_fractions["bottom"] == pytest.approx(1.0)


def test_narrow_cylinder_exits_laterally(m1):
    dom = wc.cylinder(m1, radius=0.1, t1=-4.0, t2=0.0)
    cfg = WalkConfig(beta=2.0, step=1e-4, walkers=400, seed=10)
    est = wc.pwb_solve(dom, gaussian_data, stp([0.0], -0.1), cfg)
    assert est.exit_fractions["lateral"] > 0.95


def test_solver_rejects_exterior_start(m1):
    dom = wc.benchmark("halfspace", m1)
    cfg = WalkConfig(beta=2.0, step=1e-3, walkers=10, seed=11)
    with pytest.raises(PDEError):
        wc.pwb_solve(dom, gaussian_data, stp([0.0], -0.5), cfg)


def test_solver_euclidean_only(heis):
    dom = wc.halfspace_time(heis)
    cfg = WalkConfig(beta=2.0, step=1e-3, walkers=10, seed=12)
    with pytest.raises(PDEError):
        wc.pwb_solve(dom, gaussian_data, stp([0.0, 0.0, 0.0], 0.5), cfg)


def test_walk_config_validation():
    with pytest.raises(PDEError):
        WalkConfig(beta=0.0)
    with pytest.raises(PDEError):
        WalkConfig(step=-1e-3)
    for field in ("beta", "step", "max_time"):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(PDEError, match="positive and finite"):
                WalkConfig(**{field: bad})
    with pytest.raises(PDEError):
        WalkConfig(walkers=0)


# ---------------------------------------------------------------------------
# boundary decay signatures

def test_halfspace_decay_fit(m1):
    dom = wc.benchmark("halfspace", m1)
    phi = wc.boundary_phi_distance(dom)
    probes = wc.interior_axis_probes(dom, [0.2, 0.1, 0.05, 0.02, 0.01])
    cfg = WalkConfig(beta=2.0, step=1e-3, walkers=2000, seed=13)
    fit = wc.boundary_holder(dom, phi, probes, cfg)
    assert fit.status == "DECAY-FIT"
    gaps = [p.gap for p in fit.probes]
    assert gaps[0] > gaps[-1]


def test_cylinder_top_no_decay(m1):
    """Close to the top cap the solution plateaus at the caloric measure of
    the lateral wall, bounded away from phi(z0) = 0."""
    dom = wc.benchmark("cylinder-top", m1)
    phi = wc.boundary_phi_distance(dom)
    probes = wc.interior_axis_probes(dom, [0.05, 0.03, 0.02, 0.013, 0.008])
    cfg = WalkConfig(beta=2.0, step=2e-4, walkers=2000, seed=14)
    fit = wc.boundary_holder(dom, phi, probes, cfg)
    assert fit.status == "NO-DECAY"
    assert fit.closest_gap_sigma >= 5.0


def test_cylinder_top_no_decay_indicator(m1):
    """With data 0 on the cap and 1 elsewhere the interior solution is
    identically 1: the cap is invisible from below."""
    dom = wc.benchmark("cylinder-top", m1)
    R, t2 = dom.params["radius"], dom.params["t2"]

    def phi(X, T):
        on_cap = (np.abs(T - t2) < 1e-9) & (np.linalg.norm(X, axis=-1) < R)
        return np.where(on_cap, 0.0, 1.0)

    probes = wc.interior_axis_probes(dom, [0.1, 0.05, 0.02])
    cfg = WalkConfig(beta=2.0, step=1e-3, walkers=500, seed=15)
    fit = wc.boundary_holder(dom, phi, probes, cfg, phi0=0.0)
    assert fit.status == "NO-DECAY"
    for p in fit.probes:
        assert p.value == 1.0


def test_classification_probe_supports_both_verdicts(m1):
    """The falsification probe backs the correct verdict on both the
    regular halfspace and the irregular cylinder top."""
    cfg = WalkConfig(beta=1.0, step=1e-3, walkers=1000, seed=16)
    offsets = [0.12 * 0.55 ** j for j in range(8)]
    fit, contra = wc.classification_probe(wc.benchmark("halfspace", m1),
                                          "REGULAR", offsets, cfg)
    assert fit.status == "DECAY-FIT" and not contra
    fit, contra = wc.classification_probe(wc.benchmark("cylinder-top", m1),
                                          "IRREGULAR", offsets, cfg)
    assert fit.status == "NO-DECAY" and not contra
    assert all(p.value == 1.0 for p in fit.probes)


def test_classification_probe_contradicts_false_claims(m1):
    """Claiming IRREGULAR at a regular point is falsified: the cutoff data
    relaxes to zero along the approach."""
    cfg = WalkConfig(beta=1.0, step=1e-3, walkers=1000, seed=17)
    offsets = [0.12 * 0.55 ** j for j in range(8)]
    fit, contra = wc.classification_probe(wc.benchmark("halfspace", m1),
                                          "IRREGULAR", offsets, cfg)
    assert contra and fit.status == "DECAY-FIT"


def test_boundary_phi_cutoff_shape(m1):
    dom = wc.benchmark("halfspace", m1)
    phi = wc.boundary_phi_cutoff(dom, r0=0.1)
    X = np.array([[0.0], [0.05], [0.5]])
    T = np.array([dom.z0.t, dom.z0.t, dom.z0.t])
    assert phi(X, T).tolist() == [0.0, 0.0, 1.0]


# ---------------------------------------------------------------------------
# the batched walker against a plain per-point walk

def reference_pwb_solve(dom, phi, z, cfg):
    """One point walked alone, every walker stepped on every iteration;
    each step draws one normal vector per active walker, in walker order."""
    if dom.metric.kind != "euclidean":
        raise PDEError("the random-walk solver is Euclidean-only")
    if not contains(dom, z):
        raise PDEError("evaluation point must lie inside Omega")
    w, N = cfg.walkers, dom.N
    h = cfg.step
    sigma = math.sqrt(2.0 * h / cfg.beta)
    rng = np.random.default_rng(cfg.seed)
    X = np.tile(z.x, (w, 1))
    T = np.full(w, z.t)
    active = np.ones(w, dtype=bool)
    exit_x = np.zeros((w, N))
    exit_t = np.zeros(w)
    max_steps = int(math.ceil(cfg.max_time / h))
    for _ in range(max_steps):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        Xn = X.copy()
        Xn[idx] += sigma * rng.standard_normal((idx.size, N))
        Tn = T - h
        inside = contains_many(dom, Xn[idx], Tn[idx])
        hit = idx[~inside]
        if hit.size:
            lo = np.zeros(hit.size)
            hi = np.ones(hit.size)
            for _ in range(6):
                mid = 0.5 * (lo + hi)
                Xm = X[hit] + mid[:, None] * (Xn[hit] - X[hit])
                Tm = T[hit] - mid * h
                ins = contains_many(dom, Xm, Tm)
                lo = np.where(ins, mid, lo)
                hi = np.where(ins, hi, mid)
            exit_x[hit] = X[hit] + hi[:, None] * (Xn[hit] - X[hit])
            exit_t[hit] = T[hit] - hi * h
            active[hit] = False
        keep = idx[inside]
        X[keep] = Xn[keep]
        T[keep] = Tn[keep]
    exited = ~active
    n_exited = int(exited.sum())
    n_timed_out = w - n_exited
    if n_exited == 0:
        raise PDEError("no walker exited within the time budget")
    vals = np.asarray(phi(exit_x[exited], exit_t[exited]), dtype=float)
    value = float(vals.mean())
    std_error = float(vals.std(ddof=1) / math.sqrt(n_exited)) if n_exited > 1 else math.inf
    kinds = classify_exit(dom, exit_x[exited], exit_t[exited])
    fracs = {name: float(np.mean(kinds == code))
             for code, name in enumerate(EXIT_KINDS)}
    mean_exit = float(np.mean(z.t - exit_t[exited]))
    return SolutionEstimate(value, std_error, n_exited, n_timed_out, fracs,
                            mean_exit, n_timed_out <= 0.01 * w, cfg)


def _square_mask_domain(path, metric):
    grid = np.zeros((32, 32), dtype=bool)
    grid[4:28, 4:28] = True
    wc.write_mask(path, grid, [-1.0, -1.0], [0.0625, 0.0625])
    return wc.mask_domain(path, metric, stp([-0.75], 0.0))


def _walk_cases(tmp_path):
    """(name, domain, data, points, walk config) per case."""
    m1, m2 = wc.euclidean(1), wc.euclidean(2)
    half = wc.benchmark("halfspace", m1)
    side = wc.spatial_halfspace(m2)
    cone = wc.benchmark("cone", m1)
    top = wc.benchmark("cylinder-top", m1)
    mask = _square_mask_domain(tmp_path / "square.mask", m1)
    thin = wc.cylinder(m1, radius=0.3, t1=-4.0, t2=0.0)
    power = wc.benchmark("cusp-power", m1)
    loglog = wc.benchmark("cusp-loglog", m1)
    disk = wc.punctured(m1, radius=0.5, tau=0.0)
    cone2 = wc.benchmark("cone", m2)
    low = wc.halfspace_time(m1, t0=-7.0)
    return [
        # exit times 0.2 and 0.01: a 20x spread between the two points
        ("halfspace", half, wc.boundary_phi_distance(half),
         [stp([0.0], 0.2), stp([0.0], 0.01), stp([0.1], 0.05)],
         WalkConfig(1.0, 1e-3, 300, 21, 4.0)),
        ("spatial-halfspace", side, wc.boundary_phi_distance(side),
         wc.interior_axis_probes(side, [0.3, 0.1, 0.03]),
         WalkConfig(2.0, 1e-3, 300, 22, 4.0)),
        ("cone", cone, wc.boundary_phi_distance(cone),
         wc.interior_axis_probes(cone, [0.12, 0.04, 0.01]),
         WalkConfig(1.0, 1e-3, 300, 23, 4.0)),
        ("cylinder-top", top, wc.boundary_phi_cutoff(top),
         wc.interior_axis_probes(top, [0.12, 0.04, 0.01]),
         WalkConfig(1.0, 1e-3, 300, 24, 4.0)),
        ("mask", mask, gaussian_data,
         [stp([0.0], 0.0), stp([0.3], -0.2), stp([-0.2], 0.4)],
         WalkConfig(1.0, 1e-3, 300, 25, 4.0)),
        # a budget shorter than many lateral exits: walkers time out
        ("timed-out", thin, gaussian_data,
         [stp([0.0], -0.5), stp([0.2], -1.0)],
         WalkConfig(1.0, 1e-3, 300, 26, 0.03)),
        ("cusp-power", power, wc.boundary_phi_distance(power),
         wc.interior_axis_probes(power, [0.12, 0.04, 0.01]),
         WalkConfig(1.0, 1e-3, 300, 27, 4.0)),
        ("cusp-loglog", loglog, wc.boundary_phi_cutoff(loglog),
         wc.interior_axis_probes(loglog, [0.12, 0.04, 0.01]),
         WalkConfig(1.0, 1e-3, 300, 28, 4.0)),
        # a step of 2^-7 from times on its grid lands exactly on tau, where
        # walkers within the radius exit onto the disk
        ("punctured", disk, gaussian_data,
         [stp([0.0], 0.125), stp([0.3], 0.0625), stp([0.1], 0.25)],
         WalkConfig(1.0, 2.0 ** -7, 300, 29, 4.0)),
        # runs of unequal length: the points lose their walkers at
        # different rates
        ("cone-R2", cone2, wc.boundary_phi_distance(cone2),
         wc.interior_axis_probes(cone2, [0.12, 0.04, 0.01]),
         WalkConfig(1.0, 1e-3, 300, 30, 4.0)),
        # the first point's walkers all exit near -7 on step 10, the
        # second's by step 1500, when the first point's time would be
        # below the strip floor -8
        ("far-apart", low, gaussian_data,
         [stp([0.0], -6.99), stp([0.0], -5.5)],
         WalkConfig(1.0, 1e-3, 300, 31, 4.0)),
    ]


def _same_estimate(a, b):
    return (a.value == b.value and a.std_error == b.std_error
            and a.n_exited == b.n_exited and a.n_timed_out == b.n_timed_out
            and a.exit_fractions == b.exit_fractions
            and a.mean_exit_time == b.mean_exit_time
            and a.reliable == b.reliable and a.config == b.config)


def test_batched_walk_is_bit_identical_to_per_point_walks(tmp_path,
                                                          monkeypatch):
    """With single-step moves the batched walk is the per-point walk."""
    monkeypatch.setattr(pde, "MAX_JUMP", 1)
    for name, dom, phi, zs, cfg in _walk_cases(tmp_path):
        seeds = [cfg.seed + 7919 * j for j in range(len(zs))]
        got = wc.pwb_solve_many(dom, phi, zs, cfg, seeds)
        want = [reference_pwb_solve(dom, phi, z, replace(cfg, seed=s))
                for z, s in zip(zs, seeds)]
        assert all(_same_estimate(g, r) for g, r in zip(got, want)), name
        one = wc.pwb_solve(dom, phi, zs[0], cfg)
        assert _same_estimate(one, want[0]), name
        if name == "halfspace":
            times = [e.mean_exit_time for e in got]
            assert max(times) >= 10.0 * min(times)
        if name == "timed-out":
            assert all(0 < e.n_timed_out < cfg.walkers for e in got)
            assert not any(e.reliable for e in got)
        if name == "punctured":
            assert all(e.exit_fractions["cap"] > 0 for e in got)
        if name == "cone-R2":
            assert len({e.mean_exit_time for e in got}) == len(got)
        if name == "far-apart":
            assert all(e.n_timed_out == 0 for e in got)
            floor = dom.params["t0"]
            assert zs[0].t - (zs[1].t - floor) < STRIP[0]


def test_estimate_equals_its_batched_row_with_moves(tmp_path):
    """With far-field moves on, each point's batched estimate equals its
    walk alone, on every walk case."""
    for name, dom, phi, zs, cfg in _walk_cases(tmp_path):
        seeds = [cfg.seed + 7919 * j for j in range(len(zs))]
        got = wc.pwb_solve_many(dom, phi, zs, cfg, seeds)
        for j, (z, s) in enumerate(zip(zs, seeds)):
            one = wc.pwb_solve(dom, phi, z, replace(cfg, seed=s))
            assert _same_estimate(got[j], one), (name, j)


def test_table_rebuilds_and_carried_distances_leave_the_walk_as_it_is(
        tmp_path, monkeypatch):
    """With far-field moves on, every walk case gives the same estimates
    with its lattice tables rebuilt on every iteration, every
    TABLE_REFRESH iterations and never within the budget.  On every
    move, the distances to the family's centre that the walk hands
    domain.clearance (carried from the last membership test and
    compacted with their walkers) equal metric.dist recomputed on the
    same rows, and cones, cusps, punctured domains and a cylinder wide
    enough for far moves do hand them."""
    wide = wc.cylinder(wc.euclidean(1), radius=1.0, t1=-1.5, t2=0.0)
    cases = _walk_cases(tmp_path) + [
        ("wide-cylinder", wide, gaussian_data,
         [stp([0.1], -0.2), stp([0.0], -0.7), stp([-0.5], -0.05)],
         WalkConfig(1.0, 1e-3, 300, 33, 4.0))]
    real = pde.clearance
    carried = []

    def spy(dom, X, cut, d=None):
        if d is not None:
            c = dom.z0.x if dom.family in ("cone", "cusp") \
                else dom.params["center"]
            assert np.array_equal(d, dist(dom.metric, X, c[None, :]))
            carried.append(len(d))
        return real(dom, X, cut, d)

    monkeypatch.setattr(pde, "clearance", spy)
    default = pde.TABLE_REFRESH
    for name, dom, phi, zs, cfg in cases:
        seeds = [cfg.seed + 7919 * j for j in range(len(zs))]
        beyond = math.ceil(cfg.max_time / cfg.step) + 1
        carried.clear()
        runs = []
        for refresh in (1, default, beyond):
            monkeypatch.setattr(pde, "TABLE_REFRESH", refresh)
            runs.append(wc.pwb_solve_many(dom, phi, zs, cfg, seeds))
        assert all(_same_estimate(a, b) for run in runs[:2]
                   for a, b in zip(run, runs[2])), name
        if name == "wide-cylinder" or dom.family in ("cone", "cusp",
                                                     "punctured"):
            assert carried, name


def test_far_field_walkers_move_many_steps_per_draw(m1, monkeypatch):
    """From 0.2 above the floor of the time halfspace, 2 from its side
    faces, a walker covers the 200 lattice steps in 14 moves while it
    stays within about 1.1 of the axis (16 x 12, 7, then the single step
    that exits through the floor), against 200 single steps."""
    dom = wc.benchmark("halfspace", m1)
    cfg = WalkConfig(1.0, 1e-3, 300, 5, 4.0)
    z = stp([0.0], 0.2)
    (est,), (drawn,), _, _ = _counted_walk(monkeypatch, dom, [z], cfg, [5])
    assert est.exit_fractions["bottom"] == 1.0
    assert 14 * cfg.walkers <= drawn <= 20 * cfg.walkers
    monkeypatch.setattr(pde, "MAX_JUMP", 1)
    (one,), (single,), _, _ = _counted_walk(monkeypatch, dom, [z], cfg, [5])
    assert single == 200 * cfg.walkers
    assert abs(est.mean_exit_time - one.mean_exit_time) < 2e-3


def test_walk_skips_clearance_where_no_move_can_be_longer(tmp_path,
                                                        monkeypatch):
    """The suite's cylinder-top (radius 0.15, below the 0.32 a 2-step move
    needs at the default walk) never calls domain.clearance, and its
    probe bundle file is byte for byte the one a walk that computes
    every clearance writes."""
    dom = wc.benchmark("cylinder-top", wc.euclidean(1))
    walk = cli.walk_config(parse_config("seed = 13"))
    calls = []
    real = pde.clearance

    def spy(*args):
        calls.append(args[1].shape[0])
        return real(*args)

    monkeypatch.setattr(pde, "clearance", spy)
    files, counts = [], []
    for bound in (pde.clearance_bound, lambda dom: math.inf):
        monkeypatch.setattr(pde, "clearance_bound", bound)
        calls.clear()
        fit, _ = pde.classification_probe(dom, "IRREGULAR",
                                          cli.SUITE_PROBE_OFFSETS, walk)
        bundle = ReportBundle(tmp_path / str(len(files)), "probe", "", 13)
        with open(bundle.write_json("cylinder-top_pde_probe.json", fit),
                  "rb") as fh:
            files.append(fh.read())
        counts.append(len(calls))
    assert counts[0] == 0 and counts[1] > 0
    assert files[0] == files[1]


def test_lattice_tables_match_their_definitions(m1):
    """Every entry of the walk's lattice tables against its definition,
    lattice time by lattice time: the times of repeated t - h, their time
    terms, the largest cut over the next MAX_JUMP times, the longest move
    (at most MAX_JUMP, never onto or past a failing time or the budget,
    at least 1) and the budget's end.  Tables rebuilt about later indices
    hold the same entries, and times below the strip fail unevaluated."""
    J = pde.MAX_JUMP
    # the punctured disk's time tau = 0 is on its lattice
    cases = [(wc.benchmark("cone", m1), 0.05, 1e-3, 300),
             (wc.punctured(m1, radius=0.5, tau=0.0), 0.125, 2.0 ** -7, 40),
             (wc.halfspace_time(m1, t0=-7.0), -6.9, 1e-3, 1500)]
    for dom, t, h, max_steps in cases:
        times = [t]
        for _ in range(max_steps):
            times.append(times[-1] - h)
        times = np.array(times)
        held = times >= STRIP[0]
        ok = np.zeros(times.size, dtype=bool)
        cut = np.full(times.size, -np.inf)
        ok[held] = domain.time_terms(dom, times[held])[0]
        c = domain.time_terms(dom, times[held])[1]
        if c is not None:
            cut[held] = c
        cuts = []
        for k0, span in ((0, 0), (7, 5), (max_steps - 20, 3)):
            lat = pde._Lattice(dom, h, max_steps, [times[k0]], [k0], [span])
            for k in range(k0, min(k0 + span + 60, max_steps) + 1):
                e = lat.shift[0] + k
                assert lat.T[e] == times[k] and lat.ok[e] == ok[k]
                if lat.cut is not None:
                    assert lat.cut[e] == cut[k]
                    assert lat.cutmax[e] == cut[k + 1:k + 1 + J].max(
                        initial=-np.inf)
                free = 0
                while (free < J and k + free + 1 <= max_steps
                       and ok[k + free + 1]):
                    free += 1
                assert lat.cap[e] == max(free, 1)
                assert lat.last[e] == (k == max_steps)
            cuts.append(lat.cut is not None)
        assert lat.leaves_strip == (not held.all())
        assert cuts[0] == (dom.family != "halfspace-time")


def test_walk_memory_does_not_grow_with_the_budget(m1):
    """Walkers that exit within 11 steps: a budget of 10^7 steps takes no
    more memory than one of 10^4, since the lattice tables follow the
    walkers, not max_time / step."""
    dom = wc.benchmark("halfspace", m1)
    z = stp([0.0], 0.0105)
    peaks = []
    for max_time in (10.0, 1e4):
        cfg = WalkConfig(1.0, 1e-3, 200, 3, max_time)
        tracemalloc.start()
        est = wc.pwb_solve(dom, gaussian_data, z, cfg)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        assert est.n_exited == cfg.walkers
    assert peaks[1] <= 1.05 * peaks[0] + 4096
    assert peaks[1] < 2 ** 20


def test_walk_below_the_strip_raises_like_the_reference(m1):
    """Walkers that step below a strip floor shared with the bbox raise
    DomainError, batched as in the per-point walk."""
    dom = wc.spatial_halfspace(m1, t0=-6.5)
    assert dom.t_lo == STRIP[0]
    z = stp([0.5], -7.99)
    cfg = WalkConfig(1.0, 1e-3, 50, 32, 4.0)
    with pytest.raises(wc.DomainError):
        reference_pwb_solve(dom, gaussian_data, z, cfg)
    with pytest.raises(wc.DomainError):
        wc.pwb_solve_many(dom, gaussian_data, [z, stp([0.5], -6.0)],
                          cfg, [32, 32])


def test_classification_probe_walks_in_one_batch(m1, monkeypatch):
    def per_point(*args, **kwargs):
        raise AssertionError("per-point walk called")

    monkeypatch.setattr(pde, "pwb_solve", per_point)
    calls = []
    batched = pde.pwb_solve_many

    def counting(*args, **kwargs):
        calls.append(len(args[2]))
        return batched(*args, **kwargs)

    monkeypatch.setattr(pde, "pwb_solve_many", counting)
    offsets = [0.12 * 0.55 ** j for j in range(8)]
    fit, contra = wc.classification_probe(
        wc.benchmark("halfspace", m1), "REGULAR", offsets,
        WalkConfig(1.0, 1e-3, 200, 3, 4.0))
    assert calls == [8]
    assert len(fit.probes) == 8 and not contra


def test_exit_bisection_runs_once_per_batch(m1, monkeypatch):
    """Walkers started 0.0105 and 0.0205 above the floor of the time
    halfspace, with single-step moves, all exit on steps 11 and 21: 21
    stepping calls of contains_at, then 6 contains_many calls for the
    bisection of every exit together, not 6 more for each step that had
    an exit."""
    monkeypatch.setattr(pde, "MAX_JUMP", 1)
    calls = {"contains_at": 0, "contains_many": 0}

    def counting(name):
        real = getattr(pde, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return count

    for name in calls:
        monkeypatch.setattr(pde, name, counting(name))
    zs = [stp([0.0], 0.0105), stp([0.0], 0.0205)]
    ests = wc.pwb_solve_many(wc.benchmark("halfspace", m1), gaussian_data,
                             zs, WalkConfig(1.0, 1e-3, 200, 1, 4.0), [1, 2])
    assert all(e.n_exited == 200 and e.exit_fractions["bottom"] == 1.0
               for e in ests)
    assert calls == {"contains_at": 21, "contains_many": 6}


class _CountingRng:
    """A default_rng whose standard_normal counts the normals it draws."""

    def __init__(self, rng):
        self._rng = rng
        self.drawn = 0

    def standard_normal(self, *args, out=None, **kwargs):
        got = self._rng.standard_normal(*args, out=out, **kwargs)
        self.drawn += got.size
        return got


def _counted_walk(monkeypatch, dom, zs, cfg, seeds):
    """pwb_solve_many with counting stubs: the normals each point's
    generator drew, the rows of every stepping contains_at call and the
    rows of every bisection contains_many call."""
    rngs, steps, bisections = [], [], []
    real_at, real_many = pde.contains_at, pde.contains_many
    real_rng = np.random.default_rng

    def make_rng(seed):
        rngs.append(_CountingRng(real_rng(seed)))
        return rngs[-1]

    def counting_at(dom, X, ok, cut, T):
        steps.append(len(X))
        return real_at(dom, X, ok, cut, T)

    def counting_many(dom, X, T):
        bisections.append(len(T))
        return real_many(dom, X, T)

    monkeypatch.setattr(pde.np.random, "default_rng", make_rng)
    monkeypatch.setattr(pde, "contains_at", counting_at)
    monkeypatch.setattr(pde, "contains_many", counting_many)
    ests = wc.pwb_solve_many(dom, gaussian_data, zs, cfg, seeds)
    monkeypatch.undo()
    return ests, [r.drawn for r in rngs], steps, bisections


def test_each_point_draws_one_normal_per_walker_step(m1, monkeypatch):
    """With single-step moves, a point's generator draws N normals per
    step of each of its active walkers, alone or in a batch, and nothing
    for walkers that exited.  Its walker-steps are the rows of the
    stepping contains_at calls."""
    dom = wc.cylinder(m1, radius=0.3, t1=-4.0, t2=0.0)
    zs = [stp([0.0], -0.5), stp([0.2], -1.0)]
    cfg = WalkConfig(1.0, 1e-3, 300, 30, 4.0)
    seeds = [30 + 7919 * j for j in (0, 1)]
    alone = []
    for z, s in zip(zs, seeds):
        monkeypatch.setattr(pde, "MAX_JUMP", 1)
        (est,), (drawn,), steps, bisections = _counted_walk(
            monkeypatch, dom, [z], cfg, [s])
        assert est.n_exited == cfg.walkers and bisections == [cfg.walkers] * 6
        walker_steps = sum(steps)
        # exits are spread over many steps, so a full block per step
        # would draw several times more
        assert 3 * walker_steps < cfg.walkers * len(steps)
        assert drawn == dom.N * walker_steps
        alone.append(drawn)
    monkeypatch.setattr(pde, "MAX_JUMP", 1)
    _, drawn, steps, _ = _counted_walk(monkeypatch, dom, zs, cfg, seeds)
    assert drawn == alone
    assert sum(drawn) == dom.N * sum(steps)


def test_estimate_does_not_depend_on_its_batch(m1):
    dom = wc.benchmark("cone", m1)
    phi = wc.boundary_phi_distance(dom)
    z0, z1, z2 = wc.interior_axis_probes(dom, [0.04, 0.12, 0.01])
    cfg, seeds = WalkConfig(1.0, 1e-3, 300, 31, 4.0), [31, 31 + 7919]
    a = wc.pwb_solve_many(dom, phi, [z0, z1], cfg, seeds)
    b = wc.pwb_solve_many(dom, phi, [z0, z2], cfg, seeds)
    assert _same_estimate(a[0], b[0])
    assert a[1].mean_exit_time != b[1].mean_exit_time


# ---------------------------------------------------------------------------
# the decay decision rule

def _row(dhat, gap, se):
    return pde.ProbeResult(dhat, gap, gap, se, True)


@pytest.mark.parametrize("closest, status", [
    # cusp-power at seed 2: 0.2467 against 0.5 * 0.4913 = 0.2457, inside
    # the margin, which the rule without one called NO-DECAY
    ((0.2467, 0.00587), "INSUFFICIENT"),
    ((0.30, 0.00587), "NO-DECAY"),
    ((0.20, 0.00587), "DECAY-FIT"),
    # 5 standard errors of its own gap are needed for NO-DECAY as well
    ((0.30, 0.07), "INSUFFICIENT"),
])
def test_decay_status_needs_a_margin(closest, status):
    rows = [_row(0.35, 0.4913, 0.00825), _row(0.19, 0.3732, 0.00746),
            _row(0.043, *closest)]
    assert pde.decay_status(rows)[0] == status


def test_decay_status_boundaries():
    # the margin against half the largest gap, 0.2, in units of
    # se = hypot(0.01, 0.5 * 0.01), on either side of 3
    se = math.hypot(0.01, 0.005)
    rows = [_row(1.0, 0.4, 0.01), _row(0.1, 0.2 - 3.1 * se, 0.01)]
    assert pde.decay_status(rows)[0] == "DECAY-FIT"
    rows = [_row(1.0, 0.4, 0.01), _row(0.1, 0.2 - 2.9 * se, 0.01)]
    assert pde.decay_status(rows)[0] == "INSUFFICIENT"
    rows = [_row(1.0, 0.4, 0.01), _row(0.1, 0.2 + 3.1 * se, 0.01)]
    status, sig = pde.decay_status(rows)
    assert status == "NO-DECAY" and sig == pytest.approx((0.2 + 3.1 * se) / 0.01)


def test_unreliable_probes_are_not_fitted(m1):
    """Walks where more than 1% of walkers time out do not enter the fit,
    however large their gap."""
    dom = wc.cylinder(m1, radius=0.3, t1=-4.0, t2=0.0)
    phi = wc.boundary_phi_distance(dom)
    probes = wc.interior_axis_probes(dom, [0.2, 0.1, 0.05, 0.02])
    cfg = WalkConfig(1.0, 1e-3, 400, 27, 0.03)
    sols = wc.pwb_solve_many(dom, phi, probes, cfg,
                             [27 + 7919 * j for j in range(len(probes))])
    assert all(not s.reliable and s.n_exited > 0 for s in sols)
    assert all(s.value > 3.0 * s.std_error for s in sols)
    fit = wc.boundary_holder(dom, phi, probes, cfg)
    assert not any(p.usable for p in fit.probes)
    assert fit.status == "INSUFFICIENT"
