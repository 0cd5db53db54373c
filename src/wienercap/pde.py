"""Monte Carlo Perron-Wiener solver for (1/beta) Laplace u - du/dt = 0.

Backward-in-time Euler random walk: from z = (x, t) the walker moves

    X <- X + sqrt(2 h / beta) * xi,   xi ~ N(0, I_N),   t <- t - h,

whose one-step transition density matches the fundamental solution of the
operator, so the first-exit average E[phi(exit)] estimates the
Perron-Wiener solution with boundary data phi.  Exit detection bisects
the last step segment to a time tolerance of step / 64.  Euclidean
domains only: the walk has no intrinsic meaning for the other metrics.

pwb_solve_many walks several points of one domain as one batch under one
walk config, with one seed per point, and pwb_solve is its one-point
case.  Only walkers still inside Omega are stepped, so an iteration costs
what is left of the walk, and the batch runs as many iterations as its
slowest point, not their sum.  Each point keeps its own random stream: on
every step it draws one normal vector from its own generator for each of
its walkers still active, in walker order, so its estimate does not
depend on the other points of the batch and no normal is drawn for a
walker that has exited.  The normal draws bound the cost of a step: the
rest is a few vector passes.  All active walkers of a point have taken
the same number of steps and share one time, so the walk holds one time
per point, and the time conditions of membership are evaluated once per
point and step (domain.contains_runs), only the spatial ones once per
walker.  The walk keeps the last step segment of every exit and bisects
all of them in one pass after the last step: the bisections are
independent of each other, so six membership calls serve the whole
batch.

The boundary-behavior probe fits |u(z) - phi(z0)| against dhat(z, z0)
along an interior approach path; at regular points the Hoelder exponent
of the fit is positive, at irregular points the gap fails to decay
(status NO-DECAY).  The status compares the closest probe's gap with half
the largest gap, and decides only when the difference clears
DECAY_MARGIN_SE combined standard errors one way or the other; a margin
inside that band is INSUFFICIENT, as is a path with fewer than 3 probes
whose walks are reliable and whose gaps exceed 3 standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .domain import DomainSpec, contains, contains_many, contains_runs
from .metric import (SpaceTimePoint, dist, parabolic_dist,
                     parabolic_dist_many, stp)
from .wiener import line_fit


class PDEError(ValueError):
    pass


@dataclass(frozen=True)
class WalkConfig:
    beta: float = 1.0
    step: float = 1e-3
    walkers: int = 2000
    seed: int = 0
    max_time: float = 4.0      # elapsed backward-time budget per walker

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0
                   for v in (self.beta, self.step, self.max_time)):
            raise PDEError("beta, step and max_time must be positive and "
                           "finite")
        if self.walkers < 1:
            raise PDEError("walkers must be >= 1")


EXIT_KINDS = ("bottom", "lateral", "cap")


def _time_floor(dom: DomainSpec) -> float:
    if dom.family == "halfspace-time":
        return dom.params["t0"]
    if dom.family == "cylinder":
        return dom.params["t1"]
    return dom.t_lo


def classify_exit(dom: DomainSpec, X: np.ndarray, T: np.ndarray) -> np.ndarray:
    """0 = bottom (time floor), 1 = lateral (side walls), 2 = cap (obstacle
    or top face)."""
    X = np.atleast_2d(X)
    T = np.atleast_1d(T)
    out = np.full(T.shape[0], 2, dtype=int)
    eps = 1e-12
    lateral = np.any(X <= dom.x_lo + eps, axis=-1) | np.any(X >= dom.x_hi - eps, axis=-1)
    if dom.family == "spatial-halfspace":
        lateral |= X[..., 0] <= dom.params["wall"]
    elif dom.family == "cylinder":
        lateral |= dist(dom.metric, X, np.asarray(dom.params["center"])[None, :]) \
            >= dom.params["radius"]
    out[lateral] = 1
    out[T <= _time_floor(dom) + eps] = 0
    return out


@dataclass
class SolutionEstimate:
    value: float
    std_error: float
    n_exited: int
    n_timed_out: int
    exit_fractions: dict
    mean_exit_time: float
    reliable: bool
    config: WalkConfig


def pwb_solve(dom: DomainSpec, phi, z: SpaceTimePoint,
              cfg: WalkConfig) -> SolutionEstimate:
    """Estimate the Perron-Wiener solution at z from cfg.walkers walks.

    phi is vectorized boundary data: phi(X, T) -> array over rows of X.
    Walkers that exhaust cfg.max_time are excluded from the average; if
    more than 1% time out the estimate is flagged unreliable.
    """
    return pwb_solve_many(dom, phi, [z], cfg, [cfg.seed])[0]


def pwb_solve_many(dom: DomainSpec, phi, zs, cfg: WalkConfig,
                   seeds) -> list[SolutionEstimate]:
    """pwb_solve at each point zs[j] with seed seeds[j], as one batch.

    Only walkers still inside Omega are stepped; a global walker id
    j * walkers + i maps each exit back to walker i of point j.  The
    active walkers stay sorted by global id, so those of point j form one
    run of rows, and point j fills exactly those rows from its own
    default_rng(seeds[j]) on every step: one normal vector per active
    walker, in walker order.  The rows of a run share their point's time,
    which steps down by the same repeated - step as a walker's would, and
    the strip is checked only at the times of runs that still have rows.
    Each estimate so equals a walk of its point alone bit for bit, and
    carries cfg with its point's seed.  Exit segments are bisected
    together after the walk.
    """
    if dom.metric.kind != "euclidean":
        raise PDEError("the random-walk solver is Euclidean-only")
    zs, seeds = list(zs), list(seeds)
    if len(zs) != len(seeds):
        raise PDEError("need one seed per evaluation point")
    if not zs:
        return []
    for z in zs:
        if not contains(dom, z):
            raise PDEError("evaluation point must lie inside Omega")
    P, w, N, h = len(zs), cfg.walkers, dom.N, cfg.step
    sigma = math.sqrt(2.0 * h / cfg.beta)
    rngs = [np.random.default_rng(s) for s in seeds]
    X = np.repeat(np.stack([z.x for z in zs]), w, axis=0)
    step = np.empty_like(X)                # next positions of the active rows
    gid = np.arange(P * w)                 # global ids of the active walkers
    t = np.array([z.t for z in zs], dtype=float)   # each point's walk time
    left = np.full(P, w)                   # active walkers per point
    segs = []                              # (gid, X0, X1, T0) of each exit
    for _ in range(int(math.ceil(cfg.max_time / h))):
        n = gid.size
        if n == 0:
            break
        row = 0
        for rng, k in zip(rngs, left.tolist()):
            rng.standard_normal(out=step[row:row + k])
            row += k
        Xn = step[:n]
        Xn *= sigma
        Xn += X[:n]
        tn = t - h
        live = left > 0
        inside = contains_runs(dom, Xn, tn[live], left[live])
        if np.count_nonzero(inside) == n:
            X, step = step, X
        else:
            out = np.flatnonzero(~inside)
            hit = gid[out]
            owner = hit // w
            segs.append((hit, X[out], Xn[out], t[owner]))
            left -= np.bincount(owner, minlength=P)
            gid = gid[inside]
            np.take(Xn, np.flatnonzero(inside), axis=0, out=X[:gid.size],
                    mode="clip")
        t = tn
    exit_x = np.zeros((P * w, N))
    exit_t = np.zeros(P * w)
    exited = np.zeros(P * w, dtype=bool)
    if segs:
        hit, X0, X1, T0 = (np.concatenate(a) for a in zip(*segs))
        lo = np.zeros(hit.size)
        hi = np.ones(hit.size)
        for _ in range(6):  # to time tolerance h / 64
            mid = 0.5 * (lo + hi)
            Xm = X0 + mid[:, None] * (X1 - X0)
            Tm = T0 - mid * h
            ins = contains_many(dom, Xm, Tm)
            lo = np.where(ins, mid, lo)
            hi = np.where(ins, hi, mid)
        exit_x[hit] = X0 + hi[:, None] * (X1 - X0)
        exit_t[hit] = T0 - hi * h
        exited[hit] = True
    return [_estimate(dom, phi, z, replace(cfg, seed=s),
                      exit_x[j * w:(j + 1) * w], exit_t[j * w:(j + 1) * w],
                      exited[j * w:(j + 1) * w])
            for j, (z, s) in enumerate(zip(zs, seeds))]


def _estimate(dom: DomainSpec, phi, z: SpaceTimePoint, cfg: WalkConfig,
              exit_x: np.ndarray, exit_t: np.ndarray,
              exited: np.ndarray) -> SolutionEstimate:
    """Average phi over the exits of one point's walkers, in walker order."""
    w = cfg.walkers
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


# ---------------------------------------------------------------------------
# boundary behavior

def boundary_phi_distance(dom: DomainSpec):
    """Continuous boundary data phi = min(1, dhat(., z0)); phi(z0) = 0, so
    the solution must decay to 0 along interior probes iff z0 is regular."""
    z0, metric = dom.z0, dom.metric

    def phi(X, T):
        return np.minimum(1.0, parabolic_dist_many(metric, X, T, z0))

    return phi


def boundary_phi_cutoff(dom: DomainSpec, r0: float = 0.1):
    """Indicator data: 1 outside the parabolic r0-ball around z0, else 0.

    At a regular point the solution must relax to 0 along any interior
    approach; a solution pinned near 1 falsifies regularity claims and is
    the expected signature at irregular points whose nearby boundary is
    invisible to backward walks.  r0 must stay below the distance from z0
    to the boundary pieces the walks actually reach, or those pieces are
    zeroed and the probe loses its meaning."""
    metric = dom.metric

    def phi(X, T):
        return (parabolic_dist_many(metric, X, T, dom.z0) >= r0).astype(float)

    return phi


def interior_axis_probes(dom: DomainSpec, offsets) -> list[SpaceTimePoint]:
    """Probes approaching z0 from inside Omega, one per offset s.

    Tries (x0, t0 + s), then (x0, t0 - s), then the spatial offset
    (x0 + s e1, t0) for walls through z0; raises if none is interior."""
    out = []
    for s in offsets:
        s = float(s)
        side = dom.z0.x.copy()
        side[0] += s
        for cand in (stp(dom.z0.x.copy(), dom.z0.t + s),
                     stp(dom.z0.x.copy(), dom.z0.t - s),
                     stp(side, dom.z0.t)):
            if contains(dom, cand):
                out.append(cand)
                break
        else:
            raise PDEError(f"no interior probe at offset {s}")
    return out


@dataclass
class ProbeResult:
    dhat: float
    value: float
    gap: float
    std_error: float
    usable: bool


@dataclass
class HolderFit:
    status: str                  # DECAY-FIT | NO-DECAY | INSUFFICIENT
    alpha0: float
    c: float
    r2: float
    phi0: float
    probes: list = field(default_factory=list)
    closest_gap_sigma: float = math.nan


# combined standard errors by which the closest probe's gap must clear half
# the largest gap (NO-DECAY) or fall short of it (DECAY-FIT)
DECAY_MARGIN_SE = 3.0


def decay_margin(usable: list[ProbeResult]) -> tuple[float, float]:
    """The closest probe's gap minus half the largest gap, and its standard
    error hypot(se_closest, 0.5 * se_largest)."""
    closest = min(usable, key=lambda r: r.dhat)
    widest = max(usable, key=lambda r: r.gap)
    return (closest.gap - 0.5 * widest.gap,
            math.hypot(closest.std_error, 0.5 * widest.std_error))


def decay_status(usable: list[ProbeResult]) -> tuple[str, float]:
    """NO-DECAY, DECAY-FIT or INSUFFICIENT from the usable probes, with the
    closest probe's gap in its own standard errors.

    NO-DECAY needs a closest gap of at least 5 standard errors and a
    decay_margin of at least DECAY_MARGIN_SE of its standard errors;
    DECAY-FIT needs the margin at or below -DECAY_MARGIN_SE of them; a
    margin in between decides nothing."""
    closest = min(usable, key=lambda r: r.dhat)
    sig = closest.gap / closest.std_error if closest.std_error > 0 else math.inf
    margin, se = decay_margin(usable)
    if sig >= 5.0 and margin >= DECAY_MARGIN_SE * se:
        return "NO-DECAY", sig
    if margin <= -DECAY_MARGIN_SE * se:
        return "DECAY-FIT", sig
    return "INSUFFICIENT", sig


def boundary_holder(dom: DomainSpec, phi, probes, cfg: WalkConfig,
                    phi0: float | None = None) -> HolderFit:
    """Fit |u(z) - phi(z0)| ~ c dhat^alpha0 along an approach path.

    Probes whose walk is unreliable (more than 1% of walkers timed out) or
    whose gap is below 3 standard errors are dropped from the fit.  With
    at least 3 usable probes decay_status decides between NO-DECAY
    (irregular signature), a DECAY-FIT and INSUFFICIENT."""
    if phi0 is None:
        phi0 = float(np.asarray(phi(dom.z0.x[None, :],
                                    np.array([dom.z0.t])))[0])
    seeds = [cfg.seed + 7919 * j for j in range(len(probes))]
    rows = []
    for pz, sol in zip(probes, pwb_solve_many(dom, phi, probes, cfg, seeds)):
        gap = abs(sol.value - phi0)
        rows.append(ProbeResult(parabolic_dist(dom.metric, dom.z0, pz),
                                sol.value, gap, sol.std_error,
                                sol.reliable and gap > 3.0 * sol.std_error))
    usable = [r for r in rows if r.usable]
    if len(usable) < 3:
        return HolderFit("INSUFFICIENT", math.nan, math.nan, math.nan,
                         phi0, rows)
    status, sig = decay_status(usable)
    if status == "NO-DECAY":
        return HolderFit(status, 0.0, math.nan, math.nan, phi0, rows, sig)
    if status == "INSUFFICIENT":
        return HolderFit(status, math.nan, math.nan, math.nan, phi0, rows, sig)
    alpha0, log_c, r2 = line_fit(np.log([r.dhat for r in usable]),
                                  np.log([r.gap for r in usable]))
    return HolderFit("DECAY-FIT", alpha0, math.exp(log_c), r2, phi0, rows,
                     sig)


def classification_probe(dom: DomainSpec, verdict: str, offsets,
                         cfg: WalkConfig) -> tuple[HolderFit, bool]:
    """Probe the solution for the signature that would falsify a verdict.

    REGULAR points are probed with distance data, which must decay
    (NO-DECAY contradicts); IRREGULAR points with cutoff data vanishing
    near z0 (boundary_phi_cutoff's default r0), which must stay pinned
    away from 0 (DECAY-FIT contradicts).
    Other verdicts are probed with distance data and never contradicted."""
    probes = interior_axis_probes(dom, offsets)
    if verdict == "IRREGULAR":
        fit = boundary_holder(dom, boundary_phi_cutoff(dom), probes, cfg,
                              phi0=0.0)
        return fit, fit.status == "DECAY-FIT"
    fit = boundary_holder(dom, boundary_phi_distance(dom), probes, cfg)
    return fit, verdict == "REGULAR" and fit.status == "NO-DECAY"
