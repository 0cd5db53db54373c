"""Exterior cone condition and the combined boundary-regularity verdict.

The exterior d-cone condition at z0 with opening M0 and density theta asks
that for every 0 < r <= r0 the time slice at t0 - r^2 leaves at least a
theta-fraction of the ball B_d(x0, M0 r) outside Omega:

    |{x in closed B(x0, M0 r) : (x, t0 - r^2) not in Omega}| >= theta |B(x0, M0 r)|.

It is checked on a dyadic ladder of radii by midpoint-grid counting.  The
classifier then works down a decision list: cone condition satisfied =>
REGULAR; sufficient series divergent => REGULAR; necessary series
convergent => IRREGULAR; otherwise INCONCLUSIVE.  PARTIAL capacity tables
never decide: they force INCONCLUSIVE unless the cone already fired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import DomainSpec, contains_many
from .kernel import GaussBounds
from .metric import ball_coord_halfwidths, ball_volume, dist
from .wiener import SeriesReport, divergence_verdict, series_table


class RegularityError(ValueError):
    pass


@dataclass
class ConeReport:
    M0: float
    r0: float
    theta_min: float
    radii: list
    theta_hats: list
    skipped: list          # radii whose slice fell outside the strip/bbox
    theta: float           # min over tested radii (inf if none tested)
    satisfied: bool
    resolution: int


def cone_check(dom: DomainSpec, M0: float = 1.0, r0: float = 0.25,
               r_levels: int = 6, theta_min: float = 0.01,
               resolution: int = 7) -> ConeReport:
    """Estimate the excluded-density profile theta_hat(r) on radii
    r0, r0/2, ..., r0/2^(r_levels-1) and test min >= theta_min."""
    if M0 <= 0 or r0 <= 0 or not (0 < theta_min < 1):
        raise RegularityError("need M0 > 0, r0 > 0, theta_min in (0, 1)")
    x0, t0 = dom.z0.x, dom.z0.t
    radii, thetas, skipped = [], [], []
    cells = 2 ** resolution + 1
    for j in range(r_levels):
        r = r0 * 2.0 ** (-j)
        t_slice = t0 - r * r
        if t_slice <= dom.strip[0]:
            skipped.append(r)
            continue
        R = M0 * r
        half = ball_coord_halfwidths(dom.metric, R)
        axes = [np.linspace(x0[i] - half[i], x0[i] + half[i], cells + 1)
                for i in range(dom.N)]
        axes = [0.5 * (ax[:-1] + ax[1:]) for ax in axes]
        mesh = np.meshgrid(*axes, indexing="ij")
        X = np.stack([m.reshape(-1) for m in mesh], axis=-1)
        cellvol = float(np.prod([2.0 * half[i] / cells for i in range(dom.N)]))
        in_ball = dist(dom.metric, X, x0[None, :]) <= R
        outside = ~contains_many(dom, X, np.full(X.shape[0], t_slice))
        excluded = float(np.sum(in_ball & outside)) * cellvol
        vol = ball_volume(dom.metric, x0, R)
        radii.append(r)
        thetas.append(excluded / vol)
    theta = min(thetas) if thetas else math.inf
    satisfied = bool(thetas) and all(th >= theta_min for th in thetas)
    return ConeReport(M0, r0, theta_min, radii, thetas, skipped, theta,
                      satisfied, resolution)


@dataclass
class Classification:
    verdict: str               # REGULAR | IRREGULAR | INCONCLUSIVE
    basis: str                 # cone | sufficient-series | necessary-series | none
    cone: ConeReport
    sufficient: SeriesReport | None
    necessary: SeriesReport | None
    structural_constant: float
    notes: list = field(default_factory=list)


def classify(dom: DomainSpec, bounds: GaussBounds, lam: float = 0.25,
             a: float | None = None, b: float | None = None,
             K_max: int = 40, H_max: int = 40, resolution: int = 4,
             cone_M0: float = 1.0, cone_r0: float = 0.25,
             cone_levels: int = 6, cone_theta_min: float = 0.01,
             cone_resolution: int = 7,
             tolerance: float = 1e-6) -> Classification:
    """Three-step verdict for the marked boundary point of dom.

    Exponents default to a = a0 (capacities) and b = 2 b0 (weights), the
    admissible corner of the two-sided bound; explicit values are checked
    against a <= a0 < b and b >= b0 before the series are trusted.
    """
    from .kernel import structural_constant

    a = bounds.a0 if a is None else a
    b = 2.0 * bounds.b0 if b is None else b
    if not (a <= bounds.a0):
        raise RegularityError(f"capacity exponent a={a} must be <= a0={bounds.a0}")
    if not (b > bounds.b0):
        raise RegularityError(f"weight exponent b={b} must be > b0={bounds.b0}")
    notes = []
    cone_rep = cone_check(dom, cone_M0, cone_r0, cone_levels,
                          cone_theta_min, cone_resolution)
    if cone_rep.satisfied:
        return Classification("REGULAR", "cone", cone_rep, None, None,
                              structural_constant(bounds), notes)
    kw = dict(K_max=K_max, H_max=H_max, resolution=resolution,
              tolerance=tolerance)
    suff = divergence_verdict(
        series_table(dom, lam, a, b, "sufficient", **kw))
    if suff.verdict == "DIVERGENT" and not suff.table_partial:
        return Classification("REGULAR", "sufficient-series", cone_rep, suff,
                              None, structural_constant(bounds), notes)
    nec = divergence_verdict(
        series_table(dom, lam, a, b, "necessary", **kw))
    if nec.verdict == "CONVERGENT" and not nec.table_partial:
        return Classification("IRREGULAR", "necessary-series", cone_rep, suff,
                              nec, structural_constant(bounds), notes)
    if suff.table_partial or nec.table_partial:
        notes.append("capacity table PARTIAL: verdict withheld")
    return Classification("INCONCLUSIVE", "none", cone_rep, suff, nec,
                          structural_constant(bounds), notes)
