"""Exterior cone condition and the combined boundary-regularity verdict.

The exterior d-cone condition at z0 with opening M0 and density theta asks
that for every 0 < r <= r0 the time slice at t0 - r^2 leaves at least a
theta-fraction of the ball B_d(x0, M0 r) outside Omega:

    |{x in closed B(x0, M0 r) : (x, t0 - r^2) not in Omega}| >= theta |B(x0, M0 r)|.

It is checked on a dyadic ladder of radii by midpoint-grid counting, with
the slice balls of the ladder measured together
(domain.excluded_slice_measures).  The
classifier then works down a decision list: cone condition satisfied =>
REGULAR; sufficient series divergent => REGULAR; necessary series
convergent => IRREGULAR; otherwise INCONCLUSIVE.  PARTIAL capacity tables
never decide: they force INCONCLUSIVE unless the cone already fired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .domain import STRIP, DomainSpec, excluded_slice_measures
from .kernel import GaussBounds, structural_constant
from .metric import ball_volume
from .wiener import SeriesReport, SeriesTable, divergence_verdict, series_table


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
    if not (0 < M0 < math.inf and 0 < r0 < math.inf and 0 < theta_min < 1):
        raise RegularityError("need finite M0 > 0 and r0 > 0, "
                              "theta_min in (0, 1)")
    if resolution < 1:
        raise RegularityError("resolution must be >= 1")
    if r_levels < 1:
        raise RegularityError("r_levels must be >= 1")
    t0 = dom.z0.t
    if ball_volume(dom.metric, M0 * r0 * 2.0 ** (1 - r_levels)) <= 0.0:
        raise RegularityError(f"r_levels = {r_levels} shrinks the smallest "
                              "ball to zero volume")
    radii, skipped = [], []
    for j in range(r_levels):
        r = r0 * 2.0 ** (-j)
        (skipped if t0 - r * r <= STRIP[0] else radii).append(r)
    balls = [M0 * r for r in radii]
    excluded = excluded_slice_measures(dom, balls, [t0 - r * r for r in radii],
                                       resolution)
    thetas = [e / ball_volume(dom.metric, R)
              for e, R in zip(excluded.tolist(), balls)]
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
    sufficient_table: SeriesTable | None = None   # set when that series ran


def classify(dom: DomainSpec, bounds: GaussBounds, lam: float = 0.25,
             a: float | None = None, b: float | None = None,
             K_max: int = 40, H_max: int = 40, resolution: int = 4,
             cone_M0: float = 1.0, cone_r0: float = 0.25,
             cone_levels: int = 6, cone_theta_min: float = 0.01,
             cone_resolution: int = 7) -> Classification:
    """Three-step verdict for the marked boundary point of dom.

    Exponents default to a = a0 and b = 2 b0 (GaussBounds.exponents), the
    admissible corner of the two-sided bound; either way they are checked
    against a <= a0 and b > b0 before the series are trusted.
    """
    a, b = bounds.exponents(a, b)
    if not (a <= bounds.a0):
        raise RegularityError(f"capacity exponent a={a} must be <= a0={bounds.a0}")
    bounds.check_weight_exponent(b)
    notes = []
    cone_rep = cone_check(dom, cone_M0, cone_r0, cone_levels,
                          cone_theta_min, cone_resolution)
    if cone_rep.satisfied:
        return Classification("REGULAR", "cone", cone_rep, None, None,
                              structural_constant(bounds), notes)
    kw = dict(K_max=K_max, H_max=H_max, resolution=resolution)
    suff_tab = series_table(dom, lam, a, b, "sufficient", **kw)
    suff = divergence_verdict(suff_tab)
    if suff.verdict == "DIVERGENT" and not suff.table_partial:
        return Classification("REGULAR", "sufficient-series", cone_rep, suff,
                              None, structural_constant(bounds), notes,
                              suff_tab)
    nec = divergence_verdict(
        series_table(dom, lam, a, b, "necessary", **kw))
    if nec.verdict == "CONVERGENT" and not nec.table_partial:
        return Classification("IRREGULAR", "necessary-series", cone_rep, suff,
                              nec, structural_constant(bounds), notes,
                              suff_tab)
    if suff.table_partial or nec.table_partial:
        notes.append("capacity table PARTIAL: verdict withheld")
    return Classification("INCONCLUSIVE", "none", cone_rep, suff, nec,
                          structural_constant(bounds), notes, suff_tab)
