"""Wiener-type series, the integral criterion, and the decay bound check.

The regularity tests aggregate ring-set capacities into the double series

    S = sum_k sum_h  lam^(w h) * C(ring(k, h)) / |B(x0, lam^(k/2))|

where the kernel exponent and the weight exponent w depend on the variant:

    sufficient:  capacity under G_a, weight lam^(b h), band rings
    necessary:   capacity under G_b, weight lam^(a h), band rings
    nested:      capacity under G_a, weight lam^(b h), nested rings

Divergence of the sufficient series certifies regularity of z0, convergence
of the necessary one certifies irregularity; the nested variant feeds the
partial sums z(lam; s) used by the quantitative decay bound

    W_rho(z) <= C exp(-Z / C),   Z = z(lam; floor(log dhat^2 / log lam)).

W_rho is the discrete Wiener function built from balayage surrogates of
parabolic-ball complements.  The integral criterion replaces capacities by
section measures of the complement and is divergent for cone-like sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate

from .capacity import (CapacityConvergenceError, FramedSolver,
                       potential_many)
from .domain import (BallComplementTarget, DomainSpec, RingSpec,
                     max_nonempty_band, ring_samples, sample_set_and_measure,
                     section_measures)
from .kernel import GaussianKernel
from .metric import SpaceTimePoint, ball_volume, parabolic_dist, stp

VARIANTS = ("sufficient", "necessary", "nested")

# series_table ends a level's band loop once the fitted tail bound falls
# below this fraction of the running sum
SERIES_STOP_REL = 1e-9


class WienerError(ValueError):
    pass


@dataclass
class SeriesTable:
    """Weighted ring-capacity table c[k-1, h-1] plus solve provenance."""

    variant: str
    lam: float
    a: float
    b: float
    K_max: int
    H_max: int
    resolution: int
    terms: np.ndarray                       # (K_max, H_max) weighted terms
    capacities: dict = field(default_factory=dict)   # (k, h) -> CapacityEstimate
    failed: list = field(default_factory=list)       # (k, h) of failed solves
    truncation_bound: float = 0.0
    partial: bool = False

    @property
    def kernel_exponent(self) -> float:
        return self.b if self.variant == "necessary" else self.a

    @property
    def weight_exponent(self) -> float:
        return self.a if self.variant == "necessary" else self.b

    def partial_sums(self) -> np.ndarray:
        """S(K) for K = 1..K_max (cumulative over time levels)."""
        return np.cumsum(self.terms.sum(axis=1))


# _row_tail sums this many terms per vectorized chunk, at most ROW_TAIL_CAP
ROW_TAIL_CHUNK = 64
ROW_TAIL_CAP = 10000


def _tail_terms(C_fit: float, Q: float, r: float,
                hs: np.ndarray) -> np.ndarray:
    """The fitted tail's terms C_fit h^(Q/2) r^h at the bands hs, r = lam^w."""
    return C_fit * hs ** (Q / 2.0) * r ** hs


def _row_tail(C_fit: float, Q: float, w: float, lam: float, h_from: int) -> float:
    """sum_{h >= h_from} C_fit h^(Q/2) lam^(w h), summed to convergence:
    term by term in order (a sequential cumsum per chunk of terms), up to
    and including the first term below 1e-18 of the running sum, and at
    most ROW_TAIL_CAP terms."""
    if C_fit == 0.0:
        return 0.0
    total = 0.0
    r = lam ** w
    for h in range(h_from, h_from + ROW_TAIL_CAP, ROW_TAIL_CHUNK):
        hs = np.arange(h, min(h + ROW_TAIL_CHUNK, h_from + ROW_TAIL_CAP),
                       dtype=float)
        terms = _tail_terms(C_fit, Q, r, hs)
        sums = np.cumsum(np.concatenate(([total], terms)))[1:]
        stop = np.flatnonzero(terms < 1e-18 * np.maximum(sums, 1e-30))
        if stop.size:
            return float(sums[stop[0]])
        total = float(sums[-1])
    return total


def _tail_may_stop(C_fit: float, Q: float, w: float, lam: float, h: int,
                   running: float) -> bool:
    """Whether series_table's stop test after band h needs the tail
    _row_tail(C_fit, Q, w, lam, h + 1) to decide.  The test never stops
    before band 2.  The tail is a float sum of nonnegative terms that
    starts from its first term, so it is at least that term, and when
    C_fit > 0 and that term is at least SERIES_STOP_REL * max(running,
    1e-30) the test does not stop either.  The first term is computed as
    _row_tail computes it, by _tail_terms on a float array."""
    if h < 2:
        return False
    if C_fit == 0.0:
        return True
    head = _tail_terms(C_fit, Q, lam ** w, np.array([h + 1.0]))[0]
    return head < SERIES_STOP_REL * max(running, 1e-30)


def series_table(dom: DomainSpec, lam: float, a: float, b: float,
                 variant: str = "sufficient", K_max: int = 40,
                 H_max: int = 40, resolution: int = 4) -> SeriesTable:
    """Assemble the weighted ring-capacity table.

    Within each time level k the band loop stops once the fitted tail
    bound (capacity ratios grow at most like h^(Q/2), weights decay like
    lam^(w h)) falls below SERIES_STOP_REL of the running sum; the unexplored
    tail is accumulated into truncation_bound.  The tail is summed only
    where it can stop the loop (_tail_may_stop).  The bands 1..min(h_cap,
    H_max) of a level are sampled together, in vectorized passes
    (ring_samples), as the loop reaches them; a ring whose sample is empty
    has an exactly zero term and gets neither a constraint grid nor a
    solve.  Failed solves are recorded and flag the table PARTIAL.

    Each ring is solved by one capacity.FramedSolver at its own scale
    r = lam^(k/2): in the frame of z0 at that scale, with the estimate
    multiplied by r^Q.  Rings at different levels are often exact dilates
    of each other, so the solver's memo, keyed on the exact bytes of each
    framed sample, serves the repeats, marked reused.  The solves share
    the solver's one HiGHS model, held for this call only.
    """
    if variant not in VARIANTS:
        raise WienerError(f"variant must be one of {VARIANTS}")
    if not (0.0 < lam < 1.0):
        raise WienerError("lam must lie in (0, 1)")
    if not (0 < a < math.inf and 0 < b < math.inf):
        raise WienerError("exponents must be positive and finite")
    if K_max < 1 or H_max < 1:
        raise WienerError("K_max and H_max must be >= 1")
    RingSpec(lam, K_max, 1)     # rejects rings below float resolution
    tab = SeriesTable(variant, lam, a, b, K_max, H_max, resolution,
                      np.zeros((K_max, H_max)))
    kern = GaussianKernel(dom.metric, tab.kernel_exponent)
    w = tab.weight_exponent
    ring_variant = "nested" if variant == "nested" else "band"
    Q = dom.metric.Q
    solver = FramedSolver(dom, kern, resolution)
    running = 0.0
    C_fit = 0.0
    for k in range(1, K_max + 1):
        r = lam ** (k / 2.0)
        vol = ball_volume(dom.metric, r)
        h_cap = max_nonempty_band(lam, k)
        samples = ring_samples(dom, lam, k,
                               range(1, min(h_cap, H_max) + 1),
                               ring_variant, resolution)
        stable_ratio = None  # nested variant: capacity freezes past h_cap
        for h in range(1, H_max + 1):
            weight = lam ** (w * h)
            if h > h_cap and ring_variant == "band":
                break
            if h > h_cap and stable_ratio is not None:
                ratio = stable_ratio
            else:
                support = next(samples)
                try:
                    if support.is_empty():
                        if ring_variant == "band":
                            continue
                        ratio = 0.0
                    else:
                        est = solver.solve(support, r)
                        tab.capacities[(k, h)] = est
                        ratio = est.value / vol
                except CapacityConvergenceError as exc:
                    tab.failed.append((k, h))
                    tab.partial = True
                    est = exc.estimate
                    tab.capacities[(k, h)] = est
                    ratio = (est.value / vol) if est is not None else 0.0
                if ring_variant == "nested" and h >= h_cap:
                    stable_ratio = ratio
            term = weight * ratio
            tab.terms[k - 1, h - 1] = term
            running += term
            if ratio > 0:
                C_fit = max(C_fit, ratio / h ** (Q / 2.0))
            if _tail_may_stop(C_fit, Q, w, lam, h, running):
                tail = _row_tail(C_fit, Q, w, lam, h + 1)
                if tail < SERIES_STOP_REL * max(running, 1e-30):
                    tab.truncation_bound += tail
                    break
        else:
            # h loop exhausted H_max: account for the un-walked tail
            tab.truncation_bound += _row_tail(C_fit, Q, w, lam, H_max + 1)
    return tab


# ---------------------------------------------------------------------------
# divergence verdicts

@dataclass
class SeriesReport:
    verdict: str                   # DIVERGENT | CONVERGENT | INCONCLUSIVE
    partial_sums: np.ndarray
    increments: np.ndarray
    growth_ratio: float            # S(K_max) / S(K_max // 2)
    geometric_q: float
    geometric_r2: float
    geometric_tail: float
    thresholds: dict
    table_partial: bool
    truncation_bound: float
    variant: str
    lam: float
    a: float
    b: float


def line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line y ~ slope x + intercept; returns (slope,
    intercept, r2), with r2 = 1 when y is constant."""
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), float(coef[1]), r2


# divergence_verdict's decision thresholds, reported with every verdict
DIVERGENCE_THRESHOLDS = dict(inc_floor_frac=0.1, growth_min=1.5, q_max=0.9,
                             r2_min=0.95, tail_frac=0.05)
# term_tail_fit's fallback tail: this trailing fraction of the nonzero terms
TERM_TAIL_FRAC = 0.5


@dataclass
class TermTailFit:
    """Geometric model fitted to the tail of the flattened term sequence."""

    ratio: float
    r2: float
    n_terms: int
    n_tail: int


def term_tail_fit(tab: SeriesTable) -> TermTailFit:
    """Fit log(term) ~ index over the tail of the nonzero term sequence.

    The tail is the h-run of the deepest time level with at least three
    nonzero terms (the trailing stretch of the series in (k, h) order);
    when no level has such a run the trailing TERM_TAIL_FRAC of the flattened
    nonzero terms is used instead.  A series whose rows are geometric runs
    in h shows up as ratio < 1 with high r2 even when the row sums decay
    faster than geometrically in k."""
    flat = tab.terms.reshape(-1)
    nonzero = flat[flat > 0]
    n = nonzero.size
    if n < 3:
        return TermTailFit(math.nan, math.nan, n, 0)
    tail = None
    for k in range(tab.K_max, 0, -1):
        row = tab.terms[k - 1]
        run = row[row > 0]
        if run.size >= 3:
            tail = run
            break
    if tail is None:
        start = min(n - 3, int(math.floor(n * (1.0 - TERM_TAIL_FRAC))))
        tail = nonzero[start:]
    slope, _, r2 = line_fit(np.arange(tail.size, dtype=float), np.log(tail))
    return TermTailFit(math.exp(slope), r2, n, tail.size)


def divergence_verdict(tab: SeriesTable) -> SeriesReport:
    """Classify the truncated series as DIVERGENT / CONVERGENT / INCONCLUSIVE.

    DIVERGENT: the median increment over the last half of the levels stays
    above inc_floor_frac of the largest increment AND S(K_max) grew by at
    least growth_min over S(K_max/2).  CONVERGENT: the tail is exactly
    zero, or the last-half increments fit a geometric decay with ratio
    <= q_max, fit r2 >= r2_min and a geometric tail bound below tail_frac
    of the total.  Everything else is INCONCLUSIVE.  The thresholds are the
    entries of DIVERGENCE_THRESHOLDS.
    """
    S = tab.partial_sums()
    K = tab.K_max
    inc = tab.terms.sum(axis=1)
    half = K // 2
    last = inc[half:]
    total = float(S[-1])
    S_half = float(S[half - 1]) if half >= 1 else 0.0
    ratio = math.inf if S_half == 0 else total / S_half
    th = DIVERGENCE_THRESHOLDS

    verdict = "INCONCLUSIVE"
    q, r2, tail = math.nan, math.nan, math.nan
    zero_tail = float(last.max(initial=0.0)) <= 1e-12 * max(total, 1e-300)
    if total == 0.0 or zero_tail:
        verdict, q, r2, tail = "CONVERGENT", 0.0, 1.0, 0.0
    else:
        divergent = (float(np.median(last))
                     >= th["inc_floor_frac"] * float(inc.max())
                     and (ratio >= th["growth_min"]))
        if divergent:
            verdict = "DIVERGENT"
        else:
            pos = last > 0
            ks = np.arange(half + 1, K + 1, dtype=float)
            if pos.sum() >= 3:
                slope, _, r2 = line_fit(ks[pos], np.log(last[pos]))
                q = math.exp(slope)
                if q < 1.0:
                    tail = float(last[pos][-1]) * q / (1.0 - q)
                    if (q <= th["q_max"] and r2 >= th["r2_min"]
                            and tail < th["tail_frac"] * total):
                        verdict = "CONVERGENT"
    return SeriesReport(verdict, S, inc, ratio, q, r2, tail, dict(th),
                        tab.partial, tab.truncation_bound, tab.variant,
                        tab.lam, tab.a, tab.b)


# ---------------------------------------------------------------------------
# scale comparability of the nested partial sums

@dataclass
class ComparabilityReport:
    lam: float
    mu: float
    sigma: float
    s_values: list
    z_lam: list
    z_mu: list
    constants: list
    constant: float          # max over s
    stability: float         # max/min over s


def nested_partial_value(tab: SeriesTable, s: float) -> float:
    """z(lam; s): nested-table partial sum through level floor(s)."""
    kf = int(math.floor(s))
    if kf < 1:
        return 0.0
    S = tab.partial_sums()
    return float(S[min(kf, tab.K_max) - 1])


def lambda_comparability(dom: DomainSpec, a: float, b: float, lam: float,
                         mu: float, s_values,
                         resolution: int = 3) -> ComparabilityReport:
    """Empirical constants C(s) = z(lam; s) / (z(mu; sigma s) + 1) with
    sigma = log lam / log mu; one nested table per scale, partial sums
    reused across all s."""
    if not (0 < lam < 1 and 0 < mu < 1) or lam == mu:
        raise WienerError("need distinct scales in (0, 1)")
    sigma = math.log(lam) / math.log(mu)
    s_values = sorted(float(s) for s in s_values)
    K_lam = max(1, int(math.floor(max(s_values))))
    K_mu = max(1, int(math.floor(sigma * max(s_values))))
    t_lam = series_table(dom, lam, a, b, "nested", K_lam,
                         H_max=40, resolution=resolution)
    t_mu = series_table(dom, mu, a, b, "nested", K_mu,
                        H_max=60, resolution=resolution)
    z1 = [nested_partial_value(t_lam, s) for s in s_values]
    z2 = [nested_partial_value(t_mu, sigma * s) for s in s_values]
    consts = [zz1 / (zz2 + 1.0) for zz1, zz2 in zip(z1, z2)]
    pos = [c for c in consts if c > 0]
    stability = (max(pos) / min(pos)) if pos else math.inf
    return ComparabilityReport(lam, mu, sigma, s_values, z1, z2, consts,
                               max(consts) if consts else 0.0, stability)


# ---------------------------------------------------------------------------
# integral criterion

# integral_test calls M divergent when its growth fit reaches this slope
# along log(1/dhat^2) at this r2
INTEGRAL_SLOPE_MIN = 0.05
INTEGRAL_R2_MIN = 0.9
# section grid points one integral_test may measure; at the 25-125 ns a
# point measured on a 2-core x86_64 host, at most about two minutes
INTEGRAL_MAX_POINTS = 2 ** 30

@dataclass
class IntegralReport:
    lam: float
    b: float
    probe_dhats: list
    M_values: list
    slope: float
    slope_r2: float
    divergent: bool
    inner_truncation: float
    U_max: float
    n_u: int
    n_v: int
    resolution: int


def integral_test(dom: DomainSpec, lam: float, b: float, probes,
                  n_u: int = 32, U_max: float | None = None,
                  resolution: int | None = None) -> IntegralReport:
    """Measure-based criterion

        M(z) = int_{dhat^2}^{lam} int_1^inf m(rho, t0 - eta) / |B(x0, sqrt(eta))|
               drho / rho^(1+b) deta / eta

    evaluated by nested log-substituted trapezoid rules; m is the section
    measure of the complement.  The sections of all rho nodes of one time
    node are measured in one vectorized pass over their fine grids
    (section_measures), with no coarse-grid error pass, since M has no
    use for one.  Probes are dhat values, the parabolic distances to z0.  M
    is computed from one shared cumulative grid, so it is exactly
    nonincreasing in dhat; `divergent` reports whether M grows along
    log(1/dhat^2) with slope >= INTEGRAL_SLOPE_MIN at fit quality
    INTEGRAL_R2_MIN.
    """
    if not 0 < b < math.inf:
        raise WienerError("b must be positive and finite")
    if n_u < 2:
        raise WienerError("n_u must be >= 2")
    dhats = [float(dh) for dh in probes]
    if not dhats:
        raise WienerError("no probes: need at least one dhat")
    if not all(0 < dh and dh * dh < lam for dh in dhats):    # NaN fails too
        raise WienerError("probes must satisfy 0 < dhat^2 < lam")
    if resolution is None:
        resolution = 8 if dom.metric.N == 1 else 5
    if U_max is None:
        U_max = max(40.0, 16.0 / b)
    elif not 0 < U_max < math.inf:
        raise WienerError("U_max must be positive and finite")
    Q, c_d = dom.metric.Q, dom.metric.c_d
    v_lo = math.log(min(dh * dh for dh in dhats))
    v_hi = math.log(lam)
    try:
        tail_env, _ = integrate.quad(
            lambda u: (1.0 + c_d * u ** (Q / 2.0)) * math.exp(-b * u),
            U_max, U_max + 400.0 / b)
    except OverflowError:
        tail_env = math.inf
    if not math.isfinite(tail_env * (v_hi - v_lo)):
        raise WienerError(f"b = {b:g}, U_max = {U_max:g} put the inner tail "
                          "bound past the float range")
    n_v = max(33, int(8 * (v_hi - v_lo)) | 1)
    # n_v time nodes of n_u - 1 sections, each on (2^res + 1)^N grid points
    points = n_v * (n_u - 1) * (2 ** resolution + 1) ** dom.metric.N
    if points > INTEGRAL_MAX_POINTS:
        raise WienerError(f"n_u = {n_u} at resolution {resolution} measures "
                          "more than INTEGRAL_MAX_POINTS = 2^30 section grid "
                          "points")
    # quadratic grading resolves the u^(N/2) kink of the integrand at rho=1
    u_grid = U_max * (np.arange(n_u) / (n_u - 1)) ** 2
    v_grid = np.linspace(v_lo, v_hi, n_v)
    inner = _integral_inner(dom, lam, b, u_grid, v_grid, resolution)
    # cumulative from the top so every probe shares one quadrature
    M_cum = np.zeros(n_v)
    for iv in range(n_v - 2, -1, -1):
        M_cum[iv] = M_cum[iv + 1] + 0.5 * (inner[iv] + inner[iv + 1]) \
            * (v_grid[iv + 1] - v_grid[iv])
    M_vals = [float(np.interp(math.log(dh * dh), v_grid, M_cum)) for dh in dhats]
    # growth fit on the closest half of the probes
    order = np.argsort(dhats)
    xs = np.array([math.log(1.0 / dhats[i] ** 2) for i in order])
    ys = np.array([M_vals[i] for i in order])
    sel = xs >= np.median(xs)
    if sel.sum() < 3:
        sel = np.ones_like(sel, dtype=bool)
    slope, r2 = 0.0, 0.0
    if sel.sum() >= 3:
        slope, _, r2 = line_fit(xs[sel], ys[sel])
    return IntegralReport(lam, b, dhats, M_vals, slope, r2,
                          bool(slope >= INTEGRAL_SLOPE_MIN
                               and r2 >= INTEGRAL_R2_MIN),
                          tail_env * (v_hi - v_lo), U_max, n_u, n_v, resolution)


def _integral_inner(dom: DomainSpec, lam: float, b: float,
                    u_grid: np.ndarray, v_grid: np.ndarray,
                    resolution: int) -> np.ndarray:
    """Inner rho-integral of integral_test at each time node eta = e^v,
    with log rho = u handed to the sections as it is, so no e^u is formed;
    the node u = 0 (rho = 1) has a zero Gaussian radius and contributes
    0."""
    t0 = dom.z0.t
    pos = u_grid != 0.0
    damp = np.array([math.exp(-b * u) for u in u_grid[pos]])
    inner = np.zeros(v_grid.size)
    for iv, v in enumerate(v_grid):
        eta = math.exp(v)
        volB = ball_volume(dom.metric, math.sqrt(eta))
        vals = np.zeros(u_grid.size)
        meas = section_measures(dom, lam, u_grid[pos], t0 - eta,
                                resolution)
        vals[pos] = meas / volB * damp
        inner[iv] = float(np.trapezoid(vals, u_grid))
    return inner


# ---------------------------------------------------------------------------
# Wiener function from balayage surrogates

@dataclass
class WienerFunctionEstimate:
    rho: float
    lam: float
    L_max: int
    probes: list
    W: np.ndarray                  # (P,)
    V: np.ndarray                  # (L_max, P) clamped potentials
    truncation: float
    partial: bool
    level_estimates: dict          # l -> CapacityEstimate


def wiener_function(dom: DomainSpec, kernel, rho: float, L_max: int,
                    probes, resolution: int = 4,
                    lam: float = 0.25) -> WienerFunctionEstimate:
    """W(z) = sum_{l=1..L_max} rho^l (1 - V_l(z)) with V_l the clamped
    potential of the discrete equilibrium measure of the parabolic-ball
    complement at scale r = lam^(l/2), solved at that scale by one
    capacity.FramedSolver per call.  Empty complements give V_l = 0."""
    if not (0.0 < rho < 1.0):
        raise WienerError("rho must lie in (0, 1)")
    P = len(probes)
    X = np.stack([pz.x for pz in probes])
    T = np.array([pz.t for pz in probes])
    V = np.zeros((L_max, P))
    level_estimates = {}
    partial = False
    solver = FramedSolver(dom, kernel, resolution)
    for l in range(1, L_max + 1):
        support = sample_set_and_measure(dom, BallComplementTarget(l, lam),
                                         resolution)
        try:
            est = solver.solve(support, lam ** (l / 2.0))
        except CapacityConvergenceError as exc:
            partial = True
            est = exc.estimate
            if est is None:
                continue
        level_estimates[l] = est
        V[l - 1] = np.clip(potential_many(est, support, kernel, X, T), 0.0,
                           1.0)
    weights = rho ** np.arange(1, L_max + 1)
    W = weights @ (1.0 - V)
    truncation = rho ** (L_max + 1) / (1.0 - rho)
    return WienerFunctionEstimate(rho, lam, L_max, list(probes), W, V,
                                  truncation, partial, level_estimates)


# ---------------------------------------------------------------------------
# quantitative decay bound

@dataclass
class BoundCheckReport:
    lam: float
    a: float
    b: float
    rho: float
    probe_dhats: list
    s_values: list
    Z_values: list
    W_values: list
    C: float
    spearman: float
    truncation: float
    partial: bool


def _fit_C(Z: np.ndarray, W: np.ndarray) -> float:
    """Smallest C >= 1 with W_i <= C exp(-Z_i / C) for all probes."""
    C = 1.0
    for z, wv in zip(Z, W):
        if wv <= 0:
            continue
        g = lambda c: c * math.exp(-z / c) - wv
        if g(C) >= 0:
            continue
        lo, hi = C, max(2.0 * C, 2.0)
        while g(hi) < 0:
            hi *= 2.0
            if hi > 1e12:
                return math.inf
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if g(mid) < 0:
                lo = mid
            else:
                hi = mid
        C = hi
    return C


def axis_probes(dom: DomainSpec, offsets) -> list[SpaceTimePoint]:
    """Probes directly above z0 in time: z = (x0, t0 + s); dhat = sqrt(s)."""
    return [stp(dom.z0.x.copy(), dom.z0.t + float(s)) for s in offsets]


def bound_check(dom: DomainSpec, kernel, lam: float, a: float, b: float,
                rho: float, probes, L_max: int = 8,
                resolution: int = 4) -> BoundCheckReport:
    """Empirical test of W_rho(z) <= C exp(-Z/C) along a probe sequence.

    Z is the nested-series partial sum through floor(log dhat^2 / log lam);
    reported are the fitted smallest C and the Spearman rank correlation
    between Z and log W (expected strongly negative when the bound is
    active)."""
    dhats = np.array([parabolic_dist(dom.metric, dom.z0, pz) for pz in probes])
    if np.any(dhats <= 0):
        raise WienerError("probes must be distinct from z0")
    s_vals = np.log(dhats ** 2) / math.log(lam)
    K_need = max(1, int(math.floor(float(s_vals.max()))))
    tab = series_table(dom, lam, a, b, "nested", K_max=K_need,
                       H_max=40, resolution=resolution)
    Z = np.array([nested_partial_value(tab, s) for s in s_vals])
    west = wiener_function(dom, kernel, rho, L_max, probes,
                           resolution=resolution, lam=lam)
    W = west.W
    mask = W > 0
    if mask.sum() >= 3 and np.ptp(Z[mask]) > 0:
        from scipy import stats  # the package's only scipy.stats user
        sr = stats.spearmanr(Z[mask], np.log(W[mask]))
        corr = float(getattr(sr, "statistic", getattr(sr, "correlation", math.nan)))
    else:
        corr = math.nan
    C = _fit_C(Z, W)
    return BoundCheckReport(lam, a, b, rho, list(map(float, dhats)),
                            list(map(float, s_vals)), list(map(float, Z)),
                            list(map(float, W)), C, corr,
                            west.truncation, west.partial or tab.partial)
