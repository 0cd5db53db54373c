"""Monte Carlo Perron-Wiener solver for (1/beta) Laplace u - du/dt = 0.

Backward-in-time Euler random walk: from z = (x, t) the walker moves

    X <- X + sqrt(2 h / beta) * xi,   xi ~ N(0, I_N),   t <- t - h,

whose one-step transition density matches the fundamental solution of the
operator, so the first-exit average E[phi(exit)] estimates the
Perron-Wiener solution with boundary data phi.  Membership is tested at
the lattice times t - h, t - 2h, ... only.  Euclidean domains only: the
walk has no intrinsic meaning for the other metrics.

Far-field moves.  Brownian increments add exactly, so m steps are one
step of variance 2 m h / beta.  A walker whose clearance (a lower bound
on its distance to the complement over the next MAX_JUMP lattice times,
domain.clearance) is at least JUMP_Z sqrt(N) sqrt(2 m h / beta) moves m
<= MAX_JUMP lattice steps with one normal draw; every other walker takes
a single step.  A move never lands on or past a lattice time that fails
the time terms of membership, nor past the budget max_time, so exits
through the time floor and faces still come from single steps.  Couple
this walk with the single-step one by summing the same increments: the
two differ only if the path leaves the ball of radius the clearance
during a move, with probability at most 4 N Phi(-JUMP_Z) ~ 1.1e-6 per
move on R (reflection principle).  With MAX_JUMP = 1 the walk is the
single-step walk bit for bit.  On a domain where no clearance can reach
the 2-step value (domain.clearance_bound below JUMP_Z sqrt(N) sqrt(4 h /
beta), as on the narrow cylinder of the registry) the walk computes no
clearance, and every move is one step.  The exit segment of a move of m steps is
bisected over m h, to a time tolerance of m h / 64.

pwb_solve_many walks several points of one domain as one batch under one
walk config, with one seed per point, and pwb_solve is its one-point
case.  Only walkers still inside Omega move, so an iteration costs what
is left of the walk, and the batch runs as many iterations as its
slowest point, not their sum.  Each point keeps its own random stream: on
every iteration it draws one normal vector from its own generator for
each of its walkers still active, in walker order, so its estimate does
not depend on the other points of the batch and no normal is drawn for a
walker that has exited.  The normal draws bound the cost of a move: the
rest is a few vector passes.  Each walker keeps its own index on its
point's time lattice; the time terms of membership are evaluated once
per lattice time and table (_Lattice), only the spatial ones once per
walker and move.  The walk keeps the last segment of every exit and
bisects all of them in one pass after the last move: the bisections are
independent of each other, so six membership calls serve the whole
batch.

A move computes each quantity once.  The membership test at the new
positions computes each walker's distance to the family's centre (on
cylinders, and on cones, cusps and punctured domains where a time of the
table has a cut); domain.contains_at returns it, and the walk carries it,
compacted with its walker, into the next move's domain.clearance, which
computes it only where nothing was carried (the first move, or tables
that gained a cut).  Table times are gathered for masks only, a walk of
single steps multiplies by one sd, and the moves' lengths, table entries
and table values, and the exit records, go into buffers made once per
batch.  The lattice tables are rebuilt every TABLE_REFRESH = 256
iterations: a point's table holds its walkers' spread of lattice indices
plus 256 x 16 + 17 entries, of at most 34 bytes each (about 140 kB),
whatever the budget, and the old tables are freed before the new ones
are built.

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

from .domain import (STRIP, DomainSpec, clearance, clearance_bound,
                     contains, contains_at, contains_many, require_in_strip,
                     time_terms)
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

# the longest move in lattice steps, and the clearance it needs in
# standard deviations of its increment per coordinate
MAX_JUMP = 16
JUMP_Z = 5.0
# walk iterations between rebuilds of the lattice tables; a table holds
# TABLE_REFRESH * MAX_JUMP entries past its point's fastest walker
TABLE_REFRESH = 256


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

    Only walkers still inside Omega move; a global walker id j * walkers
    + i maps each exit back to walker i of point j.  The active walkers
    stay sorted by global id, so those of point j form one run of rows,
    and point j fills exactly those rows from its own
    default_rng(seeds[j]) on every iteration: one normal vector per
    active walker, in walker order.  Each walker keeps its own index on
    its point's time lattice and moves m <= MAX_JUMP lattice steps, as
    _Lattice and JUMP_Z set out.  Each estimate so depends on its point
    and seed alone, not on its batch, and carries cfg with its point's
    seed.  Exit segments are bisected together after the walk.
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
    P, w, N = len(zs), cfg.walkers, dom.N
    hit, X0, X1, T0, span = _walk(dom, zs, cfg, seeds)
    exit_x = np.zeros((P * w, N))
    exit_t = np.zeros(P * w)
    exited = np.zeros(P * w, dtype=bool)
    if hit.size:
        X1 -= X0                           # the exit segments
        lo = np.zeros(hit.size)
        hi = np.ones(hit.size)
        for _ in range(6):  # to time tolerance span / 64
            mid = 0.5 * (lo + hi)
            ins = contains_many(dom, X0 + mid[:, None] * X1, T0 - mid * span)
            np.copyto(lo, mid, where=ins)
            np.copyto(hi, mid, where=~ins)
        exit_x[hit] = X0 + hi[:, None] * X1
        exit_t[hit] = T0 - hi * span
        exited[hit] = True
    return [_estimate(dom, phi, z, replace(cfg, seed=s),
                      exit_x[j * w:(j + 1) * w], exit_t[j * w:(j + 1) * w],
                      exited[j * w:(j + 1) * w])
            for j, (z, s) in enumerate(zip(zs, seeds))]


def _walk(dom: DomainSpec, zs, cfg: WalkConfig, seeds):
    """The walk of pwb_solve_many, up to the exits: the global id of each
    walker that exited, in exit order, and its last move's start X0 and
    end X1, start time T0 and time span."""
    P, w, N, h = len(zs), cfg.walkers, dom.N, cfg.step
    max_steps = int(math.ceil(cfg.max_time / h))
    # the sd of a move of m steps is scale[m] = sigma sqrt(m), and it
    # needs a clearance of JUMP_Z sqrt(N) scale[m] = sqrt(m) / inv
    scale = math.sqrt(2.0 * h / cfg.beta) * np.sqrt(np.arange(MAX_JUMP + 1))
    inv = 1.0 / (JUMP_Z * math.sqrt(N) * scale[1])
    # below the 2-step clearance every q < sqrt(2), so every move is 1 step
    reach = max(clearance_bound(dom) * inv, 1.0)
    far = reach * reach >= 2.0
    rngs = [np.random.default_rng(s) for s in seeds]
    rows = P * w
    X = np.repeat(np.stack([z.x for z in zs]), w, axis=0)
    step = np.empty_like(X)                # next positions of the active rows
    gid = np.arange(rows)                  # global ids of the active walkers
    left = np.full(P, w)                   # active walkers per point
    first = np.arange(P + 1) * w           # the first global id of each point
    lat = _Lattice(dom, h, max_steps, [z.t for z in zs], np.zeros(P, int),
                   np.zeros(P, int))
    # per-move buffers over the active rows: the table entry before and
    # after the move, its length in lattice steps, and table values read
    pos = np.repeat(lat.shift, w)
    nxt = np.empty(rows, np.intp)
    m = np.ones(rows, np.intp)
    ok = np.empty(rows, bool)
    val = np.empty(rows)
    d = None        # the rows' distances to the family's centre, or None
    mask = dom.family == "mask"
    # the exit records, filled in exit order
    hit = np.empty(rows, np.intp)
    X0, X1 = np.empty((rows, N)), np.empty((rows, N))
    T0 = np.empty(rows)
    moved = np.empty(rows, np.intp)
    done = 0
    it = 0
    while gid.size:
        n = gid.size
        if it % TABLE_REFRESH == 0 and it:
            lat.refresh(pos[:n], gid // w, left)
        row = 0
        for rng, k in zip(rngs, left.tolist()):
            if k:
                rng.standard_normal(out=step[row:row + k])
                row += k
        # this iteration's views of the active rows
        x, xn, p, pn, mn, v = X[:n], step[:n], pos[:n], nxt[:n], m[:n], val[:n]
        if far:
            q = clearance(dom, x, None if lat.cutmax is None else
                          lat.cutmax.take(p, out=v, mode="clip"), d)
            q *= inv                       # a move of m steps needs q >= sqrt(m)
            np.maximum(q, 1.0, out=q)
            q *= q
            np.minimum(q, lat.cap.take(p, out=v, mode="clip"), out=q)
            mn[:] = q
            xn *= scale.take(mn, out=v, mode="clip")[:, None]
        else:
            xn *= scale[1]
        xn += x
        np.add(p, mn, out=pn)
        inside, d = contains_at(
            dom, xn, lat.ok.take(pn, out=ok[:n], mode="clip"),
            None if lat.cut is None else lat.cut.take(pn, out=v, mode="clip"),
            lat.T[pn] if mask else None)
        it += 1
        stay = inside
        if it * MAX_JUMP >= max_steps:     # a walker can be at max_steps
            stay = inside & ~lat.last[pn]
        kept = np.count_nonzero(stay)
        if kept == n:
            X, step = step, X
            pos, nxt = nxt, pos
            continue
        keep = stay.nonzero()[0]
        out = (~inside).nonzero()[0]
        if out.size:
            if lat.leaves_strip:
                require_in_strip(dom, lat.T[pn[out]])
            e = done + out.size
            gid.take(out, out=hit[done:e], mode="clip")
            x.take(out, axis=0, out=X0[done:e], mode="clip")
            xn.take(out, axis=0, out=X1[done:e], mode="clip")
            lat.T.take(p[out], out=T0[done:e], mode="clip")
            mn.take(out, out=moved[done:e], mode="clip")
            done = e
        gid = gid[keep]
        ends = gid.searchsorted(first)
        left = ends[1:] - ends[:-1]
        xn.take(keep, axis=0, out=X[:kept], mode="clip")
        pn.take(keep, out=pos[:kept], mode="clip")
        if d is not None:
            d = d[keep]
    return hit[:done], X0[:done], X1[:done], T0[:done], moved[:done] * h


class _Lattice:
    """The time-lattice tables of a batch's walk, flat over its points.

    Point j's lattice times are z.t minus repeated h, built with
    np.subtract.accumulate, which gives the floats of repeated t - h.  A
    walker of point j at lattice index k reads entry shift[j] + k of:
      T, ok, cut  the time, its time terms (domain.time_terms; cut None
                  when no entry excludes anything), evaluated once per
                  table, with times below the strip failing unevaluated;
      cutmax      the largest cut over the next MAX_JUMP times (None with
                  cut), which domain.clearance reads;
      cap         the longest move from k: at most MAX_JUMP, never onto or
                  past a time that fails the time terms, nor past the
                  budget max_steps, and at least 1, so that a walker next
                  to a failing time steps onto it and exits (a float, as
                  the move rule compares it with floats);
      last        whether k is max_steps, where a walker's budget ends.
    A table holds point j's positions from its slowest walker's index
    through TABLE_REFRESH moves of MAX_JUMP past its fastest one's,
    followed by MAX_JUMP failing entries (NaN times) that no walker
    reaches.  The walk rebuilds the tables in place every TABLE_REFRESH
    iterations (refresh), so their length follows the spread of the
    walkers, not max_steps: at TABLE_REFRESH = 256, at most 34 bytes for
    each index of the spread plus about 140 kB per point.  The time terms
    are evaluated over all points' entries in one call."""

    def __init__(self, dom: DomainSpec, h: float, max_steps: int, ts, ks,
                 spans):
        """Tables of the points with ts[j] the time of lattice index ks[j]
        and walkers spread over spans[j] indices past it (None: a point
        with no walker, which gets an empty table)."""
        self.dom, self.h, self.max_steps = dom, h, max_steps
        self._build(ts, ks, spans)

    def _build(self, ts, ks, spans):
        J = MAX_JUMP
        ks = np.asarray(ks)
        sizes = np.array([0 if span is None else
                          min(span + TABLE_REFRESH * J, self.max_steps - k)
                          + 1 for k, span in zip(ks.tolist(), spans)])
        ends = np.cumsum(sizes + J) - J    # one past each point's entries
        starts = ends - sizes
        self.shift = starts - ks
        self.T = T = np.full(ends[-1] + J, self.h)
        for t, a, b in zip(ts, starts.tolist(), ends.tolist()):
            if a < b:
                T[a] = t
                np.subtract.accumulate(T[a:b], out=T[a:b])
            T[b:b + J] = np.nan
        # NaN times fail the time terms; times below the strip fail
        # unevaluated
        self.leaves_strip = bool(np.count_nonzero(T < STRIP[0]))
        if self.leaves_strip:
            held = ~(T < STRIP[0])
            self.ok = np.zeros(T.size, dtype=bool)
            self.ok[held], c = time_terms(self.dom, T[held])
            if c is not None:
                cut = np.full(T.size, -np.inf)
                cut[held] = c
                c = cut
        else:
            self.ok, c = time_terms(self.dom, T)
        self.cut = self.cutmax = None
        if c is not None:
            # cutmax[i] = max(c[i + 1 : i + 1 + J]), by doubling windows
            cutmax = np.full(T.size, -np.inf)
            cutmax[:-1] = c[1:]
            width = 1
            while width < J:
                s = min(width, J - width)
                np.maximum(cutmax[:-s], cutmax[s:], out=cutmax[:-s])
                width += s
            self.cut, self.cutmax = c, cutmax
        fails = np.flatnonzero(~self.ok)
        ahead = np.arange(1, T.size + 1)
        # the last entry, padding, has no failing entry ahead of it
        cap = fails[np.searchsorted(fails, ahead).clip(max=fails.size - 1)]
        cap -= ahead
        self.cap = cap.clip(1, J).astype(float)
        self.last = np.zeros(T.size, dtype=bool)
        live = sizes > 0
        self.last[ends[live] - 1] = (ks[live] + sizes[live] - 1
                                     == self.max_steps)

    def refresh(self, pos: np.ndarray, owner: np.ndarray, left: np.ndarray):
        """Rebuild the tables about the walkers' lattice indices now; pos,
        the rows' entries, is moved to their entries in the new tables.
        owner is each row's point."""
        pos -= self.shift[owner]           # the rows' lattice indices
        starts = np.cumsum(left) - left
        live = left > 0
        lo = np.zeros_like(left)
        hi = np.zeros_like(left)
        lo[live] = np.minimum.reduceat(pos, starts[live])
        hi[live] = np.maximum.reduceat(pos, starts[live])
        ts = self.T[np.where(live, self.shift + lo, 0)]
        self.T = self.ok = self.cut = self.cutmax = self.cap = None
        self.last = None                   # free the old tables first
        self._build(ts, lo, [int(s) if a else None
                             for s, a in zip(hi - lo, live)])
        pos += self.shift[owner]


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
