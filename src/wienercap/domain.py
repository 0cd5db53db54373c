"""Space-time domains, their ring-set decompositions, and grid samplers.

A DomainSpec is an open set Omega inside a strip R^N x (T1, T2) together
with a marked boundary point z0 = (x0, t0).  Membership is exposed both
pointwise and vectorized; every derived set (ring sets, sections of the
complement, parabolic-ball complements) is sampled on deterministic
midpoint grids whose spatial axes are centered on x0 so that thin spikes
through the axis are not missed.

Ring sets at scale lambda in (0, 1), level k >= 1 and band h >= 1 collect
the points of the complement at time depth eta = t0 - tau in
[lambda^(k+1), lambda^k] whose space-time distance from z0 is at most
sqrt(lambda) and whose Gaussian annulus exp(d(x0, xi)^2 / eta) lies in
[(1/lambda)^(h-1), (1/lambda)^h]; the "nested" variant drops the lower
annulus bound and therefore equals the union of bands 1..h.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .metric import (MetricSpace, SpaceTimePoint, ball_coord_halfwidths,
                     dist, parabolic_dist_many, stp)


class DomainError(ValueError):
    pass


FAMILIES = ("halfspace-time", "spatial-halfspace", "cylinder", "cone",
            "cusp", "punctured", "mask")


@dataclass(frozen=True)
class DomainSpec:
    """Open domain in the strip with a marked boundary point z0.

    params are family-specific (see the registry helpers below); bbox is
    ((x_lo, x_hi), (t_lo, t_hi)) and Omega is always a subset of the open
    bbox, so everything outside the bbox counts as complement.
    """

    family: str
    metric: MetricSpace
    params: dict
    x_lo: np.ndarray
    x_hi: np.ndarray
    t_lo: float
    t_hi: float
    z0: SpaceTimePoint
    strip: tuple[float, float] = (-8.0, 8.0)
    mask_grid: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}")
        object.__setattr__(self, "x_lo", np.asarray(self.x_lo, dtype=float))
        object.__setattr__(self, "x_hi", np.asarray(self.x_hi, dtype=float))
        if not (self.strip[0] <= self.t_lo < self.t_hi <= self.strip[1]):
            raise DomainError("bbox time range must sit inside the strip")
        if not (self.strip[0] <= self.z0.t <= self.strip[1]):
            raise DomainError("z0 outside the strip")

    @property
    def N(self) -> int:
        return self.metric.N


def _require_in_strip(dom: DomainSpec, T: np.ndarray):
    T = np.atleast_1d(T)
    if np.any(T < dom.strip[0]) or np.any(T > dom.strip[1]):
        raise DomainError("query point outside the strip of validity")


def _in_bbox_open(dom: DomainSpec, X: np.ndarray, T: np.ndarray) -> np.ndarray:
    ok = (T > dom.t_lo) & (T < dom.t_hi)
    ok &= np.all(X > dom.x_lo, axis=-1) & np.all(X < dom.x_hi, axis=-1)
    return ok


def _cusp_profile(params: dict, s: np.ndarray) -> np.ndarray:
    """Spatial radius of the exterior spike at time depth s = t0 - t."""
    kind = params["profile"]
    if kind == "power":
        p = params["p"]
        return np.where(s >= 0, np.power(np.maximum(s, 0.0), p), -1.0)
    if kind == "loglog":
        c = params["c"]
        s = np.asarray(s, dtype=float)
        inside = (s > 1e-12) & (s < math.exp(-1.0))
        si = np.where(inside, s, 0.1)  # placeholder keeps loglog positive
        return np.where(inside, np.sqrt(c * si * np.log(np.log(1.0 / si))), 0.0)
    raise DomainError(f"unknown cusp profile {kind!r}")


def contains_many(dom: DomainSpec, X, T) -> np.ndarray:
    """Vectorized membership in Omega for points (X[i], T[i])."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    T = np.atleast_1d(np.asarray(T, dtype=float))
    _require_in_strip(dom, T)
    inside = _in_bbox_open(dom, X, T)
    p = dom.params
    f = dom.family
    if f == "halfspace-time":
        inside &= T > p["t0"]
    elif f == "spatial-halfspace":
        inside &= X[..., 0] > p["wall"]
    elif f == "cylinder":
        d = dist(dom.metric, X, np.asarray(p["center"])[None, :])
        inside &= (d < p["radius"]) & (T > p["t1"]) & (T < p["t2"])
    elif f == "cone":
        s = dom.z0.t - T
        d = dist(dom.metric, X, dom.z0.x[None, :])
        aper = p["M0"] * p["theta"] ** (1.0 / dom.metric.Q)
        blocked = (s >= 0) & (s <= p["depth"]) & (d <= aper * np.sqrt(np.maximum(s, 0.0)))
        inside &= ~blocked
    elif f == "cusp":
        s = dom.z0.t - T
        d = dist(dom.metric, X, dom.z0.x[None, :])
        prof = _cusp_profile(p, np.maximum(s, 0.0))
        blocked = (s >= 0) & (s <= p["depth"]) & (d <= prof)
        inside &= ~blocked
    elif f == "punctured":
        d = dist(dom.metric, X, np.asarray(p["center"])[None, :])
        blocked = (T == p["tau"]) & (d <= p["radius"])
        inside &= ~blocked
    elif f == "mask":
        inside &= _mask_lookup(dom, X, T)
    return inside


def contains(dom: DomainSpec, z: SpaceTimePoint) -> bool:
    return bool(contains_many(dom, z.x[None, :], np.array([z.t]))[0])


# ---------------------------------------------------------------------------
# voxel mask domains

_MASK_MAGIC = "wienercap-mask-v1"


def write_mask(path, grid: np.ndarray, origin, spacing) -> None:
    """Write a voxel mask file: text header, then packed row-major bits.

    grid axes are (x1, ..., xN, t); origin/spacing give the lower corner
    and cell size per axis in the same order.
    """
    grid = np.asarray(grid, dtype=bool)
    origin = np.asarray(origin, dtype=float)
    spacing = np.asarray(spacing, dtype=float)
    nd = grid.ndim
    if origin.size != nd or spacing.size != nd:
        raise DomainError("origin/spacing must match grid rank")
    hdr = io.StringIO()
    hdr.write(f"{_MASK_MAGIC}\n")
    hdr.write(f"rank {nd}\n")
    hdr.write("shape " + " ".join(str(s) for s in grid.shape) + "\n")
    hdr.write("origin " + " ".join(repr(float(v)) for v in origin) + "\n")
    hdr.write("spacing " + " ".join(repr(float(v)) for v in spacing) + "\n")
    hdr.write("data\n")
    with open(path, "wb") as fh:
        fh.write(hdr.getvalue().encode())
        fh.write(np.packbits(grid.reshape(-1)).tobytes())


def read_mask(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a voxel mask file; returns (grid, origin, spacing)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    head, _, rest = blob.partition(b"data\n")
    lines = head.decode().strip().splitlines()
    if not lines or lines[0] != _MASK_MAGIC:
        raise DomainError("not a mask file")
    fields = {}
    for ln in lines[1:]:
        key, *vals = ln.split()
        fields[key] = vals
    shape = tuple(int(v) for v in fields["shape"])
    origin = np.array([float(v) for v in fields["origin"]])
    spacing = np.array([float(v) for v in fields["spacing"]])
    n = int(np.prod(shape))
    bits = np.unpackbits(np.frombuffer(rest, dtype=np.uint8), count=n)
    return bits.reshape(shape).astype(bool), origin, spacing


def _erode(grid: np.ndarray) -> np.ndarray:
    """Keep voxels whose full 3^rank neighborhood is set (out-of-grid = 0);
    this is the strict-interior convention that makes mask domains open."""
    out = grid.copy()
    for axis in range(grid.ndim):
        shifted_f = np.zeros_like(grid)
        shifted_b = np.zeros_like(grid)
        sl_all = [slice(None)] * grid.ndim
        src, dst = sl_all.copy(), sl_all.copy()
        src[axis], dst[axis] = slice(1, None), slice(0, -1)
        shifted_f[tuple(dst)] = out[tuple(src)]
        src[axis], dst[axis] = slice(0, -1), slice(1, None)
        shifted_b[tuple(dst)] = out[tuple(src)]
        out = out & shifted_f & shifted_b
    return out


def _mask_lookup(dom: DomainSpec, X: np.ndarray, T: np.ndarray) -> np.ndarray:
    grid = dom.mask_grid
    origin = np.asarray(dom.params["origin"])
    spacing = np.asarray(dom.params["spacing"])
    coords = np.concatenate([X, T[..., None]], axis=-1)
    idx = np.floor((coords - origin) / spacing).astype(int)
    ok = np.all((idx >= 0) & (idx < np.array(grid.shape)), axis=-1)
    idx_c = np.clip(idx, 0, np.array(grid.shape) - 1)
    vals = grid[tuple(idx_c[..., i] for i in range(grid.ndim))]
    return ok & vals


def mask_domain(path, metric: MetricSpace, z0: SpaceTimePoint,
                strip=(-8.0, 8.0)) -> DomainSpec:
    grid, origin, spacing = read_mask(path)
    if grid.ndim != metric.N + 1:
        raise DomainError("mask rank must be N+1")
    eroded = _erode(grid)
    shape = np.array(grid.shape)
    hi = origin + shape * spacing
    return DomainSpec("mask", metric,
                      {"origin": origin, "spacing": spacing, "path": str(path)},
                      origin[:-1], hi[:-1], float(origin[-1]), float(hi[-1]),
                      z0, strip, mask_grid=eroded)


# ---------------------------------------------------------------------------
# family constructors and the benchmark registry

def _box(metric: MetricSpace, halfwidth: float, t_lo: float, t_hi: float,
         x0=None):
    x0 = np.zeros(metric.N) if x0 is None else np.asarray(x0, dtype=float)
    return x0 - halfwidth, x0 + halfwidth, t_lo, t_hi


def halfspace_time(metric: MetricSpace, t0: float = 0.0, halfwidth: float = 2.0,
                   t_top: float = 1.0) -> DomainSpec:
    """Omega = {t > t0} inside the bbox; z0 = (0, t0).  Known regular."""
    lo, hi, tl, th = _box(metric, halfwidth, t0 - 1.0, t_top)
    return DomainSpec("halfspace-time", metric, {"t0": t0}, lo, hi, tl, th,
                      stp(np.zeros(metric.N), t0))


def spatial_halfspace(metric: MetricSpace, wall: float = 0.0, t0: float = 0.0,
                      halfwidth: float = 2.0) -> DomainSpec:
    """Omega = {x1 > wall} inside the bbox; z0 = (wall, 0, ..., t0)."""
    x0 = np.zeros(metric.N)
    x0[0] = wall
    lo, hi, tl, th = _box(metric, halfwidth, t0 - 1.5, t0 + 1.5, x0)
    return DomainSpec("spatial-halfspace", metric, {"wall": wall}, lo, hi,
                      tl, th, stp(x0, t0))


def cylinder(metric: MetricSpace, radius: float = 0.5, t1: float = -1.0,
             t2: float = 0.0, center=None, z0: str = "top") -> DomainSpec:
    """Omega = B_d(center, radius) x (t1, t2); z0 at the top-cap interior
    point (center, t2) by default ("top"), else at a lateral point."""
    center = np.zeros(metric.N) if center is None else np.asarray(center, float)
    lo = center - 2.0 * radius
    hi = center + 2.0 * radius
    if z0 == "top":
        marked = stp(center, t2)
    elif z0 == "lateral":
        xb = center.copy()
        xb[0] += radius
        marked = stp(xb, 0.5 * (t1 + t2))
    else:
        raise DomainError("cylinder z0 must be 'top' or 'lateral'")
    return DomainSpec("cylinder", metric,
                      {"center": center, "radius": radius, "t1": t1, "t2": t2},
                      lo, hi, t1 - 0.5, t2 + 0.5, marked)


def cone(metric: MetricSpace, M0: float = 1.0, theta: float = 0.5,
         depth: float = 0.25, t0: float = 0.0, halfwidth: float = 2.0) -> DomainSpec:
    """bbox minus the closed exterior paraboloid
    {0 <= t0 - t <= depth, d(x0, x) <= M0 theta^(1/Q) sqrt(t0 - t)}.

    The aperture is chosen so the excluded fraction of B(x0, M0 r) at time
    t0 - r^2 equals theta exactly for r <= sqrt(depth).
    """
    lo, hi, tl, th = _box(metric, halfwidth, t0 - 1.0, t0 + 1.0)
    return DomainSpec("cone", metric,
                      {"M0": M0, "theta": theta, "depth": depth},
                      lo, hi, tl, th, stp(np.zeros(metric.N), t0))


def cusp(metric: MetricSpace, profile: str = "power", p: float = 1.0,
         c: float = 1.0, depth: float = 0.25, t0: float = 0.0,
         halfwidth: float = 2.0) -> DomainSpec:
    """bbox minus an exterior spike {d(x0, x) <= profile(t0 - t)}.

    profile "power": s^p with p > 1/2 (thinner than parabolic scaling);
    profile "loglog": sqrt(c s loglog(1/s)) for s < 1/e (slightly wider),
    truncated below s = 1e-12.  The two bracket the critical thinness at
    which exterior mass stops forcing regularity.
    """
    if profile == "power" and p <= 0.5:
        raise DomainError("power cusp needs p > 1/2")
    lo, hi, tl, th = _box(metric, halfwidth, t0 - 1.0, t0 + 1.0)
    return DomainSpec("cusp", metric,
                      {"profile": profile, "p": p, "c": c, "depth": depth},
                      lo, hi, tl, th, stp(np.zeros(metric.N), t0))


def punctured(metric: MetricSpace, radius: float = 0.5, tau: float = 0.0,
              center=None, halfwidth: float = 2.0) -> DomainSpec:
    """bbox minus a flat closed d-ball {d <= radius} x {tau}; z0 at the
    center of the removed disk."""
    center = np.zeros(metric.N) if center is None else np.asarray(center, float)
    lo, hi, tl, th = _box(metric, halfwidth, tau - 1.0, tau + 1.0, center)
    return DomainSpec("punctured", metric,
                      {"center": center, "radius": radius, "tau": tau},
                      lo, hi, tl, th, stp(center, tau))


def validate_boundary_point(dom: DomainSpec, scales=(0.5, 0.1, 0.02),
                            n: int = 4096, seed: int = 0) -> None:
    """Check z0 is not in Omega but every sampled neighborhood meets it."""
    if contains(dom, dom.z0):
        raise DomainError("z0 lies inside Omega")
    rng = np.random.default_rng(seed)
    for r in scales:
        half = ball_coord_halfwidths(dom.metric, r)
        X = dom.z0.x + rng.uniform(-1, 1, size=(n, dom.N)) * half
        T = dom.z0.t + rng.uniform(-1, 1, size=n) * r * r
        T = np.clip(T, dom.strip[0], dom.strip[1])
        if not contains_many(dom, X, T).any():
            raise DomainError(f"no Omega points found near z0 at scale {r}")


_REGISTRY_BUILDERS = {
    "halfspace": lambda m: halfspace_time(m),
    "spatial-halfspace": lambda m: spatial_halfspace(m),
    "cylinder-top": lambda m: cylinder(m, radius=0.15),
    "cone": lambda m: cone(m),
    "cusp-power": lambda m: cusp(m, profile="power", p=1.0),
    "cusp-loglog": lambda m: cusp(m, profile="loglog", c=1.0),
}

# classification ground truth where it is classical; None = not pinned
BENCHMARK_STATUS = {
    "halfspace": "REGULAR",
    "spatial-halfspace": "REGULAR",
    "cylinder-top": "IRREGULAR",
    "cone": "REGULAR",
    "cusp-power": None,
    "cusp-loglog": None,
}


def benchmark_names() -> list[str]:
    return list(_REGISTRY_BUILDERS)


def benchmark(name: str, metric: MetricSpace | None = None) -> DomainSpec:
    """Build a registry benchmark; default metric is Euclidean N = 1."""
    if name not in _REGISTRY_BUILDERS:
        raise DomainError(f"unknown benchmark {name!r}; "
                          f"known: {', '.join(_REGISTRY_BUILDERS)}")
    if metric is None:
        from .metric import euclidean
        metric = euclidean(1)
    return _REGISTRY_BUILDERS[name](metric)


# ---------------------------------------------------------------------------
# ring sets

@dataclass(frozen=True)
class RingSpec:
    """Ring set indices: scale lam, time level k >= 1, annulus band h >= 1.

    variant "band" keeps the two-sided annulus bound; "nested" keeps only
    the upper bound and equals the union of bands 1..h.
    """

    lam: float
    k: int
    h: int
    variant: str = "band"

    def __post_init__(self):
        if not (0.0 < self.lam < 1.0):
            raise DomainError("lam must lie in (0, 1)")
        if self.k < 1 or self.h < 1:
            raise DomainError("k and h start at 1")
        if self.variant not in ("band", "nested"):
            raise DomainError("variant must be 'band' or 'nested'")


def ring_mask(dom: DomainSpec, rs: RingSpec, X, T) -> np.ndarray:
    """Vectorized ring-set membership."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    T = np.atleast_1d(np.asarray(T, dtype=float))
    _require_in_strip(dom, T)
    lam, k, h = rs.lam, rs.k, rs.h
    t0 = dom.z0.t
    eta = t0 - T
    L = math.log(1.0 / lam)
    ok = ~contains_many(dom, X, T)
    ok &= (eta >= lam ** (k + 1)) & (eta <= lam ** k)
    d = dist(dom.metric, X, dom.z0.x[None, :])
    # denormal eta can overflow the quotient; inf is the correct outcome
    with np.errstate(over="ignore", divide="ignore"):
        ratio = np.where(eta > 0, d * d / np.where(eta > 0, eta, 1.0), np.inf)
    ok &= ratio <= h * L
    if rs.variant == "band":
        ok &= ratio >= (h - 1) * L
    dhat = (d ** 4 + eta ** 2) ** 0.25
    ok &= dhat <= math.sqrt(lam)
    return ok


def ring_membership(dom: DomainSpec, rs: RingSpec, z: SpaceTimePoint) -> bool:
    return bool(ring_mask(dom, rs, z.x[None, :], np.array([z.t]))[0])


def max_nonempty_band(lam: float, k: int) -> int:
    """Largest h for which the band-h ring can be nonempty: the annulus
    lower radius sqrt((h-1) eta log(1/lam)) must not exceed the dhat cap
    (lam^2 - eta^2)^(1/4) for some eta in the level-k range."""
    L = math.log(1.0 / lam)
    eta_min = lam ** (k + 1)
    cap = (lam ** 2 - eta_min ** 2) ** 0.5
    return max(1, int(math.floor(1.0 + cap / (eta_min * L))))


# ---------------------------------------------------------------------------
# sampling targets

@dataclass(frozen=True)
class RingTarget:
    ring: RingSpec


@dataclass(frozen=True)
class SectionTarget:
    """Spatial section of the complement at time depth eta = t0 - tau:
    {x : (x, tau) not in Omega, exp(d^2/eta) <= rho, dhat <= sqrt(lam)}."""
    lam: float
    rho: float
    tau: float


@dataclass(frozen=True)
class BallComplementTarget:
    """(closed parabolic ball of radius lam^(l/2) around z0, t <= t0) minus
    Omega; the flat top slice at t = t0 is carried at zero weight."""
    l: int
    lam: float


@dataclass
class SetSample:
    """Grid sample of a target set: atoms, quadrature weights, measure.

    points all lie inside the target; measure_estimate is the sum of the
    weights; standard_error is the finer-vs-coarser grid discrepancy.
    """

    xs: np.ndarray          # (n, N)
    ts: np.ndarray          # (n,)
    weights: np.ndarray     # (n,)
    measure_estimate: float
    standard_error: float
    resolution: int

    @property
    def n(self) -> int:
        return self.ts.shape[0]

    def is_empty(self) -> bool:
        return self.n == 0


def _axis_centers(center: float, halfwidth: float, cells: int) -> np.ndarray:
    """Midpoints of `cells` equal cells over [center - hw, center + hw];
    odd cell counts place one midpoint exactly at `center`."""
    edges = np.linspace(center - halfwidth, center + halfwidth, cells + 1)
    return 0.5 * (edges[:-1] + edges[1:])


def _grid_points(x0: np.ndarray, halfwidths: np.ndarray, cells_x: int,
                 t_lo: float, t_hi: float, cells_t: int):
    axes = [_axis_centers(x0[i], halfwidths[i], cells_x)
            for i in range(x0.shape[0])]
    t_ax = _axis_centers(0.5 * (t_lo + t_hi), 0.5 * (t_hi - t_lo), cells_t)
    mesh = np.meshgrid(*axes, t_ax, indexing="ij")
    flat = [m.reshape(-1) for m in mesh]
    X = np.stack(flat[:-1], axis=-1)
    T = flat[-1]
    cellvol = float(np.prod([2.0 * halfwidths[i] / cells_x
                             for i in range(x0.shape[0])])) * (t_hi - t_lo) / cells_t
    return X, T, cellvol


def _spatial_grid(x0: np.ndarray, halfwidths: np.ndarray, cells_x: int):
    axes = [_axis_centers(x0[i], halfwidths[i], cells_x)
            for i in range(x0.shape[0])]
    mesh = np.meshgrid(*axes, indexing="ij")
    X = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    cellvol = float(np.prod([2.0 * halfwidths[i] / cells_x
                             for i in range(x0.shape[0])]))
    return X, cellvol


def _ring_eval(dom: DomainSpec, rt: RingTarget, cells_x: int, cells_t: int):
    rs = rt.ring
    lam, k, h = rs.lam, rs.k, rs.h
    t0 = dom.z0.t
    L = math.log(1.0 / lam)
    r_band = math.sqrt(h * (lam ** k) * L)
    r_cap = math.sqrt(lam)
    R = min(r_band, r_cap)
    half = ball_coord_halfwidths(dom.metric, R)
    X, T, cellvol = _grid_points(dom.z0.x, half, cells_x,
                                 t0 - lam ** k, t0 - lam ** (k + 1), cells_t)
    keep = ring_mask(dom, rs, X, T)
    return X[keep], T[keep], np.full(int(keep.sum()), cellvol), float(keep.sum() * cellvol)


def _section_eval(dom: DomainSpec, st: SectionTarget, cells_x: int):
    t0 = dom.z0.t
    eta = t0 - st.tau
    if st.rho <= 1.0:
        raise DomainError("section needs rho > 1")
    if eta <= 0 or eta > st.lam:
        return (np.zeros((0, dom.N)), np.zeros(0), np.zeros(0), 0.0)
    r_gauss = math.sqrt(eta * math.log(st.rho))
    r_cap = (st.lam ** 2 - eta ** 2) ** 0.25 if eta < st.lam else 0.0
    R = min(r_gauss, r_cap) if r_cap > 0 else 0.0
    if R <= 0:
        return (np.zeros((0, dom.N)), np.zeros(0), np.zeros(0), 0.0)
    half = ball_coord_halfwidths(dom.metric, R)
    X, cellvol = _spatial_grid(dom.z0.x, half, cells_x)
    T = np.full(X.shape[0], st.tau)
    keep = ~contains_many(dom, X, T)
    d = dist(dom.metric, X, dom.z0.x[None, :])
    keep &= d * d <= eta * math.log(st.rho)
    keep &= d ** 4 + eta ** 2 <= st.lam ** 2
    return X[keep], T[keep], np.full(int(keep.sum()), cellvol), float(keep.sum() * cellvol)


def _ballcomp_eval(dom: DomainSpec, bt: BallComplementTarget, cells_x: int,
                   cells_t: int):
    t0 = dom.z0.t
    r = bt.lam ** (bt.l / 2.0)
    half = ball_coord_halfwidths(dom.metric, r)
    X, T, cellvol = _grid_points(dom.z0.x, half, cells_x, t0 - r * r, t0, cells_t)
    keep = ~contains_many(dom, X, T)
    dhat = parabolic_dist_many(dom.metric, X, T, dom.z0)
    keep &= dhat <= r
    Xb, Tb = X[keep], T[keep]
    wb = np.full(Xb.shape[0], cellvol)
    meas = float(Xb.shape[0] * cellvol)
    # flat top slice at t = t0 (capacity-bearing for flat obstacles); zero
    # quadrature weight so the measure stays a bulk estimate
    Xs, _ = _spatial_grid(dom.z0.x, half, cells_x)
    Ts = np.full(Xs.shape[0], t0)
    keep_s = ~contains_many(dom, Xs, Ts)
    keep_s &= dist(dom.metric, Xs, dom.z0.x[None, :]) <= r
    Xs, Ts = Xs[keep_s], Ts[keep_s]
    X_all = np.concatenate([Xb, Xs], axis=0)
    T_all = np.concatenate([Tb, Ts])
    w_all = np.concatenate([wb, np.zeros(Xs.shape[0])])
    return X_all, T_all, w_all, meas


def sample_set_and_measure(dom: DomainSpec, target,
                           resolution: int) -> SetSample:
    """Deterministic midpoint-grid sample of a target set.

    resolution r uses 2^r + 1 spatial cells per axis (odd, so the axis
    through x0 is sampled) and 2^r time cells; the standard error is the
    discrepancy against the next-coarser grid.
    """
    if resolution < 1:
        raise DomainError("resolution must be >= 1")

    def run(res):
        cx = 2 ** res + 1
        ct = 2 ** res
        if isinstance(target, RingTarget):
            return _ring_eval(dom, target, cx, ct)
        if isinstance(target, SectionTarget):
            return _section_eval(dom, target, cx)
        if isinstance(target, BallComplementTarget):
            return _ballcomp_eval(dom, target, cx, ct)
        raise DomainError(f"unknown target {target!r}")

    X, T, w, meas = run(resolution)
    _, _, _, meas_coarse = run(resolution - 1) if resolution > 1 else (0, 0, 0, 0.0)
    se = abs(meas - meas_coarse)
    return SetSample(X, T, w, meas, se, resolution)
