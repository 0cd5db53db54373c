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
import sys
from dataclasses import dataclass, field

import numpy as np

from .metric import (MetricSpace, SpaceTimePoint, ball_coord_halfwidths,
                     dist, euclidean, parabolic_dist_many, stp)


class DomainError(ValueError):
    pass


FAMILIES = ("halfspace-time", "spatial-halfspace", "cylinder", "cone",
            "cusp", "punctured", "mask")

# the time strip (T1, T2) of validity that every domain sits in
STRIP = (-8.0, 8.0)
# family parameters that must be positive and finite
POSITIVE_PARAMS = {"radius", "M0", "depth", "c", "p"}


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
    mask_grid: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}")
        object.__setattr__(self, "x_lo", np.asarray(self.x_lo, dtype=float))
        object.__setattr__(self, "x_hi", np.asarray(self.x_hi, dtype=float))
        if not (STRIP[0] <= self.t_lo < self.t_hi <= STRIP[1]):
            raise DomainError("bbox time range must sit inside the strip")
        if not (STRIP[0] <= self.z0.t <= STRIP[1]):
            raise DomainError("z0 outside the strip")
        for key in sorted(POSITIVE_PARAMS & self.params.keys()):
            if not 0.0 < self.params[key] < math.inf:
                raise DomainError(f"{key} must be positive and finite")
        if not 0.0 < self.params.get("theta", 1.0) <= 1.0:
            raise DomainError("theta must lie in (0, 1]")
        box = np.concatenate([self.x_lo, self.x_hi, self.z0.x])
        if not (np.isfinite(box).all() and (self.x_lo < self.x_hi).all()):
            raise DomainError("bbox and x0 must be finite, with x_lo < x_hi")

    @property
    def N(self) -> int:
        return self.metric.N


def require_in_strip(dom: DomainSpec, T: np.ndarray):
    """Raise DomainError if a time of T lies outside the strip."""
    # fmin and fmax skip NaN times, which fail the bbox test instead
    if T.size and (np.fmin.reduce(T) < STRIP[0]
                   or np.fmax.reduce(T) > STRIP[1]):
        raise DomainError("query point outside the strip of validity")


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


def time_terms(dom: DomainSpec, T: np.ndarray):
    """The time conditions of membership at times T: ok[i] holds when T[i]
    passes all of them, and cut[i] is the distance from the family's
    centre at or below which a point at time T[i] is excluded (-inf where
    nothing is), or None where no time of T has such an exclusion."""
    require_in_strip(dom, T)
    ok = (T > dom.t_lo) & (T < dom.t_hi)
    p = dom.params
    f = dom.family
    cut = None
    if f == "halfspace-time":
        ok &= T > p["t0"]
    elif f == "cylinder":
        ok &= (T > p["t1"]) & (T < p["t2"])
    elif f == "cone":
        s = dom.z0.t - T
        aper = p["M0"] * p["theta"] ** (1.0 / dom.metric.Q)
        cut = np.where((s >= 0) & (s <= p["depth"]),
                       aper * np.sqrt(np.maximum(s, 0.0)), -np.inf)
    elif f == "cusp":
        s = dom.z0.t - T
        cut = np.where((s >= 0) & (s <= p["depth"]),
                       _cusp_profile(p, np.maximum(s, 0.0)), -np.inf)
    elif f == "punctured":
        cut = np.where(T == p["tau"], p["radius"], -np.inf)
    if cut is not None and np.fmax.reduce(cut, initial=-np.inf) == -np.inf:
        cut = None    # no time excludes anything
    return ok, cut


def _spatial_test(dom: DomainSpec, X: np.ndarray, cut, T):
    """The spatial conditions of membership at the rows of X, given each
    row's cut from time_terms (and, for masks, its time T), and each row's
    distance to the family's centre where the test computed it (cylinders,
    and cones, cusps and punctured domains with a cut; None elsewhere)."""
    if X.shape[-1] != dom.N:
        raise DomainError(f"points must have {dom.N} spatial coordinates")
    inside = X[:, 0] > dom.x_lo[0]
    inside &= X[:, 0] < dom.x_hi[0]
    for i in range(1, dom.N):
        inside &= X[:, i] > dom.x_lo[i]
        inside &= X[:, i] < dom.x_hi[i]
    p = dom.params
    f = dom.family
    d = None
    if f == "spatial-halfspace":
        inside &= X[:, 0] > p["wall"]
    elif f == "cylinder":
        d = _center_dist(dom, X)
        inside &= d < p["radius"]
    elif f == "mask":
        inside &= _mask_lookup(dom, X, T)
    elif cut is not None:
        d = _center_dist(dom, X)
        inside &= d > cut
    return inside, d


def _center_dist(dom: DomainSpec, X: np.ndarray) -> np.ndarray:
    """d(x, c) for each row x of X, c the family's centre: x0 on cones and
    cusps, the origin on cylinders and punctured domains.  On R^N it is
    metric.dist's sum of squares of c - x, formed in place."""
    c = dom.z0.x if dom.family in ("cone", "cusp") else dom.params["center"]
    if dom.metric.kind != "euclidean":
        return dist(dom.metric, X, np.asarray(c)[None, :])
    g = c[0] - X[:, 0]
    g *= g
    for i in range(1, dom.N):
        u = c[i] - X[:, i]
        u *= u
        g += u
    return np.sqrt(g, out=g)


def contains_at(dom: DomainSpec, X, ok, cut, T):
    """Membership in Omega of the rows of X whose time terms are known:
    ok[i] and cut[i] as time_terms gives them at the row's time T[i] (cut
    None where no row's time excludes anything; T read on masks only).
    Returns the membership and each row's distance to the family's
    centre as the test computed it, or None, for clearance to reuse."""
    inside, d = _spatial_test(dom, X, cut, T)
    inside &= ok
    return inside, d


def clearance(dom: DomainSpec, X: np.ndarray, cut, d=None) -> np.ndarray:
    """A lower bound on the Euclidean distance from each row of X to the
    complement of Omega, at every time that passes the time terms and
    whose cut is at most cut[i] (cut None: no such time excludes
    anything).  It is the least of the distances to the bbox faces, the
    spatial wall, the cylinder side and the ball of radius cut[i] about
    the family's centre; masks get 0, since their distance is not
    computed.  d holds the rows' distances to the centre as contains_at
    returned them, or None to compute them here."""
    if dom.metric.kind != "euclidean":
        raise DomainError("clearance is Euclidean-only")
    if dom.family == "mask":
        return np.zeros(X.shape[0])
    q = X[:, 0] - dom.x_lo[0]
    np.minimum(q, dom.x_hi[0] - X[:, 0], out=q)
    for i in range(1, dom.N):
        np.minimum(q, X[:, i] - dom.x_lo[i], out=q)
        np.minimum(q, dom.x_hi[i] - X[:, i], out=q)
    p = dom.params
    if d is None and (dom.family == "cylinder" or cut is not None):
        d = _center_dist(dom, X)
    if dom.family == "spatial-halfspace":
        np.minimum(q, X[:, 0] - p["wall"], out=q)
    elif dom.family == "cylinder":
        np.minimum(q, p["radius"] - d, out=q)
    elif cut is not None:
        np.minimum(q, d - cut, out=q)
    return q


def clearance_bound(dom: DomainSpec) -> float:
    """The largest value clearance can return on dom: half the smallest
    bbox width, and at most the radius on a cylinder; 0 for masks.  Each
    term of clearance is at most its part of this bound in floating
    point too, since rounding is monotone."""
    if dom.family == "mask":
        return 0.0
    bound = float(np.min(dom.x_hi - dom.x_lo)) / 2.0
    if dom.family == "cylinder":
        bound = min(bound, float(dom.params["radius"]))
    return bound


def _per_row(a: np.ndarray, counts) -> np.ndarray:
    """a[j] repeated counts[j] times; a itself when every count is 1."""
    return a if np.ndim(counts) == 0 and counts == 1 else np.repeat(a, counts)


def contains_many(dom: DomainSpec, X, T) -> np.ndarray:
    """Vectorized membership in Omega for points (X[i], T[i])."""
    return contains_runs(dom, X, T, 1)


def contains_runs(dom: DomainSpec, X, times, counts) -> np.ndarray:
    """Vectorized membership in Omega for rows of X in runs that share a
    time: counts[j] rows at times[j], in order (a scalar count applies to
    every run); the time conditions are evaluated once per run."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    times = np.atleast_1d(np.asarray(times, dtype=float))
    ok, cut = time_terms(dom, times)
    T = _per_row(times, counts) if dom.family == "mask" else None
    if cut is not None:
        cut = _per_row(cut, counts)
    inside, _ = _spatial_test(dom, X, cut, T)
    if not ok.all():
        inside &= _per_row(ok, counts)
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


def mask_domain(path, metric: MetricSpace, z0: SpaceTimePoint) -> DomainSpec:
    """The open domain of a voxel mask: the voxels whose full 3^rank
    neighbourhood is set, cells outside the grid counting as unset."""
    from scipy.ndimage import binary_erosion
    grid, origin, spacing = read_mask(path)
    if grid.ndim != metric.N + 1:
        raise DomainError("mask rank must be N+1")
    eroded = binary_erosion(grid, np.ones((3,) * grid.ndim, bool),
                            border_value=0)
    shape = np.array(grid.shape)
    hi = origin + shape * spacing
    return DomainSpec("mask", metric,
                      {"origin": origin, "spacing": spacing, "path": str(path)},
                      origin[:-1], hi[:-1], float(origin[-1]), float(hi[-1]),
                      z0, mask_grid=eroded)


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
             t2: float = 0.0, z0: str = "top") -> DomainSpec:
    """Omega = B_d(0, radius) x (t1, t2); z0 at the top-cap interior point
    (0, t2) by default ("top"), else at a lateral point."""
    center = np.zeros(metric.N)
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
              halfwidth: float = 2.0) -> DomainSpec:
    """bbox minus a flat closed d-ball {d(0, x) <= radius} x {tau}; z0 at
    the center of the removed disk."""
    center = np.zeros(metric.N)
    lo, hi, tl, th = _box(metric, halfwidth, tau - 1.0, tau + 1.0)
    return DomainSpec("punctured", metric,
                      {"center": center, "radius": radius, "tau": tau},
                      lo, hi, tl, th, stp(center, tau))


def validate_boundary_point(dom: DomainSpec) -> None:
    """Check z0 is not in Omega but every sampled neighborhood meets it:
    n = 4096 uniform points in the box of each scale r."""
    if contains(dom, dom.z0):
        raise DomainError("z0 lies inside Omega")
    rng = np.random.default_rng(0)
    n = 4096
    for r in (0.5, 0.1, 0.02):
        half = ball_coord_halfwidths(dom.metric, r, dom.z0.x)
        X = dom.z0.x + rng.uniform(-1, 1, size=(n, dom.N)) * half
        T = dom.z0.t + rng.uniform(-1, 1, size=n) * r * r
        T = np.clip(T, *STRIP)
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
        # max_nonempty_band divides by lam^(k+1) log(1/lam)
        deepest = self.lam ** (self.k + 1) * math.log(1.0 / self.lam)
        if deepest == 0.0 or math.isinf(self.lam / deepest):
            raise DomainError(f"k = {self.k} takes the rings below float "
                              "resolution")


def _ring_keep(dom: DomainSpec, lam: float, k: int, X: np.ndarray,
               T: np.ndarray, upper, lower) -> np.ndarray:
    """The level-k ring conditions at (X[i], T[i]) with the annulus bounds
    upper = h log(1/lam) and lower = (h - 1) log(1/lam), each a scalar or
    one value per point; lower None drops the lower bound (nested)."""
    eta = dom.z0.t - T
    ok = ~contains_many(dom, X, T)
    ok &= (eta >= lam ** (k + 1)) & (eta <= lam ** k)
    d = dist(dom.metric, X, dom.z0.x[None, :])
    # denormal eta can overflow the quotient; inf is the correct outcome
    with np.errstate(over="ignore", divide="ignore"):
        ratio = np.where(eta > 0, d * d / np.where(eta > 0, eta, 1.0), np.inf)
    ok &= ratio <= upper
    if lower is not None:
        ok &= ratio >= lower
    dhat = (d ** 4 + eta ** 2) ** 0.25
    ok &= dhat <= math.sqrt(lam)
    return ok


def ring_mask(dom: DomainSpec, rs: RingSpec, X, T) -> np.ndarray:
    """Vectorized ring-set membership."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    T = np.atleast_1d(np.asarray(T, dtype=float))
    L = math.log(1.0 / rs.lam)
    lower = (rs.h - 1) * L if rs.variant == "band" else None
    return _ring_keep(dom, rs.lam, rs.k, X, T, rs.h * L, lower)


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

    def __post_init__(self):
        if not (math.isfinite(self.rho) and math.isfinite(self.tau)):
            raise DomainError("section rho and tau must be finite")
        if self.rho <= 1.0:
            raise DomainError("section needs rho > 1")


@dataclass(frozen=True)
class BallComplementTarget:
    """(closed parabolic ball of radius lam^(l/2) around z0, t <= t0) minus
    Omega; the flat top slice at t = t0 is carried at zero weight."""
    l: int
    lam: float

    def __post_init__(self):
        if not (0.0 < self.lam < 1.0):
            raise DomainError("lam must lie in (0, 1)")
        if self.l < 1:
            raise DomainError("ball complement level l must be >= 1")
        # the ball's time depth lam^l is the square of its radius
        if self.lam ** self.l < sys.float_info.min:
            raise DomainError(f"l = {self.l} takes the ball below float "
                              "resolution")


@dataclass
class SetSample:
    """Grid sample of a target set: atoms, quadrature weights, measure.

    points all lie inside the target; measure_estimate is the sum of the
    weights.  standard_error is nan from sample_set_and_measure, which
    samples the fine grid only; measure_standard_error gives the grid
    discrepancy.
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


def axis_centers(center, halfwidth, cells: int) -> np.ndarray:
    """Midpoints of `cells` equal cells over [center - hw, center + hw],
    laid out as center + hw * u with u = (2k + 1 - cells) / cells.  u is
    exactly antisymmetric (u[cells - 1 - k] == -u[k]), so about center = 0
    the midpoints are mirror images by bytes, and an odd cell count places
    its middle midpoint exactly at center.  center and halfwidth broadcast
    together; the cells run along a new last axis."""
    u = (2.0 * np.arange(cells) + 1.0 - cells) / cells
    return (np.asarray(center, dtype=float)[..., None]
            + np.asarray(halfwidth, dtype=float)[..., None] * u)


def _cell_volumes(halfwidths: np.ndarray, cells_x: int) -> np.ndarray:
    """Spatial cell volumes (k,) of the grids of cells_x cells per axis
    over the boxes of the rows of halfwidths (k, N)."""
    return np.prod(2.0 * halfwidths / cells_x, axis=-1)


def _spatial_grids(x0: np.ndarray, halfwidths: np.ndarray, cells_x: int):
    """Midpoint grids of cells_x cells per axis over the boxes x0 +- each
    row of halfwidths (k, N): points (k, cells_x^N, N) in meshgrid "ij"
    order, with the axis values of axis_centers."""
    k, N = halfwidths.shape
    centers = axis_centers(x0, halfwidths, cells_x)         # (k, N, cells)
    full = (k,) + (cells_x,) * N
    cols = []
    for i in range(N):
        shape = [k] + [1] * N
        shape[1 + i] = cells_x
        cols.append(np.broadcast_to(centers[:, i].reshape(shape), full)
                    .reshape(k, -1))
    return np.stack(cols, axis=-1)


# grid points per vectorized pass of _ball_grids: the 31 rho sections of
# one Heisenberg time node at resolution 5 hold 1.1 M grid points, and a
# pass keeps several arrays of that many entries alive at once; the 40
# bands of a ring level on R at resolution 3 hold 2880
MAX_SAMPLE_GRID = 2 ** 16


def _ball_grids(dom: DomainSpec, radii, cells_x: int, cells_t: int = 1):
    """Spatial grids of cells_x cells per axis over the coordinate boxes of
    the d-balls B(x0, R), R in radii, in passes of as many balls as fit in
    MAX_SAMPLE_GRID grid points (at least one) once tiled against cells_t
    time cells.  Yields, per pass, the index into radii of its first ball,
    the grid points (k, cells_x^N, N) and the cell volumes (k,)."""
    x0 = dom.z0.x
    per_pass = max(1, MAX_SAMPLE_GRID // (cells_x ** dom.N * cells_t))
    for lo in range(0, len(radii), per_pass):
        half = np.stack([ball_coord_halfwidths(dom.metric, R, x0)
                         for R in radii[lo:lo + per_pass]])
        yield lo, _spatial_grids(x0, half, cells_x), _cell_volumes(half,
                                                                   cells_x)


def _ring_bands(dom: DomainSpec, lam: float, k: int, hs, variant: str,
                cells_x: int, cells_t: int):
    """Sample the rings RingSpec(lam, k, h, variant) for every h of hs, in
    order, on grids of cells_x cells per spatial axis and cells_t time
    cells, yielding (X, T, weights, measure) per ring.

    The rings of level k share one time axis.  A pass of _ball_grids tiles
    the spatial grids of its rings against it and tests the ring
    conditions once, with the annulus bounds repeated per ring.
    """
    L = math.log(1.0 / lam)
    r_cap = math.sqrt(lam)
    t_lo, t_hi = dom.z0.t - lam ** k, dom.z0.t - lam ** (k + 1)
    t_ax = axis_centers(0.5 * (t_lo + t_hi), 0.5 * (t_hi - t_lo), cells_t)
    radii = [min(math.sqrt(h * (lam ** k) * L), r_cap) for h in hs]
    for lo, S, cellvols in _ball_grids(dom, radii, cells_x, cells_t):
        band = hs[lo:lo + len(S)]
        nb, M = len(band), S.shape[1] * cells_t
        X = np.repeat(S, cells_t, axis=1)
        T = np.tile(t_ax, S.shape[1])
        upper = np.repeat([h * L for h in band], M)
        lower = (np.repeat([(h - 1) * L for h in band], M)
                 if variant == "band" else None)
        keep = _ring_keep(dom, lam, k, X.reshape(nb * M, dom.N),
                          np.tile(T, nb), upper, lower).reshape(nb, M)
        counts = keep.sum(axis=1)
        cellvols = cellvols * (t_hi - t_lo) / cells_t
        for i in range(nb):
            yield (X[i][keep[i]], T[keep[i]],
                   np.full(counts[i], cellvols[i]),
                   float(counts[i] * cellvols[i]))


def ring_samples(dom: DomainSpec, lam: float, k: int, hs, variant: str,
                 resolution: int):
    """Yield sample_set_and_measure(dom, RingTarget(RingSpec(lam, k, h,
    variant)), resolution) for every h of hs, in order, bit for bit.  The
    bands are sampled in vectorized passes over the level's grids, one
    pass at a time as the samples are taken."""
    if resolution < 1:
        raise DomainError("resolution must be >= 1")
    hs = [RingSpec(lam, k, h, variant).h for h in hs]
    return (SetSample(X, T, w, meas, math.nan, resolution)
            for X, T, w, meas in _ring_bands(dom, lam, k, hs, variant,
                                             2 ** resolution + 1,
                                             2 ** resolution))


def _section_chunks(dom: DomainSpec, lam: float, log_rhos, tau: float,
                    cells_x: int):
    """Sample the sections SectionTarget(lam, rho, tau) for every log rho
    of log_rhos on their fine grids, one pass of _ball_grids at a time.
    The sections read rho only through log rho, so a rho past the float
    range is fine.

    Yields (index, X, keep, cellvol): the indices into log_rhos of the
    nonempty-radius sections of the pass, their grid points (k, M, N),
    the target membership of each point (k, M) and the cell volumes (k,).
    Sections with eta = t0 - tau outside (0, lam) or a zero radius are
    empty and never yielded.
    """
    logs = np.asarray(log_rhos, dtype=float)
    if np.any(logs <= 0.0):
        raise DomainError("section needs rho > 1")
    x0 = dom.z0.x
    eta = dom.z0.t - tau
    if eta <= 0 or eta >= lam:
        return
    r_cap = (lam ** 2 - eta ** 2) ** 0.25
    radii = [min(math.sqrt(eta * lg), r_cap) for lg in logs.tolist()]
    index = np.array([i for i, R in enumerate(radii) if R > 0], dtype=int)
    for lo, X, cellvol in _ball_grids(dom, [radii[i] for i in index],
                                      cells_x):
        k, M = X.shape[:2]
        idx = index[lo:lo + k]
        Xf = X.reshape(k * M, dom.N)
        keep = ~contains_runs(dom, Xf, tau, k * M)
        d = dist(dom.metric, Xf, x0[None, :])
        keep &= d * d <= np.repeat(eta * logs[idx], M)
        keep &= d ** 4 + eta ** 2 <= lam ** 2
        yield idx, X, keep.reshape(k, M), cellvol


def section_measures(dom: DomainSpec, lam: float, log_rhos, tau: float,
                     resolution: int) -> np.ndarray:
    """measure_estimate of sample_set_and_measure(dom, SectionTarget(lam,
    rho, tau), resolution) for every log rho of log_rhos, bit for bit
    where log rho = math.log(rho), from one vectorized pass over the fine
    grids and without the coarse pass."""
    if resolution < 1:
        raise DomainError("resolution must be >= 1")
    out = np.zeros(len(log_rhos))
    for idx, _, keep, cellvol in _section_chunks(dom, lam, log_rhos, tau,
                                                 2 ** resolution + 1):
        out[idx] = keep.sum(axis=1) * cellvol
    return out


def excluded_slice_measures(dom: DomainSpec, radii, times,
                            resolution: int) -> np.ndarray:
    """|{x in closed B(x0, R) : (x, t) not in Omega}| for every pair (R, t)
    of radii and times, counted on the midpoint grid of 2^resolution + 1
    cells per axis over the ball's coordinate box.  The balls are measured
    together, in passes of _ball_grids with the radius and the slice time
    repeated per grid row."""
    x0 = dom.z0.x
    out = np.zeros(len(radii))
    for lo, X, cellvol in _ball_grids(dom, radii, 2 ** resolution + 1):
        k, M = X.shape[:2]
        Xf = X.reshape(k * M, dom.N)
        keep = dist(dom.metric, Xf, x0[None, :]) <= np.repeat(
            radii[lo:lo + k], M)
        keep &= ~contains_runs(dom, Xf, times[lo:lo + k], M)
        out[lo:lo + k] = keep.reshape(k, M).sum(axis=1) * cellvol
    return out


def _ballcomp_eval(dom: DomainSpec, bt: BallComplementTarget, cells_x: int,
                   cells_t: int):
    t0 = dom.z0.t
    r = bt.lam ** (bt.l / 2.0)
    t_lo, t_hi = t0 - r * r, t0
    t_ax = axis_centers(0.5 * (t_lo + t_hi), 0.5 * (t_hi - t_lo), cells_t)
    _, (S,), (cellvol,) = next(_ball_grids(dom, [r], cells_x, cells_t))
    X = np.repeat(S, cells_t, axis=0)
    T = np.tile(t_ax, S.shape[0])
    cellvol = cellvol * (t_hi - t_lo) / cells_t
    keep = ~contains_many(dom, X, T)
    keep &= parabolic_dist_many(dom.metric, X, T, dom.z0) <= r
    n = int(keep.sum())
    # flat top slice at t = t0 (capacity-bearing for flat obstacles); zero
    # quadrature weight so the measure stays a bulk estimate
    Ts = np.full(S.shape[0], t0)
    top = ~contains_runs(dom, S, t0, S.shape[0])
    top &= dist(dom.metric, S, dom.z0.x[None, :]) <= r
    return (np.concatenate([X[keep], S[top]]),
            np.concatenate([T[keep], Ts[top]]),
            np.concatenate([np.full(n, cellvol), np.zeros(int(top.sum()))]),
            float(n * cellvol))


def _sample(dom: DomainSpec, target, resolution: int):
    """(X, T, weights, measure) of target on the resolution grid."""
    if resolution < 1:
        raise DomainError("resolution must be >= 1")
    cx = 2 ** resolution + 1
    ct = 2 ** resolution
    if isinstance(target, RingTarget):
        rs = target.ring
        return next(_ring_bands(dom, rs.lam, rs.k, [rs.h], rs.variant,
                                cx, ct))
    if isinstance(target, SectionTarget):
        for _, X, keep, cellvol in _section_chunks(
                dom, target.lam, [math.log(target.rho)], target.tau, cx):
            n = int(keep[0].sum())
            return (X[0][keep[0]], np.full(n, target.tau),
                    np.full(n, cellvol[0]), float(n * cellvol[0]))
        return (np.zeros((0, dom.N)), np.zeros(0), np.zeros(0), 0.0)
    if isinstance(target, BallComplementTarget):
        return _ballcomp_eval(dom, target, cx, ct)
    raise DomainError(f"unknown target {target!r}")


def sample_set_and_measure(dom: DomainSpec, target,
                           resolution: int) -> SetSample:
    """Deterministic midpoint-grid sample of a target set.

    resolution r uses 2^r + 1 spatial cells per axis (odd, so the axis
    through x0 is sampled) and 2^r time cells.  Only that grid is
    sampled, so standard_error is nan; see measure_standard_error.
    """
    X, T, w, meas = _sample(dom, target, resolution)
    return SetSample(X, T, w, meas, math.nan, resolution)


def measure_standard_error(dom: DomainSpec, target, resolution: int) -> float:
    """|fine - coarse|: the discrepancy of the target's measure on the
    resolution grid against the next-coarser grid, whose measure counts
    as 0 at resolution 1."""
    fine = _sample(dom, target, resolution)[3]
    coarse = _sample(dom, target, resolution - 1)[3] if resolution > 1 else 0.0
    return abs(fine - coarse)
