"""Metric-measure structure for the spatial variable and its parabolic lift.

Everything downstream runs on (R^N, d, Lebesgue) where d is a doubling
distance: the Euclidean norm, the Koranyi gauge on the first Heisenberg
group (coordinates (x1, x2, x3), homogeneous dimension 4), or a 1-D
distance table interpolated from a user grid.  Space-time points live in a
strip R^N x (T1, T2) and carry the parabolic gauge

    dhat(z, w) = (d(x, y)^4 + (t - s)^2)^(1/4).

Every decision that depends on the metric kind is made here, once; the
other modules see the metric only through its answers.  unit_ball_constant
is the homogeneity test (|B(x, r)| = c r^Q, or None for a table metric,
whose ball volumes are Monte Carlo hit counts at each ball's own centre).
One gauge routine, coordinate by coordinate on broadcast (..., N) arrays,
gives d^2 to the kernel (sq_gauge) and d to everything else (dist).  frame
is the dilation that puts a set in the frame of x0 at scale r.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy import special


@dataclass(frozen=True)
class SpaceTimePoint:
    """Point z = (x, t) of the strip; x is a shape-(N,) float array."""

    x: np.ndarray
    t: float

    def __post_init__(self):
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, dtype=float)))
        object.__setattr__(self, "t", float(self.t))

    @property
    def N(self) -> int:
        return self.x.shape[0]


def stp(x, t) -> SpaceTimePoint:
    """Shorthand constructor; accepts a scalar x when N = 1."""
    return SpaceTimePoint(np.atleast_1d(np.asarray(x, dtype=float)), float(t))


class MetricError(ValueError):
    pass


@dataclass(frozen=True)
class MetricSpace:
    """A distance on R^N with the data its ball volumes need.

    kind             one of "euclidean", "heisenberg-koranyi", "table"
    N                topological dimension of the coordinate chart
    Q                volume-doubling exponent (|B(x, 2r)| <= c_d |B(x, r)|,
                     |B(x, r)| ~ r^Q for the built-in kinds)
    c_d              doubling constant
    mc_samples       (table kind only) sample count for monte-carlo volumes
    seed             (table kind only) seed for the volume-estimate stream
    table_axis       (table kind only) shared 1-D coordinate grid
    table_values     (table kind only) matrix d(axis_i, axis_j)
    """

    kind: str
    N: int
    Q: float
    c_d: float
    mc_samples: int = 20000
    seed: int = 0
    table_axis: np.ndarray | None = field(default=None, repr=False)
    table_values: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("euclidean", "heisenberg-koranyi", "table"):
            raise MetricError(f"unknown metric kind {self.kind!r}")
        if self.Q <= 0 or self.c_d <= 1:
            raise MetricError("need Q > 0 and c_d > 1")


def euclidean(N: int) -> MetricSpace:
    if N < 1:
        raise MetricError("N must be >= 1")
    if N >= sys.float_info.max_exp:
        raise MetricError(f"N = {N} makes the doubling constant 2^N infinite")
    return MetricSpace("euclidean", N, float(N), 2.0 ** N)


def heisenberg_koranyi() -> MetricSpace:
    """First Heisenberg group, Koranyi gauge; N = 3, Q = 4."""
    return MetricSpace("heisenberg-koranyi", 3, 4.0, 16.0)


def table_metric(axis, values, Q: float, c_d: float, mc_samples: int = 20000,
                 seed: int = 0) -> MetricSpace:
    """1-D metric given by a distance matrix over a shared axis grid.

    Distances between off-grid points are interpolated bilinearly.  The
    doubling data (Q, c_d) are taken on trust from the caller; runs on
    table metrics are labelled assumption-unverified by the reporting
    layer.
    """
    axis = np.asarray(axis, dtype=float)
    values = np.asarray(values, dtype=float)
    if axis.ndim != 1 or axis.size < 2 or np.any(np.diff(axis) <= 0):
        raise MetricError("table axis must be strictly increasing, length >= 2")
    if values.shape != (axis.size, axis.size):
        raise MetricError("table values must be square over the axis grid")
    if not np.allclose(values, values.T, atol=1e-12):
        raise MetricError("distance table must be symmetric")
    if not np.allclose(np.diag(values), 0.0, atol=1e-12):
        raise MetricError("distance table must vanish on the diagonal")
    if np.any(values < 0):
        raise MetricError("distance table must be nonnegative")
    return MetricSpace("table", 1, float(Q), float(c_d), mc_samples, seed,
                       table_axis=axis, table_values=values)


# ---------------------------------------------------------------------------
# the gauge, its dilations and the homogeneity test

def unit_ball_constant(m: MetricSpace) -> float | None:
    """c with |B(x, r)| = c r^Q for every centre x and radius r: the one
    test of homogeneity.  On R^N, c = omega_N = pi^(N/2) / Gamma(N/2 + 1).
    On the Koranyi group, c = pi^2/8: the unit ball's horizontal slice at
    height v is a disk of area pi sqrt(1 - 16 v^2), and these areas
    integrate to pi^2/8 over |v| <= 1/4.  None for table metrics, whose
    balls depend on the centre and which have no dilations."""
    if m.kind == "euclidean":
        return math.pi ** (m.N / 2.0) / special.gamma(m.N / 2.0 + 1.0)
    if m.kind == "heisenberg-koranyi":
        return math.pi ** 2 / 8
    return None


def displacement(m: MetricSpace, x, y):
    """The N coordinate arrays of x^-1 o y for (..., N) arrays x and y that
    broadcast together, to be iterated once: y - x on R^N, each made as it
    is taken, and (y1 - x1, y2 - x2, y3 - x3 - (x1 y2 - x2 y1) / 2) on the
    Koranyi group.  Rows (m, 1, N) against (1, n, N) give (m, n) arrays;
    no (m, n, N) array is formed."""
    xs = [x[..., k] for k in range(m.N)]
    ys = [y[..., k] for k in range(m.N)]
    if m.kind == "heisenberg-koranyi":
        (x1, x2, x3), (y1, y2, y3) = xs, ys
        return y1 - x1, y2 - x2, (y3 - x3) - 0.5 * (x1 * y2 - x2 * y1)
    return (yk - xk for xk, yk in zip(xs, ys))


def _table_lookup(m: MetricSpace, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    ax = m.table_axis
    vals = m.table_values
    xq = np.clip(x[..., 0], ax[0], ax[-1])
    yq = np.clip(y[..., 0], ax[0], ax[-1])
    i = np.clip(np.searchsorted(ax, xq) - 1, 0, ax.size - 2)
    j = np.clip(np.searchsorted(ax, yq) - 1, 0, ax.size - 2)
    fx = (xq - ax[i]) / (ax[i + 1] - ax[i])
    fy = (yq - ax[j]) / (ax[j + 1] - ax[j])
    v00 = vals[i, j]
    v10 = vals[i + 1, j]
    v01 = vals[i, j + 1]
    v11 = vals[i + 1, j + 1]
    return ((1 - fx) * (1 - fy) * v00 + fx * (1 - fy) * v10
            + (1 - fx) * fy * v01 + fx * fy * v11)


def _gauge_power(m: MetricSpace, x, y):
    """(d(x, y)^p, p) for (..., N) arrays x and y that broadcast together,
    built coordinate by coordinate, in place: the sum of squares (p = 2)
    on R^N, the quartic h = (u1^2 + u2^2)^2 + 16 u3^2 of u = x^-1 o y
    (p = 4) on the Koranyi group, the interpolated table (p = 1)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1] != m.N or y.shape[-1] != m.N:
        raise MetricError(f"points must have {m.N} spatial coordinates")
    if m.kind == "table":
        return _table_lookup(m, x, y), 1
    u = displacement(m, x, y)   # fresh arrays, squared and summed in place
    if m.kind == "euclidean":
        g = next(u) ** 2
        for uk in u:
            uk *= uk
            g += uk
        return g, 2
    h, u2, u3 = u
    h *= h
    u2 *= u2
    h += u2
    h *= h
    u3 *= u3
    u3 *= 16.0
    h += u3
    return h, 4


def sq_gauge(m: MetricSpace, x, y) -> np.ndarray:
    """d(x, y)^2 over the broadcast leading axes of (..., N) arrays x and
    y: the kernel's one distance routine (see _gauge_power)."""
    g, p = _gauge_power(m, x, y)
    return g if p == 2 else np.sqrt(g) if p == 4 else g * g


def dist(m: MetricSpace, x, y) -> np.ndarray | float:
    """d(x, y); broadcasts over leading axes of x and y.  The root of the
    gauge: sqrt of the sum of squares on R^N, h^(1/4) on the Koranyi
    group."""
    g, p = _gauge_power(m, x, y)
    out = np.sqrt(g) if p == 2 else g ** 0.25 if p == 4 else g
    return float(out) if np.ndim(out) == 0 else out


def frame(m: MetricSpace, x0, X: np.ndarray,
          r: float) -> tuple[np.ndarray, float]:
    """Points X (n, N) in the frame of x0 at scale r, and the scale: the
    dilation delta_{1/r}(x0^-1 o X), which is (X - x0) / r on R^N and
    (u1 / r, u2 / r, u3 / r^2) on the Koranyi group.  A table metric has
    no dilations and keeps X, with r = 1."""
    if unit_ball_constant(m) is None:
        return X, 1.0
    degrees = (1, 1, 2) if m.kind == "heisenberg-koranyi" else (1,) * m.N
    u = displacement(m, np.asarray(x0, dtype=float), X)
    return np.stack([uk / r ** w for uk, w in zip(u, degrees)], axis=-1), r


def parabolic_dist(m: MetricSpace, z: SpaceTimePoint, w: SpaceTimePoint) -> float:
    """dhat(z, w) = (d(x, y)^4 + (t - s)^2)^(1/4)."""
    return float((dist(m, z.x, w.x) ** 4 + (z.t - w.t) ** 2) ** 0.25)


def parabolic_dist_many(m: MetricSpace, X: np.ndarray, T: np.ndarray,
                        z: SpaceTimePoint) -> np.ndarray:
    d = dist(m, X, z.x[None, :])
    return (d ** 4 + (np.asarray(T, dtype=float) - z.t) ** 2) ** 0.25


# ---------------------------------------------------------------------------
# ball volumes

def ball_coord_halfwidths(m: MetricSpace, r: float,
                          center=None) -> np.ndarray:
    """Per-axis halfwidths of the coordinate bounding box of B_d(x, r),
    centred at x.

    For the Koranyi gauge the box of the ball around the origin is
    [-r, r]^2 x [-r^2/4, r^2/4]; translation by x = center adds a twist of
    at most (|x1| + |x2|) r / 2 in the vertical coordinate.  Without a
    centre the box is the origin's, which covers a ball around x only
    when x lies on the vertical axis.
    """
    r = float(r)
    if m.kind == "heisenberg-koranyi":
        vert = 0.25 * r * r
        if center is not None:
            vert += 0.5 * (abs(float(center[0])) + abs(float(center[1]))) * r
        return np.array([r, r, vert])
    return np.full(m.N, r)


def ball_volume_with_error(m: MetricSpace, x, r: float) -> tuple[float, float]:
    """|B_d(x, r)| and the standard error of the estimate (0 if closed-form)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    r = float(r)
    if r <= 0:
        return 0.0, 0.0
    c = unit_ball_constant(m)
    if c is not None:
        return c * r ** m.Q, 0.0
    # table metric: uniform proposals over the interval [x - r, x + r],
    # which contains the ball when d dominates |x - y|; unbiased hit count.
    rng = np.random.default_rng(m.seed)
    half = ball_coord_halfwidths(m, r)
    pts = np.clip(x + rng.uniform(-1.0, 1.0, size=(m.mc_samples, m.N)) * half,
                  m.table_axis[0], m.table_axis[-1])
    hits = dist(m, pts, x[None, :]) < r
    p = hits.mean()
    box = float(np.prod(2.0 * half))
    se = box * math.sqrt(max(p * (1.0 - p), 0.0) / m.mc_samples)
    return box * p, se


def ball_volume(m: MetricSpace, x, r: float) -> float:
    return ball_volume_with_error(m, x, r)[0]


def ball_volume_many(m: MetricSpace, X, r) -> np.ndarray:
    """|B_d(X[i], r[i, ...])| for row centres X of shape (n, N) and radii r
    of shape (n, ...).  Closed-form kinds ignore the centres; table metrics
    take one Monte Carlo estimate per entry at its row's centre."""
    r = np.asarray(r, dtype=float)
    c = unit_ball_constant(m)
    if c is not None:
        return c * r ** m.Q
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.array([[ball_volume(m, x, ri) for ri in row.reshape(-1)]
                     for x, row in zip(X, r)]).reshape(r.shape)
