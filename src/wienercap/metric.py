"""Metric-measure structure for the spatial variable and its parabolic lift.

Everything downstream runs on (R^N, d, Lebesgue) where d is a doubling
distance: the Euclidean norm or the Koranyi gauge on the first Heisenberg
group (coordinates (x1, x2, x3), homogeneous dimension 4).  Space-time
points live in a strip R^N x (T1, T2) and carry the parabolic gauge

    dhat(z, w) = (d(x, y)^4 + (t - s)^2)^(1/4).

Every decision that depends on the metric kind is made here, once; the
other modules see the metric only through its answers.  Both kinds are
homogeneous: every ball has volume |B(x, r)| = c r^Q, with c from
unit_ball_constant.  One gauge routine, coordinate by coordinate on
broadcast (..., N) arrays, gives d^2 to the kernel (sq_gauge) and d to
everything else (dist).  frame is the dilation that puts a set in the
frame of x0 at scale r.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

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

    kind             "euclidean" or "heisenberg-koranyi"
    N                topological dimension of the coordinate chart
    Q                homogeneous dimension: |B(x, r)| = c r^Q
    c_d              doubling constant, |B(x, 2r)| <= c_d |B(x, r)|
    """

    kind: str
    N: int
    Q: float
    c_d: float

    def __post_init__(self):
        if self.kind not in ("euclidean", "heisenberg-koranyi"):
            raise MetricError(f"unknown metric kind {self.kind!r}")
        if self.Q <= 0 or self.c_d <= 1:
            raise MetricError("need Q > 0 and c_d > 1")


def euclidean(N: int) -> MetricSpace:
    if N < 1:
        raise MetricError("N must be >= 1")
    if N >= sys.float_info.max_exp:
        raise MetricError(f"N = {N} makes the doubling constant 2^N infinite")
    m = MetricSpace("euclidean", N, float(N), 2.0 ** N)
    if unit_ball_constant(m) == 0.0:
        raise MetricError(f"N = {N} underflows the unit-ball constant "
                          "omega_N to 0")
    return m


def heisenberg_koranyi() -> MetricSpace:
    """First Heisenberg group, Koranyi gauge; N = 3, Q = 4."""
    return MetricSpace("heisenberg-koranyi", 3, 4.0, 16.0)


# ---------------------------------------------------------------------------
# the gauge, its dilations and the ball constant

def unit_ball_constant(m: MetricSpace) -> float:
    """c with |B(x, r)| = c r^Q for every centre x and radius r.  On R^N,
    c = omega_N = pi^(N/2) / Gamma(N/2 + 1).
    On the Koranyi group, c = pi^2/8: the unit ball's horizontal slice at
    height v is a disk of area pi sqrt(1 - 16 v^2), and these areas
    integrate to pi^2/8 over |v| <= 1/4."""
    if m.kind == "euclidean":
        return math.pi ** (m.N / 2.0) / special.gamma(m.N / 2.0 + 1.0)
    return math.pi ** 2 / 8


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


def _gauge_power(m: MetricSpace, x, y):
    """(d(x, y)^p, p) for (..., N) arrays x and y that broadcast together,
    built coordinate by coordinate, in place: the sum of squares (p = 2)
    on R^N, the quartic h = (u1^2 + u2^2)^2 + 16 u3^2 of u = x^-1 o y
    (p = 4) on the Koranyi group."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1] != m.N or y.shape[-1] != m.N:
        raise MetricError(f"points must have {m.N} spatial coordinates")
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
    return g if p == 2 else np.sqrt(g)


def dist(m: MetricSpace, x, y) -> np.ndarray | float:
    """d(x, y); broadcasts over leading axes of x and y.  The root of the
    gauge: sqrt of the sum of squares on R^N, h^(1/4) on the Koranyi
    group."""
    g, p = _gauge_power(m, x, y)
    out = np.sqrt(g) if p == 2 else g ** 0.25
    return float(out) if np.ndim(out) == 0 else out


def frame(m: MetricSpace, x0, X: np.ndarray, r: float) -> np.ndarray:
    """Points X (n, N) in the frame of x0 at scale r: the dilation
    delta_{1/r}(x0^-1 o X), which is (X - x0) / r on R^N and
    (u1 / r, u2 / r, u3 / r^2) on the Koranyi group."""
    degrees = (1, 1, 2) if m.kind == "heisenberg-koranyi" else (1,) * m.N
    u = displacement(m, np.asarray(x0, dtype=float), X)
    return np.stack([uk / r ** w for uk, w in zip(u, degrees)], axis=-1)


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


def ball_volume(m: MetricSpace, r: float) -> float:
    """|B(x, r)| = c r^Q, the same at every centre x; 0 for r <= 0."""
    r = float(r)
    return unit_ball_constant(m) * r ** m.Q if r > 0 else 0.0
