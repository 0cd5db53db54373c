"""Gaussian-type space-time kernels and the two-sided bound bookkeeping.

The d-Gaussian kernel with exponent a > 0 over a metric space (R^N, d) is

    G_a(z, w) = 0                                           if t <= s,
    G_a(z, w) = exp(-a d(x, y)^2 / (t - s)) / |B(x, sqrt(t - s))|  else,

with z = (x, t), w = (y, s).  A heat-type operator is admitted through the
two-sided bound  (1/Lambda) G_{b0} <= Gamma <= Lambda G_{a0}  on its
fundamental solution Gamma; everything downstream depends on the operator
only through (Lambda, a0, b0) and the doubling constant.

For the Euclidean model operator (1/beta) Laplace - d/dt the fundamental
solution is exact:

    Gamma(z, w) = (4 pi (t - s) / beta)^(-N/2) exp(-beta |x - y|^2 / (4 (t - s)))

which equals G_{beta/4} times the constant omega_N / (4 pi / beta)^(N/2),
so the bound holds with a0 = b0 = beta / 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metric import (MetricSpace, SpaceTimePoint, ball_volume_many, dist,
                     unit_ball_volume_euclidean)

_TINY = 1e-300  # flush-to-zero threshold for kernel values


class KernelError(ValueError):
    pass


@dataclass(frozen=True)
class GaussBounds:
    """Constants (Lambda, a0, b0) of the two-sided Gaussian bound, plus the
    doubling constant of the underlying metric."""

    Lambda: float
    a0: float
    b0: float
    c_d: float

    def __post_init__(self):
        if min(self.Lambda, self.a0, self.b0, self.c_d) <= 0:
            raise KernelError("GaussBounds entries must be positive")
        if self.Lambda < 1:
            raise KernelError("Lambda must be >= 1")


def structural_constant(b: GaussBounds) -> float:
    """Single number |H| = Lambda + 1/a0 + b0 + c_d that every stability
    constant in the workbench is allowed to depend on."""
    return b.Lambda + 1.0 / b.a0 + b.b0 + b.c_d


def euclidean_bounds(N: int, beta: float = 1.0) -> GaussBounds:
    """Exact-fit bounds for (1/beta) Laplace - d/dt on R^N."""
    ratio = unit_ball_volume_euclidean(N) / (4.0 * math.pi / beta) ** (N / 2.0)
    lam = max(ratio, 1.0 / ratio)
    return GaussBounds(Lambda=lam, a0=beta / 4.0, b0=beta / 4.0, c_d=2.0 ** N)


def _finish(logvals: np.ndarray, mask_pos: np.ndarray) -> np.ndarray:
    out = np.zeros(logvals.shape)
    good = mask_pos & (logvals > math.log(_TINY))
    out[good] = np.exp(logvals[good])
    return out


@dataclass(frozen=True)
class GaussianKernel:
    """G_a over a metric space; evaluation is exact-in-log-space and flushes
    values below 1e-300 to zero."""

    metric: MetricSpace
    a: float
    scale: float = 1.0  # multiplicative prefactor (used for Gamma surrogates)

    def __post_init__(self):
        if self.a <= 0 or self.scale <= 0:
            raise KernelError("need a > 0 and scale > 0")

    @property
    def N(self) -> int:
        return self.metric.N

    def matrix(self, Zx: np.ndarray, Zt: np.ndarray, Wx: np.ndarray,
               Wt: np.ndarray) -> np.ndarray:
        """K[i, j] = G_a(z_i, w_j) for evaluation points z and sources w."""
        Zx = np.atleast_2d(np.asarray(Zx, dtype=float))
        Wx = np.atleast_2d(np.asarray(Wx, dtype=float))
        Zt = np.atleast_1d(np.asarray(Zt, dtype=float))
        Wt = np.atleast_1d(np.asarray(Wt, dtype=float))
        dt = Zt[:, None] - Wt[None, :]
        pos = dt > 0
        dtp = np.where(pos, dt, 1.0)
        d2 = dist(self.metric, Zx[:, None, :], Wx[None, :, :]) ** 2
        vol = ball_volume_many(self.metric, Zx, np.sqrt(dtp))
        logk = math.log(self.scale) - np.log(np.maximum(vol, _TINY)) - self.a * d2 / dtp
        return _finish(logk, pos)

    def eval(self, z: SpaceTimePoint, w: SpaceTimePoint) -> float:
        return float(self.matrix(z.x[None, :], np.array([z.t]),
                                 w.x[None, :], np.array([w.t]))[0, 0])


@dataclass(frozen=True)
class HeatKernel:
    """Fundamental solution of (1/beta) Laplace - d/dt on R^N (Euclidean)."""

    N: int
    beta: float = 1.0

    def __post_init__(self):
        if self.N < 1 or self.beta <= 0:
            raise KernelError("need N >= 1 and beta > 0")

    @property
    def gaussian_factor(self) -> float:
        """HeatKernel = gaussian_factor * G_{beta/4} (Euclidean metric)."""
        return unit_ball_volume_euclidean(self.N) / (4.0 * math.pi / self.beta) ** (self.N / 2.0)

    def matrix(self, Zx, Zt, Wx, Wt) -> np.ndarray:
        Zx = np.atleast_2d(np.asarray(Zx, dtype=float))
        Wx = np.atleast_2d(np.asarray(Wx, dtype=float))
        Zt = np.atleast_1d(np.asarray(Zt, dtype=float))
        Wt = np.atleast_1d(np.asarray(Wt, dtype=float))
        dt = Zt[:, None] - Wt[None, :]
        pos = dt > 0
        dtp = np.where(pos, dt, 1.0)
        d2 = np.sum((Zx[:, None, :] - Wx[None, :, :]) ** 2, axis=-1)
        logk = (-0.5 * self.N * np.log(4.0 * math.pi * dtp / self.beta)
                - self.beta * d2 / (4.0 * dtp))
        return _finish(logk, pos)

    def eval(self, z: SpaceTimePoint, w: SpaceTimePoint) -> float:
        return float(self.matrix(z.x[None, :], np.array([z.t]),
                                 w.x[None, :], np.array([w.t]))[0, 0])


def gaussian_eval(metric: MetricSpace, a: float, z: SpaceTimePoint,
                  w: SpaceTimePoint) -> float:
    return GaussianKernel(metric, a).eval(z, w)


def heat_eval(N: int, beta: float, z: SpaceTimePoint, w: SpaceTimePoint) -> float:
    return HeatKernel(N, beta).eval(z, w)
