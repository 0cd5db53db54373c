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
so the bound holds with a0 = b0 = beta / 4.  HeatKernel evaluates it as
exactly that scaled GaussianKernel.

The kernel sees its metric only through the metric module: d^2 from
metric.sq_gauge, the homogeneity test metric.unit_ball_constant (with
|B(x, r)| = c r^Q when it is not None) and, on table metrics, one Monte
Carlo ball volume per entry.

A kernel matrix is built from its factors.  -a d^2 depends on the space
coordinates only, and t - s and log |B(sqrt(t - s))| (+inf where
t <= s, which makes the entry 0) on the times only.  capacity.constraint_points lays its rows out as a
tensor grid of C spatial cells by T time cells, time fastest, followed by
the near-field rows; GaussianKernel.matrix recognises that leading block
from the rows themselves, computes -a d^2 on its C distinct spatial rows
and the time factors on its T distinct times, and broadcasts them into
the (C T, n) block.  The remaining rows are built row by row from the
same formula, so every entry is the same floating-point expression,
evaluated in the same order, whatever the layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metric import (MetricSpace, SpaceTimePoint, ball_volume_many,
                     euclidean, sq_gauge, unit_ball_constant)

_TINY = 1e-300  # flush-to-zero threshold for kernel values
_LOG_TINY = math.log(_TINY)


class KernelError(ValueError):
    pass


def _positive_finite(*values: float) -> bool:
    return all(math.isfinite(v) and v > 0 for v in values)


@dataclass(frozen=True)
class GaussBounds:
    """Constants (Lambda, a0, b0) of the two-sided Gaussian bound, plus the
    doubling constant of the underlying metric."""

    Lambda: float
    a0: float
    b0: float
    c_d: float

    def __post_init__(self):
        if not _positive_finite(self.Lambda, self.a0, self.b0, self.c_d):
            raise KernelError("GaussBounds entries must be positive and finite")
        if self.Lambda < 1:
            raise KernelError("Lambda must be >= 1")

    def exponents(self, a: float | None,
                  b: float | None) -> tuple[float, float]:
        """Exponents (a, b), with a = a0 and b = 2 b0 where not given."""
        return (self.a0 if a is None else a,
                2.0 * self.b0 if b is None else b)


def structural_constant(b: GaussBounds) -> float:
    """Single number |H| = Lambda + 1/a0 + b0 + c_d that every stability
    constant in the workbench is allowed to depend on."""
    return b.Lambda + 1.0 / b.a0 + b.b0 + b.c_d


def euclidean_bounds(N: int, beta: float = 1.0) -> GaussBounds:
    """Exact-fit bounds for (1/beta) Laplace - d/dt on R^N."""
    ratio = HeatKernel(N, beta).gaussian_factor
    lam = max(ratio, 1.0 / ratio)
    return GaussBounds(Lambda=lam, a0=beta / 4.0, b0=beta / 4.0, c_d=2.0 ** N)


def _exp_where(logk: np.ndarray, late: np.ndarray) -> np.ndarray:
    """exp(logk) in place, exactly 0 where `late` holds or logk is at or
    below log(1e-300); `late` broadcasts to logk's shape."""
    zero = logk <= _LOG_TINY
    zero |= late
    np.copyto(logk, -np.inf, where=zero)
    return np.exp(logk, out=logk)


def _gauss_into(out: np.ndarray, nad2: np.ndarray, dt: np.ndarray,
                logvol: np.ndarray, log_scale: float) -> None:
    """out = exp(nad2 / dt - logvol + log_scale), flushed to exactly 0 at
    or below log(1e-300).

    nad2 = -a d^2 is a space factor and (dt, logvol) are time factors;
    each broadcasts to out's shape, (r, n) row by row or (C, T, n) for a
    grid block.  logvol is +inf where t <= s (dt is 1 there), so those
    entries reach -inf and flush to 0 with no mask of their own.
    log_scale is added only when it is not 0: x + 0.0 is x up to the sign
    of a zero, which exp ignores, so the entries are bit for bit those of
    the unconditional sum.  The flush keeps the exponents above
    log(1e-300) and multiplies exp by that mask: an exponent at or below
    it has a finite exp, which the product turns into +0.0, and a nan
    stays nan.  Five passes over out, six with a scale."""
    np.divide(nad2, dt, out=out)
    out -= logvol
    if log_scale != 0.0:
        out += log_scale
    kept = out > _LOG_TINY
    np.exp(out, out=out)
    out *= kept


def _as_points(Zx, Zt, Wx, Wt):
    """Float arrays: points as (m, N) and (n, N), times as (m,) and (n,)."""
    return (np.atleast_2d(np.asarray(Zx, dtype=float)),
            np.atleast_1d(np.asarray(Zt, dtype=float)),
            np.atleast_2d(np.asarray(Wx, dtype=float)),
            np.atleast_1d(np.asarray(Wt, dtype=float)))


def _grid_block(Zx: np.ndarray, Zt: np.ndarray) -> tuple[int, int]:
    """(C, T) of the leading grid block of m >= 1 rows: rows [0, C T) are
    C runs of T rows, each run one spatial point, every run the same T
    times as the first.  T >= 1 is the first run's length; the block ends
    at the first run that breaks the pattern (C = 0 only if row 0 holds a
    nan) and any rows may follow.  Linear in m."""
    m = Zt.size
    differs = np.flatnonzero((Zx[1:] != Zx[0]).any(axis=1))
    T = int(differs[0]) + 1 if differs.size else m
    P = m // T
    xs = Zx[:P * T].reshape(P, T, -1)
    ok = (Zt[:P * T].reshape(P, T) == Zt[:T]).all(axis=1)
    ok &= (xs == xs[:, :1]).all(axis=(1, 2))
    return (P if ok.all() else int(np.argmin(ok))), T


def _time_gaps(Zt: np.ndarray, Wt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """t_i - s_j as an (m, n) array with 1.0 where t <= s, and that mask."""
    dt = np.subtract.outer(Zt, Wt)
    late = dt <= 0
    np.copyto(dt, 1.0, where=late)
    return dt, late


@dataclass(frozen=True)
class GaussianKernel:
    """G_a over a metric space; evaluation is exact-in-log-space and flushes
    values below 1e-300 to zero."""

    metric: MetricSpace
    a: float
    scale: float = 1.0  # multiplicative prefactor (used for Gamma surrogates)

    def __post_init__(self):
        if not _positive_finite(self.a, self.scale):
            raise KernelError("a and scale must be positive and finite")

    @property
    def N(self) -> int:
        return self.metric.N

    def matrix(self, Zx: np.ndarray, Zt: np.ndarray, Wx: np.ndarray,
               Wt: np.ndarray) -> np.ndarray:
        """K[i, j] = G_a(z_i, w_j) for evaluation points z and sources w.

        d^2 comes from metric.sq_gauge, on (rows, 1, N) against (1, n, N)
        atoms.  On homogeneous metrics (unit_ball_constant c not None) the
        rows split into a leading grid block of C spatial points by T
        times, time fastest (_grid_block, linear in m), and r = m - C T
        rows after it.  d^2 is computed once on the C + r spatial rows
        that matter and scaled by -a; dt and logvol = log |B(sqrt(dt))|
        = log c + (Q/2) log dt once on the T + r times, with logvol +inf
        where t <= s.  _gauss_into combines them, -a d^2 / dt - logvol
        + log scale, flushed and exponentiated, by broadcasting (C, 1, n)
        against (1, T, n) into the block and row by row for the rest; an
        entry with t <= s reaches -inf and so exactly 0.  Rows
        without the grid layout give a block of as little as one row, and
        the same matrix.  Table metrics take d^2 on all m rows and a Monte
        Carlo volume per entry."""
        Zx, Zt, Wx, Wt = _as_points(Zx, Zt, Wx, Wt)
        m = self.metric
        c = unit_ball_constant(m)
        if c is None:
            dt, late = _time_gaps(Zt, Wt)
            d2 = sq_gauge(m, Zx[:, None, :], Wx[None, :, :])
            vol = ball_volume_many(m, Zx, np.sqrt(dt))
            logk = (math.log(self.scale) - np.log(np.maximum(vol, _TINY))
                    - self.a * d2 / dt)
            return _exp_where(logk, late)
        out = np.empty((Zt.size, Wt.size))
        if Zt.size == 0:
            return out
        C, T = _grid_block(Zx, Zt)
        k = C * T
        nad2 = sq_gauge(m, np.concatenate([Zx[:k:T], Zx[k:]])[:, None, :],
                        Wx[None, :, :])
        nad2 *= -self.a
        dt, late = _time_gaps(np.concatenate([Zt[:T], Zt[k:]]), Wt)
        logvol = np.log(dt)
        logvol *= 0.5 * m.Q
        logvol += math.log(c)
        np.maximum(logvol, _LOG_TINY, out=logvol)
        np.copyto(logvol, np.inf, where=late)
        log_scale = math.log(self.scale)
        _gauss_into(out[:k].reshape(C, T, Wt.size), nad2[:C, None],
                    dt[None, :T], logvol[None, :T], log_scale)
        _gauss_into(out[k:], nad2[C:], dt[T:], logvol[T:], log_scale)
        return out

    def eval(self, z: SpaceTimePoint, w: SpaceTimePoint) -> float:
        return float(self.matrix(z.x[None, :], np.array([z.t]),
                                 w.x[None, :], np.array([w.t]))[0, 0])


@dataclass(frozen=True)
class HeatKernel:
    """Fundamental solution of (1/beta) Laplace - d/dt on R^N (Euclidean),
    evaluated as gaussian_factor * G_{beta/4}."""

    N: int
    beta: float = 1.0

    def __post_init__(self):
        if self.N < 1 or not _positive_finite(self.beta):
            raise KernelError("need N >= 1, and beta must be positive and "
                              f"finite; got N={self.N}, beta={self.beta}")

    @property
    def gaussian_factor(self) -> float:
        """HeatKernel = gaussian_factor * G_{beta/4} (Euclidean metric)."""
        return unit_ball_constant(euclidean(self.N)) / (
            4.0 * math.pi / self.beta) ** (self.N / 2.0)

    def matrix(self, Zx, Zt, Wx, Wt) -> np.ndarray:
        return GaussianKernel(euclidean(self.N), self.beta / 4.0,
                              self.gaussian_factor).matrix(Zx, Zt, Wx, Wt)

    eval = GaussianKernel.eval
