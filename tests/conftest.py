"""Shared fixtures and sample-set builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import wienercap as wc
from wienercap import capacity
from wienercap.domain import SetSample

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=30,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def m1():
    return wc.euclidean(1)


@pytest.fixture(scope="session")
def m2():
    return wc.euclidean(2)


@pytest.fixture(scope="session")
def heis():
    return wc.heisenberg_koranyi()


@pytest.fixture(scope="session")
def bounds1():
    return wc.euclidean_bounds(1, 2.0)


def counting_solves(monkeypatch):
    """Replace capacity._solve_lp by a wrapper recording the matrix shape
    of each fresh LP solve; a solve may run several covering rounds, and a
    memo hit runs none."""
    calls = []
    real = capacity._solve_lp

    def wrapper(K, c, kappa, h):
        calls.append(K.shape)
        return real(K, c, kappa, h)

    monkeypatch.setattr(capacity, "_solve_lp", wrapper)
    return calls


def flat_rect_sample(widths, tau, res):
    """Uniform grid sample of the closed box prod [0, w_i] x {tau}."""
    axes = [np.linspace(0.0, w, 2 ** res + 1) for w in widths]
    mesh = np.meshgrid(*axes, indexing="ij")
    X = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    T = np.full(X.shape[0], float(tau))
    cell = float(np.prod([w / 2 ** res for w in widths]))
    return SetSample(X, T, np.full(X.shape[0], cell),
                     float(np.prod(widths)), 0.0, res)


def parabolic_ball_sample(N, r, res, center=None, t0=0.0):
    """Midpoint-grid sample of the closed parabolic ball of radius r."""
    c = np.zeros(N) if center is None else np.asarray(center, float)
    nx = 2 ** res + 1
    nt = 2 ** res
    ax = [c[i] - r + (np.arange(nx) + 0.5) * (2 * r / nx) for i in range(N)]
    tt = t0 - r * r + (np.arange(nt) + 0.5) * (2 * r * r / nt)
    mesh = np.meshgrid(*ax, tt, indexing="ij")
    X = np.stack([m.reshape(-1) for m in mesh[:-1]], axis=-1)
    T = mesh[-1].reshape(-1)
    d = np.linalg.norm(X - c, axis=-1)
    keep = (d ** 4 + (T - t0) ** 2) ** 0.25 <= r
    X, T = X[keep], T[keep]
    cell = float((2 * r / nx) ** N * (2 * r * r / nt))
    return SetSample(X, T, np.full(X.shape[0], cell),
                     cell * X.shape[0], 0.0, res)


def random_cloud_sample(rng, N, n_atoms, box=0.5, t_lo=-0.5, t_hi=0.0):
    """Random space-time point cloud with equal weights summing to 1."""
    X = rng.uniform(-box, box, size=(n_atoms, N))
    T = rng.uniform(t_lo, t_hi, size=n_atoms)
    return SetSample(X, T, np.full(n_atoms, 1.0 / n_atoms), 1.0, 0.0, 3)
