"""Output checks that do not trust the program under test.

Each check takes plain data (arrays, dicts, small record objects) and
returns a list of error strings; an empty list means the check passed.
The kernel formulas and the packing LP here are written from the
definitions, not imported from wienercap, so a fault in the program's
kernel, volume or LP code cannot hide behind itself.

    G_a(z, w) = exp(-a d(x, y)^2 / (t - s)) / |B(sqrt(t - s))|   (t > s)
    |B(r)| = omega_N r^N (Euclidean),  (pi^2 / 8) r^4 (Koranyi)
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog

# Classical answers for the registry points (not read from the program's
# BENCHMARK_STATUS): the time halfspace, the spatial halfspace and an
# exterior cone are regular for any operator with two-sided Gaussian
# bounds; the centre of a cylinder's top cap is the textbook irregular point.
CLASSICAL_VERDICTS = {
    "halfspace": "REGULAR",
    "spatial-halfspace": "REGULAR",
    "cone": "REGULAR",
    "cylinder-top": "IRREGULAR",
}
REGISTRY_DOMAINS = ("halfspace", "spatial-halfspace", "cylinder-top", "cone",
                    "cusp-power", "cusp-loglog")

LP_TOLERANCE = 1e-6       # relative duality gap the program certifies
FEASIBILITY_SLACK = 1e-9  # allowed overshoot of K mu <= 1


# ---------------------------------------------------------------------------
# independent kernel

def gauge(kind: str, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """d(X[i], Y[j]) as an (len(X), len(Y)) matrix."""
    x = np.asarray(X, dtype=float)[:, None, :]
    y = np.asarray(Y, dtype=float)[None, :, :]
    if kind == "euclidean":
        return np.sqrt(np.sum((x - y) ** 2, axis=-1))
    if kind == "heisenberg-koranyi":
        # |x^{-1} y| with (a o b)_3 = a3 + b3 + (a1 b2 - a2 b1) / 2
        u1 = y[..., 0] - x[..., 0]
        u2 = y[..., 1] - x[..., 1]
        u3 = (y[..., 2] - x[..., 2]
              - 0.5 * (x[..., 0] * y[..., 1] - x[..., 1] * y[..., 0]))
        return ((u1 * u1 + u2 * u2) ** 2 + 16.0 * u3 * u3) ** 0.25
    raise ValueError(f"no independent gauge for metric {kind!r}")


def ball_volume(kind: str, N: int, r):
    r = np.asarray(r, dtype=float)
    if kind == "euclidean":
        return math.pi ** (N / 2.0) / math.gamma(N / 2.0 + 1.0) * r ** N
    if kind == "heisenberg-koranyi":
        return (math.pi ** 2 / 8.0) * r ** 4
    raise ValueError(f"no independent volume for metric {kind!r}")


def kernel_matrix(kind: str, N: int, a: float, Zx, Zt, Wx, Wt) -> np.ndarray:
    """K[i, j] = G_a((Zx[i], Zt[i]), (Wx[j], Wt[j]))."""
    dt = np.asarray(Zt, dtype=float)[:, None] - np.asarray(Wt, dtype=float)[None, :]
    pos = dt > 0
    dtp = np.where(pos, dt, 1.0)
    d = gauge(kind, Zx, Wx)
    K = np.exp(-a * d * d / dtp) / ball_volume(kind, N, np.sqrt(dtp))
    return np.where(pos, K, 0.0)


def packing_value(K: np.ndarray) -> float:
    """max sum(mu) s.t. K mu <= 1, mu >= 0, by an interior-point solve (the
    program uses HiGHS' default simplex path)."""
    kappa = float(K.max())
    res = linprog(c=-np.ones(K.shape[1]), A_ub=K / kappa,
                  b_ub=np.ones(K.shape[0]), bounds=(0.0, None),
                  method="highs-ipm")
    if not res.success:
        raise RuntimeError(f"independent LP failed: {res.message}")
    return float(-res.fun / kappa)


def rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# lp-cloud: certificate properties of one packing solution

def check_packing(label: str, kind: str, N: int, a: float, value: float,
                  dual_value: float, mu: np.ndarray, support_x, support_t,
                  cons_x, cons_t) -> list[str]:
    """Duality bracket, sign and mass of mu, and K mu <= 1 on the grid
    with K from the formulas above."""
    errs = []
    gap = (dual_value - value) / max(value, 1e-300)
    if not (value > 0 and -1e-12 <= gap <= LP_TOLERANCE):
        errs.append(f"{label}: relative duality gap {gap:.3e} "
                    f"outside [0, {LP_TOLERANCE:g}] (value {value:.6e})")
    mu = np.asarray(mu, dtype=float)
    if mu.min(initial=0.0) < 0.0:
        errs.append(f"{label}: mu has a negative entry {mu.min():.3e}")
    if rel_diff(float(mu.sum()), value) > 1e-12:
        errs.append(f"{label}: sum(mu)={mu.sum():.15e} != value={value:.15e}")
    K = kernel_matrix(kind, N, a, cons_x, cons_t, support_x, support_t)
    pot = float((K @ mu).max(initial=0.0))
    if pot > 1.0 + FEASIBILITY_SLACK:
        errs.append(f"{label}: potential K mu reaches {pot:.12f} > 1 + "
                    f"{FEASIBILITY_SLACK:g} on the constraint grid")
    return errs


def check_resolve(label: str, value: float, independent: float,
                  tol: float = LP_TOLERANCE) -> list[str]:
    if rel_diff(value, independent) > tol:
        return [f"{label}: program value {value:.10e} vs independent "
                f"re-solve {independent:.10e} (rel {rel_diff(value, independent):.2e}"
                f" > {tol:g})"]
    return []


# ---------------------------------------------------------------------------
# scale-comparability: the parabolic-dilation law on a nested table

def cap_free_levels(lam: float, h: int, K_max: int) -> list[int]:
    """Levels k whose band-h nested ring lies strictly inside the cap
    dhat <= sqrt(lam): on the ring eta <= lam^k and d^2 <= h log(1/lam)
    eta, so dhat^4 <= lam^(2k) ((h L)^2 + 1) and the cap is inactive once
    lam^(k-1) sqrt((h L)^2 + 1) <= 1."""
    L = math.log(1.0 / lam)
    c = math.sqrt((h * L) ** 2 + 1.0)
    return [k for k in range(1, K_max + 1) if lam ** (k - 1) * c <= 1.0]


def check_dilation(label: str, lam: float, K_max: int, capacities: dict,
                   x0_volume, tol: float = 2 * LP_TOLERANCE) -> list[str]:
    """For each band h, cap(k, h) / |B(x0, lam^(k/2))| must agree across
    every cap-free level k: the halfspace complement is invariant under
    (x, t) -> (r x, r^2 t) about z0 and G_a scales like r^(-Q).  Each
    value is within LP_TOLERANCE of its optimum, hence the 2x tolerance.
    capacities maps (k, h) -> object with .value; x0_volume(r) = |B(x0, r)|.
    """
    errs, compared = [], 0
    bands = sorted({h for (_, h) in capacities})
    for h in bands:
        levels = [k for k in cap_free_levels(lam, h, K_max)
                  if capacities.get((k, h)) is not None]
        if len(levels) < 2:
            continue
        ratios = {k: capacities[(k, h)].value / x0_volume(lam ** (k / 2.0))
                  for k in levels}
        ref = ratios[levels[0]]
        for k in levels[1:]:
            compared += 1
            if rel_diff(ratios[k], ref) > tol:
                errs.append(f"{label}: dilation law broken at h={h}: "
                            f"cap/|B| = {ratios[k]:.10e} at k={k} vs "
                            f"{ref:.10e} at k={levels[0]}")
    if compared == 0:
        errs.append(f"{label}: no band has two cap-free levels; "
                    "dilation law untested")
    return errs


def check_comparability(sigma: float, constant: float,
                        stability: float) -> list[str]:
    errs = []
    if sigma != 2.0:
        errs.append(f"sigma = {sigma!r}, expected exactly 2")
    if not (math.isfinite(constant) and constant > 0):
        errs.append(f"comparability constant C = {constant!r} not finite positive")
    if not stability <= 2.0:
        errs.append(f"stability {stability!r} > 2")
    return errs


# ---------------------------------------------------------------------------
# registry-suite: verdicts and cross-checks read back from the bundle

def check_registry(bundle: dict) -> list[str]:
    """bundle maps file name -> parsed JSON for one benchmark-suite run.

    Verdicts are compared with CLASSICAL_VERDICTS; the integral/series
    contradiction and the Monte Carlo contradiction are recomputed from
    the per-domain reports rather than read from the summary flags.  The
    Monte Carlo check covers the domains with classical answers only (see
    README: on the thin power cusp the probe flips with the seed)."""
    errs = []
    for name in REGISTRY_DOMAINS:
        cls = bundle.get(f"{name}_classification.json")
        irep = bundle.get(f"{name}_integral.json")
        if cls is None or irep is None:
            errs.append(f"{name}: classification or integral report missing")
            continue
        verdict = cls["verdict"]
        expected = CLASSICAL_VERDICTS.get(name)
        if expected is not None and verdict != expected:
            errs.append(f"{name}: verdict {verdict}, classical answer {expected}")
        suff = (cls.get("sufficient") or {}).get("verdict")
        if irep["divergent"] and suff == "CONVERGENT":
            errs.append(f"{name}: divergent integral vs convergent "
                        "sufficient series")
        if expected is None:
            continue
        probe = bundle.get(f"{name}_pde_probe.json")
        if probe is None:
            errs.append(f"{name}: Monte Carlo probe report missing")
            continue
        bad = {"REGULAR": "NO-DECAY", "IRREGULAR": "DECAY-FIT"}.get(verdict)
        if probe["status"] == bad:
            errs.append(f"{name}: Monte Carlo probe {probe['status']} "
                        f"contradicts {verdict}")
    return errs
