#!/usr/bin/env python3
"""Capacity discretization study: flat rectangles and parabolic balls.

Part 1 sweeps the sampling resolution for C_a(A x {tau}) on rectangles
and reports the capacity-per-measure density, which should settle as the
grid refines and stay inside a narrow bracket across shapes and
dimensions (the flat-set law).

Part 2 computes C_a of closed parabolic balls across dyadic radii; the
scheme is parabolically scale-covariant, so capacity divided by the
spatial ball volume should be constant in r.

Usage:
    python3 scripts/capacity_refinement_study.py [--exponent 0.25]
        [--res-min 3] [--res-max 6]
"""

import argparse

import numpy as np

import wienercap as wc
from wienercap.capacity import CapacityProblem, constraint_points, solve_capacity
from wienercap.domain import SetSample
from wienercap.metric import euclidean


def flat_rect(widths, res):
    axes = [np.linspace(0.0, w, 2 ** res + 1) for w in widths]
    mesh = np.meshgrid(*axes, indexing="ij")
    X = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    cell = float(np.prod([w / 2 ** res for w in widths]))
    return SetSample(X, np.zeros(X.shape[0]), np.full(X.shape[0], cell),
                     float(np.prod(widths)), 0.0, res)


def parabolic_ball(N, r, res):
    c = np.zeros(N)
    nx, nt = 2 ** res + 1, 2 ** res
    ax = [-r + (np.arange(nx) + 0.5) * (2 * r / nx) for _ in range(N)]
    tt = -r * r + (np.arange(nt) + 0.5) * (2 * r * r / nt)
    mesh = np.meshgrid(*ax, tt, indexing="ij")
    X = np.stack([m.reshape(-1) for m in mesh[:-1]], axis=-1)
    T = mesh[-1].reshape(-1)
    keep = (np.linalg.norm(X, axis=-1) ** 4 + T ** 2) ** 0.25 <= r
    X, T = X[keep], T[keep]
    cell = float((2 * r / nx) ** N * (2 * r * r / nt))
    return SetSample(X, T, np.full(X.shape[0], cell), cell * X.shape[0],
                     0.0, res)


def cap(metric, sample, a, res):
    cons = constraint_points(sample, metric, res)
    kern = wc.GaussianKernel(metric, a)
    return solve_capacity(
        CapacityProblem(kern, sample, cons[0], cons[1])).value


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--exponent", type=float, default=0.25,
                    help="Gaussian kernel exponent a (default 1/4)")
    ap.add_argument("--res-min", type=int, default=3)
    ap.add_argument("--res-max", type=int, default=6)
    args = ap.parse_args()
    a = args.exponent
    resolutions = range(args.res_min, args.res_max + 1)

    print(f"flat-set densities C_a(A x {{0}}) / |A|   (a = {a})")
    print("res:", "  ".join(f"{r:>8d}" for r in resolutions))
    cases = [((0.5,), 1), ((1.0,), 1), ((1.6,), 1),
             ((0.5, 0.5), 2), ((1.0, 1.0), 2)]
    finest = []
    for widths, N in cases:
        if N == 2 and max(resolutions) > 5:
            rs = [r for r in resolutions if r <= 5]
        else:
            rs = list(resolutions)
        m = euclidean(N)
        dens = [cap(m, flat_rect(widths, r), a, r) / float(np.prod(widths))
                for r in rs]
        finest.append(dens[-1])
        pad = "  ".join(f"{d:8.4f}" for d in dens)
        print(f"A = {str(widths):>12}:  {pad}")
    print(f"finest-level bracket max/min = {max(finest) / min(finest):.3f}\n")

    print(f"parabolic-ball ratio C_a(ball(r)) / |B(x0, r)|   (N = 1, a = {a})")
    for j in range(2, 7):
        r = 2.0 ** -j
        s = parabolic_ball(1, r, 4)
        print(f"r = 2^-{j}:  {cap(euclidean(1), s, a, 4) / (2 * r):.6f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
