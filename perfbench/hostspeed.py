"""Host speed, sampled beside the measured work.

The benchmark host is a small VM on a shared machine, and its speed
drifts: the same work takes up to 1.5 times as long in a slow spell as in
a fast one, and the spells last from seconds to minutes.  Raw times of
two sets of runs of the same code then differ by more than any useful
regression bound.

A fixed Reference computation, made from the benchmark's own code and
data and never from the program, is timed beside the measured work:
when a round starts, before a paced call into the program once PACE_S
seconds of program time have passed since the last sample, and when the
round ends.  Each stretch of program time between two reference samples
is scaled by REF_NOMINAL_S / r, with r the geometric mean of those two
samples.  The sum over a round is the round's time at the host's nominal
speed.  The reference time itself is left out.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time

import numpy as np
from scipy.optimize import linprog

PACE_S = 1.5          # program time between reference samples
REF_NOMINAL_S = 0.15  # reference time at the host's typical speed
WARMUP = 3            # untimed reference runs before the first sample
REF_WALKERS, REF_STEPS, REF_SEED = 2000, 400, 7
REF_LP_ROWS, REF_LP_COLS = 800, 120


class Reference:
    """A fixed computation made of the two kinds of work the program does:
    a dense Gaussian-kernel packing LP solved by scipy's HiGHS (the
    capacity layer) and a vectorised random walk (the Monte Carlo layer).
    Calling it returns the seconds it took."""

    def __init__(self):
        rng = np.random.default_rng(REF_SEED)
        P = rng.uniform(-1.0, 1.0, size=(REF_LP_ROWS, 2))
        Q = rng.uniform(-1.0, 1.0, size=(REF_LP_COLS, 2))
        self.K = np.exp(-3.0 * np.sum((P[:, None] - Q[None]) ** 2, axis=-1))

    def __call__(self) -> float:
        t0 = time.perf_counter()
        res = linprog(c=-np.ones(REF_LP_COLS), A_ub=self.K,
                      b_ub=np.ones(REF_LP_ROWS), bounds=(0.0, None),
                      method="highs")
        rng = np.random.default_rng(REF_SEED)
        X = np.zeros((REF_WALKERS, 2))
        alive = np.ones(REF_WALKERS, dtype=bool)
        for _ in range(REF_STEPS):
            X += 0.05 * rng.standard_normal(X.shape)
            alive &= np.einsum("ij,ij->i", X, X) < 1.0
            X[~alive] = 0.0
        dt = time.perf_counter() - t0
        if not res.success:
            raise RuntimeError(f"reference LP failed: {res.message}")
        return dt


class ReferenceProcess:
    """Runs the Reference in a child process of its own, one call at a
    time while the caller waits, so the state the program leaves in its
    own process cannot slow the reference down.  Inside that process,
    after lp-cloud's large LPs, it ran up to 2x slower while the program
    did not."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __call__(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("reference process ended")
        return float(line)

    def close(self):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()


def serve():
    """Child side of ReferenceProcess: one timed Reference per input line."""
    ref = Reference()
    for _ in sys.stdin:
        print(repr(ref()), flush=True)


class HostSpeed:
    """Reference samples and the program stretches between them."""

    def __init__(self, pace: float = PACE_S, reference=None,
                 clock=time.perf_counter):
        self.pace = pace
        self._reference = reference or ReferenceProcess()
        self._clock = clock
        self.refs: list[float] = []       # every reference sample
        self._segs: list[float] = []      # program stretches of this round
        self._first = 0                   # index in refs of this round's first
        self._t0 = 0.0
        for _ in range(WARMUP):
            self._reference()

    def close(self):
        if isinstance(self._reference, ReferenceProcess):
            self._reference.close()

    def sample(self) -> float:
        r = self._reference()
        self.refs.append(r)
        return r

    @staticmethod
    def scale(duration: float, before: float, after: float) -> float:
        return duration * REF_NOMINAL_S / math.sqrt(before * after)

    # -- one round -----------------------------------------------------
    def start(self):
        self._segs = []
        self._first = len(self.refs)
        self.sample()
        self._t0 = self._clock()

    def tick(self):
        """Called before each paced call into the program."""
        if self._clock() - self._t0 >= self.pace:
            self._cut()

    def _cut(self):
        self._segs.append(self._clock() - self._t0)
        self.sample()
        self._t0 = self._clock()

    def stop(self) -> tuple[float, float]:
        """(raw program time, time at nominal speed) of the round."""
        self._cut()
        refs = self.refs[self._first:]
        scaled = sum(self.scale(d, refs[k], refs[k + 1])
                     for k, d in enumerate(self._segs))
        return sum(self._segs), scaled


if __name__ == "__main__":
    serve()
