"""Spans around calls into wienercap's layers, recorded from outside.

The program is not edited: each public function is replaced, in every
wienercap module that binds it, by a wrapper that records a span (name,
start, end, parent span, round) and a few facts read off the arguments
or the result.  Spans stay in memory; `write` dumps them when the run
ends.  A layer's self time is its span's duration minus the time its
child spans cover.

With traced=False the series_table bindings are wrapped only to keep the
returned tables for the output checks, and, given a HostSpeed, the
PACE_POINTS bindings only to let it sample the host's speed between calls.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np


class Span:
    __slots__ = ("name", "parent", "round", "start", "end", "error", "info")

    def __init__(self, name, parent, rnd):
        self.name, self.parent, self.round = name, parent, rnd
        self.start = self.end = 0.0
        self.error = None
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


# --- facts recorded per span -------------------------------------------------

def _solve_info(args, kwargs, est):
    return {"rel_gap": est.gap / max(est.value, 1e-300)}


def _linprog_info(args, kwargs, res):
    rows, cols = np.shape(kwargs["A_ub"])
    return {"entries": int(rows) * int(cols)}


def _sample_info(args, kwargs, sample):
    return {"atoms": sample.n}


def _series_info(args, kwargs, tab):
    return {"terms": int(np.count_nonzero(tab.terms))}


def _pwb_info(args, kwargs, est):
    cfg = est.config
    steps = (est.n_exited * est.mean_exit_time / cfg.step
             + est.n_timed_out * cfg.max_time / cfg.step)
    return {"walkers": cfg.walkers, "steps": steps}


def _matrix_info(args, kwargs, K):
    return {"entries": int(K.size)}


def _file_info(args, kwargs, path):
    return {"bytes": os.path.getsize(path)}


# (span name, defining module, attribute, fact extractor)
FUNCTIONS = [
    ("capacity.solve", "wienercap.capacity", "solve_capacity", _solve_info),
    ("capacity.linprog", "wienercap.capacity", "linprog", _linprog_info),
    ("domain.sample", "wienercap.domain", "sample_set_and_measure", _sample_info),
    ("wiener.series", "wienercap.wiener", "series_table", _series_info),
    ("wiener.integral", "wienercap.wiener", "integral_test", None),
    ("regularity.classify", "wienercap.regularity", "classify", None),
    ("regularity.cone", "wienercap.regularity", "cone_check", None),
    ("pde.probe", "wienercap.pde", "classification_probe", None),
    ("pde.solve", "wienercap.pde", "pwb_solve", _pwb_info),
]
# untraced runs sample the host's speed before these calls (hostspeed.py)
PACE_POINTS = {"capacity.solve", "domain.sample", "pde.solve"}
# (span name, module, class, method, fact extractor)
METHODS = [
    ("kernel.matrix", "wienercap.kernel", "GaussianKernel", "matrix", _matrix_info),
    ("kernel.matrix", "wienercap.kernel", "HeatKernel", "matrix", _matrix_info),
    ("report.write", "wienercap.report", "ReportBundle", "write_json", _file_info),
    ("report.write", "wienercap.report", "ReportBundle", "write_csv", _file_info),
    ("report.write", "wienercap.report", "ReportBundle", "finalize", _file_info),
]


class Recorder:
    """Installs the wrappers, holds the spans and the captured tables."""

    def __init__(self, traced: bool, speed=None):
        self.traced = traced
        self.speed = speed
        self.spans: list[Span] = []
        self.tables: list = []
        self.round = -1
        self._stack: list[int] = []
        self._undo: list = []

    # -- wrappers ----------------------------------------------------------
    def _timed(self, name, fn, info):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sp = Span(name, stack[-1] if stack else -1, self.round)
            stack.append(len(spans))
            spans.append(sp)
            sp.start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                sp.error = type(exc).__name__
                raise
            finally:
                sp.end = clock()
                stack.pop()
            if info is not None:
                sp.info = info(args, kwargs, out)
            return out

        return wrapper

    def _paced(self, fn):
        tick = self.speed.tick

        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return wrapper

    def _capture(self, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.tables.append(out)
            return out

        return wrapper

    # -- install / uninstall ----------------------------------------------
    def install(self):
        for name, modname, attr, info in FUNCTIONS:
            if modname not in sys.modules:
                continue
            orig = getattr(sys.modules[modname], attr)
            wrapped = self._capture(orig) if name == "wiener.series" else orig
            if self.traced:
                wrapped = self._timed(name, wrapped, info)
            elif self.speed is not None and name in PACE_POINTS:
                wrapped = self._paced(wrapped)
            if wrapped is orig:
                continue
            for mod in [m for k, m in list(sys.modules.items())
                        if k == "wienercap" or k.startswith("wienercap.")]:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, key, val))
                        setattr(mod, key, wrapped)
        if self.traced:
            for name, modname, cls_name, meth, info in METHODS:
                if modname not in sys.modules:
                    continue  # layer not loaded, so never called
                cls = getattr(sys.modules[modname], cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._timed(name, orig, info))

    def uninstall(self):
        for owner, key, val in reversed(self._undo):
            setattr(owner, key, val)
        self._undo.clear()

    def call(self, name, fn):
        """Run fn() inside a benchmark-level span when traced."""
        return self._timed(name, fn, None)() if self.traced else fn()

    # -- output ------------------------------------------------------------
    def write(self, path):
        rows = [{"name": s.name, "parent": s.parent, "round": s.round,
                 "start": s.start, "end": s.end, "error": s.error,
                 "info": s.info} for s in self.spans]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows}, fh)
            fh.write("\n")


def _nearest_rank(values, q):
    if not values:
        return 0.0
    v = sorted(values)
    return v[max(0, min(len(v) - 1, int(np.ceil(q * len(v))) - 1))]


def layer_metrics(spans: list[Span], rounds: int) -> dict:
    """Per-layer figures from the spans of `rounds` traced rounds; sums are
    reported per round so runs with different round counts compare."""
    by = {}
    child_time = [0.0] * len(spans)
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        by.setdefault(s.name, []).append(i)
        if s.parent >= 0:
            child_time[s.parent] += s.duration
            children[s.parent].append(i)

    def idx(name):
        return by.get(name, [])

    def total(name):
        return sum(spans[i].duration for i in idx(name))

    def self_total(name):
        return sum(spans[i].duration - child_time[i] for i in idx(name))

    def info_sum(name, key):
        return sum(spans[i].info[key] for i in idx(name)
                   if spans[i].info is not None)

    solves = idx("capacity.solve")
    solve_ms = [spans[i].duration * 1e3 for i in solves]
    linprog_children = [sum(1 for c in children[i]
                            if spans[c].name == "capacity.linprog")
                        for i in solves]
    gaps = [spans[i].info["rel_gap"] for i in solves if spans[i].info]
    samples = idx("domain.sample")
    nonempty = sum(1 for i in samples
                   if spans[i].info is not None and spans[i].info["atoms"] > 0)
    entries = info_sum("kernel.matrix", "entries")
    per = float(max(rounds, 1))
    m = {
        "capacity.solves": len(solves) / per,
        "capacity.solve_s": total("capacity.solve") / per,
        "capacity.solve_ms_p50": _nearest_rank(solve_ms, 0.50),
        "capacity.solve_ms_p95": _nearest_rank(solve_ms, 0.95),
        "capacity.linprog_calls": len(idx("capacity.linprog")) / per,
        "capacity.linprog_s": total("capacity.linprog") / per,
        "capacity.covering_fallbacks":
            sum(max(0, n - 1) for n in linprog_children) / per,
        "capacity.lp_entries": info_sum("capacity.linprog", "entries") / per,
        "capacity.failed":
            sum(1 for i in solves if spans[i].error is not None) / per,
        "capacity.rel_gap_max": max(gaps, default=0.0),
        "kernel.matrix_calls": len(idx("kernel.matrix")) / per,
        "kernel.matrix_s": total("kernel.matrix") / per,
        "kernel.entries": entries / per,
        "kernel.mb_computed": 8.0 * entries / 1e6 / per,
        "domain.sample_calls": len(samples) / per,
        "domain.sample_s": total("domain.sample") / per,
        "domain.atoms": info_sum("domain.sample", "atoms") / per,
        "domain.nonempty_ratio": nonempty / len(samples) if samples else 0.0,
        "wiener.series_tables": len(idx("wiener.series")) / per,
        "wiener.series_s": total("wiener.series") / per,
        "wiener.series_self_s": self_total("wiener.series") / per,
        "wiener.terms": info_sum("wiener.series", "terms") / per,
        "wiener.integral_calls": len(idx("wiener.integral")) / per,
        "wiener.integral_s": total("wiener.integral") / per,
        "wiener.integral_self_s": self_total("wiener.integral") / per,
        "regularity.classify_calls": len(idx("regularity.classify")) / per,
        "regularity.classify_s": total("regularity.classify") / per,
        "regularity.cone_s": total("regularity.cone") / per,
        "pde.solves": len(idx("pde.solve")) / per,
        "pde.solve_s": total("pde.solve") / per,
        "pde.walkers": info_sum("pde.solve", "walkers") / per,
        "pde.walker_steps": info_sum("pde.solve", "steps") / per,
        "pde.probe_s": total("pde.probe") / per,
        "report.write_s": total("report.write") / per,
        "report.bytes": info_sum("report.write", "bytes") / per,
        "trace.spans": len(spans) / per,
    }
    return m
