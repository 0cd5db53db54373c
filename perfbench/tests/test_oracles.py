"""Each output check of the benchmark must catch a planted fault.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""

import math
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import oracles  # noqa: E402
import wienercap as wc  # noqa: E402
from wienercap.domain import SetSample  # noqa: E402


# ---------------------------------------------------------------------------
# lp-cloud: certificate checks


def _cloud_problem(metric, n, seed):
    rng = np.random.default_rng(seed)
    half = wc.metric.ball_coord_halfwidths(metric, 0.5)
    X = rng.uniform(-1.0, 1.0, size=(n, metric.N)) * half
    T = rng.uniform(-0.25, 0.0, size=n)
    s = SetSample(X, T, np.full(n, 1.0 / n), 1.0, 0.0, 2)
    cx, ct = wc.constraint_points(s, metric, 2)
    return wc.CapacityProblem(wc.GaussianKernel(metric, 0.25), s, cx, ct)


def _packing_errors(p, value, dual, mu):
    m = p.kernel.metric
    return oracles.check_packing("t", m.kind, m.N, 0.25, value, dual, mu,
                                 p.support.xs, p.support.ts, p.cons_x,
                                 p.cons_t)


@pytest.mark.parametrize("metric", [wc.euclidean(1), wc.euclidean(2),
                                    wc.heisenberg_koranyi()],
                         ids=["e1", "e2", "koranyi"])
def test_own_kernel_matches_program(metric):
    p = _cloud_problem(metric, 20, 1)
    K_prog = p.kernel.matrix(p.cons_x, p.cons_t, p.support.xs, p.support.ts)
    K_own = oracles.kernel_matrix(metric.kind, metric.N, 0.25, p.cons_x,
                                  p.cons_t, p.support.xs, p.support.ts)
    np.testing.assert_allclose(K_own, K_prog, rtol=1e-12, atol=1e-290)


@pytest.mark.parametrize("metric", [wc.euclidean(2), wc.heisenberg_koranyi()],
                         ids=["e2", "koranyi"])
def test_packing_check_catches_infeasible_mu(metric):
    p = _cloud_problem(metric, 30, 2)
    est = wc.solve_capacity(p)
    assert _packing_errors(p, est.value, est.dual_value, est.mu) == []
    # scaled up by 1e-6 relative: mass and gap still look fine, K mu > 1
    mu = est.mu * (1.0 + 1e-6)
    errs = _packing_errors(p, mu.sum(), est.dual_value * 1.001, mu)
    assert any("potential" in e for e in errs), errs


def test_packing_check_catches_sign_mass_and_gap():
    p = _cloud_problem(wc.euclidean(1), 15, 3)
    est = wc.solve_capacity(p)
    mu = est.mu.copy()
    mu[0] = -mu.max()
    assert any("negative" in e for e in
               _packing_errors(p, mu.sum(), est.dual_value, mu))
    assert any("sum(mu)" in e for e in
               _packing_errors(p, est.value * 0.99, est.dual_value, est.mu))
    assert any("duality gap" in e for e in
               _packing_errors(p, est.value, est.value * 1.01, est.mu))


def test_independent_resolve_agrees_and_catches_offset():
    p = _cloud_problem(wc.heisenberg_koranyi(), 25, 4)
    est = wc.solve_capacity(p)
    K = oracles.kernel_matrix("heisenberg-koranyi", 3, 0.25, p.cons_x,
                              p.cons_t, p.support.xs, p.support.ts)
    own = oracles.packing_value(K)
    assert oracles.check_resolve("t", est.value, own) == []
    assert oracles.check_resolve("t", est.value * (1 + 1e-5), own) != []


# ---------------------------------------------------------------------------
# scale-comparability: the parabolic-dilation law


def _self_similar_table(lam, K_max, H, vol):
    caps = {}
    for h in range(1, H + 1):
        c_h = 0.3 + 0.1 * h
        for k in range(1, K_max + 1):
            caps[(k, h)] = SimpleNamespace(value=c_h * vol(lam ** (k / 2.0)))
    return caps


def test_dilation_check_passes_self_similar_table():
    vol = lambda r: 2.0 * r
    caps = _self_similar_table(0.25, 6, 3, vol)
    assert oracles.check_dilation("t", 0.25, 6, caps, vol) == []


def test_dilation_check_catches_mismatch():
    vol = lambda r: 2.0 * r
    caps = _self_similar_table(0.25, 6, 3, vol)
    caps[(4, 2)] = SimpleNamespace(value=caps[(4, 2)].value * (1 + 1e-4))
    errs = oracles.check_dilation("t", 0.25, 6, caps, vol)
    assert len(errs) == 1 and "h=2" in errs[0] and "k=4" in errs[0]


def test_dilation_check_ignores_capped_levels_and_flags_untested():
    vol = lambda r: 2.0 * r
    caps = _self_similar_table(0.25, 6, 1, vol)
    # level 1 still meets the dhat cap, so it may differ freely
    assert oracles.cap_free_levels(0.25, 1, 6)[0] == 2
    caps[(1, 1)] = SimpleNamespace(value=caps[(1, 1)].value * 0.5)
    assert oracles.check_dilation("t", 0.25, 6, caps, vol) == []
    only_one = {(1, 1): caps[(1, 1)], (2, 1): caps[(2, 1)]}
    assert "untested" in oracles.check_dilation("t", 0.25, 6, only_one, vol)[0]


def test_comparability_check():
    assert oracles.check_comparability(2.0, 0.2, 1.1) == []
    assert oracles.check_comparability(math.log(0.25) / math.log(0.5),
                                       0.2, 1.1) == []
    assert len(oracles.check_comparability(2.0000001, math.inf, 2.5)) == 3


# ---------------------------------------------------------------------------
# registry-suite: classical verdicts and cross-checks


def _bundle(verdicts, probes=None, divergent=(), convergent_suff=()):
    b = {}
    for name in oracles.REGISTRY_DOMAINS:
        v = verdicts.get(name, "REGULAR")
        suff = {"verdict": "CONVERGENT" if name in convergent_suff
                else "DIVERGENT"}
        b[f"{name}_classification.json"] = {"verdict": v, "sufficient": suff}
        b[f"{name}_integral.json"] = {"divergent": name in divergent}
        status = (probes or {}).get(
            name, "NO-DECAY" if v == "IRREGULAR" else "DECAY-FIT")
        b[f"{name}_pde_probe.json"] = {"status": status}
    return b


GOOD = {"cylinder-top": "IRREGULAR"}


def test_registry_check_passes_classical_answers():
    assert oracles.check_registry(_bundle(GOOD)) == []


def test_registry_check_catches_wrong_verdict():
    errs = oracles.check_registry(_bundle({"cylinder-top": "REGULAR"}))
    assert any("cylinder-top: verdict REGULAR" in e for e in errs), errs
    errs = oracles.check_registry(_bundle({**GOOD, "cone": "INCONCLUSIVE"}))
    assert any("cone: verdict INCONCLUSIVE" in e for e in errs), errs


def test_registry_check_catches_contradictions():
    errs = oracles.check_registry(_bundle(
        GOOD, divergent=("cusp-loglog",), convergent_suff=("cusp-loglog",)))
    assert any("cusp-loglog: divergent integral" in e for e in errs), errs
    errs = oracles.check_registry(_bundle(GOOD, probes={"halfspace": "NO-DECAY"}))
    assert any("halfspace: Monte Carlo probe NO-DECAY" in e for e in errs)
    errs = oracles.check_registry(_bundle(GOOD,
                                          probes={"cylinder-top": "DECAY-FIT"}))
    assert any("cylinder-top: Monte Carlo probe" in e for e in errs)


def test_registry_check_catches_missing_report():
    b = _bundle(GOOD)
    del b["cone_integral.json"]
    assert any("cone:" in e for e in oracles.check_registry(b))
