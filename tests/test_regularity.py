"""Exterior cone condition and the three-step classifier."""

import math

import numpy as np
import pytest

import wienercap as wc


# ---------------------------------------------------------------------------
# cone check

def test_spatial_halfspace_excluded_fraction_is_half(m1):
    dom = wc.benchmark("spatial-halfspace", m1)
    rep = wc.cone_check(dom, resolution=7)
    assert rep.satisfied
    # exactly half of every slice ball is outside {x1 > 0}; grid quadrature
    # is exact to within two cells
    for th in rep.theta_hats:
        assert th == pytest.approx(0.5, abs=2.0 / 2 ** 7)


def test_cone_family_excluded_fraction_matches_parameter(m1):
    for theta in (0.25, 0.5, 0.75):
        dom = wc.cone(m1, M0=1.0, theta=theta, depth=0.25)
        rep = wc.cone_check(dom, M0=1.0, r0=0.25, resolution=8)
        assert rep.satisfied
        for th in rep.theta_hats:
            assert th == pytest.approx(theta, abs=0.02)


def test_halfspace_full_exclusion(m1):
    dom = wc.benchmark("halfspace", m1)
    rep = wc.cone_check(dom)
    assert rep.satisfied
    assert rep.theta == pytest.approx(1.0, abs=1e-12)


def test_cylinder_top_fails_cone_condition(m1):
    dom = wc.benchmark("cylinder-top", m1)
    rep = wc.cone_check(dom)
    assert not rep.satisfied
    assert rep.theta == pytest.approx(0.0, abs=1e-12)


def test_cone_check_dyadic_radii(m1):
    dom = wc.benchmark("halfspace", m1)
    rep = wc.cone_check(dom, r0=0.25, r_levels=4)
    assert rep.radii == pytest.approx([0.25 * 2.0 ** -j for j in range(4)])


# ---------------------------------------------------------------------------
# classifier

def test_classify_matches_pinned_registry_statuses(bounds1):
    for name, pinned in wc.BENCHMARK_STATUS.items():
        cls = wc.classify(wc.benchmark(name), bounds1, K_max=16,
                          resolution=3)
        assert cls.verdict in ("REGULAR", "IRREGULAR", "INCONCLUSIVE")
        if pinned is not None:
            assert cls.verdict == pinned, name


def test_classify_cone_short_circuits(bounds1, m1):
    cls = wc.classify(wc.benchmark("halfspace", m1), bounds1, K_max=4,
                      resolution=3)
    assert cls.verdict == "REGULAR"
    assert cls.basis == "cone"
    assert cls.sufficient is None and cls.necessary is None


def test_classify_cylinder_uses_necessary_series(bounds1, m1):
    cls = wc.classify(wc.benchmark("cylinder-top", m1), bounds1, K_max=16,
                      resolution=3)
    assert cls.verdict == "IRREGULAR"
    assert cls.basis == "necessary-series"
    assert cls.necessary is not None
    assert cls.necessary.verdict == "CONVERGENT"


def test_classify_punctured_slice_is_irregular(bounds1, m1):
    """A single-instant obstacle is invisible from the past."""
    dom = wc.punctured(m1, radius=0.25, tau=0.0)
    cls = wc.classify(dom, bounds1, K_max=8, resolution=3)
    assert cls.verdict == "IRREGULAR"
    assert cls.basis == "necessary-series"


def test_classify_reports_structural_constant(bounds1, m1):
    cls = wc.classify(wc.benchmark("halfspace", m1), bounds1, K_max=4,
                      resolution=3)
    assert cls.structural_constant == pytest.approx(
        wc.structural_constant(bounds1), rel=1e-12)


def test_classify_rejects_inadmissible_exponents(bounds1, m1):
    with pytest.raises(wc.RegularityError):
        wc.classify(wc.benchmark("halfspace", m1), bounds1, a=2.0, b=0.1)


def test_classify_never_contradicts_itself(bounds1):
    """No benchmark may produce both a divergent sufficient series and a
    convergent necessary series."""
    for name in wc.benchmark_names():
        cls = wc.classify(wc.benchmark(name), bounds1, K_max=12,
                          resolution=3)
        if cls.sufficient is not None and cls.necessary is not None:
            both = (cls.sufficient.verdict == "DIVERGENT"
                    and cls.necessary.verdict == "CONVERGENT")
            assert not both, name


def test_classify_heisenberg_cylinder_top_is_irregular(heis):
    """The Koranyi kernel through a whole series: the centre of a
    cylinder's top cap is irregular on the Heisenberg group too."""
    bounds = wc.GaussBounds(Lambda=1.0, a0=0.25, b0=0.25, c_d=heis.c_d)
    cls = wc.classify(wc.benchmark("cylinder-top", heis), bounds, K_max=8,
                      H_max=16, resolution=2)
    assert cls.verdict == "IRREGULAR"
    assert cls.basis == "necessary-series"
    assert cls.necessary.verdict == "CONVERGENT"


@pytest.mark.parametrize("name", ["halfspace", "spatial-halfspace", "cone"])
def test_classify_heisenberg_regular_by_cone(heis, name):
    """Halfspaces and the exterior cone satisfy the cone condition in the
    Koranyi gauge too, so the classifier stops at the cone check."""
    bounds = wc.GaussBounds(Lambda=1.0, a0=0.25, b0=0.25, c_d=heis.c_d)
    cls = wc.classify(wc.benchmark(name, heis), bounds, K_max=8, H_max=16,
                      resolution=2)
    assert cls.verdict == "REGULAR"
    assert cls.basis == "cone"
    assert cls.cone.satisfied
