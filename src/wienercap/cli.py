"""Command-line front door.

Subcommands:
    capacity         capacity of a configured target set, with refinement
    series           ring-capacity series table and divergence verdict
    integral         measure-based integral criterion along probes
    cone             exterior cone condition check
    classify         combined regularity verdict (exit 0/1/2)
    pde-verify       Monte Carlo solver calibration battery
    benchmark-suite  classify + consistency checks over the registry
    list-domains     available benchmarks, families and config keys

Each command reads its settings first, then settles: a key the config
sets that the command never read exits 64, before any work or any write.
Every run writes a bundle directory: manifest.json (config hash, seed,
versions), config.txt (byte-exact copy), and per-command JSON/CSV files.
Exit codes: 0 success (classify: REGULAR), 1 IRREGULAR, 2 INCONCLUSIVE,
3 analysis failure, 64 invalid config.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from functools import partial

import numpy as np

from . import __version__
from .capacity import (CapacityConvergenceError, CapacityInputError,
                       FramedSolver, refine_capacity)
from .config import (SCHEMA, ConfigError, RunConfig, describe_schema,
                     load_config)
from .domain import (BallComplementTarget, DomainSpec, RingSpec, RingTarget,
                     SectionTarget, BENCHMARK_STATUS, FAMILIES, benchmark,
                     benchmark_names, cone as cone_domain, cusp, cylinder,
                     halfspace_time, mask_domain, measure_standard_error,
                     punctured, sample_set_and_measure, spatial_halfspace)
from .kernel import GaussBounds, GaussianKernel, euclidean_bounds
from .metric import (MetricSpace, ball_volume, euclidean, heisenberg_koranyi,
                     stp)
from .pde import PDEError, WalkConfig, classification_probe, pwb_solve
from .regularity import classify, cone_check
from .report import ReportBundle
from .wiener import divergence_verdict, integral_test, series_table

EXIT_OK = 0
EXIT_IRREGULAR = 1
EXIT_INCONCLUSIVE = 2
EXIT_FAILURE = 3
EXIT_CONFIG = 64

# benchmark-suite's integral probes (dhat) and Monte Carlo offsets from z0
SUITE_INTEGRAL_PROBES = [0.4, 0.28, 0.2, 0.14, 0.1, 0.07, 0.05, 0.035]
SUITE_PROBE_OFFSETS = [0.12 * 0.55 ** j for j in range(8)]


# ---------------------------------------------------------------------------
# builders

def build_metric(cfg: RunConfig) -> MetricSpace:
    kind = cfg["metric.kind"]
    if kind == "euclidean":
        return euclidean(cfg["metric.N"])
    if kind == "heisenberg-koranyi":
        return heisenberg_koranyi()
    raise ConfigError(f"unknown metric.kind {kind!r}; the CLI supports "
                      "euclidean and heisenberg-koranyi")


class _Reads:
    """A RunConfig as one command sees it: records the keys read through
    it, and settle() rejects every key the config sets that the command
    has not read.  seed counts as read, since the manifest records it."""

    def __init__(self, cfg: RunConfig, command: str):
        self.cfg, self.command, self.keys = cfg, command, {"seed"}

    def __getitem__(self, key: str):
        self.keys.add(key)
        return self.cfg[key]

    def settle(self):
        unread = sorted(set(self.cfg.values) - self.keys)
        if unread:
            raise ConfigError(f"{', '.join(unread)} set, but {self.command} "
                              "does not read it")


def build_domain(cfg: RunConfig, metric: MetricSpace) -> DomainSpec:
    """The configured domain, reading only the domain.* keys of the chosen
    benchmark or family."""
    name = cfg["domain.benchmark"]
    if name:
        return benchmark(name, metric)
    fam = cfg["domain.family"]
    if fam == "halfspace-time":
        return halfspace_time(metric, cfg["domain.t0"], cfg["domain.halfwidth"])
    if fam == "spatial-halfspace":
        return spatial_halfspace(metric, cfg["domain.wall"], cfg["domain.t0"],
                                 cfg["domain.halfwidth"])
    if fam == "cylinder":
        return cylinder(metric, cfg["domain.radius"], cfg["domain.t1"],
                        cfg["domain.t2"], z0=cfg["domain.z0-position"])
    if fam == "cone":
        return cone_domain(metric, cfg["domain.M0"], cfg["domain.theta"],
                           cfg["domain.depth"], cfg["domain.t0"],
                           cfg["domain.halfwidth"])
    if fam == "cusp":
        # each profile reads its own shape key; the other keeps its default
        profile = cfg["domain.profile"]
        p = cfg["domain.p"] if profile == "power" else SCHEMA["domain.p"][1]
        c = cfg["domain.c"] if profile == "loglog" else SCHEMA["domain.c"][1]
        return cusp(metric, profile, p, c, cfg["domain.depth"],
                    cfg["domain.t0"], cfg["domain.halfwidth"])
    if fam == "punctured":
        return punctured(metric, cfg["domain.radius"], cfg["domain.tau"],
                         halfwidth=cfg["domain.halfwidth"])
    if fam == "mask":
        path = cfg["domain.mask-path"]
        if not path:
            raise ConfigError("family=mask requires domain.mask-path")
        return mask_domain(path, metric, stp(np.zeros(metric.N),
                                             cfg["domain.t0"]))
    raise ConfigError(f"unknown domain.family {fam!r}")


def build_bounds(cfg: RunConfig, metric: MetricSpace) -> GaussBounds:
    """bounds.Lambda, a0 and b0, each left at 0 taken from the Euclidean
    fit, which is computed (and pde.beta read) only if one is."""
    lam_c, a0, b0 = cfg["bounds.Lambda"], cfg["bounds.a0"], cfg["bounds.b0"]
    if not (lam_c and a0 and b0):
        auto = euclidean_bounds(metric.N if metric.kind == "euclidean" else 1,
                                cfg["pde.beta"])
        lam_c, a0, b0 = lam_c or auto.Lambda, a0 or auto.a0, b0 or auto.b0
    return GaussBounds(lam_c, a0, b0, metric.c_d)


def exponents(cfg: RunConfig, bounds: GaussBounds) -> tuple[float, float]:
    """(a, b) from wiener.a and wiener.b, where 0 means the bounds' default."""
    return bounds.exponents(cfg["wiener.a"] or None, cfg["wiener.b"] or None)


def cone_settings(cfg: RunConfig) -> tuple:
    """The cone.* keys in cone_check's (and classify's) positional order."""
    return (cfg["cone.M0"], cfg["cone.r0"], cfg["cone.levels"],
            cfg["cone.theta-min"], cfg["cone.resolution"])


def classifier(cfg: RunConfig, bounds: GaussBounds) -> partial:
    """classify(dom) under bounds, with every setting read from the config
    once, here, and kept in the call's keywords."""
    a, b = exponents(cfg, bounds)
    M0, r0, levels, theta_min, cone_res = cone_settings(cfg)
    return partial(classify, bounds=bounds, lam=cfg["wiener.lambda"], a=a,
                   b=b, K_max=cfg["wiener.K-max"], H_max=cfg["wiener.H-max"],
                   resolution=cfg["capacity.resolution"], cone_M0=M0,
                   cone_r0=r0, cone_levels=levels, cone_theta_min=theta_min,
                   cone_resolution=cone_res)


def integrator(cfg: RunConfig, bounds: GaussBounds) -> partial:
    """integral_test(dom, probes=...) with wiener.lambda, the weight
    exponent and the integral.* quadrature keys (0 = automatic) read from
    the config once, here, and the bounds whose b > b0 rule it applies."""
    return partial(integral_test, lam=cfg["wiener.lambda"],
                   b=bounds.exponents(None, cfg["wiener.b"] or None)[1],
                   n_u=cfg["integral.n-u"],
                   U_max=cfg["integral.U-max"] or None,
                   resolution=cfg["integral.resolution"] or None,
                   bounds=bounds)


def walk_config(cfg: RunConfig) -> WalkConfig:
    return WalkConfig(cfg["pde.beta"], cfg["pde.step"], cfg["pde.walkers"],
                      cfg["seed"], cfg["pde.max-time"])


def _domain_summary(dom: DomainSpec) -> dict:
    return {
        "family": dom.family,
        "metric": dom.metric.kind,
        "N": dom.N,
        "z0_x": list(dom.z0.x),
        "z0_t": dom.z0.t,
        "params": {k: (list(v) if isinstance(v, np.ndarray) else v)
                   for k, v in dom.params.items()},
    }


def _write_equilibrium(bundle, est, support):
    """equilibrium_measure.csv: one row (x1..xN, t, mass) per atom."""
    header = [f"x{i+1}" for i in range(support.xs.shape[1])] + ["t", "mass"]
    bundle.write_csv("equilibrium_measure.csv", header,
                     (list(x) + [t, m]
                      for x, t, m in zip(support.xs, support.ts, est.mu)))


# ---------------------------------------------------------------------------
# subcommands

def cmd_capacity(cfg, bundle, quiet):
    metric = build_metric(cfg)
    dom = build_domain(cfg, metric)
    bounds = build_bounds(cfg, metric)
    kern = GaussianKernel(metric,
                          bounds.exponents(cfg["wiener.a"] or None, None)[0])
    target, r = _capacity_target(cfg, cfg["wiener.lambda"])
    levels, res = cfg["capacity.refine-levels"], cfg["capacity.resolution"]
    cfg.settle()
    steps = refine_capacity(dom, target, kern, r, levels, res)
    est, support = steps[-1].estimate, steps[-1].support
    record = {
        "domain": _domain_summary(dom),
        "target": repr(target),
        "kernel_exponent": kern.a,
        "value": est.value,
        "dual_value": est.dual_value,
        "gap": est.gap,
        "relative_gap": est.rel_gap(),
        "n_atoms": est.n_atoms,
        "n_constraints": est.n_constraints,
        "resolution": est.resolution,
        "measure_estimate": support.measure_estimate,
        "measure_standard_error": measure_standard_error(
            dom, target, support.resolution),
        "refinement": [{"resolution": s.resolution, "value": s.estimate.value,
                        "dual_value": s.estimate.dual_value,
                        "gap": s.estimate.gap,
                        "measure": s.support.measure_estimate}
                       for s in steps],
    }
    bundle.write_json("capacity.json", record)
    _write_equilibrium(bundle, est, support)
    if not quiet:
        print(f"capacity value={est.value:.6e} dual={est.dual_value:.6e} "
              f"gap={est.gap:.2e} atoms={est.n_atoms} "
              f"rows={est.lp_rows}/{est.n_constraints} rounds={est.lp_rounds} "
              f"iterations={est.lp_iterations}")
    return EXIT_OK


def _capacity_target(cfg, lam: float):
    """The configured capacity target and its parabolic scale r."""
    tgt_kind = cfg["capacity.target"]
    if tgt_kind == "ring":
        target = RingTarget(RingSpec(lam, cfg["capacity.k"], cfg["capacity.h"],
                                     cfg["capacity.variant"]))
        return target, lam ** (cfg["capacity.k"] / 2.0)
    if tgt_kind == "section":
        target = SectionTarget(lam, cfg["capacity.rho"], cfg["capacity.tau"])
        return target, math.sqrt(lam)
    if tgt_kind == "ball-complement":
        target = BallComplementTarget(cfg["capacity.l"], lam)
        return target, lam ** (cfg["capacity.l"] / 2.0)
    raise ConfigError(f"unknown capacity.target {tgt_kind!r}")


def _write_series(bundle, dom, tab, rep):
    rows = []
    w = tab.weight_exponent
    for k in range(1, tab.K_max + 1):
        vol = ball_volume(dom.metric, tab.lam ** (k / 2.0))
        for h in range(1, tab.H_max + 1):
            term = tab.terms[k - 1, h - 1]
            est = tab.capacities.get((k, h))
            cap = est.value if est is not None else (
                term * vol / tab.lam ** (w * h) if term else 0.0)
            if term == 0.0 and est is None and (k, h) not in tab.failed:
                continue
            rows.append([k, h, cap, vol, tab.lam ** (w * h), term])
    bundle.write_csv("series_table.csv",
                     ["k", "h", "capacity", "ball_volume", "weight", "term"],
                     rows)
    S = tab.partial_sums()
    bundle.write_csv("series_partial_sums.csv", ["K", "S"],
                     [[k + 1, S[k]] for k in range(len(S))])
    bundle.write_json("series_report.json", rep)


def cmd_series(cfg, bundle, quiet):
    metric = build_metric(cfg)
    dom = build_domain(cfg, metric)
    a, b = exponents(cfg, build_bounds(cfg, metric))
    settings = (cfg["wiener.lambda"], a, b, cfg["wiener.variant"],
                cfg["wiener.K-max"], cfg["wiener.H-max"],
                cfg["capacity.resolution"])
    cfg.settle()
    tab = series_table(dom, *settings)
    rep = divergence_verdict(tab)
    _write_series(bundle, dom, tab, rep)
    if not quiet:
        S = tab.partial_sums()
        print(f"series variant={tab.variant} verdict={rep.verdict} "
              f"S({tab.K_max})={S[-1]:.6g}")
    return EXIT_OK


def cmd_integral(cfg, bundle, quiet):
    metric = build_metric(cfg)
    dom = build_domain(cfg, metric)
    integrate = integrator(cfg, build_bounds(cfg, metric))
    probes = cfg["integral.probes"]
    cfg.settle()
    rep = integrate(dom, probes=probes)
    bundle.write_json("integral_report.json", rep)
    bundle.write_csv("integral_curve.csv", ["log_inv_dhat2", "M"],
                     [[math.log(1.0 / dh ** 2), m]
                      for dh, m in zip(rep.probe_dhats, rep.M_values)])
    if not quiet:
        print(f"integral slope={rep.slope:.4f} divergent={rep.divergent}")
    return EXIT_OK


def cmd_cone(cfg, bundle, quiet):
    metric = build_metric(cfg)
    dom = build_domain(cfg, metric)
    settings = cone_settings(cfg)
    cfg.settle()
    rep = cone_check(dom, *settings)
    bundle.write_json("cone_report.json", rep)
    if not quiet:
        print(f"cone satisfied={rep.satisfied} theta={rep.theta:.4f}")
    return EXIT_OK


def _classification_payload(cls, dom):
    return {
        "verdict": cls.verdict,
        "basis": cls.basis,
        "structural_constant": cls.structural_constant,
        "notes": cls.notes,
        "domain": _domain_summary(dom),
        "cone": cls.cone,
        "sufficient": cls.sufficient,
        "necessary": cls.necessary,
    }


def cmd_classify(cfg, bundle, quiet):
    metric = build_metric(cfg)
    dom = build_domain(cfg, metric)
    run = classifier(cfg, build_bounds(cfg, metric))
    cfg.settle()
    cls = run(dom)
    bundle.write_json("classification.json", _classification_payload(cls, dom))
    # provenance: ring (2, 1)'s equilibrium measure under G_a at its scale
    # lam, the sufficient series' entry when that series ran, else solved;
    # none when its solve failed
    lam, res = run.keywords["lam"], run.keywords["resolution"]
    support = sample_set_and_measure(dom, RingTarget(RingSpec(lam, 2, 1)), res)
    tab = cls.sufficient_table
    if tab is not None and (2, 1) in tab.capacities:
        est = None if (2, 1) in tab.failed else tab.capacities[(2, 1)]
    else:
        kern = GaussianKernel(metric, run.keywords["a"])
        try:
            est = FramedSolver(dom, kern, res).solve(support, lam)
        except (CapacityInputError, CapacityConvergenceError):
            est = None
    if est is not None:
        _write_equilibrium(bundle, est, support)
    if not quiet:
        print(f"classify verdict={cls.verdict} basis={cls.basis}")
    if cls.verdict == "REGULAR":
        return EXIT_OK
    if cls.verdict == "IRREGULAR":
        return EXIT_IRREGULAR
    return EXIT_INCONCLUSIVE


def cmd_pde_verify(cfg, bundle, quiet):
    metric = build_metric(cfg)
    if metric.kind != "euclidean":
        raise ConfigError("pde-verify requires a Euclidean metric")
    walk = walk_config(cfg)
    cfg.settle()
    beta = walk.beta
    dom = halfspace_time(metric)
    z = stp(np.full(metric.N, 0.3), 0.25)
    checks = {}

    sol_c = pwb_solve(dom, lambda X, T: np.ones(T.shape[0]), z, walk)
    checks["constant_data"] = {
        "value": sol_c.value, "std_error": sol_c.std_error,
        "pass": bool(sol_c.value == 1.0 and sol_c.std_error == 0.0),
    }

    sol_l = pwb_solve(dom, lambda X, T: X[:, 0], z, walk)
    tol_l = 4.0 * sol_l.std_error + 1e-3
    checks["linear_data"] = {
        "value": sol_l.value, "expected": z.x[0], "std_error": sol_l.std_error,
        "pass": bool(abs(sol_l.value - z.x[0]) <= tol_l),
    }

    s = z.t
    target = (1.0 + 4.0 * s / beta) ** (-metric.N / 2.0) * math.exp(
        -float(np.sum(z.x ** 2)) / (1.0 + 4.0 * s / beta))
    phi_g = lambda X, T: np.exp(-np.sum(X ** 2, axis=-1))
    sol_g = pwb_solve(dom, phi_g, z, walk)
    checks["gaussian_data_vs_closed_form"] = {
        "value": sol_g.value, "expected": target, "std_error": sol_g.std_error,
        "pass": bool(abs(sol_g.value - target) <= 4.0 * sol_g.std_error + 2e-3),
    }

    half = replace(walk, step=walk.step / 2.0, seed=walk.seed + 1)
    sol_h = pwb_solve(dom, phi_g, z, half)
    tol_h = 4.0 * math.hypot(sol_g.std_error, sol_h.std_error) + 2e-3
    checks["step_halving"] = {
        "value_h": sol_g.value, "value_h_over_2": sol_h.value,
        "pass": bool(abs(sol_g.value - sol_h.value) <= tol_h),
    }

    ok = all(c["pass"] for c in checks.values())
    bundle.write_json("pde_verify.json",
                      {"beta": beta, "checks": checks, "all_pass": ok})
    if not quiet:
        for name, c in checks.items():
            print(f"pde-verify {name}: {'PASS' if c['pass'] else 'FAIL'}")
    return EXIT_OK if ok else EXIT_FAILURE


def cmd_benchmark_suite(cfg, bundle, quiet):
    walk = walk_config(cfg)     # rejects a walk that could not run
    metric = build_metric(cfg)
    bounds = build_bounds(cfg, metric)
    classify_at, integrate = classifier(cfg, bounds), integrator(cfg, bounds)
    cfg.settle()
    summary = []
    all_ok = True
    for name in benchmark_names():
        dom = benchmark(name, metric)
        cls = classify_at(dom)
        bundle.write_json(f"{name}_classification.json",
                          _classification_payload(cls, dom))
        if cls.sufficient is not None:
            suff_verdict = cls.sufficient.verdict
        else:
            suff_verdict = None
        # integral-consistency: integral divergence must not meet a
        # CONVERGENT sufficient series
        irep = integrate(dom, probes=SUITE_INTEGRAL_PROBES)
        consistent = not (irep.divergent and suff_verdict == "CONVERGENT")
        bundle.write_json(f"{name}_integral.json", irep)
        # PDE cross-check on Euclidean metrics: probe for the solution
        # behavior that would falsify the verdict
        pde_status, pde_contradicts = None, None
        if metric.kind == "euclidean":
            try:
                fit, pde_contradicts = classification_probe(
                    dom, cls.verdict, SUITE_PROBE_OFFSETS, walk)
                pde_status = fit.status
                bundle.write_json(f"{name}_pde_probe.json", fit)
            except PDEError as exc:
                pde_status = f"SKIPPED: {exc}"
        expected = BENCHMARK_STATUS[name]
        match = None if expected is None else (cls.verdict == expected)
        # the cusp probes flip with the walk seed, so a contradicting
        # probe fails the suite on pinned domains only
        if (match is False or not consistent
                or (expected is not None and pde_contradicts)):
            all_ok = False
        summary.append({
            "benchmark": name, "verdict": cls.verdict, "basis": cls.basis,
            "expected": expected, "match": match,
            "integral_divergent": irep.divergent,
            "integral_consistent": consistent,
            "pde_status": pde_status,
            "pde_contradicts": pde_contradicts,
        })
        if not quiet:
            note = " (CONTRADICTS)" if pde_contradicts else ""
            print(f"{name}: verdict={cls.verdict} basis={cls.basis} "
                  f"expected={expected} pde={pde_status}{note}")
    bundle.write_json("suite_summary.json",
                      {"results": summary, "all_pinned_match": all_ok})
    return EXIT_OK if all_ok else EXIT_FAILURE


def cmd_list_domains(cfg, bundle, quiet):
    cfg.settle()
    print("registry benchmarks:")
    for name in benchmark_names():
        status = BENCHMARK_STATUS[name] or "unpinned"
        print(f"  {name:<20} known status: {status}")
    print(f"\ndomain families: {', '.join(FAMILIES)}")
    print("\nconfig keys:\n")
    print(describe_schema())
    return EXIT_OK


COMMANDS = {
    "capacity": cmd_capacity,
    "series": cmd_series,
    "integral": cmd_integral,
    "cone": cmd_cone,
    "classify": cmd_classify,
    "pde-verify": cmd_pde_verify,
    "benchmark-suite": cmd_benchmark_suite,
    "list-domains": cmd_list_domains,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wienercap",
        description="capacity-based boundary regularity workbench")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key-value config file")
        p.add_argument("--out", help="bundle output directory")
        p.add_argument("--seed", type=int, help="override config seed")
        p.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    try:
        if args.config:
            cfg = load_config(args.config)
        elif args.command == "list-domains":
            cfg = RunConfig()
        else:
            print("error: --config is required", file=sys.stderr)
            return EXIT_CONFIG
        if args.seed is not None:
            cfg = cfg.with_override("seed", args.seed)
        reads = _Reads(cfg, args.command)
        if args.command == "list-domains":
            return cmd_list_domains(reads, None, args.quiet)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = args.out or f"wienercap-{args.command}"
    bundle = ReportBundle(out_dir, args.command, cfg.source_text, cfg["seed"])
    try:
        code = COMMANDS[args.command](reads, bundle, args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # every analysis error but CapacityConvergenceError is a ValueError
    except (ValueError, CapacityConvergenceError, MemoryError) as exc:
        print(f"analysis failure: {exc}", file=sys.stderr)
        bundle.write_json("failure.json", {"error": str(exc)})
        bundle.finalize()
        return EXIT_FAILURE
    bundle.finalize()
    return code


if __name__ == "__main__":
    sys.exit(main())
