"""Config parsing and command-line interface behavior.

Covers the flat key=value config format (defaults, typing, error
reporting), the report-bundle layout (manifest fields, determinism of
reruns), and the documented exit codes: 0 success/REGULAR, 1 IRREGULAR,
2 INCONCLUSIVE, 3 analysis failure, 64 config error.
"""

import filecmp
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import wienercap as wc
from wienercap import cli
from wienercap.cli import (
    EXIT_CONFIG,
    EXIT_FAILURE,
    EXIT_IRREGULAR,
    EXIT_OK,
    main,
)
from wienercap.config import (
    SCHEMA,
    ConfigError,
    RunConfig,
    config_hash,
    describe_schema,
    load_config,
    parse_config,
)
from wienercap.metric import stp
from wienercap.pde import HolderFit

# ---------------------------------------------------------------------------
# config parsing


def test_empty_config_serves_schema_defaults():
    cfg = parse_config("")
    for key, (_tname, default, _doc) in SCHEMA.items():
        assert cfg[key] == default


def test_parse_types_comments_and_whitespace():
    text = """
# a comment line
seed = 7          # trailing comment
metric.kind=heisenberg-koranyi
wiener.lambda =   0.125
integral.probes = 1 2.5 4
capacity.refine-levels = 3
"""
    cfg = parse_config(text)
    assert cfg["seed"] == 7
    assert isinstance(cfg["seed"], int)
    assert cfg["metric.kind"] == "heisenberg-koranyi"
    assert cfg["wiener.lambda"] == 0.125
    assert cfg["integral.probes"] == (1.0, 2.5, 4.0)
    assert cfg["capacity.refine-levels"] == 3
    # untouched keys still fall back to defaults
    assert cfg["pde.walkers"] == SCHEMA["pde.walkers"][1]


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigError, match=r"line 3.*no-such\.key"):
        parse_config("seed = 1\n\nno-such.key = 2\n")


def test_bad_value_reports_line_and_type():
    with pytest.raises(ConfigError, match=r"line 1.*float.*wiener\.lambda"):
        parse_config("wiener.lambda = fast")
    with pytest.raises(ConfigError, match=r"line 2.*int"):
        parse_config("seed = 1\nwiener.K-max = 3.5\n")


def test_missing_equals_sign_rejected():
    with pytest.raises(ConfigError, match=r"line 1.*key = value"):
        parse_config("just some words\n")


def test_runconfig_rejects_unknown_key():
    cfg = parse_config("seed = 3")
    with pytest.raises(ConfigError, match="unknown config key"):
        cfg["seeed"]


def test_with_override_is_nondestructive():
    cfg = parse_config("seed = 3")
    cfg2 = cfg.with_override("seed", 11)
    assert cfg["seed"] == 3
    assert cfg2["seed"] == 11
    assert cfg2.source_text == cfg.source_text


def test_config_hash_is_stable_sha256():
    text = "seed = 5\n"
    import hashlib
    assert config_hash(text) == hashlib.sha256(text.encode()).hexdigest()
    assert config_hash(text) != config_hash(text + "# tweak\n")


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 21\ncapacity.resolution = 3\n")
    cfg = load_config(path)
    assert cfg["seed"] == 21
    assert cfg["capacity.resolution"] == 3


def test_describe_schema_lists_every_key():
    text = describe_schema()
    for key in SCHEMA:
        assert key in text


def test_cli_reads_exactly_the_schema_keys():
    """A schema key no command reads, or a read of an undefined key, fails."""
    with open(cli.__file__, encoding="utf-8") as fh:
        read = set(re.findall(r'cfg\["([^"]+)"\]', fh.read()))
    assert read == set(SCHEMA)


# ---------------------------------------------------------------------------
# CLI exit codes and bundles

FAST_CLASSIFY = """
domain.benchmark = {name}
capacity.resolution = 3
wiener.K-max = 16
wiener.H-max = 24
"""

FAST_CAPACITY = """
domain.benchmark = halfspace
capacity.resolution = 3
capacity.target = ring
capacity.k = 2
capacity.h = 1
"""

FAST_SERIES = """
domain.benchmark = halfspace
capacity.resolution = 3
wiener.K-max = 4
wiener.H-max = 3
"""

FAST_SUITE = """
wiener.K-max = 16
capacity.resolution = 3
pde.walkers = 200
"""

# cone and integral read no key here but the domain's
FAST_DOMAIN = "domain.benchmark = {name}\n"

FAST_BASE = {"classify": FAST_CLASSIFY, "series": FAST_SERIES,
             "capacity": FAST_CAPACITY, "cone": FAST_DOMAIN,
             "integral": FAST_DOMAIN, "benchmark-suite": FAST_SUITE}


def fast_base(command, name="halfspace"):
    """A small config for command that sets only keys the command reads;
    classify, cone and integral run on the registry domain name, series
    and capacity on the halfspace."""
    return FAST_BASE[command].format(name=name)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_classify_regular_exits_zero(tmp_path):
    cfg = _write(tmp_path, "h.cfg", FAST_CLASSIFY.format(name="halfspace"))
    out = str(tmp_path / "out")
    code = main(["classify", "--config", cfg, "--out", out, "--quiet"])
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "out" / "classification.json").read_text())
    assert payload["verdict"] == "REGULAR"
    assert payload["basis"] == "cone"


def test_classify_irregular_exits_one(tmp_path):
    cfg = _write(tmp_path, "c.cfg", FAST_CLASSIFY.format(name="cylinder-top"))
    out = str(tmp_path / "out")
    code = main(["classify", "--config", cfg, "--out", out, "--quiet"])
    assert code == EXIT_IRREGULAR
    payload = json.loads((tmp_path / "out" / "classification.json").read_text())
    assert payload["verdict"] == "IRREGULAR"


def test_classify_takes_equilibrium_measure_from_the_series(tmp_path,
                                                             monkeypatch):
    """cylinder-top runs both series; its provenance measure is the
    sufficient series' ring (2, 1) entry, not one more solve: the run
    solves, and builds a constraint grid for, exactly the table entries
    its memos did not serve."""
    from wienercap import capacity, regularity
    real_solve, real_grid = capacity.solve_capacity, capacity.constraint_points
    real_table = regularity.series_table
    solved, grids, tables = [], [], []

    def counting(prob, highs=None):
        solved.append(prob.support.n)
        return real_solve(prob, highs)

    def counting_grid(*args):
        grids.append(args[0].n)
        return real_grid(*args)

    def keeping(*args, **kwargs):
        tables.append(real_table(*args, **kwargs))
        return tables[-1]

    monkeypatch.setattr(capacity, "solve_capacity", counting)
    monkeypatch.setattr(capacity, "constraint_points", counting_grid)
    monkeypatch.setattr(regularity, "series_table", keeping)
    cfg = _write(tmp_path, "c.cfg", FAST_CLASSIFY.format(name="cylinder-top"))
    out = tmp_path / "out"
    code = main(["classify", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == EXIT_IRREGULAR
    assert len(tables) == 2
    assert len(solved) == len(grids) == sum(
        not est.reused for t in tables for est in t.capacities.values())
    rows = (out / "equilibrium_measure.csv").read_text().splitlines()
    assert rows[0] == "x1,t,mass" and len(rows) > 1


def test_capacity_summary_reports_working_set(tmp_path, capsys):
    cfg = _write(tmp_path, "cap.cfg", FAST_CAPACITY)
    code = main(["capacity", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == EXIT_OK
    line = capsys.readouterr().out.strip().splitlines()[-1]
    record = json.loads((tmp_path / "o" / "capacity.json").read_text())
    match = re.search(r" rows=(\d+)/(\d+) rounds=(\d+) iterations=(\d+)$",
                      line)
    assert match is not None, line
    rows, grid, rounds, iterations = map(int, match.groups())
    assert grid == record["n_constraints"] and 0 < rows < grid
    assert rounds >= 1 and iterations >= 1
    assert "iterations" not in json.dumps(record)


def test_unknown_config_key_exits_64(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.cfg", "bogus.key = 1\n")
    code = main(["capacity", "--config", cfg, "--quiet"])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    pytest.param(k, v, id=k) for k, v in [("metric.volume-mode", "monte-carlo"),
                                         ("capacity.tolerance", "1e-3"),
                                         ("capacity.exponent", "0.25"),
                                         ("integral.n-u", "16"),
                                         ("integral.U-max", "48")]])
def test_removed_key_exits_64_at_parse_time(tmp_path, capsys, key, value):
    cfg = _write(tmp_path, "old.cfg",
                 f"metric.kind = heisenberg-koranyi\n{key} = {value}\n")
    out = tmp_path / "out"
    code = main(["capacity", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == EXIT_CONFIG
    assert f"unknown key {key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, text, unread", [
    ("cone", "domain.benchmark = halfspace\ndomain.radius = 5\n",
     "domain.radius"),
    ("cone", "domain.family = cone\ndomain.radius = 5\n", "domain.radius"),
    ("cone", "domain.family = cylinder\ndomain.halfwidth = 3\n"
     "domain.t0 = 0.5\n", "domain.halfwidth, domain.t0"),
    ("cone", "domain.family = halfspace-time\ndomain.mask-path = a.mask\n",
     "domain.mask-path"),
    ("series", "domain.benchmark = cone\ndomain.family = cone\n",
     "domain.family"),
    ("capacity", "domain.benchmark = halfspace\ncapacity.target = ring\n"
     "capacity.rho = 7\n", "capacity.rho"),
    ("capacity", "domain.benchmark = halfspace\ncapacity.target = section\n"
     "capacity.k = 3\ncapacity.l = 2\n", "capacity.k, capacity.l"),
    ("capacity", "domain.benchmark = halfspace\n"
     "capacity.target = ball-complement\ncapacity.variant = nested\n",
     "capacity.variant"),
    ("cone", "domain.family = cusp\ndomain.profile = loglog\n"
     "domain.p = 0.8\n", "domain.p"),
    ("cone", "domain.family = cusp\ndomain.c = 0.5\n", "domain.c"),
    ("cone", "domain.family = cusp\ndomain.profile = power\n"
     "domain.c = 0.5\n", "domain.c")])
def test_set_keys_the_run_ignores_exit_64(tmp_path, capsys, command, text,
                                          unread):
    """A domain.* key that the chosen benchmark or family does not read,
    and a target key that the chosen capacity target does not read, exit
    64 when the config sets them, naming the keys, before any analysis
    runs."""
    cfg = _write(tmp_path, "ignored.cfg", text)
    out = tmp_path / "out"
    code = main([command, "--config", cfg, "--out", str(out), "--quiet"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: {unread} set, but" in err
    assert not (out / "failure.json").exists()


def exits_64_before_the_bundle(tmp_path, capsys, command, text, unread):
    """The command exits 64 on the config text, naming the unread keys,
    before its bundle directory is made."""
    cfg = _write(tmp_path, "ignored.cfg", text)
    out = tmp_path / "out"
    code = main([command, "--config", cfg, "--out", str(out), "--quiet"])
    assert code == EXIT_CONFIG
    assert (f"config error: {unread} set, but {command} does not read it"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command, text, unread", [
    ("benchmark-suite", "domain.radius = 5\n", "domain.radius"),
    ("pde-verify", "domain.benchmark = halfspace\ndomain.t0 = 0.5\n",
     "domain.benchmark, domain.t0")])
def test_domain_keys_under_commands_with_their_own_domains_exit_64(
        tmp_path, capsys, command, text, unread):
    """benchmark-suite and pde-verify build their own domains, so a
    domain.* key set under either is rejected."""
    exits_64_before_the_bundle(tmp_path, capsys, command, text, unread)


@pytest.mark.parametrize("command, text, unread", [
    ("series", "domain.benchmark = halfspace\ncapacity.k = 3\n",
     "capacity.k"),
    ("classify", "domain.benchmark = halfspace\ncapacity.target = section\n"
     "capacity.rho = 0.5\ncapacity.tau = 0.5\n",
     "capacity.rho, capacity.target, capacity.tau"),
    ("benchmark-suite", "capacity.variant = nested\n", "capacity.variant"),
    ("pde-verify", "capacity.h = 2\ncapacity.l = 3\n",
     "capacity.h, capacity.l")])
def test_target_keys_outside_the_capacity_command_exit_64(
        tmp_path, capsys, command, text, unread):
    """Only the capacity command builds a target, so capacity.target and
    its keys k, h, variant, rho, tau and l set under any other command
    are rejected."""
    exits_64_before_the_bundle(tmp_path, capsys, command, text, unread)


@pytest.mark.parametrize("command, text, unread", [
    ("cone", "domain.benchmark = halfspace\npde.walkers = 77\n",
     "pde.walkers"),
    ("cone", "domain.benchmark = halfspace\nbounds.a0 = 0.2\n", "bounds.a0"),
    ("pde-verify", "bounds.a0 = 0.2\n", "bounds.a0"),
    ("series", FAST_SERIES + "integral.resolution = 4\n",
     "integral.resolution"),
    ("classify", FAST_CLASSIFY.format(name="halfspace")
     + "capacity.refine-levels = 2\n", "capacity.refine-levels"),
    ("cone", "metric.kind = heisenberg-koranyi\nmetric.N = 7\n"
     "domain.benchmark = halfspace\n", "metric.N"),
    ("capacity", FAST_CAPACITY + "bounds.Lambda = 2\nbounds.a0 = 0.25\n"
     "bounds.b0 = 0.25\npde.beta = 2\n", "pde.beta"),
    ("list-domains", "wiener.K-max = 16\n", "wiener.K-max"),
    ("capacity", FAST_CAPACITY + "wiener.b = 0.6\n", "wiener.b"),
    ("integral", "domain.benchmark = halfspace\nwiener.a = 0.2\n",
     "wiener.a"),
    ("benchmark-suite", FAST_SUITE + "integral.probes = 0.1\n",
     "integral.probes")])
def test_keys_the_command_never_reads_exit_64(tmp_path, capsys, command,
                                              text, unread):
    """Every command reads its settings, then rejects each key the config
    sets that it has not read: a key of a section the command never reads,
    metric.N on the Korányi group (always N = 3), pde.beta once all three
    bounds are set (no Euclidean fit is computed), the weight exponent
    under capacity, the capacity exponent under integral, and the probes
    of benchmark-suite, which has its own."""
    exits_64_before_the_bundle(tmp_path, capsys, command, text, unread)


def test_koranyi_default_capacity_exits_3_before_its_matrix(tmp_path,
                                                           capsys):
    """The Koranyi halfspace ring (2, 1) at the default resolution 4 needs
    a 25326 x 21230 kernel matrix (4.3 GB): exit 3 with a failure.json
    naming both sizes, in seconds, with no matrix allocated."""
    cfg = _write(tmp_path, "koranyi.cfg",
                 "metric.kind = heisenberg-koranyi\n"
                 "domain.benchmark = halfspace\ncapacity.target = ring\n")
    out = tmp_path / "out"
    start = time.perf_counter()
    code = main(["capacity", "--config", cfg, "--out", str(out), "--quiet"])
    assert time.perf_counter() - start < 20.0
    assert code == EXIT_FAILURE
    error = json.loads((out / "failure.json").read_text())["error"]
    assert "25326 constraint rows x 21230 atoms" in error
    assert "MAX_KERNEL_ENTRIES" in capsys.readouterr().err


def test_package_import_leaves_scipy_stats_unloaded():
    """scipy.stats takes about 0.3 s to import, which every CLI call would
    pay; only bound_check uses it, and imports it itself.  scipy.ndimage
    is loaded by mask_domain alone, for its erosion.  No module uses
    scipy.integrate."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, wienercap, wienercap.cli; "
         "print('scipy.stats' in sys.modules, "
         "'scipy.ndimage' in sys.modules, "
         "'scipy.integrate' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False False"


def test_missing_config_exits_64(capsys):
    code = main(["capacity", "--quiet"])
    assert code == EXIT_CONFIG
    assert "--config is required" in capsys.readouterr().err


def test_analysis_failure_exits_3_and_writes_failure_json(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.cfg",
                 FAST_SERIES + "wiener.lambda = 1.5\n")
    out = str(tmp_path / "out")
    code = main(["series", "--config", cfg, "--out", out, "--quiet"])
    assert code == EXIT_FAILURE
    assert "analysis failure" in capsys.readouterr().err
    failure = json.loads((tmp_path / "out" / "failure.json").read_text())
    assert "error" in failure
    # even failed runs leave a complete, hashable bundle
    assert (tmp_path / "out" / "manifest.json").exists()
    assert (tmp_path / "out" / "config.txt").exists()


@pytest.mark.parametrize("command", ["cone", "classify", "benchmark-suite"])
@pytest.mark.parametrize("resolution", [0, -1])
def test_nonpositive_cone_resolution_exits_3(tmp_path, capsys, command,
                                              resolution):
    """A cone resolution below 1 is an input error: exit 3 with a
    failure.json, never a TypeError that exits 1 (IRREGULAR's code).
    benchmark-suite builds its own domains, so its config sets none."""
    cfg = _write(tmp_path, "cone.cfg",
                 fast_base(command) + f"cone.resolution = {resolution}\n")
    out = tmp_path / "out"
    code = main([command, "--config", cfg, "--out", str(out), "--quiet"])
    assert code == EXIT_FAILURE
    assert "resolution must be >= 1" in capsys.readouterr().err
    failure = json.loads((out / "failure.json").read_text())
    assert "resolution must be >= 1" in failure["error"]
    assert (out / "manifest.json").exists()


@pytest.mark.parametrize("key", ["max-time", "step", "beta"])
@pytest.mark.parametrize("value", ["0", "-1", "nan"])
def test_invalid_walk_settings_fail_the_suite(tmp_path, capsys, key, value):
    """A walk setting that is not positive and finite fails
    benchmark-suite before any domain is classified: exit 3 with a
    failure.json, not a run whose probes are all skipped."""
    cfg = _write(tmp_path, "suite.cfg", FAST_SUITE + f"pde.{key} = {value}\n")
    out = tmp_path / "out"
    code = main(["benchmark-suite", "--config", cfg, "--out", str(out),
                 "--quiet"])
    assert code == EXIT_FAILURE
    assert "must be positive and finite" in capsys.readouterr().err
    failure = json.loads((out / "failure.json").read_text())
    assert "must be positive and finite" in failure["error"]
    assert (out / "manifest.json").exists()
    assert not list(out.glob("*_classification.json"))


@pytest.mark.parametrize("command, text", [
    ("classify", FAST_CLASSIFY.format(name="halfspace")),
    ("series", FAST_SERIES),
    ("capacity", FAST_CAPACITY)])
@pytest.mark.parametrize("setting", ["pde.beta = 0", "pde.beta = -1",
                                     "pde.beta = nan", "pde.beta = inf",
                                     "bounds.a0 = nan"])
def test_invalid_gaussian_bound_settings_exit_3(tmp_path, capsys, command,
                                                text, setting):
    """Every command that builds the Gaussian bounds rejects a beta or an
    exponent that is not positive and finite: exit 3 with a failure.json,
    never a ZeroDivisionError that exits 1 (IRREGULAR's code)."""
    cfg = _write(tmp_path, "bad.cfg", text + setting + "\n")
    out = tmp_path / "out"
    code = main([command, "--config", cfg, "--out", str(out), "--quiet"])
    assert code == EXIT_FAILURE
    assert "must be positive and finite" in capsys.readouterr().err
    failure = json.loads((out / "failure.json").read_text())
    assert "must be positive and finite" in failure["error"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"] == ["config.txt", "failure.json"]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command, setting, message", [
    ("cone", "cone.M0", "need finite M0 > 0 and r0 > 0"),
    ("cone", "cone.r0", "need finite M0 > 0 and r0 > 0"),
    ("series", "wiener.b", "exponents must be positive and finite"),
    ("integral", "wiener.b", "b must be positive and finite")])
def test_nonfinite_settings_exit_3(tmp_path, capsys, command, setting,
                                   message, value):
    """A nan or inf cone size or series or integral weight exponent is an
    input error: exit 3 with a failure.json, never a result built
    on nan or inf."""
    cfg = _write(tmp_path, "bad.cfg",
                 fast_base(command) + f"{setting} = {value}\n")
    out = tmp_path / "out"
    code = main([command, "--config", cfg, "--out", str(out), "--quiet"])
    assert code == EXIT_FAILURE
    assert message in capsys.readouterr().err
    failure = json.loads((out / "failure.json").read_text())
    assert message in failure["error"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"] == ["config.txt", "failure.json"]


@pytest.mark.parametrize("command, setting, message", [
    ("series", "wiener.K-max = 535", "takes the rings below float resolution"),
    ("cone", "cone.levels = 1000000",
     "shrinks the smallest ball to zero volume"),
    ("cone", "metric.N = 2000", "makes the doubling constant 2^N infinite"),
    ("classify", "metric.N = 400",
     "N = 400 underflows the unit-ball constant omega_N to 0"),
    ("capacity", "capacity.refine-levels = 1000000",
     "samples more than MAX_REFINE_CELLS = 2^17 grid cells"),
    ("capacity", "capacity.resolution = 1000000",
     "samples more than MAX_REFINE_CELLS = 2^17 grid cells"),
    ("integral", "integral.resolution = 1000000",
     "more than INTEGRAL_MAX_POINTS = 2^30 grid points"),
    ("integral", "wiener.b = 1e-300",
     "b = 1e-300 puts the inner truncation bound past the float range"),
    ("integral", "wiener.b = 1e-200\nbounds.b0 = 1e-201",
     "b = 1e-200 puts M past the float range"),
    ("classify", "metric.N = 300",
     "N = 300, beta = 1 puts the heat kernel's Lambda = max(ratio, 1/ratio) "
     "past the float range"),
    ("integral", "integral.probes = 0.1 nan",
     "probes must satisfy 0 < dhat^2 < lam"),
    ("integral", "integral.probes = nan",
     "probes must satisfy 0 < dhat^2 < lam"),
    ("integral", "integral.probes =", "no probes: need at least one dhat")])
def test_large_integer_settings_exit_3(tmp_path, capsys, command, setting,
                                       message):
    """A series depth, cone level count, dimension or integral tail bound
    beyond what floats hold, a refinement ladder or integral grid past its
    work bound, or an empty or NaN probe list is rejected before
    any work: exit 3 with a failure.json, never an OverflowError or
    ZeroDivisionError that exits 1 (IRREGULAR's code), a 1.6 GB
    allocation, a run of many minutes or a report with a nan row."""
    cfg = _write(tmp_path, "bad.cfg", fast_base(command) + setting + "\n")
    out = tmp_path / "out"
    code = main([command, "--config", cfg, "--out", str(out), "--quiet"])
    assert code == EXIT_FAILURE
    assert message in capsys.readouterr().err
    failure = json.loads((out / "failure.json").read_text())
    assert message in failure["error"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"] == ["config.txt", "failure.json"]


def test_small_weight_exponent_integral_exits_0(tmp_path):
    """integral_test forms no rho = e^u: wiener.b = 0.01, whose cutoff
    U = 16/b = 1600 is past log(float max), gives finite M values and a
    finite truncation bound (under a b0 that admits it)."""
    cfg = _write(tmp_path, "b.cfg", fast_base("integral")
                 + "wiener.b = 0.01\nbounds.b0 = 0.005\n")
    out = tmp_path / "out"
    assert main(["integral", "--config", cfg, "--out", str(out),
                 "--quiet"]) == EXIT_OK
    rep = json.loads((out / "integral_report.json").read_text())
    assert all(isinstance(m, float) and math.isfinite(m)
               for m in rep["M_values"] + [rep["inner_truncation"]])


def test_inadmissible_weight_exponent_integral_exits_3(tmp_path, capsys):
    """integral applies classify's rule b > b0: wiener.b = 0.01 under the
    Euclidean fit's b0 = 0.25 on cylinder-top, whose pinned verdict is
    IRREGULAR, exits 3 with a failure.json naming both, not 0 with a
    divergent integral."""
    cfg = _write(tmp_path, "b.cfg",
                 fast_base("integral", "cylinder-top") + "wiener.b = 0.01\n")
    out = tmp_path / "out"
    code = main(["integral", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == EXIT_FAILURE
    message = "weight exponent b=0.01 must be > b0=0.25"
    assert message in capsys.readouterr().err
    assert message in json.loads((out / "failure.json").read_text())["error"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"] == ["config.txt", "failure.json"]


@pytest.mark.parametrize("bounds, code", [
    ("bounds.Lambda = 2\nbounds.a0 = 0.25\nbounds.b0 = 0.25\n", EXIT_OK),
    ("pde.beta = 1e308\n", EXIT_FAILURE)], ids=["all-set", "fitted"])
def test_euclidean_fit_is_computed_only_for_bounds_left_at_0(
        tmp_path, capsys, monkeypatch, bounds, code):
    """A run that sets all three bounds never computes the Euclidean fit
    (here made to raise) and exits 0.  At N = 3, beta = 1e308 the fit's
    Lambda is past the float range, so a run that leaves the bounds at 0
    exits 3 naming it.  No numpy warning either way."""
    def unfitted(*args):
        raise AssertionError("the Euclidean fit was computed")

    if code == EXIT_OK:
        monkeypatch.setattr(cli, "euclidean_bounds", unfitted)
    cfg = _write(tmp_path, "beta.cfg", FAST_CAPACITY.replace(
        "resolution = 3", "resolution = 2") + "metric.N = 3\n" + bounds)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = main(["capacity", "--config", cfg, "--out", str(out),
                    "--quiet"])
    assert got == code
    if code == EXIT_FAILURE:
        assert ("N = 3, beta = 1e+308 puts the heat kernel's Lambda = "
                "max(ratio, 1/ratio) past the float range"
                in capsys.readouterr().err)


def test_memory_error_exits_3(tmp_path, capsys, monkeypatch):
    """A MemoryError that escapes a command (numpy's refusal of an array
    too large to allocate) exits 3 with a failure.json, not 1."""
    message = "Unable to allocate 4.14 PiB for an array"

    def planted(cfg, bundle, quiet):
        raise MemoryError(message)

    monkeypatch.setitem(cli.COMMANDS, "capacity", planted)
    cfg = _write(tmp_path, "cap.cfg", FAST_CAPACITY)
    out = tmp_path / "out"
    code = main(["capacity", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == EXIT_FAILURE
    assert message in capsys.readouterr().err
    assert json.loads((out / "failure.json").read_text()) == {
        "error": message}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"] == ["config.txt", "failure.json"]


_GEOMETRY = [("halfspace-time", "halfwidth"),
             ("spatial-halfspace", "halfwidth"), ("cylinder", "radius"),
             ("cone", "halfwidth"), ("cone", "M0"), ("cone", "depth"),
             ("cusp", "halfwidth"), ("cusp", "c"), ("cusp", "depth"),
             ("cusp", "p"), ("punctured", "radius"),
             ("punctured", "halfwidth")]


@pytest.mark.parametrize("family, key, value",
                         [(f, k, v) for f, k in _GEOMETRY
                          for v in ("nan", "inf", "-1")]
                         + [("cone", "theta", v)
                            for v in ("nan", "inf", "-1", "0", "1.5")]
                         + [("spatial-halfspace", "wall", v)
                            for v in ("nan", "inf", "-inf")])
def test_bad_domain_geometry_exits_3(tmp_path, capsys, family, key, value):
    """A family constructor rejects a size that is not positive and
    finite, a theta outside (0, 1] and a wall that is not finite: exit 3
    with a failure.json, never a verdict on a domain of nan or negative
    size.  The cusp's c is set under the loglog profile, which reads it."""
    if key in ("halfwidth", "wall"):
        message = "bbox and x0 must be finite"
    elif key == "theta":
        message = "theta must lie in (0, 1]"
    elif key == "p" and value == "-1":
        message = "power cusp needs p > 1/2"
    else:
        message = f"{key} must be positive and finite"
    profile = "domain.profile = loglog\n" if key == "c" else ""
    cfg = _write(tmp_path, "bad.cfg", f"domain.family = {family}\n"
                 f"{profile}domain.{key} = {value}\n")
    out = tmp_path / "out"
    code = main(["cone", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == EXIT_FAILURE
    assert message in capsys.readouterr().err
    assert message in json.loads((out / "failure.json").read_text())["error"]


@pytest.mark.parametrize("setting", [
    "domain.benchmark = cylinder-top\ncapacity.resolution = 3",
    "metric.kind = heisenberg-koranyi\ndomain.family = halfspace-time\n"
    "capacity.resolution = 2",
    "metric.kind = heisenberg-koranyi\ndomain.family = cylinder\n"
    "domain.z0-position = lateral\ncapacity.resolution = 2"],
    ids=["euclidean1", "koranyi-halfspace", "koranyi-lateral-cylinder"])
def test_capacity_command_equals_the_series_entry(tmp_path, setting):
    """capacity and series solve a ring by one path (FramedSolver.solve at
    the ring's scale lam^(k/2)), so the capacity command's ring (k, h) is
    the sufficient series' entry (k, h), bit for bit."""
    cfg = _write(tmp_path, "s.cfg",
                 setting + "\nwiener.K-max = 3\nwiener.H-max = 3\n")
    assert main(["series", "--config", cfg, "--out", str(tmp_path / "s"),
                 "--quiet"]) == EXIT_OK
    rows = (tmp_path / "s" / "series_table.csv").read_text().splitlines()
    entries = {(int(k), int(h)): float(cap)
               for k, h, cap, *_ in (r.split(",") for r in rows[1:])}
    for k, h in [(2, 1), (3, 2)]:
        cfg = _write(tmp_path, "c.cfg", setting + "\ncapacity.target = ring\n"
                     f"capacity.k = {k}\ncapacity.h = {h}\n"
                     "capacity.refine-levels = 1\n")
        out = tmp_path / f"c{k}{h}"
        assert main(["capacity", "--config", cfg, "--out", str(out),
                     "--quiet"]) == EXIT_OK
        record = json.loads((out / "capacity.json").read_text())
        assert record["value"] == entries[(k, h)]


def test_reused_out_keeps_no_file_of_the_earlier_bundle(tmp_path):
    """A bundle written over an earlier one deletes the files that
    bundle's manifest lists; a file no bundle wrote stays."""
    out = tmp_path / "out"
    bad = _write(tmp_path, "bad.cfg",
                 fast_base("integral") + "integral.probes = nan\n")
    assert main(["integral", "--config", bad, "--out", str(out),
                 "--quiet"]) == EXIT_FAILURE
    assert (out / "failure.json").exists()
    (out / "notes.txt").write_text("kept\n")
    text = FAST_CAPACITY.replace("resolution = 3", "resolution = 2")
    good = _write(tmp_path, "cap.cfg", text)
    assert main(["capacity", "--config", good, "--out", str(out),
                 "--quiet"]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"] == ["capacity.json", "config.txt",
                                 "equilibrium_measure.csv"]
    assert sorted(os.listdir(out)) == sorted(manifest["files"]
                                             + ["manifest.json", "notes.txt"])
    assert (out / "notes.txt").read_text() == "kept\n"


# config errors that a command raises only once it runs: an unread domain
# key, an unknown family, a mask without its path, an unknown capacity
# target and pde-verify off R^N
_LATE_CONFIG_ERRORS = [
    ("cone", "domain.benchmark = halfspace\ndomain.radius = 5\n"),
    ("cone", "domain.family = torus\n"),
    ("cone", "domain.family = mask\n"),
    ("capacity", "capacity.target = torus\n"),
    ("pde-verify", "metric.kind = heisenberg-koranyi\n"),
]


def test_config_error_inside_a_command_leaves_out_as_it_was(tmp_path,
                                                            capsys):
    """A config error raised inside a command exits 64 before the bundle
    writes anything: every file of an earlier bundle in --out stays byte
    for byte, and a missing --out is not made."""
    out = tmp_path / "out"
    cfg = _write(tmp_path, "h.cfg", FAST_CLASSIFY.format(name="halfspace"))
    assert main(["classify", "--config", cfg, "--out", str(out),
                 "--quiet"]) == EXIT_OK
    before = {name: (out / name).read_bytes() for name in os.listdir(out)}
    assert len(before) == 4
    for j, (command, text) in enumerate(_LATE_CONFIG_ERRORS):
        bad = _write(tmp_path, f"bad{j}.cfg", text)
        missing = tmp_path / f"missing{j}"
        for target in (out, missing):
            code = main([command, "--config", bad, "--out", str(target),
                         "--quiet"])
            assert code == EXIT_CONFIG, (command, text)
            assert "config error" in capsys.readouterr().err
        assert {name: (out / name).read_bytes()
                for name in os.listdir(out)} == before, (command, text)
        assert not missing.exists(), (command, text)


@pytest.mark.parametrize("target, setting, message", [
    ("section", "capacity.rho = nan", "section rho and tau must be finite"),
    ("section", "capacity.rho = inf", "section rho and tau must be finite"),
    ("section", "capacity.tau = nan", "section rho and tau must be finite"),
    ("section", "capacity.tau = -inf", "section rho and tau must be finite"),
    ("ball-complement", "capacity.l = -1",
     "ball complement level l must be >= 1"),
    ("ball-complement", "capacity.l = 0",
     "ball complement level l must be >= 1"),
    ("ball-complement", "capacity.l = 1000000",
     "l = 1000000 takes the ball below float resolution"),
    ("ring", "capacity.k = 1000000",
     "k = 1000000 takes the rings below float resolution")])
def test_capacity_target_settings_exit_3(tmp_path, capsys, target, setting,
                                         message):
    """A section at a non-finite rho or tau, a ball complement at a level
    below 1 or with a radius below float resolution, and a ring below
    float resolution are rejected: exit 3 with a failure.json, never a
    capacity of 0 or of a ball larger than the unit one."""
    cfg = _write(tmp_path, "bad.cfg", FAST_CAPACITY.replace(
        "capacity.target = ring", f"capacity.target = {target}")
        + setting + "\n")
    out = tmp_path / "out"
    code = main(["capacity", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == EXIT_FAILURE
    assert message in capsys.readouterr().err
    assert message in json.loads((out / "failure.json").read_text())["error"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"] == ["config.txt", "failure.json"]


_SERIES_EMPTY = "K_max and H_max must be >= 1"


@pytest.mark.parametrize("command, name, setting, message", [
    ("series", "halfspace", "wiener.K-max = 0", _SERIES_EMPTY),
    ("series", "halfspace", "wiener.H-max = 0", _SERIES_EMPTY),
    ("classify", "cylinder-top", "wiener.K-max = 0", _SERIES_EMPTY),
    ("classify", "cylinder-top", "wiener.H-max = 0", _SERIES_EMPTY),
    ("cone", "halfspace", "cone.levels = 0", "r_levels must be >= 1"),
    ("classify", "halfspace", "wiener.H-max = 0\ncone.levels = 0",
     "r_levels must be >= 1"),
    ("capacity", "halfspace", "capacity.refine-levels = 0",
     "refinement levels must be >= 1"),
    ("capacity", "halfspace", "capacity.refine-levels = -1",
     "refinement levels must be >= 1"),
])
def test_settings_that_empty_a_criterion_exit_3(tmp_path, capsys, command,
                                                name, setting, message):
    """A setting that leaves a criterion nothing to compute (no series
    level or band, no cone radius, no refinement level) is an input
    error: exit 3 with a failure.json, not an IndexError that exits 1
    (IRREGULAR's code) or an empty verdict."""
    cfg = _write(tmp_path, "bad.cfg",
                 fast_base(command, name) + setting + "\n")
    out = tmp_path / "out"
    code = main([command, "--config", cfg, "--out", str(out), "--quiet"])
    assert code == EXIT_FAILURE
    assert message in capsys.readouterr().err
    failure = json.loads((out / "failure.json").read_text())
    assert message in failure["error"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"] == ["config.txt", "failure.json"]


def _family_cases(tmp_path):
    """(config text, the domain its constructor builds) per family, each
    with values other than the schema defaults."""
    m = wc.euclidean(1)
    mask_path = tmp_path / "half.mask"
    t = (np.arange(32) + 0.5) / 16.0 - 1.0
    wc.write_mask(mask_path, np.broadcast_to(t > 0.0, (32, 32)),
                  [-1.0, -1.0], [0.0625, 0.0625])
    halfwidth = "domain.halfwidth = 1.5\n"
    cusp = "domain.family = cusp\ndomain.depth = 0.2\ndomain.t0 = 0.1\n"
    cylinder = ("domain.family = cylinder\ndomain.radius = 0.3\n"
                "domain.t1 = -0.8\ndomain.t2 = 0.1\n")
    return [
        ("domain.family = halfspace-time\ndomain.t0 = 0.5\n" + halfwidth,
         wc.halfspace_time(m, 0.5, 1.5)),
        ("domain.family = spatial-halfspace\ndomain.wall = 0.2\n"
         "domain.t0 = 0.1\n" + halfwidth,
         wc.spatial_halfspace(m, 0.2, 0.1, 1.5)),
        (cylinder, wc.cylinder(m, 0.3, -0.8, 0.1)),
        (cylinder + "domain.z0-position = lateral\n",
         wc.cylinder(m, 0.3, -0.8, 0.1, z0="lateral")),
        ("domain.family = cone\ndomain.M0 = 1.2\ndomain.theta = 0.4\n"
         "domain.depth = 0.3\ndomain.t0 = 0.1\n" + halfwidth,
         wc.cone(m, 1.2, 0.4, 0.3, 0.1, 1.5)),
        (cusp + "domain.profile = power\ndomain.p = 0.8\n" + halfwidth,
         wc.cusp(m, "power", 0.8, 1.0, 0.2, 0.1, 1.5)),
        (cusp + "domain.profile = loglog\ndomain.c = 0.5\n" + halfwidth,
         wc.cusp(m, "loglog", 1.0, 0.5, 0.2, 0.1, 1.5)),
        ("domain.family = punctured\ndomain.radius = 0.3\n"
         "domain.tau = 0.2\n" + halfwidth,
         wc.punctured(m, 0.3, 0.2, halfwidth=1.5)),
        (f"domain.family = mask\ndomain.mask-path = {mask_path}\n",
         wc.mask_domain(mask_path, m, stp(np.zeros(1), 0.0))),
    ]


def _assert_same_domain(got, want):
    assert (got.family, got.metric) == (want.family, want.metric)
    assert got.params.keys() == want.params.keys()
    for key, value in want.params.items():
        assert np.array_equal(got.params[key], value), key
    assert np.array_equal(got.x_lo, want.x_lo)
    assert np.array_equal(got.x_hi, want.x_hi)
    assert (got.t_lo, got.t_hi) == (want.t_lo, want.t_hi)
    assert np.array_equal(got.z0.x, want.z0.x) and got.z0.t == want.z0.t
    assert np.array_equal(got.mask_grid, want.mask_grid)


def test_every_domain_family_builds_from_the_config(tmp_path):
    """Each domain.family with its parameter keys builds the domain its
    constructor builds from the same values, and `cone` runs on it."""
    for i, (text, want) in enumerate(_family_cases(tmp_path)):
        text += "cone.resolution = 4\n"
        cfg = parse_config(text)
        _assert_same_domain(cli.build_domain(cfg, cli.build_metric(cfg)), want)
        path = _write(tmp_path, f"family{i}.cfg", text)
        code = main(["cone", "--config", path, "--out",
                     str(tmp_path / f"out{i}"), "--quiet"])
        assert code == EXIT_OK, text


@pytest.mark.parametrize("text", ["domain.family = mask\n",
                                  "domain.family = torus\n"])
def test_unbuildable_domain_family_exits_64(tmp_path, capsys, text):
    cfg = _write(tmp_path, "bad.cfg", text)
    code = main(["cone", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--quiet"])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_list_domains_needs_no_config(capsys):
    code = main(["list-domains"])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    for name in ("halfspace", "spatial-halfspace", "cylinder-top",
                 "cone", "cusp-power", "cusp-loglog"):
        assert name in text


def _run_capacity(tmp_path, cfg_path, tag):
    out = str(tmp_path / tag)
    code = main(["capacity", "--config", cfg_path, "--out", out, "--quiet"])
    assert code == EXIT_OK
    return tmp_path / tag


def test_rerun_bundles_are_byte_identical(tmp_path):
    cfg = _write(tmp_path, "cap.cfg", FAST_CAPACITY)
    d1 = _run_capacity(tmp_path, cfg, "run1")
    d2 = _run_capacity(tmp_path, cfg, "run2")
    names = sorted(os.listdir(d1))
    assert names == sorted(os.listdir(d2))
    match, mismatch, errors = filecmp.cmpfiles(d1, d2, names, shallow=False)
    assert mismatch == [] and errors == []
    assert set(match) == set(names)


@pytest.mark.parametrize("levels", [1, 3])
def test_capacity_solves_once_per_refinement_level(tmp_path, monkeypatch,
                                                   levels):
    import wienercap.capacity as capmod
    solved = []
    real = capmod.solve_capacity

    def counting(prob, highs=None):
        solved.append(prob.support.resolution)
        return real(prob, highs)

    monkeypatch.setattr(capmod, "solve_capacity", counting)
    # base resolution 2 keeps the finest of three levels a small LP
    text = FAST_CAPACITY.replace("resolution = 3", "resolution = 2")
    cfg = _write(tmp_path, "cap.cfg",
                 text + f"capacity.refine-levels = {levels}\n")
    out = _run_capacity(tmp_path, cfg, "run")
    assert solved == [2 + j for j in range(levels)]
    record = json.loads((out / "capacity.json").read_text())
    assert record["resolution"] == solved[-1]
    assert len(record["refinement"]) == levels


@pytest.mark.parametrize("setting, exponent", [("", 0.25),
                                               ("bounds.a0 = 0.2", 0.2),
                                               ("wiener.a = 0.125", 0.125)])
def test_capacity_kernel_exponent_follows_the_bounds(tmp_path, setting,
                                                     exponent):
    """capacity takes its kernel exponent by the rule series and classify
    use: wiener.a, else a0."""
    text = FAST_CAPACITY.replace("resolution = 3", "resolution = 2")
    cfg = _write(tmp_path, "cap.cfg", text + setting + "\n")
    out = _run_capacity(tmp_path, cfg, "run")
    record = json.loads((out / "capacity.json").read_text())
    assert record["kernel_exponent"] == exponent


def test_manifest_fields_and_config_copy(tmp_path):
    text = FAST_CAPACITY
    cfg = _write(tmp_path, "cap.cfg", text)
    out = _run_capacity(tmp_path, cfg, "run")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "capacity"
    assert manifest["package"] == "wienercap"
    assert manifest["config_sha256"] == config_hash(text)
    assert manifest["seed"] == 0
    assert "capacity.json" in manifest["files"]
    assert "config.txt" in manifest["files"]
    # bundle keeps a byte-exact copy of the parsed config
    assert (out / "config.txt").read_text() == text
    # no wall-clock fields: reruns must hash identically
    assert not any("time" in key or "date" in key for key in manifest)


def test_seed_flag_overrides_config(tmp_path):
    cfg = _write(tmp_path, "cap.cfg", FAST_CAPACITY + "seed = 4\n")
    out = str(tmp_path / "run")
    code = main(["capacity", "--config", cfg, "--out", out,
                 "--seed", "99", "--quiet"])
    assert code == EXIT_OK
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["seed"] == 99



def test_benchmark_suite_matches_every_pinned_verdict(tmp_path):
    cfg = _write(tmp_path, "suite.cfg", FAST_SUITE)
    out = tmp_path / "out"
    code = main(["benchmark-suite", "--config", cfg, "--out", str(out),
                 "--quiet"])
    assert code == EXIT_OK
    assert len(list(out.glob("*_classification.json"))) == 6
    summary = json.loads((out / "suite_summary.json").read_text())
    assert summary["all_pinned_match"] is True


def test_benchmark_suite_fails_on_pinned_pde_contradiction(tmp_path,
                                                           monkeypatch):
    def probe(dom, verdict, offsets, walk):
        status = "NO-DECAY" if dom.family == "halfspace-time" else "DECAY-FIT"
        fit = HolderFit(status, 0.5, 1.0, 0.99, 0.0)
        return fit, verdict == "REGULAR" and status == "NO-DECAY"

    monkeypatch.setattr(cli, "classification_probe", probe)
    cfg = _write(tmp_path, "suite.cfg", FAST_SUITE)
    out = tmp_path / "out"
    code = main(["benchmark-suite", "--config", cfg, "--out", str(out),
                 "--quiet"])
    assert code == EXIT_FAILURE
    summary = json.loads((out / "suite_summary.json").read_text())
    assert summary["all_pinned_match"] is False
    rows = {r["benchmark"]: r for r in summary["results"]}
    assert rows["halfspace"]["match"] is True
    assert rows["halfspace"]["pde_contradicts"] is True


def test_benchmark_suite_passes_integral_quadrature_keys(tmp_path,
                                                         monkeypatch):
    def probe(dom, verdict, offsets, walk):
        return HolderFit("INSUFFICIENT", 0.0, 0.0, 0.0, 0.0), False

    monkeypatch.setattr(cli, "classification_probe", probe)
    cfg = _write(tmp_path, "suite.cfg",
                 FAST_SUITE + "integral.resolution = 3\n")
    out = tmp_path / "out"
    main(["benchmark-suite", "--config", cfg, "--out", str(out), "--quiet"])
    for name in wc.benchmark_names():
        rep = json.loads((out / f"{name}_integral.json").read_text())
        assert rep["resolution"] == 3, name


def test_pde_verify_passes_its_four_checks(tmp_path):
    cfg = _write(tmp_path, "pde.cfg", "seed = 11\n")
    out = tmp_path / "out"
    code = main(["pde-verify", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == EXIT_OK
    report = json.loads((out / "pde_verify.json").read_text())
    assert report["all_pass"] is True
    assert sorted(report["checks"]) == ["constant_data",
                                        "gaussian_data_vs_closed_form",
                                        "linear_data", "step_halving"]
    assert all(c["pass"] for c in report["checks"].values())
    manifest = json.loads((out / "manifest.json").read_text())
    assert "pde_verify.json" in manifest["files"]


def test_pde_verify_on_koranyi_exits_64(tmp_path, capsys):
    cfg = _write(tmp_path, "pde.cfg", "metric.kind = heisenberg-koranyi\n")
    code = main(["pde-verify", "--config", cfg, "--out",
                 str(tmp_path / "out"), "--quiet"])
    assert code == EXIT_CONFIG
    assert "requires a Euclidean metric" in capsys.readouterr().err


def test_table_metric_kind_exits_64(tmp_path, capsys):
    cfg = _write(tmp_path, "t.cfg", "metric.kind = table\n")
    code = main(["cone", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"])
    assert code == EXIT_CONFIG
    assert ("unknown metric.kind 'table'; the CLI supports euclidean and "
            "heisenberg-koranyi") in capsys.readouterr().err


def test_series_table_csv_layout(tmp_path):
    cfg = _write(tmp_path, "ser.cfg", FAST_SERIES)
    out = str(tmp_path / "out")
    code = main(["series", "--config", cfg, "--out", out, "--quiet"])
    assert code == EXIT_OK
    lines = (tmp_path / "out" / "series_table.csv").read_text().splitlines()
    assert lines[0] == "k,h,capacity,ball_volume,weight,term"
    # one row per computed (k, h) cell; empty bands may be skipped
    cells = [tuple(map(int, row.split(",")[:2])) for row in lines[1:]]
    assert len(set(cells)) == len(cells)
    assert all(1 <= k <= 4 and 1 <= h <= 3 for k, h in cells)
    assert {k for k, _h in cells} == {1, 2, 3, 4}
    report = json.loads((tmp_path / "out" / "series_report.json").read_text())
    assert report["verdict"] in ("DIVERGENT", "CONVERGENT",
                                 "INCONCLUSIVE", "PARTIAL")


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# ---------------------------------------------------------------------------
# edge-value sweep of the schema

# per command, a small base config holding only keys that command reads
SWEEP_BASES = {
    "capacity": "capacity.resolution = 2\n",
    "series": "wiener.K-max = 4\nwiener.H-max = 8\ncapacity.resolution = 2\n",
    "classify": "wiener.K-max = 4\nwiener.H-max = 8\ncapacity.resolution = 2\n"
                "cone.resolution = 4\n",
    "cone": "cone.resolution = 4\n",
    "integral": "",
    "pde-verify": "pde.walkers = 200\n",
}

# numeric key -> (command that reads it, settings that make that run read
# it: the family or capacity target whose parameter it is)
SWEEP_READERS = {
    "seed": ("pde-verify", ""),
    "metric.N": ("classify", ""),
    "domain.t0": ("cone", ""),
    "domain.halfwidth": ("cone", ""),
    "domain.wall": ("cone", "domain.family = spatial-halfspace"),
    "domain.radius": ("cone", "domain.family = cylinder"),
    "domain.t1": ("cone", "domain.family = cylinder"),
    "domain.t2": ("cone", "domain.family = cylinder"),
    "domain.M0": ("cone", "domain.family = cone"),
    "domain.theta": ("cone", "domain.family = cone"),
    "domain.depth": ("cone", "domain.family = cone"),
    "domain.p": ("cone", "domain.family = cusp"),
    "domain.c": ("cone", "domain.family = cusp\ndomain.profile = loglog"),
    "domain.tau": ("cone", "domain.family = punctured"),
    "bounds.Lambda": ("classify", ""),
    "bounds.a0": ("series", ""),
    "bounds.b0": ("series", ""),
    "wiener.lambda": ("series", ""),
    "wiener.a": ("series", ""),
    "wiener.b": ("series", ""),
    "wiener.K-max": ("series", ""),
    "wiener.H-max": ("series", ""),
    "capacity.resolution": ("capacity", ""),
    "capacity.k": ("capacity", ""),
    "capacity.h": ("capacity", ""),
    "capacity.rho": ("capacity", "capacity.target = section"),
    "capacity.tau": ("capacity", "capacity.target = section"),
    "capacity.l": ("capacity", "capacity.target = ball-complement"),
    "capacity.refine-levels": ("capacity", ""),
    "integral.resolution": ("integral", ""),
    "integral.probes": ("integral", ""),
    "cone.M0": ("cone", ""),
    "cone.r0": ("cone", ""),
    "cone.levels": ("cone", ""),
    "cone.theta-min": ("cone", ""),
    "cone.resolution": ("cone", ""),
    "pde.beta": ("pde-verify", ""),
    "pde.step": ("pde-verify", ""),
    "pde.walkers": ("pde-verify", ""),
    "pde.max-time": ("pde-verify", ""),
}


def _edge_values(key):
    """0, -1, nan and inf for float keys; 0, -1 and 10^6 for int keys,
    except pde.walkers: 10^6 walkers make a valid pde-verify walk of
    about 40 s on a 2-core host, not an edge case, so 10^4 stands in."""
    if SCHEMA[key][0] != "int":
        return ["0", "-1", "nan", "inf"]
    return ["0", "-1", "10000" if key == "pde.walkers" else "1000000"]


def test_schema_sweep_ends_every_run_in_a_documented_exit(tmp_path, capsys):
    """Each numeric schema key, set alone to each edge value on its
    command's small base config, under the command and family or target
    that read it, ends without an escaping exception in exit 0, 1, 2, 3 or
    64; exit 1 (IRREGULAR) only from classify, exit 64 naming no key but
    the swept one, every exit 3 with a failure.json and a manifest, and no
    nan or inf value in exit 0."""
    numeric = {k for k, (tname, _, _) in SCHEMA.items() if tname != "str"}
    assert set(SWEEP_READERS) == numeric
    bad = []
    for i, (key, (command, reader)) in enumerate(SWEEP_READERS.items()):
        for value in _edge_values(key):
            case = f"{command} {key} = {value}"
            cfg = _write(tmp_path, f"c{i}.cfg", f"{SWEEP_BASES[command]}"
                         f"{reader}\n{key} = {value}\n")
            out = tmp_path / f"{i}-{value}"
            code = main([command, "--config", cfg, "--out", str(out),
                         "--quiet"])
            err = capsys.readouterr().err
            if code not in (0, 1, 2, 3, 64) or (code == 1
                                                and command != "classify"):
                bad.append(f"{case}: exit {code}")
            named = set(re.split(r"[\s,'\"]+", err)) & set(SCHEMA)
            if code == EXIT_CONFIG and named - {key}:
                bad.append(f"{case}: exit 64 on another key: {err.strip()}")
            if code == EXIT_OK and value in ("nan", "inf"):
                bad.append(f"{case}: a result built on {value}")
            if code == EXIT_FAILURE and not ((out / "failure.json").exists()
                                             and (out / "manifest.json")
                                             .exists()):
                bad.append(f"{case}: exit 3 without failure.json or manifest")
    assert bad == []
