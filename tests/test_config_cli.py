"""Config parsing and command-line interface behavior.

Covers the flat key=value config format (defaults, typing, error
reporting), the report-bundle layout (manifest fields, determinism of
reruns), and the documented exit codes: 0 success/REGULAR, 1 IRREGULAR,
2 INCONCLUSIVE, 3 analysis failure, 64 config error.
"""

import filecmp
import json
import os

import pytest

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


def test_unknown_config_key_exits_64(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.cfg", "bogus.key = 1\n")
    code = main(["capacity", "--config", cfg, "--quiet"])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


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

    def counting(prob):
        solved.append(prob.support.resolution)
        return real(prob)

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


FAST_SUITE = """
wiener.K-max = 16
capacity.resolution = 3
pde.walkers = 200
"""


def test_benchmark_suite_matches_every_pinned_verdict(tmp_path):
    cfg = _write(tmp_path, "suite.cfg", FAST_SUITE)
    out = tmp_path / "out"
    code = main(["benchmark-suite", "--config", cfg, "--out", str(out),
                 "--quiet"])
    assert code == EXIT_OK
    assert len(list(out.glob("*_classification.json"))) == 6
    summary = json.loads((out / "suite_summary.json").read_text())
    assert summary["all_pinned_match"] is True


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
