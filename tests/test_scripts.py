"""Smoke runs of the scripts under scripts/ on small settings."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("argv", [
    ["beta_sweep.py", "--c", "1", "--betas", "1", "--k-max", "6",
     "--force-series"],
    ["capacity_refinement_study.py", "--res-min", "3", "--res-max", "3"],
    ["probe_flip_rate.py", "--seeds", "1", "2", "--walkers", "100"],
    ["lp_census.py", "--workload", "lp-cloud"],
])
def test_script_runs(argv):
    assert _run_script(argv).stdout.strip()


def _run_script(argv):
    """Run scripts/argv[0] with this checkout's src first on the path;
    it must exit 0."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", argv[0]), *argv[1:]],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc


def test_lp_census_builds_one_model_per_table(tmp_path):
    """A scale-comparability round solves its two series tables on one
    HiGHS model each, and lp-cloud's twelve direct solves build one
    apiece; no solve falls back to a full-grid covering round.  Every
    scale-comparability ring folds to fewer atom orbits than atoms and
    about half its rows; no lp-cloud cloud folds at all."""
    out = tmp_path / "census.json"
    _run_script(["lp_census.py", "--workload", "scale-comparability",
                 "lp-cloud", "--json", str(out)])
    rows = json.loads(out.read_text())["workloads"]
    scale, cloud = rows["scale-comparability"], rows["lp-cloud"]
    assert scale["models"] == 2
    assert cloud["models"] == 12
    assert scale["fallbacks"] == 0
    assert cloud["fallbacks"] == 0
    assert scale["solves"] <= scale["orbits"] < scale["atoms"]
    assert 2 * scale["row orbits"] <= scale["rows"] + scale["atoms"]
    assert (cloud["orbits"], cloud["row orbits"]) == (cloud["atoms"],
                                                      cloud["rows"])
    assert cloud["entries"] > scale["entries"] > 0


def _bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(ROOT, "scripts", "bench_pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result_line(wall, rate, correct=True, failed=0):
    return ("perfbench: a progress line\n" + json.dumps(
        {"correct": correct, "attempted": 755, "failed": failed,
         "metrics": {"wall_s": {"value": wall, "unit": "s"},
                     "capacities_per_s": {"value": rate, "unit": "1/s"}}})
            + "\n")


def test_bench_pairs_aggregates_result_lines():
    """bench_pairs reads perfbench's last output line and reports each
    side's operations attempted and failed and, per metric, both sides'
    medians and quartiles and the pairs the change won in the metric's
    own direction; no process is started."""
    bp = _bench_pairs()
    walls = [(1.2, 0.5), (1.3, 0.6), (1.0, 1.1), (1.4, 0.4)]
    pairs = [(bp.parse_result(_result_line(p, 500.0)),
              bp.parse_result(_result_line(c, 1500.0 if c < p else 400.0)))
             for p, c in walls]
    better = bp.directions(bp.benchmark_spec(ROOT))
    assert better["wall_s"] == "lower"
    assert better["capacities_per_s"] == "higher"
    rep = bp.aggregate(pairs, better)
    assert rep["all_correct"] and len(rep["pairs"]) == 4
    assert set(rep["metrics"]) == {"wall_s", "capacities_per_s"}
    wall = rep["metrics"]["wall_s"]
    assert wall["pairs_better"] == 3
    assert wall["parent"]["median"] == pytest.approx(1.25)
    assert wall["change"]["median"] == pytest.approx(0.55)
    assert wall["parent"]["q1"] <= wall["parent"]["median"] \
        <= wall["parent"]["q3"]
    assert rep["metrics"]["capacities_per_s"]["pairs_better"] == 3
    one = bp.aggregate(pairs[:1], better)["metrics"]["wall_s"]["parent"]
    assert one == {"median": 1.2, "q1": 1.2, "q3": 1.2}
    assert rep["operations"] == {
        side: {"attempted": 4 * 755, "failed": 0, "failed_share": 0.0}
        for side in ("parent", "change")}
    bad = [(pairs[0][0], bp.parse_result(_result_line(0.5, 1.0, False, 3)))]
    worse = bp.aggregate(bad, better)
    assert not worse["all_correct"]
    assert worse["operations"]["parent"]["failed"] == 0
    assert worse["operations"]["change"] == {
        "attempted": 755, "failed": 3, "failed_share": 3 / 755}
