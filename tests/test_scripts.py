"""Smoke runs of the scripts under scripts/ on small settings."""

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
])
def test_script_runs(argv):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", argv[0]), *argv[1:]],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip()
