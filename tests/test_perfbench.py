"""The benchmark's one-recipe process still drives the package.

``perfbench/child.py`` looks up names across every hsmc layer to time and
trace them; these tests run it as the benchmark does, in a fresh process
with this checkout's package, so a renamed or reshaped name fails here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import hsmc
from hsmc.cli import generate_data

SRC = str(Path(hsmc.__file__).resolve().parents[1])
CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def run_child(recipe, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(CHILD), str(recipe), *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture
def hsmc_recipe(tmp_path):
    data_path = tmp_path / "points.csv"
    generate_data("smiley", 80, 3, data_path)
    path = tmp_path / "hsmc.yaml"
    path.write_text(yaml.safe_dump({
        "algorithm": "hsmc", "seed": 11, "output": "out", "particles": 16, "groups": 2,
        "kernel": {"type": "hmc", "step_size": 0.05, "leapfrog_steps": 5},
        "initial": {"mean": [0.0, 10.0], "sigma": [10.0, 20.0]},
        "sequence": {"kind": "kde-blocks", "data": str(data_path), "block_size": 40},
    }))
    return path


def test_setup_only_reports_the_shape(hsmc_recipe):
    out = run_child(hsmc_recipe, "--setup-only")
    assert out["exit"] == 0
    assert out["algorithm"] == "hsmc"
    assert (out["particles"], out["groups"], out["length"]) == (16, 2, 2)
    assert out["kernel"] == ["hmc", 5, 0.05]
    assert "ready" in out


def spans_of_run(tmp_path, recipe, *args):
    spans_path = tmp_path / "spans.json"
    out = run_child(recipe, "--spans", spans_path, *args)
    assert out["exit"] == 0
    assert {"ready", "wall_s", "peak_rss_mb"} <= out.keys()
    spans = json.loads(spans_path.read_text())
    assert spans
    return {span[0] for span in spans}


def test_traced_sequential_run(tmp_path, hsmc_recipe):
    names = spans_of_run(tmp_path, hsmc_recipe, "--threads", "2")
    assert {"smc.run", "smc.group", "smc.correction", "smc.resample", "kernels.mutate",
            "kde.loo", "kde.log_f", "kde.grad", "core.generator", "diagnostics.moments",
            "cli.parse", "cli.build", "cli.write"} <= names


def test_traced_chain_run(tmp_path):
    recipe = tmp_path / "mh.yaml"
    recipe.write_text(yaml.safe_dump({
        "algorithm": "mh", "seed": 5, "output": "out", "iterations": 20,
        "kernel": {"type": "mh", "proposal_scale": 0.2},
        "target": {"name": "rosenbrock"},
    }))
    names = spans_of_run(tmp_path, recipe)
    assert {"kernels.step", "targets.log_f", "cli.parse", "cli.build", "cli.write"} <= names
