import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import yaml

import hsmc
from hsmc import cli
from hsmc.cli import (
    ConfigError, _grid_log_f, _read_columns, _write_grid, _write_particles, generate_data, main,
    parse_config, run,
)
from hsmc.core import RandomSource
from hsmc.kde import kde_target
from hsmc.kernels import HmcConfig, MhConfig
from hsmc.smc import compare_groups
from hsmc.targets import dropwave, sample_smiley_data, simulate_logit_data

SRC = str(Path(hsmc.__file__).resolve().parents[1])

REPORT_SCHEMA = {
    "type": "object",
    "required": ["algorithm", "seed", "n_particles", "n_groups", "n_iterations", "rows"],
    "properties": {
        "algorithm": {"enum": ["mh", "hmc", "smc", "hsmc"]},
        "seed": {"type": "integer"},
        "n_particles": {"type": "integer"},
        "n_groups": {"type": "integer"},
        "n_iterations": {"type": "integer"},
        "group_divergence": {"type": ["number", "null"]},
        "rows": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "group", "iteration", "acceptance_count", "ess",
                    "weight_min", "weight_max", "mean", "cov_diag",
                ],
                "properties": {
                    "group": {"type": "integer"},
                    "iteration": {"type": "integer"},
                    "acceptance_count": {"type": "integer"},
                    "ess": {"type": "number"},
                    "mean": {"type": "array", "items": {"type": "number"}},
                    "cov_diag": {"type": "array", "items": {"type": "number"}},
                },
            },
        },
    },
}


def write_config(path, mapping):
    path.write_text(yaml.safe_dump(mapping))
    return path


def smiley_style_config(tmp_path, data_path, **overrides):
    mapping = {
        "algorithm": "hsmc",
        "seed": 7,
        "output": "out",
        "particles": 512,
        "groups": 4,
        "mutation_steps": 1,
        "kernel": {"type": "hmc", "step_size": 0.05, "leapfrog_steps": 20,
                   "mass_diag": [1.0, 1.0]},
        "initial": {"mean": [0.0, 10.0], "sigma": [10.0, 20.0]},
        "sequence": {"kind": "kde-blocks", "data": str(data_path), "block_size": 100},
    }
    mapping.update(overrides)
    return write_config(tmp_path / "config.yaml", mapping)


def python_process(*args, **env):
    """Run ``python ARGS`` with this checkout's package and ``env`` overrides.

    A None value removes the variable from the environment.
    """
    environ = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    for key, value in env.items():
        environ.pop(key, None)
        if value is not None:
            environ[key] = value
    return subprocess.run([sys.executable, *map(str, args)], capture_output=True, env=environ)


def cli_process(*args, **env):
    """Run ``python -m hsmc.cli ARGS``, see :func:`python_process`."""
    return python_process("-m", "hsmc.cli", *args, **env)


def tiny_run_config(tmp_path, **overrides):
    data_path = tmp_path / "points.csv"
    generate_data("smiley", 80, 3, data_path)
    mapping = {
        "algorithm": "hsmc",
        "seed": 11,
        "output": "out",
        "particles": 16,
        "groups": 2,
        "mutation_steps": 1,
        "kernel": {"type": "hmc", "step_size": 0.05, "leapfrog_steps": 5},
        "initial": {"mean": [0.0, 10.0], "sigma": [10.0, 20.0]},
        "sequence": {"kind": "kde-blocks", "data": str(data_path), "block_size": 40},
    }
    mapping.update(overrides)
    return write_config(tmp_path / "config.yaml", mapping)


class TestParseConfig:
    def test_smiley_recipe_fields(self, tmp_path):
        data_path = tmp_path / "smiley.csv"
        generate_data("smiley", 64, 1, data_path)
        config = parse_config(smiley_style_config(tmp_path, data_path))
        assert config.n_particles == 512
        assert config.n_groups == 4
        assert config.kernel.leapfrog_steps == 20
        assert config.kernel.step_size == 0.05
        assert config.weight_mode == "loo_kde_ratio"

    def test_negative_step_size_names_field(self, tmp_path):
        data_path = tmp_path / "smiley.csv"
        generate_data("smiley", 64, 1, data_path)
        path = smiley_style_config(
            tmp_path, data_path,
            kernel={"type": "hmc", "step_size": -1.0, "leapfrog_steps": 20},
        )
        with pytest.raises(ConfigError, match="step_size"):
            parse_config(path)

    @pytest.mark.parametrize("algorithm, default", [("hmc", HmcConfig()), ("mh", MhConfig())])
    def test_kernel_defaults_are_the_config_defaults(self, tmp_path, algorithm, default):
        mapping = chain_recipe(algorithm)
        mapping["kernel"] = {"type": algorithm}
        assert parse_config(write_config(tmp_path / "c.yaml", mapping)).kernel == default

    def test_unknown_algorithm(self, tmp_path):
        path = write_config(tmp_path / "c.yaml", {
            "algorithm": "warp", "seed": 1, "output": "o",
            "kernel": {"type": "mh"},
        })
        with pytest.raises(ConfigError, match="algorithm"):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_config(tmp_path / "nope.yaml")

    def test_missing_data_file_reported(self, tmp_path):
        path = smiley_style_config(tmp_path, tmp_path / "missing.csv")
        with pytest.raises(ConfigError, match="sequence.data"):
            parse_config(path)

    def test_mcmc_requires_iterations(self, tmp_path):
        path = write_config(tmp_path / "c.yaml", {
            "algorithm": "mh", "seed": 1, "output": "o",
            "kernel": {"type": "mh", "proposal_scale": 0.2},
            "target": {"name": "rosenbrock"},
        })
        with pytest.raises(ConfigError, match="iterations"):
            parse_config(path)

    def test_kernel_algorithm_mismatch(self, tmp_path):
        path = write_config(tmp_path / "c.yaml", {
            "algorithm": "hmc", "seed": 1, "output": "o", "iterations": 10,
            "kernel": {"type": "mh", "proposal_scale": 0.2},
            "target": {"name": "rosenbrock"},
        })
        with pytest.raises(ConfigError, match="kernel.type"):
            parse_config(path)

    @pytest.mark.parametrize("start, message", [
        ([0.0, 0.0, 0.0], "start: expected 2 coordinates"),
        ([3.0, 0.0], "start: zero density"),  # outside the dropwave box
    ])
    def test_chain_start_checked(self, tmp_path, start, message):
        mapping = chain_recipe()
        mapping.update(start=start, target={"name": "dropwave"})
        with pytest.raises(ConfigError, match=message):
            parse_config(write_config(tmp_path / "c.yaml", mapping))


def strict_recipe(tmp_path):
    """A small hsmc recipe touching every mapping a kde-blocks run reads."""
    data_path = tmp_path / "points.csv"
    generate_data("dropwave", 100, 3, data_path)
    return {
        "algorithm": "hsmc", "seed": 1, "output": "out", "particles": 16,
        "kernel": {"type": "hmc", "step_size": 0.05, "leapfrog_steps": 5},
        "initial": {"mean": [0.0, 0.0], "sigma": [1.0, 1.0]},
        "sequence": {"kind": "kde-blocks", "data": str(data_path), "block_size": 50,
                     "constraints": {"lower": [-2.5, -2.5], "upper": [2.5, 2.5]}},
        "grid": {"resolution": 11},
    }


def chain_recipe(algorithm="hmc"):
    """A small hmc or mh chain recipe on the two-dimensional rosenbrock target."""
    kernels = {"hmc": {"type": "hmc", "step_size": 0.05, "leapfrog_steps": 5},
               "mh": {"type": "mh", "proposal_scale": 0.2}}
    return {
        "algorithm": algorithm, "seed": 5, "output": "out", "iterations": 20,
        "kernel": kernels[algorithm],
        "target": {"name": "rosenbrock"},
    }


def annealing_recipe():
    """A small smc recipe annealing a six-dimensional gaussian."""
    return {
        "algorithm": "smc", "seed": 1, "output": "out", "particles": 16,
        "kernel": {"type": "mh", "proposal_scale": 0.2},
        "initial": {"mean": [0.0] * 6, "sigma": [1.0] * 6},
        "sequence": {"kind": "annealing", "gammas": [0.5, 1.0]},
        "target": {"name": "gaussian", "mean": [0.0] * 6, "cov_diag": [1.0] * 6},
    }


def set_field(mapping, field, value):
    *sections, key = field.split(".")
    for section in sections:
        mapping = mapping[section]
    mapping[key] = value


def assert_rejected_before_output(tmp_path, path, capsys, field):
    assert main(["run", str(path)]) == 1
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class TestStrictInputs:
    @pytest.mark.parametrize("field", [
        "mutation_step",
        "kernel.leapfrog_step",
        "kernel.proposal_scale",  # a field of mh kernels, under an hmc kernel
        "target.scale",
        "initial.sd",
        "sequence.blocksize",
        "sequence.constraints.lo",
        "grid.res",
    ])
    def test_unknown_key_named(self, tmp_path, capsys, field):
        mapping = chain_recipe() if field.startswith("target.") else strict_recipe(tmp_path)
        set_field(mapping, field, 5)
        path = write_config(tmp_path / "c.yaml", mapping)
        assert_rejected_before_output(tmp_path, path, capsys, field)

    @pytest.mark.parametrize("recipe, field, value", [
        ("mh-chain", "particles", 16),
        ("mh-chain", "mutation_steps", 2),
        ("mh-chain", "initial", {"mean": [0.0, 0.0], "sigma": [1.0, 1.0]}),
        ("mh-chain", "sequence", {"kind": "annealing", "gammas": [1.0]}),
        ("annealing", "iterations", 20),
        ("annealing", "start", [0.0] * 6),
        ("annealing", "grid", {"resolution": 11}),
        ("gauss6-chain", "grid", {"resolution": 11}),
        ("sequential", "target", {"name": "dropwave"}),
        ("mh-chain", "threads", 2),
        ("mh-chain", "record_all", True),
    ])
    def test_field_the_run_does_not_read(self, tmp_path, capsys, recipe, field, value):
        mapping = {
            "sequential": lambda: strict_recipe(tmp_path),
            "annealing": annealing_recipe,
            "mh-chain": lambda: chain_recipe("mh"),
            "gauss6-chain": lambda: dict(chain_recipe(), target=annealing_recipe()["target"]),
        }[recipe]()
        mapping[field] = value
        path = write_config(tmp_path / "c.yaml", mapping)
        assert_rejected_before_output(tmp_path, path, capsys, field)

    @pytest.mark.parametrize("algorithm", ["mh", "hmc"])
    @pytest.mark.parametrize("flags", [["--threads", "2"], ["--threads", "1"], ["--record-all"]])
    def test_chain_rejects_sequential_flag(self, tmp_path, capsys, algorithm, flags):
        # a chain records every state and runs its chains one after another
        path = write_config(tmp_path / "c.yaml", chain_recipe(algorithm))
        assert main(["run", str(path), *flags]) == 1
        assert flags[0] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("recipe, field, value", [
        ("sequential", "seed", True),
        ("sequential", "seed", 2.7),
        ("sequential", "particles", 16.5),
        ("sequential", "groups", True),
        ("sequential", "kernel.leapfrog_steps", 2.7),
        ("sequential", "sequence.block_size", 50.5),
        ("sequential", "grid.resolution", 11.5),
        ("sequential", "kernel.mass_diag", [1.0, 1.0, 1.0]),
        ("chain", "seed", True),
        ("chain", "iterations", 2.7),
        ("chain", "iterations", True),
        ("chain", "kernel.mass_diag", [1.0, 1.0, 1.0]),
        ("sequential", "kernel.step_size", True),
        ("sequential", "kernel.step_size", "abc"),
        ("sequential", "kernel.mass_diag", [True, 1.0]),
        ("chain", "kernel.mass_diag", True),
        ("chain", "start", [True, 0.0]),
        ("mh-chain", "kernel.proposal_scale", True),
        ("mh-chain", "kernel.proposal_scale", "abc"),
        ("sequential", "seed", 2**64),
        ("chain", "seed", 2**64 + 5),
        # a path field that is not a string
        ("sequential", "output", True),
        ("sequential", "output", 5),
        ("sequential", "output", None),
        ("chain", "output", ["a", "b"]),
        ("logit-chain", "target.data", 7),
        ("sequential", "sequence.data", 5),
        # gaussian parameters that are not finite
        ("sequential", "initial.mean", [float("nan"), 0.0]),
        ("sequential", "initial.sigma", [float("inf"), 1.0]),
        ("sequential", "initial.sigma", [float("nan"), 1.0]),
        ("tempering", "target.mean", [float("nan")] + [0.0] * 5),
        ("tempering", "target.cov_diag", [float("inf")] + [1.0] * 5),
        # box bounds that are NaN, or infinite where the box must be finite
        ("uniform", "initial.lower", [float("nan"), 0.0]),
        ("uniform", "initial.upper", [float("inf"), 1.0]),
        ("uniform", "initial.lower", [0.0, -float("inf")]),
        ("uniform", "initial.upper", [-3.0, 1.0]),  # not above initial.lower
        ("sequential", "sequence.constraints.lower", [float("nan"), -2.5]),
        ("sequential", "sequence.constraints.upper", [2.5, float("nan")]),
        ("sequential", "sequence.constraints.upper", [-3.0, 2.5]),  # not above lower
        # a quoted count, which the library's configs reject too
        ("sequential", "particles", "16"),
        ("chain", "iterations", "5"),
    ])
    def test_bad_value_named(self, tmp_path, capsys, recipe, field, value):
        if recipe in ("sequential", "uniform"):
            mapping = strict_recipe(tmp_path)
            if recipe == "uniform":
                mapping["initial"] = {"lower": [-2.5, -2.5], "upper": [2.5, 2.5]}
        elif recipe == "tempering":
            mapping = annealing_recipe()
            mapping["sequence"] = {"kind": "tempering", "phis": [0.5, 1.0]}
        else:
            mapping = chain_recipe("mh" if recipe == "mh-chain" else "hmc")
        if recipe == "logit-chain":
            mapping["target"] = {"name": "logit", "data": "logit.csv"}
        set_field(mapping, field, value)
        path = write_config(tmp_path / "c.yaml", mapping)
        assert_rejected_before_output(tmp_path, path, capsys, field)

    @pytest.mark.parametrize("lower, upper, field", [
        ([0.0], [1.0], "grid.lower"),
        ([-4.0, -2.0], [4.0], "grid.upper"),
        ([-4.0, -2.0, 0.0], [4.0, 8.0, 1.0], "grid.lower"),
        ([4.0, -2.0], [-4.0, 8.0], "grid.upper"),
        ([-4.0, 8.0], [4.0, 8.0], "grid.upper"),
        ([-np.inf, -2.0], [4.0, 8.0], "grid.lower"),
    ])
    def test_bad_grid_bounds_named(self, tmp_path, capsys, lower, upper, field):
        mapping = chain_recipe()
        mapping["grid"] = {"lower": lower, "upper": upper}
        path = write_config(tmp_path / "c.yaml", mapping)
        assert_rejected_before_output(tmp_path, path, capsys, field)

    @staticmethod
    def logit_recipe(section, data_path):
        if section == "target":
            mapping = chain_recipe()
            mapping["target"] = {"name": "logit", "data": str(data_path)}
            return mapping
        return {
            "algorithm": "smc", "seed": 1, "output": "out", "particles": 16,
            "kernel": {"type": "mh", "proposal_scale": 0.2},
            "initial": {"mean": [0.0, 0.0], "sigma": [1.0, 1.0]},
            "sequence": {"kind": "loglik-blocks", "data": str(data_path), "block_size": 1},
        }

    @pytest.mark.parametrize("section", ["target", "sequence"])
    def test_bad_logit_data_named(self, tmp_path, capsys, section):
        data_path = tmp_path / "logit.csv"
        data_path.write_text("x,choice\n1.5,1\n2.5,7\n")
        path = write_config(tmp_path / "c.yaml", self.logit_recipe(section, data_path))
        assert_rejected_before_output(tmp_path, path, capsys, f"{section}.data")

    @pytest.mark.parametrize("section", ["target", "sequence"])
    def test_blank_logit_offer_named(self, tmp_path, capsys, section):
        # a blank cell reads as NaN, which no range check catches
        data_path = tmp_path / "logit.csv"
        data_path.write_text("x,choice\n1.5,1\n,0\n2.5,1\n")
        path = write_config(tmp_path / "c.yaml", self.logit_recipe(section, data_path))
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{section}.data: {data_path}: data row 2: x is not finite" in err
        assert not (tmp_path / "out").exists()

    # point-file cases keep bare ids; logit cases carry their dataset and section
    @pytest.mark.parametrize("dataset, edit", [
        pytest.param(dataset, edit, id={"missing column": "no y column"}.get(edit, edit)
                     if dataset == "points" else f"{dataset}-{edit}")
        for dataset in ("points", "logit-target", "logit-sequence")
        for edit in ("missing column", "ragged", "header only", "empty file", "blank", "text",
                     "inf")
    ])
    def test_bad_point_data_named(self, tmp_path, capsys, dataset, edit):
        # both dataset kinds go through one reader, with the same checks
        if dataset == "points":
            section, mapping = "sequence", strict_recipe(tmp_path)
            data_path = Path(mapping["sequence"]["data"])
        else:
            section, data_path = dataset.split("-")[1], tmp_path / "logit.csv"
            generate_data("logit", 100, 3, data_path)
            mapping = self.logit_recipe(section, data_path)
        lines = data_path.read_text().splitlines()
        column = lines[0].split(",")[1]
        x, _ = lines[7].split(",")
        if edit == "missing column":
            lines[0] = "x,z"
            problem = f"no field of name {column}"
        elif edit == "ragged":
            lines[7] += ",1"
            problem = "Line #8 (got 3 columns instead of 2)"
        elif edit == "header only":
            del lines[1:]
            problem = "no data rows"
        elif edit == "empty file":
            lines = None
            problem = "no header row"
        else:
            lines[7] = f"{x},{dict(blank='', text='abc', inf='inf')[edit]}"
            problem = f"data row 7: {column} is not finite"
        data_path.write_text("" if lines is None else "\n".join(lines) + "\n")
        path = write_config(tmp_path / "c.yaml", mapping)
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{section}.data: {data_path}: " in err and problem in err
        assert not (tmp_path / "out").exists()

    def test_integral_numbers_accepted(self, tmp_path):
        mapping = chain_recipe()
        mapping.update(seed=3.0, iterations=20.0)
        mapping["kernel"]["mass_diag"] = 2.0
        config = parse_config(write_config(tmp_path / "c.yaml", mapping))
        assert (config.seed, config.iterations) == (3, 20)
        assert type(config.seed) is int

    def test_record_all_must_be_boolean(self, tmp_path, capsys):
        mapping = strict_recipe(tmp_path)
        mapping["record_all"] = "false"
        path = write_config(tmp_path / "c.yaml", mapping)
        assert_rejected_before_output(tmp_path, path, capsys, "record_all")

    def test_grid_checked_before_the_run(self, tmp_path, capsys):
        path = write_config(tmp_path / "mh.yaml", {
            "algorithm": "mh", "seed": 5, "output": "out", "iterations": 100,
            "kernel": {"type": "mh", "proposal_scale": 0.2},
            "target": {"name": "rosenbrock"},
            "grid": {"resolution": 1, "lower": [-4.0, -2.0], "upper": [4.0, 8.0]},
        })
        assert_rejected_before_output(tmp_path, path, capsys, "grid.resolution")

    def test_shipped_recipes_validate(self, tmp_path):
        for kind, n, seed in (("smiley", 2048, 2024), ("dropwave", 4096, 31), ("logit", 400, 0)):
            assert generate_data(kind, n, seed, tmp_path / "data" / f"{kind}.csv") == 0
        recipes = sorted((Path(__file__).resolve().parents[1] / "experiments").glob("*.yaml"))
        assert recipes
        (tmp_path / "experiments").mkdir()
        for recipe in recipes:
            # same layout as the repository, so ../data and ../out resolve under tmp_path
            copy = tmp_path / "experiments" / recipe.name
            copy.write_text(recipe.read_text())
            config = parse_config(copy)
            assert config.output.parent.resolve() == (tmp_path / "out").resolve()


class TestGenerateData:
    def test_smiley_rows(self, tmp_path):
        out = tmp_path / "smiley.csv"
        assert generate_data("smiley", 256, 9, out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y"
        assert len(lines) == 257

    def test_dropwave_inside_box(self, tmp_path):
        out = tmp_path / "drop.csv"
        generate_data("dropwave", 128, 9, out)
        rows = np.genfromtxt(out, delimiter=",", names=True)
        assert rows["x"].min() >= -2.5 and rows["x"].max() <= 2.5
        assert rows["y"].min() >= -2.5 and rows["y"].max() <= 2.5

    def test_logit_format(self, tmp_path):
        out = tmp_path / "logit.csv"
        generate_data("logit", 400, 0, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "x,choice"
        assert len(lines) == 401

    def test_logit_round_trip(self, tmp_path):
        out = tmp_path / "logit.csv"
        assert generate_data("logit", 25, 2, out) == 0
        offers, choices = _read_columns(out, ("x", "choice"), "target.data").T
        data = simulate_logit_data(25, (3.0, 3.0), RandomSource(2))
        np.testing.assert_array_equal(offers, data.offers)
        np.testing.assert_array_equal(choices, data.choices)

    def test_invalid_count(self, tmp_path):
        with pytest.raises(ConfigError, match="n"):
            generate_data("smiley", 0, 1, tmp_path / "x.csv")
        for n in (2.5, True, "32"):
            with pytest.raises(ConfigError, match="n must be an integer"):
                generate_data("smiley", n, 1, tmp_path / "x.csv")
        assert not (tmp_path / "x.csv").exists()

    def test_cli_entrypoint(self, tmp_path):
        out = tmp_path / "gen.csv"
        assert main(["gen-data", "smiley", "32", "5", str(out)]) == 0
        assert out.exists()
        assert main(["gen-data", "smiley", "0", "5", str(out)]) == 1

    def test_seed_beyond_64_bits_rejected(self, tmp_path, capsys):
        out = tmp_path / "data" / "x.csv"
        assert main(["gen-data", "smiley", "10", str(2**64), str(out)]) == 1
        assert "seed" in capsys.readouterr().err
        assert not out.parent.exists()


class TestRunOutputs:
    def test_run_writes_outputs_and_is_deterministic(self, tmp_path):
        path = tiny_run_config(tmp_path)
        config = parse_config(path)
        assert run(config) == 0
        outdir = tmp_path / "out"
        first = {
            name: (outdir / name).read_bytes()
            for name in ("particles.csv", "report.json", "grid.csv")
        }
        assert run(config) == 0
        for name, blob in first.items():
            assert (outdir / name).read_bytes() == blob, name

    def test_threads_do_not_change_bytes(self, tmp_path):
        path = tiny_run_config(tmp_path)
        config = parse_config(path)
        names = ("particles.csv", "grid.csv")
        run(config)
        baseline = [(tmp_path / "out" / name).read_bytes() for name in names]
        run(replace(config, threads=4))
        assert [(tmp_path / "out" / name).read_bytes() for name in names] == baseline

    @pytest.mark.parametrize("kind", ["kde", "logit"])
    def test_one_group_bytes_do_not_depend_on_threads(self, tmp_path, kind):
        # one group on two or three threads cuts each mutation's rows, and
        # the grid's, into two or three chunks; the last stage's 1000 KDE
        # points make the row step 131, which even halves and thirds of 400
        # particles would miss
        data_path = tmp_path / "data.csv"
        if kind == "kde":
            generate_data("smiley", 1000, 2024, data_path)
            path = smiley_style_config(
                tmp_path, data_path, groups=1, particles=400, record_all=True,
                sequence={"kind": "kde-blocks", "data": str(data_path), "block_size": 250},
            )
        else:
            generate_data("logit", 200, 0, data_path)
            path = write_config(tmp_path / "config.yaml", {
                "algorithm": "hsmc", "seed": 3, "output": "out", "particles": 384,
                "mutation_steps": 2, "record_all": True,
                "kernel": {"type": "hmc", "step_size": 0.05, "leapfrog_steps": 5},
                "initial": {"mean": [2.0, 1.0], "sigma": [4.0, 4.0]},
                "sequence": {"kind": "loglik-blocks", "data": str(data_path),
                             "block_size": 100},
            })
        config = parse_config(path)
        outputs = set()
        for threads in (1, 2, 3):
            assert run(replace(config, threads=threads)) == 0
            outputs.add(tuple((tmp_path / "out" / name).read_bytes()
                              for name in ("report.json", "particles.csv", "grid.csv")))
        assert len(outputs) == 1

    def test_grid_beyond_the_box_does_not_depend_on_threads(self, tmp_path):
        data_path = tmp_path / "drop.csv"
        generate_data("dropwave", 200, 4, data_path)
        path = write_config(tmp_path / "c.yaml", {
            "algorithm": "hsmc", "seed": 3, "output": "out", "particles": 32,
            "kernel": {"type": "hmc", "step_size": 0.05, "leapfrog_steps": 5},
            "initial": {"mean": [0.0, 0.0], "sigma": [1.0, 1.0]},
            "sequence": {"kind": "kde-blocks", "data": str(data_path), "block_size": 100,
                         "constraints": {"lower": [-2.5, -2.5], "upper": [2.5, 2.5]}},
            "grid": {"lower": [-4.0, -4.0], "upper": [4.0, 4.0]},
        })
        config = parse_config(path)
        grids = set()
        for threads in (1, 2, 3):
            assert run(replace(config, threads=threads)) == 0
            grids.add((tmp_path / "out" / "grid.csv").read_bytes())
        assert len(grids) == 1
        grid = np.genfromtxt(tmp_path / "out" / "grid.csv", delimiter=",", names=True)
        inside = (np.abs(grid["x"]) <= 2.5) & (np.abs(grid["y"]) <= 2.5)
        assert np.all(grid["log_f"][~inside] == -np.inf)
        assert np.all(np.isfinite(grid["log_f"][inside]))
        assert 0 < inside.sum() < len(grid)

    def test_threads_default_to_the_usable_cores(self, tmp_path):
        config = parse_config(tiny_run_config(tmp_path))
        assert config.threads == len(os.sched_getaffinity(0))
        assert parse_config(tiny_run_config(tmp_path, threads=1)).threads == 1

    def test_blas_threads_do_not_change_bytes(self, tmp_path):
        # 512 particles against 1000 points: a whole-array kernel sum of this
        # size would be split across the BLAS thread pool
        data_path = tmp_path / "smiley.csv"
        generate_data("smiley", 1000, 2024, data_path)
        path = smiley_style_config(
            tmp_path, data_path, seed=2025, groups=2,
            kernel={"type": "hmc", "step_size": 0.05, "leapfrog_steps": 5},
            sequence={"kind": "kde-blocks", "data": str(data_path), "block_size": 500},
        )
        reports = []
        for blas_threads, threads in (("1", 1), ("2", 2)):
            proc = cli_process(
                "run", path, "--threads", threads, OPENBLAS_NUM_THREADS=blas_threads,
                GOTO_NUM_THREADS=None, OMP_NUM_THREADS=None,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            reports.append((tmp_path / "out" / "report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_zero_threads_flag_named(self, tmp_path, capsys):
        path = tiny_run_config(tmp_path)
        assert main(["run", str(path), "--threads", "0"]) == 1
        assert "--threads must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_final_only_rows_by_default(self, tmp_path):
        path = tiny_run_config(tmp_path)
        run(parse_config(path))
        lines = (tmp_path / "out" / "particles.csv").read_text().splitlines()
        # header + final iteration of both groups
        assert len(lines) == 1 + 2 * 16
        assert lines[0] == "group,iteration,particle_id,x0,x1,weight,accepted"

    def test_record_all_row_count(self, tmp_path):
        path = tiny_run_config(tmp_path)
        config = replace(parse_config(path), record_all=True)
        run(config)
        lines = (tmp_path / "out" / "particles.csv").read_text().splitlines()
        # J * (T + 1) * N rows: 80 points in blocks of 40 gives T=2
        assert len(lines) == 1 + 2 * 3 * 16

    def test_report_schema_and_rows(self, tmp_path):
        path = tiny_run_config(tmp_path)
        run(parse_config(path))
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        jsonschema.validate(report, REPORT_SCHEMA)
        keys = {(r["group"], r["iteration"]) for r in report["rows"]}
        assert keys == {(g, t) for g in range(2) for t in (1, 2)}
        assert report["group_divergence"] is not None

    def test_grid_covers_constraint_box(self, tmp_path):
        data_path = tmp_path / "drop.csv"
        generate_data("dropwave", 200, 4, data_path)
        path = write_config(tmp_path / "c.yaml", {
            "algorithm": "hsmc", "seed": 3, "output": "out",
            "particles": 32, "groups": 1, "mutation_steps": 1,
            "kernel": {"type": "hmc", "step_size": 0.05, "leapfrog_steps": 5},
            "initial": {"mean": [0.0, 0.0], "sigma": [2.0, 2.0]},
            "sequence": {"kind": "kde-blocks", "data": str(data_path),
                         "block_size": 100,
                         "constraints": {"lower": [-2.5, -2.5], "upper": [2.5, 2.5]}},
        })
        run(parse_config(path))
        grid = np.genfromtxt(tmp_path / "out" / "grid.csv", delimiter=",", names=True)
        assert len(grid) == 101 * 101
        assert grid["x"].min() == -2.5 and grid["x"].max() == 2.5
        assert grid["y"].min() == -2.5 and grid["y"].max() == 2.5

    def test_mcmc_run_row_count(self, tmp_path):
        path = write_config(tmp_path / "mh.yaml", {
            "algorithm": "mh", "seed": 5, "output": "out",
            "iterations": 50, "groups": 2, "start": [0.0, 0.0],
            "kernel": {"type": "mh", "proposal_scale": 0.2},
            "target": {"name": "rosenbrock"},
        })
        assert run(parse_config(path)) == 0
        lines = (tmp_path / "out" / "particles.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 51  # header + (iterations + start) per chain

    def test_mcmc_report_rows_weigh_states_equally(self, tmp_path):
        iterations = 50
        path = write_config(tmp_path / "mh.yaml", {
            "algorithm": "mh", "seed": 5, "output": "out",
            "iterations": iterations, "groups": 2, "start": [0.0, 0.0],
            "kernel": {"type": "mh", "proposal_scale": 0.2},
            "target": {"name": "rosenbrock"},
        })
        assert run(parse_config(path)) == 0
        table = np.genfromtxt(tmp_path / "out" / "particles.csv", delimiter=",", names=True)
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [row["group"] for row in report["rows"]] == [0, 1]
        for row in report["rows"]:
            chain = np.column_stack([table["x0"], table["x1"]])[table["group"] == row["group"]]
            assert len(chain) == iterations + 1
            assert row["ess"] == float(iterations + 1)
            assert row["weight_min"] == row["weight_max"] == 1 / (iterations + 1)
            assert row["mean"] == chain.mean(axis=0).tolist()
            assert row["cov_diag"] == chain.var(axis=0).tolist()

    def test_chain_grid_runs_on_one_thread(self, tmp_path, monkeypatch):
        # a chain run reads no threads field and takes no --threads flag
        seen = []

        def recording(target, points, threads):
            seen.append(threads)
            return target.log_f(points)

        monkeypatch.setattr(cli, "_grid_log_f", recording)
        config = parse_config(write_config(tmp_path / "c.yaml", chain_recipe("mh")))
        assert config.threads == 1
        assert run(config) == 0
        assert seen == [1]

    @staticmethod
    def degenerate_config(tmp_path):
        data_path = tmp_path / "points.csv"
        generate_data("dropwave", 100, 3, data_path)
        return write_config(tmp_path / "c.yaml", {
            "algorithm": "smc", "seed": 1, "output": "out",
            "particles": 16, "groups": 1, "mutation_steps": 1,
            "kernel": {"type": "mh", "proposal_scale": 0.1},
            # the initial cloud sits far outside the constrained support
            "initial": {"mean": [500.0, 500.0], "sigma": [0.1, 0.1]},
            "sequence": {"kind": "kde-blocks", "data": str(data_path),
                         "block_size": 100,
                         "constraints": {"lower": [-2.5, -2.5], "upper": [2.5, 2.5]}},
        })

    def test_degenerate_weights_exit_code(self, tmp_path, capsys):
        status = run(parse_config(self.degenerate_config(tmp_path)))
        assert status == 2
        assert "stage 1" in capsys.readouterr().err

    def test_degenerate_weights_message_printed_once(self, tmp_path, capsys):
        assert main(["run", str(self.degenerate_config(tmp_path))]) == 2
        assert capsys.readouterr().err.count("degenerate weights at stage") == 1

    def test_missing_logit_data_main_exit(self, tmp_path):
        path = write_config(tmp_path / "c.yaml", {
            "algorithm": "hmc", "seed": 1, "output": "out", "iterations": 10,
            "kernel": {"type": "hmc", "step_size": 0.05, "leapfrog_steps": 5},
            "target": {"name": "logit", "data": str(tmp_path / "missing.csv")},
        })
        assert main(["run", str(path)]) == 1


def csv_writer_bytes(path, header, rows) -> bytes:
    """What ``csv.writer`` writes for ``rows``, the reference of the column writer."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


class TestColumnWriter:
    SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-7, 0.1, 2.0**70]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_particles_match_csv_writer(self, tmp_path, dim):
        rng = np.random.default_rng(dim)
        n = 1300  # three batches, the last one partial
        coords = rng.standard_normal(n * dim) * 10.0 ** rng.integers(-300, 300, n * dim)
        coords[: len(self.SPECIAL)] = self.SPECIAL
        positions = rng.permutation(coords).reshape(n, dim)
        big = np.iinfo(np.int64)
        group = rng.integers(0, 5, n)
        iteration = rng.integers(big.min, big.max, n)
        iteration[:2] = big.min, big.max
        particle_id = np.arange(n) * 2**40
        accepted = rng.random(n) < 0.5

        _write_particles(tmp_path / "p.csv", group, iteration, particle_id, positions, accepted)
        header = ["group", "iteration", "particle_id", *(f"x{d}" for d in range(dim)),
                  "weight", "accepted"]
        rows = [
            [int(g), int(t), int(i)] + [repr(float(c)) for c in row] + ["1.0", int(a)]
            for g, t, i, row, a in zip(group, iteration, particle_id, positions, accepted)
        ]
        expected = csv_writer_bytes(tmp_path / "ref.csv", header, rows)
        assert (tmp_path / "p.csv").read_bytes() == expected

    def test_grid_matches_csv_writer(self, tmp_path):
        target = dropwave()
        lower, upper = np.array([-4.0, -3.0]), np.array([3.5, 4.0])
        _write_grid(tmp_path / "g.csv", target, lower, upper, 41, threads=3)
        gx, gy = np.meshgrid(np.linspace(-4.0, 3.5, 41), np.linspace(-3.0, 4.0, 41),
                             indexing="ij")
        points = np.column_stack([gx.ravel(), gy.ravel()])
        rows = [[repr(float(v)) for v in (x, y, f)]
                for (x, y), f in zip(points, target.log_f(points))]
        expected = csv_writer_bytes(tmp_path / "ref.csv", ["x", "y", "log_f"], rows)
        assert (tmp_path / "g.csv").read_bytes() == expected

    @pytest.mark.parametrize("threads", [1, 2, 3, 4])
    def test_grid_chunks_keep_the_bits_of_one_call(self, threads):
        # 1000 points make blocks of 128 rows, and the chunks of 101 x 101
        # grid points are cut on no block edge; the grid reaches rows about
        # 130 bandwidths beyond every point
        target = kde_target(np.random.default_rng(4).standard_normal((1000, 2)), [0.2, 0.3])
        gx, gy = np.meshgrid(np.linspace(-4.0, 40.0, 101), np.linspace(-4.0, 40.0, 101))
        points = np.column_stack([gx.ravel(), gy.ravel()])
        np.testing.assert_array_equal(_grid_log_f(target, points, threads),
                                      target.log_f(points))

    @pytest.mark.parametrize("kind", ["smiley", "logit"])
    def test_dataset_matches_csv_writer(self, tmp_path, kind):
        assert generate_data(kind, 700, 5, tmp_path / "d.csv") == 0
        if kind == "smiley":
            header = ["x", "y"]
            points = sample_smiley_data(700, RandomSource(5))
            rows = [[repr(float(x)), repr(float(y))] for x, y in points]
        else:
            header = ["x", "choice"]
            data = simulate_logit_data(700, (3.0, 3.0), RandomSource(5))
            rows = [[repr(float(x)), int(c)] for x, c in zip(data.offers, data.choices)]
        expected = csv_writer_bytes(tmp_path / "ref.csv", header, rows)
        assert (tmp_path / "d.csv").read_bytes() == expected


def report_field_by_field(config, report) -> bytes:
    """report.json built one field at a time, the reference of the dataclass dump."""
    rows = [
        {
            "group": r.group,
            "iteration": r.iteration,
            "acceptance_count": r.acceptance_count,
            "ess": float(r.ess),
            "weight_min": float(r.weight_min),
            "weight_max": float(r.weight_max),
            "mean": [float(v) for v in r.mean],
            "cov_diag": [float(v) for v in r.cov_diag],
        }
        for r in report.rows
    ]
    document = {
        "algorithm": config.algorithm,
        "seed": config.seed,
        "n_particles": report.n_particles,
        "n_groups": report.n_groups,
        "n_iterations": report.n_iterations,
        "rows": rows,
        "group_divergence": compare_groups(report) if report.n_groups >= 2 else None,
    }
    return (json.dumps(document, indent=2) + "\n").encode()


class TestReportWriter:
    @pytest.mark.parametrize("recipe", ["sequential", "chain"])
    def test_report_matches_field_by_field(self, tmp_path, monkeypatch, recipe):
        if recipe == "sequential":
            path = tiny_run_config(tmp_path)
        else:
            mapping = chain_recipe("mh")
            mapping["groups"] = 2
            path = write_config(tmp_path / "c.yaml", mapping)
        reports = []
        write_outputs = cli._write_outputs

        def recording(config, target, particles, report, cloud):
            reports.append(report)
            write_outputs(config, target, particles, report, cloud)

        monkeypatch.setattr(cli, "_write_outputs", recording)
        config = parse_config(path)
        assert run(config) == 0
        [report] = reports
        assert report.n_groups == 2
        expected = report_field_by_field(config, report)
        assert (tmp_path / "out" / "report.json").read_bytes() == expected


class TestInstalledEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "d.csv"
        proc = cli_process("gen-data", "dropwave", 16, 2, out)
        assert proc.returncode == 0
        assert out.exists()

    @pytest.mark.parametrize("env, blas_threads", [
        ({}, "1"),
        ({"OPENBLAS_NUM_THREADS": "3"}, "3"),
        ({"GOTO_NUM_THREADS": "3"}, None),
        ({"OMP_NUM_THREADS": "3"}, None),
    ])
    def test_import_keeps_blas_on_the_calling_thread(self, env, blas_threads):
        # hsmc's groups run on its own pool, so unless the user set a BLAS
        # thread variable, importing hsmc before numpy caps OpenBLAS at the
        # calling thread and starts no worker thread
        proc = python_process(
            "-c", "import json, os, hsmc; print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'),"
            " os.path.isdir('/proc/self/task') and len(os.listdir('/proc/self/task'))]))",
            **{"OPENBLAS_NUM_THREADS": None, "GOTO_NUM_THREADS": None, "OMP_NUM_THREADS": None,
               **env},
        )
        assert proc.returncode == 0, proc.stderr.decode()
        value, tasks = json.loads(proc.stdout)
        assert value == blas_threads
        if not env and sys.platform.startswith("linux"):
            assert tasks == 1
