import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import yaml

import hsmc
from hsmc.cli import ConfigError, generate_data, main, parse_config, run

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


def cli_process(*args, **env):
    """Run ``python -m hsmc.cli`` with this checkout's package and ``env`` overrides.

    A None value removes the variable from the environment.
    """
    environ = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    for key, value in env.items():
        environ.pop(key, None)
        if value is not None:
            environ[key] = value
    return subprocess.run(
        [sys.executable, "-m", "hsmc.cli", *map(str, args)], capture_output=True, env=environ
    )


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


def strict_recipe(tmp_path):
    """A small hsmc recipe touching every recipe mapping."""
    data_path = tmp_path / "points.csv"
    generate_data("dropwave", 100, 3, data_path)
    return {
        "algorithm": "hsmc", "seed": 1, "output": "out", "particles": 16,
        "kernel": {"type": "hmc", "step_size": 0.05, "leapfrog_steps": 5},
        "target": {"name": "dropwave"},
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
        mapping = strict_recipe(tmp_path)
        set_field(mapping, field, 5)
        path = write_config(tmp_path / "c.yaml", mapping)
        assert_rejected_before_output(tmp_path, path, capsys, field)

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
    ])
    def test_bad_value_named(self, tmp_path, capsys, recipe, field, value):
        if recipe == "sequential":
            mapping = strict_recipe(tmp_path)
        else:
            mapping = chain_recipe("mh" if recipe == "mh-chain" else "hmc")
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

    @pytest.mark.parametrize("section", ["target", "sequence"])
    def test_bad_logit_data_named(self, tmp_path, capsys, section):
        data_path = tmp_path / "logit.csv"
        data_path.write_text("x,choice\n1.5,1\n2.5,7\n")
        if section == "target":
            mapping = chain_recipe()
            mapping["target"] = {"name": "logit", "data": str(data_path)}
        else:
            mapping = {
                "algorithm": "smc", "seed": 1, "output": "out", "particles": 16,
                "kernel": {"type": "mh", "proposal_scale": 0.2},
                "initial": {"mean": [0.0, 0.0], "sigma": [1.0, 1.0]},
                "sequence": {"kind": "loglik-blocks", "data": str(data_path),
                             "block_size": 1},
            }
        path = write_config(tmp_path / "c.yaml", mapping)
        assert_rejected_before_output(tmp_path, path, capsys, f"{section}.data")

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

    def test_invalid_count(self, tmp_path):
        with pytest.raises(ConfigError, match="n"):
            generate_data("smiley", 0, 1, tmp_path / "x.csv")

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
        run(config)
        baseline = (tmp_path / "out" / "particles.csv").read_bytes()
        from dataclasses import replace

        run(replace(config, threads=4))
        assert (tmp_path / "out" / "particles.csv").read_bytes() == baseline

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
        for blas_threads, threads in (("1", 1), (None, 2)):
            proc = cli_process(
                "run", path, "--threads", threads, OPENBLAS_NUM_THREADS=blas_threads,
                GOTO_NUM_THREADS=None, OMP_NUM_THREADS=None, HSMC_THREADS=None,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            reports.append((tmp_path / "out" / "report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_env_var_overrides_threads(self, tmp_path, monkeypatch):
        path = tiny_run_config(tmp_path)
        run(parse_config(path))
        baseline = (tmp_path / "out" / "particles.csv").read_bytes()
        monkeypatch.setenv("HSMC_THREADS", "3")
        assert main(["run", str(path)]) == 0
        assert (tmp_path / "out" / "particles.csv").read_bytes() == baseline

    def test_final_only_rows_by_default(self, tmp_path):
        path = tiny_run_config(tmp_path)
        run(parse_config(path))
        lines = (tmp_path / "out" / "particles.csv").read_text().splitlines()
        # header + final iteration of both groups
        assert len(lines) == 1 + 2 * 16
        assert lines[0] == "group,iteration,particle_id,x0,x1,weight,accepted"

    def test_record_all_row_count(self, tmp_path):
        path = tiny_run_config(tmp_path)
        from dataclasses import replace

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


class TestInstalledEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "d.csv"
        proc = cli_process("gen-data", "dropwave", 16, 2, out)
        assert proc.returncode == 0
        assert out.exists()
