"""Experiment driver.

Subcommands:

* ``run <config.yaml>`` parses a run recipe, executes the requested
  algorithm (mh, hmc, smc or hsmc) and writes ``particles.csv``,
  ``report.json`` and, for 2-d targets, ``grid.csv`` into the output
  directory.
* ``gen-data <kind> <n> <seed> <out>`` writes benchmark datasets.

Outputs contain no timestamps and floats are written with full
round-trip precision, so identical configs and seeds produce
byte-identical files regardless of ``--threads``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from .core import BoxConstraints, DegenerateWeightsError, RandomSource, TargetDensity
from .kernels import HmcConfig, MhConfig, hmc_step, mh_step
from .smc import (
    InitialDistribution,
    IterationRecord,
    RunReport,
    SmcConfig,
    annealing_sequence,
    blockwise_sequence,
    compare_groups,
    diag_gaussian_initial,
    run_smc,
    tempering_sequence,
    uniform_box_initial,
)
from .targets import (
    LogitData,
    dropwave,
    gaussian,
    rosenbrock,
    sample_dropwave_data,
    sample_smiley_data,
    simulate_logit_data,
    smiley,
    nonlinear_logit_loglik,
)

__all__ = ["RunConfig", "ConfigError", "parse_config", "run", "generate_data", "main"]

ALGORITHMS = ("mh", "hmc", "smc", "hsmc")
DATA_KINDS = ("smiley", "dropwave", "logit")
GRID_RESOLUTION = 101

# fields each recipe mapping may hold, per value of its type/name/kind tag
TOP_LEVEL_KEYS = (
    "algorithm", "seed", "output", "kernel", "threads", "record_all", "resampling",
    "target", "sequence", "initial", "grid", "iterations", "groups", "start",
    "particles", "mutation_steps",
)
KERNEL_KEYS = {"hmc": ("mass_diag", "leapfrog_steps", "step_size"), "mh": ("proposal_scale",)}
TARGET_KEYS = {"rosenbrock": (), "smiley": (), "dropwave": (),
               "gaussian": ("mean", "cov_diag"), "logit": ("data",)}
SEQUENCE_KEYS = {
    "kde-blocks": ("data", "block_size", "constraints"),
    "loglik-blocks": ("data", "block_size"),
    "tempering": ("phis",),
    "annealing": ("gammas",),
}


class ConfigError(ValueError):
    """A run configuration violates a contract; the message names the field."""


@dataclass(frozen=True)
class RunConfig:
    """Validated run recipe; see the repository README for the file format."""

    algorithm: str
    seed: int
    output: Path
    base_dir: Path
    kernel: HmcConfig | MhConfig
    n_particles: int = 0
    n_groups: int = 1
    mutation_steps: int = 1
    iterations: int = 0
    resampling: str = "multinomial"
    threads: int = 1
    record_all: bool = False
    start: tuple[float, ...] | None = None
    target_spec: dict | None = None
    sequence_spec: dict | None = None
    initial_spec: dict | None = None
    grid_spec: dict | None = None

    @property
    def weight_mode(self) -> str:
        return "loo_kde_ratio" if self.algorithm == "hsmc" else "theoretical_ratio"


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"{context}{key}: missing required field")
    return mapping[key]


def _check_keys(spec, allowed, context: str) -> dict:
    """``spec`` itself, once it is a mapping holding only ``allowed`` fields."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{context[:-1]}: expected a mapping")
    for key in spec:
        if key not in allowed:
            raise ConfigError(f"{context}{key}: unknown field")
    return spec


def _tagged(spec, context: str, tag: str, fields: dict):
    """Validate a mapping whose allowed fields depend on its ``tag`` value."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{context[:-1]}: expected a mapping")
    value = _require(spec, tag, context)
    if not isinstance(value, str) or value not in fields:
        raise ConfigError(f"{context}{tag}: unknown {tag} {value!r}")
    _check_keys(spec, (tag,) + fields[value], context)
    return value


def _as_int(value, field: str, minimum: int | None = None) -> int:
    # YAML reads `true` as a bool, which int() would take as 1, and `2.7` as
    # a float, which int() would truncate; only integral values pass
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    try:
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            raise ValueError
        out = int(value)
    except ValueError:
        raise ConfigError(f"{field}: expected an integer, got {value!r}") from None
    if minimum is not None and out < minimum:
        raise ConfigError(f"{field}: must be at least {minimum}")
    return out


def _as_seed(value) -> int:
    seed = _as_int(value, "seed", minimum=0)
    if seed >= 2**64:
        raise ConfigError(f"seed: must be at most 2**64 - 1, got {seed}")
    return seed


def _as_float(value, field: str) -> float:
    # float() would take YAML's `true` as 1.0
    try:
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise ValueError
        return float(value)
    except ValueError:
        raise ConfigError(f"{field}: expected a number, got {value!r}") from None


def _as_vector(value, field: str) -> np.ndarray:
    try:
        # np.asarray would take YAML's `true` as 1.0
        if any(isinstance(v, bool) for v in (value if isinstance(value, list) else [value])):
            raise ValueError
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{field}: expected a list of numbers") from None
    if arr.ndim != 1 or arr.size == 0:
        raise ConfigError(f"{field}: expected a nonempty list of numbers")
    return arr


def _build_kernel(spec, context: str = "kernel.") -> HmcConfig | MhConfig:
    ktype = _tagged(spec, context, "type", KERNEL_KEYS)
    try:
        if ktype == "hmc":
            mass = spec.get("mass_diag", 1.0)
            mass_field = context + "mass_diag"
            return HmcConfig(
                mass_diag=_as_vector(mass, mass_field) if isinstance(mass, list)
                else _as_float(mass, mass_field),
                leapfrog_steps=_as_int(spec.get("leapfrog_steps", 20), context + "leapfrog_steps"),
                step_size=_as_float(spec.get("step_size", 0.05), context + "step_size"),
            )
        return MhConfig(
            proposal_scale=_as_float(spec.get("proposal_scale", 1.0), context + "proposal_scale")
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{context}{err}") from err


def parse_config(path) -> RunConfig:
    """Read and validate a YAML run recipe.

    Contract violations raise :class:`ConfigError` naming the offending
    field; a missing file raises FileNotFoundError.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"config file not found: {path}")
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a mapping at the top level")
    _check_keys(raw, TOP_LEVEL_KEYS, "")
    base_dir = path.parent

    algorithm = _require(raw, "algorithm", "")
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"algorithm: unknown algorithm {algorithm!r}")
    seed = _as_seed(_require(raw, "seed", ""))
    output = Path(_require(raw, "output", ""))
    if not output.is_absolute():
        output = base_dir / output
    kernel = _build_kernel(_require(raw, "kernel", ""))

    threads = _as_int(raw.get("threads", 1), "threads", minimum=1)
    record_all = raw.get("record_all", False)
    if not isinstance(record_all, bool):
        raise ConfigError(f"record_all: expected true or false, got {record_all!r}")
    resampling = raw.get("resampling", "multinomial")
    if resampling not in ("multinomial", "systematic"):
        raise ConfigError(f"resampling: unknown scheme {resampling!r}")

    target_spec = raw.get("target")
    sequence_spec = raw.get("sequence")
    initial_spec = raw.get("initial")
    grid_spec = raw.get("grid")
    _grid_override(grid_spec)

    if algorithm in ("mh", "hmc"):
        if target_spec is None:
            raise ConfigError("target: required for mh/hmc runs")
        iterations = _as_int(_require(raw, "iterations", ""), "iterations", minimum=1)
        n_groups = _as_int(raw.get("groups", 1), "groups", minimum=1)
        n_particles = 0
        mutation_steps = 1
        start = raw.get("start")
        start = tuple(float(v) for v in _as_vector(start, "start")) if start is not None else None
        if isinstance(kernel, MhConfig) and algorithm == "hmc":
            raise ConfigError("kernel.type: hmc runs need an hmc kernel")
        if isinstance(kernel, HmcConfig) and algorithm == "mh":
            raise ConfigError("kernel.type: mh runs need an mh kernel")
    else:
        if sequence_spec is None:
            raise ConfigError("sequence: required for smc/hsmc runs")
        if initial_spec is None:
            raise ConfigError("initial: required for smc/hsmc runs")
        iterations = 0
        start = None
        n_particles = _as_int(_require(raw, "particles", ""), "particles", minimum=2)
        n_groups = _as_int(raw.get("groups", 1), "groups", minimum=1)
        mutation_steps = _as_int(raw.get("mutation_steps", 1), "mutation_steps", minimum=1)

    config = RunConfig(
        algorithm=algorithm,
        seed=seed,
        output=output,
        base_dir=base_dir,
        kernel=kernel,
        n_particles=n_particles,
        n_groups=n_groups,
        mutation_steps=mutation_steps,
        iterations=iterations,
        resampling=resampling,
        threads=threads,
        record_all=record_all,
        start=start,
        target_spec=target_spec,
        sequence_spec=sequence_spec,
        initial_spec=initial_spec,
        grid_spec=grid_spec,
    )
    # fail fast on malformed specs, missing data files and a mass that does
    # not fit the dimension of what the run samples
    dim = None
    if target_spec is not None:
        dim = _build_target(config).dim
    if sequence_spec is not None:
        sequence = _build_sequence(config)
        if algorithm in ("smc", "hsmc"):
            dim = sequence.dim
    elif initial_spec is not None:
        _build_initial(config)
    if isinstance(kernel, HmcConfig):
        try:
            kernel.mass_for(dim)
        except ValueError as err:
            raise ConfigError(f"kernel.{err}") from err
    return config


def _resolve_data_path(config: RunConfig, value, field: str) -> Path:
    data_path = Path(value)
    if not data_path.is_absolute():
        data_path = config.base_dir / data_path
    if not data_path.is_file():
        raise ConfigError(f"{field}: data file not found: {data_path}")
    return data_path


def _read_logit_data(path: Path, field: str) -> LogitData:
    try:
        return LogitData.from_csv(path)
    except ValueError as err:
        raise ConfigError(f"{field}: {path}: {err}") from err


def _build_target(config: RunConfig) -> TargetDensity:
    spec = config.target_spec
    name = _tagged(spec, "target.", "name", TARGET_KEYS)
    if name == "rosenbrock":
        return rosenbrock()
    if name == "smiley":
        return smiley()
    if name == "dropwave":
        return dropwave()
    if name == "gaussian":
        mean = _as_vector(_require(spec, "mean", "target."), "target.mean")
        cov = _as_vector(_require(spec, "cov_diag", "target."), "target.cov_diag")
        try:
            return gaussian(mean, cov)
        except ValueError as err:
            raise ConfigError(f"target.cov_diag: {err}") from err
    data_path = _resolve_data_path(config, _require(spec, "data", "target."), "target.data")
    return nonlinear_logit_loglik(_read_logit_data(data_path, "target.data"))


def _build_initial(config: RunConfig) -> InitialDistribution:
    spec = config.initial_spec
    gaussian_form = isinstance(spec, dict) and "mean" in spec
    _check_keys(spec, ("mean", "sigma") if gaussian_form else ("lower", "upper"), "initial.")
    try:
        if gaussian_form:
            return diag_gaussian_initial(
                _as_vector(_require(spec, "mean", "initial."), "initial.mean"),
                _as_vector(_require(spec, "sigma", "initial."), "initial.sigma"),
            )
        if "lower" in spec:
            return uniform_box_initial(
                _as_vector(spec["lower"], "initial.lower"),
                _as_vector(_require(spec, "upper", "initial."), "initial.upper"),
            )
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"initial: {err}") from err
    raise ConfigError("initial: expected either mean/sigma or lower/upper")


def _build_sequence(config: RunConfig):
    spec = config.sequence_spec
    kind = _tagged(spec, "sequence.", "kind", SEQUENCE_KEYS)
    initial = _build_initial(config)
    try:
        if kind in ("kde-blocks", "loglik-blocks"):
            data = _require(spec, "data", "sequence.")
            data_path = _resolve_data_path(config, data, "sequence.data")
            block_size = _require(spec, "block_size", "sequence.")
            block_size = _as_int(block_size, "sequence.block_size", minimum=1)
        if kind == "kde-blocks":
            rows = np.genfromtxt(data_path, delimiter=",", names=True)
            points = np.column_stack([np.atleast_1d(rows["x"]), np.atleast_1d(rows["y"])])
            constraints = None
            if "constraints" in spec:
                context = "sequence.constraints."
                cons = _check_keys(spec["constraints"], ("lower", "upper"), context)
                constraints = BoxConstraints(
                    _as_vector(_require(cons, "lower", context), context + "lower"),
                    _as_vector(_require(cons, "upper", context), context + "upper"),
                )
            return blockwise_sequence("kde", points, block_size, constraints, initial)
        if kind == "loglik-blocks":
            data = _read_logit_data(data_path, "sequence.data")
            return blockwise_sequence("loglik", data, block_size, initial=initial)
        field = "phis" if kind == "tempering" else "gammas"
        ladder = _as_vector(_require(spec, field, "sequence."), "sequence." + field)
        if config.target_spec is None:
            raise ConfigError(f"target: required for {kind} sequences")
        if kind == "tempering":
            return tempering_sequence(initial, _build_target(config), list(ladder))
        return annealing_sequence(_build_target(config), list(ladder), initial=initial)
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"sequence: {err}") from err


def _float_repr(x: float) -> str:
    return repr(float(x))


def _write_particles(path: Path, dim: int, rows) -> None:
    header = ["group", "iteration", "particle_id"]
    header += [f"x{d}" for d in range(dim)]
    header += ["weight", "accepted"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for group, iteration, pid, coords, weight, accepted in rows:
            writer.writerow(
                [group, iteration, pid]
                + [_float_repr(c) for c in coords]
                + [_float_repr(weight), int(accepted)]
            )


def _write_grid(path: Path, target: TargetDensity, lower, upper, resolution: int) -> None:
    xs = np.linspace(lower[0], upper[0], resolution)
    ys = np.linspace(lower[1], upper[1], resolution)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    points = np.column_stack([gx.ravel(), gy.ravel()])
    values = np.empty(points.shape[0])
    for lo in range(0, points.shape[0], 1024):
        hi = min(lo + 1024, points.shape[0])
        values[lo:hi] = target.log_f(points[lo:hi])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "log_f"])
        for (x, y), v in zip(points, values):
            writer.writerow([_float_repr(x), _float_repr(y), _float_repr(v)])


def _grid_override(spec):
    """The grid section as (lower, upper, resolution); bounds are None if unset."""
    spec = _check_keys({} if spec is None else spec, ("resolution", "lower", "upper"), "grid.")
    resolution = _as_int(spec.get("resolution", GRID_RESOLUTION), "grid.resolution", minimum=2)
    if "lower" not in spec and "upper" not in spec:
        return None, None, resolution
    lower = _as_vector(_require(spec, "lower", "grid."), "grid.lower")
    upper = _as_vector(_require(spec, "upper", "grid."), "grid.upper")
    for field, bound in (("grid.lower", lower), ("grid.upper", upper)):
        if bound.shape != (2,) or not np.all(np.isfinite(bound)):
            raise ConfigError(f"{field}: expected 2 finite numbers, got {bound.tolist()}")
    if not np.all(lower < upper):
        raise ConfigError("grid.upper: every bound must lie above grid.lower")
    return lower, upper, resolution


def _grid_bounds(config: RunConfig, target: TargetDensity, positions: np.ndarray):
    lower, upper, resolution = _grid_override(config.grid_spec)
    if lower is not None:
        return lower, upper, resolution
    box = target.constraints
    if box is not None and np.all(np.isfinite(box.lower)) and np.all(np.isfinite(box.upper)):
        return box.lower, box.upper, resolution
    lo = positions.min(axis=0)
    hi = positions.max(axis=0)
    margin = 0.1 * np.maximum(hi - lo, 1e-6)
    return lo - margin, hi + margin, resolution


def _report_jsonable(config: RunConfig, report: RunReport) -> dict:
    return {
        "algorithm": config.algorithm,
        "seed": config.seed,
        **report.to_jsonable(),
        "group_divergence": compare_groups(report) if report.n_groups >= 2 else None,
    }


def _run_mcmc(config: RunConfig) -> int:
    target = _build_target(config)
    start = np.array(config.start if config.start is not None else np.zeros(target.dim))
    if start.shape != (target.dim,):
        raise ConfigError(f"start: expected {target.dim} coordinates")
    if not np.isfinite(target.log_f(start)):
        raise ConfigError("start: zero density at the starting position")
    step = hmc_step if config.algorithm == "hmc" else mh_step
    root = RandomSource(config.seed)

    particle_rows = []
    report_rows = []
    chains = []
    for j in range(config.n_groups):
        gen = root.derive(j).generator()
        pos = start
        chain = [pos]
        accepted_flags = [True]
        acc = 0
        for _ in range(config.iterations):
            out = step(target, pos, config.kernel, gen)
            pos = out.new_position
            chain.append(pos)
            accepted_flags.append(out.accepted)
            acc += out.accepted
        samples = np.array(chain)
        chains.append(samples)
        mean = samples.mean(axis=0)
        cov = samples.var(axis=0)
        for i, (p, a) in enumerate(zip(samples, accepted_flags)):
            particle_rows.append((j, i, 0, p, 1.0, a))
        report_rows.append(
            IterationRecord(
                group=j,
                iteration=config.iterations,
                acceptance_count=acc,
                ess=float(samples.shape[0]),
                weight_min=1.0 / samples.shape[0],
                weight_max=1.0 / samples.shape[0],
                mean=mean,
                cov_diag=cov,
            )
        )

    report = RunReport(
        n_particles=config.iterations + 1,
        n_groups=config.n_groups,
        n_iterations=config.iterations,
        rows=tuple(report_rows),
    )
    _write_outputs(config, target, particle_rows, report, np.vstack(chains))
    return 0


def _run_sequential(config: RunConfig) -> int:
    sequence = _build_sequence(config)
    smc_config = SmcConfig(
        n_particles=config.n_particles,
        mutation=config.kernel,
        n_groups=config.n_groups,
        mutation_steps=config.mutation_steps,
        weight_mode=config.weight_mode,
        resampling=config.resampling,
        n_threads=config.threads,
    )
    result = run_smc(sequence, smc_config, RandomSource(config.seed))

    particle_rows = []
    for j, group_history in enumerate(result.history):
        first = 0 if config.record_all else len(group_history) - 1
        for t, (ens, accepted) in enumerate(group_history[first:], start=first):
            for pid in range(ens.n_particles):
                particle_rows.append(
                    (j, t, pid, ens.positions[pid], ens.weights[pid], bool(accepted[pid]))
                )
    final_target = sequence.stages[-1]
    cloud = np.vstack([ens.positions for ens in result.ensembles])
    _write_outputs(config, final_target, particle_rows, result.report, cloud)
    return 0


def _write_outputs(config, target, particle_rows, report, cloud) -> None:
    config.output.mkdir(parents=True, exist_ok=True)
    _write_particles(config.output / "particles.csv", target.dim, particle_rows)
    with open(config.output / "report.json", "w") as fh:
        json.dump(_report_jsonable(config, report), fh, indent=2)
        fh.write("\n")
    if target.dim == 2:
        lower, upper, resolution = _grid_bounds(config, target, cloud)
        _write_grid(config.output / "grid.csv", target, lower, upper, resolution)


def run(config: RunConfig) -> int:
    """Execute a validated run; returns the process exit status."""
    try:
        if config.algorithm in ("mh", "hmc"):
            return _run_mcmc(config)
        return _run_sequential(config)
    except DegenerateWeightsError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def generate_data(kind: str, n: int, seed: int, out) -> int:
    """Write a benchmark dataset as CSV; returns the process exit status."""
    if kind not in DATA_KINDS:
        raise ConfigError(f"kind: unknown dataset kind {kind!r}")
    if n < 1:
        raise ConfigError("n: must be at least 1")
    seed = _as_seed(seed)
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    rng = RandomSource(seed)
    if kind == "logit":
        simulate_logit_data(n, (3.0, 3.0), rng).to_csv(out)
        return 0
    points = sample_smiley_data(n, rng) if kind == "smiley" else sample_dropwave_data(n, rng)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y"])
        for x, y in points:
            writer.writerow([_float_repr(x), _float_repr(y)])
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="hsmc", description="Sequential sampler experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="execute a run recipe")
    run_parser.add_argument("config", help="path to a YAML run configuration")
    run_parser.add_argument("--record-all", action="store_true",
                            help="record every iteration's particles, not just the final ones")
    run_parser.add_argument("--threads", type=int, default=None,
                            help="worker threads for particle groups (outputs are unaffected)")

    gen_parser = sub.add_parser("gen-data", help="generate a benchmark dataset")
    gen_parser.add_argument("kind", choices=DATA_KINDS)
    gen_parser.add_argument("n", type=int)
    gen_parser.add_argument("seed", type=int)
    gen_parser.add_argument("out")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            config = parse_config(args.config)
            overrides = {}
            if args.record_all:
                overrides["record_all"] = True
            threads = args.threads
            env_threads = os.environ.get("HSMC_THREADS")
            if env_threads is not None:
                threads = _as_int(env_threads, "HSMC_THREADS", minimum=1)
            if threads is not None:
                overrides["threads"] = threads
            return run(replace(config, **overrides))
        if args.command == "gen-data":
            return generate_data(args.kind, args.n, args.seed, args.out)
    except (ConfigError, FileNotFoundError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
