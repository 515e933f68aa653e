"""Experiment driver.

Subcommands:

* ``run <config.yaml>`` parses a run recipe, executes the requested
  algorithm (mh, hmc, smc or hsmc) and writes ``particles.csv``,
  ``report.json`` and, for 2-d targets, ``grid.csv`` into the output
  directory.
* ``gen-data <kind> <n> <seed> <out>`` writes benchmark datasets.

This module reads and writes every file; the library modules only
compute.  It converts no numbers itself: a recipe's counts, reals,
vectors and seed go as written to the library, whose
``core._as_count``, ``_as_real`` and ``_as_reals`` reject a bool, a
quoted number or a nested list, and :func:`_checked` leads each error
with the recipe section.  Both dataset kinds are read by :func:`_read_columns`, which
gives every malformed file the same checks and messages, and every CSV
is written by :func:`_write_csv`: a column at a time, in batches of
``_WRITE_BATCH_ROWS`` rows, with the bytes ``csv.writer`` would write.
``report.json`` is the run report's dataclass fields, in their order,
between ``algorithm``/``seed`` and ``group_divergence``.

Outputs contain no timestamps and floats are written with full
round-trip precision, so identical configs and seeds produce
byte-identical files regardless of ``--threads``.  ``--threads`` T
sets the workers of a run of G particle groups, P = min(G, T): worker p
runs groups p, p + P, ... in order, in a forked process where that is
safe (see ``smc.run_smc``) and on a thread otherwise.  Each group cuts
every stage's rows into chunks for its worker's ceil(T / P) threads,
once to evaluate the stage's target and once to mutate.  The grid is
then evaluated on T threads, in row chunks cut by the same rule.  An
``mh`` or ``hmc`` run steps its chains together as one batch, chain j
on its own stream ``RandomSource(seed).derive(j)``, so a chain's states
do not depend on how many chains run beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from .core import (
    BoxConstraints, DegenerateWeightsError, Ensemble, RandomSource, TargetDensity, _as_count,
    _as_reals, _map_rows,
)
from .kernels import HmcConfig, MhConfig, _chains, _stage_draws
from .kernels import hmc_step, mh_step  # unused here; perfbench/child.py wraps them by name
from .smc import (
    InitialDistribution,
    RunReport,
    SmcConfig,
    annealing_sequence,
    compare_groups,
    diag_gaussian_initial,
    kde_blocks_sequence,
    loglik_blocks_sequence,
    run_smc,
    tempering_sequence,
    uniform_box_initial,
    _iteration_record,
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

DATA_KINDS = ("smiley", "dropwave", "logit")
GRID_RESOLUTION = 101
# rows formatted per write, so a table's peak memory does not grow with its
# length: 4096-row batches added 1.9 MB to rosenbrock_mh's peak resident memory
_WRITE_BATCH_ROWS = 512

# fields each recipe mapping may hold, per value of its algorithm/type/name/kind tag
_RUN_KEYS = ("seed", "output", "kernel", "grid", "target", "groups")
_CHAIN_KEYS = _RUN_KEYS + ("iterations", "start")
_SEQUENTIAL_KEYS = _RUN_KEYS + (
    "sequence", "initial", "particles", "mutation_steps", "threads", "record_all"
)
TOP_LEVEL_KEYS = {"mh": _CHAIN_KEYS, "hmc": _CHAIN_KEYS,
                  "smc": _SEQUENTIAL_KEYS, "hsmc": _SEQUENTIAL_KEYS}
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
    """Validated run recipe; see the repository README for the file format.

    :func:`parse_config` sets only the fields the run's algorithm reads, so
    a default is the value of a field that algorithm does not read: a chain
    run has no particles, one mutation step and one thread, and a
    sequential run no iterations.
    """

    algorithm: str
    seed: int
    output: Path
    base_dir: Path
    kernel: HmcConfig | MhConfig
    n_particles: int = 0
    n_groups: int = 1
    mutation_steps: int = 1
    iterations: int = 0
    threads: int = 1  # a chain steps one state at a time, and its grid is one small call
    record_all: bool = False
    start: tuple[float, ...] | None = None
    target_spec: dict | None = None
    sequence_spec: dict | None = None
    initial_spec: dict | None = None
    grid: tuple = (None, None, GRID_RESOLUTION)  # (lower, upper, resolution); bounds may be None

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


def _as_int(value, field: str, minimum: int) -> int:
    return _checked("", _as_count, value, field, minimum)


def _as_vector(value, field: str) -> np.ndarray:
    return _checked("", _as_reals, value, field)


def _as_path(value, field: str) -> Path:
    if not isinstance(value, str):  # Path() fails on YAML's numbers, booleans, null, lists
        raise ConfigError(f"{field}: expected a path, got {value!r}")
    return Path(value)


def _checked(prefix: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, raising its ValueError as a ConfigError led by ``prefix``.

    The builders' messages start with the field they name, so ``prefix``
    is that field's section, or a data file's field and path.
    """
    try:
        return build(*args, **kwargs)
    except ValueError as err:
        raise ConfigError(f"{prefix}{err}") from err


def _usable_cores() -> int:
    """The CPUs this process may run on: the default thread count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _build_box(spec: dict, context: str, build):
    """``build(lower, upper)`` from the fields of ``spec``, naming a bad bound."""
    bounds = [_require(spec, key, context) for key in ("lower", "upper")]
    return _checked(context, build, *bounds)


def _build_kernel(spec) -> HmcConfig | MhConfig:
    """The kernel section; fields the recipe leaves out take the config defaults."""
    ktype = _tagged(spec, "kernel.", "type", KERNEL_KEYS)
    fields = {key: value for key, value in spec.items() if key != "type"}
    return _checked("kernel.", HmcConfig if ktype == "hmc" else MhConfig, **fields)


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
    algorithm = _tagged(raw, "", "algorithm", TOP_LEVEL_KEYS)
    base_dir = path.parent
    # the RunConfig fields the algorithm reads, validated in this order; the
    # others keep their defaults
    fields = {
        "algorithm": algorithm,
        "seed": _checked("", RandomSource, _require(raw, "seed", "")).seed,
        "output": base_dir / _as_path(_require(raw, "output", ""), "output"),
        "base_dir": base_dir,
        "kernel": _build_kernel(_require(raw, "kernel", "")),
        "n_groups": _as_int(raw.get("groups", RunConfig.n_groups), "groups", 1),
        "target_spec": raw.get("target"),
    }
    if "record_all" in raw:  # only sequential recipes may hold it
        fields["record_all"] = raw["record_all"]
        if not isinstance(raw["record_all"], bool):
            raise ConfigError(f"record_all: expected true or false, got {raw['record_all']!r}")
    fields["grid"] = _grid_override(raw.get("grid"))

    if algorithm in ("mh", "hmc"):
        if raw.get("target") is None:
            raise ConfigError("target: required for mh/hmc runs")
        fields["iterations"] = _as_int(_require(raw, "iterations", ""), "iterations", 1)
        start = raw.get("start")
        start = _as_vector(start, "start") if start is not None else None
        if raw["kernel"]["type"] != algorithm:
            raise ConfigError(f"kernel.type: {algorithm} runs need an {algorithm} kernel")
    else:
        for key in ("sequence", "initial"):
            if raw.get(key) is None:
                raise ConfigError(f"{key}: required for smc/hsmc runs")
            fields[key + "_spec"] = raw[key]
        fields["n_particles"] = _as_int(_require(raw, "particles", ""), "particles", 2)
        steps = raw.get("mutation_steps", RunConfig.mutation_steps)
        fields["mutation_steps"] = _as_int(steps, "mutation_steps", 1)
        fields["threads"] = _as_int(raw.get("threads", _usable_cores()), "threads", 1)

    config = RunConfig(**fields)
    # fail fast on malformed specs, missing data files, and a mass, start or
    # grid that does not fit what the run samples
    if algorithm in ("mh", "hmc"):
        target = _build_target(config)
        dim = target.dim
        start = np.zeros(dim) if start is None else start
        if start.shape != (dim,):
            raise ConfigError(f"start: expected {dim} coordinates")
        if not np.isfinite(target.log_f(start[None, :])[0]):
            raise ConfigError("start: zero density at the starting position")
        config = replace(config, start=tuple(float(v) for v in start))
    else:
        dim = _build_sequence(config).dim
    if isinstance(config.kernel, HmcConfig):
        _checked("kernel.", config.kernel.mass_for, dim)
    if raw.get("grid") is not None and dim != 2:
        raise ConfigError(f"grid: grid.csv is written for 2-dim targets only, not {dim}-dim")
    return config


def _resolve_data_path(config: RunConfig, value, field: str) -> Path:
    data_path = config.base_dir / _as_path(value, field)  # an absolute path stays as it is
    if not data_path.is_file():
        raise ConfigError(f"{field}: data file not found: {data_path}")
    return data_path


def _read_columns(path: Path, names: tuple[str, ...], field: str) -> np.ndarray:
    """The ``names`` columns of a CSV dataset as an (n, len(names)) array.

    The file needs a header row and at least one data row, and every cell
    read must be a finite number; otherwise the ConfigError names ``field``
    and ``path``.
    """
    try:
        with warnings.catch_warnings():
            # genfromtxt warns of a file with no header row, then fails on it
            warnings.filterwarnings("error", "genfromtxt: Empty input file", UserWarning)
            rows = np.atleast_1d(np.genfromtxt(path, delimiter=",", names=True))
        table = np.column_stack([rows[name] for name in names])
    except UserWarning as err:
        raise ConfigError(f"{field}: {path}: no header row") from err
    except ValueError as err:  # a missing column or a ragged row
        raise ConfigError(f"{field}: {path}: {err}") from err
    if not len(table):
        raise ConfigError(f"{field}: {path}: no data rows")
    bad = np.argwhere(~np.isfinite(table))
    if len(bad):
        row, col = bad[0]
        raise ConfigError(f"{field}: {path}: data row {row + 1}: {names[col]} is not finite")
    return table


def _logit_data(path: Path, field: str) -> LogitData:
    """The logit dataset at ``path``; a bad offer or choice names ``field`` and ``path``."""
    offers, choices = _read_columns(path, ("x", "choice"), field).T
    return _checked(f"{field}: {path}: ", LogitData, offers, choices)


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
        mean = _require(spec, "mean", "target.")
        cov = _require(spec, "cov_diag", "target.")
        return _checked("target.", gaussian, mean, cov)
    data_path = _resolve_data_path(config, _require(spec, "data", "target."), "target.data")
    return nonlinear_logit_loglik(_logit_data(data_path, "target.data"))


def _build_initial(config: RunConfig) -> InitialDistribution:
    spec = config.initial_spec
    gaussian_form = isinstance(spec, dict) and "mean" in spec
    _check_keys(spec, ("mean", "sigma") if gaussian_form else ("lower", "upper"), "initial.")
    if gaussian_form:
        sigma = _require(spec, "sigma", "initial.")
        return _checked("initial.", diag_gaussian_initial, spec["mean"], sigma)
    if "lower" not in spec:
        raise ConfigError("initial: expected either mean/sigma or lower/upper")
    return _build_box(spec, "initial.", uniform_box_initial)


def _build_sequence(config: RunConfig):
    spec = config.sequence_spec
    kind = _tagged(spec, "sequence.", "kind", SEQUENCE_KEYS)
    initial = _build_initial(config)
    if kind in ("kde-blocks", "loglik-blocks"):
        if config.target_spec is not None:
            raise ConfigError(f"target: not read by {kind} sequences")
        data = _require(spec, "data", "sequence.")
        data_path = _resolve_data_path(config, data, "sequence.data")
        block_size = _require(spec, "block_size", "sequence.")
        block_size = _as_int(block_size, "sequence.block_size", 1)
    if kind == "kde-blocks":
        points = _read_columns(data_path, ("x", "y"), "sequence.data")
        constraints = None
        if "constraints" in spec:
            context = "sequence.constraints."
            cons = _check_keys(spec["constraints"], ("lower", "upper"), context)
            constraints = _build_box(cons, context, BoxConstraints)
        return _checked("sequence: ", kde_blocks_sequence, points, block_size, constraints,
                        initial=initial)
    if kind == "loglik-blocks":
        data = _logit_data(data_path, "sequence.data")
        return _checked("sequence: ", loglik_blocks_sequence, data, block_size, initial=initial)
    field = "phis" if kind == "tempering" else "gammas"
    ladder = _require(spec, field, "sequence.")
    if config.target_spec is None:
        raise ConfigError(f"target: required for {kind} sequences")
    if kind == "tempering":
        return _checked("sequence: ", tempering_sequence, initial, _build_target(config), ladder)
    return _checked("sequence: ", annealing_sequence, _build_target(config), ladder,
                    initial=initial)


def _cells(column: np.ndarray, rows: slice):
    """The strings of one column's ``rows``; see :func:`_write_csv`."""
    part = column[rows].tolist()
    return part if column.dtype == object else map(repr, part)


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write a table a column at a time, with the bytes ``csv.writer`` writes.

    A column is an array of ints (written with str), of floats (with
    repr) or of objects: cells already written as strings.  No cell needs
    quoting.
    """
    n_rows = len(columns[0])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, n_rows, _WRITE_BATCH_ROWS):
            rows = slice(start, start + _WRITE_BATCH_ROWS)
            lines = map(",".join, zip(*(_cells(c, rows) for c in columns)))
            fh.write("\r\n".join(lines) + "\r\n")


def _write_particles(path: Path, group, iteration, particle_id, positions, accepted) -> None:
    header = ["group", "iteration", "particle_id"]
    header += [f"x{d}" for d in range(positions.shape[1])]
    header += ["weight", "accepted"]
    # sequential rows are recorded after selection and chain states count
    # once each, so every weight is 1
    columns = [group, iteration, particle_id, *positions.T,
               np.full(len(positions), "1.0", dtype=object), np.asarray(accepted, dtype=np.int8)]
    _write_csv(path, header, columns)


def _grid_log_f(target: TargetDensity, points: np.ndarray, threads: int) -> np.ndarray:
    """``target.log_f(points)`` in row runs on ``threads`` threads, cut as a stage's are."""
    return _map_rows(lambda rows: (target.log_f(points[rows]),), len(points), threads)[0]


def _write_grid(path: Path, target: TargetDensity, lower, upper, resolution: int,
                threads: int) -> None:
    xs = np.linspace(lower[0], upper[0], resolution)
    ys = np.linspace(lower[1], upper[1], resolution)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    values = _grid_log_f(target, np.column_stack([gx.ravel(), gy.ravel()]), threads)
    # in ij order x varies slowest: write each coordinate once and repeat it
    x_cells, y_cells = (np.array([repr(v) for v in axis.tolist()], dtype=object)
                        for axis in (xs, ys))
    _write_csv(path, ["x", "y", "log_f"],
               [np.repeat(x_cells, resolution), np.tile(y_cells, resolution), values])


def _grid_override(spec):
    """The grid section as (lower, upper, resolution); bounds are None if unset."""
    spec = _check_keys({} if spec is None else spec, ("resolution", "lower", "upper"), "grid.")
    resolution = _as_int(spec.get("resolution", GRID_RESOLUTION), "grid.resolution", 2)
    if "lower" not in spec and "upper" not in spec:
        return None, None, resolution
    lower = _as_vector(_require(spec, "lower", "grid."), "grid.lower")
    upper = _as_vector(_require(spec, "upper", "grid."), "grid.upper")
    for field, bound in (("grid.lower", lower), ("grid.upper", upper)):
        if bound.shape != (2,) or not np.all(np.isfinite(bound)):
            raise ConfigError(f"{field}: expected 2 finite numbers, got {bound.tolist()}")
    if not np.all(lower < upper):
        raise ConfigError("grid.upper: every bound must lie above grid.lower")
    return tuple(lower.tolist()), tuple(upper.tolist()), resolution


def _grid_bounds(config: RunConfig, target: TargetDensity, positions: np.ndarray):
    lower, upper, resolution = config.grid
    if lower is not None:
        return lower, upper, resolution
    box = target.constraints
    if box is not None and np.all(np.isfinite(box.lower)) and np.all(np.isfinite(box.upper)):
        return box.lower, box.upper, resolution
    lo = positions.min(axis=0)
    hi = positions.max(axis=0)
    margin = 0.1 * np.maximum(hi - lo, 1e-6)
    return lo - margin, hi + margin, resolution


def _run_mcmc(config: RunConfig) -> int:
    target = _build_target(config)
    groups, length, dim = config.n_groups, config.iterations + 1, len(config.start)
    noise, log_u = _stage_draws(RandomSource(config.seed), groups, dim, config.iterations)
    states, accepted, _, _ = _chains(target, np.tile(config.start, (groups, 1)), config.kernel,
                                     noise, log_u)
    # chain-major, as particles.csv lists them
    positions, accepted = np.ascontiguousarray(states.swapaxes(0, 1)), accepted.T
    # each chain state counts once: unit weights
    rows = tuple(_iteration_record(j, config.iterations, int(accepted[j, 1:].sum()),
                                   Ensemble(positions[j]), np.ones(length))
                 for j in range(groups))
    report = RunReport(n_particles=length, n_groups=groups, n_iterations=config.iterations,
                       rows=rows)
    positions = positions.reshape(-1, dim)
    particles = (np.repeat(np.arange(groups), length), np.tile(np.arange(length), groups),
                 np.zeros(len(positions), dtype=int), positions, accepted.ravel())
    _write_outputs(config, target, particles, report, positions)
    return 0


def _run_sequential(config: RunConfig) -> int:
    sequence = _build_sequence(config)
    smc_config = SmcConfig(
        n_particles=config.n_particles,
        mutation=config.kernel,
        n_groups=config.n_groups,
        mutation_steps=config.mutation_steps,
        weight_mode=config.weight_mode,
        n_threads=config.threads,
    )
    result = run_smc(sequence, smc_config, RandomSource(config.seed))

    # one (group, iteration, positions, accepted) entry per recorded ensemble
    recorded = [
        (j, t, ens.positions, accepted)
        for j, group_history in enumerate(result.history)
        for t, (ens, accepted) in enumerate(group_history)
        if config.record_all or t == len(group_history) - 1
    ]
    groups, iterations, positions, accepted = zip(*recorded)
    n = config.n_particles
    particles = (np.repeat(groups, n), np.repeat(iterations, n),
                 np.tile(np.arange(n), len(recorded)), np.concatenate(positions),
                 np.concatenate(accepted))
    final_target = sequence.stages[-1]
    cloud = np.vstack([ens.positions for ens in result.ensembles])
    _write_outputs(config, final_target, particles, result.report, cloud)
    return 0


def _write_outputs(config, target, particles, report, cloud) -> None:
    """Write particles.csv, report.json and, for 2-dim targets, grid.csv.

    ``particles`` holds the group, iteration, particle_id, positions and
    accepted columns of particles.csv.
    """
    config.output.mkdir(parents=True, exist_ok=True)
    _write_particles(config.output / "particles.csv", *particles)
    divergence = compare_groups(report) if report.n_groups >= 2 else None
    with open(config.output / "report.json", "w") as fh:
        json.dump({"algorithm": config.algorithm, "seed": config.seed, **asdict(report),
                   "group_divergence": divergence}, fh, indent=2, default=np.ndarray.tolist)
        fh.write("\n")
    if target.dim == 2:
        lower, upper, resolution = _grid_bounds(config, target, cloud)
        _write_grid(config.output / "grid.csv", target, lower, upper, resolution,
                    config.threads)


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
    n = _as_int(n, "n", 1)
    rng = _checked("", RandomSource, seed)
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if kind == "logit":
        data = simulate_logit_data(n, (3.0, 3.0), rng)
        _write_csv(out, ["x", "choice"], [data.offers, data.choices.astype(np.int64)])
    else:
        points = sample_smiley_data(n, rng) if kind == "smiley" else sample_dropwave_data(n, rng)
        _write_csv(out, ["x", "y"], list(points.T))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="hsmc", description="Sequential sampler experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="execute a run recipe")
    run_parser.add_argument("config", help="path to a YAML run configuration")
    run_parser.add_argument("--record-all", action="store_true",
                            help="record every iteration's particles, not just the final ones")
    run_parser.add_argument("--threads", type=int, default=None,
                            help="threads (default: the usable cores); min(groups, "
                                 "threads) workers run the particle groups in turn, "
                                 "in forked processes where that is safe, each group's "
                                 "particle rows split over its worker's share of the "
                                 "threads, and then all threads evaluate the grid "
                                 "(outputs are unaffected; beyond the usable cores, "
                                 "threads cost a one-group run time)")

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
            if args.threads is not None:
                overrides["threads"] = _as_int(args.threads, "--threads", 1)
            for field in overrides:
                if field not in TOP_LEVEL_KEYS[config.algorithm]:
                    flag = "--" + field.replace("_", "-")
                    raise ConfigError(f"{flag}: not read by {config.algorithm} runs")
            return run(replace(config, **overrides))
        if args.command == "gen-data":
            return generate_data(args.kind, args.n, args.seed, args.out)
    except (ConfigError, FileNotFoundError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
