"""Benchmark of the shipped hsmc recipes, end to end or traced layer by layer.

    python3 perfbench/run.py --workload smiley-kde --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; hsmc is imported from ``src``.
Each recipe run is a fresh process (``child.py``), so set-up, CPU time and
peak memory are per run.  The workload seed offsets the dataset seeds;
seed 0 gives the acceptance suite's datasets.  Inputs, recipe copies and
outputs live in a temporary directory under ``.bench_build/`` that is
removed at exit.

``--trace 0`` repeats the workload, with set-up passes between repeats,
until ``--seconds`` are used (at least once) and reports medians of the
end-to-end metrics.  ``--trace 1`` runs the workload untraced, traced and
untraced again (smiley-kde also once at one thread) and reports per-layer
metrics; ``--seconds`` does not apply.

The last line of standard output is the result object; the line before it
records the machine and thread environment.  Progress and failed checks go
to standard error.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

import checks
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# datasets as ``hsmc gen-data`` writes them: size and the seed at workload seed 0
DATASETS = {"smiley": (2048, 2024), "logit": (400, 0)}
PROBE_SLOT_S = 1.5  # set-up passes between repeats
CHILD_TIMEOUT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "HSMC_THREADS")


@dataclass(frozen=True)
class Recipe:
    """A shipped recipe, its dataset and the config shape it must validate to."""

    name: str
    shape: dict
    data: str | None = None
    box: tuple | None = None


@dataclass(frozen=True)
class Workload:
    recipes: tuple[Recipe, ...]
    threads: int | None = None
    record_all: bool = False
    acceptance: bool = False  # criterion-4 thresholds, at workload seed 0
    speedup: bool = False  # traced run also measures one thread


def _shape(algorithm, length, kernel, particles=0, groups=1, steps=1):
    return {"algorithm": algorithm, "particles": particles, "groups": groups,
            "mutation_steps": steps, "kernel": list(kernel), "length": length}


WORKLOADS = {
    # ~80% in the N x m KDE kernel sum; the only run with parallel groups
    "smiley-kde": Workload(
        (Recipe("smiley_hsmc", _shape("hsmc", 21, ("hmc", 20, 0.05), 512, 4), "smiley"),),
        threads=2, acceptance=True, speedup=True,
    ),
    # ~90% in the N x n logit utility; no KDE target, one group
    "logit-hsmc": Workload(
        (Recipe("logit_hsmc", _shape("hsmc", 8, ("hmc", 20, 0.05), 512, 1, 5), "logit"),),
    ),
    # cheap targets: per-call overhead, stream setup, single-chain steps,
    # reflection and the writers carry the largest shares
    "cheap-targets": Workload(
        (
            Recipe("logit_smc", _shape("smc", 8, ("mh", 1.0), 512), "logit"),
            Recipe("dropwave_annealing", _shape("smc", 4, ("hmc", 20, 0.02), 512),
                   box=((-2.5, -2.5), (2.5, 2.5))),
            Recipe("rosenbrock_mh", _shape("mh", 10000, ("mh", 0.2))),
            Recipe("rosenbrock_hmc", _shape("hmc", 1000, ("hmc", 20, 0.05))),
        ),
        record_all=True,
    ),
}


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


@dataclass
class Child:
    status: int
    out: dict | None
    spawned: float
    cpu_s: float
    stderr: str


def _spawn(argv: list[str], env: dict, work: Path) -> Child:
    """Run a child to completion.

    Children run one at a time, so the growth of this process's
    ``RUSAGE_CHILDREN`` over the call is the child's CPU time.
    """
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv, env=env, cwd=work, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        status, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired:
        status, stdout, stderr = -signal.SIGKILL, "", f"killed after {CHILD_TIMEOUT_S:.0f} s"
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return Child(
        status=status,
        out=result,
        spawned=spawned,
        cpu_s=(after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
        stderr=stderr[-2000:],
    )


def _child_env() -> dict:
    env = dict(os.environ)
    # cli.main lets HSMC_THREADS override --threads; BLAS variables stay as found
    env.pop("HSMC_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def prepare(workload: Workload, seed: int, work: Path, env: dict) -> dict[str, Path]:
    """Datasets from the seed and recipe copies pointing at them; returns recipe paths."""
    data_dir, recipe_dir = work / "data", work / "recipes"
    data_dir.mkdir()
    recipe_dir.mkdir()
    paths = {}
    for recipe in workload.recipes:
        source = ROOT / "experiments" / f"{recipe.name}.yaml"
        raw = yaml.safe_load(source.read_text())
        raw["output"] = str(work / "out" / recipe.name)
        if recipe.data is not None:
            size, base_seed = DATASETS[recipe.data]
            data = data_dir / f"{recipe.data}.csv"
            if not data.exists():
                made = subprocess.run(
                    [sys.executable, "-m", "hsmc.cli", "gen-data", recipe.data,
                     str(size), str(base_seed + seed), str(data)],
                    env=env, cwd=work, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                )
                if made.returncode != 0:
                    raise BenchmarkError(f"gen-data {recipe.data} failed: {made.stderr}")
            for section in ("sequence", "target"):
                if isinstance(raw.get(section), dict) and "data" in raw[section]:
                    raw[section]["data"] = str(data)
        paths[recipe.name] = recipe_dir / f"{recipe.name}.yaml"
        paths[recipe.name].write_text(yaml.safe_dump(raw, sort_keys=False))
    return paths


def setup_pass(workload: Workload, paths: dict, env: dict, work: Path) -> float:
    """Validate every recipe copy in a fresh process; returns the summed set-up time."""
    total = 0.0
    for recipe in workload.recipes:
        child = _spawn([sys.executable, str(BENCH / "child.py"), str(paths[recipe.name]),
                        "--setup-only"], env, work)
        if child.status != 0 or child.out is None:
            raise BenchmarkError(f"{recipe.name}: config rejected: {child.stderr}")
        shape = {k: child.out[k] for k in recipe.shape}
        if shape != recipe.shape:
            raise BenchmarkError(f"{recipe.name}: config is {shape}, expected {recipe.shape}")
        total += child.out["ready"] - child.spawned
    return total


@dataclass
class Rep:
    wall_s: float = 0.0
    setup_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    rows_written: int = 0
    bytes_written: int = 0
    attempted: int = 0
    failed: int = 0


def _written(out_dir: Path) -> tuple[int, int]:
    rows = size = 0
    for path in out_dir.iterdir():
        size += path.stat().st_size
        if path.suffix == ".csv":
            with open(path, "rb") as fh:
                rows += sum(1 for _ in fh) - 1
    return rows, size


def run_rep(workload: Workload, paths: dict, env: dict, work: Path, references: dict,
            threads: int | None = None, spans_out: list | None = None,
            oracle=None) -> Rep:
    """Every recipe of the workload once, each in its own process, with output checks.

    ``references`` maps recipe names to the report.json bytes the first run
    wrote; later runs of the same inputs must reproduce them exactly.
    """
    rep = Rep()
    for recipe in workload.recipes:
        argv = [sys.executable, str(BENCH / "child.py"), str(paths[recipe.name])]
        if threads is not None:
            argv += ["--threads", str(threads)]
        if workload.record_all:
            argv.append("--record-all")
        spans_file = work / f"{recipe.name}.spans.json"
        if spans_out is not None:
            argv += ["--spans", str(spans_file)]
        out_dir = work / "out" / recipe.name
        shutil.rmtree(out_dir, ignore_errors=True)
        child = _spawn(argv, env, work)
        rep.attempted += 1
        if child.status != 0 or child.out is None:
            problems = [f"exit status {child.status}: {child.stderr.strip()}"]
        else:
            problems = checks.check_outputs(out_dir, recipe.shape, workload.record_all,
                                            recipe.box)
            rep.wall_s += child.out["wall_s"]
            rep.setup_s += child.out["ready"] - child.spawned
            rep.rss_mb = max(rep.rss_mb, child.out["peak_rss_mb"])
        rep.cpu_s += child.cpu_s
        if not problems:
            if recipe.name in references:
                problems = checks.check_same_report(references[recipe.name], out_dir)
            else:
                references[recipe.name] = (out_dir / "report.json").read_bytes()
        if not problems and oracle is not None:
            problems = checks.check_smiley_acceptance(out_dir, oracle)
        if out_dir.is_dir():
            rows, size = _written(out_dir)
            rep.rows_written += rows
            rep.bytes_written += size
        if spans_out is not None and spans_file.is_file():
            offset = len(spans_out)
            for span in json.loads(spans_file.read_text()):
                if span[spans.PARENT] >= 0:
                    span[spans.PARENT] += offset
                spans_out.append(span)
        if problems:
            rep.failed += 1
            for problem in problems:
                print(f"FAIL {recipe.name}: {problem}", file=sys.stderr)
    return rep


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _probe_slot(workload: Workload, paths, env, work) -> list[float]:
    """Set-up passes until ``PROBE_SLOT_S`` are used, at least one."""
    started = time.monotonic()
    setups = [setup_pass(workload, paths, env, work)]
    while time.monotonic() - started < PROBE_SLOT_S:
        setups.append(setup_pass(workload, paths, env, work))
    return setups


def measure(workload: Workload, paths, env, work, seconds, oracle) -> tuple[dict, int, int]:
    """End-to-end metrics: medians over repeats of the workload within ``seconds``.

    A slot of set-up passes runs before the first repeat and after each one,
    so the set-up samples span the whole run, not one moment of it.
    """
    deadline = time.monotonic() + seconds
    setups = _probe_slot(workload, paths, env, work)
    references: dict = {}
    reps: list[Rep] = []
    durations: list[float] = []
    while not reps or time.monotonic() + statistics.median(durations) <= deadline:
        started = time.monotonic()
        reps.append(run_rep(workload, paths, env, work, references, workload.threads,
                            oracle=oracle))
        setups += _probe_slot(workload, paths, env, work)
        durations.append(time.monotonic() - started)
        print(f"rep {len(reps)}: wall {reps[-1].wall_s:.3f} s", file=sys.stderr)
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    good = [r for r in reps if not r.failed] or reps
    setups += [r.setup_s for r in good]
    print(f"set-up: {len(setups)} samples, {min(setups):.3f}-{max(setups):.3f} s",
          file=sys.stderr)
    metrics = {
        "wall_s": _metric(statistics.median(r.wall_s for r in good), "s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "cpu_s": _metric(statistics.median(r.cpu_s for r in good), "s"),
        "peak_rss_mb": _metric(statistics.median(r.rss_mb for r in good), "MB"),
        "pass_frac": _metric((attempted - failed) / attempted, "ratio"),
    }
    return metrics, attempted, failed


PER_LAYER_UNITS = {".s": "s", ".calls": "count", ".ns_per_term": "ns"}


def _unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    if name in ("kde.terms", "targets.points", "cli.rows_written"):
        return "count"
    if name == "cli.bytes_written":
        return "B"
    return "ratio"


def trace(workload: Workload, paths, env, work, oracle) -> tuple[dict, int, int]:
    """Per-layer metrics from one traced run, bracketed by two untraced runs.

    The overhead is the traced ``wall_s`` minus the median of the untraced
    ones; bracketing cancels a steady drift of the machine's speed.
    """
    setup_pass(workload, paths, env, work)
    references: dict = {}
    plain = [run_rep(workload, paths, env, work, references, workload.threads, oracle=oracle)]
    collected: list = []
    traced = run_rep(workload, paths, env, work, references, workload.threads,
                     spans_out=collected)
    plain.append(run_rep(workload, paths, env, work, references, workload.threads))
    reps = plain + [traced]
    untraced_wall = statistics.median(r.wall_s for r in plain)
    speedup = 0.0
    if workload.speedup:
        single = run_rep(workload, paths, env, work, references, 1)
        reps.append(single)
        speedup = single.wall_s / untraced_wall if untraced_wall else 0.0
    values = spans.summarize(collected)
    values["smc.group_speedup"] = speedup
    values["cli.rows_written"] = traced.rows_written
    values["cli.bytes_written"] = traced.bytes_written
    values["trace.wall.s"] = traced.wall_s
    values["trace.overhead.s"] = traced.wall_s - untraced_wall
    metrics = {name: _metric(value, _unit(name)) for name, value in values.items()}
    return metrics, sum(r.attempted for r in reps), sum(r.failed for r in reps)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a termination request unwinds normally: the running child is killed
    # and reaped and the temporary directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    workload = WORKLOADS[args.workload]
    missing = [p for p in [ROOT / "src" / "hsmc" / "cli.py"]
               + [ROOT / "experiments" / f"{r.name}.yaml" for r in workload.recipes]
               if not p.is_file()]
    if missing:
        print(f"error: not a source checkout, missing {missing[0]}", file=sys.stderr)
        return 2

    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"perfbench-{args.workload}-", dir=build))
    try:
        env = _child_env()
        paths = prepare(workload, args.seed, work, env)
        oracle = None
        if workload.acceptance and args.seed == 0:
            points = np.loadtxt(work / "data" / "smiley.csv", delimiter=",", skiprows=1)
            oracle = checks.smiley_oracle(points)
        if args.trace:
            metrics, attempted, failed = trace(workload, paths, env, work, oracle)
        else:
            metrics, attempted, failed = measure(workload, paths, env, work, args.seconds,
                                                 oracle)
        info = environment()
    except BenchmarkError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"environment": info, "workload": args.workload, "seed": args.seed}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
