"""One recipe run in a fresh process, as ``hsmc run`` does it, with timestamps.

    python3 child.py RECIPE [--threads N] [--record-all] [--setup-only]
                            [--spans FILE]

Imports hsmc, validates the recipe with ``cli.parse_config`` and runs it
with ``cli.run``, applying the same overrides as the ``hsmc run`` command
line.  The last line of standard output is a JSON object:

* ``ready``: ``time.monotonic()`` once the config is validated.  The clock
  is system-wide, so the parent subtracts its own spawn time to get the
  set-up time from process start.
* ``wall_s``: duration of ``cli.run`` and ``peak_rss_mb``: peak resident
  memory of this process (both absent with ``--setup-only``).
* ``exit``: the status ``cli.run`` returned.
* with ``--setup-only``, the validated config's shape instead of a run:
  algorithm, particles, groups, mutation steps, kernel and the number of
  stages (sequential runs) or iterations (chains).

``--spans FILE`` traces the run: functions of every hsmc layer are
replaced, under the names their callers look them up by, with wrappers
that record spans (see ``spans.py``); the spans are written to FILE as
JSON when the run ends.  The process exits with the run's status.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace


def _peak_rss_mb() -> float:
    # VmHWM belongs to this process's own address space; ru_maxrss would also
    # count the parent's peak, which exec carries over
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _rows(position) -> int:
    shape = getattr(position, "shape", ())
    return 1 if len(shape) < 2 else int(shape[0])


def _traced_target(tracer, layer: str, target, terms_per_row: int):
    """The target with log_f and grad_log_f recording spans and row counts."""

    def count(args, kwargs, result):
        rows = _rows(args[0])
        return rows, rows * terms_per_row

    return replace(
        target,
        log_f=tracer.wrap(target.log_f, f"{layer}.log_f", count),
        grad_log_f=tracer.wrap(target.grad_log_f, f"{layer}.grad", count),
    )


def _traced_factory(tracer, layer: str, factory, terms=lambda args: 1):
    def build(*args, **kwargs):
        return _traced_target(tracer, layer, factory(*args, **kwargs), terms(args))

    return build


def instrument(tracer) -> None:
    """Replace the names each hsmc module looks up with span-recording wrappers."""
    import numpy as np

    from hsmc import cli, core, smc

    def mutate_count(args, kwargs, result):
        steps = kwargs.get("steps", args[3] if len(args) > 3 else 1)
        return args[1].n_particles * int(steps), int(result.acceptance_count)

    def step_count(args, kwargs, result):
        return 1, int(result.accepted)

    def resample_count(args, kwargs, result):
        unique = np.unique(result.positions, axis=0).shape[0]
        return result.n_particles, int(unique)

    # targets: the stage and chain targets the workloads' recipes build
    smc.kde_target = _traced_factory(
        tracer, "kde", smc.kde_target, lambda args: len(args[0]))
    smc.nonlinear_logit_loglik = _traced_factory(
        tracer, "targets", smc.nonlinear_logit_loglik, lambda args: len(args[0]))
    cli.rosenbrock = _traced_factory(tracer, "targets", cli.rosenbrock)
    cli.dropwave = _traced_factory(tracer, "targets", cli.dropwave)

    # core: per-particle stream setup
    core.RandomSource.generator = tracer.wrap(core.RandomSource.generator, "core.generator")

    # kde: leave-one-out denominators
    smc.loo_log_density_all = tracer.wrap(smc.loo_log_density_all, "kde.loo")

    # kernels
    smc.mutate_ensemble = tracer.wrap(smc.mutate_ensemble, "kernels.mutate", mutate_count)
    cli.mh_step = tracer.wrap(cli.mh_step, "kernels.step", step_count)
    cli.hmc_step = tracer.wrap(cli.hmc_step, "kernels.step", step_count)

    # smc
    cli.run_smc = tracer.wrap(cli.run_smc, "smc.run", fork=True)
    smc._run_group = tracer.wrap(smc._run_group, "smc.group", group_arg=True)
    smc.correction_weights = tracer.wrap(smc.correction_weights, "smc.correction")
    smc.resample = tracer.wrap(smc.resample, "smc.resample", resample_count)

    # diagnostics
    smc.weighted_moments = tracer.wrap(smc.weighted_moments, "diagnostics.moments")
    smc.effective_sample_size = tracer.wrap(smc.effective_sample_size, "diagnostics.ess")

    # cli
    cli.parse_config = tracer.wrap(cli.parse_config, "cli.parse")
    for name in ("_build_target", "_build_initial", "_build_sequence"):
        setattr(cli, name, tracer.wrap(getattr(cli, name), "cli.build"))
    cli._write_outputs = tracer.wrap(cli._write_outputs, "cli.write")


def _shape(cli, config) -> dict:
    kernel = config.kernel
    if hasattr(kernel, "leapfrog_steps"):
        kernel_desc = ["hmc", kernel.leapfrog_steps, kernel.step_size]
    else:
        kernel_desc = ["mh", kernel.proposal_scale]
    if config.algorithm in ("mh", "hmc"):
        length = config.iterations
    else:
        length = cli._build_sequence(config).n_stages
    return {
        "algorithm": config.algorithm,
        "particles": config.n_particles,
        "groups": config.n_groups,
        "mutation_steps": config.mutation_steps,
        "kernel": kernel_desc,
        "length": length,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("recipe")
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--record-all", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    tracer = None
    if args.spans:
        from spans import ROOT, Tracer

        tracer = Tracer()
        instrument(tracer)

    from hsmc import cli

    config = cli.parse_config(args.recipe)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready, "exit": 0, **_shape(cli, config)}))
        return 0

    overrides = {}
    if args.record_all:
        overrides["record_all"] = True
    if args.threads is not None:
        overrides["threads"] = args.threads
    config = replace(config, **overrides)

    root = tracer.open(ROOT) if tracer else None
    start = time.perf_counter()
    status = cli.run(config)
    wall = time.perf_counter() - start
    if tracer:
        tracer.close(root)
        with open(args.spans, "w") as fh:
            json.dump(tracer.spans, fh)
    print(json.dumps({"ready": ready, "wall_s": wall, "peak_rss_mb": _peak_rss_mb(),
                      "exit": status}))
    return status


if __name__ == "__main__":
    sys.exit(main())
