"""In-memory spans for the traced run, and the arithmetic on them.

A span is the list ``[name, start, end, parent, thread, group, n, m]``.
``parent`` is the index of the enclosing span (-1 for a root), ``thread``
the OS thread identifier and ``group`` the particle group the thread was
running (-1 outside a group).  ``n`` and ``m`` are counts whose meaning
depends on the span:

* ``kde.*`` and ``targets.*`` evaluations: rows evaluated and terms
  computed (rows times kernel points or observations);
* ``kernels.mutate`` and ``kernels.step``: proposals attempted and
  accepted;
* ``smc.resample``: particles drawn and distinct survivors.

The first dotted component of a name is its layer.  A span's self time is
its duration minus the part of its interval that its children cover; the
children of a span that hands work to a thread pool run on other threads
and may overlap each other, so coverage is the union of their intervals.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

NAME, START, END, PARENT, THREAD, GROUP, N, M = range(8)

LAYERS = ("cli", "smc", "kernels", "kde", "targets", "core", "diagnostics")
ROOT = "run"
TARGET_SPANS = ("kde.log_f", "kde.grad", "targets.log_f", "targets.grad")


class Tracer:
    """Collects spans from any number of threads; nothing is written until asked."""

    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._fork = -1

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        # a pool worker starts with an empty stack: its spans hang off the
        # span that handed the work out
        parent = stack[-1] if stack else self._fork
        span = [name, 0.0, 0.0, parent, threading.get_ident(),
                getattr(self._local, "group", -1), 0, 0]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span[START] = time.perf_counter()
        return span

    def close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack().pop()

    def wrap(self, fn, name: str, count=None, fork: bool = False, group_arg: bool = False):
        """Return ``fn`` recording one span per call.

        ``count(args, kwargs, result)`` fills the span's (n, m) counts;
        ``fork`` marks a function that hands work to pool threads;
        ``group_arg`` takes the particle group from the first argument.
        """

        def traced(*args, **kwargs):
            if group_arg:
                self._local.group = int(args[0])
            span = self.open(name)
            saved_fork = self._fork
            if fork:
                self._fork = self._stack()[-1]
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
                if fork:
                    self._fork = saved_fork
                if group_arg:
                    self._local.group = -1
            if count is not None:
                span[N], span[M] = count(args, kwargs, result)
            return result

        return traced


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        lo0, hi0 = span[START], span[END]
        covered = 0.0
        run_lo = run_hi = None
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, lo0), min(hi, hi0)
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append((hi0 - lo0) - covered)
    return out


def _under(spans: list[list], index: int, name: str) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced run (see the benchmark README).

    Times are summed over threads, so with parallel groups a layer's time
    can exceed the wall time of the run.
    """
    selfs = self_times(spans)
    dur = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    n = defaultdict(int)
    m = defaultdict(int)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    residual = 0.0
    sampler_rows = 0
    for index, (span, self_s) in enumerate(zip(spans, selfs)):
        name = span[NAME]
        dur[name] += span[END] - span[START]
        own[name] += self_s
        calls[name] += 1
        n[name] += span[N]
        m[name] += span[M]
        if name == ROOT:
            residual += self_s
        else:
            layer_self[name.split(".", 1)[0]] += self_s
        if name in TARGET_SPANS and not _under(spans, index, "cli.write"):
            sampler_rows += span[N]

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    kde_s = dur["kde.log_f"] + dur["kde.grad"]
    kde_terms = m["kde.log_f"] + m["kde.grad"]
    targets_s = dur["targets.log_f"] + dur["targets.grad"]
    targets_terms = m["targets.log_f"] + m["targets.grad"]
    moves = n["kernels.mutate"] + n["kernels.step"]
    accepted = m["kernels.mutate"] + m["kernels.step"]
    out = {
        "kde.target.s": kde_s,
        "kde.target.calls": calls["kde.log_f"] + calls["kde.grad"],
        "kde.terms": kde_terms,
        "kde.ns_per_term": ratio(kde_s, kde_terms, 1e9),
        "kde.loo.s": dur["kde.loo"],
        "kde.loo.calls": calls["kde.loo"],
        "targets.log_f.s": dur["targets.log_f"],
        "targets.grad.s": dur["targets.grad"],
        "targets.points": n["targets.log_f"] + n["targets.grad"],
        "targets.ns_per_term": ratio(targets_s, targets_terms, 1e9),
        "targets.evals_per_move": ratio(sampler_rows, moves),
        "core.generator.calls": calls["core.generator"],
        "core.generator.s": dur["core.generator"],
        "kernels.mutate.s": dur["kernels.mutate"],
        "kernels.mutate_self.s": own["kernels.mutate"],
        "kernels.step.calls": calls["kernels.step"],
        "kernels.step.s": dur["kernels.step"],
        "kernels.accept_ratio": ratio(accepted, moves),
        "smc.correction.s": dur["smc.correction"],
        "smc.resample.s": dur["smc.resample"],
        "smc.resample.unique_ratio": ratio(m["smc.resample"], n["smc.resample"]),
        "smc.self.s": own["smc.run"] + own["smc.group"],
        "diagnostics.moments.s": dur["diagnostics.moments"],
        "cli.parse.s": dur["cli.parse"],
        "cli.build.s": own["cli.build"],
        "cli.write.s": dur["cli.write"],
    }
    for layer in LAYERS:
        out[f"self.{layer}.s"] = layer_self[layer]
    out["residual.s"] = residual
    return out
