"""Self-tests of the benchmark harness: span arithmetic and output checks.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import tempfile
import threading
import unittest
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import checks
import spans


def _span(name, start, end, parent=-1, thread=1, group=-1, n=0, m=0):
    return [name, start, end, parent, thread, group, n, m]


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        tree = [
            _span("run", 0.0, 10.0),
            _span("smc.correction", 1.0, 4.0, parent=0),
            _span("kde.loo", 2.0, 3.0, parent=1),
            _span("kernels.mutate", 3.5, 6.0, parent=0),  # overlaps its sibling
        ]
        self.assertEqual(spans.self_times(tree), [5.0, 2.0, 1.0, 2.5])

    def test_two_thread_spans(self):
        # a pool hands two groups to two threads; their intervals overlap
        # each other and the first starts before the pool span is recorded
        tree = [
            _span("smc.run", 1.0, 10.0, thread=1),
            _span("smc.group", 0.5, 8.0, parent=0, thread=2, group=0),
            _span("smc.group", 2.0, 9.0, parent=0, thread=3, group=1),
            _span("kde.log_f", 1.0, 7.0, parent=1, thread=2, group=0),
            _span("kde.log_f", 3.0, 8.5, parent=2, thread=3, group=1),
        ]
        self.assertEqual(spans.self_times(tree), [1.0, 1.5, 1.5, 6.0, 5.5])

    def test_summary_splits_layers_and_residual(self):
        tree = [
            _span("run", 0.0, 10.0),
            _span("smc.run", 0.0, 6.0, parent=0),
            _span("kernels.mutate", 1.0, 5.0, parent=1, n=100, m=80),
            _span("kde.grad", 2.0, 4.0, parent=2, n=100, m=100 * 50),
            _span("cli.write", 6.0, 9.0, parent=0),
            _span("kde.log_f", 7.0, 8.0, parent=4, n=30, m=30 * 50),
        ]
        out = spans.summarize(tree)
        self.assertEqual(out["residual.s"], 1.0)
        self.assertEqual(out["self.smc.s"], 2.0)
        self.assertEqual(out["self.kernels.s"], 2.0)
        self.assertEqual(out["self.kde.s"], 3.0)
        self.assertEqual(out["self.cli.s"], 2.0)
        self.assertEqual(out["kde.terms"], 6500)
        self.assertEqual(out["kernels.accept_ratio"], 0.8)
        # rows the writer evaluates are not sampler evaluations
        self.assertEqual(out["targets.evals_per_move"], 1.0)
        self.assertEqual(out["kernels.mutate_self.s"], 2.0)

    def test_tracer_adopts_pool_threads(self):
        tracer = spans.Tracer()
        leaf = tracer.wrap(lambda x: x, "kde.log_f")
        group = tracer.wrap(lambda j: (leaf(j), threading.get_ident())[1], "smc.group",
                            group_arg=True)

        def fan_out():
            with ThreadPoolExecutor(max_workers=2) as pool:
                return list(pool.map(group, [0, 1]))

        tracer.wrap(fan_out, "smc.run", fork=True)()
        recorded = tracer.spans
        fork = next(i for i, s in enumerate(recorded) if s[spans.NAME] == "smc.run")
        for i, s in enumerate(recorded):
            if s[spans.NAME] == "smc.group":
                self.assertEqual(s[spans.PARENT], fork)
                leaves = [c for c in recorded if c[spans.PARENT] == i]
                self.assertEqual(len(leaves), 1)
                self.assertEqual(leaves[0][spans.GROUP], s[spans.GROUP])
        self.assertEqual(sorted(s[spans.GROUP] for s in recorded
                                if s[spans.NAME] == "smc.group"), [0, 1])


SHAPE = {"algorithm": "mh", "particles": 0, "groups": 1, "mutation_steps": 1,
         "kernel": ["mh", 0.2], "length": 3}


def _write_run(out: Path) -> None:
    lines = ["group,iteration,particle_id,x0,x1,weight,accepted"]
    lines += [f"0,{i},0,{0.1 * i!r},{-0.2 * i!r},1.0,1" for i in range(4)]
    (out / "particles.csv").write_text("\n".join(lines) + "\n")
    grid = ["x,y,log_f"] + ["0.5,-0.5,-1.25"] * checks.GRID_ROWS
    (out / "grid.csv").write_text("\n".join(grid) + "\n")
    report = {"algorithm": "mh", "seed": 1, "n_particles": 4, "n_groups": 1,
              "n_iterations": 3, "rows": [{"group": 0, "mean": [0.1, -0.2]}],
              "group_divergence": None}
    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")


class OutputCheckTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.out = Path(self._tmp.name)
        _write_run(self.out)

    def tearDown(self):
        self._tmp.cleanup()

    def test_complete_run_passes(self):
        self.assertEqual(checks.check_outputs(self.out, SHAPE, record_all=False), [])

    def test_truncated_particles_rejected(self):
        path = self.out / "particles.csv"
        text = path.read_text()
        for cut in (len(text) - 5, text.rindex("\n", 0, len(text) - 1) + 1):
            path.write_text(text[:cut])
            self.assertTrue(checks.check_outputs(self.out, SHAPE, record_all=False), cut)

    def test_particle_outside_box_rejected(self):
        box = ((-0.5, -0.5), (0.25, 0.5))
        problems = checks.check_outputs(self.out, SHAPE, record_all=False, box=box)
        self.assertEqual(len(problems), 1)
        self.assertIn("outside the box", problems[0])

    def test_report_differing_by_one_byte_rejected(self):
        reference = (self.out / "report.json").read_bytes()
        self.assertEqual(checks.check_same_report(reference, self.out), [])
        changed = bytearray(reference)
        changed[-3] ^= 1
        (self.out / "report.json").write_bytes(bytes(changed))
        self.assertTrue(checks.check_same_report(reference, self.out))


if __name__ == "__main__":
    unittest.main()
