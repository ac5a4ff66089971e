"""Self-tests of the benchmark itself (not of ``repro``).

Run from the root of a checkout::

    python3 perfbench/selftest.py

They check that the generator is seed-determined, that self-time
arithmetic is right, that untraced runs install no wrappers, and that every
boundary records calls on the workload that should exercise it.
"""

from __future__ import annotations

import itertools
import os
import shutil
import sys
import tempfile
import unittest

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import hostspeed  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

#: Boundaries each workload must exercise (the README's layer table).
COVERAGE = {
    "design": (
        "api.optimize",
        "scenarios.build_structure",
        "floorplan.cavity",
        "core.optimizer.optimize",
        "core.constraints.pressure_drops",
        "core.constraints.jacobian",
        "hydraulics.pressure_drop",
        "core.engine.solve",
        "core.adjoint.gradient",
        "thermal.fdm.solve_structure",
        "thermal.assembly.assemble_system",
        "thermal.backends.solve",
    ),
    "transient": (
        "api.run",
        "scenarios.build_stack",
        "scenarios.spec_hash",
        "hydraulics.flow_network",
        "hydraulics.pressure_drop",
        "ice.assemble",
        "ice.integrate",
        "transient_engine.simulate",
        "core.rom.build",
        "thermal.backends.solve",
    ),
    "campaign": (
        "api.run_many",
        "api.run",
        "sweeps.scenarios",
        "scenarios.build_structure",
        "scenarios.build_stack",
        "floorplan.cavity",
        "exec.execute_task",
        "core.engine.solve",
        "thermal.fdm.solve_structure",
        "thermal.assembly.assemble_system",
        "thermal.backends.solve",
        "ice.assemble",
        "ice.steady_solve",
        "hydraulics.flow_network",
        "hydraulics.pressure_drop",
        "campaign.append",
        "serve.cache.get",
        "serve.cache.put",
    ),
}


def _first_ops(workload, seed, count):
    return [
        (op.kind, op.payload)
        for op in itertools.islice(workloads.generate(workload, seed), count)
    ]


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in workloads.WORKLOADS:
            count = 3 * workloads.block_size(workload)
            self.assertEqual(_first_ops(workload, 7, count), _first_ops(workload, 7, count))

    def test_different_seeds_different_inputs(self):
        for workload in workloads.WORKLOADS:
            count = 3 * workloads.block_size(workload)
            first = _first_ops(workload, 7, count)
            second = _first_ops(workload, 8, count)
            self.assertTrue(all(a != b for a, b in zip(first, second)), workload)

    def test_ops_are_distinct_and_blocks_share_one_mix(self):
        for workload in workloads.WORKLOADS:
            block = workloads.block_size(workload)
            ops = list(itertools.islice(workloads.generate(workload, 3), 4 * block))
            fresh = [op.payload["name"] for op in ops if op.kind != "replay"]
            self.assertEqual(len(fresh), len(set(fresh)), workload)
            mixes = [
                sorted(op.kind for op in ops[start : start + block])
                for start in range(0, len(ops), block)
            ]
            self.assertTrue(all(mix == mixes[0] for mix in mixes), workload)

    def test_replays_resubmit_earlier_sweeps(self):
        seen = []
        for op in itertools.islice(workloads.generate("campaign", 5), 16):
            if op.kind == "replay":
                self.assertIn(op.payload, seen)
            else:
                seen.append(op.payload)


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_tree(self):
        # root [0, 10] > a [1, 4] > c [2, 3];  root > b [5, 9]
        tree = [
            ("c", 4, 2, 0, 2.0, 3.0),
            ("a", 2, 1, 0, 1.0, 4.0),
            ("b", 3, 1, 0, 5.0, 9.0),
            ("root", 1, 0, 0, 0.0, 10.0),
        ]
        self.assertEqual(spans.self_times(tree), {1: 3.0, 2: 2.0, 3: 4.0, 4: 1.0})
        summary = spans.summarize(tree + [("c", 5, 3, 0, 6.0, 6.5)])
        self.assertEqual(summary["c"], {"calls": 2, "self_s": 1.5})
        self.assertEqual(summary["b"], {"calls": 1, "self_s": 3.5})

    def test_reentrant_calls_fold_into_one_span(self):
        tracer = spans.Tracer(boundaries=())

        def inner():
            return tracer.call("layer", lambda: 5, (), {})

        self.assertEqual(tracer.run_op(0, tracer.call, "layer", inner, (), {}), 5)
        self.assertEqual([span[0] for span in tracer.spans], ["layer", "op"])
        layer, op = tracer.spans
        self.assertEqual(layer[2], op[1])


class _WorkDir(unittest.TestCase):
    def setUp(self):
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        self.work_dir = tempfile.mkdtemp(prefix="selftest-", dir=out_dir)

    def tearDown(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)


class UntracedTest(_WorkDir):
    def test_untraced_run_installs_no_wrappers(self):
        installs = []
        original = spans.Tracer.install
        spans.Tracer.install = lambda self: installs.append(self)
        try:
            runner = workloads.Runner("campaign", self.work_dir)
            records, _, _, probes = worker._timed_loop(
                runner, "campaign", 1, 0.5, None, hostspeed.HostProbe()
            )
        finally:
            spans.Tracer.install = original
        self.assertGreaterEqual(len(records), 1)
        self.assertEqual(len(probes), records[-1]["probe"] + 2)
        self.assertEqual(installs, [])
        self.assertEqual(spans.wrapped_targets(), [])


class CoverageTest(_WorkDir):
    def test_every_boundary_has_a_workload(self):
        covered = set().union(*COVERAGE.values())
        self.assertEqual(covered, set(spans.BOUNDARY_NAMES))

    def test_each_workload_exercises_its_boundaries(self):
        for workload, expected in COVERAGE.items():
            with self.subTest(workload=workload):
                runner = workloads.Runner(
                    workload, tempfile.mkdtemp(dir=self.work_dir)
                )
                tracer = spans.Tracer()
                ops = workloads.generate(workload, 11)
                for op in itertools.islice(ops, workloads.block_size(workload)):
                    prepared = runner.prepare(op)
                    tracer.install()
                    try:
                        output = tracer.run_op(op.index, runner.execute, prepared)
                    finally:
                        tracer.uninstall()
                    self.assertEqual(runner.check(op, prepared, output), [])
                self.assertEqual(spans.wrapped_targets(), [])
                summary = spans.summarize(tracer.spans)
                missing = [name for name in expected if name not in summary]
                self.assertEqual(missing, [])

    def test_from_imports_are_wrapped(self):
        import repro.core.engine
        import repro.thermal.fdm

        original = repro.thermal.fdm.solve_structure
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertTrue(hasattr(repro.core.engine.solve_structure, spans.MARKER))
        finally:
            tracer.uninstall()
        self.assertIs(repro.core.engine.solve_structure, original)


if __name__ == "__main__":
    unittest.main()
