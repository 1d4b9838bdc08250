"""Self-tests of the benchmark harness (not of the program).

    python3 perfbench/selftest.py

They check the span arithmetic, that the oracle rejects a corrupted
circuit and holds the closed-form bounds at enumerable sizes, that a
seed reproduces its inputs and quality totals, and the speed calibration's
arithmetic.
"""

from __future__ import annotations

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class SpanArithmetic(unittest.TestCase):
    # a [0, 10] with children b [1, 4] and c [5, 9]; c has a child b [6, 7]
    TREE = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 4.0, 0, 2],
        ["c", 5.0, 9.0, 0, 0],
        ["b", 6.0, 7.0, 2, 3],
    ]

    def test_self_time_subtracts_direct_children(self):
        self.assertEqual(spans.self_times(self.TREE), {"a": 3.0, "b": 4.0, "c": 3.0})

    def test_self_times_partition_the_root(self):
        self.assertEqual(sum(spans.self_times(self.TREE).values()), 10.0)

    def test_inclusive_counts_a_layer_once_when_nested_in_itself(self):
        tree = self.TREE + [["b", 1.5, 2.5, 1, 0]]
        self.assertEqual(spans.inclusive_times(tree), {"a": 10.0, "b": 4.0, "c": 4.0})

    def test_calls_and_counts(self):
        self.assertEqual(spans.calls(self.TREE), {"a": 1, "b": 2, "c": 1})
        self.assertEqual(spans.counts(self.TREE)["b"], 5)

    def test_recorder_links_parents(self):
        recorder = spans.Recorder()
        inner = recorder.wrap("inner", lambda: [1, 2, 3], count=len)
        outer = recorder.wrap("outer", lambda: inner() + inner())
        self.assertEqual(outer(), [1, 2, 3, 1, 2, 3])
        layers = [record[spans.LAYER] for record in recorder.spans]
        parents = [record[spans.PARENT] for record in recorder.spans]
        self.assertEqual(layers, ["outer", "inner", "inner"])
        self.assertEqual(parents, [-1, 0, 0])
        self.assertEqual(spans.counts(recorder.spans)["inner"], 6)


def _synthesize(name, **options):
    from repro.api import Pipeline

    return Pipeline().run(name, **options)


class Oracle(unittest.TestCase):
    def test_reference_circuits_pass(self):
        from repro.api import Spec

        for name in ("sequencer", "glatch_5", "philosophers_5"):
            report = _synthesize(name)
            states = oracle.certify(name, Spec.load(name).stg, report.circuit, report.literals)
            self.assertGreater(states, 0)

    def test_corrupted_circuit_is_rejected(self):
        from repro.api import Spec
        from repro.synthesis.netlist import Circuit

        for name in ("sequencer", "selector"):
            report = _synthesize(name)
            data = report.circuit.to_json()
            impl = data["implementations"][0]
            if impl["uses_latch"]:
                impl["set_cover"], impl["reset_cover"] = impl["reset_cover"], impl["set_cover"]
            else:
                impl["set_cover"] = {"variables": impl["set_cover"]["variables"], "cubes": []}
            broken = Circuit.from_json(data)
            with self.assertRaises(oracle.OracleError):
                oracle.certify(name, Spec.load(name).stg, broken, report.literals)

    def test_closed_forms_hold_at_enumerable_sizes(self):
        from repro.api import Spec

        for name in ("muller_pipeline_4", "muller_pipeline_8", "independent_cells_5",
                     "philosophers_5", "glatch_5", "glatch_8"):
            report = _synthesize(name)
            self.assertIsNotNone(oracle.certify(name, Spec.load(name).stg, report.circuit, report.literals))
            self.assertLessEqual(report.literals, oracle.literal_bound(name), name)
        self.assertEqual(_synthesize("muller_pipeline_8").literals, 6 * 8 - 5)

    def test_bound_rejects_a_larger_circuit(self):
        from repro.api import Spec

        report = _synthesize("muller_pipeline_16")
        stg = Spec.load("muller_pipeline_16").stg
        self.assertIsNone(oracle.certify("muller_pipeline_16", stg, report.circuit, report.literals))
        with self.assertRaises(oracle.OracleError):
            oracle.certify("muller_pipeline_16", stg, report.circuit, 6 * 16 - 4)

    def test_matches_requires_identical_outcome(self):
        ref = {"digest": "x", "literals": 3, "area": 6.0}
        self.assertTrue(run.matches(ref, dict(ref)))
        self.assertFalse(run.matches(ref, {**ref, "digest": "y"}))
        self.assertFalse(run.matches(ref, {"error": "synthesis_error"}))
        self.assertTrue(run.matches({"error": "synthesis_error"}, {"error": "synthesis_error"}))
        self.assertFalse(run.matches({"broken": "no reference"}, dict(ref)))

    def test_matches_requires_the_verdicts_the_reference_has(self):
        ref = {"digest": "x", "literals": 3, "area": 6.0, "speed_independent": True, "equivalent": True}
        self.assertTrue(run.matches(ref, dict(ref)))
        self.assertFalse(run.matches(ref, {**ref, "equivalent": False}))
        self.assertFalse(run.matches(ref, {**ref, "speed_independent": None}))
        for key in run.VERDICTS:
            missing = dict(ref)
            del missing[key]
            self.assertFalse(run.matches(ref, missing), key)

    def test_reference_of_an_uncertifiable_spec_is_broken(self):
        # sequencer synthesizes: a circuit where an error was expected is broken
        ref = run.reference("sequencer", "sequencer", {}, expected_error="synthesis_error")
        self.assertIn("broken", ref)

    def test_well_formed_follows_the_paper_class(self):
        from repro.api import Spec

        for name in workloads.CLASSICS + ("fig1", "glatch_3", "muller_pipeline_4"):
            self.assertTrue(oracle.well_formed(Spec.load(name).stg, oracle.ENUMERATION_CAP), name)
        # latch_ctrl violates CSC, so its typed synthesis error is the right answer
        self.assertFalse(oracle.well_formed(Spec.load("latch_ctrl").stg, oracle.ENUMERATION_CAP))
        self.assertFalse(oracle.well_formed(Spec.load("fig1").stg, 2))


class Seeds(unittest.TestCase):
    def test_serve_stream_repeats_by_seed(self):
        self.assertEqual(workloads.serve_stream(5, 2), workloads.serve_stream(5, 2))
        self.assertNotEqual(workloads.serve_stream(5, 2), workloads.serve_stream(6, 2))

    def test_serve_rounds_hold_the_same_requests(self):
        rounds = workloads.serve_stream(5, 2) + workloads.serve_stream(6, 1)
        multisets = {tuple(sorted(map(str, (r for r in requests if r[0] != "novel"))))
                     for requests in rounds}
        self.assertEqual(len(multisets), 1)
        self.assertEqual({len(requests) for requests in rounds}, {workloads.SERVE_ROUND})
        novel = [key for requests in workloads.serve_stream(5, 2)
                 for klass, key in requests if klass == "novel"]
        self.assertEqual(sorted(novel), list(range(2 * workloads.NOVEL_PER_ROUND)))

    def test_each_round_opens_with_its_after_clear_block(self):
        warm = len(workloads.WARM_SPECS)
        for requests in workloads.serve_stream(5, 2):
            block = requests[:warm]
            self.assertEqual(sorted(key for _, key in block), sorted(workloads.WARM_SPECS))
            self.assertEqual({klass for klass, _ in block}, {"after_clear"})
            self.assertNotIn("after_clear", {klass for klass, _ in requests[warm:]})

    def test_novel_specs_repeat_by_seed(self):
        first = [spec.text for spec in workloads.novel_specs(3, 2)]
        self.assertEqual(first, [spec.text for spec in workloads.novel_specs(3, 2)])

    def test_novel_specs_are_chosen_without_the_program(self):
        from repro.api import Pipeline

        calls = []
        original = Pipeline.run
        Pipeline.run = lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs)
        try:
            chosen = workloads.novel_specs(4, 3)
        finally:
            Pipeline.run = original
        self.assertEqual(calls, [])
        for spec in chosen:
            self.assertTrue(oracle.well_formed(spec.stg, workloads.NOVEL_MAX_MARKINGS))

    def test_pass_orders_repeat_by_seed(self):
        workload = workloads.COMPUTE["exact_registry"]
        self.assertEqual(workloads.pass_orders(workload, 9, 3), workloads.pass_orders(workload, 9, 3))

    def test_quality_totals_repeat(self):
        options = {"map_technology": True}
        totals = []
        for _ in range(2):
            ops = [
                (name, run.reference(name, name, options, workloads.EXPECTED_ERRORS.get(name)))
                for name in workloads.WARM_SPECS
            ]
            totals.append(run.quality(ops, set(workloads.WARM_SPECS)))
        self.assertEqual(totals[0], totals[1])
        self.assertGreater(totals[0][0], 0)


class Calibration(unittest.TestCase):
    def test_reference_speed_leaves_times_alone(self):
        ref = calibrate.REFERENCE_SLICE
        self.assertEqual(calibrate.calibrated([(ref, 2.0), (ref, 3.0)]), [2.0, 3.0])

    def test_faster_state_scales_times_up_by_the_elasticity(self):
        ref = calibrate.REFERENCE_SLICE
        (scaled,) = calibrate.calibrated([(ref / 2, 1.0)])
        self.assertAlmostEqual(scaled, 2 ** calibrate.ELASTICITY)

    def test_a_factor_is_the_median_of_a_slice_and_its_neighbours(self):
        ref = calibrate.REFERENCE_SLICE
        # one stray fast slice between two slow ones does not move the middle factor
        factors = calibrate.factors([ref, ref / 2, ref, ref])
        self.assertEqual(factors[1:], [1.0, 1.0, 1.0])
        self.assertAlmostEqual(factors[0], (ref / (0.75 * ref)) ** calibrate.ELASTICITY)


if __name__ == "__main__":
    unittest.main()
