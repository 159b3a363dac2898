"""Self-tests for the benchmark harness (not part of the program's suite).

    python3 bench/selftest.py          # or: python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402
from workloads import Expected, Workload, write_inputs, config_text  # noqa: E402

from arfdx import cohort  # noqa: E402

TINY = Workload(
    name="tiny", n_patients=150, learning_rates="0.1", momentums="0.9",
    weight_decays="1e-4", max_epochs=2, explain_repeats=1, dense=True, auroc_floor=0.0,
)


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


class TestSelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # outer [0, 10] holds a [1, 3] and b [4, 8]; b holds c [5, 6]
        tracer = Tracer(clock=FakeClock([0, 1, 3, 4, 5, 6, 8, 10]))
        c = tracer.wrap("c", lambda: None)
        b = tracer.wrap("b", lambda: c())
        a = tracer.wrap("a", lambda: None)

        def outer():
            a()
            b()

        tracer.call("outer", outer)
        stats = summarize(tracer.as_dict())
        self.assertEqual(stats["outer"], {"calls": 1, "total_s": 10, "self_s": 4})
        self.assertEqual(stats["a"]["self_s"], 2)
        self.assertEqual(stats["b"], {"calls": 1, "total_s": 4, "self_s": 3})
        self.assertEqual(stats["c"]["self_s"], 1)

    def test_overlapping_children_count_once(self):
        dump = {
            "names": ["p", "k"], "name_id": [0, 1, 1],
            "start": [0.0, 1.0, 3.0], "end": [10.0, 5.0, 7.0], "parent": [-1, 0, 0],
        }
        self.assertEqual(summarize(dump)["p"]["self_s"], 4.0)

    def test_exception_closes_span_and_reaches_hook(self):
        seen = []
        tracer = Tracer(clock=FakeClock([0, 2]))

        def boom():
            raise ValueError("x")

        wrapped = tracer.wrap("boom", boom, hook=lambda c, a, k, r, exc: seen.append(type(exc)))
        with self.assertRaises(ValueError):
            wrapped()
        self.assertEqual(seen, [ValueError])
        self.assertEqual(summarize(tracer.as_dict())["boom"]["total_s"], 2)


class TestAbsentNames(unittest.TestCase):
    def test_missing_attribute_and_module_are_absent_not_errors(self):
        tracer = Tracer()
        tracer.install([
            ("models.loss", "arfdx.models", "no_such_function", None),
            ("gone.fn", "arfdx.no_such_module", "fn", None),
        ])
        self.assertEqual(tracer.absent, ["models.loss", "gone.fn"])

    def test_absent_names_read_zero(self):
        dump = Tracer().as_dict()
        dump["absent"] = ["models.loss"]
        stages = {stage: dump for stage in layers.STAGES}
        values, absent = layers.per_layer_values(
            stages, untraced={s: (1.0, 1.0) for s in layers.STAGES},
            spawned_at={s: 1.0 for s in layers.STAGES}, synth_s=0.1, overhead_s=0.0,
        )
        self.assertEqual(absent, ["models.loss"])
        self.assertEqual(values["models.loss.calls"], 0.0)
        self.assertEqual(set(values), set(layers.PER_LAYER))


class TestDenseGenerator(unittest.TestCase):
    def test_counts_match_expected(self):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            expected = write_inputs(TINY, seed=3, dest=tmp)
            self.assertEqual(
                (expected.generated, expected.rejected, expected.excluded, expected.fallback_labels),
                (150, 2, 8, 15),
            )
            stays = cohort.load_cohort(tmp / "cohort.ndjson", rejects_path=tmp / "rejects.txt")
            rejects = (tmp / "rejects.txt").read_text().splitlines()
            included = [s for s in stays if cohort.include_stay(s, cohort.CohortConfig())]
            self.assertEqual(len(rejects), expected.rejected)
            self.assertEqual(len(stays), expected.generated - expected.rejected)
            self.assertEqual(len(stays) - len(included), expected.excluded)
            self.assertEqual(len(included), expected.included)
            self.assertEqual(sum(not s.reviews for s in included), expected.fallback_labels)
            for stay in included:
                self.assertEqual([len(s.image_refs) for s in stay.studies], [3, 3, 3])
                self.assertEqual(cohort.select_study(stay).study_id, stay.patient_id + "-s0")

    def test_same_seed_same_bytes(self):
        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp) / "a", Path(tmp) / "b"
            write_inputs(TINY, seed=5, dest=a)
            write_inputs(TINY, seed=5, dest=b)
            for name in ("cohort.ndjson", "embeddings.bin", "ruleset.json"):
                self.assertEqual((a / name).read_bytes(), (b / name).read_bytes())


class TestMeasure(unittest.TestCase):
    def test_stage_reruns_keep_artifacts_and_give_every_metric(self):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            expected = write_inputs(TINY, seed=9, dest=tmp / "inputs")
            config = tmp / "run.ini"
            config.write_text(config_text(TINY, 9, tmp / "inputs"))
            env = dict(run.os.environ, PYTHONPATH=str(run.SRC))
            ctx = run.Context(TINY, expected, config, env, time.monotonic() + 170, tmp / "log")
            run.signal.signal(run.signal.SIGALRM, run._on_alarm)
            tally = run.Tally()
            metrics = run.measure(ctx, tmp, seconds=12.0, tally=tally)
            self.assertEqual(tally.failed, 0, tally.notes)
            self.assertGreater(tally.attempted, 6 + len(checks.DETERMINISTIC) + 5)  # some stages re-ran
            spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
            self.assertEqual(set(metrics) | {"setup_s"}, {m["name"] for m in spec["end_to_end"]})
            self.assertGreater(metrics["pipeline_cpu_s"], metrics["prep_cpu_s"] + metrics["train_cpu_s"]
                               + metrics["evaluate_cpu_s"])  # plus explain


class TestTracedPass(unittest.TestCase):
    def test_traced_artifacts_identical_and_checks_pass(self):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            expected = write_inputs(TINY, seed=7, dest=tmp / "inputs")
            config = tmp / "run.ini"
            config.write_text(config_text(TINY, 7, tmp / "inputs"))
            env = dict(run.os.environ, PYTHONPATH=str(run.SRC))
            env.pop("ARFDX_THREADS", None)
            ctx = run.Context(TINY, expected, config, env, time.monotonic() + 170, tmp / "log")
            run.signal.signal(run.signal.SIGALRM, run._on_alarm)
            plain = run.run_pipeline(ctx, tmp / "plain")
            (tmp / "spans").mkdir()
            traced = run.run_pipeline(ctx, tmp / "traced", tmp / "spans")
            self.assertEqual([r.code for r in plain + traced], [0] * 12, (tmp / "log").read_text())
            self.assertEqual(checks.digests(tmp / "plain"), checks.digests(tmp / "traced"))
            self.assertEqual(len(checks.digests(tmp / "plain")), len(checks.DETERMINISTIC))

            results = checks.check_outputs(tmp / "plain", TINY, expected)
            self.assertTrue(all(ok for _, ok, _ in results), [r for r in results if not r[1]])
            wrong = Expected(expected.generated, expected.rejected, expected.excluded + 1, expected.fallback_labels)
            failed = [name for name, ok, _ in checks.check_outputs(tmp / "plain", TINY, wrong) if not ok]
            self.assertEqual(failed, ["included stays"])

            dumps = {s: json.loads((tmp / "spans" / f"{s}.json").read_text()) for s in layers.STAGES}
            values, absent = layers.per_layer_values(
                dumps, untraced={r.stage: (r.wall_s, r.cpu_s) for r in plain},
                spawned_at={r.stage: r.spawned_at for r in traced}, synth_s=0.1, overhead_s=0.0,
            )
            self.assertEqual(absent, [])
            self.assertEqual(values["cli.load_included_stays.calls"], 6)
            # selected study only (3 of 9 images), and only for included stays
            self.assertAlmostEqual(
                values["imaging.load_embeddings.records_used_ratio"],
                expected.included * 3 / (expected.generated * 9),
            )
            self.assertEqual(values["models.train.calls"], 25)  # 5 kinds x 5 splits
            self.assertGreater(values["models.backward.calls"], 0)
            self.assertGreater(values["evaluation.roc_points.self_s"], 0)


if __name__ == "__main__":
    unittest.main()
