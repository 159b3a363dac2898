import csv
import dataclasses
import json

import numpy as np
import pytest

from arfdx import cli, cohort, evaluation, explain, imaging, labels, synth
from arfdx._util import stage_seed

MINI_CONFIG = """\
[run]
seed = 11

[synth]
n_patients = 60
n_numeric_vars = 6
emb_dim = 6

[train]
families = ehr

[sweep]
learning_rates = 0.3
momentums = 0.9
weight_decays = 1e-3
max_epochs = 3
"""


UNANIMOUS_STAY = {
    "patient_id": "p1",
    "admit_time": 0,
    "events": [{"variable": "hr", "time": 10, "value": 80.0}],
    "support_events": [[600, "IMV"]],
    "studies": [{"study_id": "s1", "time": 600, "image_refs": ["s1-i0"]}],
    "unit_intervals": [],
    "reviews": [
        {"reviewer_id": "a", "scores": {"pneumonia": 4, "heart_failure": 4, "copd": 4}},
        {"reviewer_id": "b", "scores": {"pneumonia": 4, "heart_failure": 4, "copd": 4}},
    ],
    "icd_codes": [],
    "medications": [],
}


@pytest.fixture()
def mini_run(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(MINI_CONFIG)
    out = tmp_path / "out"
    for stage in ("synth", "label", "featurize", "split", "train"):
        assert cli.main([stage, "--config", str(config), "--out", str(out)]) == 0
    return config, out


class TestStageSeed:
    def test_distinct_per_stage(self):
        seeds = {stage_seed(7, stage) for stage in ("synth", "split", "train/ehr/split0")}
        assert len(seeds) == 3

    def test_stable_across_calls(self):
        assert stage_seed(7, "synth") == stage_seed(7, "synth")


class TestPipelineStages:
    def test_artifacts_written_with_provenance_headers(self, mini_run):
        config, out = mini_run
        for name in ("cohort.ndjson", "labels.csv", "features.ndjson", "splits.csv", "sweep_log.csv"):
            first_line = (out / name).read_text().splitlines()[0]
            assert first_line.startswith("# arfdx ")
            assert "seed=11" in first_line

    def test_evaluate_and_explain_complete(self, mini_run):
        config, out = mini_run
        assert cli.main(["evaluate", "--config", str(config), "--out", str(out)]) == 0
        assert cli.main(["explain", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "metrics.csv").exists()
        assert (out / "cross_split_summary.csv").exists()
        assert (out / "importance_ehr.csv").exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(MINI_CONFIG)
        out = tmp_path / "out"
        assert cli.main(["synth", "--config", str(config), "--seed", "99", "--out", str(out)]) == 0
        header = (out / "cohort.ndjson").read_text().splitlines()[0]
        assert "seed=99" in header

    def test_stages_do_not_mutate_inputs(self, mini_run, tmp_path):
        config, out = mini_run
        before = (out / "cohort.ndjson").read_bytes()
        assert cli.main(["featurize", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "cohort.ndjson").read_bytes() == before


class TestErrorHandling:
    def test_missing_config_file_exits_2(self, tmp_path):
        code = cli.main(["synth", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG_ERROR

    def test_evaluate_without_checkpoint_exits_2_and_names_path(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text(MINI_CONFIG)
        out = tmp_path / "out"
        for stage in ("synth", "label", "featurize", "split"):
            assert cli.main([stage, "--config", str(config), "--out", str(out)]) == 0
        code = cli.main(["evaluate", "--config", str(config), "--out", str(out)])
        assert code == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "checkpoint_ehr_split0.json" in err

    def test_unknown_family_exits_2(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(MINI_CONFIG.replace("families = ehr", "families = tabular"))
        out = tmp_path / "out"
        code = cli.main(["synth", "--config", str(config), "--out", str(out)])
        assert code == 0  # synth does not read families
        code = cli.main(["train", "--config", str(config), "--out", str(out)])
        assert code == cli.EXIT_CONFIG_ERROR

    def test_corrupt_checkpoint_exits_1(self, mini_run, capsys):
        config, out = mini_run
        ckpt = out / "checkpoint_ehr_split0.json"
        payload = json.loads(ckpt.read_text())
        name = next(iter(payload["params"]))
        payload["params"][name]["shape"] = [1, 1]
        ckpt.write_text(json.dumps(payload))
        code = cli.main(["evaluate", "--config", str(config), "--out", str(out)])
        assert code == cli.EXIT_MODULE_ERROR
        assert "ModelError" in capsys.readouterr().err

    def test_missing_cohort_input_exits_2(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(MINI_CONFIG)
        code = cli.main(["label", "--config", str(config), "--out", str(tmp_path / "empty")])
        assert code == cli.EXIT_CONFIG_ERROR


class TestAgreementDegradation:
    def test_unanimous_calls_leave_kappa_empty(self, tmp_path):
        # every reviewer rates every diagnosis "unlikely": raw agreement is 1
        # but kappa is undefined, and the label stage must still complete
        out = tmp_path / "out"
        out.mkdir()
        (out / "cohort.ndjson").write_text(json.dumps(UNANIMOUS_STAY) + "\n")
        (out / "ruleset.json").write_text(json.dumps({
            d: {"icd": ["X"], "medications": ["Y"]}
            for d in ("pneumonia", "heart_failure", "copd")
        }))
        assert cli.main(["label", "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "agreement.csv").read_text().splitlines()[2:]]
        assert all(row[1] == "" and row[2] == "1.0" for row in rows)


class TestDuplicatePatients:
    def test_label_exits_1_before_writing_anything(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "cohort.ndjson").write_text((json.dumps(UNANIMOUS_STAY) + "\n") * 2)
        labels.save_ruleset(out / "ruleset.json", synth.default_ruleset())
        assert cli.main(["label", "--out", str(out)]) == cli.EXIT_MODULE_ERROR
        assert "duplicate patient_id 'p1' on lines 1 and 2" in capsys.readouterr().err
        assert sorted(path.name for path in out.iterdir()) == ["cohort.ndjson", "ruleset.json"]


MULTI_IMAGE_CONFIG = """\
[run]
seed = 5

[train]
families = combined

[sweep]
learning_rates = 0.3
momentums = 0.9
weight_decays = 1e-3
max_epochs = 3

[explain]
repeats = 1
"""


def write_multi_image_inputs(out, n_patients=200, images_per_study=3):
    """A synthetic cohort whose selected studies hold several noisy images each."""
    generated = synth.generate(synth.SynthSpec(n_patients=n_patients, n_numeric_vars=6, emb_dim=6, seed=3))
    rng = np.random.default_rng(4)
    stays = []
    embeddings = []
    for stay in generated.stays:
        study = stay.studies[0]
        base = generated.embeddings[study.image_refs[0]].vector
        refs = tuple(f"{study.study_id}-i{k}" for k in range(images_per_study))
        embeddings.extend(imaging.ImageEmbedding(ref, base + rng.normal(0.0, 1.0, base.shape)) for ref in refs)
        stays.append(dataclasses.replace(stay, studies=[dataclasses.replace(study, image_refs=refs)]))
    out.mkdir()
    cohort.write_cohort(out / "cohort.ndjson", stays)
    imaging.write_embeddings(out / "embeddings.bin", sorted(embeddings, key=lambda e: e.study_image_id))
    labels.save_ruleset(out / "ruleset.json", generated.ruleset)


class TestOnePredictionPath:
    def test_explain_baseline_equals_evaluate_test_auroc(self, tmp_path, monkeypatch):
        config = tmp_path / "run.ini"
        config.write_text(MULTI_IMAGE_CONFIG)
        out = tmp_path / "out"
        write_multi_image_inputs(out)
        for stage in ("label", "featurize", "split", "train", "evaluate"):
            assert cli.main([stage, "--config", str(config), "--out", str(out)]) == 0

        baselines = []
        permutation_importance = explain.permutation_importance

        def recording(predict, feature_bits, y, *args, **kwargs):
            try:
                baselines.append(evaluation.auroc(predict(feature_bits), y))
            except evaluation.SingleClass:
                baselines.append(None)
            return permutation_importance(predict, feature_bits, y, *args, **kwargs)

        monkeypatch.setattr(explain, "permutation_importance", recording)
        assert cli.main(["explain", "--config", str(config), "--out", str(out)]) == 0

        with (out / "metrics.csv").open(newline="") as handle:
            rows = [row for row in csv.reader(handle) if row and not row[0].startswith("#")][1:]
        test_auroc = {
            (diag, int(split)): None if value == "" else float(value)
            for model, split, diag, metric, value in rows
            if model == "combined" and metric == "auroc" and diag != "macro"
        }
        # explain walks diagnoses, then splits
        expected = [test_auroc[(diag, k)] for diag in labels.DIAGNOSES for k in range(cli.N_SPLITS)]
        assert sum(b is not None for b in baselines) >= 10
        assert baselines == expected
