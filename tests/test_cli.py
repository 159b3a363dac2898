import csv
import dataclasses
import fnmatch
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import arfdx
from arfdx import cli, cohort, evaluation, explain, featurize, imaging, labels, models, synth
from arfdx._util import stage_seed
from oracles import physician_comparison_reference, pooled_table_loop, predict_reference

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

    def test_label_through_explain_leave_input_directory_untouched(self, tmp_path):
        inputs = tmp_path / "inputs"
        config = tmp_path / "run.ini"
        config.write_text(MINI_CONFIG)
        assert cli.main(["synth", "--config", str(config), "--out", str(inputs)]) == 0
        config.write_text(
            MINI_CONFIG
            + "\n[paths]\n"
            + "".join(f"{key} = {inputs / name}\n" for key, name in (
                ("cohort", "cohort.ndjson"), ("embeddings", "embeddings.bin"), ("ruleset", "ruleset.json")
            ))
        )
        before = {path.name: path.stat().st_mtime_ns for path in inputs.iterdir()}
        out = tmp_path / "out"
        for stage in ("label", "featurize", "split", "train", "evaluate", "explain"):
            assert cli.main([stage, "--config", str(config), "--out", str(out)]) == 0
        assert {path.name: path.stat().st_mtime_ns for path in inputs.iterdir()} == before
        assert (out / "cohort_rejects.txt").read_text() == ""


class TestCohortOrder:
    @staticmethod
    def assert_input_order_is_moot(tmp_path, input_name, reorder):
        """Every artifact from the synth inputs equals the one from a copy whose
        input `input_name` holds the same records in the order `reorder` gives."""
        config = tmp_path / "run.ini"
        config.write_text(MINI_CONFIG)
        out, reversed_out = tmp_path / "out", tmp_path / "reversed"
        run_stages(config, out, ("synth",))
        shutil.copytree(out, reversed_out)
        reorder(out / input_name, reversed_out / input_name)
        assert (reversed_out / input_name).read_bytes() != (out / input_name).read_bytes()
        stages = ("label", "featurize", "split", "train", "evaluate", "explain")
        run_stages(config, out, stages)
        run_stages(config, reversed_out, stages)
        skipped = {input_name, "cohort_rejects.txt"}  # the input, and the rejects that name the cohort's lines
        artifacts = sorted(path.name for path in out.iterdir() if path.name not in skipped)
        assert sorted(path.name for path in reversed_out.iterdir() if path.name not in skipped) == artifacts
        assert [name for name in artifacts if (out / name).read_bytes() != (reversed_out / name).read_bytes()] == []

    def test_reversed_cohort_writes_the_same_artifacts(self, tmp_path):
        def reverse(source, dest):
            header, *body = source.read_text().splitlines(keepends=True)
            dest.write_text(header + "".join(reversed(body)))

        self.assert_input_order_is_moot(tmp_path, "cohort.ndjson", reverse)

    def test_reversed_embeddings_write_the_same_artifacts(self, tmp_path):
        def reverse(source, dest):
            records = imaging.load_embeddings(source).items()
            imaging.write_embeddings(dest, [imaging.ImageEmbedding(key, vector) for key, vector in reversed(records)])

        self.assert_input_order_is_moot(tmp_path, "embeddings.bin", reverse)


class TestArtifactTable:
    def test_each_artifact_first_appears_after_its_writing_stage(self, tmp_path):
        """After each stage, every file in the output directory is an input or an
        `ARTIFACTS` entry of that stage or an earlier one, each entry of those
        stages has a file, and each CSV's header is its entry's columns."""
        config = tmp_path / "run.ini"
        config.write_text(MINI_CONFIG)
        out = tmp_path / "out"
        for done, stage in enumerate(cli.STAGES, start=1):
            assert cli.main([stage, "--config", str(config), "--out", str(out)]) == 0
            for path in out.iterdir():
                if path.name in cli.INPUT_FILES.values():
                    continue
                [entry] = [entry for key, entry in cli.ARTIFACTS.items() if fnmatch.fnmatchcase(path.name, key)]
                assert entry.stage in cli.STAGES[:done], (stage, path.name)
                if path.suffix == ".csv":
                    with path.open(newline="") as handle:
                        assert tuple(list(csv.reader(handle))[1]) == entry.layout, path.name
            for key, entry in cli.ARTIFACTS.items():
                assert bool(list(out.glob(key))) == (entry.stage in cli.STAGES[:done]), (stage, key)


PATIENT_IDS = st.lists(
    st.text(st.characters(exclude_categories=("C", "Z"), include_characters=" "), min_size=1), max_size=5, unique=True,
).map(sorted)
NUMBERS = st.integers(-(2**63), 2**63) | st.floats(allow_nan=False, allow_infinity=False)
REVIEWS = st.lists(st.builds(
    labels.ChartReview, st.text(min_size=1),
    st.fixed_dictionaries({diag: st.integers(1, 4) | st.floats(1, 4) for diag in labels.DIAGNOSES}),
), max_size=3).map(tuple)


@st.composite
def fitted_featurizers(draw):
    names = draw(st.lists(st.text(min_size=1), max_size=6, unique=True))
    cut = draw(st.integers(0, len(names)))
    edges = {var: tuple(sorted(set(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=4)))))
             for var in names[:cut]}
    vocabularies = tuple((var, tuple(draw(st.lists(st.text(), min_size=1, max_size=3, unique=True))))
                         for var in names[cut:])
    return featurize.FittedFeaturizer(featurize.FeaturizerConfig(tuple(names[:cut]), vocabularies), edges)


@pytest.fixture(scope="module")
def artifact_cfg(tmp_path_factory):
    return cli.load_config(None, None, str(tmp_path_factory.mktemp("artifacts")))


class TestArtifactRoundTrip:
    """What an artifact's writer writes, `read_artifact` reads back as the same values."""

    @settings(max_examples=50, deadline=None)
    @given(PATIENT_IDS, st.data())
    def test_labels(self, artifact_cfg, ids, data):
        keys = [(pid, diag) for pid in ids for diag in labels.DIAGNOSES]
        fields = st.tuples(st.sampled_from((None, 0, 1)), st.integers(0, 1), st.integers(0, 1),
                           st.sampled_from((labels.SOURCE_CHART_REVIEW, labels.SOURCE_CODE_MED)))
        rows = [[pid, diag, *data.draw(fields)] for pid, diag in keys]
        cli.write_artifact(artifact_cfg, "labels.csv", rows)
        assert cli.read_artifact(artifact_cfg, "labels.csv", keys) == [row[4] for row in rows]

    @settings(max_examples=50, deadline=None)
    @given(PATIENT_IDS, st.data())
    def test_splits(self, artifact_cfg, ids, data):
        keys = [(split_index, pid) for split_index in range(evaluation.N_SPLITS) for pid in ids]
        roles = data.draw(st.lists(st.sampled_from((evaluation.ROLE_TRAIN, evaluation.ROLE_VAL, evaluation.ROLE_TEST)),
                                   min_size=len(keys), max_size=len(keys)))
        cli.write_artifact(artifact_cfg, "splits.csv", [(*key, role) for key, role in zip(keys, roles)])
        assert cli.read_artifact(artifact_cfg, "splits.csv", keys) == roles

    @settings(max_examples=50, deadline=None)
    @given(PATIENT_IDS, st.data())
    def test_included_stays(self, artifact_cfg, ids, data):
        refs = st.lists(st.text(min_size=1), min_size=1, max_size=3).map(tuple)
        stays = [cli.IncludedStay(pid, data.draw(refs), data.draw(REVIEWS)) for pid in ids]
        cli.write_artifact(artifact_cfg, cli.INCLUDED_STAYS, stays)
        assert cli.read_artifact(artifact_cfg, cli.INCLUDED_STAYS) == stays

    @settings(max_examples=50, deadline=None)
    @given(PATIENT_IDS, st.data())
    def test_window_values(self, artifact_cfg, ids, data):
        windows = [(pid, data.draw(st.dictionaries(st.text(), st.none() | st.text() | NUMBERS))) for pid in ids]
        cli.write_artifact(artifact_cfg, cli.WINDOW_VALUES, windows)
        assert cli.read_artifact(artifact_cfg, cli.WINDOW_VALUES) == windows

    @settings(max_examples=50, deadline=None)
    @given(PATIENT_IDS, st.integers(0, 40), st.data())
    def test_features(self, artifact_cfg, ids, dim, data):
        bits = [np.array(data.draw(st.lists(st.integers(0, 1), min_size=dim, max_size=dim)), dtype=np.uint8)
                for _ in ids]
        cli.write_artifact(artifact_cfg, "features.ndjson", zip(ids, bits))
        read = cli.read_artifact(artifact_cfg, "features.ndjson", ids, dim)
        assert [row.tolist() for row in read] == [row.tolist() for row in bits]

    @settings(max_examples=50, deadline=None)
    @given(fitted_featurizers())
    def test_featurizer(self, artifact_cfg, fitted):
        # `featurize`'s writer of the file
        (artifact_cfg.out_dir / "featurizer.json").write_text(fitted.to_json(provenance=artifact_cfg.provenance) + "\n")
        assert cli.read_artifact(artifact_cfg, "featurizer.json") == fitted

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(list(models.ModelKind)), st.integers(1, 3), st.integers(1, 3),
           st.builds(models.HyperParams, *[st.floats(allow_nan=False, allow_infinity=False)] * 3),
           st.integers(0, 2**64 - 1), st.data())
    def test_checkpoint(self, artifact_cfg, kind, ehr_dim, emb_dim, hp, seed, data):
        spec = models.ModelSpec(kind, ehr_dim, emb_dim)
        params = {name: data.draw(arrays(float, shape, elements=st.floats(allow_nan=False, allow_infinity=False)))
                  for name, shape in spec.param_shapes().items()}
        name = cli.CHECKPOINT.format("ehr", 0)
        models.save_checkpoint(artifact_cfg.out_dir / name, spec, params, hp, 3, seed=seed,
                               val_metrics={}, provenance=artifact_cfg.provenance)
        checkpoint = cli.read_artifact(artifact_cfg, name)
        assert (checkpoint.spec, checkpoint.hp, checkpoint.seed) == (spec, hp, seed)
        assert checkpoint.params.keys() == params.keys()
        assert all(np.array_equal(checkpoint.params[key], params[key]) for key in params)


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

    def test_unknown_family_exits_2(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text(MINI_CONFIG.replace("families = ehr", "families = tabular"))
        out = tmp_path / "out"
        for stage in ("synth", "train"):  # the whole config is checked before any stage runs
            code = cli.main([stage, "--config", str(config), "--out", str(out)])
            assert code == cli.EXIT_CONFIG_ERROR
            assert "[train] families" in capsys.readouterr().err

    def test_corrupt_checkpoint_exits_2(self, mini_run, capsys):
        config, out = mini_run
        ckpt = out / "checkpoint_ehr_split0.json"
        payload = json.loads(ckpt.read_text())
        name = next(iter(payload["params"]))
        payload["params"][name]["shape"] = [1, 1]
        ckpt.write_text(json.dumps(payload))
        code = cli.main(["evaluate", "--config", str(config), "--out", str(out)])
        assert code == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert f"{ckpt} is malformed" in err and "has shape (1, 1)" in err and "rerun the train stage" in err

    @pytest.mark.parametrize("stage", ["evaluate", "explain"])
    def test_non_finite_checkpoint_exits_2(self, mini_run, capsys, stage):
        config, out = mini_run
        ckpt = out / "checkpoint_ehr_split0.json"
        payload = json.loads(ckpt.read_text())
        payload["params"]["W1"]["data"][0] = float("nan")  # json.dumps writes NaN, which json.loads accepts
        ckpt.write_text(json.dumps(payload))
        code = cli.main([stage, "--config", str(config), "--out", str(out)])
        assert code == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert f"{ckpt} is malformed" in err and "'W1' has a non-finite entry" in err and "rerun the train stage" in err

    def test_missing_cohort_input_exits_2(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(MINI_CONFIG)
        code = cli.main(["label", "--config", str(config), "--out", str(tmp_path / "empty")])
        assert code == cli.EXIT_CONFIG_ERROR

    def test_cohort_without_an_included_stay_stops_label(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text(MINI_CONFIG)
        out = tmp_path / "out"
        assert cli.main(["synth", "--config", str(config), "--out", str(out)]) == 0
        cohort_path = out / "cohort.ndjson"
        cohort_path.write_text(cohort_path.read_text().splitlines(keepends=True)[0])  # the provenance line alone
        written = sorted(path.name for path in out.iterdir())
        assert cli.main(["label", "--config", str(config), "--out", str(out)]) == cli.EXIT_MODULE_ERROR
        assert f"CohortError: {cohort_path} holds no includable stay" in capsys.readouterr().err
        assert sorted(path.name for path in out.iterdir()) == sorted(written + ["cohort_rejects.txt"])


README = Path(__file__).resolve().parents[1] / "README.md"


class TestStrictConfig:
    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda text: text.replace("learning_rates = 0.3", "learning_rate = 0.3"), "[sweep] learning_rate"),
            (lambda text: text + "\n[tuning]\n", "[tuning]"),
            (lambda text: text + "\n[cohort]\nmin_window = 60\n", "[cohort] min_window"),
            (lambda text: text + "\n[paths]\nmetrics = elsewhere.csv\n", "[paths] metrics"),
            (lambda text: text + "\n[DEFAULT]\nseed = 3\n", "[DEFAULT] seed"),
            (lambda text: text.replace("seed = 11", "seed = abc"), "[run] seed"),
            (lambda text: text.replace("learning_rates = 0.3", "learning_rates = 0.3, fast"), "[sweep] learning_rates"),
            (lambda text: text.replace("families = ehr", "families = tabular"), "[train] families"),
            (lambda text: text.replace("families = ehr", "families ="), "[train] families"),
            (lambda text: text.replace("n_patients = 60", "n_patients = 0"), "[synth] n_patients"),
            (lambda text: text.replace("learning_rates = 0.3", "learning_rates = -0.1"), "[sweep] learning_rates"),
            (lambda text: text.replace("learning_rates = 0.3", "learning_rates ="), "[sweep] learning_rates"),
            (lambda text: text.replace("max_epochs = 3", "max_epochs = 0"), "[sweep] max_epochs"),
            (lambda text: text + "\n[explain]\nrepeats = 0\n", "[explain] repeats"),
        ],
        ids=["unknown-key", "unknown-section", "deleted-cohort-key", "deleted-path-key", "defaults-section",
             "seed-not-an-integer", "rate-not-a-number", "unknown-family", "no-family", "no-patients",
             "negative-rate", "no-rate", "no-epochs", "no-repeats"],
    )
    def test_rejected_before_any_stage_runs(self, tmp_path, capsys, edit, named):
        config = tmp_path / "run.ini"
        config.write_text(edit(MINI_CONFIG))
        out = tmp_path / "out"
        assert cli.main(["synth", "--config", str(config), "--seed", "1", "--out", str(out)]) == cli.EXIT_CONFIG_ERROR
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_config_that_is_not_utf8_exits_2_naming_it(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_bytes(MINI_CONFIG.encode() + b"# \xff\xfe\n")
        out = tmp_path / "out"
        assert cli.main(["synth", "--config", str(config), "--out", str(out)]) == cli.EXIT_CONFIG_ERROR
        assert f"cannot parse config {config}: 'utf-8' codec can't decode" in capsys.readouterr().err
        assert not out.exists()

    def test_readme_example_runs(self, tmp_path):
        example = re.search(r"```ini\n(.*?)```", README.read_text(), re.DOTALL).group(1)
        config = tmp_path / "run.ini"
        config.write_text(example)
        out = tmp_path / "out"
        assert cli.main(["synth", "--config", str(config), "--out", str(out)]) == 0
        assert sum(not line.startswith("#") for line in (out / "cohort.ndjson").read_text().splitlines()) == 500

    def test_readme_lists_every_accepted_key(self):
        listed = re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \|", README.read_text(), re.MULTILINE)
        assert sorted(listed) == sorted((section, key) for section, keys in cli.CONFIG_KEYS.items() for key in keys)

    def test_readme_lists_every_artifact_with_its_stage(self):
        listed = re.findall(r"^\| `([\w*.]+)` \| (\w+) \|", README.read_text(), re.MULTILINE)
        assert sorted(listed) == sorted((name, entry.stage) for name, entry in cli.ARTIFACTS.items())


class TestFeaturizeLabels:
    def test_stay_missing_from_labels_exits_2(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text(MINI_CONFIG)
        out = tmp_path / "out"
        for stage in ("synth", "label"):
            assert cli.main([stage, "--config", str(config), "--out", str(out)]) == 0
        lines = (out / "labels.csv").read_text().splitlines(keepends=True)
        dropped = lines[2].split(",")[0]
        (out / "labels.csv").write_text("".join(line for line in lines if not line.startswith(dropped + ",")))
        assert cli.main(["featurize", "--config", str(config), "--out", str(out)]) == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert f"{out / 'labels.csv'} line 3 is malformed (found (" in err
        assert f"expected ({dropped!r}, 'pneumonia'))" in err and "rerun the label stage" in err
        assert not (out / "features.ndjson").exists()


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

    def test_no_pairs_leave_kappa_and_raw_agreement_empty(self, tmp_path):
        # one stay with a single review and one labelled by the code+medication rule
        out = tmp_path / "out"
        out.mkdir()
        once = {**UNANIMOUS_STAY, "reviews": UNANIMOUS_STAY["reviews"][:1]}
        never = {**UNANIMOUS_STAY, "patient_id": "p2", "reviews": []}
        (out / "cohort.ndjson").write_text(json.dumps(once) + "\n" + json.dumps(never) + "\n")
        labels.save_ruleset(out / "ruleset.json", synth.default_ruleset())
        assert cli.main(["label", "--out", str(out)]) == 0
        assert (out / "agreement.csv").read_text().splitlines()[1:] == [
            "diagnosis,kappa,raw_agreement,n_pairs", "pneumonia,,,0", "heart_failure,,,0", "copd,,,0",
        ]


def edited_ruleset(edit):
    """`synth`'s default ruleset as JSON text, with `edit` applied to its object."""
    raw = {diag: {"icd": sorted(rule.icd_codes), "medications": sorted(rule.medications)}
           for diag, rule in synth.default_ruleset().rules.items()}
    edit(raw)
    return json.dumps(raw)


class TestBadRuleset:
    @pytest.mark.parametrize("text, named", [
        (edited_ruleset(lambda raw: raw["copd"].update(icd="J44.9")), ["'copd'", "'icd'"]),
        (edited_ruleset(lambda raw: raw["pneumonia"].update(icd=[7])), ["'pneumonia'", "'icd'"]),
        (edited_ruleset(lambda raw: raw.update(heart_failure=["I50.9"])), ["'heart_failure'", "'icd'", "list"]),
        (edited_ruleset(lambda raw: raw["copd"].pop("icd")), ["'copd'", "'icd'"]),
        ("{not json", ["is not JSON"]),
    ], ids=["icd-is-a-string", "icd-holds-a-number", "diagnosis-is-a-list", "icd-missing", "not-json"])
    def test_label_exits_1_naming_it_before_writing_anything(self, tmp_path, capsys, text, named):
        out = tmp_path / "out"
        out.mkdir()
        (out / "cohort.ndjson").write_text(json.dumps(UNANIMOUS_STAY) + "\n")
        (out / "ruleset.json").write_text(text)
        assert cli.main(["label", "--out", str(out)]) == cli.EXIT_MODULE_ERROR
        err = capsys.readouterr().err
        assert f"LabelError: ruleset {out / 'ruleset.json'} " in err
        assert all(part in err for part in named), err
        assert sorted(path.name for path in out.iterdir()) == ["cohort.ndjson", "ruleset.json"]


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

        def recording(predict, features, y, *args, **kwargs):
            probs = predict(features)
            for d_idx in range(len(labels.DIAGNOSES)):
                try:
                    baselines.append(evaluation.auroc(probs[:, d_idx], y[:, d_idx]))
                except evaluation.SingleClass:
                    baselines.append(None)
            return permutation_importance(predict, features, y, *args, **kwargs)

        monkeypatch.setattr(explain, "permutation_importance", recording)
        assert cli.main(["explain", "--config", str(config), "--out", str(out)]) == 0

        with (out / "metrics.csv").open(newline="") as handle:
            rows = [row for row in csv.reader(handle) if row and not row[0].startswith("#")][1:]
        test_auroc = {
            (diag, int(split)): None if value == "" else float(value)
            for model, split, diag, metric, value in rows
            if model == "combined" and metric == "auroc" and diag != "macro"
        }
        # explain walks splits, then diagnoses
        expected = [test_auroc[(diag, k)] for k in range(evaluation.N_SPLITS) for diag in labels.DIAGNOSES]
        assert sum(b is not None for b in baselines) >= 10
        assert baselines == expected


def run_stages(config, out, stages):
    for stage in stages:
        assert cli.main([stage, "--config", str(config), "--out", str(out)]) == 0, stage


class TestSingleClassSplit:
    def test_undefined_row_for_that_diagnosis_only(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(MINI_CONFIG)
        out = tmp_path / "out"
        run_stages(config, out, ("synth", "label", "featurize", "split"))
        with (out / "splits.csv").open(newline="") as handle:
            test0 = {pid for split, pid, role in list(csv.reader(handle))[2:] if (split, role) == ("0", "test")}
        # copd is negative for every test patient of split 0, and two-class elsewhere
        lines = (out / "labels.csv").read_text().splitlines()
        for i, line in enumerate(lines[2:], start=2):
            cells = line.split(",")
            if cells[0] in test0 and cells[1] == "copd":
                cells[4] = "0"
                lines[i] = ",".join(cells)
        (out / "labels.csv").write_text("\n".join(lines) + "\n")
        copd = {cells[0]: cells[4] for cells in (line.split(",") for line in lines[2:]) if cells[1] == "copd"}
        assert {copd[pid] for pid in test0} == {"0"} and set(copd.values()) == {"0", "1"}
        run_stages(config, out, ("train", "explain"))

        with (out / "importance_ehr.csv").open(newline="") as handle:
            rows = list(csv.reader(handle))[2:]
        by_diagnosis = {diag: [row for row in rows if row[0] == diag] for diag in labels.DIAGNOSES}
        assert by_diagnosis["copd"] == [["copd", "(single-class split; importance undefined)", "", "", ""]]
        for diag in ("pneumonia", "heart_failure"):
            assert len(by_diagnosis[diag]) > 1
            assert all(len(row[4].split(";")) == evaluation.N_SPLITS for row in by_diagnosis[diag])


def included_cohort():
    """Stays with 3-image studies, one with two studies, 0 to 4 reviews, and one surgical exclusion."""
    generated = synth.generate(synth.SynthSpec(n_patients=40, n_numeric_vars=6, emb_dim=6, seed=8))
    extra_review = labels.ChartReview("rev9", {"pneumonia": 1, "heart_failure": 2.5, "copd": 4})
    stays = []
    for i, stay in enumerate(generated.stays):
        study = stay.studies[0]
        studies = [dataclasses.replace(study, image_refs=tuple(f"{study.study_id}-i{k}" for k in range(3)))]
        reviews = list(stay.reviews)
        if i == 0:
            reviews = []  # labelled by the code+med rule
        elif i == 1:
            reviews = (reviews + [extra_review] * 4)[:4]
        elif i == 2:  # a later study, farther from onset, is not the one selected
            studies.append(cohort.ImagingStudy(f"{stay.patient_id}-s1", study.time + 600, (f"{stay.patient_id}-s1-i0",)))
        elif i == 3:  # onset in a surgical unit: excluded
            onset = stay.support_events[0][0]
            stay = dataclasses.replace(stay, unit_intervals=[("SURG", 0, onset + 60)])
        stays.append(dataclasses.replace(stay, studies=studies, reviews=reviews))
    return stays, generated.ruleset


def label_artifact_read_by(stage):
    """The per-stay file `label` writes that `stage` reads."""
    return cli.WINDOW_VALUES if stage == "featurize" else cli.INCLUDED_STAYS


def set_window_value(line, variable, value):
    """A `window_values.ndjson` line with `variable` set to `value`, which
    `json.dumps` writes as a bare number or a `NaN` token."""
    record = json.loads(line)
    return json.dumps({**record, "window": {**record["window"], variable: value}})


def as_image_checkpoint(text):
    """The checkpoint `text` rewritten as a well-formed image-family model of the same run."""
    payload = json.loads(text)
    spec = models.ModelSpec(models.ModelKind.IMAGE_LINEAR, emb_dim=6)
    payload["spec"].update(kind=spec.kind.value, ehr_dim=0, emb_dim=spec.emb_dim)
    payload["params"] = {name: {"shape": list(shape), "data": [0.0] * int(np.prod(shape))}
                         for name, shape in spec.param_shapes().items()}
    return json.dumps(payload)


def swap_lines(first, second):
    """An edit that swaps two lines of a text, 0-based: every record stays, two in each other's place."""
    def swap(text):
        lines = text.splitlines(keepends=True)
        lines[first], lines[second] = lines[second], lines[first]
        return "".join(lines)
    return swap


class TestIncludedStays:
    def test_round_trip_matches_labels_order(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        stays, ruleset = included_cohort()
        cohort.write_cohort(out / "cohort.ndjson", stays)
        labels.save_ruleset(out / "ruleset.json", ruleset)
        assert cli.main(["label", "--out", str(out)]) == 0

        included = cli.read_artifact(cli.load_config(None, None, str(out)), cli.INCLUDED_STAYS)
        expected = [
            cli.IncludedStay(stay.patient_id, cohort.select_study(stay).image_refs, tuple(stay.reviews))
            for stay in stays
            if cohort.include_stay(stay, cohort.CohortConfig())
        ]
        assert included == expected
        assert len(included) == len(stays) - 1 and stays[3].patient_id not in [s.patient_id for s in included]
        assert [len(s.reviews) for s in included[:2]] == [0, 4]
        assert all(len(s.image_refs) == 3 for s in included)
        assert included[2].image_refs == stays[2].studies[0].image_refs

        with (out / "labels.csv").open(newline="") as handle:
            rows = list(csv.reader(handle))[2:]
        label_ids = list(dict.fromkeys(row[0] for row in rows))
        assert label_ids == [s.patient_id for s in included]
        assert {row[5] for row in rows if row[0] == included[0].patient_id} == {labels.SOURCE_CODE_MED}

    def test_split_through_explain_do_not_read_the_cohort(self, tmp_path):
        config = tmp_path / "run.ini"
        # enough patients that some test sets hold 3+-review stays for the physician comparison
        config.write_text(
            MINI_CONFIG.replace("families = ehr", "families = ehr, combined").replace("n_patients = 60", "n_patients = 200")
        )
        outputs = []
        for name in ("in_place", "moved"):
            out = tmp_path / name
            run_stages(config, out, ("synth", "label"))
            if name == "moved":  # every stage after label runs without the cohort
                (out / "cohort.ndjson").rename(tmp_path / "cohort_elsewhere.ndjson")
            run_stages(config, out, ("featurize", "split", "train", "evaluate", "explain"))
            outputs.append({path.name: path.read_bytes() for path in out.iterdir() if path.name != "cohort.ndjson"})
        assert outputs[0]["physician_comparison.csv"].count(b"\n") > 2
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("stage", ["featurize", "split", "train", "evaluate", "explain"])
    def test_missing_artifact_exits_2_naming_it(self, mini_run, capsys, stage):
        config, out = mini_run
        path = out / label_artifact_read_by(stage)
        path.unlink()
        assert cli.main([stage, "--config", str(config), "--out", str(out)]) == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert str(path) in err and "run the label stage first" in err

    @pytest.mark.parametrize(
        "stage, name, corrupt",
        [
            ("split", cli.INCLUDED_STAYS, lambda line: line[: len(line) // 2]),
            ("split", cli.INCLUDED_STAYS, lambda line: "[]"),
            ("split", cli.INCLUDED_STAYS, lambda line: json.dumps({**json.loads(line), "image_refs": "p0-s0-i0"})),
            ("split", cli.INCLUDED_STAYS, lambda line: json.dumps({**json.loads(line), "image_refs": []})),
            ("split", cli.INCLUDED_STAYS, lambda line: json.dumps({**json.loads(line), "image_refs": [""]})),
            ("split", cli.INCLUDED_STAYS,
             lambda line: json.dumps({k: v for k, v in json.loads(line).items() if k != "reviews"})),
            ("split", cli.INCLUDED_STAYS,
             lambda line: json.dumps({**json.loads(line), "reviews": [{"reviewer_id": "r", "scores": {"copd": 1}}]})),
            ("split", cli.INCLUDED_STAYS,
             lambda line: json.dumps({**json.loads(line), "reviews": [{"reviewer_id": 5, "scores": dict.fromkeys(
                 labels.DIAGNOSES, 1)}]})),
            ("split", cli.INCLUDED_STAYS,
             lambda line: json.dumps({**json.loads(line), "reviews": [{"reviewer_id": "r", "scores": dict.fromkeys(
                 labels.DIAGNOSES, 10**400)}]})),
            ("featurize", cli.WINDOW_VALUES, lambda line: json.dumps({**json.loads(line), "window": [["var00", 1.0]]})),
            ("featurize", cli.WINDOW_VALUES, lambda line: json.dumps({**json.loads(line), "window": {"var00": [1.0]}})),
            ("featurize", cli.WINDOW_VALUES, lambda line: set_window_value(line, "var00", 10**400)),
            ("featurize", cli.WINDOW_VALUES, lambda line: set_window_value(line, "var00", float("nan"))),
            ("train", "features.ndjson", lambda line: line[: len(line) // 2]),
            ("evaluate", "features.ndjson", lambda line: json.dumps({"patient_id": json.loads(line)["patient_id"]})),
            ("train", "features.ndjson", lambda line: line.replace('", "patient_id"', 'ff", "patient_id"')),
            ("train", "splits.csv", lambda line: line.rsplit(",", 1)[0]),
            ("train", "splits.csv", lambda line: line.rsplit(",", 1)[0] + ",bogus"),
            ("train", "splits.csv", lambda line: "7" + line[1:]),
            ("train", "labels.csv", lambda line: ",".join(line.split(",")[:4] + ["7"] + line.split(",")[5:])),
            ("featurize", "labels.csv", lambda line: line.replace(",pneumonia,", ",asthma,")),
        ],
        ids=[
            "truncated", "not-an-object", "refs-string", "refs-empty", "refs-empty-string", "no-reviews-field", "review-short",
            "review-id-not-a-string", "review-rating-beyond-float",
            "window-not-an-object", "window-list-value", "window-value-beyond-float", "window-value-nan",
            "features-truncated", "features-no-bits",
            "features-too-wide", "splits-no-role", "splits-role-bogus", "splits-index-7", "labels-label-7",
            "labels-unknown-diagnosis",
        ],
    )
    def test_corrupt_artifact_exits_2_naming_it(self, mini_run, capsys, stage, name, corrupt):
        config, out = mini_run
        path = out / name
        lines = path.read_text().splitlines()
        lines[2] = corrupt(lines[2])
        path.write_text("\n".join(lines) + "\n")
        assert cli.main([stage, "--config", str(config), "--out", str(out)]) == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert f"{path} line 3 is malformed" in err and f"rerun the {cli.ARTIFACTS[name].stage} stage" in err

    @pytest.mark.parametrize(
        "stage, name, corrupt, problem",
        [
            ("train", "featurizer.json", lambda text: "{not json", "is malformed (Expecting property name"),
            ("train", "featurizer.json",
             lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "dim"}),
             "is malformed (no key 'dim')"),
            ("evaluate", "checkpoint_ehr_split0.json", lambda text: "{not json",
             "is malformed (Expecting property name"),
            ("evaluate", "checkpoint_ehr_split0.json", lambda text: "[]",
             "is malformed (unrecognized checkpoint format"),
            ("evaluate", "checkpoint_ehr_split0.json", as_image_checkpoint,
             "is malformed (model kind image_linear is not of family ehr)"),
            ("explain", "checkpoint_ehr_split0.json", as_image_checkpoint,
             "is malformed (model kind image_linear is not of family ehr)"),
            ("train", "splits.csv", lambda text: re.sub(r"(?m)^0,p03,.*\n", "", text),
             "line 6 is malformed (found (0, 'p04'), expected (0, 'p03'))"),
            ("train", "splits.csv", lambda text: text + "0,ghost,train\n",
             "line 303 is malformed (found (0, 'ghost'), expected the end of the file)"),
            ("evaluate", "features.ndjson", lambda text: re.sub(r'(?m)^.*"patient_id": "p01".*\n', "", text),
             "line 3 is malformed (found 'p02', expected 'p01')"),
            ("evaluate", "features.ndjson",
             lambda text: text + re.sub(r'"patient_id": "\w+"', '"patient_id": "ghost"', text.splitlines()[-1]) + "\n",
             "line 62 is malformed (found 'ghost', expected the end of the file)"),
            ("split", cli.INCLUDED_STAYS, swap_lines(1, 2),
             "line 3 is malformed (found 'p00', expected a patient_id after 'p01')"),
            ("featurize", cli.WINDOW_VALUES, swap_lines(1, 2),
             "line 3 is malformed (found 'p00', expected a patient_id after 'p01')"),
            ("featurize", cli.WINDOW_VALUES, lambda text: text.splitlines(keepends=True)[0], "holds no stay"),
            ("train", "features.ndjson", swap_lines(1, 2), "line 2 is malformed (found 'p01', expected 'p00')"),
            ("train", "labels.csv", swap_lines(2, 5),
             "line 3 is malformed (found ('p01', 'pneumonia'), expected ('p00', 'pneumonia'))"),
            ("train", "splits.csv", swap_lines(2, 3), "line 3 is malformed (found (0, 'p01'), expected (0, 'p00'))"),
        ],
        ids=["featurizer-not-json", "featurizer-no-dim", "checkpoint-not-json", "checkpoint-not-an-object",
             "checkpoint-of-another-family-evaluate", "checkpoint-of-another-family-explain",
             "splits-row-deleted", "splits-other-patient", "features-row-deleted", "features-other-patient",
             "included-stays-swapped", "window-values-swapped", "window-values-empty", "features-swapped", "labels-swapped",
             "splits-swapped"],
    )
    def test_corrupt_whole_artifact_exits_2_naming_it(self, mini_run, capsys, stage, name, corrupt, problem):
        config, out = mini_run
        path = out / name
        path.write_text(corrupt(path.read_text()))
        assert cli.main([stage, "--config", str(config), "--out", str(out)]) == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        writer = "train" if name.startswith("checkpoint_") else cli.ARTIFACTS[name].stage
        assert f"{path} {problem}" in err and f"rerun the {writer} stage" in err

    def test_repeated_patient_exits_2(self, mini_run, capsys):
        config, out = mini_run
        path = out / "included_stays.ndjson"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [lines[1]]) + "\n")
        assert cli.main(["split", "--config", str(config), "--out", str(out)]) == cli.EXIT_CONFIG_ERROR
        assert f"{path} line {len(lines) + 1} is malformed (found 'p00', expected a patient_id after 'p59')" in (
            capsys.readouterr().err)


class TestPhysicianComparisonRun:
    def test_rows_match_reference_when_reviewers_disagree(self, tmp_path, monkeypatch):
        # at the default noise every reviewer's call is the truth, so the held-out physician scores 1
        monkeypatch.setattr(synth, "REVIEWER_NOISE", 1.5)
        config = tmp_path / "run.ini"
        config.write_text(
            MINI_CONFIG.replace("families = ehr", "families = combined").replace("n_patients = 60", "n_patients = 200")
        )
        out = tmp_path / "out"
        run_stages(config, out, ("synth", "label", "featurize", "split", "train", "evaluate"))

        cfg = cli.load_config(str(config), None, str(out))
        data = cli.assemble_data(cfg)
        expected = []
        for split_index in range(evaluation.N_SPLITS):
            test_idx = data.split_indices(split_index, evaluation.ROLE_TEST)
            checkpoint = models.load_checkpoint(out / cli.CHECKPOINT.format("combined", split_index))
            probs = predict_reference(checkpoint.spec, checkpoint.params, data.ehr[test_idx], *data.images(test_idx))
            rng = np.random.default_rng(stage_seed(cfg.seed, f"physician/split{split_index}"))
            try:
                rows = physician_comparison_reference([data.reviews[i] for i in test_idx], probs, rng)
            except evaluation.EvalError:  # the reference raises where the stage writes no rows
                rows = []
            expected.extend([str(split_index), *map(str, row)] for row in rows)
        with (out / "physician_comparison.csv").open(newline="") as handle:
            written = list(csv.reader(handle))[2:]
        assert written == expected
        assert any(float(row[2]) < 1.0 for row in written)


class TestAgreementRun:
    def test_rows_match_pooled_pairs_when_reviewers_disagree(self, tmp_path, monkeypatch):
        # at the default noise every reviewer's call is the truth, so every kappa is 1
        monkeypatch.setattr(synth, "REVIEWER_NOISE", 1.5)
        config = tmp_path / "run.ini"
        config.write_text(MINI_CONFIG.replace("n_patients = 60", "n_patients = 200"))
        out = tmp_path / "out"
        run_stages(config, out, ("synth", "label"))

        included = [stay for stay in cohort.load_cohort(out / "cohort.ndjson")
                    if cohort.include_stay(stay, cohort.CohortConfig())]
        expected = []
        for diag in labels.DIAGNOSES:
            table = pooled_table_loop([stay.reviews for stay in included], diag)
            kappa, raw_agreement = labels.kappa_from_table(*table)
            expected.append([diag, str(kappa), str(raw_agreement), str(sum(table) / 2)])
        with (out / "agreement.csv").open(newline="") as handle:
            written = list(csv.reader(handle))[2:]
        assert written == expected
        assert any(0.0 < float(row[1]) < 1.0 for row in written)


def _run_python(code, openblas_threads=None):
    """stdout of `code` in a fresh interpreter that imports this checkout's arfdx."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    src = str(Path(arfdx.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


RUN_CLI_HELP = """\
import os, runpy, sys
sys.argv = ["arfdx", "--help"]
try:
    runpy.run_module("{module}", run_name="__main__")
except SystemExit:
    pass
print(os.environ.get("OPENBLAS_NUM_THREADS"))
"""

# The `arfdx` console script imports its entry point; this records the
# variable's value at the moment numpy is first imported.
IMPORT_ENTRY_POINT = """\
import os, sys
seen = []
class NumpyImportSpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return None
sys.meta_path.insert(0, NumpyImportSpy())
from {module} import {attr}
print(seen)
"""


def console_script_entry():
    """(module, attribute) of the `arfdx` command in pyproject.toml."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    module, attr = re.search(r'^arfdx = "([\w.]+):(\w+)"$', text, re.MULTILINE).groups()
    return module, attr


class TestBlasThreads:
    def test_stage_process_runs_one_blas_thread(self):
        assert _run_python(RUN_CLI_HELP.format(module="arfdx.cli")) == "1"

    def test_caller_setting_is_kept(self):
        assert _run_python(RUN_CLI_HELP.format(module="arfdx.cli"), openblas_threads="2") == "2"

    def test_package_main_runs_one_blas_thread(self):
        assert _run_python(RUN_CLI_HELP.format(module="arfdx")) == "1"

    def test_console_script_pins_before_numpy_loads(self):
        module, attr = console_script_entry()
        assert module == "arfdx.__main__"
        assert _run_python(IMPORT_ENTRY_POINT.format(module=module, attr=attr)) == "['1']"

    def test_console_script_keeps_caller_setting(self):
        module, attr = console_script_entry()
        assert _run_python(IMPORT_ENTRY_POINT.format(module=module, attr=attr), openblas_threads="2") == "['2']"

    def test_plain_import_leaves_environment_alone(self):
        assert _run_python("import os, arfdx.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))") == "None"

    def test_package_import_loads_no_numpy(self):
        # the pin in cli.py runs before numpy, and so OpenBLAS, is first loaded
        assert _run_python("import sys, arfdx; print('numpy' in sys.modules)") == "False"
