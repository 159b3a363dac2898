"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines;
a failed assertion in any test marks that criterion red.
"""

import itertools
import time
import zlib
from fractions import Fraction

import numpy as np
import pytest

from arfdx import cli, cohort, evaluation, explain, featurize, models, synth
from arfdx.explain import FeatureGroup
from arfdx.labels import (
    DIAGNOSES,
    ChartReview,
    PhenotypeRule,
    PhenotypeRuleset,
    aggregate_reviews,
    code_med_label,
    kappa_from_table,
)
from oracles import (
    aupr_stepsum,
    auroc_bruteforce,
    finite_diff_grads,
    gradients,
    max_relative_error,
    random_gradcheck_instance,
)


def report(number, name, detail=""):
    suffix = f" — {detail}" if detail else ""
    print(f"[acceptance {number:02d}] {name}: PASS{suffix}")


def test_criterion_01_metric_oracles():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(500):
        n = int(rng.integers(2, 51))
        scores = rng.choice(np.linspace(0, 1, 9), size=n)  # coarse grid forces ties
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        assert abs(evaluation.auroc(scores, labels) - auroc_bruteforce(scores, labels)) < 1e-12
        assert abs(evaluation.aupr(scores, labels) - aupr_stepsum(scores, labels)) < 1e-12
        checked += 1
    elapsed = time.monotonic() - start
    assert checked == 500
    assert elapsed < 10.0
    report(1, "metric oracles", f"500 instances, {elapsed:.1f}s")


def test_criterion_02_gradient_correctness():
    start = time.monotonic()
    specs = [
        models.ModelSpec(models.ModelKind.EHR_LINEAR, ehr_dim=6),
        models.ModelSpec(models.ModelKind.EHR_TWO_LAYER, ehr_dim=5),
        models.ModelSpec(models.ModelKind.IMAGE_LINEAR, emb_dim=6),
        models.ModelSpec(models.ModelKind.COMBINED_DIRECT, ehr_dim=6, emb_dim=4),
        models.ModelSpec(models.ModelKind.COMBINED_HIDDEN, ehr_dim=5, emb_dim=3),
    ]
    worst = 0.0
    for spec in specs:
        rng = np.random.default_rng(zlib.crc32(spec.kind.value.encode()))
        for _ in range(100):
            params, ehr, emb, y = random_gradcheck_instance(spec, rng, batch_size=4)
            analytic = gradients(spec, params, ehr, emb, y)
            numeric = finite_diff_grads(spec, params, ehr, emb, y, h=1e-4)
            worst = max(worst, max_relative_error(analytic, numeric))
    elapsed = time.monotonic() - start
    assert worst < 1e-4
    assert elapsed < 60.0
    report(2, "gradient correctness", f"max rel err {worst:.2e} over 5x100 draws, {elapsed:.1f}s")


def test_criterion_03_label_rules():
    ratings = [Fraction(k, 2) for k in range(2, 9)]  # 1, 1.5, ..., 4
    mismatches = 0
    total = 0
    for size in (1, 2, 3):
        for combo in itertools.product(ratings, repeat=size):
            reviews = [
                ChartReview(
                    reviewer_id=f"r{i}",
                    scores={d: float(r) for d in DIAGNOSES},
                )
                for i, r in enumerate(combo)
            ]
            derived = aggregate_reviews(reviews).pneumonia
            expected = sum(combo, Fraction(0)) / len(combo) < Fraction(5, 2)
            mismatches += derived != expected
            total += 1
    assert total == 7 + 49 + 343
    assert mismatches == 0

    ruleset = PhenotypeRuleset(
        rules={
            "pneumonia": PhenotypeRule(frozenset({"J18.9", "J13"}), frozenset({"VANCO", "CEFEPIME"})),
            "heart_failure": PhenotypeRule(frozenset({"I50.9"}), frozenset({"FUROSEMIDE"})),
            "copd": PhenotypeRule(frozenset({"J44.1"}), frozenset({"PREDNISONE"})),
        }
    )
    universe_codes = ["J18.9", "J13", "I50.9", "J44.1", "Z00.0"]
    universe_meds = ["VANCO", "CEFEPIME", "FUROSEMIDE", "PREDNISONE", "SALINE"]
    rng = np.random.default_rng(103)

    class Stay:
        def __init__(self, codes, meds):
            self.icd_codes = codes
            self.medications = meds

    for _ in range(1000):
        codes = {c for c in universe_codes if rng.random() < 0.4}
        meds = {m for m in universe_meds if rng.random() < 0.4}
        got = code_med_label(Stay(codes, meds), ruleset)
        for diag in DIAGNOSES:
            rule = ruleset.rules[diag]
            expected = bool(codes & rule.icd_codes) and bool(meds & rule.medications)
            assert got[diag] == expected
    report(3, "label rules", f"{total} review sets exhaustive + 1000 code/med draws")


def test_criterion_04_agreement():
    kappa, raw = kappa_from_table(40, 10, 10, 40)
    assert abs(kappa - 0.6) <= 1e-12
    assert abs(raw - 0.8) <= 1e-12
    report(4, "agreement", "kappa=0.6, raw=0.8 on [40,10,10,40]")


def test_criterion_05_calibration():
    rng = np.random.default_rng(105)
    preds = rng.random(10000)
    labels = (rng.random(10000) < preds).astype(int)
    result = evaluation.calibration(preds, labels)
    assert result.ece < 0.02

    exact_preds = np.array([0.0] * 5000 + [1.0] * 5000)
    exact_labels = exact_preds.astype(int)
    assert evaluation.calibration(exact_preds, exact_labels).ece == 0.0
    report(5, "calibration", f"Bernoulli ECE {result.ece:.4f} < 0.02; exact preds ECE 0")


def test_criterion_06_threshold_dor():
    result = evaluation.threshold_at_ppv([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0], target=0.5)
    assert result.threshold == pytest.approx(0.7, abs=1e-12)
    assert result.sensitivity == 1.0
    assert result.specificity == 0.5
    assert result.corrected is True
    assert result.dor == pytest.approx(5.0, abs=1e-12)

    dor, corrected = evaluation.dor_from_confusion(8, 2, 2, 8)
    assert dor == 16.0
    assert corrected is False
    report(6, "threshold/DOR", "scan example and (8,2,2,8) exact")


def _pipeline_arrays(generated):
    """Featurize a synthetic cohort the way the pipeline does (one fit)."""
    rows = [cohort.window_values(stay) for stay in generated.stays]
    config = featurize.infer_config(rows)
    fitted = featurize.fit(rows, config)
    bits = featurize.encode_rows(rows, fitted).astype(float)
    labels_matrix = np.array(
        [[int(aggregate_reviews(stay.reviews)[diag]) for diag in DIAGNOSES] for stay in generated.stays],
        dtype=float,
    )
    emb = np.stack(
        [generated.embeddings[f"{stay.patient_id}-s0-i0"].vector.astype(float) for stay in generated.stays]
    )
    ids = [stay.patient_id for stay in generated.stays]
    return ids, bits, emb, labels_matrix, fitted


def test_criterion_07_combined_beats_unimodal():
    start = time.monotonic()
    spec = synth.SynthSpec(n_patients=2000, seed=42)
    generated = synth.generate(spec)
    ids, bits, emb, labels_matrix, _ = _pipeline_arrays(generated)
    splits = evaluation.make_splits(len(ids), seed=7)
    grid = models.SweepGrid(
        learning_rates=(0.1, 1.0), momentums=(0.9,), weight_decays=(1e-4, 1e-2), max_epochs=30
    )
    margins = []
    for split_index, roles in enumerate(splits):
        subsets = {}
        for role in (evaluation.ROLE_TRAIN, evaluation.ROLE_VAL, evaluation.ROLE_TEST):
            idx = np.flatnonzero(roles == role)
            subsets[role] = models.ArrayDataset(
                labels=labels_matrix[idx], ehr=bits[idx], emb=emb[idx]
            )
        test_set = subsets[evaluation.ROLE_TEST]
        macro = {}
        for family in ("ehr", "image", "combined"):
            result = models.sweep(
                family, grid, subsets[evaluation.ROLE_TRAIN], subsets[evaluation.ROLE_VAL], seed=split_index
            )
            probs = models.forward(
                result.spec, result.params,
                ehr=test_set.ehr if result.spec.needs_ehr else None,
                emb=test_set.emb if result.spec.needs_emb else None,
            )
            macro[family] = evaluation.macro_average(
                [evaluation.auroc(probs[:, k], test_set.labels[:, k].astype(int)) for k in range(3)]
            )
        margins.append(
            (macro["combined"] - macro["ehr"], macro["combined"] - macro["image"])
        )
    wins = sum(1 for ehr_gap, img_gap in margins if ehr_gap >= 0.02 and img_gap >= 0.02)
    elapsed = time.monotonic() - start
    assert wins >= 4, f"combined won only {wins}/5 splits: {margins}"
    assert elapsed < 300.0
    report(7, "combined beats unimodal", f"{wins}/5 splits, min gaps "
           f"{min(m[0] for m in margins):.3f}/{min(m[1] for m in margins):.3f}, {elapsed:.0f}s")


def test_criterion_08_permutation_importance_sanity():
    rng = np.random.default_rng(108)
    n = 600
    y_all = rng.integers(0, 2, size=n)
    rows = [
        {
            "signal": float(y_all[i] + rng.normal(scale=0.4)),
            "noise_a": float(rng.normal()),
            "noise_b": float(rng.normal()),
        }
        for i in range(n)
    ]
    config = featurize.FeaturizerConfig(
        numeric_vars=("noise_a", "noise_b", "signal"), categorical_vars=()
    )
    fitted = featurize.fit(rows, config)
    bits = featurize.encode_rows(rows, fitted)
    slices = fitted.block_slices()
    weights = np.zeros((fitted.dim, 1))
    weights[slices["signal"], 0] = [0.0, 1.0, 2.0, 3.0, 4.0]

    def predict(feature_bits):
        return feature_bits.astype(float) @ weights

    groups = [FeatureGroup(v, (v,)) for v in ("noise_a", "noise_b", "signal")]
    per_split_drops = []
    for split_index in range(5):
        split_rng = np.random.default_rng([108, split_index])
        test_idx = split_rng.permutation(n)[:120]
        [drops] = explain.permutation_importance(
            predict, bits[test_idx], y_all[test_idx, None], groups, fitted,
            np.random.default_rng([109, split_index]), repeats=10,
        )
        assert abs(drops["noise_a"]) < 1e-9
        assert abs(drops["noise_b"]) < 1e-9
        per_split_drops.append(drops)
    [(top_group, mean_rank, *_), *_] = explain.aggregate_ranks(groups, per_split_drops)
    assert (top_group, mean_rank) == ("signal", 1.0)
    report(8, "permutation importance sanity", "planted group mean rank 1; unused drops < 1e-9")


DETERMINISM_CONFIG = """\
[run]
seed = 13

[synth]
n_patients = 100
n_numeric_vars = 8
emb_dim = 6

[sweep]
learning_rates = 0.3
momentums = 0.9
weight_decays = 1e-3
max_epochs = 4

[explain]
repeats = 4
"""


def test_criterion_09_pipeline_determinism(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(DETERMINISM_CONFIG)
    outputs = []
    for run_dir in ("run_a", "run_b"):
        out = tmp_path / run_dir
        for stage in cli.STAGES:
            code = cli.main([stage, "--config", str(config), "--out", str(out)])
            assert code == 0, f"stage {stage} failed in {run_dir}"
        outputs.append(out)
    compared = []
    for name in (
        "metrics.csv", "cross_split_summary.csv", "importance_ehr.csv",
        "importance_combined.csv", "missingness.csv", "sweep_log.csv", "included_stays.ndjson",
        "window_values.ndjson",
    ):
        a = (outputs[0] / name).read_bytes()
        b = (outputs[1] / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
        compared.append(name)
    report(9, "pipeline determinism", f"{len(compared)} artifacts byte-identical")


def test_criterion_10_featurizer_invariants():
    rng = np.random.default_rng(110)
    for _ in range(200):
        n_vars = int(rng.integers(1, 5))
        n_rows = int(rng.integers(1, 30))
        names = [f"v{i}" for i in range(n_vars)]
        vocab = tuple(sorted({f"t{k}" for k in range(int(rng.integers(1, 4)))}))
        config = featurize.FeaturizerConfig(
            numeric_vars=tuple(names), categorical_vars=(("cat", vocab),)
        )
        rows = []
        for _ in range(n_rows):
            row = {}
            for name in names:
                row[name] = float(rng.normal()) if rng.random() > 0.3 else None
            row["cat"] = str(rng.choice(list(vocab) + ["unknown"])) if rng.random() > 0.3 else None
            rows.append(row)
        fitted = featurize.fit(rows, config)
        assert fitted.dim == 5 * n_vars + len(vocab)
        bits = featurize.encode_rows(rows, fitted)
        assert bits.shape == (n_rows, fitted.dim)
        slices = fitted.block_slices()
        for row, vector in zip(rows, bits):
            for name in names:
                block = vector[slices[name]]
                assert block.sum() <= 1
                if row[name] is None:
                    assert block.sum() == 0
                else:
                    assert block.sum() == 1
            if row["cat"] is None or row["cat"] not in vocab:
                assert vector[slices["cat"]].sum() == 0
        # monotonicity: larger value never gets a smaller bin
        for name in names:
            values = sorted(v for v in (r[name] for r in rows) if v is not None)
            bins = [
                int(np.argmax(featurize.encode({name: v}, fitted)[slices[name]])) for v in values
            ]
            assert bins == sorted(bins)
    report(10, "featurizer invariants", "200 random datasets")


def test_criterion_11_cohort_rules():
    H = cohort.MINUTES_PER_HOUR
    cfg = cohort.CohortConfig()

    def stay_with(onset, units=()):
        return cohort.PatientStay(
            patient_id="p", admit_time=0,
            support_events=[(onset, cohort.SupportKind.IMV)],
            unit_intervals=list(units),
        )

    assert cohort.observation_window(stay_with(30 * H)) == (0, 30 * H)
    assert cohort.observation_window(stay_with(10 * H)) == (0, 24 * H)
    assert cohort.observation_window(stay_with(24 * H)) == (0, 24 * H)

    surgical = ("SURG", 0, 1000)
    assert cohort.exclude_surgical(stay_with(1000 + 10 * H, units=[surgical]), cfg) is True
    assert cohort.exclude_surgical(stay_with(1000 + 30 * H, units=[surgical]), cfg) is False
    report(11, "cohort rules", "window and surgical-buffer cases exact")
