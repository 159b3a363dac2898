import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arfdx import cohort as cohort_mod
from arfdx import featurize, models, synth
from arfdx.evaluation import ROLE_TEST, ROLE_TRAIN, ROLE_VAL, auroc, make_splits
from arfdx.imaging import embeddings_to_bytes
from arfdx.labels import DIAGNOSES, aggregate_reviews, code_med_label
from oracles import generate_reference


def serialize(generated):
    cohort_text = "\n".join(cohort_mod.stay_to_json(stay) for stay in generated.stays)
    emb_bytes = embeddings_to_bytes([generated.embeddings[k] for k in sorted(generated.embeddings)])
    return cohort_text, emb_bytes


def label_tuple(labels):
    return tuple(labels[diag] for diag in DIAGNOSES)


class TestGenerate:
    def test_noiseless_reviews_recover_truth(self, monkeypatch):
        monkeypatch.setattr(synth, "REVIEWER_NOISE", 0.0)
        spec = synth.SynthSpec(n_patients=60, seed=1)
        generated = synth.generate(spec)
        assert serialize(generated) == serialize(generate_reference(spec))
        for stay in generated.stays:
            labels = aggregate_reviews(stay.reviews)
            assert label_tuple(labels) == generated.truth[stay.patient_id]

    def test_codes_and_medications_recover_truth(self):
        spec = synth.SynthSpec(n_patients=60, seed=2)
        generated = synth.generate(spec)
        for stay in generated.stays:
            labels = code_med_label(stay, generated.ruleset)
            assert label_tuple(labels) == generated.truth[stay.patient_id]

    def test_same_seed_byte_identical(self):
        spec = synth.SynthSpec(n_patients=40, seed=3)
        assert serialize(synth.generate(spec)) == serialize(synth.generate(spec))

    def test_different_seeds_differ(self):
        a = serialize(synth.generate(synth.SynthSpec(n_patients=40, seed=4)))
        b = serialize(synth.generate(synth.SynthSpec(n_patients=40, seed=5)))
        assert a != b

    def test_every_patient_passes_inclusion(self):
        generated = synth.generate(synth.SynthSpec(n_patients=80, seed=6))
        cfg = cohort_mod.CohortConfig()
        assert all(cohort_mod.include_stay(stay, cfg) for stay in generated.stays)

    def test_round_trips_through_ingestion_with_zero_rejects(self, tmp_path):
        generated = synth.generate(synth.SynthSpec(n_patients=50, seed=7))
        path = tmp_path / "cohort.ndjson"
        cohort_mod.write_cohort(path, generated.stays, header="determinism check")
        stays = cohort_mod.load_cohort(path, rejects_path=tmp_path / "rejects.txt")
        assert len(stays) == 50
        assert (tmp_path / "rejects.txt").read_text() == ""
        assert cohort_mod.stay_to_json(stays[0]) == cohort_mod.stay_to_json(generated.stays[0])


class TestMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(
        n_patients=st.integers(1, 60),
        n_numeric_vars=st.integers(1, 15),
        emb_dim=st.integers(1, 20),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batched_draws_match_scalar_draws(self, n_patients, n_numeric_vars, emb_dim, seed):
        spec = synth.SynthSpec(n_patients=n_patients, n_numeric_vars=n_numeric_vars, emb_dim=emb_dim, seed=seed)
        generated, reference = synth.generate(spec), generate_reference(spec)
        assert serialize(generated) == serialize(reference)
        assert generated.truth == reference.truth


@pytest.fixture(scope="module")
def big_cohort():
    return synth.generate(synth.SynthSpec(n_patients=2000, seed=8))


class TestStatisticalProperties:
    def test_prevalence_within_three_standard_errors(self, big_cohort):
        truth = np.array([big_cohort.truth[s.patient_id] for s in big_cohort.stays], dtype=float)
        n = truth.shape[0]
        for k, p in enumerate(synth.PREVALENCES):
            se = np.sqrt(p * (1 - p) / n)
            assert abs(truth[:, k].mean() - p) < 3 * se

    def test_missingness_correlation_sign_matches_shift(self, big_cohort):
        spec = synth.SynthSpec(n_patients=2000, seed=8)
        stays = big_cohort.stays
        variables = [f"var{i:02d}" for i in range(spec.n_numeric_vars)]
        rows = [cohort_mod.window_values(stay) for stay in stays]
        config = featurize.FeaturizerConfig(numeric_vars=tuple(variables), categorical_vars=())
        fitted = featurize.fit(rows, config)
        bits = featurize.encode_rows(rows, fitted)
        truth = np.array([big_cohort.truth[s.patient_id] for s in stays], dtype=int)
        correlations = featurize.missingness_correlation(bits, truth, fitted, DIAGNOSES)
        # presence correlation sign is the negation of the missingness shift sign
        for d_idx, diag in enumerate(DIAGNOSES):
            shift = synth.MISSING_SHIFT[d_idx]
            mean_presence_corr = np.mean([correlations[(v, diag)] for v in variables])
            assert np.sign(mean_presence_corr) == -np.sign(shift)


class TestNoSignalNull:
    def test_no_signal_cohort_trains_to_chance(self, monkeypatch):
        monkeypatch.setattr(synth, "EHR_SHIFT", 0.0)
        monkeypatch.setattr(synth, "EMB_SHIFT", 0.0)
        monkeypatch.setattr(synth, "MISSING_SHIFT", (0.0, 0.0, 0.0))
        spec = synth.SynthSpec(n_patients=2000, n_numeric_vars=8, emb_dim=8, seed=9)
        generated = synth.generate(spec)
        assert serialize(generated) == serialize(generate_reference(spec))
        variables = [f"var{i:02d}" for i in range(8)]
        rows = [cohort_mod.window_values(stay) for stay in generated.stays]
        config = featurize.FeaturizerConfig(numeric_vars=tuple(variables), categorical_vars=())
        fitted = featurize.fit(rows, config)
        bits = featurize.encode_rows(rows, fitted).astype(float)
        truth = np.array([generated.truth[s.patient_id] for s in generated.stays], dtype=float)

        roles = make_splits(len(generated.stays), seed=0)[0]
        train_i, val_i, test_i = (np.flatnonzero(roles == role) for role in (ROLE_TRAIN, ROLE_VAL, ROLE_TEST))

        model_spec = models.ModelSpec(models.ModelKind.EHR_LINEAR, ehr_dim=bits.shape[1])
        hp = models.HyperParams(learning_rate=0.1, weight_decay=1e-3)
        params, _ = models.train_stacked(
            model_spec, [hp],
            models.ArrayDataset(labels=truth[train_i], ehr=bits[train_i]),
            models.ArrayDataset(labels=truth[val_i], ehr=bits[val_i]),
            seed=10, max_epochs=15,
        )[0]
        probs = models.forward(model_spec, params, ehr=bits[test_i])
        for k in range(3):
            assert abs(auroc(probs[:, k], truth[test_i, k].astype(int)) - 0.5) < 0.07
