import numpy as np
import pytest
from hypothesis import given, strategies as st

from arfdx.evaluation import physician_comparison
from arfdx.labels import (
    DIAGNOSES,
    SOURCE_CHART_REVIEW,
    SOURCE_CODE_MED,
    ChartReview,
    DegenerateMarginals,
    LabelError,
    NoReviews,
    PhenotypeRule,
    PhenotypeRuleset,
    aggregate_reviews,
    code_med_label,
    kappa_from_table,
    label_rows,
    load_ruleset,
    pooled_table,
    rater_agreement,
    save_ruleset,
)
from oracles import pooled_table_loop

RATING_GRID = [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]


def review(pneumonia=4.0, heart_failure=4.0, copd=4.0, reviewer="r"):
    return ChartReview(
        reviewer_id=reviewer,
        scores={"pneumonia": pneumonia, "heart_failure": heart_failure, "copd": copd},
    )


class FakeStay:
    def __init__(self, icd_codes=(), medications=(), reviews=()):
        self.patient_id = "p1"
        self.icd_codes = set(icd_codes)
        self.medications = set(medications)
        self.reviews = list(reviews)


def small_ruleset():
    return PhenotypeRuleset(
        rules={
            "pneumonia": PhenotypeRule(frozenset({"J18.9"}), frozenset({"VANCOMYCIN 1 GM IVPB"})),
            "heart_failure": PhenotypeRule(frozenset({"I50.9"}), frozenset({"FUROSEMIDE 40 MG TABLET"})),
            "copd": PhenotypeRule(frozenset({"J44.1"}), frozenset({"PREDNISONE 20 MG TABLET"})),
        }
    )


class TestAggregateReviews:
    def test_mean_below_midpoint_assigns(self):
        labels = aggregate_reviews([review(pneumonia=1), review(pneumonia=2)])
        assert labels.pneumonia is True

    def test_mean_exactly_midpoint_not_assigned(self):
        labels = aggregate_reviews([review(pneumonia=1), review(pneumonia=4)])
        assert labels.pneumonia is False

    def test_single_unlikely_rating(self):
        assert aggregate_reviews([review(pneumonia=3)]).pneumonia is False

    def test_empty_raises(self):
        with pytest.raises(NoReviews):
            aggregate_reviews([])

    def test_rating_outside_scale_rejected(self):
        with pytest.raises(LabelError):
            review(pneumonia=4.5)

    @pytest.mark.parametrize("rating", [True, False, "3", None, [2.0]], ids=repr)
    def test_non_number_rating_rejected(self, rating):
        with pytest.raises(LabelError, match="is not a number"):
            review(heart_failure=rating)

    @pytest.mark.parametrize("rating", [2, 1.5, np.float32(1.5), np.float64(1.5)], ids=repr)
    def test_number_rating_accepted(self, rating):
        assert review(pneumonia=rating).binary_call("pneumonia") is True

    @given(st.lists(st.sampled_from(RATING_GRID), min_size=1, max_size=6))
    def test_order_and_duplication_invariant(self, ratings):
        reviews = [review(pneumonia=r, reviewer=f"r{i}") for i, r in enumerate(ratings)]
        base = aggregate_reviews(reviews)
        assert aggregate_reviews(list(reversed(reviews))) == base
        doubled = aggregate_reviews(reviews + reviews)
        assert doubled.pneumonia == base.pneumonia


class TestCodeMedLabel:
    def test_code_and_med_assigns(self):
        stay = FakeStay({"J18.9"}, {"Vancomycin 1 gm ivpb"})
        assert code_med_label(stay, small_ruleset()).pneumonia is True

    def test_code_without_med_not_assigned(self):
        stay = FakeStay({"J18.9"}, set())
        assert code_med_label(stay, small_ruleset()).pneumonia is False

    def test_med_without_code_not_assigned(self):
        stay = FakeStay(set(), {"FUROSEMIDE 40 MG TABLET"})
        assert code_med_label(stay, small_ruleset()).heart_failure is False

    def test_case_insensitive_matching(self):
        stay = FakeStay({"j18.9"}, {"vancomycin 1 gm ivpb"})
        assert code_med_label(stay, small_ruleset()).pneumonia is True

    def test_monotone_adding_never_unassigns(self):
        rng = np.random.default_rng(11)
        ruleset = small_ruleset()
        universe_codes = ["J18.9", "I50.9", "J44.1", "Z99.9", "A00.0"]
        universe_meds = [
            "VANCOMYCIN 1 GM IVPB", "FUROSEMIDE 40 MG TABLET",
            "PREDNISONE 20 MG TABLET", "ASPIRIN",
        ]
        for _ in range(200):
            codes = {c for c in universe_codes if rng.random() < 0.4}
            meds = {m for m in universe_meds if rng.random() < 0.4}
            before = code_med_label(FakeStay(codes, meds), ruleset)
            extra_codes = codes | {c for c in universe_codes if rng.random() < 0.4}
            extra_meds = meds | {m for m in universe_meds if rng.random() < 0.4}
            after = code_med_label(FakeStay(extra_codes, extra_meds), ruleset)
            for diag in DIAGNOSES:
                assert not (before[diag] and not after[diag])

    def test_ruleset_round_trip(self, tmp_path):
        path = tmp_path / "ruleset.json"
        for provenance in (None, "arfdx test"):  # the `_provenance` key `synth` writes is allowed
            save_ruleset(path, small_ruleset(), provenance=provenance)
            assert load_ruleset(path) == small_ruleset()


class TestLabelRows:
    def test_chart_review_consensus_when_reviewed(self):
        stay = FakeStay({"J18.9"}, {"VANCOMYCIN 1 GM IVPB"}, [review(copd=1), review(copd=2)])
        assert label_rows(stay, small_ruleset()) == [
            ["p1", "pneumonia", 0, 1, 0, SOURCE_CHART_REVIEW],
            ["p1", "heart_failure", 0, 0, 0, SOURCE_CHART_REVIEW],
            ["p1", "copd", 1, 0, 1, SOURCE_CHART_REVIEW],
        ]

    def test_code_med_fallback_without_reviews(self):
        stay = FakeStay({"J18.9"}, {"VANCOMYCIN 1 GM IVPB"})
        assert label_rows(stay, small_ruleset()) == [
            ["p1", "pneumonia", None, 1, 1, SOURCE_CODE_MED],
            ["p1", "heart_failure", None, 0, 0, SOURCE_CODE_MED],
            ["p1", "copd", None, 0, 0, SOURCE_CODE_MED],
        ]


class TestRaterAgreement:
    def test_hand_worked_table(self):
        kappa, raw = kappa_from_table(40, 10, 10, 40)
        assert kappa == pytest.approx(0.6, abs=1e-12)
        assert raw == pytest.approx(0.8, abs=1e-12)

    def test_total_disagreement_table(self):
        kappa, raw = kappa_from_table(0, 50, 50, 0)
        assert kappa == pytest.approx(-1.0, abs=1e-12)
        assert raw == 0.0

    def test_perfect_agreement_mixed_labels(self):
        patients = [
            [review(1, 1, 2, reviewer="a"), review(2, 1, 2, reviewer="b")],
            [review(4, 3, 4, reviewer="a"), review(3, 4, 3, reviewer="b")],
        ]
        for diag, kappa, raw_agreement, _ in rater_agreement(patients):
            assert kappa == pytest.approx(1.0), diag
            assert raw_agreement == pytest.approx(1.0), diag

    def test_degenerate_marginals(self):
        # unanimous one-sided calls: chance agreement is 1, so kappa is undefined
        patients = [[review(1, 1, 1, reviewer="a"), review(1, 1, 1, reviewer="b")]]
        for diag, kappa, raw_agreement, n_pairs in rater_agreement(patients):
            assert kappa is None, diag
            assert raw_agreement == 1.0
            assert pooled_table(patients, diag) == (2, 0, 0, 0)
            assert n_pairs == 1.0

    def test_needs_multiply_reviewed_patient(self):
        # no patient has two reviews: no pair, so kappa and raw agreement are undefined
        patients = [[review()], [review(1, 1, 1)], []]
        assert rater_agreement(patients) == [[diag, None, None, 0] for diag in DIAGNOSES]
        for diag in DIAGNOSES:
            assert pooled_table(patients, diag) == (0, 0, 0, 0)

    @given(
        st.tuples(
            st.integers(min_value=0, max_value=30),
            st.integers(min_value=0, max_value=30),
            st.integers(min_value=0, max_value=30),
            st.integers(min_value=0, max_value=30),
        )
    )
    def test_kappa_bounds(self, table):
        a, b, c, d = table
        if a + b + c + d == 0:
            return
        try:
            kappa, raw = kappa_from_table(a, b, c, d)
        except DegenerateMarginals:
            return
        assert -1.0 - 1e-12 <= kappa <= 1.0 + 1e-12
        assert 0.0 <= raw <= 1.0
        if kappa == pytest.approx(1.0):
            assert b == 0 and c == 0

    @given(
        st.lists(
            st.lists(st.tuples(*[st.sampled_from(RATING_GRID)] * 3), min_size=1, max_size=4),
            min_size=1, max_size=6,
        )
    )
    def test_pooled_table_matches_pair_loop(self, patients):
        patient_reviews = [[review(*ratings) for ratings in reviews] for reviews in patients]
        for diag in DIAGNOSES:
            assert pooled_table(patient_reviews, diag) == pooled_table_loop(patient_reviews, diag)


class FixedIndexRng:
    """Stands in for a Generator when the held-out index must be forced."""

    def __init__(self, index):
        self.index = index

    def integers(self, low, high=None):
        return self.index


class ListedIndexRng:
    """Stands in for a Generator that must make exactly the listed draws."""

    def __init__(self, indices):
        self.indices = list(indices)

    def integers(self, low, high=None):
        return self.indices.pop(0)


def rated(*ratings):
    """One review per rating, each rating every diagnosis alike."""
    return [review(r, r, r, reviewer=f"r{i}") for i, r in enumerate(ratings)]


def held_out_rows(patient_reviews, model_probs, rng):
    """`physician_comparison` rows by diagnosis, with each patient's model
    probability the same for every diagnosis."""
    probs = np.repeat(np.asarray(model_probs, dtype=float)[:, None], len(DIAGNOSES), axis=1)
    return {row[0]: row[1:] for row in physician_comparison(patient_reviews, probs, rng)}


class TestPhysicianBenchmark:
    """The held-out-reviewer benchmark, which `evaluation.physician_comparison`
    runs on the consensus rule of `aggregate_reviews`."""

    def test_holding_out_the_outlier(self):
        # the held-out fourth review disagrees with the other three's consensus,
        # and the consensus of all four would call both patients negative
        patients = [rated(1, 1, 4, 4), rated(4, 4, 1, 1)]
        rows = held_out_rows(patients, [0.9, 0.1], FixedIndexRng(3))
        for diag in DIAGNOSES + ("macro",):
            assert rows[diag] == (0.0, 1.0, 2), diag  # physician 5 - 4 = 1 on the positive, 4 on the negative

    def test_identical_ratings_consensus_matches_any_holdout(self):
        patients = [rated(2, 2, 2, 2), rated(3, 3, 3, 3)]
        results = [held_out_rows(patients, [0.3, 0.7], FixedIndexRng(held)) for held in range(4)]
        assert all(result == results[0] for result in results)
        assert results[0]["macro"] == (1.0, 0.0, 2)

    def test_two_reviews_are_not_compared(self):
        # the patient with two reviews is skipped and draws nothing
        patients = [rated(1, 1, 1), rated(1, 4), rated(4, 4, 4)]
        rng = ListedIndexRng([0, 0])
        rows = held_out_rows(patients, [0.9, 0.5, 0.1], rng)
        assert rows["macro"] == (1.0, 1.0, 2)
        assert rng.indices == []

    def test_ordinal_score_reverses_rating_order(self):
        # the lowest held-out rating (most likely) scores highest
        patients = [rated(1, 1, 1), rated(2.5, 2, 2), rated(4, 4, 4)]
        rows = held_out_rows(patients, [0.5, 0.5, 0.5], FixedIndexRng(0))
        assert rows["pneumonia"] == (1.0, 0.5, 3)

    def test_seeded_generator_is_reproducible(self):
        # any holdout leaves the first three patients positive and the rest negative
        patients = [rated(1, 1, 1, 4), rated(1, 4, 1, 1), rated(2, 1, 1, 4), rated(4, 4, 4, 1), rated(4, 1, 4, 4)]
        results = [held_out_rows(patients, [0.2, 0.4, 0.6, 0.8, 0.1], np.random.default_rng(5)) for _ in range(3)]
        assert all(result == results[0] for result in results)
        assert results[0]["macro"][2] == 5
