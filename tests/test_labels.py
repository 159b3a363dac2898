import numpy as np
import pytest
from hypothesis import given, strategies as st

from arfdx.labels import (
    DIAGNOSES,
    ChartReview,
    DegenerateMarginals,
    LabelError,
    NoReviews,
    PhenotypeRule,
    PhenotypeRuleset,
    TooFewReviews,
    aggregate_reviews,
    code_med_label,
    kappa_from_table,
    load_ruleset,
    physician_benchmark,
    rater_agreement,
    save_ruleset,
)

RATING_GRID = [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]


def review(pneumonia=4.0, heart_failure=4.0, copd=4.0, reviewer="r"):
    return ChartReview(
        reviewer_id=reviewer,
        scores={"pneumonia": pneumonia, "heart_failure": heart_failure, "copd": copd},
    )


class FakeStay:
    def __init__(self, icd_codes=(), medications=()):
        self.icd_codes = set(icd_codes)
        self.medications = set(medications)


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
        save_ruleset(path, small_ruleset())
        loaded = load_ruleset(path)
        assert loaded == small_ruleset()


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
        for diag, result in rater_agreement(patients).items():
            assert result.kappa == pytest.approx(1.0), diag
            assert result.raw_agreement == pytest.approx(1.0), diag

    def test_degenerate_marginals(self):
        # unanimous one-sided calls: chance agreement is 1, so kappa is undefined
        patients = [[review(1, 1, 1, reviewer="a"), review(1, 1, 1, reviewer="b")]]
        for diag, result in rater_agreement(patients).items():
            assert result.kappa is None, diag
            assert result.raw_agreement == 1.0
            assert result.table == (2, 0, 0, 0)
            assert result.n_pairs == 1.0

    def test_needs_multiply_reviewed_patient(self):
        with pytest.raises(LabelError):
            rater_agreement([[review()], [review()]])

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


class FixedIndexRng:
    """Stands in for a Generator when the held-out index must be forced."""

    def __init__(self, index):
        self.index = index

    def integers(self, low, high=None):
        return self.index


class TestPhysicianBenchmark:
    def test_holding_out_the_outlier(self):
        reviews = [review(pneumonia=1, reviewer="a"), review(pneumonia=1, reviewer="b"),
                   review(pneumonia=4, reviewer="c")]
        bench = physician_benchmark(reviews, FixedIndexRng(2))
        assert bench.held_out.reviewer_id == "c"
        assert bench.consensus.pneumonia is True  # remaining mean is 1
        assert bench.ordinal_scores["pneumonia"] == 1.0  # 5 - 4

    def test_identical_ratings_consensus_matches_any_holdout(self):
        reviews = [review(pneumonia=2, reviewer=f"r{i}") for i in range(4)]
        for held in range(4):
            bench = physician_benchmark(reviews, FixedIndexRng(held))
            assert bench.consensus.pneumonia is reviews[held].binary_call("pneumonia")

    def test_two_reviews_raises(self):
        with pytest.raises(TooFewReviews):
            physician_benchmark([review(), review()], np.random.default_rng(0))

    def test_ordinal_score_reverses_rating_order(self):
        ratings = [1.0, 2.5, 4.0]
        reviews = [review(pneumonia=r, reviewer=f"r{i}") for i, r in enumerate(ratings + [1.0])]
        scores = [
            physician_benchmark(reviews, FixedIndexRng(i)).ordinal_scores["pneumonia"]
            for i in range(3)
        ]
        assert scores == sorted(scores, reverse=True)
        assert all(1.0 <= s <= 4.0 for s in scores)

    def test_seeded_generator_is_reproducible(self):
        reviews = [review(pneumonia=r, reviewer=f"r{i}") for i, r in enumerate([1, 2, 3, 4])]
        picks = {physician_benchmark(reviews, np.random.default_rng(5)).held_out.reviewer_id
                 for _ in range(3)}
        assert len(picks) == 1
