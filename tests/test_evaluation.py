import typing

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from arfdx.evaluation import (
    N_SPLITS,
    REPORT_COLUMNS,
    ROLE_TEST,
    ROLE_TRAIN,
    ROLE_VAL,
    EvalError,
    NoPositives,
    PPVUnattainable,
    SingleClass,
    aupr,
    auroc,
    average_ranks,
    calibration,
    dor_from_confusion,
    macro_auroc,
    macro_average,
    make_splits,
    metrics_report,
    physician_comparison,
    roc_points,
    summarize_splits,
    threshold_at_ppv,
)
from arfdx.labels import DIAGNOSES, ChartReview
from oracles import (
    aupr_loop,
    aupr_stepsum,
    auroc_bruteforce,
    average_ranks_reference,
    make_splits_reference,
    macro_auroc_reference,
    metrics_report_reference,
    physician_comparison_reference,
    roc_points_loop,
    threshold_at_ppv_loop,
)


@st.composite
def tied_scores_and_labels(draw, max_size=40):
    """Scores in [0, 1] rounded to 1 or 2 decimals (heavy ties) and 0/1 labels
    with both classes present."""
    n = draw(st.integers(min_value=2, max_value=max_size))
    decimals = draw(st.sampled_from((1, 2)))
    raw = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(lambda ys: len(set(ys)) == 2))
    return np.round(np.array(raw), decimals), np.array(labels)


class TestMakeSplits:
    def test_exact_60_20_20(self):
        for roles in make_splits(100, seed=0):
            assert np.count_nonzero(roles == ROLE_TRAIN) == 60
            assert np.count_nonzero(roles == ROLE_VAL) == 20
            assert np.count_nonzero(roles == ROLE_TEST) == 20

    def test_remainder_goes_to_train(self):
        roles = make_splits(101, seed=0)[0]
        assert np.count_nonzero(roles == ROLE_TRAIN) == 61
        assert np.count_nonzero(roles == ROLE_VAL) == 20
        assert np.count_nonzero(roles == ROLE_TEST) == 20

    def test_same_seed_identical(self):
        assert np.array_equal(make_splits(37, seed=5), make_splits(37, seed=5))

    def test_roles_partition_patients(self):
        roles = make_splits(41, seed=2)
        assert roles.shape == (N_SPLITS, 41)
        assert set(roles.ravel().tolist()) == {ROLE_TRAIN, ROLE_VAL, ROLE_TEST}

    def test_five_splits_are_not_all_identical(self):
        splits = make_splits(20, seed=3)
        assert len({tuple(roles) for roles in splits.tolist()}) > 1

    def test_too_few_patients_rejected(self):
        with pytest.raises(EvalError):
            make_splits(N_SPLITS - 1, seed=0)

    @pytest.mark.parametrize("n", [5, 9, 41, 100, 101])
    def test_matches_one_patient_at_a_time(self, n):
        for seed in (0, 7, 2**63):
            expected = [[split[i] for i in range(n)] for split in make_splits_reference(n, seed)]
            assert make_splits(n, seed).tolist() == expected


class TestAuroc:
    def test_hand_worked_example(self):
        assert auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75, abs=1e-15)

    def test_perfect_separation(self):
        assert auroc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_all_ties_give_half(self):
        assert auroc([0.3, 0.3, 0.3, 0.3], [1, 0, 1, 0]) == 0.5

    def test_single_class_raises(self):
        with pytest.raises(SingleClass):
            auroc([0.1, 0.2], [1, 1])

    @given(
        st.lists(st.integers(min_value=0, max_value=20), min_size=2, max_size=25),
        st.data(),
    )
    @settings(max_examples=100)
    def test_matches_bruteforce(self, raw_scores, data):
        labels = data.draw(
            st.lists(st.integers(0, 1), min_size=len(raw_scores), max_size=len(raw_scores))
        )
        if len(set(labels)) < 2:
            return
        scores = [s / 4.0 for s in raw_scores]  # plenty of ties
        assert auroc(scores, labels) == pytest.approx(auroc_bruteforce(scores, labels), abs=1e-12)

    @given(
        st.lists(st.integers(min_value=-40, max_value=40), min_size=2, max_size=20),
        st.data(),
    )
    @settings(max_examples=60)
    def test_invariant_under_increasing_transforms(self, grid_scores, data):
        # grid-valued scores keep the transforms exactly order-preserving in floats
        scores = [s / 8.0 for s in grid_scores]
        labels = data.draw(st.lists(st.integers(0, 1), min_size=len(scores), max_size=len(scores)))
        if len(set(labels)) < 2:
            return
        base = auroc(scores, labels)
        affine = auroc([2 * s + 1 for s in scores], labels)
        squashed = auroc([1 / (1 + np.exp(-s)) for s in scores], labels)
        assert affine == pytest.approx(base, abs=1e-12)
        assert squashed == pytest.approx(base, abs=1e-12)

    @given(tied_scores_and_labels())
    @settings(max_examples=150)
    def test_rounded_scores_match_bruteforce(self, case):
        scores, labels = case
        assert auroc(scores, labels) == pytest.approx(auroc_bruteforce(scores, labels), abs=1e-12)
        # one column's rank sum, ranked through np.unique: equal bit for bit
        assert auroc(scores, labels) == macro_auroc_reference(scores[:, None], labels[:, None])

    def test_negation_complements_without_ties(self):
        rng = np.random.default_rng(21)
        scores = rng.permutation(20) / 20.0  # all distinct
        labels = rng.integers(0, 2, size=20)
        if len(set(labels.tolist())) < 2:
            labels[0], labels[1] = 0, 1
        assert auroc(scores, labels) + auroc(-scores, labels) == pytest.approx(1.0, abs=1e-12)


class TestAupr:
    def test_perfect_ranking(self):
        assert aupr([0.9, 0.1], [1, 0]) == 1.0

    def test_reversed_ranking(self):
        assert aupr([0.9, 0.1], [0, 1]) == pytest.approx(0.5, abs=1e-15)

    def test_all_ties_equal_prevalence(self):
        assert aupr([0.4] * 10, [1, 1, 1, 0, 0, 0, 0, 0, 0, 0]) == pytest.approx(0.3, abs=1e-15)

    def test_no_positives_raises(self):
        with pytest.raises(NoPositives):
            aupr([0.1, 0.2], [0, 0])

    @given(
        st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=25),
        st.data(),
    )
    @settings(max_examples=100)
    def test_matches_step_integration_oracle(self, raw_scores, data):
        labels = data.draw(
            st.lists(st.integers(0, 1), min_size=len(raw_scores), max_size=len(raw_scores))
        )
        if sum(labels) == 0:
            return
        scores = [s / 3.0 for s in raw_scores]
        assert aupr(scores, labels) == pytest.approx(aupr_stepsum(scores, labels), abs=1e-12)

    @given(tied_scores_and_labels())
    @settings(max_examples=150)
    def test_rounded_scores_match_the_block_loop_exactly(self, case):
        scores, labels = case
        assert aupr(scores, labels) == aupr_loop(scores, labels)


class TestCalibration:
    def test_constant_half_predictions(self):
        preds = [0.5] * 10
        labels = [1, 0] * 5
        result = calibration(preds, labels)
        assert all(b == (0.5, 0.5, 2) for b in result.bins)
        assert result.ece == 0.0
        assert result.slope == 0.0 and result.intercept == 0.5

    def test_predictions_equal_labels(self):
        preds = [0.0] * 5 + [1.0] * 5
        labels = [0] * 5 + [1] * 5
        result = calibration(preds, labels)
        assert result.ece == 0.0
        assert result.slope == pytest.approx(1.0)
        assert result.intercept == pytest.approx(0.0)

    def test_remainder_spread_to_lowest_bins(self):
        preds = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
        labels = [0, 0, 0, 1, 1, 1, 1]
        result = calibration(preds, labels)
        assert [b[2] for b in result.bins] == [2, 2, 1, 1, 1]

    def test_bernoulli_labels_are_nearly_calibrated(self):
        rng = np.random.default_rng(2024)
        preds = rng.random(10000)
        labels = (rng.random(10000) < preds).astype(int)
        result = calibration(preds, labels)
        assert result.ece < 0.02

    def test_ece_zero_when_bins_agree(self):
        preds = np.repeat([0.1, 0.3, 0.5, 0.7, 0.9], 10)
        rng = np.random.default_rng(7)
        labels = np.concatenate([
            (rng.permutation(10) < round(p * 10)).astype(int) for p in (0.1, 0.3, 0.5, 0.7, 0.9)
        ])
        result = calibration(preds, labels)
        assert result.ece == pytest.approx(0.0, abs=1e-15)

    def test_too_few_samples(self):
        with pytest.raises(EvalError):
            calibration([0.5, 0.5], [0, 1])


class TestThresholdAtPpv:
    def test_exhaustive_scan_example(self):
        result = threshold_at_ppv([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0], target=0.5)
        assert result.threshold == pytest.approx(0.7)
        assert result.sensitivity == 1.0
        assert result.specificity == 0.5
        assert result.corrected is True
        assert result.dor == pytest.approx(5.0, abs=1e-12)

    def test_dor_without_zero_cells(self):
        dor, corrected = dor_from_confusion(8, 2, 2, 8)
        assert dor == 16.0
        assert corrected is False

    def test_uninformative_classifier(self):
        dor, corrected = dor_from_confusion(5, 5, 5, 5)
        assert dor == 1.0
        assert corrected is False

    def test_unattainable_target(self):
        with pytest.raises(PPVUnattainable):
            threshold_at_ppv([0.5, 0.5], [1, 0], target=0.9)

    @given(tied_scores_and_labels(), st.sampled_from((0.2, 0.5, 0.7, 0.9, 1.0)))
    @settings(max_examples=150)
    def test_matches_threshold_scan_oracle(self, case, target):
        preds, labels = case
        expected = threshold_at_ppv_loop(preds, labels, target)
        if expected is None:
            with pytest.raises(PPVUnattainable):
                threshold_at_ppv(preds, labels, target=target)
            return
        result = threshold_at_ppv(preds, labels, target=target)
        got = (result.threshold, result.sensitivity, result.specificity, result.dor, result.corrected,
               result.confusion)
        assert got == expected
        assert all(type(v) is int for v in result.confusion)

    def test_achieved_ppv_meets_target(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(6, 40))
            preds = rng.random(n).round(1)
            labels = rng.integers(0, 2, size=n)
            if len(set(labels.tolist())) < 2:
                continue
            try:
                result = threshold_at_ppv(preds, labels, target=0.5)
            except PPVUnattainable:
                continue
            tp, fp, _, _ = result.confusion
            assert tp / (tp + fp) >= 0.5
            predicted = preds >= result.threshold
            assert tp == int(np.sum(predicted & (labels == 1)))


class TestAggregation:
    def test_macro_average_paper_style_values(self):
        assert macro_average([0.79, 0.83, 0.88]) == pytest.approx(0.8333333333333334)

    def test_macro_average_identical(self):
        assert macro_average([0.7, 0.7, 0.7]) == pytest.approx(0.7)

    def test_macro_average_simple(self):
        assert macro_average([0.0, 1.0, 0.5]) == pytest.approx(0.5)

    def test_macro_average_needs_three(self):
        with pytest.raises(EvalError):
            macro_average([0.5, 0.5])

    def test_summarize_splits_examples(self):
        assert summarize_splits([0.77, 0.79, 0.79, 0.79, 0.79]) == (0.79, 0.77, 0.79)
        assert summarize_splits([0.5] * 5) == (0.5, 0.5, 0.5)
        assert summarize_splits([1, 2, 3, 4, 5]) == (3, 1, 5)

    def test_summarize_needs_five(self):
        with pytest.raises(EvalError):
            summarize_splits([1, 2, 3])

    def test_macro_auroc_skips_single_class_columns(self):
        probs = np.array([[0.9, 0.5, 0.5], [0.1, 0.5, 0.5]])
        labels = np.array([[1, 1, 0], [0, 1, 0]])
        assert macro_auroc(probs, labels) == 1.0
        with pytest.raises(SingleClass):
            macro_auroc(probs, np.array([[1, 1, 1], [1, 1, 1]]))


@st.composite
def stacked_probs_and_labels(draw):
    """(G, n, 3) probabilities on a coarse grid (heavy ties) and (n, 3) 0/1
    labels; each label column may be held single-class."""
    g = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=2, max_value=25))
    grid = draw(st.sampled_from((2, 5, 20)))
    probs = draw(arrays(np.int64, (g, n, 3), elements=st.integers(0, grid))) / grid
    labels = draw(arrays(np.int64, (n, 3), elements=st.integers(0, 1)))
    for col, held in enumerate(draw(st.lists(st.sampled_from((None, 0, 1)), min_size=3, max_size=3))):
        if held is not None:
            labels[:, col] = held
    return probs, labels


class TestStackedMacroAuroc:
    @given(stacked_probs_and_labels())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_per_row_result_and_the_bruteforce_oracle(self, case):
        probs, labels = case
        ranked = average_ranks(probs.swapaxes(-1, -2))
        assert all(np.array_equal(ranked[g, col], average_ranks_reference(probs[g, :, col]))
                   for g in range(len(probs)) for col in range(3))
        assert all(np.array_equal(average_ranks(probs[g, :, col]), average_ranks_reference(probs[g, :, col]))
                   for g in range(len(probs)) for col in range(3))
        scored = [col for col in range(3) if 0 < labels[:, col].sum() < len(labels)]
        if not scored:
            with pytest.raises(SingleClass):
                macro_auroc(probs, labels)
            with pytest.raises(SingleClass):
                macro_auroc(probs[0], labels)
            return
        stacked = macro_auroc(probs, labels)
        assert stacked.shape == (len(probs),)
        for row, value in zip(probs, stacked):
            reference = macro_auroc_reference(row, labels)
            assert value == reference  # bit for bit
            assert macro_auroc(row, labels) == reference
            assert isinstance(macro_auroc(row, labels), float)
        for col in scored:
            # every other column single-class: the macro value is this column's AUROC
            alone = np.zeros_like(labels)
            alone[:, col] = labels[:, col]
            for row, value in zip(probs, macro_auroc(probs, alone)):
                assert abs(value - auroc_bruteforce(row[:, col], labels[:, col])) <= 1e-12

    def test_columns_are_averaged_left_to_right(self):
        rng = np.random.default_rng(31)
        probs = rng.random((40, 60, 3))
        labels = (rng.random((60, 3)) < 0.4).astype(int)
        columns = [[auroc(row[:, col], labels[:, col]) for col in range(3)] for row in probs]
        # the case tells summation orders apart: some row's sum depends on it
        assert any((a + b) + c != (c + b) + a for a, b, c in columns)
        expected = [macro_auroc_reference(row, labels) for row in probs]
        assert macro_auroc(probs, labels).tolist() == expected
        assert [macro_auroc(row, labels) for row in probs] == expected

    def test_empty_row_has_empty_ranks(self):
        assert average_ranks(np.array([])).shape == (0,)
        assert average_ranks(np.empty((3, 0))).shape == (3, 0)


class TestRocPoints:
    def test_endpoints(self):
        points = roc_points([0.9, 0.6, 0.4, 0.2], [1, 1, 0, 0])
        assert points[0][:2] == (0.0, 0.0)
        assert points[-1][:2] == (1.0, 1.0)
        fprs = [p[0] for p in points]
        tprs = [p[1] for p in points]
        assert fprs == sorted(fprs)
        assert tprs == sorted(tprs)

    @given(tied_scores_and_labels())
    @settings(max_examples=150)
    def test_matches_threshold_scan_oracle(self, case):
        scores, labels = case
        assert roc_points(scores, labels) == roc_points_loop(scores, labels)


def metric_cells(report):
    """{(diagnosis, metric): value} of a report's `metrics` rows."""
    return {(diag, metric): value for diag, metric, value in report["metrics"]}


@st.composite
def split_predictions(draw):
    """Test and validation (n, 3) probabilities from five values (heavy ties)
    and 0/1 labels, with 0-12 patients each, so calibration often has too
    few samples and a label column is often single-class."""
    def probs_and_labels():
        n = draw(st.integers(min_value=0, max_value=12))
        probs = draw(arrays(float, (n, 3), elements=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])))
        return probs, draw(arrays(int, (n, 3), elements=st.integers(min_value=0, max_value=1)))

    return (*probs_and_labels(), *probs_and_labels())


class TestMetricsReport:
    def test_type_hints_resolve(self):
        hints = typing.get_type_hints(metrics_report)
        assert set(hints) == {"test_probs", "test_labels", "val_probs", "val_labels", "return"}

    def test_complete_report(self):
        rng = np.random.default_rng(41)
        n = 40
        labels = rng.integers(0, 2, size=(n, 3))
        labels[0] = [1, 1, 1]
        labels[1] = [0, 0, 0]
        probs = np.clip(labels * 0.6 + rng.random((n, 3)) * 0.4, 0.0, 1.0)
        report = metrics_report(probs, labels, probs, labels)
        cells = metric_cells(report)
        for diag in DIAGNOSES:
            assert cells[(diag, "auroc")] is not None
            assert cells[(diag, "aupr")] is not None
            bins = [row[2:4] for row in report["calibration_bins"] if row[0] == diag]
            assert cells[(diag, "ece")] == pytest.approx(np.mean([abs(mean - observed) for mean, observed in bins]))
            assert None not in next(row for row in report["recalibration"] if row[0] == diag)
        assert cells[("macro", "auroc")] == pytest.approx(macro_average([cells[(d, "auroc")] for d in DIAGNOSES]))
        for table, rows in report.items():
            assert all(len(row) == len(REPORT_COLUMNS[table]) for row in rows)

    def test_degenerate_cells_become_none(self):
        probs = np.full((10, 3), 0.5)
        labels = np.zeros((10, 3), dtype=int)
        labels[:5, 0] = 1  # only the first diagnosis has both classes
        report = metrics_report(probs, labels, probs, labels)
        cells = metric_cells(report)
        assert cells[("pneumonia", "auroc")] == 0.5
        assert cells[("heart_failure", "auroc")] is None
        assert cells[("copd", "aupr")] is None
        assert cells[("macro", "auroc")] is None
        # calibration is still defined for a single-class column
        assert cells[("heart_failure", "ece")] is not None
        assert {row[0] for row in report["roc_points"]} == {"pneumonia"}

    def test_unattainable_operating_point_is_none(self):
        probs = np.full((10, 3), 0.5)
        labels = np.zeros((10, 3), dtype=int)
        labels[0, :] = 1  # prevalence 0.1 < target PPV at the only threshold
        cells = metric_cells(metrics_report(probs, labels, probs, labels))
        for metric in ("threshold", "sensitivity", "specificity", "dor", "dor_corrected"):
            assert cells[("pneumonia", metric)] is None

    @settings(max_examples=300, deadline=None)
    @given(split_predictions())
    def test_matches_reference(self, split):
        # repr tells every float bit and None apart, and ints from floats
        assert repr(metrics_report(*split)) == repr(metrics_report_reference(*split))


class SeqRng:
    def __init__(self, picks):
        self.picks = list(picks)

    def integers(self, low, high=None):
        return self.picks.pop(0)


def review_all(rating, reviewer):
    return ChartReview(
        reviewer_id=reviewer,
        scores={"pneumonia": rating, "heart_failure": rating, "copd": rating},
    )


def comparison_by_diagnosis(rows):
    return {diag: (physician, model, n) for diag, physician, model, n in rows}


HALF_POINTS = [1.0 + 0.5 * k for k in range(7)]


@st.composite
def reviewed_test_patients(draw):
    """1-4 half-point reviews for each of 0-20 patients, (n, 3) probabilities
    from five values (heavy ties), and a generator seed."""
    n = draw(st.integers(min_value=0, max_value=20))
    reviews = [
        [ChartReview(f"r{j}", dict(zip(DIAGNOSES, draw(st.tuples(*[st.sampled_from(HALF_POINTS)] * 3)))))
         for j in range(draw(st.integers(min_value=1, max_value=4)))]
        for _ in range(n)
    ]
    probs = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=3 * n, max_size=3 * n))
    return reviews, np.array(probs, dtype=float).reshape(n, 3), draw(st.integers(min_value=0, max_value=2**32 - 1))


class TestPhysicianComparison:
    def patients(self, held_ratings, other_ratings, model_probs):
        """Three reviews per patient, the first one the held-out review under `SeqRng([0, ...])`."""
        reviews = [[review_all(held, "held"), review_all(other, "r1"), review_all(other, "r2")]
                   for held, other in zip(held_ratings, other_ratings)]
        return reviews, np.repeat(np.asarray(model_probs, dtype=float)[:, None], 3, axis=1)

    def test_concordant_physician_scores(self):
        # held-out ratings (1, 4, 2) vs consensus labels (1, 0, 1)
        reviews, probs = self.patients([1.0, 4.0, 2.0], [1.0, 4.0, 2.0], [1.0, 0.0, 1.0])
        rows = comparison_by_diagnosis(physician_comparison(reviews, probs, SeqRng([0, 0, 0])))
        assert list(rows) == ["pneumonia", "heart_failure", "copd", "macro"]
        assert rows["pneumonia"] == (1.0, 1.0, 3)
        assert rows["macro"] == (1.0, 1.0, 3)

    def test_constant_physician_rating_is_chance(self):
        reviews, probs = self.patients([2.0, 2.0, 2.0], [1.0, 4.0, 1.0], [0.9, 0.1, 0.8])
        rows = comparison_by_diagnosis(physician_comparison(reviews, probs, SeqRng([0, 0, 0])))
        assert rows["pneumonia"] == (0.5, 1.0, 3)

    def test_single_class_consensus_writes_no_rows(self):
        reviews, probs = self.patients([1.0, 2.0], [1.0, 1.0], [0.5, 0.5])
        assert physician_comparison(reviews, probs, SeqRng([0, 0])) == []

    def test_no_patient_with_three_reviews_writes_no_rows(self):
        reviews = [[review_all(1.0, "a")], [review_all(4.0, "a"), review_all(4.0, "b")], []]
        assert physician_comparison(reviews, np.full((3, 3), 0.5), SeqRng([])) == []
        assert physician_comparison([], np.empty((0, 3)), SeqRng([])) == []

    @settings(max_examples=300, deadline=None)
    @given(reviewed_test_patients())
    def test_matches_reference(self, case):
        reviews, probs, seed = case
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        rows = physician_comparison(reviews, probs, rng)
        try:
            expected = physician_comparison_reference(reviews, probs, reference_rng)
        except EvalError:
            expected = []
        assert rows == expected  # bit for bit: == on every float
        assert rng.bit_generator.state == reference_rng.bit_generator.state
