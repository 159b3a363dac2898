"""Patient-level splits and the discrimination/calibration/threshold metrics.

AUROC follows the Mann-Whitney pairwise definition (ties count half), AUPR is
the step-summed average precision with tied scores processed as one block,
calibration uses prediction quintiles, and the operating point fixes a target
positive predictive value before reading off sensitivity, specificity, and
the diagnostic odds ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from . import labels as labels_mod
from .labels import DIAGNOSES, ChartReview


class EvalError(ValueError):
    pass


class SingleClass(EvalError):
    pass


class NoPositives(EvalError):
    pass


class PPVUnattainable(EvalError):
    pass


ROLE_TRAIN = "train"
ROLE_VAL = "val"
ROLE_TEST = "test"

N_SPLITS = 5  # independent patient-level shuffles
CALIBRATION_BINS = 5  # prediction quintiles
OPERATING_PPV = 0.5  # the paper's operating point fixes PPV at 50%


@dataclass(frozen=True)
class SplitAssignment:
    split_index: int
    roles: Mapping[str, str]  # patient_id -> train/val/test

    def ids_with_role(self, role: str) -> list[str]:
        return [pid for pid, r in self.roles.items() if r == role]


def make_splits(patient_ids: Sequence[str], seed: int) -> list[SplitAssignment]:
    """Five independent seeded shuffles into 60/20/20 train/val/test.

    Validation and test each take floor(0.2 n) patients; the remainder goes
    to training, keeping every fraction within one patient of its target.
    """
    ids = list(patient_ids)
    n = len(ids)
    if n < N_SPLITS:
        raise EvalError(f"need at least {N_SPLITS} patients, got {n}")
    if len(set(ids)) != n:
        raise EvalError("patient ids must be unique")
    n_val = n // 5
    n_test = n // 5
    n_train = n - n_val - n_test
    splits = []
    for split_index in range(N_SPLITS):
        rng = np.random.default_rng([seed, split_index])
        order = [ids[i] for i in rng.permutation(n)]
        roles = {}
        for pid in order[:n_train]:
            roles[pid] = ROLE_TRAIN
        for pid in order[n_train : n_train + n_val]:
            roles[pid] = ROLE_VAL
        for pid in order[n_train + n_val :]:
            roles[pid] = ROLE_TEST
        splits.append(SplitAssignment(split_index=split_index, roles=roles))
    return splits


def _validate_scores(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise EvalError("scores and labels must be 1-D and the same length")
    return scores, labels


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ascending ranks along the last axis; tied values share the
    average of their positions.

    Each tied block i..j (0-based sorted positions) gets rank (i + j) / 2 + 1,
    a multiple of 0.5, so sums of ranks are exact in float64. Every row
    shares one stable argsort and finds its tie blocks from sorted neighbours.
    """
    values = np.asarray(values)
    n = max(values.shape[-1], 1)  # an empty row still needs a nonzero stride
    # rows laid end to end: a tied block never crosses a row start, and a flat
    # position minus its row's offset is its position within the row
    offset = np.repeat(np.arange(values.size // n) * n, n)
    order = np.argsort(values, axis=-1, kind="stable").reshape(-1) + offset
    ordered = values.reshape(-1)[order]
    new_block = np.empty(values.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=new_block[1:])
    new_block[::n] = True
    starts = np.flatnonzero(new_block)
    ends = np.append(starts[1:], values.size) - 1
    ranks = np.empty(values.size)
    ranks[order] = ((starts + ends) / 2.0)[np.cumsum(new_block) - 1] - offset + 1.0
    return ranks.reshape(values.shape)


def auroc(scores, labels) -> float:
    """Probability a random positive outranks a random negative; ties count half."""
    scores, labels = _validate_scores(scores, labels)
    cols, values = column_aurocs(scores[:, None], labels[:, None])
    if cols.size == 0:
        raise SingleClass("AUROC needs both classes present")
    return float(values[0])


def aupr(scores, labels) -> float:
    """Average precision: sum of recall increments times precision, by blocks of ties."""
    scores, labels = _validate_scores(scores, labels)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise NoPositives("AUPR needs at least one positive")
    _, tp, fp = _counts_at_or_above(scores, labels)
    tp, fp = tp[::-1], fp[::-1]  # tied blocks from the highest score down
    recall = tp / n_pos
    terms = np.diff(recall, prepend=0.0) * (tp / (tp + fp))
    # a running sum adds the terms left to right, like a scalar loop; np.sum is pairwise
    return float(np.cumsum(terms)[-1])


@dataclass(frozen=True)
class CalibrationResult:
    bins: tuple[tuple[float, float, int], ...]  # (mean prediction, observed positive fraction, count)
    slope: float
    intercept: float
    ece: float


def calibration(preds, labels) -> CalibrationResult:
    """Quintile calibration: per-bin mean prediction vs observed rate, a
    least-squares recalibration line through the bin points, and the
    unweighted mean absolute gap (ECE).

    Bins are equal-count after sorting by prediction; when n is not divisible
    by the bin count the extra patients go to the lowest-prediction bins.
    """
    preds, labels = _validate_scores(preds, labels)
    n = preds.shape[0]
    if n < CALIBRATION_BINS:
        raise EvalError(f"calibration needs at least {CALIBRATION_BINS} samples")
    order = np.argsort(preds, kind="stable")
    base = n // CALIBRATION_BINS
    remainder = n % CALIBRATION_BINS
    bins = []
    start = 0
    for b in range(CALIBRATION_BINS):
        size = base + (1 if b < remainder else 0)
        idx = order[start : start + size]
        start += size
        bins.append((float(preds[idx].mean()), float(labels[idx].mean()), size))
    xs = np.array([b[0] for b in bins])
    ys = np.array([b[1] for b in bins])
    x_var = float(((xs - xs.mean()) ** 2).sum())
    if x_var > 0.0:
        slope = float(((xs - xs.mean()) * (ys - ys.mean())).sum() / x_var)
        intercept = float(ys.mean() - slope * xs.mean())
    else:
        slope = 0.0
        intercept = float(ys.mean())
    ece = float(np.mean(np.abs(xs - ys)))
    return CalibrationResult(bins=tuple(bins), slope=slope, intercept=intercept, ece=ece)


@dataclass(frozen=True)
class ThresholdResult:
    threshold: float
    sensitivity: float
    specificity: float
    dor: float
    corrected: bool  # True when the 0.5 zero-cell correction was applied
    confusion: tuple[int, int, int, int]  # (tp, fp, fn, tn)


def dor_from_confusion(tp: float, fp: float, fn: float, tn: float) -> tuple[float, bool]:
    """Diagnostic odds ratio, adding 0.5 to every cell when any cell is zero."""
    corrected = 0 in (tp, fp, fn, tn)
    if corrected:
        tp, fp, fn, tn = tp + 0.5, fp + 0.5, fn + 0.5, tn + 0.5
    return (tp * tn) / (fp * fn), corrected


def _counts_at_or_above(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct scores ascending, with the positives and negatives scoring at
    or above each one (suffix sums of the per-value counts)."""
    thresholds, block = np.unique(scores, return_inverse=True)
    u = thresholds.shape[0]
    tp = np.cumsum(np.bincount(block[labels == 1], minlength=u)[::-1])[::-1]
    fp = np.cumsum(np.bincount(block[labels == 0], minlength=u)[::-1])[::-1]
    return thresholds, tp, fp


def threshold_at_ppv(preds, labels, target: float = OPERATING_PPV) -> ThresholdResult:
    """Operating point with PPV >= target: maximal sensitivity, ties to
    maximal specificity. Classification is positive when pred >= threshold,
    scanning the distinct prediction values."""
    preds, labels = _validate_scores(preds, labels)
    n_pos = int(labels.sum())
    n_neg = labels.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClass("threshold selection needs both classes present")
    thresholds, tp, fp = _counts_at_or_above(preds, labels)
    attained = ~(tp / (tp + fp) < target)  # each threshold is some score, so tp + fp >= 1
    if not attained.any():
        raise PPVUnattainable(f"no threshold reaches PPV >= {target}")
    sens = tp / n_pos
    spec = (n_neg - fp) / n_neg
    # maximal sensitivity, ties to maximal specificity
    candidates = np.flatnonzero(attained)
    candidates = candidates[sens[candidates] == sens[candidates].max()]
    k = int(candidates[np.argmax(spec[candidates])])
    tp_k, fp_k = int(tp[k]), int(fp[k])
    confusion = (tp_k, fp_k, n_pos - tp_k, n_neg - fp_k)
    dor, corrected = dor_from_confusion(*confusion)
    return ThresholdResult(
        threshold=float(thresholds[k]), sensitivity=tp_k / n_pos, specificity=(n_neg - fp_k) / n_neg,
        dor=dor, corrected=corrected, confusion=confusion,
    )


def macro_average(per_diagnosis_values: Sequence[float]) -> float:
    if len(per_diagnosis_values) != len(DIAGNOSES):
        raise EvalError("macro average expects one value per diagnosis")
    return float(sum(per_diagnosis_values)) / len(DIAGNOSES)


def summarize_splits(values: Sequence[float]) -> tuple[float, float, float]:
    """(median, min, max) over exactly `N_SPLITS` split values; median is exact."""
    if len(values) != N_SPLITS:
        raise EvalError(f"cross-split summary expects exactly {N_SPLITS} values")
    ordered = sorted(float(v) for v in values)
    return (ordered[N_SPLITS // 2], ordered[0], ordered[-1])


def column_aurocs(probs: np.ndarray, label_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The label columns holding both classes, and the AUROC of each, shape
    (..., columns) for (..., n, k) scores, from one stacked rank pass.

    The one home of the rank-sum formula: `auroc` and `macro_auroc` call it.
    Ranks are multiples of 0.5, so their sums are exact at any stacking.
    """
    label_matrix = np.asarray(label_matrix, dtype=int)
    n_pos = label_matrix.sum(axis=0)
    n_neg = label_matrix.shape[0] - n_pos
    cols = np.flatnonzero((n_pos > 0) & (n_neg > 0))
    if cols.size == 0:
        return cols, np.empty(probs.shape[:-2] + (0,))
    n_pos, n_neg = n_pos[cols], n_neg[cols]
    ranks = average_ranks(probs[..., cols].swapaxes(-1, -2))  # (..., columns, n)
    pos_rank_sum = (ranks * label_matrix[:, cols].T).sum(axis=-1)
    return cols, (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def macro_auroc(probs: np.ndarray, label_matrix: np.ndarray) -> float | np.ndarray:
    """Macro AUROC over the three diagnosis columns: a float for (n, 3)
    probabilities, one value per config for stacked (G, n, 3) ones.

    Columns where the labels are single-class carry no ranking information
    and are skipped; if every column is single-class this raises. The column
    AUROCs are summed left to right, as `np.mean` sums three values.
    """
    cols, values = column_aurocs(np.asarray(probs, dtype=float), label_matrix)
    if cols.size == 0:
        raise SingleClass("every diagnosis is single-class; macro AUROC undefined")
    total = values[..., 0].copy()
    for k in range(1, cols.size):
        total += values[..., k]
    return total / cols.size


def roc_points(scores, labels) -> list[tuple[float, float, float]]:
    """(fpr, tpr, threshold) at each distinct score, descending, for plotting."""
    scores, labels = _validate_scores(scores, labels)
    n_pos = int(labels.sum())
    n_neg = labels.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClass("ROC needs both classes present")
    thresholds, tp, fp = _counts_at_or_above(scores, labels)
    points = [(0.0, 0.0, float("inf"))]
    points.extend(
        (f / n_neg, t / n_pos, thr)
        for thr, t, f in zip(thresholds[::-1].tolist(), tp[::-1].tolist(), fp[::-1].tolist())
    )
    return points


# --- per-split report ----------------------------------------------------------

@dataclass(frozen=True)
class DiagnosisMetrics:
    """One diagnosis's metrics on a test split; degenerate cells are None."""

    prevalence: Optional[float]
    auroc: Optional[float]
    aupr: Optional[float]
    ece: Optional[float]
    calibration: Optional[CalibrationResult]
    operating_point: Optional[ThresholdResult]
    recalibration: Optional[tuple[float, float]]  # (slope, intercept) fitted on validation


@dataclass(frozen=True)
class MetricsReport:
    per_diagnosis: Mapping[str, DiagnosisMetrics]
    macro_auroc: Optional[float]
    macro_aupr: Optional[float]
    macro_ece: Optional[float]


def metrics_report(
    test_probs: np.ndarray,
    test_labels: np.ndarray,
    val_probs: Optional[np.ndarray] = None,
    val_labels: Optional[np.ndarray] = None,
) -> MetricsReport:
    """Full discrimination/calibration/threshold report for one split.

    A cell that cannot be computed (single-class labels, unattainable PPV,
    too few samples) is reported as None instead of aborting the report;
    macro averages are None whenever any constituent diagnosis is. The
    recalibration line comes from validation predictions when provided.
    """
    test_probs = np.atleast_2d(np.asarray(test_probs, dtype=float))
    test_labels = np.atleast_2d(np.asarray(test_labels, dtype=int))
    per_diagnosis = {}
    for idx, diagnosis in enumerate(DIAGNOSES):
        scores = test_probs[:, idx]
        y = test_labels[:, idx]
        prevalence = float(y.mean()) if y.size else None
        try:
            auroc_value = auroc(scores, y)
        except SingleClass:
            auroc_value = None
        try:
            aupr_value = aupr(scores, y)
        except (NoPositives, EvalError):
            aupr_value = None
        try:
            cal = calibration(scores, y)
        except EvalError:
            cal = None
        try:
            operating_point = threshold_at_ppv(scores, y)
        except (PPVUnattainable, SingleClass):
            operating_point = None
        recal = None
        if val_probs is not None and val_labels is not None:
            try:
                val_cal = calibration(
                    np.atleast_2d(np.asarray(val_probs, dtype=float))[:, idx],
                    np.atleast_2d(np.asarray(val_labels, dtype=int))[:, idx],
                )
                recal = (val_cal.slope, val_cal.intercept)
            except EvalError:
                recal = None
        per_diagnosis[diagnosis] = DiagnosisMetrics(
            prevalence=prevalence,
            auroc=auroc_value,
            aupr=aupr_value,
            ece=None if cal is None else cal.ece,
            calibration=cal,
            operating_point=operating_point,
            recalibration=recal,
        )

    def macro_or_none(values):
        return macro_average(values) if None not in values else None

    return MetricsReport(
        per_diagnosis=per_diagnosis,
        macro_auroc=macro_or_none([per_diagnosis[d].auroc for d in DIAGNOSES]),
        macro_aupr=macro_or_none([per_diagnosis[d].aupr for d in DIAGNOSES]),
        macro_ece=macro_or_none([per_diagnosis[d].ece for d in DIAGNOSES]),
    )


# --- physician benchmark comparison ------------------------------------------

@dataclass(frozen=True)
class PhysicianCase:
    """One test patient with 3+ chart reviews and the model's probabilities."""

    reviews: Sequence[ChartReview]
    model_probs: Mapping[str, float]


@dataclass(frozen=True)
class ComparisonResult:
    physician_auroc: Mapping[str, float]  # per diagnosis plus "macro"
    model_auroc: Mapping[str, float]
    n_patients: int


def physician_comparison(cases: Sequence[PhysicianCase], rng: np.random.Generator) -> ComparisonResult:
    """Randomly held-out reviewer vs model, scored against the remaining-review consensus.

    The physician's prediction score is the ordinal 5 - rating from the
    held-out review; the consensus of the other reviews provides the labels
    for both contenders.
    """
    if not cases:
        raise EvalError("physician comparison needs at least one case")
    phys_scores = {d: [] for d in DIAGNOSES}
    model_scores = {d: [] for d in DIAGNOSES}
    truth = {d: [] for d in DIAGNOSES}
    for case in cases:
        bench = labels_mod.physician_benchmark(list(case.reviews), rng)
        for diag in DIAGNOSES:
            phys_scores[diag].append(bench.ordinal_scores[diag])
            model_scores[diag].append(float(case.model_probs[diag]))
            truth[diag].append(int(bench.consensus[diag]))
    phys = {d: auroc(phys_scores[d], truth[d]) for d in DIAGNOSES}
    model = {d: auroc(model_scores[d], truth[d]) for d in DIAGNOSES}
    phys["macro"] = macro_average([phys[d] for d in DIAGNOSES])
    model["macro"] = macro_average([model[d] for d in DIAGNOSES])
    return ComparisonResult(physician_auroc=phys, model_auroc=model, n_patients=len(cases))
