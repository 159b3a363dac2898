"""Patient-level splits and the discrimination/calibration/threshold metrics.

`make_splits` gives each patient a role in each of the `N_SPLITS` splits, as
the (split, patient) array that `splits.csv` lists row by row. AUROC follows
the Mann-Whitney pairwise definition (ties count half), AUPR is the
step-summed average precision with tied scores processed as one block,
calibration uses prediction quintiles, and the operating point fixes a target
positive predictive value before reading off sensitivity, specificity, and
the diagnostic odds ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

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


def make_splits(n: int, seed: int) -> np.ndarray:
    """(N_SPLITS, n) roles of n patients in patient order: five independent
    seeded shuffles into 60/20/20 train/val/test, split by split as `splits.csv`
    lists them.

    Validation and test each take floor(0.2 n) patients; the remainder goes
    to training, keeping every fraction within one patient of its target.
    """
    if n < N_SPLITS:
        raise EvalError(f"need at least {N_SPLITS} patients, got {n}")
    n_val = n // 5
    n_test = n // 5
    n_train = n - n_val - n_test
    roles = np.full((N_SPLITS, n), ROLE_TRAIN)
    for split_index in range(N_SPLITS):
        order = np.random.default_rng([seed, split_index]).permutation(n)
        roles[split_index, order[n_train : n_train + n_val]] = ROLE_VAL
        roles[split_index, order[n_train + n_val :]] = ROLE_TEST
    return roles


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


def summarize_splits(values: Sequence[Optional[float]]) -> tuple[Optional[float], ...]:
    """(median, min, max) over exactly `N_SPLITS` split values; median is exact.
    All three are None when any split's value is."""
    if len(values) != N_SPLITS:
        raise EvalError(f"cross-split summary expects exactly {N_SPLITS} values")
    if None in values:
        return (None, None, None)
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

# The columns of each table `metrics_report` fills, after the (model, split)
# prefix its caller adds. A cell that cannot be computed is None, an empty field.
REPORT_COLUMNS = {
    "metrics": ("diagnosis", "metric", "value"),
    "calibration_bins": ("diagnosis", "bin", "mean_prediction", "observed_fraction", "count"),
    "roc_points": ("diagnosis", "fpr", "tpr", "threshold"),
    "recalibration": ("diagnosis", "slope", "intercept"),
}
# Each diagnosis's rows of `metrics`, in order; the last five read the operating point.
METRICS = ("prevalence", "auroc", "aupr", "ece", "threshold", "sensitivity", "specificity", "dor", "dor_corrected")
SUMMARIZED = ("auroc", "aupr", "ece")  # also macro-averaged per split, and summarized across splits


def _or_none(compute: Callable, undefined, *args):
    """`compute(*args)`, or None where it raises `undefined`: the value is not defined on these labels."""
    try:
        return compute(*args)
    except undefined:
        return None


def metrics_report(
    test_probs: np.ndarray,
    test_labels: np.ndarray,
    val_probs: np.ndarray,
    val_labels: np.ndarray,
) -> dict[str, list[list]]:
    """One split's rows of each table in `REPORT_COLUMNS`, diagnosis by diagnosis.

    A cell that cannot be computed (single-class labels, unattainable PPV,
    too few samples) is None instead of aborting the report; a macro is None
    whenever any diagnosis's value is, and a single-class diagnosis has no ROC
    rows. The recalibration line comes from the validation predictions.
    """
    test_probs = np.atleast_2d(np.asarray(test_probs, dtype=float))
    test_labels = np.atleast_2d(np.asarray(test_labels, dtype=int))
    val_probs = np.atleast_2d(np.asarray(val_probs, dtype=float))
    val_labels = np.atleast_2d(np.asarray(val_labels, dtype=int))
    rows: dict[str, list[list]] = {table: [] for table in REPORT_COLUMNS}
    for idx, diagnosis in enumerate(DIAGNOSES):
        scores, y = test_probs[:, idx], test_labels[:, idx]
        prevalence = float(y.mean()) if y.size else None
        auroc_value = _or_none(auroc, SingleClass, scores, y)
        aupr_value = _or_none(aupr, NoPositives, scores, y)
        cal = _or_none(calibration, EvalError, scores, y)
        op = _or_none(threshold_at_ppv, (PPVUnattainable, SingleClass), scores, y)
        recal = _or_none(calibration, EvalError, val_probs[:, idx], val_labels[:, idx])
        point = (None,) * 5 if op is None else (
            op.threshold, op.sensitivity, op.specificity, op.dor, float(op.corrected))
        cells = (prevalence, auroc_value, aupr_value, None if cal is None else cal.ece, *point)
        rows["metrics"].extend([diagnosis, metric, value] for metric, value in zip(METRICS, cells))
        rows["calibration_bins"].extend([diagnosis, b, *stats] for b, stats in enumerate(() if cal is None else cal.bins))
        rows["roc_points"].extend([diagnosis, *p] for p in _or_none(roc_points, SingleClass, scores, y) or ())
        rows["recalibration"].append([diagnosis, *((None, None) if recal is None else (recal.slope, recal.intercept))])
    for metric in SUMMARIZED:
        values = [value for _, name, value in rows["metrics"] if name == metric]
        rows["metrics"].append(["macro", metric, None if None in values else macro_average(values)])
    return rows


# --- physician benchmark comparison ------------------------------------------

PHYSICIAN_MIN_REVIEWS = 3  # one review held out leaves a consensus of at least two


def physician_comparison(patient_reviews: Sequence[Sequence[ChartReview]], probs: np.ndarray,
                         rng: np.random.Generator) -> list[tuple[str, float, float, int]]:
    """Randomly held-out reviewer vs model, scored against the remaining-review consensus.

    `patient_reviews[i]` and `probs[i]` are test patient i's chart reviews and
    (3,) model probabilities. Each patient with at least three reviews, in
    order, holds out the review `rng` draws; the physician's score is 5 minus
    its rating, so higher means more likely, and the consensus of the other
    reviews labels both contenders. Returns (diagnosis, physician AUROC, model
    AUROC, patients compared) per diagnosis and for "macro", or no rows when
    no patient qualifies or some diagnosis's consensus holds one class.
    """
    compared = [i for i, reviews in enumerate(patient_reviews) if len(reviews) >= PHYSICIAN_MIN_REVIEWS]
    scores = np.empty((2, len(compared), len(DIAGNOSES)))  # physician, model
    truth = np.empty((len(compared), len(DIAGNOSES)), dtype=int)
    for row, i in enumerate(compared):
        reviews = list(patient_reviews[i])
        held = reviews.pop(int(rng.integers(0, len(reviews))))
        consensus = labels_mod.aggregate_reviews(reviews)
        scores[0, row] = [5.0 - float(held.scores[diag]) for diag in DIAGNOSES]
        truth[row] = [consensus[diag] for diag in DIAGNOSES]
    scores[1] = np.asarray(probs, dtype=float)[compared]
    cols, values = column_aurocs(scores, truth)
    if cols.size < len(DIAGNOSES):
        return []
    physician, model = values.tolist()
    physician.append(macro_average(physician))
    model.append(macro_average(model))
    return [(diag, p, m, len(compared)) for diag, p, m in zip(DIAGNOSES + ("macro",), physician, model)]
