"""Independent oracles shared by the unit and acceptance tests.

These deliberately avoid the package's code paths: AUROC by brute-force pair
counting, ranks and macro AUROC one row and one label column at a time
through `np.unique` (the package ranks stacked rows with one argsort), AUPR,
ROC points and the PPV operating point by recounting the confusion at every
distinct threshold (AUPR also by walking tied blocks), gradients by central
finite differences through the batch-mean cross-entropy `loss` (the package
computes only its analytic gradient), training by the plain one-config,
one-batch-at-a-time loop with the functional SGD update (the package
updates flat buffers in place), prediction by one forward per patient and
image (or over EHR rows repeated per image), permutation importance by one
scalar AUROC per label column and permuted matrix, stay parsing by one
`_require` call per field, window values by one scan of the events per
variable, and the pooled agreement table by a loop over every reviewer pair.
"""

import math
from collections.abc import Mapping

import numpy as np

from arfdx import models
from arfdx.cohort import (
    CohortError,
    ImagingStudy,
    ObservationEvent,
    PatientStay,
    map_support_kind,
)
from arfdx.evaluation import SingleClass, auroc, dor_from_confusion
from arfdx.labels import ChartReview, LabelError


def auroc_bruteforce(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def average_ranks_reference(values):
    """Average ranks of one row through `np.unique`: the tied block at sorted
    positions i..j (0-based) gets rank (i + j) / 2 + 1."""
    _, block, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return ((ends - counts + ends - 1) / 2.0 + 1.0)[block]


def macro_auroc_reference(probs, label_matrix):
    """Macro AUROC of (n, k) probabilities, one label column at a time: the
    positives' rank sum from `average_ranks_reference`, then `np.mean` over
    the columns that hold both classes."""
    probs = np.asarray(probs, dtype=float)
    label_matrix = np.asarray(label_matrix, dtype=int)
    values = []
    for col in range(label_matrix.shape[1]):
        labels = label_matrix[:, col]
        n_pos = int(labels.sum())
        n_neg = labels.shape[0] - n_pos
        if n_pos == 0 or n_neg == 0:
            continue
        pos_rank_sum = float(average_ranks_reference(probs[:, col])[labels == 1].sum())
        values.append((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
    if not values:
        raise SingleClass("every diagnosis is single-class; macro AUROC undefined")
    return float(np.mean(values))


def aupr_stepsum(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n_pos = int(labels.sum())
    area = 0.0
    recall_prev = 0.0
    for threshold in sorted(set(scores.tolist()), reverse=True):
        predicted = scores >= threshold
        tp = int(np.sum(predicted & (labels == 1)))
        fp = int(np.sum(predicted & (labels == 0)))
        recall = tp / n_pos
        area += (recall - recall_prev) * (tp / (tp + fp))
        recall_prev = recall
    return area


def aupr_loop(scores, labels):
    """Average precision walking the descending scores one tied block at a time."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n_pos = int(labels.sum())
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    total = 0.0
    recall_prev = 0.0
    tp = 0
    fp = 0
    i = 0
    n = len(sorted_scores)
    while i < n:
        j = i
        while j + 1 < n and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        tp += int(sorted_labels[i : j + 1].sum())
        fp += (j - i + 1) - int(sorted_labels[i : j + 1].sum())
        recall = tp / n_pos
        precision = tp / (tp + fp)
        total += (recall - recall_prev) * precision
        recall_prev = recall
        i = j + 1
    return total


def roc_points_loop(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n_pos = int(labels.sum())
    n_neg = labels.shape[0] - n_pos
    points = [(0.0, 0.0, float("inf"))]
    for thr in sorted(np.unique(scores), reverse=True):
        predicted = scores >= thr
        tp = int(np.sum(predicted & (labels == 1)))
        fp = int(np.sum(predicted & (labels == 0)))
        points.append((fp / n_neg, tp / n_pos, float(thr)))
    return points


def threshold_at_ppv_loop(preds, labels, target):
    """(threshold, sensitivity, specificity, dor, corrected, confusion) or None
    when no threshold reaches the target PPV."""
    preds = np.asarray(preds, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n_pos = int(labels.sum())
    n_neg = labels.shape[0] - n_pos
    best = None
    for thr in np.unique(preds):
        predicted = preds >= thr
        tp = int(np.sum(predicted & (labels == 1)))
        fp = int(np.sum(predicted & (labels == 0)))
        if tp + fp == 0 or tp / (tp + fp) < target:
            continue
        sens = tp / n_pos
        spec = (n_neg - fp) / n_neg
        if best is None or sens > best[1] or (sens == best[1] and spec > best[2]):
            best = (float(thr), sens, spec, (tp, fp, n_pos - tp, n_neg - fp))
    if best is None:
        return None
    return best[:3] + dor_from_confusion(*best[3]) + (best[3],)


def sgd_step_reference(params, velocity, grads, hp):
    """The functional update: v' = momentum v + (g + weight_decay theta);
    theta' = theta - lr v', as new arrays, raising on a non-finite theta'."""
    new_params = {}
    new_velocity = {}
    for name, theta in params.items():
        v = hp.momentum * velocity[name] + (grads[name] + hp.weight_decay * theta)
        updated = theta - hp.learning_rate * v
        if not np.all(np.isfinite(updated)):
            raise models.Diverged(f"non-finite update for parameter {name!r}")
        new_params[name] = updated
        new_velocity[name] = v
    return new_params, new_velocity


def gradients(spec, params, ehr, emb, label_matrix):
    """`models.backward` into fresh arrays shaped like `params`."""
    out = {name: np.empty_like(value) for name, value in params.items()}
    return models.backward(spec, params, ehr, emb, label_matrix, out)


def train_reference(spec, hp, train_set, val_set, seed, max_epochs):
    """One config trained alone, one batch at a time, through the unstacked
    `models.backward`, the functional update above and
    `macro_auroc_reference`: (best params, per-epoch val macro AUROC, best
    epoch)."""
    rng = np.random.default_rng(seed)
    params = models.init_params(spec, rng)
    velocity = {name: np.zeros_like(value) for name, value in params.items()}
    ehr = train_set.ehr if spec.needs_ehr else None
    emb = train_set.emb if spec.needs_emb else None
    val_ehr = val_set.ehr if spec.needs_ehr else None
    val_emb = val_set.emb if spec.needs_emb else None
    best_params = {name: value.copy() for name, value in params.items()}
    best_metric, best_epoch, stale_epochs = -np.inf, 0, 0
    val_aurocs = []
    n = len(train_set)
    for epoch in range(1, max_epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, models.BATCH_SIZE):
            idx = order[start : start + models.BATCH_SIZE]
            grads = gradients(
                spec, params,
                None if ehr is None else ehr[idx],
                None if emb is None else emb[idx],
                train_set.labels[idx],
            )
            params, velocity = sgd_step_reference(params, velocity, grads, hp)
        metric = macro_auroc_reference(models.forward(spec, params, val_ehr, val_emb), val_set.labels)
        val_aurocs.append(metric)
        if metric > best_metric:
            best_metric, best_epoch, stale_epochs = metric, epoch, 0
            best_params = {name: value.copy() for name, value in params.items()}
        else:
            stale_epochs += 1
            if stale_epochs >= models.PATIENCE:
                break
    return best_params, val_aurocs, best_epoch


def predict_patient(spec, params, ehr_x=None, embeddings=None):
    """One patient's probabilities: one forward per study image, then the mean;
    EHR models ignore the images."""
    if not spec.needs_emb:
        return models.forward(spec, params, ehr=np.atleast_2d(ehr_x))[0]
    per_image = [
        models.forward(spec, params, ehr=np.atleast_2d(ehr_x) if spec.needs_ehr else None, emb=np.atleast_2d(emb))[0]
        for emb in embeddings
    ]
    return np.mean(np.stack(per_image), axis=0)


def predict_reference(spec, params, ehr, emb, image_counts):
    """Per-patient probabilities from one forward over the (patient, image)
    rows, each patient's EHR row repeated per image before the forward, then
    the mean of each patient's rows."""
    if not spec.needs_emb:
        return models.forward(spec, params, ehr=ehr)
    counts = np.asarray(image_counts, dtype=int)
    per_image = models.forward(spec, params, ehr=np.repeat(ehr, counts, axis=0) if spec.needs_ehr else None, emb=emb)
    return np.add.reduceat(per_image, np.cumsum(counts) - counts, axis=0) / counts[:, None]


PROB_EPS = 1e-7  # loss clamp to keep log() finite


def loss(probs, label_matrix):
    """Batch-mean cross-entropy summed over the three sigmoid outputs: a float
    for (n, 3) probabilities, one value per config for stacked (G, n, 3) ones.

    Probabilities are clamped to [eps, 1-eps] before the logs; the L2 penalty
    is applied by the optimizer update, not included here.
    """
    probs = np.clip(np.atleast_2d(np.asarray(probs, dtype=float)), PROB_EPS, 1.0 - PROB_EPS)
    y = np.atleast_2d(np.asarray(label_matrix, dtype=float))
    per_sample = -(y * np.log(probs) + (1.0 - y) * np.log(1.0 - probs)).sum(axis=-1)
    if per_sample.ndim == 1:
        return float(per_sample.mean())
    return per_sample.mean(axis=-1)


def finite_diff_grads(spec, params, ehr, emb, y, h=1e-4):
    """Central finite differences of the batch-mean loss, per coordinate.

    For each parameter of size s, its 2s perturbed copies (+h at coordinate
    i in copy i, -h in copy s + i, every other parameter unchanged) are
    stacked along the config axis and scored by one forward."""
    grads = {}
    for name, theta in params.items():
        size = theta.size
        stacked = {
            other: np.repeat(value.reshape((1,) * (3 - value.ndim) + value.shape), 2 * size, axis=0)
            for other, value in params.items()
        }
        copies = stacked[name].reshape(2 * size, size)
        coordinate = np.arange(size)
        copies[coordinate, coordinate] = theta.ravel() + h
        copies[size + coordinate, coordinate] = theta.ravel() - h
        losses = loss(models.forward(spec, stacked, ehr, emb), y)
        grads[name] = ((losses[:size] - losses[size:]) / (2.0 * h)).reshape(theta.shape)
    return grads


def max_relative_error(analytic, numeric, floor=1e-6):
    worst = 0.0
    for name in analytic:
        a = analytic[name].ravel()
        f = numeric[name].ravel()
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), floor)
        worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    return worst


def random_gradcheck_instance(spec, rng, batch_size=8, kink_margin=5e-4):
    """Random parameters and batch on which finite differences are a valid oracle.

    Draws keep the sigmoid far from saturation, and for architectures with a
    ReLU layer, any draw leaving a hidden pre-activation within `kink_margin`
    of zero is resampled: a probe step across the kink makes central
    differences meaningless there (the loss is not differentiable at the
    kink), so such instances cannot arbitrate gradient correctness.
    """
    for _ in range(200):
        params = {
            name: rng.uniform(-0.5, 0.5, size=shape) for name, shape in spec.param_shapes().items()
        }
        ehr = rng.integers(0, 2, size=(batch_size, spec.ehr_dim)).astype(float) if spec.needs_ehr else None
        emb = rng.normal(0.0, 1.0, size=(batch_size, spec.emb_dim)) if spec.needs_emb else None
        y = rng.integers(0, 2, size=(batch_size, 3)).astype(float)
        if spec.uses_hidden:
            pre_activation = ehr @ params["W1"].T + params["b1"]
            if np.min(np.abs(pre_activation)) < kink_margin:
                continue
        return params, ehr, emb, y
    raise RuntimeError("could not draw a kink-free gradcheck instance")


def _require(cond, message):
    if not cond:
        raise CohortError(message)


def parse_stay_reference(obj):
    """Stay parsing one field check at a time, each with its message formatted
    up front. It crashes on some malformed nested records and accepts bool
    times and list or object event values, which `cohort.parse_stay` rejects."""
    _require(isinstance(obj, Mapping), "record is not a JSON object")
    patient_id = obj.get("patient_id")
    _require(isinstance(patient_id, str) and patient_id != "", "patient_id missing or empty")
    admit_time = obj.get("admit_time")
    _require(isinstance(admit_time, int), "admit_time must be an integer minute count")

    events = []
    for raw in obj.get("events", []):
        variable = raw.get("variable")
        _require(isinstance(variable, str) and variable != "", "event variable missing or empty")
        time = raw.get("time")
        _require(isinstance(time, int), f"event time for {variable!r} must be an integer")
        _require(time >= admit_time, f"event for {variable!r} precedes admission")
        value = raw.get("value")
        if isinstance(value, bool):
            raise CohortError(f"event value for {variable!r} must be numeric, token, or null")
        if isinstance(value, (int, float)) and not math.isfinite(value):
            raise CohortError(f"event value for {variable!r} is not finite")
        events.append(ObservationEvent(variable=variable, time=time, value=value))

    support_events = []
    for raw in obj.get("support_events", []):
        _require(isinstance(raw, (list, tuple)) and len(raw) == 2, "support event must be [time, kind]")
        time, kind = raw
        _require(isinstance(time, int), "support event time must be an integer")
        _require(time >= admit_time, "support event precedes admission")
        support_events.append((time, map_support_kind(str(kind))))

    studies = []
    for raw in obj.get("studies", []):
        study_id = raw.get("study_id")
        _require(isinstance(study_id, str) and study_id != "", "study_id missing or empty")
        time = raw.get("time")
        _require(isinstance(time, int), f"study {study_id!r} time must be an integer")
        _require(time >= admit_time, f"study {study_id!r} precedes admission")
        refs = raw.get("image_refs", [])
        _require(bool(refs), f"study {study_id!r} has no image_refs")
        _require(all(isinstance(r, str) and r != "" for r in refs),
                 f"study {study_id!r} image_refs must be non-empty strings")
        studies.append(ImagingStudy(study_id=study_id, time=time, image_refs=tuple(refs)))

    intervals_by_unit = {}
    unit_intervals = []
    for raw in obj.get("unit_intervals", []):
        _require(isinstance(raw, (list, tuple)) and len(raw) == 3, "unit interval must be [unit, start, end]")
        unit_code, start, end = raw
        _require(isinstance(start, int) and isinstance(end, int), "unit interval bounds must be integers")
        _require(start <= end, f"unit interval for {unit_code!r} has start > end")
        unit_intervals.append((str(unit_code), start, end))
        intervals_by_unit.setdefault(str(unit_code), []).append((start, end))
    for unit_code, spans in intervals_by_unit.items():
        spans.sort()
        for (s0, e0), (s1, _e1) in zip(spans, spans[1:]):
            _require(s1 > e0, f"overlapping intervals for unit {unit_code!r}")

    reviews = []
    for raw in obj.get("reviews", []):
        try:
            reviews.append(ChartReview(reviewer_id=str(raw.get("reviewer_id", "")), scores=dict(raw["scores"])))
        except (LabelError, KeyError, TypeError) as exc:
            raise CohortError(f"bad chart review: {exc}") from exc

    return PatientStay(
        patient_id=patient_id,
        admit_time=admit_time,
        events=events,
        support_events=support_events,
        studies=studies,
        unit_intervals=unit_intervals,
        reviews=reviews,
        icd_codes=set(str(c) for c in obj.get("icd_codes", [])),
        medications=set(str(m) for m in obj.get("medications", [])),
    )


def latest_value_reference(events, var, window):
    """Most recent value of `var` inside the inclusive window, scanning every
    event once per variable; equal times resolve to the later-listed event."""
    start, end = window
    best_time = best_value = None
    for event in events:
        if event.variable == var and start <= event.time <= end and (best_time is None or event.time >= best_time):
            best_time, best_value = event.time, event.value
    return best_value


def permutation_importance_reference(predict, features, y, groups, fitted, rng, *, repeats):
    """Grouped permutation importance one label column at a time, with the
    scalar `auroc`: every permuted matrix is a fresh copy of `features` with
    the group's columns taken from the permuted rows. The permutations are the
    ones the package draws (a generator spawned per group, one permutation per
    repeat), shared by every column. None for a single-class column."""
    slices = fitted.block_slices()
    n = features.shape[0]
    perms = [[group_rng.permutation(n) for _ in range(repeats)] for group_rng in rng.spawn(len(groups))]
    out = []
    for col in range(y.shape[1]):
        try:
            baseline = auroc(predict(features)[:, col], y[:, col])
        except SingleClass:
            out.append(None)
            continue
        drops = {}
        for group, group_perms in zip(groups, perms):
            columns = np.concatenate([np.arange(slices[v].start, slices[v].stop) for v in group.members])
            total = 0.0
            for perm in group_perms:
                shuffled = features.copy()
                shuffled[:, columns] = features[perm][:, columns]
                total += baseline - auroc(predict(shuffled)[:, col], y[:, col])
            drops[group.group_id] = total / repeats
        out.append(drops)
    return out


def pooled_table_loop(patient_reviews, diagnosis):
    """2x2 table over every ordered pair of distinct reviewers of each patient."""
    a = b = c = d = 0
    for reviews in patient_reviews:
        calls = [r.binary_call(diagnosis) for r in reviews]
        for i in range(len(calls)):
            for j in range(len(calls)):
                if i == j:
                    continue
                if calls[i] and calls[j]:
                    a += 1
                elif calls[i] and not calls[j]:
                    b += 1
                elif not calls[i] and calls[j]:
                    c += 1
                else:
                    d += 1
    return a, b, c, d
