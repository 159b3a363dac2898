"""Grouped permutation importance over EHR variables.

Highly correlated variables (|Pearson r| above `GROUPING_THRESHOLD` on a
per-variable scalar signal) are grouped by connected components and shuffled
jointly, so the importance of redundant measurements is not split between
them. Drops in AUROC rank the groups within each split; ranks average across
splits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .evaluation import average_ranks, column_aurocs
from .featurize import FittedFeaturizer


class ExplainError(ValueError):
    pass


GROUPING_THRESHOLD = 0.6  # |Pearson r| above which two variables share a group


@dataclass(frozen=True)
class FeatureGroup:
    group_id: str
    members: tuple[str, ...]


def variable_signal(feature_bits: np.ndarray, fitted: FittedFeaturizer) -> np.ndarray:
    """Per patient and variable: 0 when the block is all zero (missing),
    otherwise 1 + the set bit's index. One scalar per variable keeps the
    grouping at the variable level rather than the bit level."""
    slices = fitted.block_slices()
    variables = fitted.config.variables
    out = np.zeros((feature_bits.shape[0], len(variables)), dtype=float)
    for col, var in enumerate(variables):
        block = feature_bits[:, slices[var]]
        present = block.any(axis=1)
        out[present, col] = block[present].argmax(axis=1) + 1.0
    return out


def correlation_groups(signals: np.ndarray, variable_names: Sequence[str]) -> list[FeatureGroup]:
    """Connected components of the |Pearson r| > `GROUPING_THRESHOLD` graph.

    Constant variables correlate with nothing and come out as singletons.
    Group ids join the sorted member names with '|'.
    """
    signals = np.asarray(signals, dtype=float)
    if signals.shape[0] < 2:
        raise ExplainError("correlation grouping needs at least two patients")
    n_vars = signals.shape[1]
    if n_vars != len(variable_names):
        raise ExplainError("signal matrix width does not match the variable list")
    centered = signals - signals.mean(axis=0)
    norms = np.sqrt((centered**2).sum(axis=0))
    parent = list(range(n_vars))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n_vars):
        if norms[i] == 0.0:
            continue
        for j in range(i + 1, n_vars):
            if norms[j] == 0.0:
                continue
            r = float(centered[:, i] @ centered[:, j]) / (norms[i] * norms[j])
            if abs(r) > GROUPING_THRESHOLD:
                parent[find(i)] = find(j)

    components: dict[int, list[str]] = {}
    for i, name in enumerate(variable_names):
        components.setdefault(find(i), []).append(name)
    groups = [
        FeatureGroup(group_id="|".join(sorted(members)), members=tuple(sorted(members)))
        for members in components.values()
    ]
    groups.sort(key=lambda g: g.group_id)
    return groups


def permutation_importance(
    predict: Callable[[np.ndarray], np.ndarray],
    features: np.ndarray,
    y: np.ndarray,
    groups: Sequence[FeatureGroup],
    fitted: FittedFeaturizer,
    rng: np.random.Generator,
    *,
    repeats: int,
) -> list[Optional[dict[str, float]]]:
    """Mean AUROC drop per group when its member columns are jointly shuffled,
    for every label column at once.

    `predict` maps an (n, d) feature matrix to (n, k) scores and `y` holds the
    (n, k) labels. One shared permutation covers every member variable's block
    per repeat, preserving within-group structure under the null, and every
    column is scored from the same permuted matrix. Returns one
    {group_id: mean drop} per column, None for a column that is single-class.
    Per-group generators are spawned from `rng` in group order, so groups
    could be evaluated in parallel without changing results.

    The permuted matrix is one copy of `features`, refilled in place: a repeat
    rewrites only the group's columns, and they are restored after the group.
    `predict` must not keep the matrix it is given.
    """
    features = np.asarray(features)
    cols, baseline = column_aurocs(predict(features), y)
    drops: list[Optional[dict[str, float]]] = [{} if col in cols else None for col in range(np.shape(y)[1])]
    slices = fitted.block_slices()
    n = features.shape[0]
    shuffled = features.copy()
    group_rngs = rng.spawn(len(groups))
    for group, group_rng in zip(groups, group_rngs):
        columns = np.concatenate(
            [np.arange(slices[var].start, slices[var].stop) for var in group.members]
        )
        total = np.zeros(cols.size)
        for _ in range(repeats):
            perm = group_rng.permutation(n)
            shuffled[:, columns] = features[perm[:, None], columns]
            total += baseline - column_aurocs(predict(shuffled), y)[1]
        shuffled[:, columns] = features[:, columns]
        for col, drop in zip(cols, (total / repeats).tolist()):
            drops[col][group.group_id] = drop
    return drops


def rank_descending(drops: Mapping[str, float]) -> dict[str, float]:
    """Rank 1 = largest drop; ties share the average of their positions."""
    ranks = average_ranks(-np.asarray(list(drops.values()), dtype=float))
    return dict(zip(drops, ranks.tolist()))


@dataclass(frozen=True)
class ImportanceReport:
    groups: tuple[FeatureGroup, ...]
    per_split_drops: tuple[Mapping[str, float], ...]
    mean_rank: Mapping[str, float]
    mean_drop: Mapping[str, float]
    ranking: tuple[str, ...]  # every group id, smallest mean rank first


def aggregate_ranks(
    groups: Sequence[FeatureGroup],
    per_split_drops: Sequence[Mapping[str, float]],
) -> ImportanceReport:
    """Average per-split descending-drop ranks; the ranking orders the
    groups by mean rank, ties broken lexicographically by group id."""
    group_ids = [g.group_id for g in groups]
    for drops in per_split_drops:
        if set(drops) != set(group_ids):
            raise ExplainError("every split must report drops for the same groups")
    per_split_ranks = [rank_descending(drops) for drops in per_split_drops]
    mean_rank = {
        gid: float(np.mean([ranks[gid] for ranks in per_split_ranks])) for gid in group_ids
    }
    mean_drop = {
        gid: float(np.mean([drops[gid] for drops in per_split_drops])) for gid in group_ids
    }
    return ImportanceReport(
        groups=tuple(groups),
        per_split_drops=tuple(dict(d) for d in per_split_drops),
        mean_rank=mean_rank,
        mean_drop=mean_drop,
        ranking=tuple(sorted(group_ids, key=lambda gid: (mean_rank[gid], gid))),
    )
