"""Grouped permutation importance over EHR variables.

Highly correlated variables (|Pearson r| above `GROUPING_THRESHOLD` on a
per-variable scalar signal) are grouped by connected components and shuffled
jointly, so the importance of redundant measurements is not split between
them. Drops in AUROC rank the groups within each split; ranks average across
splits, and `aggregate_ranks` gives one diagnosis's rows of
`importance_<family>.csv` in that ranking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .evaluation import average_ranks, column_aurocs
from .featurize import FittedFeaturizer, variable_signal  # the signal correlation_groups reads


class ExplainError(ValueError):
    pass


GROUPING_THRESHOLD = 0.6  # |Pearson r| above which two variables share a group
REPEATS = 10  # shuffles per group and split, unless `[explain] repeats` sets another count


@dataclass(frozen=True)
class FeatureGroup:
    group_id: str
    members: tuple[str, ...]


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
        columns = np.concatenate([np.arange(slices[var].start, slices[var].stop) for var in group.members])
        total = np.zeros(cols.size)
        for _ in range(repeats):
            perm = group_rng.permutation(n)
            shuffled[:, columns] = features[perm[:, None], columns]
            total += baseline - column_aurocs(predict(shuffled), y)[1]
        shuffled[:, columns] = features[:, columns]
        for col, drop in zip(cols, (total / repeats).tolist()):
            drops[col][group.group_id] = drop
    return drops


def aggregate_ranks(
    groups: Sequence[FeatureGroup],
    per_split_drops: Sequence[Optional[Mapping[str, float]]],
) -> list[list]:
    """One diagnosis's `importance_<family>.csv` rows from its per-split
    {group_id: drop}: group, mean rank, mean drop and the per-split drops,
    smallest mean rank first, ties broken lexicographically by group id.

    Within a split, rank 1 is the largest drop and tied drops share the
    average of their positions. A split that is single-class for the
    diagnosis (None) leaves its importance undefined: one row says so.
    """
    if any(drops is None for drops in per_split_drops):
        return [["(single-class split; importance undefined)", None, None, None]]
    group_ids = [g.group_id for g in groups]
    for drops in per_split_drops:
        if set(drops) != set(group_ids):
            raise ExplainError("every split must report drops for the same groups")
    table = np.array([[drops[gid] for drops in per_split_drops] for gid in group_ids], dtype=float)  # (groups, splits)
    mean_rank = average_ranks(-table.T).mean(axis=0).tolist()
    mean_drop = table.mean(axis=1).tolist()
    ranking = sorted(range(len(group_ids)), key=lambda g: (mean_rank[g], group_ids[g]))
    return [[group_ids[g], mean_rank[g], mean_drop[g], ";".join(repr(drops[group_ids[g]]) for drops in per_split_drops)]
            for g in ranking]
