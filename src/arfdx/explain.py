"""Grouped permutation importance over EHR variables.

Highly correlated variables (|Pearson r| above `GROUPING_THRESHOLD` on a
per-variable scalar signal) are grouped by connected components and shuffled
jointly, so the importance of redundant measurements is not split between
them. Drops in AUROC rank the groups within each split; ranks average across
splits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .evaluation import auroc, average_ranks
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
    feature_bits: np.ndarray,
    y: np.ndarray,
    groups: Sequence[FeatureGroup],
    fitted: FittedFeaturizer,
    rng: np.random.Generator,
    *,
    repeats: int,
) -> dict[str, float]:
    """Mean AUROC drop per group when its member columns are jointly shuffled.

    One shared permutation covers every member variable's block per repeat,
    preserving within-group structure under the null. `predict` maps a
    feature matrix to one score per patient for the diagnosis under study.
    Per-group generators are spawned from `rng` in group order, so groups
    could be evaluated in parallel without changing results.
    """
    feature_bits = np.asarray(feature_bits)
    baseline = auroc(predict(feature_bits), y)
    slices = fitted.block_slices()
    n = feature_bits.shape[0]
    group_rngs = rng.spawn(len(groups))
    drops: dict[str, float] = {}
    for group, group_rng in zip(groups, group_rngs):
        columns = np.concatenate(
            [np.arange(slices[var].start, slices[var].stop) for var in group.members]
        )
        total = 0.0
        for _ in range(repeats):
            perm = group_rng.permutation(n)
            shuffled = feature_bits.copy()
            shuffled[:, columns] = feature_bits[perm][:, columns]
            total += baseline - auroc(predict(shuffled), y)
        drops[group.group_id] = total / repeats
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
    top5: tuple[str, ...]


def aggregate_ranks(
    groups: Sequence[FeatureGroup],
    per_split_drops: Sequence[Mapping[str, float]],
) -> ImportanceReport:
    """Average per-split descending-drop ranks; top five have the smallest
    mean rank, ties broken lexicographically by group id."""
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
    ordered = sorted(group_ids, key=lambda gid: (mean_rank[gid], gid))
    return ImportanceReport(
        groups=tuple(groups),
        per_split_drops=tuple(dict(d) for d in per_split_drops),
        mean_rank=mean_rank,
        mean_drop=mean_drop,
        top5=tuple(ordered[:5]),
    )
