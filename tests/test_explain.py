import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arfdx.explain import (
    ExplainError,
    FeatureGroup,
    aggregate_ranks,
    correlation_groups,
    permutation_importance,
    variable_signal,
)
from arfdx.featurize import FeaturizerConfig, encode_rows, fit
from oracles import importance_rows_reference, permutation_importance_reference


def fitted_featurizer(var_names, rows):
    config = FeaturizerConfig(numeric_vars=tuple(var_names), categorical_vars=())
    return fit(rows, config)


def components_oracle(corr, names, threshold):
    """BFS over the |r| > threshold graph, independent of the union-find path."""
    n = len(names)
    seen = set()
    groups = []
    for start in range(n):
        if start in seen:
            continue
        stack, component = [start], []
        seen.add(start)
        while stack:
            node = stack.pop()
            component.append(node)
            for other in range(n):
                if other in seen or other == node:
                    continue
                r = corr[node, other]
                if np.isfinite(r) and abs(r) > threshold:
                    seen.add(other)
                    stack.append(other)
        groups.append(tuple(sorted(names[i] for i in component)))
    return sorted(groups)


class TestVariableSignal:
    def test_missing_is_zero_and_bins_shift_by_one(self):
        rows = [{"x": 1.0}, {"x": 5.0}, {"x": 9.0}, {"x": None}]
        fitted = fitted_featurizer(["x"], rows[:3])
        bits = encode_rows(rows, fitted)
        signal = variable_signal(bits, fitted)
        assert signal[:, 0].tolist() == [1.0, 3.0, 5.0, 0.0]


class TestCorrelationGroups:
    def test_transitive_grouping_via_components(self):
        rng = np.random.default_rng(50)
        base = rng.normal(size=200)
        signals = np.stack(
            [
                base,
                base + rng.normal(scale=0.6, size=200),  # correlated with base
                base + rng.normal(scale=0.9, size=200),  # correlated with base, maybe not with b
                rng.normal(size=200),  # independent
            ],
            axis=1,
        )
        names = ["a", "b", "c", "d"]
        corr = np.corrcoef(signals, rowvar=False)
        expected = components_oracle(corr, names, threshold=0.6)
        groups = correlation_groups(signals, names)
        assert sorted(g.members for g in groups) == expected

    def test_duplicated_variable_grouped(self):
        rng = np.random.default_rng(51)
        x = rng.normal(size=50)
        y = rng.normal(size=50)
        groups = correlation_groups(np.stack([x, x, y], axis=1), ["a", "a_copy", "d"])
        by_members = {g.members for g in groups}
        assert ("a", "a_copy") in by_members
        assert ("d",) in by_members

    def test_uncorrelated_variables_stay_singletons(self):
        signals = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=float)
        corr = np.corrcoef(signals, rowvar=False)
        assert (np.abs(corr[np.triu_indices(3, 1)]) <= 0.6).all()
        groups = correlation_groups(signals, ["a", "b", "c"])
        assert all(len(g.members) == 1 for g in groups)

    def test_constant_variable_is_singleton(self):
        rng = np.random.default_rng(52)
        x = rng.normal(size=40)
        signals = np.stack([x, np.zeros(40)], axis=1)
        groups = correlation_groups(signals, ["a", "const"])
        assert {g.members for g in groups} == {("a",), ("const",)}

    def test_groups_partition_variables(self):
        rng = np.random.default_rng(53)
        signals = rng.normal(size=(60, 6))
        groups = correlation_groups(signals, [f"v{i}" for i in range(6)])
        seen = [m for g in groups for m in g.members]
        assert sorted(seen) == [f"v{i}" for i in range(6)]


class IdentityRng:
    def spawn(self, n):
        return [self] * n

    def permutation(self, n):
        return np.arange(n)


class TestPermutationImportance:
    def planted_setup(self, n=400, seed=60):
        """Labels driven by one variable; the model reads only that variable."""
        rng = np.random.default_rng(seed)
        rows = []
        y = rng.integers(0, 2, size=n)
        for i in range(n):
            rows.append(
                {
                    "signal": float(y[i] + rng.normal(scale=0.3)),
                    "noise_a": float(rng.normal()),
                    "noise_b": float(rng.normal()),
                }
            )
        fitted = fitted_featurizer(["noise_a", "noise_b", "signal"], rows)
        bits = encode_rows(rows, fitted)
        slices = fitted.block_slices()
        weights = np.zeros((fitted.dim, 1))
        weights[slices["signal"], 0] = [0, 1, 2, 3, 4]  # monotone read of the signal bins

        def predict(feature_bits):
            return feature_bits.astype(float) @ weights

        groups = [FeatureGroup(v, (v,)) for v in ("noise_a", "noise_b", "signal")]
        return predict, bits, y[:, None], groups, fitted

    def three_column_setup(self, n=150, seed=61):
        """Three label columns scored by a linear model whose rounded scores tie."""
        _, bits, y, groups, fitted = self.planted_setup(n=n, seed=seed)
        rng = np.random.default_rng(seed)
        weights = np.round(rng.normal(size=(fitted.dim, 3)), 1)
        labels = np.concatenate([y, rng.integers(0, 2, size=(n, 2))], axis=1)

        def predict(features):
            return np.round(features.astype(float) @ weights, 1)

        return predict, bits, labels, groups, fitted

    def test_unused_group_has_exactly_zero_drop(self):
        predict, bits, y, groups, fitted = self.planted_setup()
        [drops] = permutation_importance(predict, bits, y, groups, fitted, np.random.default_rng(0), repeats=10)
        assert drops["noise_a"] == 0.0
        assert drops["noise_b"] == 0.0

    def test_planted_group_has_maximal_drop(self):
        predict, bits, y, groups, fitted = self.planted_setup()
        [drops] = permutation_importance(predict, bits, y, groups, fitted, np.random.default_rng(1), repeats=10)
        assert drops["signal"] > 0.1
        assert drops["signal"] > drops["noise_a"]
        assert drops["signal"] > drops["noise_b"]

    def test_identity_permutation_gives_zero_drop(self):
        predict, bits, y, groups, fitted = self.planted_setup(n=60)
        [drops] = permutation_importance(predict, bits, y, groups, fitted, IdentityRng(), repeats=1)
        assert all(v == 0.0 for v in drops.values())

    def test_shuffling_preserves_column_multisets(self):
        predict, bits, y, groups, fitted = self.planted_setup(n=80)
        observed = []

        def spy(feature_bits):
            observed.append(feature_bits.copy())
            return predict(feature_bits)

        permutation_importance(spy, bits, y, groups, fitted, np.random.default_rng(2), repeats=2)
        for matrix in observed:
            assert np.array_equal(np.sort(matrix, axis=0), np.sort(bits, axis=0))

    def test_equals_per_column_scalar_auroc_reference(self):
        predict, bits, y, groups, fitted = self.three_column_setup()
        got = permutation_importance(predict, bits, y, groups, fitted, np.random.default_rng(3), repeats=4)
        expected = permutation_importance_reference(
            predict, bits, y, groups, fitted, np.random.default_rng(3), repeats=4
        )
        assert got == expected  # dicts of floats: equal bit for bit
        assert any(v != 0.0 for drops in got for v in drops.values())

    def test_single_class_column_is_none_alone(self):
        predict, bits, y, groups, fitted = self.three_column_setup()
        y[:, 1] = 0
        got = permutation_importance(predict, bits, y, groups, fitted, np.random.default_rng(4), repeats=3)
        assert got[1] is None
        assert got[0] is not None and got[2] is not None
        assert got == permutation_importance_reference(
            predict, bits, y, groups, fitted, np.random.default_rng(4), repeats=3
        )

    def test_leaves_the_callers_features_unchanged(self):
        predict, bits, y, groups, fitted = self.three_column_setup()
        before = bits.copy()
        permutation_importance(predict, bits, y, groups, fitted, np.random.default_rng(5), repeats=3)
        assert np.array_equal(bits, before)


@st.composite
def drop_tables(draw):
    """Groups and per-split drops, heavy in ties, some splits single-class (None)."""
    names = draw(st.integers(1, 9).flatmap(lambda n: st.permutations([f"g{i}" for i in range(n)])))
    groups = [FeatureGroup(name, (name,)) for name in names]
    drop = st.floats(-0.5, 0.5) | st.sampled_from([0.0, 0.1, 0.25])
    splits = st.none() | st.fixed_dictionaries({g.group_id: drop for g in groups})
    return groups, draw(st.lists(splits, min_size=1, max_size=12))


def mean_ranks(rows):
    """{group: mean rank} of `aggregate_ranks` rows."""
    return {row[0]: row[1] for row in rows}


class TestRankAggregation:
    def test_tied_drops_share_average_rank(self):
        groups = [FeatureGroup(g, (g,)) for g in ("a", "b", "c")]
        rows = aggregate_ranks(groups, [{"a": 0.3, "b": 0.3, "c": 0.1}])
        assert mean_ranks(rows) == {"a": 1.5, "b": 1.5, "c": 3.0}

    def test_dominant_group_ranks_first_everywhere(self):
        groups = [FeatureGroup(g, (g,)) for g in ("a", "b", "c")]
        per_split = [{"a": 0.5, "b": 0.2, "c": 0.1} for _ in range(5)]
        rows = aggregate_ranks(groups, per_split)
        assert rows[0][:2] == ["a", 1.0]

    def test_identical_orderings_keep_common_ranks(self):
        groups = [FeatureGroup(g, (g,)) for g in ("a", "b")]
        per_split = [{"a": 0.4, "b": 0.3}] * 5
        rows = aggregate_ranks(groups, per_split)
        assert mean_ranks(rows) == {"a": 1.0, "b": 2.0}

    def test_ranks_sum_to_triangular_number(self):
        rng = np.random.default_rng(70)
        names = [f"g{i}" for i in range(7)]
        drops = {name: float(rng.choice([0.1, 0.2, 0.2, 0.3])) for name in names}
        rows = aggregate_ranks([FeatureGroup(name, (name,)) for name in names], [drops])
        assert sum(mean_ranks(rows).values()) == pytest.approx(7 * 8 / 2)

    def test_mismatched_groups_rejected(self):
        groups = [FeatureGroup("a", ("a",))]
        with pytest.raises(ExplainError):
            aggregate_ranks(groups, [{"a": 0.1}, {"b": 0.1}])

    def test_top5_ties_break_lexicographically(self):
        groups = [FeatureGroup(g, (g,)) for g in ("z", "y", "a", "b", "c", "d")]
        per_split = [{g.group_id: 0.2 for g in groups}]
        rows = aggregate_ranks(groups, per_split)
        assert [row[0] for row in rows][:5] == ["a", "b", "c", "d", "y"]
        assert [row[0] for row in rows] == ["a", "b", "c", "d", "y", "z"]

    @settings(max_examples=300, deadline=None)
    @given(drop_tables())
    def test_rows_match_dict_per_split_reference(self, table):
        groups, per_split = table
        # repr pins every float bit for bit, as the CSV writes it
        assert repr(aggregate_ranks(groups, per_split)) == repr(importance_rows_reference(groups, per_split))
