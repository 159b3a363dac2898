import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arfdx.cohort import ObservationEvent
from arfdx.featurize import (
    BadValue,
    FeaturizeError,
    FeaturizerConfig,
    FittedFeaturizer,
    encode,
    encode_rows,
    fit,
    infer_config,
    latest_value,
    missingness_correlation,
    pack_bits_hex,
    phi_coefficient,
    unpack_bits_hex,
)


def quantile_oracle(values, q):
    """Linear interpolation between order statistics, independent of numpy."""
    v = sorted(values)
    h = (len(v) - 1) * q
    lo = math.floor(h)
    if lo + 1 >= len(v):
        return float(v[-1])
    return v[lo] + (h - lo) * (v[lo + 1] - v[lo])


def numeric_config(names=("x",), bins=5):
    return FeaturizerConfig(numeric_vars=tuple(names), categorical_vars=(), bins_per_var=bins)


def ev(var, time, value):
    return ObservationEvent(variable=var, time=time, value=value)


class TestLatestValue:
    def test_latest_in_window_wins(self):
        events = [ev("hr", 60, 80.0), ev("hr", 120, 95.0)]
        assert latest_value(events, "hr", (0, 180)) == 95.0

    def test_no_events_for_variable(self):
        assert latest_value([ev("sbp", 10, 120.0)], "hr", (0, 180)) is None

    def test_event_outside_window_ignored(self):
        assert latest_value([ev("hr", 200, 90.0)], "hr", (0, 180)) is None

    def test_equal_times_take_later_listed(self):
        events = [ev("hr", 60, 80.0), ev("hr", 60, 85.0)]
        assert latest_value(events, "hr", (0, 180)) == 85.0

    def test_window_bounds_inclusive(self):
        assert latest_value([ev("hr", 0, 70.0)], "hr", (0, 180)) == 70.0
        assert latest_value([ev("hr", 180, 71.0)], "hr", (0, 180)) == 71.0


class TestFit:
    def test_quantile_edges_match_oracle(self):
        rows = [{"x": float(v)} for v in range(1, 11)]
        fitted = fit(rows, numeric_config())
        expected = tuple(quantile_oracle(range(1, 11), k / 5) for k in (1, 2, 3, 4))
        assert fitted.edges["x"] == pytest.approx(expected, abs=1e-12)
        assert fitted.edges["x"] == pytest.approx((2.8, 4.6, 6.4, 8.2), abs=1e-12)

    def test_constant_values_collapse(self):
        fitted = fit([{"x": 5.0}, {"x": 5.0}, {"x": 5.0}], numeric_config())
        assert fitted.edges["x"] == ()
        assert tuple(encode({"x": 5.0}, fitted)) == (1, 0, 0, 0, 0)

    def test_single_value_collapses(self):
        fitted = fit([{"x": 7.0}], numeric_config())
        assert fitted.edges["x"] == ()

    def test_all_missing_training_values(self):
        fitted = fit([{"x": None}, {"x": None}], numeric_config())
        assert fitted.edges["x"] == ()
        assert tuple(encode({"x": 123.0}, fitted)) == (1, 0, 0, 0, 0)

    def test_fit_is_order_invariant(self):
        rows = [{"x": float(v)} for v in (9, 1, 4, 7, 2, 8)]
        rng = np.random.default_rng(3)
        fitted = fit(rows, numeric_config())
        for _ in range(5):
            shuffled = [rows[i] for i in rng.permutation(len(rows))]
            assert fit(shuffled, numeric_config()).edges == fitted.edges

    def test_empty_training_set_raises(self):
        with pytest.raises(FeaturizeError):
            fit([], numeric_config())


class TestEncode:
    def fitted(self):
        return FittedFeaturizer(config=numeric_config(), edges={"x": (2.8, 4.6, 6.4, 8.2)})

    def test_strictly_less_than_counting(self):
        assert tuple(encode({"x": 5.0}, self.fitted())) == (0, 0, 1, 0, 0)

    def test_missing_is_all_zero(self):
        assert tuple(encode({"x": None}, self.fitted())) == (0, 0, 0, 0, 0)

    def test_below_first_edge(self):
        assert tuple(encode({"x": 1.0}, self.fitted())) == (1, 0, 0, 0, 0)

    def test_boundary_value_falls_in_lower_bin(self):
        assert tuple(encode({"x": 2.8}, self.fitted())) == (1, 0, 0, 0, 0)

    def test_above_last_edge(self):
        assert tuple(encode({"x": 100.0}, self.fitted())) == (0, 0, 0, 0, 1)

    def test_non_finite_raises(self):
        with pytest.raises(BadValue):
            encode({"x": float("inf")}, self.fitted())

    def test_categorical_one_hot_and_unknown(self):
        config = FeaturizerConfig(
            numeric_vars=(), categorical_vars=(("gender", ("F", "M")),), bins_per_var=5
        )
        fitted = FittedFeaturizer(config=config, edges={})
        assert tuple(encode({"gender": "M"}, fitted)) == (0, 1)
        assert tuple(encode({"gender": "X"}, fitted)) == (0, 0)
        assert tuple(encode({"gender": None}, fitted)) == (0, 0)

    def test_dimension_formula(self):
        config = FeaturizerConfig(
            numeric_vars=("a", "b"),
            categorical_vars=(("g", ("F", "M")), ("r", ("w", "b", "o"))),
            bins_per_var=5,
        )
        fitted = fit([{"a": 1.0, "b": 2.0, "g": "F", "r": "w"}], config)
        assert fitted.dim == 2 * 5 + 2 + 3
        assert encode({"a": 1.0}, fitted).shape == (fitted.dim,)

    @given(
        st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=30),
        st.floats(min_value=-60, max_value=60),
    )
    @settings(max_examples=60)
    def test_exactly_one_bit_when_present(self, train_values, value):
        fitted = fit([{"x": v} for v in train_values], numeric_config())
        block = encode({"x": value}, fitted)
        assert block.sum() == 1

    @given(
        st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=30),
        st.floats(min_value=-60, max_value=60),
        st.floats(min_value=0, max_value=20),
    )
    @settings(max_examples=60)
    def test_bin_index_monotone_in_value(self, train_values, value, bump):
        fitted = fit([{"x": v} for v in train_values], numeric_config())
        low = int(np.argmax(encode({"x": value}, fitted)))
        high = int(np.argmax(encode({"x": value + bump}, fitted)))
        assert high >= low


class TestWindowExtraction:
    def test_infer_config_partitions_types(self):
        rows = [
            {"hr": 80.0, "gender": "F"},
            {"hr": None, "gender": "M"},
        ]
        config = infer_config(rows)
        assert config.numeric_vars == ("hr",)
        assert config.categorical_vars == (("gender", ("F", "M")),)


class TestMissingness:
    def fitted_two_vars(self):
        config = FeaturizerConfig(numeric_vars=("a", "b"), categorical_vars=())
        return fit([{"a": 1.0, "b": 1.0}, {"a": 2.0, "b": 2.0}], config)

    def test_indicator_equals_label(self):
        fitted = self.fitted_two_vars()
        rows = [{"a": 1.0}, {"a": 1.5}, {"a": None}, {"a": None}]
        bits = encode_rows(rows, fitted)
        y = np.array([[1], [1], [0], [0]])
        out = missingness_correlation(bits, y, fitted, ["pneumonia"])
        assert out[("a", "pneumonia")] == pytest.approx(1.0)

    def test_indicator_opposite_of_label(self):
        fitted = self.fitted_two_vars()
        rows = [{"a": 1.0}, {"a": 1.5}, {"a": None}, {"a": None}]
        bits = encode_rows(rows, fitted)
        y = np.array([[0], [0], [1], [1]])
        out = missingness_correlation(bits, y, fitted, ["pneumonia"])
        assert out[("a", "pneumonia")] == pytest.approx(-1.0)

    def test_independent_indicator_and_label(self):
        assert phi_coefficient([1, 1, 0, 0], [1, 0, 1, 0]) == pytest.approx(0.0)

    def test_constant_indicator_is_undefined(self):
        fitted = self.fitted_two_vars()
        rows = [{"a": 1.0, "b": 1.0}, {"a": 2.0, "b": None}]
        bits = encode_rows(rows, fitted)
        y = np.array([[1], [0]])
        out = missingness_correlation(bits, y, fitted, ["pneumonia"])
        assert out[("a", "pneumonia")] is None  # always present
        assert out[("b", "pneumonia")] is not None


class TestSerialization:
    def test_json_round_trip_preserves_encoding(self):
        config = FeaturizerConfig(
            numeric_vars=("a",), categorical_vars=(("g", ("F", "M")),), bins_per_var=5
        )
        fitted = fit([{"a": v, "g": "F"} for v in (1.0, 2.0, 3.0, 9.0)], config)
        written = fitted.to_json()
        # files written before the key was dropped carry an always-empty "variable_map"
        legacy = json.dumps({**json.loads(written), "variable_map": {}}, sort_keys=True, indent=2)
        row = {"a": 2.5, "g": "M"}
        for text in (written, legacy):
            again = FittedFeaturizer.from_json(text)
            assert np.array_equal(encode(row, fitted), encode(row, again))

    @given(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=64))
    def test_pack_unpack_round_trip(self, bits):
        packed = pack_bits_hex(np.array(bits, dtype=np.uint8))
        assert np.array_equal(unpack_bits_hex(packed, len(bits)), np.array(bits))
