import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arfdx.featurize import (
    BadValue,
    FeaturizeError,
    FeaturizerConfig,
    FittedFeaturizer,
    encode,
    encode_rows,
    fit,
    infer_config,
    missingness_correlation,
    pack_bits_hex,
    phi_coefficient,
    unpack_bits_hex,
)
from oracles import encode_reference, presence_indicators_reference


def quantile_oracle(values, q):
    """Linear interpolation between order statistics, independent of numpy."""
    v = sorted(values)
    h = (len(v) - 1) * q
    lo = math.floor(h)
    if lo + 1 >= len(v):
        return float(v[-1])
    return v[lo] + (h - lo) * (v[lo + 1] - v[lo])


def numeric_config(names=("x",)):
    return FeaturizerConfig(numeric_vars=tuple(names), categorical_vars=())


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
        config = FeaturizerConfig(numeric_vars=(), categorical_vars=(("gender", ("F", "M")),))
        fitted = FittedFeaturizer(config=config, edges={})
        assert tuple(encode({"gender": "M"}, fitted)) == (0, 1)
        assert tuple(encode({"gender": "X"}, fitted)) == (0, 0)
        assert tuple(encode({"gender": None}, fitted)) == (0, 0)

    def test_dimension_formula(self):
        config = FeaturizerConfig(
            numeric_vars=("a", "b"),
            categorical_vars=(("g", ("F", "M")), ("r", ("w", "b", "o"))),
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


# training values drawn from a small pool of ints and floats, so quantile edges
# often repeat and collapse, and constant or all-missing variables get no edges
TRAIN_POOL = [-2.5, 0, 1, 1.0, 3, 3.5, 7, 1e6, None]
VOCAB_POOL = ["a", "b", "1", "7"]
MISSING = object()


@st.composite
def fitted_and_rows(draw, min_rows=0):
    """A fitted featurizer and rows to encode: numeric values equal to an edge,
    ints and floats, tokens in and out of the vocabulary (ints among them),
    None, and variables absent from the row."""
    numeric = tuple(f"n{i}" for i in range(draw(st.integers(0, 3))))
    categorical = tuple(
        (f"c{i}", tuple(draw(st.lists(st.sampled_from(VOCAB_POOL), min_size=1, max_size=4, unique=True))))
        for i in range(draw(st.integers(0, 2)))
    )
    train = [
        {var: draw(st.sampled_from(TRAIN_POOL)) for var in numeric}
        for _ in range(draw(st.integers(1, 12)))
    ]
    fitted = fit(train, FeaturizerConfig(numeric_vars=numeric, categorical_vars=categorical))
    edges = [edge for var in numeric for edge in fitted.edges[var]]
    numbers = st.one_of(
        st.sampled_from(TRAIN_POOL),
        st.floats(-10, 10),
        st.integers(-5, 10),
        *([st.sampled_from(edges)] if edges else []),
    )
    tokens = st.sampled_from(VOCAB_POOL + ["zz", None, 1, 7])
    rows = []
    for _ in range(draw(st.integers(min_rows, 8))):
        row = {var: draw(st.one_of(st.just(MISSING), numbers)) for var in numeric}
        row.update({var: draw(st.one_of(st.just(MISSING), tokens)) for var, _ in categorical})
        rows.append({var: value for var, value in row.items() if value is not MISSING})
    return fitted, rows


def reference_matrix(rows, fitted):
    return np.stack([encode_reference(row, fitted) for row in rows]) if rows else np.zeros((0, fitted.dim), np.uint8)


class TestEncodeMatchesReference:
    @given(fitted_and_rows())
    @settings(max_examples=300, deadline=None)
    def test_encode_rows_equals_numpy_reference(self, case):
        fitted, rows = case
        bits = encode_rows(rows, fitted)
        assert bits.dtype == np.uint8 and bits.shape == (len(rows), fitted.dim)
        assert np.array_equal(bits, reference_matrix(rows, fitted))
        for row, vector in zip(rows, bits):
            assert np.array_equal(encode(row, fitted), vector)

    def test_edge_cases_equal_reference(self):
        # "a" collapses duplicate edges, "b" is constant (no edges), "c" never observed
        train = [{"a": v, "b": 4.0, "c": None} for v in (1, 1, 1.0, 3, 7, 9)]
        config = FeaturizerConfig(numeric_vars=("a", "b", "c"), categorical_vars=(("g", ("1", "F")),))
        fitted = fit(train, config)
        assert fitted.edges["a"] == (1.0, 3.0, 7.0) and fitted.edges["b"] == fitted.edges["c"] == ()
        rows = [
            {"a": 1, "b": 4, "c": 0.5, "g": 1},
            {"a": 3.0, "g": "F"},
            {"a": 7, "b": None, "g": "unknown"},
            {"a": 7.5, "c": -1e9, "g": None},
            {},
        ]
        bits = encode_rows(rows, fitted)
        assert np.array_equal(bits, reference_matrix(rows, fitted))
        assert bits[:, :5].tolist() == [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0],
                                        [0, 0, 0, 0, 0]]

    def test_no_rows_gives_an_empty_matrix(self):
        fitted = fit([{"x": 1.0}, {"x": 2.0}], numeric_config())
        assert encode_rows([], fitted).shape == (0, 5)

    @given(fitted_and_rows(min_rows=2), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_missingness_equals_presence_indicator_path(self, case, seed):
        fitted, rows = case
        bits = encode_rows(rows, fitted)
        y = np.random.default_rng(seed).integers(0, 2, size=(len(rows), 2))
        presence = presence_indicators_reference(bits, fitted)
        expected = {
            (var, diagnosis): phi_coefficient(presence[:, col], y[:, d])
            for col, var in enumerate(fitted.config.variables)
            for d, diagnosis in enumerate(("d0", "d1"))
        }
        assert missingness_correlation(bits, y, fitted, ("d0", "d1")) == expected


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
    def fitted(self):
        config = FeaturizerConfig(numeric_vars=("a",), categorical_vars=(("g", ("F", "M")),))
        return fit([{"a": v, "g": "F"} for v in (1.0, 2.0, 3.0, 9.0)], config)

    def test_json_round_trip_preserves_encoding(self):
        fitted = self.fitted()
        written = fitted.to_json()
        # files written before the key was dropped carry an always-empty "variable_map"
        legacy = json.dumps({**json.loads(written), "variable_map": {}}, sort_keys=True, indent=2)
        row = {"a": 2.5, "g": "M"}
        for text in (written, legacy):
            again = FittedFeaturizer.from_json(text)
            assert np.array_equal(encode(row, fitted), encode(row, again))

    def test_other_bin_count_is_rejected(self):
        payload = json.loads(self.fitted().to_json())
        assert (payload["bins_per_var"], payload["dim"]) == (5, 7)
        payload["bins_per_var"], payload["dim"] = 4, 6  # a consistent layout of four bins
        with pytest.raises(FeaturizeError, match="4 range bins per variable; featurizers use 5"):
            FittedFeaturizer.from_json(json.dumps(payload))

    @given(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=64))
    def test_pack_unpack_round_trip(self, bits):
        packed = pack_bits_hex(np.array(bits, dtype=np.uint8))
        assert np.array_equal(unpack_bits_hex(packed, len(bits)), np.array(bits))
