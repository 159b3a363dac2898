"""Binary EHR featurization of each stay's window values: five range bins.

Each numeric variable becomes a fixed-width block of range-indicator bits cut
at training-set quintiles; categorical variables become one-hot blocks over a
vocabulary. A missing value is the all-zero block, so missingness stays
visible to downstream models. Also computes the missingness-vs-diagnosis
correlation table.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Mapping, Optional, Sequence

import numpy as np


class FeaturizeError(ValueError):
    pass


class BadValue(FeaturizeError):
    pass


RANGE_BINS = 5  # bits per numeric variable, cut at training-set quintiles


@dataclass(frozen=True)
class FeaturizerConfig:
    numeric_vars: tuple[str, ...]
    categorical_vars: tuple[tuple[str, tuple[str, ...]], ...]  # (name, vocabulary)

    def __post_init__(self):
        names = list(self.numeric_vars) + [name for name, _ in self.categorical_vars]
        if len(set(names)) != len(names):
            raise FeaturizeError("numeric and categorical variable lists must be disjoint")
        for name, vocab in self.categorical_vars:
            if not vocab:
                raise FeaturizeError(f"categorical variable {name!r} has an empty vocabulary")

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(self.numeric_vars) + tuple(name for name, _ in self.categorical_vars)


@dataclass(frozen=True)
class FittedFeaturizer:
    """Quantile cut points per numeric variable plus the block layout.

    Blocks are laid out numeric variables first (each `RANGE_BINS` wide,
    unused trailing bits stay zero when edges collapse), then categorical
    one-hot blocks, so the total width is stable across refits. The layout
    is computed once per featurizer; encoding and decoding both read it.
    """

    config: FeaturizerConfig
    edges: Mapping[str, tuple[float, ...]]

    @cached_property
    def _slices(self) -> dict[str, slice]:
        config = self.config
        widths = [RANGE_BINS] * len(config.numeric_vars) + [len(vocab) for _, vocab in config.categorical_vars]
        stops = accumulate(widths)
        return {var: slice(stop - width, stop) for var, width, stop in zip(config.variables, widths, stops)}

    @cached_property
    def dim(self) -> int:
        return max((block.stop for block in self._slices.values()), default=0)

    def block_slices(self) -> Mapping[str, slice]:
        """Each variable's block of bits; callers must not modify the mapping."""
        return self._slices

    def to_json(self, provenance: Optional[str] = None) -> str:
        payload = {
            "bins_per_var": RANGE_BINS,
            "numeric": [
                {"name": var, "edges": list(self.edges[var])} for var in self.config.numeric_vars
            ],
            "categorical": [
                {"name": var, "vocabulary": list(vocab)}
                for var, vocab in self.config.categorical_vars
            ],
            "dim": self.dim,
        }
        if provenance is not None:
            payload["_provenance"] = provenance
        return json.dumps(payload, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FittedFeaturizer":
        payload = json.loads(text)
        if payload["bins_per_var"] != RANGE_BINS:
            raise FeaturizeError(f"{payload['bins_per_var']} range bins per variable; featurizers use {RANGE_BINS}")
        config = FeaturizerConfig(
            numeric_vars=tuple(entry["name"] for entry in payload["numeric"]),
            categorical_vars=tuple(
                (entry["name"], tuple(entry["vocabulary"])) for entry in payload["categorical"]
            ),
        )
        edges = {entry["name"]: tuple(entry["edges"]) for entry in payload["numeric"]}
        fitted = cls(config=config, edges=edges)
        if fitted.dim != payload["dim"]:
            raise FeaturizeError("featurizer dim does not match its layout")
        return fitted


def _as_float(var: str, value) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError) as exc:
        raise BadValue(f"non-numeric value {value!r} for numeric variable {var!r}") from exc
    if not math.isfinite(out):
        raise BadValue(f"non-finite value {value!r} for numeric variable {var!r}")
    return out


def fit(rows: Sequence[Mapping[str, object]], config: FeaturizerConfig) -> FittedFeaturizer:
    """Fit quantile edges on training rows of window values.

    Edges sit at the 1/5 .. 4/5 empirical quantiles (linear interpolation
    between order statistics) of the non-missing values; duplicate edges are
    collapsed. A variable with no non-missing training values keeps an empty
    edge list, so any present value later lands in bin 0.
    """
    if not rows:
        raise FeaturizeError("cannot fit a featurizer on an empty training set")
    quantiles = [k / RANGE_BINS for k in range(1, RANGE_BINS)]
    edges = {}
    for var in config.numeric_vars:
        values = [
            _as_float(var, row[var]) for row in rows if row.get(var) is not None
        ]
        # degenerate variables (no values, or a single distinct value) carry no
        # range information: empty edges, so any present value lands in bin 0
        if len(set(values)) <= 1:
            edges[var] = ()
            continue
        cuts = np.quantile(np.asarray(values, dtype=float), quantiles, method="linear")
        deduped = []
        for cut in cuts.tolist():
            if not deduped or cut > deduped[-1]:
                deduped.append(cut)
        edges[var] = tuple(deduped)
    return FittedFeaturizer(config=config, edges=edges)


def encode(row: Mapping[str, object], fitted: FittedFeaturizer) -> np.ndarray:
    """Encode one patient's window values into the binary feature vector."""
    bits = bytearray(fitted.dim)
    slices = fitted.block_slices()
    for var in fitted.config.numeric_vars:
        value = row.get(var)
        if value is not None:
            # bin index = number of edges strictly below the value
            bits[slices[var].start + bisect_left(fitted.edges[var], _as_float(var, value))] = 1
    for var, vocab in fitted.config.categorical_vars:
        value = row.get(var)
        # unknown tokens encode as the all-zero block
        if value is not None and str(value) in vocab:
            bits[slices[var].start + vocab.index(str(value))] = 1
    return np.frombuffer(bits, dtype=np.uint8)


def encode_rows(rows: Sequence[Mapping[str, object]], fitted: FittedFeaturizer) -> np.ndarray:
    joined = bytearray().join(encode(row, fitted) for row in rows)
    return np.frombuffer(joined, dtype=np.uint8).reshape(len(rows), fitted.dim)


def infer_config(rows: Sequence[Mapping[str, object]]) -> FeaturizerConfig:
    """Derive a featurizer config from observed window values.

    A variable whose non-missing values are all numeric becomes a binned
    numeric; anything else becomes a categorical with the sorted set of
    observed tokens as vocabulary. Variable order is sorted by name for
    determinism.
    """
    seen: dict[str, list] = {}
    for row in rows:
        for var, value in row.items():
            seen.setdefault(var, [])
            if value is not None:
                seen[var].append(value)
    numeric = []
    categorical = []
    for var in sorted(seen):
        values = seen[var]
        if values and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
            numeric.append(var)
        else:
            vocab = tuple(sorted({str(v) for v in values})) or ("<none>",)
            categorical.append((var, vocab))
    return FeaturizerConfig(numeric_vars=tuple(numeric), categorical_vars=tuple(categorical))


# --- missingness analysis ---------------------------------------------------

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


def phi_coefficient(x: np.ndarray, y: np.ndarray) -> Optional[float]:
    """Phi (= Spearman/Pearson on binary pairs); None when either side is constant."""
    x = np.asarray(x, dtype=int)
    y = np.asarray(y, dtype=int)
    n11 = int(np.sum((x == 1) & (y == 1)))
    n10 = int(np.sum((x == 1) & (y == 0)))
    n01 = int(np.sum((x == 0) & (y == 1)))
    n00 = int(np.sum((x == 0) & (y == 0)))
    row1, row0 = n11 + n10, n01 + n00
    col1, col0 = n11 + n01, n10 + n00
    denom = row1 * row0 * col1 * col0
    if denom == 0:
        return None
    return (n11 * n00 - n10 * n01) / math.sqrt(denom)


def missingness_correlation(
    feature_bits: np.ndarray,
    diagnosis_labels: np.ndarray,
    fitted: FittedFeaturizer,
    diagnoses: Sequence[str],
) -> dict[tuple[str, str], Optional[float]]:
    """Correlation between a variable being present and each diagnosis.

    `diagnosis_labels` is (n_patients, n_diagnoses) binary. Undefined cells
    (constant presence or constant label) report None.
    """
    if feature_bits.shape[0] < 2:
        raise FeaturizeError("missingness correlation needs at least two patients")
    presence = variable_signal(feature_bits, fitted) > 0
    out = {}
    for col, var in enumerate(fitted.config.variables):
        for d_idx, diagnosis in enumerate(diagnoses):
            out[(var, diagnosis)] = phi_coefficient(presence[:, col], diagnosis_labels[:, d_idx])
    return out


# --- feature-vector export ---------------------------------------------------

def pack_bits_hex(bits: np.ndarray) -> str:
    """Pack a binary vector into hex, most significant bit of each byte first."""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes().hex()


def unpack_bits_hex(hex_text: str, dim: int) -> np.ndarray:
    raw = np.frombuffer(bytes.fromhex(hex_text), dtype=np.uint8)
    bits = np.unpackbits(raw)
    if bits.shape[0] < dim or bits[dim:].any():
        raise FeaturizeError("packed feature vector does not match the expected width")
    return bits[:dim]

