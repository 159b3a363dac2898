"""Binary EHR featurization: most-recent value per variable, five range bins.

Each numeric variable becomes a fixed-width block of range-indicator bits cut
at training-set quintiles; categorical variables become one-hot blocks over a
vocabulary. A missing value is the all-zero block, so missingness stays
visible to downstream models. Also computes the missingness-vs-diagnosis
correlation table.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from ._util import atomic_write_text
from .cohort import ObservationEvent


class FeaturizeError(ValueError):
    pass


class BadValue(FeaturizeError):
    pass


@dataclass(frozen=True)
class FeaturizerConfig:
    numeric_vars: tuple[str, ...]
    categorical_vars: tuple[tuple[str, tuple[str, ...]], ...]  # (name, vocabulary)
    bins_per_var: int = 5

    def __post_init__(self):
        if self.bins_per_var < 2:
            raise FeaturizeError("bins_per_var must be >= 2")
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

    Blocks are laid out numeric variables first (each `bins_per_var` wide,
    unused trailing bits stay zero when edges collapse), then categorical
    one-hot blocks, so the total width is stable across refits.
    """

    config: FeaturizerConfig
    edges: Mapping[str, tuple[float, ...]]

    @property
    def dim(self) -> int:
        return self.config.bins_per_var * len(self.config.numeric_vars) + sum(
            len(vocab) for _, vocab in self.config.categorical_vars
        )

    def block_slices(self) -> dict[str, slice]:
        slices = {}
        offset = 0
        for var in self.config.numeric_vars:
            slices[var] = slice(offset, offset + self.config.bins_per_var)
            offset += self.config.bins_per_var
        for var, vocab in self.config.categorical_vars:
            slices[var] = slice(offset, offset + len(vocab))
            offset += len(vocab)
        return slices

    def to_json(self, provenance: Optional[str] = None) -> str:
        payload = {
            "bins_per_var": self.config.bins_per_var,
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
        config = FeaturizerConfig(
            numeric_vars=tuple(entry["name"] for entry in payload["numeric"]),
            categorical_vars=tuple(
                (entry["name"], tuple(entry["vocabulary"])) for entry in payload["categorical"]
            ),
            bins_per_var=payload["bins_per_var"],
        )
        edges = {entry["name"]: tuple(entry["edges"]) for entry in payload["numeric"]}
        fitted = cls(config=config, edges=edges)
        if fitted.dim != payload["dim"]:
            raise FeaturizeError("featurizer dim does not match its layout")
        return fitted


def latest_value(events: Iterable[ObservationEvent], var: str, window: tuple[int, int]):
    """Value of the most recent observation of `var` inside the window.

    Returns None when no in-window observation exists. Equal-time
    observations resolve to the later-listed one.
    """
    start, end = window
    best_time = None
    best_value = None
    for event in events:
        if event.variable != var:
            continue
        if event.time < start or event.time > end:
            continue
        if best_time is None or event.time >= best_time:
            best_time = event.time
            best_value = event.value
    return best_value


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
    n_bins = config.bins_per_var
    quantiles = [k / n_bins for k in range(1, n_bins)]
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
    config = fitted.config
    bits = np.zeros(fitted.dim, dtype=np.uint8)
    offset = 0
    for var in config.numeric_vars:
        value = row.get(var)
        if value is not None:
            v = _as_float(var, value)
            var_edges = np.asarray(fitted.edges[var], dtype=float)
            # bin index = number of edges strictly below the value
            bin_idx = int(np.searchsorted(var_edges, v, side="left"))
            bits[offset + bin_idx] = 1
        offset += config.bins_per_var
    for var, vocab in config.categorical_vars:
        value = row.get(var)
        if value is not None:
            token = str(value)
            if token in vocab:
                bits[offset + vocab.index(token)] = 1
            # unknown tokens encode as the all-zero block
        offset += len(vocab)
    return bits


def encode_rows(rows: Sequence[Mapping[str, object]], fitted: FittedFeaturizer) -> np.ndarray:
    return np.stack([encode(row, fitted) for row in rows]) if rows else np.zeros((0, fitted.dim), np.uint8)


def infer_config(rows: Sequence[Mapping[str, object]], bins_per_var: int = 5) -> FeaturizerConfig:
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
    return FeaturizerConfig(
        numeric_vars=tuple(numeric),
        categorical_vars=tuple(categorical),
        bins_per_var=bins_per_var,
    )


# --- missingness analysis ---------------------------------------------------

def presence_indicators(feature_bits: np.ndarray, fitted: FittedFeaturizer) -> np.ndarray:
    """Per patient and variable, 1 when any bit of the variable's block is set."""
    slices = fitted.block_slices()
    variables = fitted.config.variables
    out = np.zeros((feature_bits.shape[0], len(variables)), dtype=np.uint8)
    for col, var in enumerate(variables):
        out[:, col] = feature_bits[:, slices[var]].any(axis=1)
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
    presence = presence_indicators(feature_bits, fitted)
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


def write_features(path, patient_ids: Sequence[str], feature_bits: np.ndarray,
                   header: str | None = None) -> None:
    lines = []
    if header:
        lines.append("# " + header)
    for pid, bits in zip(patient_ids, feature_bits):
        lines.append(json.dumps({"patient_id": pid, "bits": pack_bits_hex(bits)}, sort_keys=True))
    atomic_write_text(path, "".join(line + "\n" for line in lines))


def read_features(path, dim: int) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        record = json.loads(stripped)
        pid = record["patient_id"]
        if pid in out:
            raise FeaturizeError(f"duplicate patient_id {pid!r} in feature file")
        out[pid] = unpack_bits_hex(record["bits"], dim)
    return out
