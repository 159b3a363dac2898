"""The three classifier families and their training machinery.

One joint model emits a sigmoid probability per diagnosis. EHR models read
the binary feature vector (linear, or one hidden ReLU layer of 100 units);
the image model reads a frozen-extractor embedding through a linear head;
combined models concatenate the embedding with the EHR features, either
directly or after the EHR hidden layer. Training is minibatch SGD with
momentum and L2 weight decay, early-stopped on validation macro AUROC, and a
grid sweep treats the architecture within a family as one more
hyperparameter.

For one architecture and seed, every (learning rate, momentum, weight decay)
config starts from the same initialization and sees the same batch order,
so the sweep trains each architecture's whole grid in one pass: parameters
are stacked along a leading config axis, the forward and backward kernels
broadcast the shared batch across it, and a config that stops early is
dropped from the stack. Unstacked parameters are the single-config case of
the same kernels.

Training reads the first image of each patient's selected study; `predict`
scores patients on every image of that study and averages per patient.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from itertools import product
from pathlib import Path
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from ._util import atomic_write_text
from .evaluation import macro_auroc


class ModelError(ValueError):
    pass


class Diverged(ModelError):
    pass


class ModelKind(str, Enum):
    EHR_LINEAR = "ehr_linear"
    EHR_TWO_LAYER = "ehr_two_layer"
    IMAGE_LINEAR = "image_linear"
    COMBINED_DIRECT = "combined_direct"
    COMBINED_HIDDEN = "combined_hidden"


EHR_KINDS = (ModelKind.EHR_LINEAR, ModelKind.EHR_TWO_LAYER)
IMAGE_KINDS = (ModelKind.IMAGE_LINEAR,)
COMBINED_KINDS = (ModelKind.COMBINED_DIRECT, ModelKind.COMBINED_HIDDEN)

FAMILIES: dict[str, tuple[ModelKind, ...]] = {
    "ehr": EHR_KINDS,
    "image": IMAGE_KINDS,
    "combined": COMBINED_KINDS,
}

N_OUTPUTS = 3
HIDDEN_UNITS = 100
BATCH_SIZE = 32
PATIENCE = 5  # epochs without a new best validation macro AUROC before a config stops

LEARNING_RATE_GRID = (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 3.0)
MOMENTUM_GRID = (0.8, 0.9)
WEIGHT_DECAY_GRID = (1e-4, 1e-3, 1e-2, 1e-1)


@dataclass(frozen=True)
class ModelSpec:
    kind: ModelKind
    ehr_dim: int = 0
    emb_dim: int = 0

    def __post_init__(self):
        if self.needs_ehr and self.ehr_dim < 1:
            raise ModelError(f"{self.kind.value} needs a positive ehr_dim")
        if self.needs_emb and self.emb_dim < 1:
            raise ModelError(f"{self.kind.value} needs a positive emb_dim")

    @property
    def needs_ehr(self) -> bool:
        return self.kind in EHR_KINDS or self.kind in COMBINED_KINDS

    @property
    def needs_emb(self) -> bool:
        return self.kind in IMAGE_KINDS or self.kind in COMBINED_KINDS

    @property
    def uses_hidden(self) -> bool:
        return self.kind in (ModelKind.EHR_TWO_LAYER, ModelKind.COMBINED_HIDDEN)

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """The output layer reads [embedding ; EHR features or hidden units],
        each part present when the architecture has it (see `_top_input`)."""
        h, o = HIDDEN_UNITS, N_OUTPUTS
        ehr_width = h if self.uses_hidden else self.ehr_dim if self.needs_ehr else 0
        top_width = (self.emb_dim if self.needs_emb else 0) + ehr_width
        if self.uses_hidden:
            return {"W1": (h, self.ehr_dim), "b1": (h,), "W2": (o, top_width), "b2": (o,)}
        return {"W": (o, top_width), "b": (o,)}


Params = dict[str, np.ndarray]


class HyperParams(NamedTuple):
    """One config's SGD rates; for stacked parameters, per-config (G, 1, 1) columns."""

    learning_rate: float = 1e-1
    momentum: float = 0.9
    weight_decay: float = 1e-4


@dataclass
class TrainHistory:
    val_auroc: list[float] = field(default_factory=list)
    best_epoch: int = 0  # 1-based; first epoch reaching the best validation macro AUROC


@dataclass
class ArrayDataset:
    """Patient-level arrays: ehr (n, d) 0/1 floats, emb (n, e), labels (n, 3)."""

    labels: np.ndarray
    ehr: Optional[np.ndarray] = None
    emb: Optional[np.ndarray] = None

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=float)
        if self.labels.ndim != 2 or self.labels.shape[1] != N_OUTPUTS:
            raise ModelError("labels must be (n, 3)")
        if self.ehr is not None:
            self.ehr = np.asarray(self.ehr, dtype=float)
        if self.emb is not None:
            self.emb = np.asarray(self.emb, dtype=float)

    def __len__(self) -> int:
        return self.labels.shape[0]


def init_params(spec: ModelSpec, rng: np.random.Generator) -> Params:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) per layer, biases included."""
    params: Params = {}
    for name, shape in spec.param_shapes().items():
        if name.startswith("W"):
            bound = 1.0 / np.sqrt(shape[1])
            params[name] = rng.uniform(-bound, bound, size=shape)
        else:
            matching_w = "W" + name[1:]
            fan_in = spec.param_shapes()[matching_w][1]
            params[name] = rng.uniform(-1.0 / np.sqrt(fan_in), 1.0 / np.sqrt(fan_in), size=shape)
    return params


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, so exp never overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _check_inputs(spec: ModelSpec, ehr, emb) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    if spec.needs_ehr:
        if ehr is None:
            raise ModelError(f"{spec.kind.value} requires EHR input")
        ehr = np.atleast_2d(np.asarray(ehr, dtype=float))
        if ehr.shape[1] != spec.ehr_dim:
            raise ModelError(f"EHR input width {ehr.shape[1]} != spec ehr_dim {spec.ehr_dim}")
    else:
        ehr = None
    if spec.needs_emb:
        if emb is None:
            raise ModelError(f"{spec.kind.value} requires an image embedding input")
        emb = np.atleast_2d(np.asarray(emb, dtype=float))
        if emb.shape[1] != spec.emb_dim:
            raise ModelError(f"embedding width {emb.shape[1]} != spec emb_dim {spec.emb_dim}")
    else:
        emb = None
    return ehr, emb


def _t(w: np.ndarray) -> np.ndarray:
    return w.swapaxes(-1, -2)


def _concat(emb: np.ndarray, x: np.ndarray) -> np.ndarray:
    """[emb ; x] along features; a shared emb is broadcast over x's config axis."""
    e = emb.shape[-1]
    out = np.empty(x.shape[:-1] + (e + x.shape[-1],))
    out[..., :e] = emb
    out[..., e:] = x
    return out


# The kernels below take parameters either unstacked (W (out, in), b (out,))
# or stacked along a leading config axis (W (G, out, in), b (G, 1, out)); the
# inputs are one (n, features) batch shared by every config, and outputs
# gain the same leading axis as the parameters.


def _top_input(spec: ModelSpec, params: Params, ehr, emb) -> tuple[np.ndarray, str, str]:
    """The output layer's input and the names of its weight and bias.

    The input is [m ; x], [m ; relu(W1 x + b1)] or either part alone, as the
    architecture has an embedding m, EHR features x and a hidden layer; the
    hidden units, when present, are its last `HIDDEN_UNITS` columns.
    """
    if spec.uses_hidden:
        x, weight, bias = np.maximum(ehr @ _t(params["W1"]) + params["b1"], 0.0), "W2", "b2"
    else:
        x, weight, bias = ehr, "W", "b"
    if spec.needs_emb:
        x = emb if x is None else _concat(emb, x)
    return x, weight, bias


def forward(spec: ModelSpec, params: Params, ehr=None, emb=None) -> np.ndarray:
    """Per-diagnosis probabilities, shape (n, 3), or (G, n, 3) for stacked parameters.

    ehr_linear:      sigmoid(W x + b)
    ehr_two_layer:   sigmoid(W2 relu(W1 x + b1) + b2)
    image_linear:    sigmoid(W m + b)
    combined_direct: sigmoid(W [m ; x] + b)
    combined_hidden: sigmoid(W2 [m ; relu(W1 x + b1)] + b2)
    """
    top_in, weight, bias = _top_input(spec, params, *_check_inputs(spec, ehr, emb))
    return _sigmoid(top_in @ _t(params[weight]) + params[bias])


def backward(spec: ModelSpec, params: Params, ehr, emb, label_matrix) -> Params:
    """Analytic gradient of the batch-mean cross-entropy for every parameter,
    per config for stacked parameters."""
    ehr, emb = _check_inputs(spec, ehr, emb)
    y = np.atleast_2d(np.asarray(label_matrix, dtype=float))
    n = y.shape[0]
    if n == 0:
        raise ModelError("cannot compute gradients on an empty batch")
    top_in, weight, bias = _top_input(spec, params, ehr, emb)
    dz = (_sigmoid(top_in @ _t(params[weight]) + params[bias]) - y) / n  # (..., n, 3)
    grads = {weight: _t(dz) @ top_in, bias: dz.sum(axis=-2).reshape(params[bias].shape)}
    if spec.uses_hidden:
        # relu(p) > 0 exactly where p > 0, so the hidden units give the ReLU mask
        hidden = top_in[..., -HIDDEN_UNITS:]
        dhidden = (dz @ params[weight][..., -HIDDEN_UNITS:]) * (hidden > 0)
        grads["W1"] = _t(dhidden) @ ehr
        grads["b1"] = dhidden.sum(axis=-2).reshape(params["b1"].shape)
    return grads


def sgd_step(params: Params, velocity: Params, grads: Params, hp: HyperParams) -> tuple[Params, Params]:
    """v' = momentum v + (g + weight_decay theta); theta' = theta - lr v'.

    For stacked parameters the rates are per-config columns."""
    new_params: Params = {}
    new_velocity: Params = {}
    for name, theta in params.items():
        v = hp.momentum * velocity[name] + (grads[name] + hp.weight_decay * theta)
        updated = theta - hp.learning_rate * v
        if not np.all(np.isfinite(updated)):
            raise Diverged(f"non-finite update for parameter {name!r}")
        new_params[name] = updated
        new_velocity[name] = v
    return new_params, new_velocity


def train_stacked(
    spec: ModelSpec,
    hps: Sequence[HyperParams],
    train_set: ArrayDataset,
    val_set: ArrayDataset,
    seed: int,
    max_epochs: int,
) -> list[tuple[Params, TrainHistory]]:
    """Minibatch SGD with early stopping on validation macro AUROC, for
    several configs of one architecture in one pass.

    Batches of `BATCH_SIZE` reshuffle each epoch. Per config, the best-so-far
    parameters are kept (strictly-greater improvements, so the first epoch
    wins ties) and training stops after `PATIENCE` consecutive epochs without
    a new best, or at `max_epochs`. Deterministic for a fixed seed.

    Every config gets the same initialization and batch order from `seed`,
    so each result equals what a one-config list returns for that config
    alone. Parameters are stacked along a leading config axis, and a config
    leaves the stack when it stops.
    """
    if not hps:
        raise ModelError("no hyperparameter configs to train")
    if len(train_set) == 0 or len(val_set) == 0:
        raise ModelError("train and validation sets must be non-empty")
    train_ehr, train_emb = _check_inputs(spec, train_set.ehr, train_set.emb)
    val_ehr, val_emb = _check_inputs(spec, val_set.ehr, val_set.emb)

    rng = np.random.default_rng(seed)
    g_count = len(hps)
    shapes = spec.param_shapes()
    # every config starts from the same draw: W (G, out, in), b (G, 1, out)
    theta = {
        name: np.repeat(value.reshape((1,) * (3 - value.ndim) + value.shape), g_count, axis=0)
        for name, value in init_params(spec, rng).items()
    }
    velocity = {name: np.zeros_like(value) for name, value in theta.items()}
    best = {name: value.copy() for name, value in theta.items()}

    rates = HyperParams(*(np.array(column, dtype=float).reshape(g_count, 1, 1) for column in zip(*hps)))
    histories = [TrainHistory() for _ in hps]
    best_metric = [-np.inf] * g_count
    stale_epochs = [0] * g_count
    active = np.arange(g_count)  # stack row -> config index
    n = len(train_set)

    for epoch in range(1, max_epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, BATCH_SIZE):
            idx = order[start : start + BATCH_SIZE]
            grads = backward(
                spec, theta,
                None if train_ehr is None else train_ehr[idx],
                None if train_emb is None else train_emb[idx],
                train_set.labels[idx],
            )
            try:
                theta, velocity = sgd_step(theta, velocity, grads, rates)
            except Diverged as exc:
                raise Diverged(f"epoch {epoch}: {exc}") from exc

        probs = forward(spec, theta, val_ehr, val_emb)
        keep = np.ones(active.size, dtype=bool)
        for row, g in enumerate(active):
            history = histories[g]
            val_metric = macro_auroc(probs[row], val_set.labels)
            history.val_auroc.append(val_metric)
            if val_metric > best_metric[g]:
                best_metric[g] = val_metric
                for name, value in theta.items():
                    best[name][g] = value[row]
                history.best_epoch = epoch
                stale_epochs[g] = 0
            else:
                stale_epochs[g] += 1
                keep[row] = stale_epochs[g] < PATIENCE
        if not keep.all():
            active = active[keep]
            if active.size == 0:
                break
            theta = {name: value[keep] for name, value in theta.items()}
            velocity = {name: value[keep] for name, value in velocity.items()}
            rates = HyperParams(*(rate[keep] for rate in rates))

    return [
        ({name: value[g].reshape(shapes[name]).copy() for name, value in best.items()}, histories[g])
        for g in range(g_count)
    ]


@dataclass(frozen=True)
class SweepGrid:
    learning_rates: tuple[float, ...] = LEARNING_RATE_GRID
    momentums: tuple[float, ...] = MOMENTUM_GRID
    weight_decays: tuple[float, ...] = WEIGHT_DECAY_GRID
    max_epochs: int = 100  # one cap for every config

    def __post_init__(self):
        for name in ("learning_rates", "momentums", "weight_decays"):
            if not getattr(self, name):
                raise ModelError(f"{name} lists no value")
        if not all(lr > 0 for lr in self.learning_rates):
            raise ModelError("learning_rates must all be positive")
        if self.max_epochs < 1:
            raise ModelError("max_epochs must be at least 1")


@dataclass
class SweepRun:
    spec: ModelSpec
    hp: HyperParams
    val_auroc: float


@dataclass
class SweepResult:
    spec: ModelSpec
    hp: HyperParams
    params: Params
    history: TrainHistory
    val_auroc: float
    runs: list[SweepRun]


def sweep(
    family: str,
    grid: SweepGrid,
    train_set: ArrayDataset,
    val_set: ArrayDataset,
    seed: int,
    ehr_dim: int = 0,
    emb_dim: int = 0,
) -> SweepResult:
    """Train every (architecture, hyperparameter) combination in a family and
    keep the best validation macro AUROC; ties go to the earlier grid entry.

    The grid is learning-rate-major, then momentum, weight decay and, innermost,
    architecture. Each architecture's configs train together in one
    `train_stacked` call."""
    if family not in FAMILIES:
        raise ModelError(f"unknown model family {family!r}; expected one of {sorted(FAMILIES)}")
    hps = [HyperParams(*rates) for rates in product(grid.learning_rates, grid.momentums, grid.weight_decays)]
    specs = [ModelSpec(kind=kind, ehr_dim=ehr_dim, emb_dim=emb_dim) for kind in FAMILIES[family]]
    trained = [train_stacked(spec, hps, train_set, val_set, seed, grid.max_epochs) for spec in specs]
    best: Optional[SweepResult] = None
    runs: list[SweepRun] = []
    for config, hp in enumerate(hps):
        for spec, results in zip(specs, trained):
            params, history = results[config]
            val_metric = history.val_auroc[history.best_epoch - 1]
            runs.append(SweepRun(spec=spec, hp=hp, val_auroc=val_metric))
            if best is None or val_metric > best.val_auroc:
                best = SweepResult(
                    spec=spec, hp=hp, params=params, history=history,
                    val_auroc=val_metric, runs=runs,
                )
    return best


def predict(spec: ModelSpec, params: Params, ehr, emb, image_counts) -> np.ndarray:
    """Per-patient probabilities, shape (n, 3).

    `emb` holds every image of each patient's selected study, patient by
    patient, `image_counts[i]` rows for patient i. Image and combined models
    run one forward over all (patient, image) rows and average each patient's
    rows; EHR models ignore the images.
    """
    if not spec.needs_emb:
        return forward(spec, params, ehr=ehr)
    counts = np.asarray(image_counts, dtype=int)
    if np.any(counts < 1):
        raise ModelError(f"{spec.kind.value} needs at least one image embedding per patient")
    if emb is None or len(emb) != counts.sum():
        raise ModelError(f"{spec.kind.value} needs one embedding row per counted image ({counts.sum()})")
    per_image = forward(spec, params, ehr=np.repeat(ehr, counts, axis=0) if spec.needs_ehr else None, emb=emb)
    return np.add.reduceat(per_image, np.cumsum(counts) - counts, axis=0) / counts[:, None]


# --- checkpoints --------------------------------------------------------------

CHECKPOINT_FORMAT = "arfdx-checkpoint-1"


@dataclass(frozen=True)
class Checkpoint:
    spec: ModelSpec
    params: Params
    hp: HyperParams
    seed: int
    val_metrics: Mapping[str, float]


def save_checkpoint(path, spec: ModelSpec, params: Params, hp: HyperParams, max_epochs: int,
                    seed: int, val_metrics: Mapping[str, float],
                    provenance: str | None = None) -> None:
    payload = {
        "format": CHECKPOINT_FORMAT,
        "provenance": provenance,
        "spec": {
            "kind": spec.kind.value,
            "ehr_dim": spec.ehr_dim,
            "emb_dim": spec.emb_dim,
            "hidden": HIDDEN_UNITS,
            "outputs": N_OUTPUTS,
        },
        "hyper": {
            "learning_rate": hp.learning_rate,
            "momentum": hp.momentum,
            "weight_decay": hp.weight_decay,
            "batch_size": BATCH_SIZE,
            "patience": PATIENCE,
            "max_epochs": max_epochs,
        },
        "seed": seed,
        "val_metrics": dict(val_metrics),
        "params": {
            name: {"shape": list(value.shape), "data": value.ravel().tolist()}
            for name, value in params.items()
        },
    }
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=1))


def load_checkpoint(path) -> Checkpoint:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if type(payload) is not dict or payload.get("format") != CHECKPOINT_FORMAT:
        raise ModelError(f"unrecognized checkpoint format in {path}")
    raw_spec = payload["spec"]
    if raw_spec["hidden"] != HIDDEN_UNITS or raw_spec["outputs"] != N_OUTPUTS:
        raise ModelError(f"models have {HIDDEN_UNITS} hidden units and {N_OUTPUTS} outputs, {path} stores "
                         f"{raw_spec['hidden']} and {raw_spec['outputs']}")
    spec = ModelSpec(kind=ModelKind(raw_spec["kind"]), ehr_dim=raw_spec["ehr_dim"], emb_dim=raw_spec["emb_dim"])
    expected = spec.param_shapes()
    params: Params = {}
    for name, shape in expected.items():
        if name not in payload["params"]:
            raise ModelError(f"checkpoint missing parameter {name!r}")
        entry = payload["params"][name]
        if tuple(entry["shape"]) != shape:
            raise ModelError(
                f"checkpoint parameter {name!r} has shape {tuple(entry['shape'])}, expected {shape}"
            )
        params[name] = np.asarray(entry["data"], dtype=float).reshape(shape)
    hp = HyperParams(*(payload["hyper"][name] for name in HyperParams._fields))
    return Checkpoint(spec=spec, params=params, hp=hp,
                      seed=payload["seed"], val_metrics=payload["val_metrics"])
