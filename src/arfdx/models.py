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

Inside `train_stacked`, parameters, velocity, gradient and one scratch
array are each one flat (G, P) buffer, P the architecture's parameter
count, and the per-name arrays `forward` and `backward` read are views into
them. A batch is one `backward` into the gradient views and one in-place
`sgd_step` on the flat buffers. Each epoch gathers the shuffled training
rows once and slices its batches from them, checks that every parameter is
finite once, after its last batch, and scores every config's validation
macro AUROC in one call.

Training reads the first image of each patient's selected study; `predict`
scores patients on every image of that study and averages per patient. It
computes each patient's EHR part (features, or hidden units) once and
repeats it per image.
"""

from __future__ import annotations

import json
import math
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
    """One config's SGD rates; for the flat (G, P) buffers of `sgd_step`, per-config (G, 1) columns."""

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


def _top_input(spec: ModelSpec, params: Params, ehr, emb, image_counts=None) -> tuple[np.ndarray, str, str]:
    """The output layer's input and the names of its weight and bias.

    The input is [m ; x], [m ; relu(W1 x + b1)] or either part alone, as the
    architecture has an embedding m, EHR features x and a hidden layer; the
    hidden units, when present, are its last `HIDDEN_UNITS` columns. With
    `image_counts`, `ehr` holds one row per patient and `emb` one per image:
    the EHR part is computed per patient, then repeated for each image.
    """
    if spec.uses_hidden:
        x, weight, bias = np.maximum(ehr @ _t(params["W1"]) + params["b1"], 0.0), "W2", "b2"
    else:
        x, weight, bias = ehr, "W", "b"
    if spec.needs_emb:
        if x is not None and image_counts is not None:
            x = np.repeat(x, image_counts, axis=-2)
        x = emb if x is None else _concat(emb, x)
    return x, weight, bias


def forward(spec: ModelSpec, params: Params, ehr=None, emb=None, image_counts=None) -> np.ndarray:
    """Per-diagnosis probabilities, shape (n, 3), or (G, n, 3) for stacked parameters.

    With `image_counts`, `ehr` has one row per patient and `emb`
    `image_counts[i]` rows for patient i, and there is one output row per image.

    ehr_linear:      sigmoid(W x + b)
    ehr_two_layer:   sigmoid(W2 relu(W1 x + b1) + b2)
    image_linear:    sigmoid(W m + b)
    combined_direct: sigmoid(W [m ; x] + b)
    combined_hidden: sigmoid(W2 [m ; relu(W1 x + b1)] + b2)
    """
    top_in, weight, bias = _top_input(spec, params, *_check_inputs(spec, ehr, emb), image_counts)
    return _sigmoid(top_in @ _t(params[weight]) + params[bias])


def backward(spec: ModelSpec, params: Params, ehr, emb, label_matrix, out: Params) -> Params:
    """Analytic gradient of the batch-mean cross-entropy for every parameter,
    per config for stacked parameters, written into `out` (arrays shaped like
    `params`). The inputs are taken as checked: `train_stacked` checks them
    once per call."""
    top_in, weight, bias = _top_input(spec, params, ehr, emb)
    dz = (_sigmoid(top_in @ _t(params[weight]) + params[bias]) - label_matrix) / label_matrix.shape[0]
    stacked = dz.ndim == 3  # stacked bias gradients keep the batch axis: (G, 1, out)
    np.matmul(_t(dz), top_in, out=out[weight])
    np.add.reduce(dz, axis=-2, keepdims=stacked, out=out[bias])
    if spec.uses_hidden:
        # relu(p) > 0 exactly where p > 0, so the hidden units give the ReLU mask
        hidden = top_in[..., -HIDDEN_UNITS:]
        dhidden = (dz @ params[weight][..., -HIDDEN_UNITS:]) * (hidden > 0)
        np.matmul(_t(dhidden), ehr, out=out["W1"])
        np.add.reduce(dhidden, axis=-2, keepdims=stacked, out=out["b1"])
    return out


def sgd_step(theta: np.ndarray, velocity: np.ndarray, grads: np.ndarray, scratch: np.ndarray,
             hp: HyperParams) -> None:
    """v' = momentum v + (g + weight_decay theta); theta' = theta - lr v', in place.

    All four arrays are flat (G, P) buffers and the rates (G, 1) columns;
    `grads` and `scratch` are overwritten. Each product and sum is the one
    the formula names (IEEE addition and multiplication commute), so the
    result equals the out-of-place update bit for bit."""
    np.multiply(hp.weight_decay, theta, out=scratch)
    grads += scratch
    velocity *= hp.momentum
    velocity += grads
    np.multiply(hp.learning_rate, velocity, out=scratch)
    theta -= scratch


def _stacked_views(flat: np.ndarray, spec: ModelSpec) -> Params:
    """Each parameter of `spec` as a view into the rows of a flat (G, P)
    buffer, P the architecture's parameter count: W (G, out, in), b (G, 1, out)."""
    views: Params = {}
    start = 0
    for name, shape in spec.param_shapes().items():
        size = math.prod(shape)
        views[name] = flat[:, start : start + size].reshape((flat.shape[0],) + (1,) * (2 - len(shape)) + shape)
        start += size
    return views


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
    train_arrays = {"ehr": train_ehr, "emb": train_emb, "labels": train_set.labels}
    shuffled = {key: np.empty_like(a) for key, a in train_arrays.items() if a is not None}

    rng = np.random.default_rng(seed)
    g_count = len(hps)
    n_params = sum(math.prod(shape) for shape in spec.param_shapes().values())
    theta = np.empty((g_count, n_params))
    theta_views = _stacked_views(theta, spec)
    for name, value in init_params(spec, rng).items():
        theta_views[name][...] = value  # every config starts from the same draw
    velocity = np.zeros_like(theta)
    grads = np.empty_like(theta)
    scratch = np.empty_like(theta)
    grad_views = _stacked_views(grads, spec)
    best = theta.copy()

    rates = HyperParams(*(np.array(column, dtype=float).reshape(g_count, 1) for column in zip(*hps)))
    histories = [TrainHistory() for _ in hps]
    best_metric = [-np.inf] * g_count
    stale_epochs = [0] * g_count
    active = np.arange(g_count)  # stack row -> config index
    n = len(train_set)

    for epoch in range(1, max_epochs + 1):
        order = rng.permutation(n)
        for key, target in shuffled.items():
            np.take(train_arrays[key], order, axis=0, out=target)
        for start in range(0, n, BATCH_SIZE):
            batch = {key: a[start : start + BATCH_SIZE] for key, a in shuffled.items()}
            backward(spec, theta_views, batch.get("ehr"), batch.get("emb"), batch["labels"], out=grad_views)
            sgd_step(theta, velocity, grads, scratch, rates)
        # a non-finite parameter stays non-finite under the update (lr > 0),
        # so one check per epoch names the epoch where the first one appeared
        if not np.isfinite(theta).all():
            name = next(name for name, value in theta_views.items() if not np.isfinite(value).all())
            raise Diverged(f"epoch {epoch}: non-finite update for parameter {name!r}")

        val_metrics = macro_auroc(forward(spec, theta_views, val_ehr, val_emb), val_set.labels).tolist()
        keep = np.ones(active.size, dtype=bool)
        for row, g in enumerate(active):
            history = histories[g]
            val_metric = val_metrics[row]
            history.val_auroc.append(val_metric)
            if val_metric > best_metric[g]:
                best_metric[g] = val_metric
                best[g] = theta[row]
                history.best_epoch = epoch
                stale_epochs[g] = 0
            else:
                stale_epochs[g] += 1
                keep[row] = stale_epochs[g] < PATIENCE
        if not keep.all():
            active = active[keep]
            if active.size == 0:
                break
            theta, velocity = theta[keep], velocity[keep]
            grads, scratch = grads[keep], scratch[keep]
            theta_views, grad_views = _stacked_views(theta, spec), _stacked_views(grads, spec)
            rates = HyperParams(*(rate[keep] for rate in rates))

    shapes = spec.param_shapes()
    best_views = _stacked_views(best, spec)
    return [
        ({name: value[g].reshape(shapes[name]).copy() for name, value in best_views.items()}, histories[g])
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
    rows; the EHR part of that forward (the features, or the hidden units) is
    computed once per patient. EHR models ignore the images.
    """
    if not spec.needs_emb:
        return forward(spec, params, ehr=ehr)
    counts = np.asarray(image_counts, dtype=int)
    if np.any(counts < 1):
        raise ModelError(f"{spec.kind.value} needs at least one image embedding per patient")
    if emb is None or len(emb) != counts.sum():
        raise ModelError(f"{spec.kind.value} needs one embedding row per counted image ({counts.sum()})")
    per_image = forward(spec, params, ehr=ehr, emb=emb, image_counts=counts)
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
