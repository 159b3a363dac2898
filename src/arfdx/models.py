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

LEARNING_RATE_GRID = (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 3.0)
MOMENTUM_GRID = (0.8, 0.9)
WEIGHT_DECAY_GRID = (1e-4, 1e-3, 1e-2, 1e-1)


@dataclass(frozen=True)
class ModelSpec:
    kind: ModelKind
    ehr_dim: int = 0
    emb_dim: int = 0
    hidden: int = HIDDEN_UNITS
    outputs: int = N_OUTPUTS

    def __post_init__(self):
        if self.outputs != N_OUTPUTS:
            raise ModelError(f"models emit {N_OUTPUTS} diagnosis outputs, got {self.outputs}")
        if self.uses_hidden and self.hidden != HIDDEN_UNITS:
            raise ModelError(f"hidden layer is fixed at {HIDDEN_UNITS} units")
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
        k = self.kind
        if k is ModelKind.EHR_LINEAR:
            return {"W": (self.outputs, self.ehr_dim), "b": (self.outputs,)}
        if k is ModelKind.EHR_TWO_LAYER:
            return {
                "W1": (self.hidden, self.ehr_dim), "b1": (self.hidden,),
                "W2": (self.outputs, self.hidden), "b2": (self.outputs,),
            }
        if k is ModelKind.IMAGE_LINEAR:
            return {"W": (self.outputs, self.emb_dim), "b": (self.outputs,)}
        if k is ModelKind.COMBINED_DIRECT:
            return {"W": (self.outputs, self.emb_dim + self.ehr_dim), "b": (self.outputs,)}
        if k is ModelKind.COMBINED_HIDDEN:
            return {
                "W1": (self.hidden, self.ehr_dim), "b1": (self.hidden,),
                "W2": (self.outputs, self.emb_dim + self.hidden), "b2": (self.outputs,),
            }
        raise ModelError(f"unknown model kind {k!r}")


Params = dict[str, np.ndarray]


@dataclass(frozen=True)
class HyperParams:
    learning_rate: float = 1e-1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    batch_size: int = 32
    patience: int = 5
    max_epochs: int = 100

    def __post_init__(self):
        if self.learning_rate <= 0 or self.batch_size < 1 or self.patience < 1 or self.max_epochs < 1:
            raise ModelError("bad hyperparameter values")


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


def forward(spec: ModelSpec, params: Params, ehr=None, emb=None) -> np.ndarray:
    """Per-diagnosis probabilities, shape (n, 3), or (G, n, 3) for stacked parameters.

    ehr_linear:      sigmoid(W x + b)
    ehr_two_layer:   sigmoid(W2 relu(W1 x + b1) + b2)
    image_linear:    sigmoid(W m + b)
    combined_direct: sigmoid(W [m ; x] + b)
    combined_hidden: sigmoid(W2 [m ; relu(W1 x + b1)] + b2)
    """
    ehr, emb = _check_inputs(spec, ehr, emb)
    k = spec.kind
    if k is ModelKind.EHR_LINEAR:
        z = ehr @ _t(params["W"]) + params["b"]
    elif k is ModelKind.EHR_TWO_LAYER:
        hidden = np.maximum(ehr @ _t(params["W1"]) + params["b1"], 0.0)
        z = hidden @ _t(params["W2"]) + params["b2"]
    elif k is ModelKind.IMAGE_LINEAR:
        z = emb @ _t(params["W"]) + params["b"]
    elif k is ModelKind.COMBINED_DIRECT:
        z = _concat(emb, ehr) @ _t(params["W"]) + params["b"]
    elif k is ModelKind.COMBINED_HIDDEN:
        hidden = np.maximum(ehr @ _t(params["W1"]) + params["b1"], 0.0)
        z = _concat(emb, hidden) @ _t(params["W2"]) + params["b2"]
    else:
        raise ModelError(f"unknown model kind {k!r}")
    return _sigmoid(z)


def backward(spec: ModelSpec, params: Params, ehr, emb, label_matrix) -> Params:
    """Analytic gradient of the batch-mean cross-entropy for every parameter,
    per config for stacked parameters."""
    ehr, emb = _check_inputs(spec, ehr, emb)
    y = np.atleast_2d(np.asarray(label_matrix, dtype=float))
    n = y.shape[0]
    if n == 0:
        raise ModelError("cannot compute gradients on an empty batch")
    k = spec.kind

    if k in (ModelKind.EHR_LINEAR, ModelKind.IMAGE_LINEAR, ModelKind.COMBINED_DIRECT):
        if k is ModelKind.EHR_LINEAR:
            x = ehr
        elif k is ModelKind.IMAGE_LINEAR:
            x = emb
        else:
            x = _concat(emb, ehr)
        probs = _sigmoid(x @ _t(params["W"]) + params["b"])
        dz = (probs - y) / n  # (..., n, 3)
        return {"W": _t(dz) @ x, "b": dz.sum(axis=-2).reshape(params["b"].shape)}

    pre1 = ehr @ _t(params["W1"]) + params["b1"]
    hidden = np.maximum(pre1, 0.0)
    if k is ModelKind.EHR_TWO_LAYER:
        top_in = hidden
        w2_hidden = params["W2"]
    elif k is ModelKind.COMBINED_HIDDEN:
        top_in = _concat(emb, hidden)
        w2_hidden = params["W2"][..., spec.emb_dim :]
    else:
        raise ModelError(f"unknown model kind {k!r}")
    probs = _sigmoid(top_in @ _t(params["W2"]) + params["b2"])
    dz = (probs - y) / n
    dhidden = (dz @ w2_hidden) * (pre1 > 0)
    return {
        "W1": _t(dhidden) @ ehr,
        "b1": dhidden.sum(axis=-2).reshape(params["b1"].shape),
        "W2": _t(dz) @ top_in,
        "b2": dz.sum(axis=-2).reshape(params["b2"].shape),
    }


class _Rates(NamedTuple):
    """Per-config SGD rates as (G, 1, 1) columns, for stacked parameters."""

    learning_rate: np.ndarray
    momentum: np.ndarray
    weight_decay: np.ndarray


def sgd_step(params: Params, velocity: Params, grads: Params, hp: HyperParams | _Rates) -> tuple[Params, Params]:
    """v' = momentum v + (g + weight_decay theta); theta' = theta - lr v'.

    For stacked parameters the rates are per-config columns (`_Rates`)."""
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
) -> list[tuple[Params, TrainHistory]]:
    """Minibatch SGD with early stopping on validation macro AUROC, for
    several configs of one architecture in one pass.

    Batches reshuffle each epoch. Per config, the best-so-far parameters are
    kept (strictly-greater improvements, so the first epoch wins ties) and
    training stops after `patience` consecutive epochs without a new best,
    or at `max_epochs`. Deterministic for a fixed seed.

    Every config gets the same initialization and batch order from `seed`,
    so they must share `batch_size`; each result equals what a one-config
    list returns for that config alone. Parameters are stacked along a
    leading config axis, and a config leaves the stack when it stops.
    """
    if not hps:
        raise ModelError("no hyperparameter configs to train")
    batch_size = hps[0].batch_size
    if any(hp.batch_size != batch_size for hp in hps):
        raise ModelError("configs trained together share their batch order, so they need one batch_size")
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

    def column(attr: str) -> np.ndarray:
        return np.array([getattr(hp, attr) for hp in hps], dtype=float).reshape(g_count, 1, 1)

    rates = _Rates(column("learning_rate"), column("momentum"), column("weight_decay"))
    histories = [TrainHistory() for _ in hps]
    best_metric = [-np.inf] * g_count
    stale_epochs = [0] * g_count
    active = np.arange(g_count)  # stack row -> config index
    n = len(train_set)

    for epoch in range(1, max(hp.max_epochs for hp in hps) + 1):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
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
                keep[row] = stale_epochs[g] < hps[g].patience
            keep[row] &= epoch < hps[g].max_epochs
        if not keep.all():
            active = active[keep]
            if active.size == 0:
                break
            theta = {name: value[keep] for name, value in theta.items()}
            velocity = {name: value[keep] for name, value in velocity.items()}
            rates = _Rates(*(rate[keep] for rate in rates))

    return [
        ({name: value[g].reshape(shapes[name]).copy() for name, value in best.items()}, histories[g])
        for g in range(g_count)
    ]


@dataclass(frozen=True)
class SweepGrid:
    learning_rates: tuple[float, ...] = LEARNING_RATE_GRID
    momentums: tuple[float, ...] = MOMENTUM_GRID
    weight_decays: tuple[float, ...] = WEIGHT_DECAY_GRID
    batch_size: int = 32
    patience: int = 5
    max_epochs: int = 100


def enumerate_configs(kinds: Sequence[ModelKind], grid: SweepGrid) -> list[tuple[ModelKind, HyperParams]]:
    """Learning-rate-major enumeration, then momentum, weight decay, architecture."""
    configs = []
    for lr in grid.learning_rates:
        for momentum in grid.momentums:
            for weight_decay in grid.weight_decays:
                for kind in kinds:
                    configs.append(
                        (
                            kind,
                            HyperParams(
                                learning_rate=lr,
                                momentum=momentum,
                                weight_decay=weight_decay,
                                batch_size=grid.batch_size,
                                patience=grid.patience,
                                max_epochs=grid.max_epochs,
                            ),
                        )
                    )
    return configs


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

    Each architecture's configs train together in one `train_stacked` call."""
    if family not in FAMILIES:
        raise ModelError(f"unknown model family {family!r}; expected one of {sorted(FAMILIES)}")
    configs = enumerate_configs(FAMILIES[family], grid)
    if not configs:
        raise ModelError("empty sweep grid")
    trained = {}
    for kind in FAMILIES[family]:
        spec = ModelSpec(kind=kind, ehr_dim=ehr_dim, emb_dim=emb_dim)
        hps = [hp for config_kind, hp in configs if config_kind is kind]
        trained[kind] = (spec, iter(train_stacked(spec, hps, train_set, val_set, seed)))
    best: Optional[SweepResult] = None
    runs: list[SweepRun] = []
    for kind, hp in configs:
        spec, results = trained[kind]
        params, history = next(results)
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


def save_checkpoint(path, spec: ModelSpec, params: Params, hp: HyperParams,
                    seed: int, val_metrics: Mapping[str, float],
                    provenance: str | None = None) -> None:
    payload = {
        "format": CHECKPOINT_FORMAT,
        "provenance": provenance,
        "spec": {
            "kind": spec.kind.value,
            "ehr_dim": spec.ehr_dim,
            "emb_dim": spec.emb_dim,
            "hidden": spec.hidden,
            "outputs": spec.outputs,
        },
        "hyper": {
            "learning_rate": hp.learning_rate,
            "momentum": hp.momentum,
            "weight_decay": hp.weight_decay,
            "batch_size": hp.batch_size,
            "patience": hp.patience,
            "max_epochs": hp.max_epochs,
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
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ModelError(f"unrecognized checkpoint format in {path}")
    raw_spec = payload["spec"]
    spec = ModelSpec(
        kind=ModelKind(raw_spec["kind"]),
        ehr_dim=raw_spec["ehr_dim"],
        emb_dim=raw_spec["emb_dim"],
        hidden=raw_spec["hidden"],
        outputs=raw_spec["outputs"],
    )
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
    hp = HyperParams(**payload["hyper"])
    return Checkpoint(spec=spec, params=params, hp=hp,
                      seed=payload["seed"], val_metrics=payload["val_metrics"])
