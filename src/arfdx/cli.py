"""Pipeline front end: synth, label, featurize, split, train, evaluate, explain.

Every stage reads file artifacts and writes new ones; nothing mutates its
inputs. Randomness derives from one top-level seed by hashing the stage name
into it, so any stage reruns reproducibly on its own. Config is an INI-style
key=value file of the keys in `CONFIG_KEYS`; command-line flags override file
values which override defaults. Exit codes: 1 for pipeline-rule errors, 2 for
config/IO problems, including an unknown config key or a value that does not
parse or is out of range; a config is checked whole before any stage runs.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # Set before anything loads numpy: OpenBLAS reads it once, at load. Every
    # product in a stage is a few thousand rows by at most about 100 columns,
    # too small for a second OpenBLAS thread to pay; it spins between products
    # instead. A value the caller set is kept, and a plain import changes nothing.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import configparser
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__, cohort, evaluation, explain, featurize, imaging, labels, models, synth
from ._util import atomic_write_text, config_hash, csv_text, stage_seed

EXIT_OK = 0
EXIT_MODULE_ERROR = 1
EXIT_CONFIG_ERROR = 2

MODULE_ERRORS = (
    cohort.CohortError,
    labels.LabelError,
    featurize.FeaturizeError,
    imaging.ImagingError,
    models.ModelError,
    evaluation.EvalError,
    explain.ExplainError,
)

STAGES = ("synth", "label", "featurize", "split", "train", "evaluate", "explain")


class ConfigError(Exception):
    pass


def _names(raw: str) -> tuple[str, ...]:
    return tuple(raw.replace(",", " ").split())


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in _names(raw))


def _families(raw: str) -> tuple[str, ...]:
    families = _names(raw)
    if not families:
        raise ValueError("names no model family")
    for family in families:
        if family not in models.FAMILIES:
            raise ValueError(f"unknown model family {family!r}; the families are {', '.join(models.FAMILIES)}")
    return families


def _positive(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise ValueError(f"{value} is not positive")
    return value


# Every key a config may set, with the parser of its value. The paper fixes
# the cohort rules, `featurize.RANGE_BINS`, `explain.GROUPING_THRESHOLD` and
# `evaluation.N_SPLITS`, so none of them is a setting. `[synth]` and `[sweep]`
# keys are `SynthSpec` and `SweepGrid` fields, which hold their defaults and
# range rules.
CONFIG_KEYS: dict[str, dict[str, Callable[[str], object]]] = {
    "run": {"seed": int},
    "paths": {"out_dir": Path, "cohort": Path, "embeddings": Path, "ruleset": Path},
    "synth": {"n_patients": int, "n_numeric_vars": int, "emb_dim": int},
    "train": {"families": _families},
    "sweep": {"learning_rates": _floats, "momentums": _floats, "weight_decays": _floats, "max_epochs": int},
    "explain": {"repeats": _positive},
}

# Every artifact has a fixed name in the output directory; `[paths]` may put
# only these three inputs elsewhere.
INPUT_FILES = {"cohort": "cohort.ndjson", "embeddings": "embeddings.bin", "ruleset": "ruleset.json"}


def _existing(path: Path, hint: str) -> Path:
    if not path.exists():
        raise ConfigError(f"required input {path} does not exist ({hint})")
    return path


@dataclass
class RunConfig:
    out_dir: Path
    seed: int
    provenance: str
    settings: dict[str, dict[str, object]]  # section -> the parsed values the config sets
    synth: synth.SynthSpec
    grid: models.SweepGrid

    def input_file(self, key: str) -> Path:
        """The input `[paths] key` names, relative to the output directory, or its default name there."""
        return self.out_dir / self.settings["paths"].get(key, INPUT_FILES[key])

    def existing_input(self, key: str) -> Path:
        return _existing(self.input_file(key), f"set [paths] {key}")

    def artifact(self, name: str, written_by: str) -> Path:
        """The existing artifact `name` of the output directory, which `written_by` writes."""
        return _existing(self.out_dir / name, f"run the {written_by} stage first")

    def write_csv(self, name: str, columns: Sequence[str], rows) -> None:
        """The artifact `<name>.csv`, under this run's provenance line."""
        atomic_write_text(self.out_dir / f"{name}.csv", csv_text(self.provenance, columns, rows))

    def families(self) -> tuple[str, ...]:
        return self.settings["train"].get("families", tuple(models.FAMILIES))


def _unknown(what: str, section: str) -> ConfigError:
    known = CONFIG_KEYS.get(section)
    hint = f"[{section}] accepts {', '.join(known)}" if known else f"the sections are {', '.join(CONFIG_KEYS)}"
    return ConfigError(f"unknown {what}; {hint}")


def load_config(config_path: Optional[str], seed_flag: Optional[int], out_flag: Optional[str]) -> RunConfig:
    # No section holds defaults, so `[DEFAULT]` is an unknown section like any other.
    parser = configparser.ConfigParser(default_section="")
    raw_text = ""
    if config_path is not None:
        path = Path(config_path)
        if not path.exists():
            raise ConfigError(f"config file {path} does not exist")
        raw_text = path.read_text(encoding="utf-8")
        try:
            parser.read_string(raw_text)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    settings: dict[str, dict[str, object]] = {section: {} for section in CONFIG_KEYS}
    for section in parser.sections():
        for key in parser[section]:
            parse = CONFIG_KEYS.get(section, {}).get(key)
            if parse is None:
                raise _unknown(f"key [{section}] {key}", section)
            try:
                settings[section][key] = parse(parser.get(section, key))
            except (ValueError, configparser.Error) as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from exc
        if section not in CONFIG_KEYS:
            raise _unknown(f"section [{section}]", section)
    # precedence: flags > config file > defaults
    seed = seed_flag if seed_flag is not None else settings["run"].get("seed", 0)
    out_dir = Path(out_flag) if out_flag is not None else settings["paths"].get("out_dir", Path("out"))

    def build(section: str, make: Callable[..., object]):
        # `SynthSpec` and `SweepGrid` errors begin with the field at fault, which is the key
        try:
            return make(**settings[section])
        except ValueError as exc:  # ModelError too
            raise ConfigError(f"[{section}] {exc}") from exc

    synth_spec = build("synth", lambda **fields: synth.SynthSpec(**fields, seed=stage_seed(seed, "synth")))
    grid = build("sweep", models.SweepGrid)
    # the output location does not affect results, so it stays out of the hash
    digest = config_hash(raw_text + f"|seed={seed}")
    provenance = f"arfdx {__version__} seed={seed} config={digest}"
    return RunConfig(out_dir=out_dir, seed=seed, provenance=provenance, settings=settings, synth=synth_spec, grid=grid)


# --- shared artifact loading ---------------------------------------------------

# `label` is the one stage that reads the cohort and applies its rules. Besides
# `labels.csv` it writes two NDJSON files, each the provenance line and then
# one compact JSON object per included stay, in cohort order:
# - `included_stays.ndjson`: `patient_id`, the `image_refs` of the study
#   nearest onset, and the chart `reviews` as parsed. `split`, `train`,
#   `evaluate` and `explain` read it.
# - `window_values.ndjson`: `patient_id` and `window`, each variable the stay
#   records mapped to its latest in-window value or null. `featurize` reads it.

INCLUDED_STAYS = "included_stays.ndjson"
WINDOW_VALUES = "window_values.ndjson"
_compact_json = json.JSONEncoder(separators=(",", ":")).encode
_WINDOW_VALUE_TYPES = (str, int, float, type(None))


@dataclass(frozen=True)
class IncludedStay:
    patient_id: str
    image_refs: tuple[str, ...]
    reviews: tuple[labels.ChartReview, ...]


def write_included(cfg: RunConfig, stays: Sequence[cohort.PatientStay]) -> None:
    header = f"# {cfg.provenance}\n"
    included, windows = [header], [header]
    for stay in stays:
        reviews = [{"reviewer_id": r.reviewer_id, "scores": r.scores} for r in stay.reviews]
        record = {"patient_id": stay.patient_id, "image_refs": cohort.select_study(stay).image_refs, "reviews": reviews}
        window = {"patient_id": stay.patient_id, "window": cohort.window_values(stay)}
        included.append(_compact_json(record) + "\n")
        windows.append(_compact_json(window) + "\n")
    atomic_write_text(cfg.out_dir / INCLUDED_STAYS, "".join(included))
    atomic_write_text(cfg.out_dir / WINDOW_VALUES, "".join(windows))


def _included_stay(record: dict) -> IncludedStay:
    refs, reviews = record["image_refs"], record["reviews"]
    if type(refs) is not list or not refs or any(type(ref) is not str for ref in refs):
        raise ValueError("image_refs must be a non-empty list of strings")
    if type(reviews) is not list:
        raise ValueError("reviews must be a list")
    return IncludedStay(
        record["patient_id"], tuple(refs),
        tuple(labels.ChartReview(r["reviewer_id"], dict(r["scores"])) for r in reviews),
    )


def _window(record: dict) -> dict[str, object]:
    window = record["window"]
    if type(window) is not dict or any(type(value) not in _WINDOW_VALUE_TYPES for value in window.values()):
        raise ValueError("window must map each variable to a string, a number or null")
    return window


def read_per_stay(cfg: RunConfig, name: str, written_by: str, parse: Callable[[dict], object]) -> dict[str, object]:
    """`parse` of each record of the per-stay file `name`, by patient, in file
    order; `ConfigError` (exit 2) if the file is missing or malformed."""
    path = cfg.artifact(name, written_by)
    out: dict[str, object] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line or line.startswith("#"):
            continue
        try:
            record = json.loads(line)
            if type(record) is not dict:
                raise ValueError("record is not a JSON object")
            patient_id = record["patient_id"]
            if type(patient_id) is not str or not patient_id:
                raise ValueError("patient_id missing or empty")
            value = parse(record)
        except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError, LabelError, FeaturizeError too
            raise ConfigError(f"{path} line {lineno} is malformed ({exc}); rerun the {written_by} stage") from exc
        if patient_id in out:
            raise ConfigError(f"{path} line {lineno} repeats patient {patient_id!r}; rerun the {written_by} stage")
        out[patient_id] = value
    return out


def read_included(cfg: RunConfig) -> list[IncludedStay]:
    """The included stays `label` wrote."""
    return list(read_per_stay(cfg, INCLUDED_STAYS, "label", _included_stay).values())


def read_csv_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    header: list[str] = []
    rows: list[list[str]] = []
    with path.open("r", encoding="utf-8", newline="") as handle:
        for row in csv.reader(handle):
            if not row or row[0].startswith("#"):
                continue
            if not header:
                header = row
            else:
                rows.append(row)
    return header, rows


def load_labels_csv(path: Path) -> dict[str, dict[str, int]]:
    header, rows = read_csv_rows(path)
    idx = {name: header.index(name) for name in ("patient_id", "diagnosis", "label")}
    out: dict[str, dict[str, int]] = {}
    for row in rows:
        out.setdefault(row[idx["patient_id"]], {})[row[idx["diagnosis"]]] = int(row[idx["label"]])
    return out


def load_splits_csv(path: Path) -> list[evaluation.SplitAssignment]:
    header, rows = read_csv_rows(path)
    idx = {name: header.index(name) for name in ("split_index", "patient_id", "role")}
    by_split: dict[int, dict[str, str]] = {}
    for row in rows:
        by_split.setdefault(int(row[idx["split_index"]]), {})[row[idx["patient_id"]]] = row[idx["role"]]
    return [
        evaluation.SplitAssignment(split_index=k, roles=by_split[k]) for k in sorted(by_split)
    ]


def load_fitted_featurizer(cfg: RunConfig) -> featurize.FittedFeaturizer:
    path = cfg.artifact("featurizer.json", "featurize")
    return featurize.FittedFeaturizer.from_json(path.read_text(encoding="utf-8"))


def label_matrix(cfg: RunConfig, patient_ids: Sequence[str]) -> np.ndarray:
    """(n, 3) `label` column of `labels.csv` for `patient_ids`, in that order."""
    label_map = load_labels_csv(cfg.artifact("labels.csv", "label"))
    rows = []
    for pid in patient_ids:
        if pid not in label_map:
            raise ConfigError(f"patient {pid} missing from the label file")
        rows.append([label_map[pid][d] for d in labels.DIAGNOSES])
    return np.asarray(rows, dtype=float)


@dataclass
class PipelineData:
    """Per-patient matrices shared by train/evaluate/explain."""

    patient_ids: list[str]
    ehr: np.ndarray  # (n, d)
    emb: np.ndarray  # (m, e): every image of each patient's selected study, patient by patient
    image_counts: np.ndarray  # (n,): rows of `emb` per patient
    label_matrix: np.ndarray  # (n, 3)
    reviews: list[tuple[labels.ChartReview, ...]]  # (n,): each patient's chart reviews

    def _image_starts(self) -> np.ndarray:
        return np.cumsum(self.image_counts) - self.image_counts

    def first_images(self, idx: np.ndarray) -> np.ndarray:
        """(len(idx), e): the first image of each patient's study, which training reads."""
        return self.emb[self._image_starts()[idx]]

    def images(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every image row of the patients `idx`, with per-patient counts, for `models.predict`."""
        starts = self._image_starts()
        rows = [np.arange(starts[i], starts[i] + self.image_counts[i]) for i in idx]
        return self.emb[np.concatenate(rows)], self.image_counts[idx]

    def predict(self, checkpoint: models.Checkpoint, idx: np.ndarray) -> np.ndarray:
        """Per-patient probabilities of the patients `idx`, averaged over their images."""
        return models.predict(checkpoint.spec, checkpoint.params, self.ehr[idx], *self.images(idx))


def assemble_data(cfg: RunConfig) -> PipelineData:
    included = read_included(cfg)
    patient_ids = [stay.patient_id for stay in included]
    fitted = load_fitted_featurizer(cfg)
    features = read_per_stay(
        cfg, "features.ndjson", "featurize", lambda record: featurize.unpack_bits_hex(record["bits"], fitted.dim)
    )
    embeddings = imaging.load_embeddings(cfg.existing_input("embeddings"))

    ehr_rows = []
    emb_rows = []
    for stay in included:
        if stay.patient_id not in features:
            raise ConfigError(f"patient {stay.patient_id} missing from the feature file")
        for ref in stay.image_refs:
            if ref not in embeddings:
                raise ConfigError(f"image {ref} missing from the embedding file")
            emb_rows.append(embeddings[ref].vector)
        ehr_rows.append(features[stay.patient_id].astype(float))
    return PipelineData(
        patient_ids=patient_ids,
        ehr=np.stack(ehr_rows),
        emb=np.stack(emb_rows).astype(float),
        image_counts=np.asarray([len(stay.image_refs) for stay in included]),
        label_matrix=label_matrix(cfg, patient_ids),
        reviews=[stay.reviews for stay in included],
    )


def split_indices(data: PipelineData, assignment: evaluation.SplitAssignment, role: str) -> np.ndarray:
    wanted = [i for i, pid in enumerate(data.patient_ids) if assignment.roles.get(pid) == role]
    return np.asarray(wanted, dtype=int)


def checkpoint_path(cfg: RunConfig, family: str, split_index: int) -> Path:
    return cfg.out_dir / f"checkpoint_{family}_split{split_index}.json"


def load_trained_checkpoint(cfg: RunConfig, family: str, split_index: int) -> models.Checkpoint:
    path = checkpoint_path(cfg, family, split_index)
    if not path.exists():
        raise ConfigError(f"missing checkpoint {path}; run the train stage first")
    return models.load_checkpoint(path)


# --- stages ----------------------------------------------------------------


def run_synth(cfg: RunConfig) -> None:
    generated = synth.generate(cfg.synth)
    cohort.write_cohort(cfg.input_file("cohort"), generated.stays, header=cfg.provenance)
    imaging.write_embeddings(
        cfg.input_file("embeddings"), [generated.embeddings[key] for key in sorted(generated.embeddings)]
    )
    truth_rows = ([pid] + [int(b) for b in generated.truth[pid]] for pid in sorted(generated.truth))
    cfg.write_csv("truth_labels", ("patient_id",) + labels.DIAGNOSES, truth_rows)
    labels.save_ruleset(cfg.input_file("ruleset"), generated.ruleset, provenance=cfg.provenance)
    print(f"synth: wrote {len(generated.stays)} stays to {cfg.input_file('cohort')}")


def run_label(cfg: RunConfig) -> None:
    rules = cohort.CohortConfig()
    parsed = cohort.load_cohort(cfg.existing_input("cohort"), cfg.out_dir / "cohort_rejects.txt")
    stays = [stay for stay in parsed if cohort.include_stay(stay, rules)]
    ruleset = labels.load_ruleset(cfg.existing_input("ruleset"))
    rows = []
    for stay in stays:
        chart = labels.aggregate_reviews(stay.reviews) if stay.reviews else None
        codemed = labels.code_med_label(stay, ruleset)
        used = chart if chart is not None else codemed
        for diag in labels.DIAGNOSES:
            rows.append(
                [
                    stay.patient_id,
                    diag,
                    None if chart is None else int(chart[diag]),
                    int(codemed[diag]),
                    int(used[diag]),
                    used.source,
                ]
            )
    cfg.write_csv("labels", ("patient_id", "diagnosis", "chart_review", "code_med", "label", "source"), rows)

    reviews = [stay.reviews for stay in stays]
    if any(len(r) >= 2 for r in reviews):
        agreement = labels.rater_agreement(reviews)
        agreement_rows = [[d, r.kappa, r.raw_agreement, r.n_pairs] for d, r in agreement.items()]
    else:
        agreement_rows = [[d, None, None, 0] for d in labels.DIAGNOSES]
    cfg.write_csv("agreement", ("diagnosis", "kappa", "raw_agreement", "n_pairs"), agreement_rows)
    write_included(cfg, stays)
    print(f"label: wrote labels for {len(stays)} patients")


def run_featurize(cfg: RunConfig) -> None:
    windows = read_per_stay(cfg, WINDOW_VALUES, "label", _window)
    if not windows:
        raise ConfigError("cohort file contains no includable stays")
    ids = list(windows)
    diagnosis_labels = label_matrix(cfg, ids)
    rows = list(windows.values())
    fitted = featurize.fit(rows, featurize.infer_config(rows))
    feature_bits = featurize.encode_rows(rows, fitted)

    atomic_write_text(cfg.out_dir / "featurizer.json", fitted.to_json(provenance=cfg.provenance) + "\n")
    featurize.write_features(cfg.out_dir / "features.ndjson", ids, feature_bits, header=cfg.provenance)
    correlations = featurize.missingness_correlation(feature_bits, diagnosis_labels, fitted, labels.DIAGNOSES)
    missing_rows = [
        [var, diag, correlations[(var, diag)]]
        for var in fitted.config.variables
        for diag in labels.DIAGNOSES
    ]
    cfg.write_csv("missingness", ("variable", "diagnosis", "spearman"), missing_rows)
    print(f"featurize: {len(ids)} patients encoded to {fitted.dim} bits")


def run_split(cfg: RunConfig) -> None:
    ids = [stay.patient_id for stay in read_included(cfg)]
    splits = evaluation.make_splits(ids, stage_seed(cfg.seed, "split"))
    rows = []
    for assignment in splits:
        for pid in ids:
            rows.append([assignment.split_index, pid, assignment.roles[pid]])
    cfg.write_csv("splits", ("split_index", "patient_id", "role"), rows)
    print(f"split: wrote {len(splits)} splits over {len(ids)} patients")


def run_train(cfg: RunConfig) -> None:
    data = assemble_data(cfg)
    splits = load_splits_csv(cfg.artifact("splits.csv", "split"))

    def dataset(idx: np.ndarray) -> models.ArrayDataset:
        return models.ArrayDataset(labels=data.label_matrix[idx], ehr=data.ehr[idx], emb=data.first_images(idx))

    results = []
    for family in cfg.families():
        for assignment in splits:
            seed = stage_seed(cfg.seed, f"train/{family}/split{assignment.split_index}")
            result = models.sweep(
                family, cfg.grid,
                dataset(split_indices(data, assignment, evaluation.ROLE_TRAIN)),
                dataset(split_indices(data, assignment, evaluation.ROLE_VAL)),
                seed=seed, ehr_dim=data.ehr.shape[1], emb_dim=data.emb.shape[1],
            )
            results.append((family, assignment.split_index, seed, result))

    log_rows = []
    for family, split_index, seed, result in results:
        models.save_checkpoint(
            checkpoint_path(cfg, family, split_index),
            result.spec,
            result.params,
            result.hp,
            cfg.grid.max_epochs,
            seed=seed,
            val_metrics={"macro_auroc": result.val_auroc, "best_epoch": result.history.best_epoch},
            provenance=cfg.provenance,
        )
        for run in result.runs:
            log_rows.append(
                [
                    family,
                    split_index,
                    run.spec.kind.value,
                    run.hp.learning_rate,
                    run.hp.momentum,
                    run.hp.weight_decay,
                    run.val_auroc,
                ]
            )
    cfg.write_csv(
        "sweep_log",
        ("family", "split", "kind", "learning_rate", "momentum", "weight_decay", "val_macro_auroc"),
        log_rows,
    )
    print(f"train: wrote {len(results)} checkpoints")


def physician_rows(cfg: RunConfig, data: PipelineData, split_index: int, test_idx: np.ndarray,
                   test_probs: np.ndarray) -> list[list]:
    """Held-out physician vs model on one split's test patients with 3+ reviews."""
    cases = []
    for i, probs in zip(test_idx, test_probs):
        if len(data.reviews[i]) >= 3:
            cases.append(evaluation.PhysicianCase(data.reviews[i], dict(zip(labels.DIAGNOSES, probs.tolist()))))
    if not cases:
        return []
    rng = np.random.default_rng(stage_seed(cfg.seed, f"physician/split{split_index}"))
    try:
        comparison = evaluation.physician_comparison(cases, rng)
    except evaluation.EvalError:
        return []
    return [
        [split_index, diag, comparison.physician_auroc[diag], comparison.model_auroc[diag], comparison.n_patients]
        for diag in labels.DIAGNOSES + ("macro",)
    ]


def run_evaluate(cfg: RunConfig) -> None:
    data = assemble_data(cfg)
    splits = load_splits_csv(cfg.artifact("splits.csv", "split"))
    families = cfg.families()
    metric_rows = []
    bin_rows = []
    roc_rows = []
    recal_rows = []
    comparison_rows = []
    summary_values: dict[tuple[str, str, str], list[Optional[float]]] = {}

    for family in families:
        for assignment in splits:
            split_index = assignment.split_index
            checkpoint = load_trained_checkpoint(cfg, family, split_index)
            test_idx = split_indices(data, assignment, evaluation.ROLE_TEST)
            val_idx = split_indices(data, assignment, evaluation.ROLE_VAL)
            test_probs = data.predict(checkpoint, test_idx)
            test_y = data.label_matrix[test_idx].astype(int)
            report = evaluation.metrics_report(
                test_probs, test_y, data.predict(checkpoint, val_idx), data.label_matrix[val_idx].astype(int)
            )

            for d_idx, diag in enumerate(labels.DIAGNOSES):
                cell = report.per_diagnosis[diag]
                op = cell.operating_point
                for metric, value in (
                    ("prevalence", cell.prevalence),
                    ("auroc", cell.auroc),
                    ("aupr", cell.aupr),
                    ("ece", cell.ece),
                    ("threshold", None if op is None else op.threshold),
                    ("sensitivity", None if op is None else op.sensitivity),
                    ("specificity", None if op is None else op.specificity),
                    ("dor", None if op is None else op.dor),
                    ("dor_corrected", None if op is None else float(op.corrected)),
                ):
                    metric_rows.append([family, split_index, diag, metric, value])
                    if metric in ("auroc", "aupr", "ece"):
                        summary_values.setdefault((family, diag, metric), []).append(value)
                if cell.calibration is not None:
                    for b_idx, (mean_pred, frac_pos, count) in enumerate(cell.calibration.bins):
                        bin_rows.append([family, split_index, diag, b_idx, mean_pred, frac_pos, count])
                slope, intercept = cell.recalibration if cell.recalibration else (None, None)
                recal_rows.append([family, split_index, diag, slope, intercept])
                try:
                    for fpr, tpr, thr in evaluation.roc_points(test_probs[:, d_idx], test_y[:, d_idx]):
                        roc_rows.append([family, split_index, diag, fpr, tpr, thr])
                except evaluation.SingleClass:
                    pass

            for metric, value in (
                ("auroc", report.macro_auroc),
                ("aupr", report.macro_aupr),
                ("ece", report.macro_ece),
            ):
                metric_rows.append([family, split_index, "macro", metric, value])
                summary_values.setdefault((family, "macro", metric), []).append(value)
            if family == "combined":
                comparison_rows.extend(physician_rows(cfg, data, split_index, test_idx, test_probs))

    cfg.write_csv("metrics", ("model", "split", "diagnosis", "metric", "value"), metric_rows)
    cfg.write_csv(
        "calibration_bins",
        ("model", "split", "diagnosis", "bin", "mean_prediction", "observed_fraction", "count"),
        bin_rows,
    )
    cfg.write_csv("roc_points", ("model", "split", "diagnosis", "fpr", "tpr", "threshold"), roc_rows)
    cfg.write_csv("recalibration", ("model", "split", "diagnosis", "slope", "intercept"), recal_rows)

    summary_rows = []
    for (family, diag, metric), values in sorted(summary_values.items()):
        if len(values) == evaluation.N_SPLITS and None not in values:
            median, low, high = evaluation.summarize_splits([float(v) for v in values])
            summary_rows.append([family, diag, metric, median, low, high])
        else:
            summary_rows.append([family, diag, metric, None, None, None])
    cfg.write_csv("cross_split_summary", ("model", "diagnosis", "metric", "median", "min", "max"), summary_rows)
    cfg.write_csv(
        "physician_comparison", ("split", "diagnosis", "physician_auroc", "model_auroc", "n_patients"), comparison_rows
    )
    print(f"evaluate: wrote metrics for families {', '.join(families)}")


def run_explain(cfg: RunConfig) -> None:
    data = assemble_data(cfg)
    splits = load_splits_csv(cfg.artifact("splits.csv", "split"))
    fitted = load_fitted_featurizer(cfg)
    repeats = cfg.settings["explain"].get("repeats", 10)
    feature_bits = data.ehr.astype(np.uint8)

    # groups come from the full cohort so every split ranks the same partition
    signals = explain.variable_signal(feature_bits, fitted)
    groups = explain.correlation_groups(signals, fitted.config.variables)

    for family in [f for f in ("ehr", "combined") if f in cfg.families()]:
        report_rows = []
        for d_idx, diag in enumerate(labels.DIAGNOSES):
            per_split_drops = []
            for assignment in splits:
                split_index = assignment.split_index
                checkpoint = load_trained_checkpoint(cfg, family, split_index)
                test_idx = split_indices(data, assignment, evaluation.ROLE_TEST)
                emb, image_counts = data.images(test_idx)

                def predict(bits: np.ndarray) -> np.ndarray:
                    probs = models.predict(checkpoint.spec, checkpoint.params, bits.astype(float), emb, image_counts)
                    return probs[:, d_idx]

                rng = np.random.default_rng(
                    stage_seed(cfg.seed, f"explain/{family}/split{split_index}/{diag}")
                )
                try:
                    drops = explain.permutation_importance(
                        predict, feature_bits[test_idx], data.label_matrix[test_idx, d_idx].astype(int),
                        groups, fitted, rng, repeats=repeats,
                    )
                except evaluation.SingleClass:
                    drops = None
                per_split_drops.append(drops)
            if any(d is None for d in per_split_drops):
                report_rows.append([diag, "(single-class split; importance undefined)", None, None, None])
                continue
            report = explain.aggregate_ranks(groups, per_split_drops)
            ordered = sorted(report.mean_rank, key=lambda gid: (report.mean_rank[gid], gid))
            for gid in ordered:
                report_rows.append(
                    [
                        diag,
                        gid,
                        report.mean_rank[gid],
                        report.mean_drop[gid],
                        ";".join(repr(drops[gid]) for drops in report.per_split_drops),
                    ]
                )
        cfg.write_csv(
            f"importance_{family}",
            ("diagnosis", "group_members", "mean_rank", "mean_drop", "per_split_drops"),
            report_rows,
        )
    print("explain: wrote importance reports")


STAGE_RUNNERS = {
    "synth": run_synth,
    "label": run_label,
    "featurize": run_featurize,
    "split": run_split,
    "train": run_train,
    "evaluate": run_evaluate,
    "explain": run_explain,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arfdx",
        description="Multimodal acute-respiratory-failure diagnosis pipeline",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for stage in STAGES:
        sub = subparsers.add_parser(stage, help=f"run the {stage} stage")
        sub.add_argument("--config", default=None, help="INI-style key=value config file")
        sub.add_argument("--seed", type=int, default=None, help="override the run seed")
        sub.add_argument("--out", default=None, help="override the output directory")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.seed, args.out)
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        STAGE_RUNNERS[args.command](cfg)
    except ConfigError as exc:
        print(f"error: {args.command}: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except OSError as exc:
        print(f"error: {args.command}: io: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except MODULE_ERRORS as exc:
        print(f"error: {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_MODULE_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
