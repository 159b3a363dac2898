"""Pipeline front end: synth, label, featurize, split, train, evaluate, explain.

Every stage reads file artifacts and writes new ones; nothing mutates its
inputs. Randomness derives from one top-level seed by hashing the stage name
into it, so any stage reruns reproducibly on its own. Config is an INI-style
key=value file of the keys in `CONFIG_KEYS`; command-line flags override file
values which override defaults. Exit codes: 1 for pipeline-rule errors, 2 for
config/IO problems: an unknown config key, a value that does not parse or is out
of range, or a missing or malformed artifact (`read_artifact`). A config is
checked whole before any stage runs.
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
import fnmatch
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


# --- per-run artifacts -------------------------------------------------------

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
CHECKPOINT = "checkpoint_{}_split{}.json"  # family, split index

# The stage that writes each artifact a later stage reads, by name or, for the
# checkpoints, by glob pattern.
WRITTEN_BY = {
    "labels.csv": "label",
    INCLUDED_STAYS: "label",
    WINDOW_VALUES: "label",
    "featurizer.json": "featurize",
    "features.ndjson": "featurize",
    "splits.csv": "split",
    CHECKPOINT.format("*", "*"): "train",
}

# The header of each CSV artifact a later stage reads; its parsers take fields by these positions.
COLUMNS = {
    "labels.csv": ("patient_id", "diagnosis", "chart_review", "code_med", "label", "source"),
    "splits.csv": ("split_index", "patient_id", "role"),
}

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


def _written_by(name: str) -> str:
    return next(stage for pattern, stage in WRITTEN_BY.items() if fnmatch.fnmatchcase(name, pattern))


def _malformed(cfg: RunConfig, name: str, problem: str) -> ConfigError:
    return ConfigError(f"{cfg.out_dir / name} {problem}; rerun the {_written_by(name)} stage")


def read_artifact(cfg: RunConfig, name: str, parse: Callable) -> object:
    """`parse(path)` of the `.json` artifact `name`. Of an `.ndjson` one, `parse(record)`
    of each line's object, by patient, one line per patient; of a `.csv` one, whose header
    must equal `COLUMNS[name]`, the list of `parse(row)` of each patient's rows, by patient.
    Patients keep file order. A missing or malformed file is a `ConfigError` (exit 2)
    naming it, the line where there is one, and the stage that writes it."""
    path = _existing(cfg.out_dir / name, f"run the {_written_by(name)} stage first")
    lineno, out = None, {}
    try:
        if name.endswith(".json"):
            return parse(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        if name.endswith(".csv"):
            rows = csv.reader(lines)
            columns = COLUMNS[name]
            header = next((row for row in rows if row and not row[0].startswith("#")), [])
            lineno = rows.line_num or None
            if tuple(header) != columns:
                raise ValueError(f"header {','.join(header)!r} is not {','.join(columns)!r}")
            patient = columns.index("patient_id")
            for row in rows:
                lineno = rows.line_num
                if len(row) != len(columns):
                    raise ValueError(f"{len(row)} fields, not {len(columns)}")
                out.setdefault(row[patient], []).append(parse(row))
            return out
        for lineno, line in enumerate(lines, start=1):
            if not line or line.startswith("#"):
                continue
            record = json.loads(line)
            if type(record) is not dict:
                raise ValueError("record is not a JSON object")
            patient_id = record["patient_id"]
            if type(patient_id) is not str or not patient_id:
                raise ValueError("patient_id missing or empty")
            if patient_id in out:
                raise _malformed(cfg, name, f"line {lineno} repeats patient {patient_id!r}")
            out[patient_id] = parse(record)
        return out
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError, LabelError, FeaturizeError, ModelError too
        where = "" if lineno is None else f"line {lineno} "
        reason = f"no key {exc}" if isinstance(exc, KeyError) else exc
        raise _malformed(cfg, name, f"{where}is malformed ({reason})") from exc


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


def read_included(cfg: RunConfig) -> list[IncludedStay]:
    """The included stays `label` wrote."""
    return list(read_artifact(cfg, INCLUDED_STAYS, _included_stay).values())


def _label_row(row: list[str]) -> tuple[int, int]:
    diagnosis, label = row[1], row[4]
    if diagnosis not in labels.DIAGNOSES:
        raise ValueError(f"unknown diagnosis {diagnosis!r}")
    if label not in ("0", "1"):
        raise ValueError(f"label {label!r} is not 0 or 1")
    return labels.DIAGNOSES.index(diagnosis), int(label)


def _split_row(row: list[str]) -> tuple[int, str]:
    split_index, role = int(row[0]), row[2]
    if split_index not in range(evaluation.N_SPLITS):
        raise ValueError(f"split index {split_index} is outside 0 to {evaluation.N_SPLITS - 1}")
    if role not in (evaluation.ROLE_TRAIN, evaluation.ROLE_VAL, evaluation.ROLE_TEST):
        raise ValueError(f"unknown role {role!r}")
    return split_index, role


def _per_patient(cfg: RunConfig, name: str, parse: Callable[[list[str]], tuple[int, object]],
                 patient_ids: Sequence[str], keys: Sequence) -> list[list]:
    """Row i: the values of patient `patient_ids[i]` in the CSV artifact `name`,
    where `parse` gives each file row's position in `keys` and its value. Each
    patient has exactly one row per key, and no other patient appears."""
    by_patient = read_artifact(cfg, name, parse)
    table = []
    for pid in patient_ids:
        cells = sorted(by_patient.pop(pid, ()))
        if [k for k, _ in cells] != list(range(len(keys))):
            problem = (f"needs one row for each of {', '.join(map(str, keys))}" if cells
                       else f"missing from the {_written_by(name)} file")
            raise _malformed(cfg, name, f"is malformed (patient {pid} {problem})")
        table.append([value for _, value in cells])
    if by_patient:
        raise _malformed(cfg, name, f"is malformed (patient {next(iter(by_patient))} is not an included stay)")
    return table


def label_matrix(cfg: RunConfig, patient_ids: Sequence[str]) -> np.ndarray:
    """(n, 3) `label` column of `labels.csv` for `patient_ids`, in that order."""
    return np.asarray(_per_patient(cfg, "labels.csv", _label_row, patient_ids, labels.DIAGNOSES), dtype=float)


@dataclass
class PipelineData:
    """Per-patient matrices shared by train/evaluate/explain."""

    patient_ids: list[str]
    ehr: np.ndarray  # (n, d)
    emb: np.ndarray  # (m, e): every image of each patient's selected study, patient by patient
    image_counts: np.ndarray  # (n,): rows of `emb` per patient
    label_matrix: np.ndarray  # (n, 3)
    roles: np.ndarray  # (n, N_SPLITS): each patient's role in each split
    reviews: list[tuple[labels.ChartReview, ...]]  # (n,): each patient's chart reviews
    fitted: featurize.FittedFeaturizer

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

    def split_indices(self, split_index: int, role: str) -> np.ndarray:
        """The patients with `role` in split `split_index`, in patient order."""
        return np.flatnonzero(self.roles[:, split_index] == role)


def assemble_data(cfg: RunConfig) -> PipelineData:
    included = read_included(cfg)
    patient_ids = [stay.patient_id for stay in included]
    fitted = read_artifact(cfg, "featurizer.json",
                           lambda path: featurize.FittedFeaturizer.from_json(path.read_text(encoding="utf-8")))
    features = read_artifact(cfg, "features.ndjson", lambda record: featurize.unpack_bits_hex(record["bits"], fitted.dim))
    embeddings = imaging.load_embeddings(cfg.existing_input("embeddings"))

    ehr_rows = []
    emb_rows = []
    for stay in included:
        if stay.patient_id not in features:
            raise _malformed(cfg, "features.ndjson", f"is malformed (patient {stay.patient_id} missing from the file)")
        for ref in stay.image_refs:
            if ref not in embeddings:
                raise ConfigError(f"image {ref} missing from the embedding file")
            emb_rows.append(embeddings[ref])
        ehr_rows.append(features[stay.patient_id].astype(float))
    return PipelineData(
        patient_ids=patient_ids,
        ehr=np.stack(ehr_rows),
        emb=np.stack(emb_rows).astype(float),
        image_counts=np.asarray([len(stay.image_refs) for stay in included]),
        label_matrix=label_matrix(cfg, patient_ids),
        roles=np.asarray(_per_patient(cfg, "splits.csv", _split_row, patient_ids, range(evaluation.N_SPLITS))),
        reviews=[stay.reviews for stay in included],
        fitted=fitted,
    )


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
            chart_label = None if chart is None else int(chart[diag])
            rows.append([stay.patient_id, diag, chart_label, int(codemed[diag]), int(used[diag]), used.source])
    cfg.write_csv("labels", COLUMNS["labels.csv"], rows)

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
    windows = read_artifact(cfg, WINDOW_VALUES, _window)
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
    cfg.write_csv("splits", COLUMNS["splits.csv"], rows)
    print(f"split: wrote {len(splits)} splits over {len(ids)} patients")


def run_train(cfg: RunConfig) -> None:
    data = assemble_data(cfg)

    def dataset(idx: np.ndarray) -> models.ArrayDataset:
        return models.ArrayDataset(labels=data.label_matrix[idx], ehr=data.ehr[idx], emb=data.first_images(idx))

    results = []
    for family in cfg.families():
        for split_index in range(evaluation.N_SPLITS):
            seed = stage_seed(cfg.seed, f"train/{family}/split{split_index}")
            result = models.sweep(
                family, cfg.grid,
                dataset(data.split_indices(split_index, evaluation.ROLE_TRAIN)),
                dataset(data.split_indices(split_index, evaluation.ROLE_VAL)),
                seed=seed, ehr_dim=data.ehr.shape[1], emb_dim=data.emb.shape[1],
            )
            results.append((family, split_index, seed, result))

    log_rows = []
    for family, split_index, seed, result in results:
        models.save_checkpoint(
            cfg.out_dir / CHECKPOINT.format(family, split_index), result.spec, result.params, result.hp,
            cfg.grid.max_epochs, seed=seed, provenance=cfg.provenance,
            val_metrics={"macro_auroc": result.val_auroc, "best_epoch": result.history.best_epoch},
        )
        log_rows.extend([family, split_index, run.spec.kind.value, *run.hp, run.val_auroc] for run in result.runs)
    cfg.write_csv("sweep_log", ("family", "split", "kind", *models.HyperParams._fields, "val_macro_auroc"), log_rows)
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
    families = cfg.families()
    metric_rows = []
    bin_rows = []
    roc_rows = []
    recal_rows = []
    comparison_rows = []
    summary_values: dict[tuple[str, str, str], list[Optional[float]]] = {}

    for family in families:
        for split_index in range(evaluation.N_SPLITS):
            checkpoint = read_artifact(cfg, CHECKPOINT.format(family, split_index), models.load_checkpoint)
            test_idx = data.split_indices(split_index, evaluation.ROLE_TEST)
            val_idx = data.split_indices(split_index, evaluation.ROLE_VAL)
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
    repeats = cfg.settings["explain"].get("repeats", 10)

    # groups come from the full cohort so every split ranks the same partition
    signals = explain.variable_signal(data.ehr, data.fitted)
    groups = explain.correlation_groups(signals, data.fitted.config.variables)

    for family in [f for f in ("ehr", "combined") if f in cfg.families()]:
        # per split, one {group: drop} per diagnosis (None where it is single-class),
        # all three from one permutation stream
        per_split = []
        for split_index in range(evaluation.N_SPLITS):
            test_idx = data.split_indices(split_index, evaluation.ROLE_TEST)
            checkpoint = read_artifact(cfg, CHECKPOINT.format(family, split_index), models.load_checkpoint)
            emb, image_counts = data.images(test_idx)

            def predict(features: np.ndarray) -> np.ndarray:
                return models.predict(checkpoint.spec, checkpoint.params, features, emb, image_counts)

            rng = np.random.default_rng(stage_seed(cfg.seed, f"explain/{family}/split{split_index}"))
            per_split.append(explain.permutation_importance(
                predict, data.ehr[test_idx], data.label_matrix[test_idx], groups, data.fitted, rng, repeats=repeats,
            ))
        report_rows = []
        for d_idx, diag in enumerate(labels.DIAGNOSES):
            per_split_drops = [drops[d_idx] for drops in per_split]
            if any(d is None for d in per_split_drops):
                report_rows.append([diag, "(single-class split; importance undefined)", None, None, None])
                continue
            report = explain.aggregate_ranks(groups, per_split_drops)
            for gid in report.ranking:
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
