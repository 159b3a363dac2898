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
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

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
# range rules; `[explain] repeats` defaults to `explain.REPEATS`.
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
        try:
            raw_text = path.read_text(encoding="utf-8")
            parser.read_string(raw_text)
        except (UnicodeDecodeError, configparser.Error) as exc:
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

# `ARTIFACTS` holds each file a stage writes: its stage, a CSV's columns or an
# NDJSON line's encoder, and, for the seven files read back, the record parser.
# `write_artifact` writes each CSV and NDJSON file as the provenance line and
# then its rows; the JSON files keep their writers (`FittedFeaturizer.to_json`,
# `models.save_checkpoint`). `label` is the one stage that reads the cohort and
# applies its rules, and it sets the one patient order: included stays by
# increasing `patient_id`. Every per-patient artifact keeps it (`labels.csv`
# diagnosis by diagnosis within a patient, `splits.csv` split by split), and
# `read_artifact` rejects a record out of place. `label` writes two NDJSON files:
# - `included_stays.ndjson`: `patient_id`, the `image_refs` of the study
#   nearest onset, and the chart `reviews` as parsed, for `split` and later.
# - `window_values.ndjson`: `patient_id` and `window`, each variable the stay
#   records mapped to its latest in-window value or null, for `featurize`.

INCLUDED_STAYS = "included_stays.ndjson"
WINDOW_VALUES = "window_values.ndjson"
CHECKPOINT = "checkpoint_{}_split{}.json"  # family, split index

_compact_json = json.JSONEncoder(separators=(",", ":")).encode
_sorted_json = json.JSONEncoder(sort_keys=True).encode
_WINDOW_VALUE_TYPES = (str, int, float, type(None))
_FLOAT_MAX = sys.float_info.max


class IncludedStay(NamedTuple):
    patient_id: str
    image_refs: tuple[str, ...]
    reviews: tuple[labels.ChartReview, ...]


class Artifact(NamedTuple):
    stage: str  # the stage that writes the file
    layout: tuple[str, ...] | Callable | None = None  # a CSV's columns, or an NDJSON row's encoder to one line
    parse: Optional[Callable] = None  # (key, value) of a record; of a `.json` file, its value from the path


def _encode_included(stay: IncludedStay) -> str:
    reviews = [{"reviewer_id": r.reviewer_id, "scores": r.scores} for r in stay.reviews]
    return _compact_json({"patient_id": stay.patient_id, "image_refs": stay.image_refs, "reviews": reviews})


def _included_stay(record: dict) -> tuple[str, IncludedStay]:
    refs, reviews = cohort.image_refs(record["image_refs"], "the selected study"), record["reviews"]
    if type(reviews) is not list:
        raise ValueError("reviews must be a list")
    reviews = tuple(labels.ChartReview(r["reviewer_id"], r["scores"]) for r in reviews)
    return record["patient_id"], IncludedStay(record["patient_id"], refs, reviews)


def _window(record: dict) -> tuple[str, tuple[str, dict[str, object]]]:
    window = record["window"]
    if type(window) is not dict or any(type(value) not in _WINDOW_VALUE_TYPES for value in window.values()):
        raise ValueError("window must map each variable to a string, a number or null")
    # `cohort.parse_stay`'s rule for an event value; it rejects NaN and infinities too
    for variable, value in window.items():
        if type(value) in (int, float) and not -_FLOAT_MAX <= value <= _FLOAT_MAX:
            raise ValueError(f"window value for {variable!r} is not finite")
    return record["patient_id"], (record["patient_id"], window)


def _label_row(row: list[str]) -> tuple[tuple[str, str], int]:
    if row[4] not in ("0", "1"):
        raise ValueError(f"label {row[4]!r} is not 0 or 1")
    return (row[0], row[1]), int(row[4])


def _split_row(row: list[str]) -> tuple[tuple[int, str], str]:
    if row[2] not in (evaluation.ROLE_TRAIN, evaluation.ROLE_VAL, evaluation.ROLE_TEST):
        raise ValueError(f"unknown role {row[2]!r}")
    return (int(row[0]), row[1]), row[2]


# Each file by name or, for the checkpoints and importance tables, by glob pattern.
ARTIFACTS = {
    "truth_labels.csv": Artifact("synth", ("patient_id", *labels.DIAGNOSES)),
    "cohort_rejects.txt": Artifact("label"),
    "labels.csv": Artifact("label", ("patient_id", "diagnosis", "chart_review", "code_med", "label", "source"),
                           _label_row),
    "agreement.csv": Artifact("label", ("diagnosis", "kappa", "raw_agreement", "n_pairs")),
    INCLUDED_STAYS: Artifact("label", _encode_included, _included_stay),
    WINDOW_VALUES: Artifact("label", lambda row: _compact_json({"patient_id": row[0], "window": row[1]}), _window),
    "featurizer.json": Artifact(
        "featurize", parse=lambda path: featurize.FittedFeaturizer.from_json(path.read_text(encoding="utf-8"))),
    # a row is a patient_id and its feature bits; the parser takes the featurizer's width
    "features.ndjson": Artifact(
        "featurize", lambda row: _sorted_json({"patient_id": row[0], "bits": featurize.pack_bits_hex(row[1])}),
        lambda record, dim: (record["patient_id"], featurize.unpack_bits_hex(record["bits"], dim))),
    "missingness.csv": Artifact("featurize", ("variable", "diagnosis", "spearman")),
    "splits.csv": Artifact("split", ("split_index", "patient_id", "role"), _split_row),
    CHECKPOINT.format("*", "*"): Artifact("train", parse=models.load_checkpoint),
    "sweep_log.csv": Artifact("train", ("family", "split", "kind", *models.HyperParams._fields, "val_macro_auroc")),
    **{f"{table}.csv": Artifact("evaluate", ("model", "split", *columns))
       for table, columns in evaluation.REPORT_COLUMNS.items()},
    "cross_split_summary.csv": Artifact("evaluate", ("model", "diagnosis", "metric", "median", "min", "max")),
    "physician_comparison.csv": Artifact(
        "evaluate", ("split", "diagnosis", "physician_auroc", "model_auroc", "n_patients")),
    "importance_*.csv": Artifact(
        "explain", ("diagnosis", "group_members", "mean_rank", "mean_drop", "per_split_drops")),
}


def _artifact(name: str) -> Artifact:
    return ARTIFACTS.get(name) or next(entry for key, entry in ARTIFACTS.items() if fnmatch.fnmatchcase(name, key))


def _malformed(cfg: RunConfig, name: str, problem: str) -> ConfigError:
    return ConfigError(f"{cfg.out_dir / name} {problem}; rerun the {_artifact(name).stage} stage")


def write_artifact(cfg: RunConfig, name: str, rows: Iterable) -> None:
    """The `.csv` or `.ndjson` artifact `name`: the provenance line, then `rows` under its columns or
    each through its encoder."""
    layout = _artifact(name).layout
    if name.endswith(".csv"):
        text = csv_text(cfg.provenance, layout, rows)
    else:
        text = "".join([f"# {cfg.provenance}\n", *(layout(row) + "\n" for row in rows)])
    atomic_write_text(cfg.out_dir / name, text)


def read_artifact(cfg: RunConfig, name: str, keys: Optional[Sequence] = None, *context) -> object:
    """The values of the artifact `name`, parsed by its `ARTIFACTS` entry. A `.json` file is one
    value. Of an `.ndjson` one, the parser takes each line's object, and of a `.csv` one, whose
    header must equal the entry's columns, each row; `context` follows the record. The parser gives
    the record's key and value, and the values come back in file order. The keys must equal `keys`
    or, without `keys`, be strictly increasing `patient_id`s. A missing or malformed file, or a
    record out of place, is a `ConfigError` (exit 2) naming the file, the line where there is one,
    and the stage that writes it."""
    stage, columns, parse = _artifact(name)
    path = _existing(cfg.out_dir / name, f"run the {stage} stage first")
    lineno, values, previous, expected = None, [], "", iter(keys or ())
    try:
        if name.endswith(".json"):
            return parse(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        if name.endswith(".csv"):
            rows = csv.reader(lines)
            header = next((row for row in rows if row and not row[0].startswith("#")), [])
            lineno = rows.line_num or None
            if tuple(header) != columns:
                raise ValueError(f"header {','.join(header)!r} is not {','.join(columns)!r}")
            records = ((rows.line_num, row) for row in rows)
        else:
            records = ((n, line) for n, line in enumerate(lines, start=1) if line and not line.startswith("#"))
        for lineno, record in records:
            if name.endswith(".ndjson"):
                record = json.loads(record)
                if type(record) is not dict:
                    raise ValueError("record is not a JSON object")
            elif len(record) != len(columns):
                raise ValueError(f"{len(record)} fields, not {len(columns)}")
            key, value = parse(record, *context) if context else parse(record)  # no argument tuple per record
            if keys is not None and key != (want := next(expected, None)):
                raise ValueError(f"found {key!r}, expected {'the end of the file' if want is None else repr(want)}")
            if keys is None and (type(key) is not str or key <= previous):
                raise ValueError(f"found {key!r}, expected a patient_id after {previous!r}")
            previous = key
            values.append(value)
        lineno = None
        if (want := next(expected, None)) is not None:
            raise ValueError(f"found the end of the file, expected {want!r}")
        return values
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError, LabelError, FeaturizeError, ModelError too
        where = "" if lineno is None else f"line {lineno} "
        reason = f"no key {exc}" if isinstance(exc, KeyError) else exc
        raise _malformed(cfg, name, f"{where}is malformed ({reason})") from exc


def label_matrix(cfg: RunConfig, patient_ids: Sequence[str]) -> np.ndarray:
    """(n, 3) `label` column of `labels.csv` for `patient_ids`, in that order."""
    values = read_artifact(cfg, "labels.csv", [(pid, d) for pid in patient_ids for d in labels.DIAGNOSES])
    return np.asarray(values, dtype=float).reshape(-1, len(labels.DIAGNOSES))


def read_checkpoint(cfg: RunConfig, family: str, split_index: int) -> models.Checkpoint:
    """The checkpoint `train` wrote for `family` and split `split_index`, which must hold a model of that family."""
    name = CHECKPOINT.format(family, split_index)
    checkpoint = read_artifact(cfg, name)
    if checkpoint.spec.kind not in models.FAMILIES[family]:
        raise _malformed(cfg, name, f"is malformed (model kind {checkpoint.spec.kind.value} is not of family {family})")
    return checkpoint


@dataclass
class PipelineData:
    """Per-patient matrices shared by train/evaluate/explain."""

    ehr: np.ndarray  # (n, d)
    emb: np.ndarray  # (m, e): every image of each patient's selected study, patient by patient
    image_counts: np.ndarray  # (n,): rows of `emb` per patient
    label_matrix: np.ndarray  # (n, 3)
    roles: np.ndarray  # (N_SPLITS, n): each patient's role in each split
    reviews: list[tuple[labels.ChartReview, ...]]  # (n,): each patient's chart reviews
    fitted: featurize.FittedFeaturizer

    def _image_starts(self) -> np.ndarray:
        return np.cumsum(self.image_counts) - self.image_counts

    def first_images(self, idx: np.ndarray) -> np.ndarray:
        """(len(idx), e): the first image of each patient's study, which training reads."""
        return self.emb[self._image_starts()[idx]]

    def images(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every image row of the patients `idx`, with per-patient counts, for `models.predict`."""
        counts = self.image_counts[idx]
        # number the result rows, then shift each patient's run of rows to its run in `emb`
        shift = np.repeat(self._image_starts()[idx] - (np.cumsum(counts) - counts), counts)
        return self.emb[np.arange(shift.size) + shift], counts

    def predict(self, checkpoint: models.Checkpoint, idx: np.ndarray) -> np.ndarray:
        """Per-patient probabilities of the patients `idx`, averaged over their images."""
        return models.predict(checkpoint.spec, checkpoint.params, self.ehr[idx], *self.images(idx))

    def split_indices(self, split_index: int, role: str) -> np.ndarray:
        """The patients with `role` in split `split_index`, in patient order."""
        return np.flatnonzero(self.roles[split_index] == role)


def assemble_data(cfg: RunConfig) -> PipelineData:
    included = read_artifact(cfg, INCLUDED_STAYS)
    patient_ids = [stay.patient_id for stay in included]
    fitted = read_artifact(cfg, "featurizer.json")
    ehr_rows = read_artifact(cfg, "features.ndjson", patient_ids, fitted.dim)
    embeddings = imaging.load_embeddings(cfg.existing_input("embeddings"))

    emb_rows = []
    for stay in included:
        for ref in stay.image_refs:
            if ref not in embeddings:
                raise ConfigError(f"image {ref} missing from the embedding file")
            emb_rows.append(embeddings[ref])
    split_keys = [(split_index, pid) for split_index in range(evaluation.N_SPLITS) for pid in patient_ids]
    return PipelineData(
        ehr=np.stack(ehr_rows).astype(float),
        emb=np.stack(emb_rows).astype(float),
        image_counts=np.asarray([len(stay.image_refs) for stay in included]),
        label_matrix=label_matrix(cfg, patient_ids),
        roles=np.asarray(read_artifact(cfg, "splits.csv", split_keys)).reshape(
            evaluation.N_SPLITS, len(patient_ids)),
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
    write_artifact(cfg, "truth_labels.csv", truth_rows)
    labels.save_ruleset(cfg.input_file("ruleset"), generated.ruleset, provenance=cfg.provenance)
    print(f"synth: wrote {len(generated.stays)} stays to {cfg.input_file('cohort')}")


def run_label(cfg: RunConfig) -> None:
    ruleset = labels.load_ruleset(cfg.existing_input("ruleset"))
    rules = cohort.CohortConfig()
    parsed = cohort.load_cohort(cfg.existing_input("cohort"), cfg.out_dir / "cohort_rejects.txt")
    stays = sorted((stay for stay in parsed if cohort.include_stay(stay, rules)), key=lambda stay: stay.patient_id)
    if not stays:
        raise cohort.CohortError(f"{cfg.input_file('cohort')} holds no includable stay")
    write_artifact(cfg, "labels.csv", (row for stay in stays for row in labels.label_rows(stay, ruleset)))
    write_artifact(cfg, "agreement.csv", labels.rater_agreement([stay.reviews for stay in stays]))
    write_artifact(cfg, INCLUDED_STAYS, (IncludedStay(stay.patient_id, cohort.select_study(stay).image_refs,
                                                      tuple(stay.reviews)) for stay in stays))
    write_artifact(cfg, WINDOW_VALUES, ((stay.patient_id, cohort.window_values(stay)) for stay in stays))
    print(f"label: wrote labels for {len(stays)} patients")


def run_featurize(cfg: RunConfig) -> None:
    windows = read_artifact(cfg, WINDOW_VALUES)
    if not windows:
        raise _malformed(cfg, WINDOW_VALUES, "holds no stay")  # `label` writes at least one
    ids = [pid for pid, _ in windows]
    diagnosis_labels = label_matrix(cfg, ids)
    rows = [window for _, window in windows]
    fitted = featurize.fit(rows, featurize.infer_config(rows))
    feature_bits = featurize.encode_rows(rows, fitted)

    atomic_write_text(cfg.out_dir / "featurizer.json", fitted.to_json(provenance=cfg.provenance) + "\n")
    write_artifact(cfg, "features.ndjson", zip(ids, feature_bits))
    correlations = featurize.missingness_correlation(feature_bits, diagnosis_labels, fitted, labels.DIAGNOSES)
    missing_rows = [
        [var, diag, correlations[(var, diag)]]
        for var in fitted.config.variables
        for diag in labels.DIAGNOSES
    ]
    write_artifact(cfg, "missingness.csv", missing_rows)
    print(f"featurize: {len(ids)} patients encoded to {fitted.dim} bits")


def run_split(cfg: RunConfig) -> None:
    ids = [stay.patient_id for stay in read_artifact(cfg, INCLUDED_STAYS)]
    roles = evaluation.make_splits(len(ids), stage_seed(cfg.seed, "split"))
    split_indices = np.repeat(np.arange(len(roles)), len(ids)).tolist()
    write_artifact(cfg, "splits.csv", zip(split_indices, ids * len(roles), roles.ravel().tolist()))
    print(f"split: wrote {len(roles)} splits over {len(ids)} patients")


def run_train(cfg: RunConfig) -> None:
    data = assemble_data(cfg)

    def dataset(idx: np.ndarray) -> models.ArrayDataset:
        return models.ArrayDataset(labels=data.label_matrix[idx], ehr=data.ehr[idx], emb=data.first_images(idx))

    results = []
    for family in cfg.families():
        for split_index in range(evaluation.N_SPLITS):
            seed = stage_seed(cfg.seed, f"train/{family}/split{split_index}")
            result = models.sweep(
                family, cfg.grid, dataset(data.split_indices(split_index, evaluation.ROLE_TRAIN)),
                dataset(data.split_indices(split_index, evaluation.ROLE_VAL)), seed=seed,
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
    write_artifact(cfg, "sweep_log.csv", log_rows)
    print(f"train: wrote {len(results)} checkpoints")


def run_evaluate(cfg: RunConfig) -> None:
    data = assemble_data(cfg)
    families = cfg.families()
    tables: dict[str, list[list]] = {table: [] for table in evaluation.REPORT_COLUMNS}
    summary_values: dict[tuple[str, str, str], list[Optional[float]]] = {}
    comparison_rows = []

    for family in families:
        for split_index in range(evaluation.N_SPLITS):
            checkpoint = read_checkpoint(cfg, family, split_index)
            test_idx = data.split_indices(split_index, evaluation.ROLE_TEST)
            val_idx = data.split_indices(split_index, evaluation.ROLE_VAL)
            test_probs = data.predict(checkpoint, test_idx)
            report = evaluation.metrics_report(
                test_probs, data.label_matrix[test_idx], data.predict(checkpoint, val_idx), data.label_matrix[val_idx]
            )
            for table, rows in report.items():
                tables[table].extend([family, split_index, *row] for row in rows)
            for diag, metric, value in report["metrics"]:
                if metric in evaluation.SUMMARIZED:
                    summary_values.setdefault((family, diag, metric), []).append(value)
            if family == "combined":
                rng = np.random.default_rng(stage_seed(cfg.seed, f"physician/split{split_index}"))
                comparison = evaluation.physician_comparison([data.reviews[i] for i in test_idx], test_probs, rng)
                comparison_rows.extend([split_index, *row] for row in comparison)

    for table, rows in tables.items():
        write_artifact(cfg, f"{table}.csv", rows)
    summary_rows = ([family, diag, metric, *evaluation.summarize_splits(values)]
                    for (family, diag, metric), values in sorted(summary_values.items()))
    write_artifact(cfg, "cross_split_summary.csv", summary_rows)
    write_artifact(cfg, "physician_comparison.csv", comparison_rows)
    print(f"evaluate: wrote metrics for families {', '.join(families)}")


def run_explain(cfg: RunConfig) -> None:
    data = assemble_data(cfg)
    repeats = cfg.settings["explain"].get("repeats", explain.REPEATS)

    # groups come from the full cohort so every split ranks the same partition
    signals = explain.variable_signal(data.ehr, data.fitted)
    groups = explain.correlation_groups(signals, data.fitted.config.variables)

    for family in [f for f in ("ehr", "combined") if f in cfg.families()]:
        # per split, one {group: drop} per diagnosis (None where it is single-class),
        # all three from one permutation stream
        per_split = []
        for split_index in range(evaluation.N_SPLITS):
            test_idx = data.split_indices(split_index, evaluation.ROLE_TEST)
            checkpoint = read_checkpoint(cfg, family, split_index)
            emb, image_counts = data.images(test_idx)

            def predict(features: np.ndarray) -> np.ndarray:
                return models.predict(checkpoint.spec, checkpoint.params, features, emb, image_counts)

            rng = np.random.default_rng(stage_seed(cfg.seed, f"explain/{family}/split{split_index}"))
            per_split.append(explain.permutation_importance(
                predict, data.ehr[test_idx], data.label_matrix[test_idx], groups, data.fitted, rng, repeats=repeats,
            ))
        # `zip(*per_split)` gives each diagnosis its drops in every split
        rows = ([diag, *row] for diag, drops in zip(labels.DIAGNOSES, zip(*per_split))
                for row in explain.aggregate_ranks(groups, drops))
        write_artifact(cfg, f"importance_{family}.csv", rows)
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
