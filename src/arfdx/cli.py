"""Pipeline front end: synth, label, featurize, split, train, evaluate, explain.

Every stage reads file artifacts and writes new ones; nothing mutates its
inputs. Randomness derives from one top-level seed by hashing the stage name
into it, so any stage reruns reproducibly on its own. Config is an INI-style
key=value file; command-line flags override file values which override
defaults. Exit codes: 1 for pipeline-rule errors, 2 for config/IO problems.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

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

N_SPLITS = 5


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    parser: configparser.ConfigParser
    out_dir: Path
    seed: int
    provenance: str

    def get(self, section: str, key: str, default: str) -> str:
        return self.parser.get(section, key, fallback=default)

    def get_int(self, section: str, key: str, default: int) -> int:
        try:
            return self.parser.getint(section, key, fallback=default)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} must be an integer: {exc}") from exc

    def get_float(self, section: str, key: str, default: float) -> float:
        try:
            return self.parser.getfloat(section, key, fallback=default)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} must be a number: {exc}") from exc

    def get_floats(self, section: str, key: str, default: Sequence[float]) -> tuple[float, ...]:
        raw = self.parser.get(section, key, fallback=None)
        if raw is None:
            return tuple(default)
        try:
            return tuple(float(tok) for tok in raw.replace(",", " ").split())
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} must be a number list: {exc}") from exc

    def get_names(self, section: str, key: str, default: Sequence[str]) -> tuple[str, ...]:
        raw = self.parser.get(section, key, fallback=None)
        if raw is None:
            return tuple(default)
        return tuple(tok for tok in raw.replace(",", " ").split() if tok)

    def path(self, key: str, default_name: str) -> Path:
        raw = self.parser.get("paths", key, fallback=None)
        if raw is None:
            return self.out_dir / default_name
        path = Path(raw)
        return path if path.is_absolute() else self.out_dir / path

    def write_csv(self, key: str, columns: Sequence[str], rows) -> None:
        """The CSV artifact `key` (default `<key>.csv`), under this run's provenance line."""
        atomic_write_text(self.path(key, f"{key}.csv"), csv_text(self.provenance, columns, rows))

    def input_path(self, key: str, default_name: str) -> Path:
        path = self.path(key, default_name)
        if not path.exists():
            raise ConfigError(f"required input {path} does not exist (set [paths] {key})")
        return path

    def cohort_config(self) -> cohort.CohortConfig:
        units = self.get_names("cohort", "surgical_units", sorted(cohort.DEFAULT_SURGICAL_UNITS))
        return cohort.CohortConfig(
            onset_horizon=self.get_int("cohort", "onset_horizon", 7 * cohort.MINUTES_PER_DAY),
            min_window=self.get_int("cohort", "min_window", cohort.MINUTES_PER_DAY),
            surgical_units=frozenset(units),
            post_surgical_buffer=self.get_int("cohort", "post_surgical_buffer", cohort.MINUTES_PER_DAY),
        )

    def families(self) -> tuple[str, ...]:
        fams = self.get_names("train", "families", ("ehr", "image", "combined"))
        for fam in fams:
            if fam not in models.FAMILIES:
                raise ConfigError(f"unknown model family {fam!r} in [train] families")
        return fams

    def sweep_grid(self) -> models.SweepGrid:
        return models.SweepGrid(
            learning_rates=self.get_floats("sweep", "learning_rates", models.LEARNING_RATE_GRID),
            momentums=self.get_floats("sweep", "momentums", models.MOMENTUM_GRID),
            weight_decays=self.get_floats("sweep", "weight_decays", models.WEIGHT_DECAY_GRID),
            batch_size=self.get_int("sweep", "batch_size", 32),
            patience=self.get_int("sweep", "patience", 5),
            max_epochs=self.get_int("sweep", "max_epochs", 100),
        )


def load_config(config_path: Optional[str], seed_flag: Optional[int], out_flag: Optional[str]) -> RunConfig:
    parser = configparser.ConfigParser()
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
    # precedence: flags > config file > defaults
    seed = seed_flag if seed_flag is not None else int(parser.get("run", "seed", fallback="0"))
    out_dir = Path(out_flag) if out_flag is not None else Path(parser.get("paths", "out_dir", fallback="out"))
    # the output location does not affect results, so it stays out of the hash
    digest = config_hash(raw_text + f"|seed={seed}")
    provenance = f"arfdx {__version__} seed={seed} config={digest}"
    return RunConfig(parser=parser, out_dir=out_dir, seed=seed, provenance=provenance)


# --- shared artifact loading ---------------------------------------------------


def load_included_stays(cfg: RunConfig) -> tuple[list[cohort.PatientStay], cohort.CohortConfig]:
    path = cfg.input_path("cohort", "cohort.ndjson")
    cohort_cfg = cfg.cohort_config()
    stays = cohort.load_cohort(path)
    return [stay for stay in stays if cohort.include_stay(stay, cohort_cfg)], cohort_cfg


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
    path = cfg.input_path("featurizer", "featurizer.json")
    return featurize.FittedFeaturizer.from_json(path.read_text(encoding="utf-8"))


def window_rows(
    stays: Sequence[cohort.PatientStay],
    cohort_cfg: cohort.CohortConfig,
    variables: Sequence[str],
) -> list[dict[str, object]]:
    rows = []
    for stay in stays:
        window = cohort.observation_window(stay, cohort_cfg.min_window)
        rows.append({var: featurize.latest_value(stay.events, var, window) for var in variables})
    return rows


def used_labels(stay: cohort.PatientStay, ruleset: labels.PhenotypeRuleset) -> labels.DiagnosisLabels:
    """Chart-review labels when reviews exist, otherwise the code+med rule."""
    if stay.reviews:
        return labels.aggregate_reviews(stay.reviews)
    return labels.code_med_label(stay, ruleset)


@dataclass
class PipelineData:
    """Per-patient matrices shared by train/evaluate/explain."""

    patient_ids: list[str]
    ehr: np.ndarray  # (n, d)
    emb: np.ndarray  # (m, e): every image of each patient's selected study, patient by patient
    image_counts: np.ndarray  # (n,): rows of `emb` per patient
    label_matrix: np.ndarray  # (n, 3)
    stays_by_id: dict[str, cohort.PatientStay]

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
    stays, cohort_cfg = load_included_stays(cfg)
    fitted = load_fitted_featurizer(cfg)
    features = featurize.read_features(cfg.input_path("features", "features.ndjson"), fitted.dim)
    label_map = load_labels_csv(cfg.input_path("labels", "labels.csv"))
    embeddings = imaging.load_embeddings(cfg.input_path("embeddings", "embeddings.bin"))

    ehr_rows = []
    emb_rows = []
    image_counts = []
    label_rows = []
    for stay in stays:
        pid = stay.patient_id
        if pid not in features:
            raise ConfigError(f"patient {pid} missing from the feature file")
        if pid not in label_map:
            raise ConfigError(f"patient {pid} missing from the label file")
        refs = cohort.select_study(stay).image_refs
        for ref in refs:
            if ref not in embeddings:
                raise ConfigError(f"image {ref} missing from the embedding file")
            emb_rows.append(embeddings[ref].vector)
        image_counts.append(len(refs))
        ehr_rows.append(features[pid].astype(float))
        label_rows.append([label_map[pid][d] for d in labels.DIAGNOSES])
    return PipelineData(
        patient_ids=[stay.patient_id for stay in stays],
        ehr=np.stack(ehr_rows),
        emb=np.stack(emb_rows).astype(float),
        image_counts=np.asarray(image_counts),
        label_matrix=np.asarray(label_rows, dtype=float),
        stays_by_id={stay.patient_id: stay for stay in stays},
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
    spec = synth.SynthSpec(
        n_patients=cfg.get_int("synth", "n_patients", 200),
        prevalences=tuple(cfg.get_floats("synth", "prevalences", synth.DEFAULT_PREVALENCES)),
        n_numeric_vars=cfg.get_int("synth", "n_numeric_vars", 12),
        emb_dim=cfg.get_int("synth", "emb_dim", 16),
        missing_base=cfg.get_float("synth", "missing_base", 0.15),
        reviewer_noise=cfg.get_float("synth", "reviewer_noise", 0.25),
        seed=stage_seed(cfg.seed, "synth"),
    )
    generated = synth.generate(spec)
    cohort.write_cohort(cfg.path("cohort", "cohort.ndjson"), generated.stays, header=cfg.provenance)
    imaging.write_embeddings(
        cfg.path("embeddings", "embeddings.bin"), [generated.embeddings[key] for key in sorted(generated.embeddings)]
    )
    truth_rows = ([pid] + [int(b) for b in generated.truth[pid]] for pid in sorted(generated.truth))
    atomic_write_text(
        cfg.path("truth", "truth_labels.csv"), csv_text(cfg.provenance, ("patient_id",) + labels.DIAGNOSES, truth_rows)
    )
    labels.save_ruleset(cfg.path("ruleset", "ruleset.json"), generated.ruleset, provenance=cfg.provenance)
    print(f"synth: wrote {len(generated.stays)} stays to {cfg.path('cohort', 'cohort.ndjson')}")


def run_label(cfg: RunConfig) -> None:
    stays, _ = load_included_stays(cfg)
    ruleset = labels.load_ruleset(cfg.input_path("ruleset", "ruleset.json"))
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
    print(f"label: wrote labels for {len(stays)} patients")


def run_featurize(cfg: RunConfig) -> None:
    stays, cohort_cfg = load_included_stays(cfg)
    if not stays:
        raise ConfigError("cohort file contains no includable stays")
    variables = sorted({event.variable for stay in stays for event in stay.events})
    rows = window_rows(stays, cohort_cfg, variables)
    config = featurize.infer_config(rows, bins_per_var=cfg.get_int("featurize", "bins_per_var", 5))
    fitted = featurize.fit(rows, config)
    feature_bits = featurize.encode_rows(rows, fitted)

    atomic_write_text(cfg.path("featurizer", "featurizer.json"), fitted.to_json(provenance=cfg.provenance) + "\n")
    featurize.write_features(
        cfg.path("features", "features.ndjson"), [stay.patient_id for stay in stays], feature_bits,
        header=cfg.provenance,
    )

    ruleset = labels.load_ruleset(cfg.input_path("ruleset", "ruleset.json"))
    label_matrix = np.asarray(
        [[int(used_labels(stay, ruleset)[d]) for d in labels.DIAGNOSES] for stay in stays]
    )
    correlations = featurize.missingness_correlation(feature_bits, label_matrix, fitted, labels.DIAGNOSES)
    missing_rows = [
        [var, diag, correlations[(var, diag)]]
        for var in fitted.config.variables
        for diag in labels.DIAGNOSES
    ]
    cfg.write_csv("missingness", ("variable", "diagnosis", "spearman"), missing_rows)
    print(f"featurize: {len(stays)} patients encoded to {fitted.dim} bits")


def run_split(cfg: RunConfig) -> None:
    stays, _ = load_included_stays(cfg)
    ids = [stay.patient_id for stay in stays]
    splits = evaluation.make_splits(ids, stage_seed(cfg.seed, "split"), n_splits=N_SPLITS)
    rows = []
    for assignment in splits:
        for pid in ids:
            rows.append([assignment.split_index, pid, assignment.roles[pid]])
    cfg.write_csv("splits", ("split_index", "patient_id", "role"), rows)
    print(f"split: wrote {N_SPLITS} splits over {len(ids)} patients")


def run_train(cfg: RunConfig) -> None:
    data = assemble_data(cfg)
    splits = load_splits_csv(cfg.input_path("splits", "splits.csv"))
    grid = cfg.sweep_grid()

    def dataset(idx: np.ndarray) -> models.ArrayDataset:
        return models.ArrayDataset(labels=data.label_matrix[idx], ehr=data.ehr[idx], emb=data.first_images(idx))

    results = []
    for family in cfg.families():
        for assignment in splits:
            seed = stage_seed(cfg.seed, f"train/{family}/split{assignment.split_index}")
            result = models.sweep(
                family, grid,
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
        stay = data.stays_by_id[data.patient_ids[i]]
        if len(stay.reviews) >= 3:
            cases.append(evaluation.PhysicianCase(stay.reviews, dict(zip(labels.DIAGNOSES, probs.tolist()))))
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
    splits = load_splits_csv(cfg.input_path("splits", "splits.csv"))
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
        if len(values) == N_SPLITS and None not in values:
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
    splits = load_splits_csv(cfg.input_path("splits", "splits.csv"))
    fitted = load_fitted_featurizer(cfg)
    threshold = cfg.get_float("explain", "correlation_threshold", 0.6)
    repeats = cfg.get_int("explain", "repeats", 10)
    feature_bits = data.ehr.astype(np.uint8)

    # groups come from the full cohort so every split ranks the same partition
    signals = explain.variable_signal(feature_bits, fitted)
    groups = explain.correlation_groups(signals, fitted.config.variables, threshold=threshold)

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
