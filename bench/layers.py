"""Which program functions the traced pass wraps, and the per-layer metrics.

`TARGETS` lists `(span name, module, attribute, counter hook)`. Span names
are `<layer>.<function>`; `csv_text` and the atomic writers live in
`arfdx._util` and are reported as `cli.csv_text` and `util.*`.

`PER_LAYER` is the benchmark's design record: each per-layer metric with
the end-to-end metric and workloads it should move. Units and directions
live only in BENCHMARK.json.
"""

from __future__ import annotations

import os
from typing import Callable

from tracer import summarize

STAGES = ("label", "featurize", "split", "train", "evaluate", "explain")


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _count(key: str, amount: Callable) -> Callable:
    def hook(counters, args, kwargs, result, exc):
        if exc is None:
            counters[key] += amount(args, kwargs, result)
    return hook


def _train_hook(counters, args, kwargs, result, exc):
    if exc is not None:
        counters["models.train.diverged"] += type(exc).__name__ == "Diverged"
        return
    history = result[1]
    epochs = len(history.val_auroc)
    counters["models.train.epochs"] += epochs
    counters["models.train.best_epochs"] += history.best_epoch
    counters["models.train.samples"] += epochs * len(_arg(args, kwargs, 2, "train_set"))


def _predict_rows(args, kwargs, result):
    spec = _arg(args, kwargs, 0, "spec")
    embeddings = _arg(args, kwargs, 3, "embeddings")
    return len(embeddings) if spec.needs_emb else 1


TARGETS = (
    ("cli.load_included_stays", "arfdx.cli", "load_included_stays", None),
    ("cli.assemble_data", "arfdx.cli", "assemble_data", None),
    ("cli.csv_text", "arfdx._util", "csv_text", None),
    ("cohort.load_cohort", "arfdx.cohort", "load_cohort",
     _count("cohort.load_cohort.bytes_parsed", lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path")))),
    ("cohort.parse_stay", "arfdx.cohort", "parse_stay", None),
    ("cohort.include_stay", "arfdx.cohort", "include_stay",
     _count("cohort.include_stay.included", lambda a, k, r: bool(r))),
    ("cohort.select_study", "arfdx.cohort", "select_study",
     _count("cohort.select_study.images", lambda a, k, r: len(r.image_refs))),
    ("cohort.detect_arf_onset", "arfdx.cohort", "detect_arf_onset", None),
    ("labels.aggregate_reviews", "arfdx.labels", "aggregate_reviews", None),
    ("labels.code_med_label", "arfdx.labels", "code_med_label", None),
    ("labels.pooled_table", "arfdx.labels", "pooled_table", None),
    ("featurize.latest_value", "arfdx.featurize", "latest_value",
     _count("featurize.latest_value.events_scanned", lambda a, k, r: len(_arg(a, k, 0, "events")))),
    ("featurize.fit", "arfdx.featurize", "fit", None),
    ("featurize.encode_rows", "arfdx.featurize", "encode_rows", None),
    ("featurize.missingness_correlation", "arfdx.featurize", "missingness_correlation", None),
    ("featurize.read_features", "arfdx.featurize", "read_features", None),
    ("featurize.pack_bits_hex", "arfdx.featurize", "pack_bits_hex", None),
    ("imaging.load_embeddings", "arfdx.imaging", "load_embeddings",
     _count("imaging.load_embeddings.records_loaded", lambda a, k, r: len(r))),
    ("models.sweep", "arfdx.models", "sweep", None),
    ("models.train", "arfdx.models", "train", _train_hook),
    ("models.backward", "arfdx.models", "backward", None),
    ("models.sgd_step", "arfdx.models", "sgd_step", None),
    ("models.forward", "arfdx.models", "forward", None),
    ("models.loss", "arfdx.models", "loss", None),
    ("models.macro_auroc", "arfdx.evaluation", "macro_auroc", None),
    ("models.predict_patient", "arfdx.models", "predict_patient",
     _count("models.predict_patient.rows", _predict_rows)),
    ("models.save_checkpoint", "arfdx.models", "save_checkpoint",
     _count("models.save_checkpoint.checkpoint_bytes", lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path")))),
    ("models.load_checkpoint", "arfdx.models", "load_checkpoint", None),
    ("evaluation.auroc", "arfdx.evaluation", "auroc",
     _count("evaluation.auroc.n", lambda a, k, r: len(_arg(a, k, 0, "scores")))),
    ("evaluation.aupr", "arfdx.evaluation", "aupr", None),
    ("evaluation.roc_points", "arfdx.evaluation", "roc_points", None),
    ("evaluation.threshold_at_ppv", "arfdx.evaluation", "threshold_at_ppv", None),
    ("evaluation.calibration", "arfdx.evaluation", "calibration", None),
    ("evaluation.metrics_report", "arfdx.evaluation", "metrics_report", None),
    ("evaluation.physician_comparison", "arfdx.evaluation", "physician_comparison", None),
    ("evaluation.make_splits", "arfdx.evaluation", "make_splits", None),
    ("explain.permutation_importance", "arfdx.explain", "permutation_importance", None),
    ("explain.variable_signal", "arfdx.explain", "variable_signal", None),
    ("explain.correlation_groups", "arfdx.explain", "correlation_groups", None),
    ("explain.aggregate_ranks", "arfdx.explain", "aggregate_ranks", None),
    ("util.atomic_write_text", "arfdx._util", "atomic_write_text",
     _count("util.atomic_write_text.bytes", lambda a, k, r: len(_arg(a, k, 1, "text")))),
    ("util.atomic_write_bytes", "arfdx._util", "atomic_write_bytes",
     _count("util.atomic_write_bytes.bytes", lambda a, k, r: len(_arg(a, k, 1, "data")))),
)

# Workload groups for the design record.
ALL = "sweep, cohort_scale, dense_stays"
DATA = "cohort_scale, dense_stays"


def _stage_metrics() -> dict[str, str]:
    moves = {}
    for stage in STAGES:
        if stage in ("label", "featurize", "split"):
            stage_moves = "prep_cpu_s on " + ALL
        elif stage == "explain":
            stage_moves = "pipeline_cpu_s on " + ALL
        else:
            stage_moves = f"{stage}_cpu_s on " + ALL
        moves[f"cli.{stage}.wall_s"] = stage_moves
        moves[f"cli.{stage}.cpu_s"] = stage_moves + " (cpu above wall means BLAS threads spinning)"
        moves[f"cli.{stage}.startup_s"] = stage_moves + " (process spawn to the start of cli.main: interpreter and imports)"
    return moves


# per-layer metric -> the end-to-end metric and workloads it should move;
# units and directions are in BENCHMARK.json
PER_LAYER = _stage_metrics() | {
    "cli.load_included_stays.calls": "every stage metric on " + DATA,
    "cli.load_included_stays.total_s": "every stage metric on " + DATA,
    "cli.assemble_data.total_s": "train_cpu_s, evaluate_cpu_s, pipeline_cpu_s on " + DATA,
    "cli.csv_text.self_s": "evaluate_cpu_s on cohort_scale",
    "cohort.load_cohort.self_s": "prep_cpu_s, pipeline_cpu_s on " + DATA,
    "cohort.load_cohort.bytes_parsed": "prep_cpu_s, pipeline_cpu_s, peak_rss_mb on " + DATA,
    "cohort.parse_stay.calls": "prep_cpu_s, pipeline_cpu_s on " + DATA,
    "cohort.parse_stay.self_s": "prep_cpu_s, pipeline_cpu_s, peak_rss_mb on dense_stays",
    "cohort.include_stay.self_s": "prep_cpu_s on " + DATA,
    "cohort.include_stay.included_ratio": "none (input property; fixed by the generator)",
    "cohort.select_study.calls": "train_cpu_s, evaluate_cpu_s, pipeline_cpu_s on " + DATA,
    "cohort.detect_arf_onset.calls": "prep_cpu_s, pipeline_cpu_s on " + DATA,
    "labels.aggregate_reviews.calls": "prep_cpu_s on cohort_scale",
    "labels.aggregate_reviews.self_s": "prep_cpu_s on cohort_scale",
    "labels.code_med_label.calls": "prep_cpu_s on cohort_scale",
    "labels.code_med_label.self_s": "prep_cpu_s on cohort_scale",
    "labels.pooled_table.self_s": "prep_cpu_s on cohort_scale",
    "featurize.latest_value.calls": "prep_cpu_s on dense_stays (no move on sweep)",
    "featurize.latest_value.self_s": "prep_cpu_s on dense_stays (no move on sweep)",
    "featurize.latest_value.events_scanned": "prep_cpu_s on dense_stays (no move on sweep)",
    "featurize.fit.self_s": "prep_cpu_s on dense_stays",
    "featurize.encode_rows.self_s": "prep_cpu_s on " + DATA,
    "featurize.missingness_correlation.self_s": "prep_cpu_s on " + DATA,
    "featurize.read_features.self_s": "train_cpu_s, evaluate_cpu_s, pipeline_cpu_s on cohort_scale",
    "featurize.pack_bits_hex.self_s": "prep_cpu_s on cohort_scale",
    "imaging.load_embeddings.calls": "train_cpu_s, evaluate_cpu_s, pipeline_cpu_s on dense_stays",
    "imaging.load_embeddings.self_s": "train_cpu_s, evaluate_cpu_s, pipeline_cpu_s on dense_stays",
    "imaging.load_embeddings.records_loaded": "train_cpu_s, evaluate_cpu_s, pipeline_cpu_s on dense_stays",
    "imaging.load_embeddings.records_used_ratio": "train_cpu_s, evaluate_cpu_s, pipeline_cpu_s, peak_rss_mb on dense_stays",
    "models.sweep.total_s": "train_cpu_s on sweep",
    "models.train.calls": "train_cpu_s on sweep",
    "models.train.self_s": "train_cpu_s on sweep",
    "models.train.total_s": "train_cpu_s on sweep",
    "models.train.epochs": "train_cpu_s on sweep",
    "models.train.samples_per_s": "train_cpu_s on sweep",
    "models.train.best_epoch_ratio": "train_cpu_s on sweep (the patience tail is wasted work)",
    "models.train.diverged": "combined_macro_auroc on sweep",
    "models.backward.calls": "train_cpu_s on sweep",
    "models.backward.self_s": "train_cpu_s on sweep",
    "models.sgd_step.calls": "train_cpu_s on sweep",
    "models.sgd_step.self_s": "train_cpu_s on sweep",
    "models.forward.calls": "train_cpu_s on sweep; pipeline_cpu_s (explain share) on dense_stays",
    "models.forward.self_s": "train_cpu_s on sweep; pipeline_cpu_s (explain share) on dense_stays",
    "models.loss.calls": "train_cpu_s on sweep",
    "models.loss.self_s": "train_cpu_s on sweep",
    "models.macro_auroc.total_s": "train_cpu_s on sweep (early stopping)",
    "models.predict_patient.calls": "evaluate_cpu_s on " + DATA,
    "models.predict_patient.self_s": "evaluate_cpu_s on " + DATA,
    "models.predict_patient.rows": "evaluate_cpu_s on " + DATA,
    "models.save_checkpoint.self_s": "train_cpu_s on " + DATA,
    "models.save_checkpoint.checkpoint_bytes": "train_cpu_s, evaluate_cpu_s, pipeline_cpu_s on " + ALL,
    "models.load_checkpoint.calls": "evaluate_cpu_s, pipeline_cpu_s on " + DATA,
    "evaluation.auroc.calls": "train_cpu_s on sweep; pipeline_cpu_s (explain share) on dense_stays",
    "evaluation.auroc.self_s": "train_cpu_s on sweep; evaluate_cpu_s on cohort_scale; pipeline_cpu_s (explain share) on dense_stays",
    "evaluation.auroc.mean_n": "none (scores per call, a workload property)",
    "evaluation.aupr.self_s": "evaluate_cpu_s on cohort_scale",
    "evaluation.roc_points.self_s": "evaluate_cpu_s on cohort_scale",
    "evaluation.threshold_at_ppv.self_s": "evaluate_cpu_s on cohort_scale",
    "evaluation.calibration.self_s": "evaluate_cpu_s on cohort_scale",
    "evaluation.metrics_report.total_s": "evaluate_cpu_s on cohort_scale",
    "evaluation.physician_comparison.total_s": "evaluate_cpu_s on cohort_scale",
    "evaluation.make_splits.self_s": "prep_cpu_s on cohort_scale",
    "explain.permutation_importance.calls": "pipeline_cpu_s (explain share) on dense_stays, sweep",
    "explain.permutation_importance.self_s": "pipeline_cpu_s (explain share) on dense_stays, sweep",
    "explain.permutation_importance.total_s": "pipeline_cpu_s (explain share) on dense_stays, sweep",
    "explain.variable_signal.self_s": "pipeline_cpu_s (explain share) on dense_stays, sweep",
    "explain.correlation_groups.self_s": "pipeline_cpu_s (explain share) on dense_stays, sweep",
    "explain.aggregate_ranks.self_s": "pipeline_cpu_s (explain share) on dense_stays, sweep",
    "util.atomic_write_text.calls": "evaluate_cpu_s on cohort_scale",
    "util.atomic_write_text.bytes": "evaluate_cpu_s on cohort_scale",
    "util.atomic_write_text.self_s": "evaluate_cpu_s on cohort_scale",
    "util.atomic_write_bytes.bytes": "none (no stage after synth writes bytes today)",
    "synth.generate.total_s": "setup_s on " + ALL,
    "trace.spans": "none (traced calls; sizes the tracing overhead)",
    "trace.overhead_s": "none (traced pipeline wall minus untraced pipeline wall)",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_values(dumps: dict[str, dict], untraced: dict[str, tuple[float, float]],
                     spawned_at: dict[str, float], synth_s: float, overhead_s: float) -> tuple[dict[str, float], list[str]]:
    """Every `PER_LAYER` value from one traced pipeline.

    `dumps` maps stage to its span dump, `untraced` maps stage to
    (wall, cpu) from the untraced pass, `spawned_at` maps stage to the
    wall-clock time its traced process was spawned. Returns the values and
    the wrapped names the program lacks, whose metrics read 0.
    """
    stats: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    absent: set[str] = set()
    n_spans = 0
    for stage, dump in dumps.items():
        absent.update(dump["absent"])
        n_spans += len(dump["start"])
        for key, value in dump["counters"].items():
            counters[key] = counters.get(key, 0.0) + value
        for name, entry in summarize(dump).items():
            acc = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += entry[key]

    values: dict[str, float] = {}
    for name, _, _, _ in TARGETS:
        entry = stats.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for key, value in entry.items():
            values[f"{name}.{key}"] = value
    for key, value in counters.items():
        values[key] = value
    for stage in STAGES:
        wall, cpu = untraced[stage]
        values[f"cli.{stage}.wall_s"] = wall
        values[f"cli.{stage}.cpu_s"] = cpu
        values[f"cli.{stage}.startup_s"] = dumps[stage].get("main_started_at", spawned_at[stage]) - spawned_at[stage]

    get = lambda key: values.get(key, 0.0)  # noqa: E731
    values["cohort.include_stay.included_ratio"] = _ratio(get("cohort.include_stay.included"), get("cohort.include_stay.calls"))
    values["imaging.load_embeddings.records_used_ratio"] = _ratio(
        get("cohort.select_study.images"), get("imaging.load_embeddings.records_loaded"))
    values["models.train.samples_per_s"] = _ratio(get("models.train.samples"), get("models.train.total_s"))
    values["models.train.best_epoch_ratio"] = _ratio(get("models.train.best_epochs"), get("models.train.epochs"))
    values["evaluation.auroc.mean_n"] = _ratio(get("evaluation.auroc.n"), get("evaluation.auroc.calls"))
    values["synth.generate.total_s"] = synth_s
    values["trace.spans"] = n_spans
    values["trace.overhead_s"] = overhead_s
    return {name: float(get(name)) for name in PER_LAYER}, sorted(absent)
