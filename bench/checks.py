"""Output checks on one finished pipeline directory.

Checks read artifacts by column name and compare them with what the
generated inputs imply; none compares against golden bytes.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

from workloads import Expected, Workload

N_SPLITS = 5
FAMILIES = ("ehr", "image", "combined")

CSV_ARTIFACTS = (
    "labels.csv", "agreement.csv", "missingness.csv", "splits.csv", "sweep_log.csv",
    "metrics.csv", "cross_split_summary.csv", "calibration_bins.csv", "roc_points.csv",
    "recalibration.csv", "physician_comparison.csv", "importance_ehr.csv", "importance_combined.csv",
)
JSON_ARTIFACTS = ("featurizer.json",) + tuple(
    f"checkpoint_{family}_split{k}.json" for family in FAMILIES for k in range(N_SPLITS)
)
NDJSON_ARTIFACTS = ("features.ndjson",)
# Deterministic for a fixed config and seed: compared across passes of one run.
DETERMINISTIC = CSV_ARTIFACTS + JSON_ARTIFACTS + NDJSON_ARTIFACTS


def read_csv(path: Path) -> list[dict[str, str]]:
    """Rows of an artifact CSV as dicts; '#' provenance lines are skipped."""
    with path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(line for line in handle if not line.startswith("#"))
        header = next(reader)
        rows = [dict(zip(header, row)) for row in reader]
    if any(len(row) != len(header) for row in rows):
        raise ValueError(f"{path.name}: ragged rows")
    return rows


def combined_macro_auroc(out_dir: Path) -> float:
    """Median over splits of the combined family's test macro AUROC."""
    for row in read_csv(out_dir / "cross_split_summary.csv"):
        if (row["model"], row["diagnosis"], row["metric"]) == ("combined", "macro", "auroc"):
            return float(row["median"])
    raise ValueError("cross_split_summary.csv has no combined macro auroc row")


def digests(out_dir: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in DETERMINISTIC
        if (out_dir / name).exists()
    }


def _parses(path: Path) -> str:
    if path.suffix == ".csv":
        read_csv(path)
    elif path.suffix == ".json":
        json.loads(path.read_text(encoding="utf-8"))
    else:
        for line in path.read_text(encoding="utf-8").splitlines():
            if line and not line.startswith("#"):
                json.loads(line)
    return "parses"


def _included(out_dir: Path, expected: Expected) -> str:
    split_ids = {row["patient_id"] for row in read_csv(out_dir / "splits.csv")}
    label_ids = {row["patient_id"] for row in read_csv(out_dir / "labels.csv")}
    if not len(split_ids) == len(label_ids) == expected.included:
        raise ValueError(
            f"included stays: splits.csv {len(split_ids)}, labels.csv {len(label_ids)}, "
            f"expected {expected.included} = {expected.generated} generated - "
            f"{expected.excluded} surgical - {expected.rejected} malformed"
        )
    return f"{expected.included} included"


def _fallback_labels(out_dir: Path, expected: Expected) -> str:
    fallback = {row["patient_id"] for row in read_csv(out_dir / "labels.csv") if row["source"] == "code_med"}
    if len(fallback) != expected.fallback_labels:
        raise ValueError(f"{len(fallback)} code+medication labels, expected {expected.fallback_labels}")
    return f"{len(fallback)} code+medication labels"


def _sweep_log(out_dir: Path, workload: Workload) -> str:
    from arfdx.models import FAMILIES as KINDS

    grid = 1
    for values in (workload.learning_rates, workload.momentums, workload.weight_decays):
        grid *= len(values.split(","))
    want = sum(len(KINDS[family]) for family in FAMILIES) * grid * N_SPLITS
    keys = [
        (row["family"], row["split"], row["kind"], row["learning_rate"], row["momentum"], row["weight_decay"])
        for row in read_csv(out_dir / "sweep_log.csv")
    ]
    if len(keys) != want or len(set(keys)) != want:
        raise ValueError(f"sweep_log.csv has {len(keys)} rows ({len(set(keys))} distinct), expected {want}")
    return f"{want} sweep rows"


def _auroc_floor(out_dir: Path, workload: Workload) -> str:
    value = combined_macro_auroc(out_dir)
    if not value > workload.auroc_floor:
        raise ValueError(f"combined macro AUROC {value:.4f} not above floor {workload.auroc_floor}")
    return f"combined macro AUROC {value:.4f} > {workload.auroc_floor}"


def check_outputs(out_dir: Path, workload: Workload, expected: Expected) -> list[tuple[str, bool, str]]:
    """Run every check; each result is (name, passed, detail)."""
    checks = [(f"parse {name}", lambda name=name: _parses(out_dir / name)) for name in DETERMINISTIC]
    checks += [
        ("included stays", lambda: _included(out_dir, expected)),
        ("fallback labels", lambda: _fallback_labels(out_dir, expected)),
        ("sweep log rows", lambda: _sweep_log(out_dir, workload)),
        ("auroc floor", lambda: _auroc_floor(out_dir, workload)),
    ]
    results = []
    for name, check in checks:
        try:
            results.append((name, True, check()))
        except (OSError, ValueError, KeyError, StopIteration) as exc:
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
    return results
