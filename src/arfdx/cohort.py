"""Patient-stay ingestion and cohort selection rules.

A stay enters the cohort when significant respiratory support starts within
the onset horizon of admission, at least one imaging study exists, and the
support did not begin in (or shortly after) a surgical unit. Times are
integer minutes since a shared epoch.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Optional

from ._util import atomic_write_text
from .labels import ChartReview, LabelError

MINUTES_PER_HOUR = 60
MINUTES_PER_DAY = 24 * MINUTES_PER_HOUR


class SupportKind(str, Enum):
    HFNC = "HFNC"  # high-flow nasal cannula
    NIV = "NIV"    # noninvasive ventilation
    IMV = "IMV"    # invasive mechanical ventilation


# Site-specific respiratory-support strings mapped onto the canonical kinds.
# Ingestion matches case-insensitively; extend per site as needed.
DEFAULT_SUPPORT_ALIASES: dict[str, SupportKind] = {
    "hfnc": SupportKind.HFNC,
    "high flow nasal cannula": SupportKind.HFNC,
    "niv": SupportKind.NIV,
    "bipap mask": SupportKind.NIV,
    "noninvasive ventilation": SupportKind.NIV,
    "imv": SupportKind.IMV,
    "endotracheal tube": SupportKind.IMV,
    "invasive mechanical ventilation": SupportKind.IMV,
}

# Surgical-origin unit codes used by the default exclusion rule.
DEFAULT_SURGICAL_UNITS = frozenset({"CSURG", "NSURG", "ORTHO", "SURG", "TSURG", "VSURG"})


class CohortError(ValueError):
    """Raised when a stay violates cohort preconditions or fails to parse."""


class OnsetRequired(CohortError):
    pass


class NoStudy(CohortError):
    pass


@dataclass(frozen=True)
class ObservationEvent:
    variable: str
    time: int
    value: object  # float, categorical token, or None when not recorded


@dataclass(frozen=True)
class ImagingStudy:
    study_id: str
    time: int
    image_refs: tuple[str, ...]

    def __post_init__(self):
        if not self.image_refs:
            raise CohortError(f"study {self.study_id!r} has no images")


@dataclass
class PatientStay:
    patient_id: str
    admit_time: int
    events: list[ObservationEvent] = field(default_factory=list)
    support_events: list[tuple[int, SupportKind]] = field(default_factory=list)
    studies: list[ImagingStudy] = field(default_factory=list)
    unit_intervals: list[tuple[str, int, int]] = field(default_factory=list)
    reviews: list[ChartReview] = field(default_factory=list)
    icd_codes: set[str] = field(default_factory=set)
    medications: set[str] = field(default_factory=set)


@dataclass(frozen=True)
class CohortConfig:
    onset_horizon: int = 7 * MINUTES_PER_DAY
    min_window: int = MINUTES_PER_DAY
    surgical_units: frozenset[str] = DEFAULT_SURGICAL_UNITS
    post_surgical_buffer: int = MINUTES_PER_DAY

    def __post_init__(self):
        if self.onset_horizon <= 0 or self.min_window <= 0 or self.post_surgical_buffer <= 0:
            raise CohortError("cohort durations must be positive")


def detect_arf_onset(stay: PatientStay) -> Optional[int]:
    """Earliest time of significant respiratory support; None when never given."""
    times = [t for t, kind in stay.support_events if kind in SupportKind.__members__.values()]
    return min(times) if times else None


def exclude_surgical(stay: PatientStay, cfg: CohortConfig) -> bool:
    """True when onset falls inside a surgical-unit interval or within the
    post-surgical buffer after one ends."""
    onset = detect_arf_onset(stay)
    if onset is None:
        raise OnsetRequired(f"stay {stay.patient_id!r} has no respiratory-support onset")
    for unit_code, start, end in stay.unit_intervals:
        if unit_code not in cfg.surgical_units:
            continue
        if start <= onset <= end:
            return True
        if end < onset <= end + cfg.post_surgical_buffer:
            return True
    return False


def include_stay(stay: PatientStay, cfg: CohortConfig) -> bool:
    onset = detect_arf_onset(stay)
    if onset is None:
        return False
    if onset - stay.admit_time > cfg.onset_horizon:
        return False
    if not stay.studies:
        return False
    if exclude_surgical(stay, cfg):
        return False
    return True


def observation_window(stay: PatientStay, min_window: int = MINUTES_PER_DAY) -> tuple[int, int]:
    """Data-extraction window: admission up to onset, but at least `min_window` long.

    Onset exactly at admit + min_window takes the minimum-window branch;
    both branches agree there, the choice is documented for determinism.
    """
    onset = detect_arf_onset(stay)
    if onset is None:
        raise OnsetRequired(f"stay {stay.patient_id!r} has no respiratory-support onset")
    if onset - stay.admit_time > min_window:
        return (stay.admit_time, onset)
    return (stay.admit_time, stay.admit_time + min_window)


def select_study(stay: PatientStay) -> ImagingStudy:
    """Imaging study nearest to onset; exact ties prefer the earlier study."""
    if not stay.studies:
        raise NoStudy(f"stay {stay.patient_id!r} has no imaging studies")
    onset = detect_arf_onset(stay)
    if onset is None:
        raise OnsetRequired(f"stay {stay.patient_id!r} has no respiratory-support onset")
    return min(stay.studies, key=lambda s: (abs(s.time - onset), s.time))


# --- NDJSON ingestion -------------------------------------------------------

def map_support_kind(raw: str, aliases: Mapping[str, SupportKind]) -> SupportKind:
    key = raw.strip().lower()
    if key not in aliases:
        raise CohortError(f"unknown respiratory-support kind {raw!r}")
    return aliases[key]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CohortError(message)


def parse_stay(obj: Mapping, aliases: Mapping[str, SupportKind] = DEFAULT_SUPPORT_ALIASES) -> PatientStay:
    """Build and validate a PatientStay from one decoded NDJSON object."""
    _require(isinstance(obj, Mapping), "record is not a JSON object")
    patient_id = obj.get("patient_id")
    _require(isinstance(patient_id, str) and patient_id != "", "patient_id missing or empty")
    admit_time = obj.get("admit_time")
    _require(isinstance(admit_time, int), "admit_time must be an integer minute count")

    events = []
    for raw in obj.get("events", []):
        variable = raw.get("variable")
        _require(isinstance(variable, str) and variable != "", "event variable missing or empty")
        time = raw.get("time")
        _require(isinstance(time, int), f"event time for {variable!r} must be an integer")
        _require(time >= admit_time, f"event for {variable!r} precedes admission")
        value = raw.get("value")
        if isinstance(value, bool):
            raise CohortError(f"event value for {variable!r} must be numeric, token, or null")
        if isinstance(value, (int, float)) and not math.isfinite(value):
            raise CohortError(f"event value for {variable!r} is not finite")
        events.append(ObservationEvent(variable=variable, time=time, value=value))

    support_events = []
    for raw in obj.get("support_events", []):
        _require(isinstance(raw, (list, tuple)) and len(raw) == 2, "support event must be [time, kind]")
        time, kind = raw
        _require(isinstance(time, int), "support event time must be an integer")
        _require(time >= admit_time, "support event precedes admission")
        support_events.append((time, map_support_kind(str(kind), aliases)))

    studies = []
    for raw in obj.get("studies", []):
        study_id = raw.get("study_id")
        _require(isinstance(study_id, str) and study_id != "", "study_id missing or empty")
        time = raw.get("time")
        _require(isinstance(time, int), f"study {study_id!r} time must be an integer")
        _require(time >= admit_time, f"study {study_id!r} precedes admission")
        refs = raw.get("image_refs", [])
        _require(bool(refs), f"study {study_id!r} has no image_refs")
        studies.append(ImagingStudy(study_id=study_id, time=time, image_refs=tuple(str(r) for r in refs)))

    intervals_by_unit: dict[str, list[tuple[int, int]]] = {}
    unit_intervals = []
    for raw in obj.get("unit_intervals", []):
        _require(isinstance(raw, (list, tuple)) and len(raw) == 3, "unit interval must be [unit, start, end]")
        unit_code, start, end = raw
        _require(isinstance(start, int) and isinstance(end, int), "unit interval bounds must be integers")
        _require(start <= end, f"unit interval for {unit_code!r} has start > end")
        unit_intervals.append((str(unit_code), start, end))
        intervals_by_unit.setdefault(str(unit_code), []).append((start, end))
    for unit_code, spans in intervals_by_unit.items():
        spans.sort()
        for (s0, e0), (s1, _e1) in zip(spans, spans[1:]):
            _require(s1 > e0, f"overlapping intervals for unit {unit_code!r}")

    reviews = []
    for raw in obj.get("reviews", []):
        try:
            reviews.append(ChartReview(reviewer_id=str(raw.get("reviewer_id", "")), scores=dict(raw["scores"])))
        except (LabelError, KeyError, TypeError) as exc:
            raise CohortError(f"bad chart review: {exc}") from exc

    return PatientStay(
        patient_id=patient_id,
        admit_time=admit_time,
        events=events,
        support_events=support_events,
        studies=studies,
        unit_intervals=unit_intervals,
        reviews=reviews,
        icd_codes=set(str(c) for c in obj.get("icd_codes", [])),
        medications=set(str(m) for m in obj.get("medications", [])),
    )


def load_cohort(
    path,
    aliases: Mapping[str, SupportKind] = DEFAULT_SUPPORT_ALIASES,
    rejects_path=None,
) -> list[PatientStay]:
    """Read one stay per NDJSON line; rejected lines go to a `.rejects` sidecar.

    Lines starting with '#' are provenance headers and are skipped. The
    sidecar lists `line <n>: <reason>` for each rejected record and is
    written (possibly empty) on every load. Two valid stays sharing a
    `patient_id` raise `CohortError` naming both lines.
    """
    path = Path(path)
    rejects_path = Path(rejects_path) if rejects_path is not None else path.with_name(path.name + ".rejects")
    stays = []
    rejects = []
    line_of: dict[str, int] = {}
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                obj = json.loads(stripped)
            except json.JSONDecodeError as exc:
                rejects.append(f"line {lineno}: invalid JSON: {exc.msg}")
                continue
            try:
                stay = parse_stay(obj, aliases)
            except CohortError as exc:
                rejects.append(f"line {lineno}: {exc}")
                continue
            if stay.patient_id in line_of:
                raise CohortError(
                    f"{path}: duplicate patient_id {stay.patient_id!r} on lines {line_of[stay.patient_id]} and {lineno}"
                )
            line_of[stay.patient_id] = lineno
            stays.append(stay)
    atomic_write_text(rejects_path, "".join(r + "\n" for r in rejects))
    return stays


def stay_to_json(stay: PatientStay) -> str:
    """Serialize one stay to its NDJSON line (inverse of parse_stay)."""
    obj = {
        "patient_id": stay.patient_id,
        "admit_time": stay.admit_time,
        "events": [
            {"variable": e.variable, "time": e.time, "value": e.value} for e in stay.events
        ],
        "support_events": [[t, kind.value] for t, kind in stay.support_events],
        "studies": [
            {"study_id": s.study_id, "time": s.time, "image_refs": list(s.image_refs)}
            for s in stay.studies
        ],
        "unit_intervals": [[unit, start, end] for unit, start, end in stay.unit_intervals],
        "reviews": [
            {"reviewer_id": r.reviewer_id, "scores": {d: r.scores[d] for d in sorted(r.scores)}}
            for r in stay.reviews
        ],
        "icd_codes": sorted(stay.icd_codes),
        "medications": sorted(stay.medications),
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_cohort(path, stays: Iterable[PatientStay], header: str | None = None) -> None:
    lines = []
    if header:
        lines.append("# " + header)
    lines.extend(stay_to_json(stay) for stay in stays)
    atomic_write_text(path, "".join(line + "\n" for line in lines))
