"""Patient-stay ingestion and cohort selection rules.

A stay enters the cohort when significant respiratory support starts within
the onset horizon of admission, at least one imaging study exists, and the
support did not begin in (or shortly after) a surgical unit. Times are
integer minutes since a shared epoch.
"""

from __future__ import annotations

import gc
import json
import sys
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Optional

from ._util import atomic_write_text
from .labels import ChartReview

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

def map_support_kind(raw: str) -> SupportKind:
    key = raw.strip().lower()
    if key not in DEFAULT_SUPPORT_ALIASES:
        raise CohortError(f"unknown respiratory-support kind {raw!r}")
    return DEFAULT_SUPPORT_ALIASES[key]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CohortError(message)


# JSON decodes integers to exactly `int` and objects to exactly `dict`, so
# `type(x) is int` rejects bools, which `isinstance(x, int)` would accept.
_NUMBERS = (int, float)
_SEQUENCES = (list, tuple)
_FLOAT_MAX = sys.float_info.max


def _list_field(obj: Mapping, key: str):
    raw = obj.get(key, [])
    if type(raw) not in _SEQUENCES:
        raise CohortError(f"{key} must be a list")
    return raw


# parse_stay checks each nested record with one combined condition and calls
# the matching `_*_error` only on failure; each re-runs that condition's
# checks in the same order and returns the reason for the first that fails.


def _event_error(raw, admit_time: int) -> str:
    if type(raw) is not dict:
        return "event must be an object"
    variable = raw.get("variable")
    if type(variable) is not str or variable == "":
        return "event variable missing or empty"
    time = raw.get("time")
    if type(time) is not int:
        return f"event time for {variable!r} must be an integer"
    if time < admit_time:
        return f"event for {variable!r} precedes admission"
    if type(raw.get("value")) in _NUMBERS:
        return f"event value for {variable!r} is not finite"
    return f"event value for {variable!r} must be numeric, token, or null"


def _support_error(raw) -> str:
    if type(raw) not in _SEQUENCES or len(raw) != 2:
        return "support event must be [time, kind]"
    if type(raw[0]) is not int:
        return "support event time must be an integer"
    return "support event precedes admission"


def _study_error(raw, admit_time: int) -> str:
    if type(raw) is not dict:
        return "study must be an object"
    study_id = raw.get("study_id")
    if type(study_id) is not str or study_id == "":
        return "study_id missing or empty"
    time = raw.get("time")
    if type(time) is not int:
        return f"study {study_id!r} time must be an integer"
    if time < admit_time:
        return f"study {study_id!r} precedes admission"
    if not raw.get("image_refs"):
        return f"study {study_id!r} has no image_refs"
    return f"study {study_id!r} image_refs must be a list"


def _interval_error(raw) -> str:
    if type(raw) not in _SEQUENCES or len(raw) != 3:
        return "unit interval must be [unit, start, end]"
    if type(raw[1]) is not int or type(raw[2]) is not int:
        return "unit interval bounds must be integers"
    return f"unit interval for {raw[0]!r} has start > end"


def parse_stay(obj: Mapping) -> PatientStay:
    """Build and validate a PatientStay from one decoded NDJSON object.

    Times are integers (not bools), every list field is a JSON array, events
    and studies are objects, and an event value is a finite number, a token
    string or null.
    """
    _require(isinstance(obj, Mapping), "record is not a JSON object")
    patient_id = obj.get("patient_id")
    _require(isinstance(patient_id, str) and patient_id != "", "patient_id missing or empty")
    admit_time = obj.get("admit_time")
    _require(type(admit_time) is int, "admit_time must be an integer minute count")

    events = []
    for raw in _list_field(obj, "events"):
        if (
            type(raw) is dict
            and type(variable := raw.get("variable")) is str
            and variable != ""
            and type(time := raw.get("time")) is int
            and time >= admit_time
            and (
                (value := raw.get("value")) is None
                or type(value) is str
                or (type(value) in _NUMBERS and -_FLOAT_MAX <= value <= _FLOAT_MAX)
            )
        ):
            events.append(ObservationEvent(variable, time, value))
        else:
            raise CohortError(_event_error(raw, admit_time))

    support_events = []
    for raw in _list_field(obj, "support_events"):
        if type(raw) in _SEQUENCES and len(raw) == 2 and type(raw[0]) is int and raw[0] >= admit_time:
            support_events.append((raw[0], map_support_kind(str(raw[1]))))
        else:
            raise CohortError(_support_error(raw))

    studies = []
    for raw in _list_field(obj, "studies"):
        if (
            type(raw) is dict
            and type(study_id := raw.get("study_id")) is str
            and study_id != ""
            and type(time := raw.get("time")) is int
            and time >= admit_time
            and type(refs := raw.get("image_refs")) in _SEQUENCES
            and refs
        ):
            studies.append(ImagingStudy(study_id, time, tuple(str(r) for r in refs)))
        else:
            raise CohortError(_study_error(raw, admit_time))

    intervals_by_unit: dict[str, list[tuple[int, int]]] = {}
    unit_intervals = []
    for raw in _list_field(obj, "unit_intervals"):
        if (
            type(raw) in _SEQUENCES
            and len(raw) == 3
            and type(raw[1]) is int
            and type(raw[2]) is int
            and raw[1] <= raw[2]
        ):
            unit_code, start, end = str(raw[0]), raw[1], raw[2]
            unit_intervals.append((unit_code, start, end))
            intervals_by_unit.setdefault(unit_code, []).append((start, end))
        else:
            raise CohortError(_interval_error(raw))
    for unit_code, spans in intervals_by_unit.items():
        spans.sort()
        for (s0, e0), (s1, _e1) in zip(spans, spans[1:]):
            if s1 <= e0:
                raise CohortError(f"overlapping intervals for unit {unit_code!r}")

    reviews = []
    for raw in _list_field(obj, "reviews"):
        _require(type(raw) is dict, "chart review must be an object")
        try:
            reviews.append(ChartReview(reviewer_id=str(raw.get("reviewer_id", "")), scores=dict(raw["scores"])))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:  # LabelError is a ValueError
            raise CohortError(f"bad chart review: {exc}") from exc

    return PatientStay(
        patient_id=patient_id,
        admit_time=admit_time,
        events=events,
        support_events=support_events,
        studies=studies,
        unit_intervals=unit_intervals,
        reviews=reviews,
        icd_codes=set(str(c) for c in _list_field(obj, "icd_codes")),
        medications=set(str(m) for m in _list_field(obj, "medications")),
    )


def load_cohort(path, rejects_path=None) -> list[PatientStay]:
    """Read one stay per NDJSON line, skipping rejected lines.

    Lines starting with '#' are provenance headers and are skipped. When
    `rejects_path` is given, a sidecar listing `line <n>: <reason>` for each
    rejected record is written there (possibly empty). Two valid stays
    sharing a `patient_id` raise `CohortError` naming both lines.
    """
    path = Path(path)
    stays = []
    rejects = []
    line_of: dict[str, int] = {}
    # The parsed records hold no reference cycles, so reference counting frees
    # them as before; pausing the cyclic collector only skips its repeated
    # passes over the growing stay list.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
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
                    stay = parse_stay(obj)
                except CohortError as exc:
                    rejects.append(f"line {lineno}: {exc}")
                    continue
                if stay.patient_id in line_of:
                    raise CohortError(
                        f"{path}: duplicate patient_id {stay.patient_id!r} "
                        f"on lines {line_of[stay.patient_id]} and {lineno}"
                    )
                line_of[stay.patient_id] = lineno
                stays.append(stay)
    finally:
        if gc_was_enabled:
            gc.enable()
    if rejects_path is not None:
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
