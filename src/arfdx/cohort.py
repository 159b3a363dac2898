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
from typing import Iterable, Mapping, NamedTuple, Optional

from ._util import atomic_write_text
from .labels import ChartReview

MINUTES_PER_HOUR = 60
MINUTES_PER_DAY = 24 * MINUTES_PER_HOUR
MIN_WINDOW = MINUTES_PER_DAY  # the observation window is at least 24 h long


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


class ObservationEvent(NamedTuple):
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
    surgical_units: frozenset[str] = DEFAULT_SURGICAL_UNITS
    post_surgical_buffer: int = MINUTES_PER_DAY

    def __post_init__(self):
        if self.onset_horizon <= 0 or self.post_surgical_buffer <= 0:
            raise CohortError("cohort durations must be positive")


def detect_arf_onset(stay: PatientStay) -> Optional[int]:
    """Earliest time of significant respiratory support; None when never given."""
    return min((t for t, _kind in stay.support_events), default=None)


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


def observation_window(stay: PatientStay) -> tuple[int, int]:
    """Data-extraction window: admission up to onset, but at least `MIN_WINDOW` long.

    Onset exactly at admit + MIN_WINDOW takes the minimum-window branch;
    both branches agree there, the choice is documented for determinism.
    """
    onset = detect_arf_onset(stay)
    if onset is None:
        raise OnsetRequired(f"stay {stay.patient_id!r} has no respiratory-support onset")
    if onset - stay.admit_time > MIN_WINDOW:
        return (stay.admit_time, onset)
    return (stay.admit_time, stay.admit_time + MIN_WINDOW)


def window_values(stay: PatientStay) -> dict[str, object]:
    """Every variable the stay records, mapped to its most recent value inside
    the observation window, or None when it has no observation there.

    One pass over the events; equal-time observations resolve to the
    later-listed one.
    """
    start, end = observation_window(stay)
    values: dict[str, object] = {}
    latest: dict[str, int] = {}
    for variable, time, value in stay.events:
        if start <= time <= end and time >= latest.get(variable, start):
            latest[variable] = time
            values[variable] = value
        else:
            values.setdefault(variable, None)
    return values


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


def parse_stay(obj: Mapping) -> PatientStay:
    """Build and validate a PatientStay from one decoded NDJSON object.

    Times are integers (not bools), every list field is a JSON array, events
    and studies are objects, an image ref is a non-empty string, and an event
    value is a finite number, a token string or null. A bad record raises
    `CohortError` naming its first failed check.
    """
    if not isinstance(obj, Mapping):
        raise CohortError("record is not a JSON object")
    patient_id = obj.get("patient_id")
    if not isinstance(patient_id, str) or patient_id == "":
        raise CohortError("patient_id missing or empty")
    admit_time = obj.get("admit_time")
    if type(admit_time) is not int:
        raise CohortError("admit_time must be an integer minute count")

    events = []
    for raw in _list_field(obj, "events"):
        if type(raw) is not dict:
            raise CohortError("event must be an object")
        variable = raw.get("variable")
        if type(variable) is not str or variable == "":
            raise CohortError("event variable missing or empty")
        time = raw.get("time")
        if type(time) is not int:
            raise CohortError(f"event time for {variable!r} must be an integer")
        if time < admit_time:
            raise CohortError(f"event for {variable!r} precedes admission")
        value = raw.get("value")
        if value is not None and type(value) is not str:
            if type(value) not in _NUMBERS:
                raise CohortError(f"event value for {variable!r} must be numeric, token, or null")
            if not -_FLOAT_MAX <= value <= _FLOAT_MAX:
                raise CohortError(f"event value for {variable!r} is not finite")
        events.append(ObservationEvent(variable, time, value))

    support_events = []
    for raw in _list_field(obj, "support_events"):
        if type(raw) not in _SEQUENCES or len(raw) != 2:
            raise CohortError("support event must be [time, kind]")
        if type(raw[0]) is not int:
            raise CohortError("support event time must be an integer")
        if raw[0] < admit_time:
            raise CohortError("support event precedes admission")
        support_events.append((raw[0], map_support_kind(str(raw[1]))))

    studies = []
    for raw in _list_field(obj, "studies"):
        if type(raw) is not dict:
            raise CohortError("study must be an object")
        study_id = raw.get("study_id")
        if type(study_id) is not str or study_id == "":
            raise CohortError("study_id missing or empty")
        time = raw.get("time")
        if type(time) is not int:
            raise CohortError(f"study {study_id!r} time must be an integer")
        if time < admit_time:
            raise CohortError(f"study {study_id!r} precedes admission")
        refs = raw.get("image_refs")
        if not refs:
            raise CohortError(f"study {study_id!r} has no image_refs")
        if type(refs) not in _SEQUENCES:
            raise CohortError(f"study {study_id!r} image_refs must be a list")
        if not all(type(r) is str and r != "" for r in refs):
            raise CohortError(f"study {study_id!r} image_refs must be non-empty strings")
        studies.append(ImagingStudy(study_id, time, tuple(refs)))

    intervals_by_unit: dict[str, list[tuple[int, int]]] = {}
    unit_intervals = []
    for raw in _list_field(obj, "unit_intervals"):
        if type(raw) not in _SEQUENCES or len(raw) != 3:
            raise CohortError("unit interval must be [unit, start, end]")
        if type(raw[1]) is not int or type(raw[2]) is not int:
            raise CohortError("unit interval bounds must be integers")
        if raw[1] > raw[2]:
            raise CohortError(f"unit interval for {raw[0]!r} has start > end")
        unit_code, start, end = str(raw[0]), raw[1], raw[2]
        unit_intervals.append((unit_code, start, end))
        intervals_by_unit.setdefault(unit_code, []).append((start, end))
    for unit_code, spans in intervals_by_unit.items():
        spans.sort()
        for (s0, e0), (s1, _e1) in zip(spans, spans[1:]):
            if s1 <= e0:
                raise CohortError(f"overlapping intervals for unit {unit_code!r}")

    reviews = []
    for raw in _list_field(obj, "reviews"):
        if type(raw) is not dict:
            raise CohortError("chart review must be an object")
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


# One encoder for every line (json.dumps with options builds a new one per call).
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_EVENTS_PER_ENCODE = 64


def stay_to_json(stay: PatientStay) -> str:
    """Serialize one stay to its NDJSON line (inverse of parse_stay).

    The line is `json.dumps(record, sort_keys=True, separators=(",", ":"))`
    of the whole record, but the events are encoded 64 at a time and the
    pieces joined once. Encoding a deep stay in one call grows the encoder's
    scratch list to tens of kilobytes, and the blocks its growth leaves freed
    split the heap, so a caller that then joins many lines and encodes the
    text, as `write_cohort` does, can need fresh memory for it. A scratch
    list of 64 events stays under a few kilobytes.
    """
    record = {
        "patient_id": stay.patient_id,
        "admit_time": stay.admit_time,
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
    text = _ENCODER.encode(record)
    # sorted keys: "events" goes between "admit_time" (an integer) and "icd_codes"
    cut = text.index(',"icd_codes":')
    events = [{"variable": variable, "time": time, "value": value} for variable, time, value in stay.events]
    pieces = [text[:cut], ',"events":[']
    for start in range(0, len(events), _EVENTS_PER_ENCODE):
        if start:
            pieces.append(",")
        pieces.append(_ENCODER.encode(events[start : start + _EVENTS_PER_ENCODE])[1:-1])
    pieces.append("]")
    pieces.append(text[cut:])
    return "".join(pieces)


def write_cohort(path, stays: Iterable[PatientStay], header: str | None = None) -> None:
    lines = []
    if header:
        lines.append("# " + header)
    lines.extend(stay_to_json(stay) for stay in stays)
    atomic_write_text(path, "".join(line + "\n" for line in lines))
