"""Seeded synthetic cohorts with a known multimodal generative model.

Each patient draws independent diagnosis bits; those bits shift a subset of
numeric EHR variables, the image-embedding mean, per-variable missingness,
chart-review ratings, and the emitted codes/medications. Because the ground
truth is known exactly and the signal is split across modalities, generated
cohorts serve as end-to-end oracles for the pipeline: labels are recoverable,
missingness correlations have known sign, and a combined model has strictly
more signal available than either unimodal model.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .cohort import (
    MINUTES_PER_HOUR,
    ImagingStudy,
    ObservationEvent,
    PatientStay,
    SupportKind,
)
from .imaging import ImageEmbedding
from .labels import DIAGNOSES, ChartReview, PhenotypeRule, PhenotypeRuleset

# The generative model, one value per diagnosis where it is a tuple.
# `generate` reads these when it runs.
PREVALENCES = (0.31, 0.22, 0.09)
EHR_SHIFT = 0.6  # mean shift on each diagnosis's three dedicated variables
EMB_SHIFT = 0.5  # mean shift on each diagnosis's four dedicated embedding dimensions
MISSING_BASE = 0.15
MISSING_SHIFT = (0.10, -0.08, 0.12)
REVIEW_COUNT_PROBS = (0.23, 0.48, 0.19, 0.10)  # of 1, 2, 3 or 4 chart reviews
REVIEWER_NOISE = 0.25

# Small slices of published code/medication lists, enough to exercise the
# conjunction rule for each diagnosis.
_DEFAULT_RULES = {
    "pneumonia": (
        ("J18.9", "J15.211", "J13", "A48.1"),
        ("VANCOMYCIN 1 GM IVPB", "CEFEPIME IVPB", "LEVOFLOXACIN 750 MG TABLET"),
    ),
    "heart_failure": (
        ("I50.9", "I50.21", "I11.0"),
        ("FUROSEMIDE 40 MG TABLET", "BUMETANIDE 1 MG TABLET", "TORSEMIDE 20 MG TABLET"),
    ),
    "copd": (
        ("J44.1", "J44.9", "J43.9", "J42"),
        ("PREDNISONE 20 MG TABLET", "METHYLPREDNISOLONE 16 MG TABLET", "DEXAMETHASONE 4 MG TABLET"),
    ),
}


def default_ruleset() -> PhenotypeRuleset:
    return PhenotypeRuleset(
        rules={
            diag: PhenotypeRule(icd_codes=frozenset(codes), medications=frozenset(meds))
            for diag, (codes, meds) in _DEFAULT_RULES.items()
        }
    )


@dataclass(frozen=True)
class SynthSpec:
    n_patients: int = 200
    n_numeric_vars: int = 12
    emb_dim: int = 16
    seed: int = 0

    def __post_init__(self):
        for name in ("n_patients", "n_numeric_vars", "emb_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


@dataclass
class SynthCohort:
    stays: list[PatientStay]
    embeddings: dict[str, ImageEmbedding]
    truth: dict[str, tuple[bool, bool, bool]]
    ruleset: PhenotypeRuleset


def _signal(width: int, span: int, shift: float) -> np.ndarray:
    """(3, width): diagnosis k shifts columns span*k to span*k + span - 1, those that exist."""
    signal = np.zeros((3, width))
    for k in range(3):
        signal[k, span * k : span * (k + 1)] = shift
    return signal


def _half_point(value: float) -> float:
    return math.floor(value * 2.0 + 0.5) / 2.0


def generate(spec: SynthSpec) -> SynthCohort:
    """Generate a cohort that passes every inclusion rule, with known labels.

    Per patient, in fixed draw order: diagnosis bits, onset time, support
    kind, study-time offset, numeric values, missingness mask, one
    observation time per numeric variable (missing ones too), gender, race,
    review count, ratings, and the embedding. The single seeded generator
    makes the whole cohort reproducible byte for byte.
    """
    rng = np.random.default_rng(spec.seed)
    ehr_signal = _signal(spec.n_numeric_vars, 3, EHR_SHIFT)
    emb_signal = _signal(spec.emb_dim, 4, EMB_SHIFT)
    prevalences = np.asarray(PREVALENCES)
    # the cumulative distribution `Generator.choice` searches for a draw of `p`
    review_cdf = np.cumsum(REVIEW_COUNT_PROBS)
    review_cdf = (review_cdf / review_cdf[-1]).tolist()
    ruleset = default_ruleset()
    first_code_med = {diag: (min(rule.icd_codes), min(rule.medications)) for diag, rule in ruleset.rules.items()}
    var_names = [f"var{idx:02d}" for idx in range(spec.n_numeric_vars)]
    genders = ("F", "M")
    races = ("white", "black", "other")
    support_kinds = (SupportKind.HFNC, SupportKind.NIV, SupportKind.IMV)
    width = len(str(max(spec.n_patients - 1, 1)))

    stays: list[PatientStay] = []
    embeddings: dict[str, ImageEmbedding] = {}
    truth: dict[str, tuple[bool, bool, bool]] = {}

    for i in range(spec.n_patients):
        pid = f"p{i:0{width}d}"
        z = (rng.random(3) < prevalences).astype(float)

        admit = 0
        onset = int(rng.integers(6 * MINUTES_PER_HOUR, 24 * MINUTES_PER_HOUR))
        kind = support_kinds[int(rng.integers(0, 3))]
        study_time = onset + int(rng.integers(-120, 121))

        values = rng.normal(ehr_signal.T @ z, 1.0).tolist()
        p_missing = float(np.clip(MISSING_BASE + np.dot(MISSING_SHIFT, z), 0.0, 1.0))
        missing = (rng.random(spec.n_numeric_vars) < p_missing).tolist()
        times = rng.integers(admit, onset, size=spec.n_numeric_vars).tolist()
        events = [
            ObservationEvent(variable=name, time=t, value=value)
            for name, t, value, absent in zip(var_names, times, values, missing)
            if not absent
        ]
        events.append(ObservationEvent(variable="gender", time=admit, value=genders[int(rng.integers(0, 2))]))
        events.append(ObservationEvent(variable="race", time=admit, value=races[int(rng.integers(0, 3))]))

        n_reviews = 1 + bisect.bisect_right(review_cdf, rng.random())
        # a rating's mean is 1 when the diagnosis is present and 4 when it is absent
        mean_offset = (3.0 * (1.0 - z)).tolist()
        noise = rng.normal(0.0, REVIEWER_NOISE, size=(n_reviews, 3)).tolist()
        reviews = [
            ChartReview(
                reviewer_id=f"rev{r_idx}",
                scores={
                    diag: min(max(_half_point(1.0 + mean_offset[d_idx] + row[d_idx]), 1.0), 4.0)
                    for d_idx, diag in enumerate(DIAGNOSES)
                },
            )
            for r_idx, row in enumerate(noise)
        ]

        present = [diag for diag, bit in zip(DIAGNOSES, z) if bit]
        codes = {first_code_med[diag][0] for diag in present}
        meds = {first_code_med[diag][1] for diag in present}

        image_id = f"{pid}-s0-i0"
        emb_vec = rng.normal(emb_signal.T @ z, 1.0, size=spec.emb_dim).astype(np.float32)
        embeddings[image_id] = ImageEmbedding(study_image_id=image_id, vector=emb_vec)

        stays.append(
            PatientStay(
                patient_id=pid,
                admit_time=admit,
                events=events,
                support_events=[(onset, kind)],
                studies=[ImagingStudy(study_id=f"{pid}-s0", time=study_time, image_refs=(image_id,))],
                unit_intervals=[("MICU", admit, onset + 48 * MINUTES_PER_HOUR)],
                reviews=reviews,
                icd_codes=codes,
                medications=meds,
            )
        )
        truth[pid] = tuple(bool(b) for b in z)

    return SynthCohort(stays=stays, embeddings=embeddings, truth=truth, ruleset=ruleset)
