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

from dataclasses import dataclass, field

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

DEFAULT_PREVALENCES = (0.31, 0.22, 0.09)

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
    prevalences: tuple[float, float, float] = DEFAULT_PREVALENCES
    n_numeric_vars: int = 12
    emb_dim: int = 16
    # (3, n_numeric_vars): additive mean shift on each variable per diagnosis
    ehr_signal: tuple[tuple[float, ...], ...] | None = None
    # (3, emb_dim): embedding mean shift per diagnosis
    emb_signal: tuple[tuple[float, ...], ...] | None = None
    missing_base: float = 0.15
    missing_shift: tuple[float, float, float] = (0.10, -0.08, 0.12)
    # probability of a patient receiving 1, 2, 3, or 4 chart reviews
    review_count_probs: tuple[float, float, float, float] = (0.23, 0.48, 0.19, 0.10)
    reviewer_noise: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.n_patients < 1 or self.n_numeric_vars < 1 or self.emb_dim < 1:
            raise ValueError("n_patients, n_numeric_vars, and emb_dim must be positive")
        if not all(0.0 < p < 1.0 for p in self.prevalences):
            raise ValueError("prevalences must lie in (0, 1)")
        if abs(sum(self.review_count_probs) - 1.0) > 1e-9:
            raise ValueError("review_count_probs must sum to 1")

    def resolved_ehr_signal(self) -> np.ndarray:
        if self.ehr_signal is not None:
            signal = np.asarray(self.ehr_signal, dtype=float)
        else:
            # each diagnosis shifts three dedicated variables
            signal = np.zeros((3, self.n_numeric_vars))
            for k in range(3):
                cols = [c for c in range(3 * k, 3 * k + 3) if c < self.n_numeric_vars]
                signal[k, cols] = 0.6
        if signal.shape != (3, self.n_numeric_vars):
            raise ValueError("ehr_signal must be shaped (3, n_numeric_vars)")
        return signal

    def resolved_emb_signal(self) -> np.ndarray:
        if self.emb_signal is not None:
            signal = np.asarray(self.emb_signal, dtype=float)
        else:
            # each diagnosis shifts four dedicated embedding dimensions
            signal = np.zeros((3, self.emb_dim))
            for k in range(3):
                cols = [c for c in range(4 * k, 4 * k + 4) if c < self.emb_dim]
                signal[k, cols] = 0.5
        if signal.shape != (3, self.emb_dim):
            raise ValueError("emb_signal must be shaped (3, emb_dim)")
        return signal


@dataclass
class SynthCohort:
    stays: list[PatientStay]
    embeddings: dict[str, ImageEmbedding]
    truth: dict[str, tuple[bool, bool, bool]]
    ruleset: PhenotypeRuleset = field(default_factory=default_ruleset)


def _half_point(value: float) -> float:
    return float(np.floor(value * 2.0 + 0.5)) / 2.0


def generate(spec: SynthSpec) -> SynthCohort:
    """Generate a cohort that passes every inclusion rule, with known labels.

    Per patient, in fixed draw order: diagnosis bits, onset time, support
    kind, study-time offset, numeric values, missingness mask, review count,
    ratings, and the embedding. The single seeded generator makes the whole
    cohort reproducible byte for byte.
    """
    rng = np.random.default_rng(spec.seed)
    ehr_signal = spec.resolved_ehr_signal()
    emb_signal = spec.resolved_emb_signal()
    ruleset = default_ruleset()
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
        z = (rng.random(3) < np.asarray(spec.prevalences)).astype(float)

        admit = 0
        onset = int(rng.integers(6 * MINUTES_PER_HOUR, 24 * MINUTES_PER_HOUR))
        kind = support_kinds[int(rng.integers(0, 3))]
        study_time = onset + int(rng.integers(-120, 121))

        events: list[ObservationEvent] = []
        mu = ehr_signal.T @ z  # (n_numeric_vars,)
        values = rng.normal(mu, 1.0)
        p_missing = float(np.clip(spec.missing_base + np.dot(spec.missing_shift, z), 0.0, 1.0))
        missing_mask = rng.random(spec.n_numeric_vars) < p_missing
        for v_idx, name in enumerate(var_names):
            t = int(rng.integers(admit, onset))
            if missing_mask[v_idx]:
                continue
            events.append(ObservationEvent(variable=name, time=t, value=float(values[v_idx])))
        events.append(ObservationEvent(variable="gender", time=admit, value=genders[int(rng.integers(0, 2))]))
        events.append(ObservationEvent(variable="race", time=admit, value=races[int(rng.integers(0, 3))]))

        n_reviews = int(rng.choice([1, 2, 3, 4], p=spec.review_count_probs))
        reviews = []
        for r_idx in range(n_reviews):
            scores = {}
            for d_idx, diag in enumerate(DIAGNOSES):
                raw = 1.0 + 3.0 * (1.0 - z[d_idx]) + rng.normal(0.0, spec.reviewer_noise)
                scores[diag] = min(max(_half_point(raw), 1.0), 4.0)
            reviews.append(ChartReview(reviewer_id=f"rev{r_idx}", scores=scores))

        codes: set[str] = set()
        meds: set[str] = set()
        for d_idx, diag in enumerate(DIAGNOSES):
            if z[d_idx]:
                codes.add(sorted(ruleset.rules[diag].icd_codes)[0])
                meds.add(sorted(ruleset.rules[diag].medications)[0])

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
