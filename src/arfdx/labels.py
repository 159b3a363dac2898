"""Diagnosis labels from physician chart reviews and from coded data.

Two label routes exist: averaging 1-4 likelihood ratings from independent
chart reviews, and a rule joining discharge diagnosis codes with disease-
specific medication administration. This module also measures inter-rater
agreement and prepares the held-out-reviewer benchmark used to compare
models against a single physician.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from ._util import atomic_write_text

DIAGNOSES = ("pneumonia", "heart_failure", "copd")

# Rating scale runs 1 (very likely) to 4 (unlikely); a diagnosis is assigned
# when the mean rating is strictly below the scale midpoint.
RATING_MIN = 1.0
RATING_MAX = 4.0
ASSIGN_BELOW = 2.5

SOURCE_CHART_REVIEW = "chart_review"
SOURCE_CODE_MED = "code_med"


class LabelError(ValueError):
    """Base class for label-derivation failures."""


class NoReviews(LabelError):
    pass


class TooFewReviews(LabelError):
    pass


class DegenerateMarginals(LabelError):
    pass


@dataclass(frozen=True)
class ChartReview:
    """One physician's likelihood ratings for all three diagnoses."""

    reviewer_id: str
    scores: Mapping[str, float]

    def __post_init__(self):
        for diag in DIAGNOSES:
            if diag not in self.scores:
                raise LabelError(f"review {self.reviewer_id!r} missing rating for {diag!r}")
            rating = self.scores[diag]
            if not (RATING_MIN <= float(rating) <= RATING_MAX):
                raise LabelError(
                    f"review {self.reviewer_id!r} rating {rating!r} for {diag!r} "
                    f"outside [{RATING_MIN}, {RATING_MAX}]"
                )

    def binary_call(self, diagnosis: str) -> bool:
        """This reviewer's own yes/no call: rating strictly below the midpoint."""
        return float(self.scores[diagnosis]) < ASSIGN_BELOW


@dataclass(frozen=True)
class DiagnosisLabels:
    pneumonia: bool
    heart_failure: bool
    copd: bool
    source: str

    def __getitem__(self, diagnosis: str) -> bool:
        if diagnosis not in DIAGNOSES:
            raise KeyError(diagnosis)
        return getattr(self, diagnosis)

    def as_tuple(self) -> tuple[bool, bool, bool]:
        return (self.pneumonia, self.heart_failure, self.copd)


@dataclass(frozen=True)
class PhenotypeRule:
    icd_codes: frozenset[str]
    medications: frozenset[str]

    def __post_init__(self):
        if not self.icd_codes or not self.medications:
            raise LabelError("phenotype rule needs at least one code and one medication")


@dataclass(frozen=True)
class PhenotypeRuleset:
    """Per-diagnosis ICD-10 code and medication lists.

    Codes are matched exactly after uppercasing, with dots preserved as
    printed; medication matching is case-insensitive exact.
    """

    rules: Mapping[str, PhenotypeRule]

    def __post_init__(self):
        for diag in DIAGNOSES:
            if diag not in self.rules:
                raise LabelError(f"ruleset missing diagnosis {diag!r}")


def normalize_code(code: str) -> str:
    return code.strip().upper()


def normalize_medication(med: str) -> str:
    return med.strip().upper()


def load_ruleset(path) -> PhenotypeRuleset:
    """Load a ruleset from JSON: {"pneumonia": {"icd": [...], "medications": [...]}, ...}."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    rules = {}
    for diag in DIAGNOSES:
        if diag not in raw:
            raise LabelError(f"ruleset file missing diagnosis {diag!r}")
        entry = raw[diag]
        rules[diag] = PhenotypeRule(
            icd_codes=frozenset(normalize_code(c) for c in entry["icd"]),
            medications=frozenset(normalize_medication(m) for m in entry["medications"]),
        )
    return PhenotypeRuleset(rules=rules)


def save_ruleset(path, ruleset: PhenotypeRuleset, provenance: Optional[str] = None) -> None:
    payload: dict[str, object] = {
        diag: {
            "icd": sorted(rule.icd_codes),
            "medications": sorted(rule.medications),
        }
        for diag, rule in ((d, ruleset.rules[d]) for d in DIAGNOSES)
    }
    if provenance is not None:
        payload["_provenance"] = provenance
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def aggregate_reviews(reviews: Sequence[ChartReview]) -> DiagnosisLabels:
    """Consensus labels: assign a diagnosis when the mean rating is < 2.5 (strict)."""
    if not reviews:
        raise NoReviews("cannot aggregate an empty review list")
    assigned = {}
    for diag in DIAGNOSES:
        mean = sum(float(r.scores[diag]) for r in reviews) / len(reviews)
        assigned[diag] = mean < ASSIGN_BELOW
    return DiagnosisLabels(source=SOURCE_CHART_REVIEW, **assigned)


def code_med_label(stay, ruleset: PhenotypeRuleset) -> DiagnosisLabels:
    """Assign a diagnosis when the stay has a matching code AND a matching medication.

    `stay` needs `icd_codes` and `medications` attributes (sets of strings).
    """
    codes = {normalize_code(c) for c in stay.icd_codes}
    meds = {normalize_medication(m) for m in stay.medications}
    assigned = {}
    for diag in DIAGNOSES:
        rule = ruleset.rules[diag]
        assigned[diag] = bool(codes & rule.icd_codes) and bool(meds & rule.medications)
    return DiagnosisLabels(source=SOURCE_CODE_MED, **assigned)


@dataclass(frozen=True)
class AgreementResult:
    kappa: Optional[float]  # None when chance agreement is 1 (unanimous one-sided calls)
    raw_agreement: float
    table: tuple[float, float, float, float]  # (a, b, c, d): ++, +-, -+, --
    n_pairs: float


def kappa_from_table(a: float, b: float, c: float, d: float) -> tuple[float, float]:
    """Cohen's kappa and raw agreement from a pooled 2x2 table.

    kappa = (p_o - p_e) / (1 - p_e), p_o the diagonal fraction and p_e the
    chance agreement from the marginals.
    """
    n = a + b + c + d
    if n <= 0:
        raise LabelError("empty agreement table")
    p_o = (a + d) / n
    p_yes_row = (a + b) / n
    p_yes_col = (a + c) / n
    p_e = p_yes_row * p_yes_col + (1.0 - p_yes_row) * (1.0 - p_yes_col)
    if p_e == 1.0:
        raise DegenerateMarginals("chance agreement is 1; kappa undefined")
    return (p_o - p_e) / (1.0 - p_e), p_o


def pooled_table(patient_reviews: Sequence[Sequence[ChartReview]], diagnosis: str) -> tuple[int, int, int, int]:
    """Pool within-patient reviewer pairs into one 2x2 table for a diagnosis.

    Every unordered reviewer pair enters the table in both orders, which
    makes the table symmetric without changing the observed or expected
    agreement. Each reviewer's binary call applies the same strictly-below-
    2.5 rule as the consensus, to their single rating.
    """
    a = b = c = d = 0
    for reviews in patient_reviews:
        calls = [r.binary_call(diagnosis) for r in reviews]
        for i in range(len(calls)):
            for j in range(len(calls)):
                if i == j:
                    continue
                if calls[i] and calls[j]:
                    a += 1
                elif calls[i] and not calls[j]:
                    b += 1
                elif not calls[i] and calls[j]:
                    c += 1
                else:
                    d += 1
    return a, b, c, d


def rater_agreement(patient_reviews: Sequence[Sequence[ChartReview]]) -> dict[str, AgreementResult]:
    """Pooled-pairs kappa and raw agreement per diagnosis; kappa is None where
    the marginals leave it undefined, and raw agreement is still reported."""
    if not any(len(reviews) >= 2 for reviews in patient_reviews):
        raise LabelError("agreement needs at least one patient with two or more reviews")
    results = {}
    for diag in DIAGNOSES:
        a, b, c, d = pooled_table(patient_reviews, diag)
        try:
            kappa, raw = kappa_from_table(a, b, c, d)
        except DegenerateMarginals:
            kappa, raw = None, (a + d) / (a + b + c + d)
        results[diag] = AgreementResult(
            kappa=kappa, raw_agreement=raw, table=(a, b, c, d), n_pairs=(a + b + c + d) / 2.0
        )
    return results


@dataclass(frozen=True)
class PhysicianBenchmark:
    held_out: ChartReview
    ordinal_scores: Mapping[str, float]  # 5 - rating; higher = more likely
    consensus: DiagnosisLabels


def physician_benchmark(reviews: Sequence[ChartReview], rng: np.random.Generator) -> PhysicianBenchmark:
    """Hold out one review at random; consensus comes from the remainder.

    The held-out reviewer's prediction score per diagnosis is 5 - rating,
    so higher scores mean the physician considered the diagnosis more
    likely. Requires three or more reviews so the remaining consensus still
    averages at least two opinions.
    """
    if len(reviews) < 3:
        raise TooFewReviews(f"need >=3 reviews, got {len(reviews)}")
    held_idx = int(rng.integers(0, len(reviews)))
    held = reviews[held_idx]
    rest = [r for i, r in enumerate(reviews) if i != held_idx]
    return PhysicianBenchmark(
        held_out=held,
        ordinal_scores={diag: 5.0 - float(held.scores[diag]) for diag in DIAGNOSES},
        consensus=aggregate_reviews(rest),
    )
