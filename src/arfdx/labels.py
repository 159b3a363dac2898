"""Diagnosis labels from physician chart reviews and from coded data.

Two label routes exist: averaging 1-4 likelihood ratings from independent
chart reviews, and a rule joining discharge diagnosis codes with disease-
specific medication administration. `label_rows` holds the choice between
them: the chart-review consensus when a stay has reviews, else code+medication.
This module also measures inter-rater agreement (`rater_agreement`, the rows
of `agreement.csv`); `evaluation.physician_comparison` holds out one reviewer
against the consensus of the rest.
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

_RATING_TYPES = (int, float, np.floating)

SOURCE_CHART_REVIEW = "chart_review"
SOURCE_CODE_MED = "code_med"


class LabelError(ValueError):
    """Base class for label-derivation failures."""


class NoReviews(LabelError):
    pass


class DegenerateMarginals(LabelError):
    pass


@dataclass(frozen=True)
class ChartReview:
    """One physician's likelihood ratings for all three diagnoses.

    The one home of a review's shape: a non-empty string reviewer id, and a
    dict rating exactly the `DIAGNOSES`, each a number on the rating scale."""

    reviewer_id: str
    scores: dict[str, float]

    def __post_init__(self):
        if type(self.reviewer_id) is not str or self.reviewer_id == "":
            raise LabelError("reviewer_id missing or empty")
        if type(self.scores) is not dict:
            raise LabelError(f"review {self.reviewer_id!r} scores must be an object")
        for diag in DIAGNOSES:
            if diag not in self.scores:
                raise LabelError(f"review {self.reviewer_id!r} missing rating for {diag!r}")
            rating = self.scores[diag]
            # a rating is a number: bool is an int subclass and must not read as 1
            if type(rating) is bool or not isinstance(rating, _RATING_TYPES):
                raise LabelError(f"review {self.reviewer_id!r} rating {rating!r} for {diag!r} is not a number")
            # compared as given: an int too large for a float is outside the scale, not an OverflowError
            if not (RATING_MIN <= rating <= RATING_MAX):
                raise LabelError(
                    f"review {self.reviewer_id!r} rating {rating!r} for {diag!r} "
                    f"outside [{RATING_MIN}, {RATING_MAX}]"
                )
        if len(self.scores) != len(DIAGNOSES):
            unknown = next(key for key in self.scores if key not in DIAGNOSES)
            raise LabelError(f"review {self.reviewer_id!r} rates {unknown!r}, which is not a diagnosis")

    def binary_call(self, diagnosis: str) -> bool:
        """This reviewer's own yes/no call: rating strictly below the midpoint."""
        return float(self.scores[diagnosis]) < ASSIGN_BELOW


@dataclass(frozen=True)
class DiagnosisLabels:
    pneumonia: bool
    heart_failure: bool
    copd: bool

    def __getitem__(self, diagnosis: str) -> bool:
        if diagnosis not in DIAGNOSES:
            raise KeyError(diagnosis)
        return getattr(self, diagnosis)


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


def normalize(term: str) -> str:
    """An ICD code or a medication as the rules match it."""
    return term.strip().upper()


_RULE_KEYS = ("icd", "medications")


def load_ruleset(path) -> PhenotypeRuleset:
    """Load a ruleset from JSON: {"pneumonia": {"icd": [...], "medications": [...]}, ...}.

    Each diagnosis maps to an object of exactly those two keys, each a
    non-empty list of strings; besides the diagnoses only `save_ruleset`'s
    `_provenance` may appear. Anything else is a `LabelError` naming the
    file, and the diagnosis and key at fault.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise LabelError(f"ruleset {path} is not JSON ({exc})") from exc
    if type(raw) is not dict:
        raise LabelError(f"ruleset {path} is not a JSON object")
    unknown = sorted(raw.keys() - {*DIAGNOSES, "_provenance"})
    if unknown:
        raise LabelError(f"ruleset {path} has unknown key {unknown[0]!r}; the diagnoses are {', '.join(DIAGNOSES)}")
    rules = {}
    for diag in DIAGNOSES:
        where = f"ruleset {path} diagnosis {diag!r}"
        if diag not in raw:
            raise LabelError(f"{where} is missing")
        entry = raw[diag]
        if type(entry) is not dict or entry.keys() != set(_RULE_KEYS):
            keys = sorted(entry) if type(entry) is dict else type(entry).__name__
            raise LabelError(f"{where} must be an object of the keys 'icd' and 'medications', not {keys}")
        for key in _RULE_KEYS:
            terms = entry[key]
            if type(terms) is not list or not terms or any(type(term) is not str for term in terms):
                raise LabelError(f"{where} key {key!r} must be a non-empty list of strings, not {terms!r}")
        rules[diag] = PhenotypeRule(*(frozenset(map(normalize, entry[key])) for key in _RULE_KEYS))
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
    return DiagnosisLabels(**assigned)


def code_med_label(stay, ruleset: PhenotypeRuleset) -> DiagnosisLabels:
    """Assign a diagnosis when the stay has a matching code AND a matching medication.

    `stay` needs `icd_codes` and `medications` attributes (sets of strings).
    """
    codes = set(map(normalize, stay.icd_codes))
    meds = set(map(normalize, stay.medications))
    assigned = {}
    for diag in DIAGNOSES:
        rule = ruleset.rules[diag]
        assigned[diag] = bool(codes & rule.icd_codes) and bool(meds & rule.medications)
    return DiagnosisLabels(**assigned)


def label_rows(stay, ruleset: PhenotypeRuleset) -> list[list]:
    """The stay's `labels.csv` rows, one per diagnosis: patient_id, diagnosis,
    chart-review consensus (None without reviews), code+medication label, the
    label used and its source. The label is the chart-review consensus when the
    stay has reviews, else the code+medication rule."""
    chart = aggregate_reviews(stay.reviews) if stay.reviews else None
    codemed = code_med_label(stay, ruleset)
    used, source = (codemed, SOURCE_CODE_MED) if chart is None else (chart, SOURCE_CHART_REVIEW)
    return [[stay.patient_id, diag, None if chart is None else int(chart[diag]), int(codemed[diag]), int(used[diag]),
             source] for diag in DIAGNOSES]


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
    a = mixed = d = 0
    for reviews in patient_reviews:
        # k reviews, p yes-calls: ordered pairs of distinct reviewers, counted by their calls
        k = len(reviews)
        p = sum(r.binary_call(diagnosis) for r in reviews)
        a += p * (p - 1)
        mixed += p * (k - p)
        d += (k - p) * (k - p - 1)
    return a, mixed, mixed, d


def rater_agreement(patient_reviews: Sequence[Sequence[ChartReview]]) -> list[list]:
    """The `agreement.csv` rows: per diagnosis, pooled-pairs kappa, raw
    agreement and the number of reviewer pairs. Kappa is None where the
    marginals leave it undefined (unanimous one-sided calls), and raw agreement
    is still reported.

    Only a patient with two or more reviews adds pairs. With no such patient
    the table is empty: kappa and raw agreement are None and `n_pairs` is 0.
    """
    rows = []
    for diag in DIAGNOSES:
        a, b, c, d = pooled_table(patient_reviews, diag)
        n = a + b + c + d
        kappa = raw = None
        if n:
            try:
                kappa, raw = kappa_from_table(a, b, c, d)
            except DegenerateMarginals:
                raw = (a + d) / n
        rows.append([diag, kappa, raw, n / 2.0 if n else 0])
    return rows
