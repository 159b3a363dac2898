"""Benchmark workloads: seeded pipeline inputs and what the outputs must show.

Each workload writes the three inputs the README's `synth` stage would write
(cohort NDJSON, `embeddings.bin`, `ruleset.json`) plus a `run.ini` that points
the later stages at them. `sweep` and `cohort_scale` are plain
`synth.generate` output; `dense_stays` is derived from it here, so the
program under test only ever sees the generated files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from arfdx import cohort, imaging, labels, synth
from arfdx.cohort import ImagingStudy, ObservationEvent, PatientStay
from arfdx.imaging import ImageEmbedding

HOUR = cohort.MINUTES_PER_HOUR


@dataclass(frozen=True)
class Workload:
    name: str
    n_patients: int
    learning_rates: str
    momentums: str
    weight_decays: str
    max_epochs: int
    explain_repeats: Optional[int]  # None keeps the CLI default
    dense: bool
    auroc_floor: float  # combined test macro AUROC (median over splits) must exceed this


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep",
            n_patients=2_000,
            learning_rates="1e-1, 1",
            momentums="0.9",
            weight_decays="1e-4",
            max_epochs=50,
            explain_repeats=3,
            dense=False,
            auroc_floor=0.75,
        ),
        Workload(
            name="cohort_scale",
            n_patients=4_000,
            learning_rates="0.1",
            momentums="0.9",
            weight_decays="1e-4",
            max_epochs=2,
            explain_repeats=1,
            dense=False,
            auroc_floor=0.76,
        ),
        Workload(
            name="dense_stays",
            n_patients=600,
            learning_rates="0.1",
            momentums="0.9",
            weight_decays="1e-4",
            max_epochs=5,
            explain_repeats=None,
            dense=True,
            auroc_floor=0.66,
        ),
    )
}

# dense_stays shape
OBS_PER_VARIABLE = 30
STUDIES_PER_STAY = 3
IMAGES_PER_STUDY = 3
P_NO_REVIEW = 0.10
P_SURGICAL = 0.05
P_MALFORMED = 0.01
OBS_NOISE = 0.3
IMAGE_NOISE = 0.5


@dataclass(frozen=True)
class Expected:
    """Counts the generated inputs imply for the pipeline's outputs."""

    generated: int
    rejected: int  # malformed lines
    excluded: int  # surgical origin
    fallback_labels: int  # included stays without reviews (code+medication label)

    @property
    def included(self) -> int:
        return self.generated - self.rejected - self.excluded


def _dense_stay(stay: PatientStay, vector: np.ndarray, rng: np.random.Generator,
                no_review: bool, surgical: bool) -> tuple[PatientStay, list[ImageEmbedding]]:
    """One synth stay made deep: repeated observations, 3 studies x 3 images."""
    onset = stay.support_events[0][0]
    events = []
    for event in stay.events:
        if not isinstance(event.value, float):
            events.append(event)  # categorical tokens stay single
            continue
        # observations spread from admission to 36 h after onset, so some
        # fall after onset and some outside the observation window
        times = np.sort(rng.integers(stay.admit_time, onset + 36 * HOUR, size=OBS_PER_VARIABLE))
        values = event.value + rng.normal(0.0, OBS_NOISE, size=OBS_PER_VARIABLE)
        events.extend(
            ObservationEvent(variable=event.variable, time=int(t), value=float(v))
            for t, v in zip(times, values)
        )

    nearest = stay.studies[0]
    studies = []
    embeddings = []
    for s_idx in range(STUDIES_PER_STAY):
        if s_idx == 0:
            time = nearest.time
        else:
            # later studies sit 6-24 h from onset, so the nearest one stays selected
            time = max(stay.admit_time, onset + int(rng.choice((-1, 1))) * int(rng.integers(6 * HOUR, 24 * HOUR)))
        refs = []
        for i_idx in range(IMAGES_PER_STUDY):
            image_id = f"{stay.patient_id}-s{s_idx}-i{i_idx}"
            noisy = vector + rng.normal(0.0, IMAGE_NOISE, size=vector.shape[0])
            embeddings.append(ImageEmbedding(study_image_id=image_id, vector=noisy.astype(np.float32)))
            refs.append(image_id)
        studies.append(ImagingStudy(study_id=f"{stay.patient_id}-s{s_idx}", time=time, image_refs=tuple(refs)))

    unit_intervals = list(stay.unit_intervals)
    if surgical:
        # a surgical stay ending just before onset: inside the post-surgical buffer
        unit_intervals.insert(0, ("SURG", max(stay.admit_time, onset - 3 * HOUR), onset - HOUR))
    deep = PatientStay(
        patient_id=stay.patient_id,
        admit_time=stay.admit_time,
        events=events,
        support_events=list(stay.support_events),
        studies=studies,
        unit_intervals=unit_intervals,
        reviews=[] if no_review else list(stay.reviews),
        icd_codes=set(stay.icd_codes),
        medications=set(stay.medications),
    )
    return deep, embeddings


def _malformed(line: str, rng: np.random.Generator) -> str:
    """Break one NDJSON line: truncated JSON, or a schema rule violation."""
    if rng.random() < 0.5:
        return line[: len(line) // 2]
    obj = json.loads(line)
    obj["admit_time"] = "not-a-minute"
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_inputs(workload: Workload, seed: int, dest: Path) -> Expected:
    """Generate the workload's inputs from `seed` and write them into `dest`."""
    dest.mkdir(parents=True, exist_ok=True)
    generated = synth.generate(synth.SynthSpec(n_patients=workload.n_patients, seed=seed))
    n = len(generated.stays)
    if not workload.dense:
        lines = [cohort.stay_to_json(stay) for stay in generated.stays]
        embeddings = [generated.embeddings[key] for key in sorted(generated.embeddings)]
        expected = Expected(generated=n, rejected=0, excluded=0, fallback_labels=0)
    else:
        rng = np.random.default_rng([seed, 1])
        n_malformed = round(P_MALFORMED * n)
        n_surgical = round(P_SURGICAL * n)
        n_no_review = round(P_NO_REVIEW * n)
        # disjoint roles, so every expected count is exact
        order = rng.permutation(n)
        malformed = set(order[:n_malformed].tolist())
        surgical = set(order[n_malformed : n_malformed + n_surgical].tolist())
        no_review = set(order[n_malformed + n_surgical : n_malformed + n_surgical + n_no_review].tolist())
        lines = []
        embeddings = []
        for i, stay in enumerate(generated.stays):
            vector = generated.embeddings[stay.studies[0].image_refs[0]].vector.astype(float)
            deep, images = _dense_stay(stay, vector, rng, i in no_review, i in surgical)
            line = cohort.stay_to_json(deep)
            lines.append(_malformed(line, rng) if i in malformed else line)
            embeddings.extend(images)
        embeddings.sort(key=lambda emb: emb.study_image_id)
        expected = Expected(generated=n, rejected=n_malformed, excluded=n_surgical, fallback_labels=n_no_review)

    (dest / "cohort.ndjson").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    (dest / "embeddings.bin").write_bytes(imaging.embeddings_to_bytes(embeddings))
    labels.save_ruleset(dest / "ruleset.json", generated.ruleset)
    return expected


def config_text(workload: Workload, seed: int, inputs: Path) -> str:
    """The run.ini for the six stages after `synth`; inputs are absolute paths."""
    inputs = inputs.resolve()
    lines = [
        "[run]",
        f"seed = {seed}",
        "",
        "[paths]",
        f"cohort = {inputs / 'cohort.ndjson'}",
        f"embeddings = {inputs / 'embeddings.bin'}",
        f"ruleset = {inputs / 'ruleset.json'}",
        "",
        "[train]",
        "families = ehr, image, combined",
        "",
        "[sweep]",
        f"learning_rates = {workload.learning_rates}",
        f"momentums = {workload.momentums}",
        f"weight_decays = {workload.weight_decays}",
        f"max_epochs = {workload.max_epochs}",
    ]
    if workload.explain_repeats is not None:
        lines += ["", "[explain]", f"repeats = {workload.explain_repeats}"]
    return "\n".join(lines) + "\n"
