import copy
import gc
import json

import pytest
from hypothesis import given, settings, strategies as st

from arfdx.cohort import (
    MINUTES_PER_DAY,
    MINUTES_PER_HOUR,
    CohortConfig,
    CohortError,
    ImagingStudy,
    NoStudy,
    ObservationEvent,
    OnsetRequired,
    PatientStay,
    SupportKind,
    detect_arf_onset,
    exclude_surgical,
    include_stay,
    load_cohort,
    observation_window,
    parse_stay,
    select_study,
    stay_to_json,
    window_values,
)
from oracles import latest_value_reference, parse_stay_reference

H = MINUTES_PER_HOUR
D = MINUTES_PER_DAY


def make_stay(support=(), studies=(), units=(), admit=0, pid="p1"):
    return PatientStay(
        patient_id=pid,
        admit_time=admit,
        support_events=list(support),
        studies=[ImagingStudy(study_id=f"s{i}", time=t, image_refs=(f"img{i}",)) for i, t in enumerate(studies)],
        unit_intervals=list(units),
    )


class TestDetectOnset:
    def test_no_support_events(self):
        assert detect_arf_onset(make_stay()) is None

    def test_single_event(self):
        assert detect_arf_onset(make_stay(support=[(300, SupportKind.NIV)])) == 300

    def test_earliest_qualifying_event_wins(self):
        stay = make_stay(support=[(500, SupportKind.IMV), (120, SupportKind.HFNC)])
        assert detect_arf_onset(stay) == 120

    @given(st.permutations([(500, SupportKind.IMV), (120, SupportKind.HFNC), (900, SupportKind.NIV)]))
    def test_permutation_invariant(self, events):
        assert detect_arf_onset(make_stay(support=events)) == 120


class TestIncludeStay:
    cfg = CohortConfig()

    def test_onset_day_two_with_study(self):
        stay = make_stay(support=[(2 * D, SupportKind.IMV)], studies=[2 * D])
        assert include_stay(stay, self.cfg) is True

    def test_onset_day_nine_excluded(self):
        stay = make_stay(support=[(9 * D, SupportKind.IMV)], studies=[9 * D])
        assert include_stay(stay, self.cfg) is False

    def test_zero_studies_excluded(self):
        stay = make_stay(support=[(2 * D, SupportKind.IMV)])
        assert include_stay(stay, self.cfg) is False

    def test_no_onset_excluded(self):
        assert include_stay(make_stay(studies=[100]), self.cfg) is False

    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=10 * D), st.sampled_from(list(SupportKind))),
            max_size=4,
        ),
        st.lists(st.integers(min_value=0, max_value=10 * D), max_size=3),
    )
    def test_include_implies_onset(self, support, study_times):
        stay = make_stay(support=support, studies=study_times)
        if include_stay(stay, self.cfg):
            assert detect_arf_onset(stay) is not None


class TestExcludeSurgical:
    cfg = CohortConfig()

    def test_onset_inside_surgical_interval(self):
        stay = make_stay(support=[(500, SupportKind.NIV)], units=[("SURG", 0, 1000)])
        assert exclude_surgical(stay, self.cfg) is True

    def test_ten_hours_after_leaving(self):
        stay = make_stay(support=[(1000 + 10 * H, SupportKind.NIV)], units=[("SURG", 0, 1000)])
        assert exclude_surgical(stay, self.cfg) is True

    def test_thirty_hours_after_leaving(self):
        stay = make_stay(support=[(1000 + 30 * H, SupportKind.NIV)], units=[("SURG", 0, 1000)])
        assert exclude_surgical(stay, self.cfg) is False

    def test_non_surgical_unit_ignored(self):
        stay = make_stay(support=[(500, SupportKind.NIV)], units=[("MICU", 0, 1000)])
        assert exclude_surgical(stay, self.cfg) is False

    def test_requires_onset(self):
        with pytest.raises(OnsetRequired):
            exclude_surgical(make_stay(units=[("SURG", 0, 10)]), self.cfg)


class TestObservationWindow:
    def test_onset_after_24h_window_runs_to_onset(self):
        stay = make_stay(support=[(30 * H, SupportKind.IMV)])
        assert observation_window(stay) == (0, 30 * H)

    def test_onset_within_24h_window_is_24h(self):
        stay = make_stay(support=[(10 * H, SupportKind.IMV)])
        assert observation_window(stay) == (0, 24 * H)

    def test_boundary_exactly_24h(self):
        stay = make_stay(support=[(24 * H, SupportKind.IMV)])
        assert observation_window(stay) == (0, 24 * H)

    def test_missing_onset_raises(self):
        with pytest.raises(OnsetRequired):
            observation_window(make_stay())

    @given(st.integers(min_value=1, max_value=20 * D), st.integers(min_value=0, max_value=5 * D))
    def test_window_at_least_24h_and_anchored(self, onset_offset, admit):
        stay = make_stay(support=[(admit + onset_offset, SupportKind.HFNC)], admit=admit)
        start, end = observation_window(stay)
        assert start == admit
        assert end - start >= MINUTES_PER_DAY
        assert end == admit + onset_offset or end == admit + MINUTES_PER_DAY


def windowed(events):
    """`window_values` of a stay whose onset at 3 h gives it the 24 h minimum
    window, minutes 0..D."""
    stay = make_stay(support=[(3 * H, SupportKind.IMV)])
    stay.events = [ObservationEvent(variable, time, value) for variable, time, value in events]
    return window_values(stay)


class TestWindowValues:
    def test_latest_in_window_wins(self):
        assert windowed([("hr", 8 * H, 80.0), ("hr", 16 * H, 95.0)]) == {"hr": 95.0}

    def test_no_events_for_variable(self):
        assert "hr" not in windowed([("sbp", H, 120.0)])

    def test_event_outside_window_ignored(self):
        assert windowed([("hr", 8 * H, 80.0), ("hr", D + 2 * H, 90.0)]) == {"hr": 80.0}

    def test_variable_recorded_only_outside_window_maps_to_none(self):
        assert windowed([("hr", D + 2 * H, 90.0), ("sbp", H, 120.0)]) == {"hr": None, "sbp": 120.0}

    def test_equal_times_take_later_listed(self):
        assert windowed([("hr", 8 * H, 80.0), ("hr", 8 * H, 85.0), ("hr", 4 * H, 70.0)]) == {"hr": 85.0}

    def test_window_bounds_inclusive(self):
        assert windowed([("hr", 0, 70.0)]) == {"hr": 70.0}
        assert windowed([("hr", D, 71.0), ("sbp", D + 1, 1.0)]) == {"hr": 71.0, "sbp": None}

    def test_int_float_and_token_values_keep_their_type(self):
        window = windowed([("gcs", H, 15), ("temp", H, 37.5), ("rhythm", H, "afib"), ("o2", H, None)])
        assert window == {"gcs": 15, "temp": 37.5, "rhythm": "afib", "o2": None}
        assert [type(window[v]) for v in ("gcs", "temp")] == [int, float]

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.integers(0, 28).map(lambda hours: hours * H),
                st.integers(-3, 3) | st.none(),
            ),
            max_size=12,
        )
    )
    def test_matches_per_variable_scan(self, events):
        window = windowed(events)
        stay_events = [ObservationEvent(*event) for event in events]
        assert set(window) == {variable for variable, _, _ in events}
        for variable, value in window.items():
            assert value == latest_value_reference(stay_events, variable, (0, D))


class TestSelectStudy:
    def test_nearest_study_wins(self):
        stay = make_stay(support=[(10 * H, SupportKind.IMV)], studies=[8 * H, 11 * H])
        assert select_study(stay).time == 11 * H

    def test_single_study(self):
        stay = make_stay(support=[(10 * H, SupportKind.IMV)], studies=[3 * H])
        assert select_study(stay).time == 3 * H

    def test_tie_prefers_pre_onset(self):
        stay = make_stay(support=[(10 * H, SupportKind.IMV)], studies=[9 * H, 11 * H])
        assert select_study(stay).time == 9 * H

    def test_no_studies_raises(self):
        with pytest.raises(NoStudy):
            select_study(make_stay(support=[(10, SupportKind.IMV)]))

    @given(st.permutations([5 * H, 9 * H, 11 * H, 26 * H]))
    def test_permutation_invariant(self, times):
        stay = make_stay(support=[(10 * H, SupportKind.IMV)], studies=times)
        assert select_study(stay).time == 9 * H


class TestIngestion:
    def good_record(self):
        return {
            "patient_id": "p1",
            "admit_time": 0,
            "events": [{"variable": "hr", "time": 30, "value": 88.0}],
            "support_events": [[300, "bipap mask"]],
            "studies": [{"study_id": "s1", "time": 200, "image_refs": ["s1-i0"]}],
            "unit_intervals": [["MICU", 0, 900]],
            "reviews": [
                {"reviewer_id": "r1", "scores": {"pneumonia": 1, "heart_failure": 4, "copd": 3.5}}
            ],
            "icd_codes": ["J18.9"],
            "medications": ["VANCOMYCIN 1 GM IVPB"],
        }

    def test_alias_mapping(self):
        stay = parse_stay(self.good_record())
        assert stay.support_events == [(300, SupportKind.NIV)]

    def test_unknown_support_kind_rejected(self):
        record = self.good_record()
        record["support_events"] = [[300, "room air"]]
        with pytest.raises(CohortError, match="room air"):
            parse_stay(record)

    def test_event_before_admission_rejected(self):
        record = self.good_record()
        record["events"][0]["time"] = -5
        with pytest.raises(CohortError, match="precedes admission"):
            parse_stay(record)

    def test_overlapping_unit_intervals_rejected(self):
        record = self.good_record()
        record["unit_intervals"] = [["MICU", 0, 500], ["MICU", 400, 900]]
        with pytest.raises(CohortError, match="overlapping"):
            parse_stay(record)

    def test_non_finite_value_rejected(self):
        record = self.good_record()
        record["events"][0]["value"] = float("nan")
        with pytest.raises(CohortError, match="finite"):
            parse_stay(record)

    @pytest.mark.parametrize("patient_id", ["p\n1", "p\r1", "p\u20281", "p\x001", "p\t1"])
    def test_unprintable_patient_id_rejected(self, patient_id):
        # a line break in it would split its `labels.csv` and `splits.csv` rows
        with pytest.raises(CohortError, match="unprintable"):
            parse_stay({**self.good_record(), "patient_id": patient_id})

    def test_round_trip(self):
        stay = parse_stay(self.good_record())
        again = parse_stay(json.loads(stay_to_json(stay)))
        assert stay_to_json(again) == stay_to_json(stay)

    @pytest.mark.parametrize("n_events", [0, 1, 63, 64, 65, 128, 200])
    def test_line_is_one_dumps_of_the_record(self, n_events):
        # stay_to_json encodes events in blocks of 64; the line must not show it
        record = self.good_record()
        values = [None, "clear", 3, -0.5, 1e300]
        record["events"] = [
            {"variable": f"v{i % 7}", "time": 10 + i, "value": values[i % len(values)]}
            for i in range(n_events)
        ]
        stay = parse_stay(record)
        record["support_events"] = [[300, "NIV"]]
        assert stay_to_json(stay) == json.dumps(record, sort_keys=True, separators=(",", ":"))

    def test_load_writes_rejects_sidecar(self, tmp_path):
        path = tmp_path / "cohort.ndjson"
        lines = [
            "# provenance header is skipped",
            json.dumps(self.good_record()),
            "{not json",
            json.dumps({"admit_time": 0}),  # missing patient_id
        ]
        path.write_text("".join(line + "\n" for line in lines))
        assert [s.patient_id for s in load_cohort(path)] == ["p1"]
        assert [p.name for p in tmp_path.iterdir()] == ["cohort.ndjson"]  # no sidecar unless asked for
        stays = load_cohort(path, rejects_path=tmp_path / "rejects.txt")
        assert [s.patient_id for s in stays] == ["p1"]
        rejects = (tmp_path / "rejects.txt").read_text().splitlines()
        assert len(rejects) == 2
        assert rejects[0].startswith("line 3:")
        assert rejects[1].startswith("line 4:")
        assert "patient_id" in rejects[1]

    def test_line_that_is_not_utf8_is_a_rejected_line(self, tmp_path):
        path = tmp_path / "cohort.ndjson"
        lines = [json.dumps({**self.good_record(), "patient_id": pid}).encode() for pid in ("p1", "p2", "p3")]
        lines[1] = lines[1].replace(b'"p2"', b'"p2\xff\xfe"')
        path.write_bytes(b"# header\n" + b"".join(line + b"\n" for line in lines))
        stays = load_cohort(path, rejects_path=tmp_path / "rejects.txt")
        assert [s.patient_id for s in stays] == ["p1", "p3"]
        assert (tmp_path / "rejects.txt").read_text().splitlines() == ["line 3: not UTF-8"]

    @pytest.mark.parametrize(
        "path, bad",
        [
            (("events",), [1]),
            (("events",), None),
            (("events",), {"variable": "hr", "time": 30, "value": 88.0}),
            (("studies",), ["x"]),
            (("reviews",), [5]),
            (("icd_codes",), 5),
            (("support_events",), None),
            (("studies", 0, "image_refs"), 5),
            (("studies", 0, "image_refs"), [7, None]),
            (("studies", 0, "image_refs", 0), ""),
            (("studies", 0, "image_refs", 0), ["s1-i1"]),
            (("admit_time",), True),
            (("events", 0, "time"), True),
            (("support_events", 0, 0), True),
            (("studies", 0, "time"), False),
            (("unit_intervals", 0, 2), True),
            (("events", 0, "value"), [88.0]),
            (("events", 0, "value"), {"value": 88.0}),
            (("events", 0, "value"), 10**400),
            (("reviews", 0, "scores", "copd"), "high"),
            (("unit_intervals", 0, 0), None),
            (("unit_intervals", 0, 0), 7),
            (("icd_codes",), [7, None]),
            (("medications",), [None]),
            (("reviews", 0, "reviewer_id"), None),
            (("reviews", 0, "reviewer_id"), ""),
            (("reviews", 0, "reviewer_id"), 5),
            (("reviews", 0), {"scores": {"pneumonia": 1, "heart_failure": 4, "copd": 3.5}}),
            (("reviews", 0, "scores"), [["pneumonia", 1], ["heart_failure", 4], ["copd", 3.5]]),
            (("reviews", 0, "scores", "extra"), "x"),
        ],
        ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else type(v).__name__,
    )
    def test_malformed_nested_record_rejected(self, tmp_path, path, bad):
        record = self.good_record()
        record["patient_id"] = "p2"
        parent = record
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = bad
        cohort_path = tmp_path / "cohort.ndjson"
        cohort_path.write_text(json.dumps(self.good_record()) + "\n" + json.dumps(record) + "\n")
        stays = load_cohort(cohort_path, rejects_path=tmp_path / "rejects.txt")
        assert [s.patient_id for s in stays] == ["p1"]
        rejects = (tmp_path / "rejects.txt").read_text().splitlines()
        assert len(rejects) == 1 and rejects[0].startswith("line 2: ")

    @pytest.mark.parametrize("rating", [True, "3"], ids=["bool", "numeric-string"])
    def test_non_number_rating_is_a_rejected_line(self, tmp_path, rating):
        record = self.good_record()
        record["patient_id"] = "p2"
        record["reviews"][0]["scores"]["heart_failure"] = rating
        cohort_path = tmp_path / "cohort.ndjson"
        cohort_path.write_text(json.dumps(self.good_record()) + "\n" + json.dumps(record) + "\n")
        stays = load_cohort(cohort_path, rejects_path=tmp_path / "rejects.txt")
        assert [s.patient_id for s in stays] == ["p1"]
        assert (tmp_path / "rejects.txt").read_text().splitlines() == [
            f"line 2: bad chart review: review 'r1' rating {rating!r} for 'heart_failure' is not a number"
        ]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_load_restores_collector_state(self, tmp_path, enabled):
        path = tmp_path / "cohort.ndjson"
        record = json.dumps(self.good_record())
        path.write_text(record + "\n" + record + "\n")
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            with pytest.raises(CohortError, match="duplicate"):
                load_cohort(path)
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_duplicate_patient_id_names_both_lines(self, tmp_path):
        path = tmp_path / "cohort.ndjson"
        record = json.dumps(self.good_record())
        path.write_text("".join(line + "\n" for line in ("# header", record, "{not json", record)))
        with pytest.raises(CohortError, match=r"duplicate patient_id 'p1' on lines 2 and 4"):
            load_cohort(path, rejects_path=tmp_path / "rejects.txt")


# --- parse_stay against the one-check-at-a-time reference ---------------------

BASE_RECORD = {
    "patient_id": "p1",
    "admit_time": 100,
    "events": [
        {"variable": "hr", "time": 130, "value": 88.0},
        {"variable": "gender", "time": 100, "value": "F"},
        {"variable": "lactate", "time": 200, "value": None},
        {"variable": "rr", "time": 250, "value": 22},
    ],
    "support_events": [[400, "bipap mask"], [900, "IMV"]],
    "studies": [
        {"study_id": "s1", "time": 300, "image_refs": ["s1-i0", "s1-i1"]},
        {"study_id": "s2", "time": 1000, "image_refs": ["s2-i0"]},
    ],
    "unit_intervals": [["MICU", 100, 500], ["MICU", 600, 900], ["SURG", 500, 600]],
    "reviews": [
        {"reviewer_id": "r1", "scores": {"pneumonia": 1, "heart_failure": 4, "copd": 3.5}},
        {"reviewer_id": "r2", "scores": {"pneumonia": 2, "heart_failure": 3, "copd": 1}},
    ],
    "icd_codes": ["J18.9", "I50.9"],
    "medications": ["VANCOMYCIN 1 GM IVPB"],
}
# wrong types, bools, NaN/Infinity, empty strings, times before admission (100)
BAD_VALUES = [
    None, True, False, 0, 99, -1, 2**1100, 1.5, float("nan"), float("inf"), float("-inf"),
    "", "x", "IMV", [], [1], ["a", 2], {}, {"a": 1},
]
LIST_FIELDS = ("events", "support_events", "studies", "unit_intervals", "reviews", "icd_codes", "medications")


def _paths(node, prefix=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_records(draw):
    """BASE_RECORD after 1-3 edits: a value replaced, a key or item deleted, or
    an item duplicated (a duplicated unit interval overlaps itself)."""
    record = copy.deepcopy(BASE_RECORD)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(record))))
        parent = record
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        edit = draw(st.sampled_from(("set", "delete", "duplicate")))
        if edit == "set":
            parent[key] = copy.deepcopy(draw(st.sampled_from(BAD_VALUES)))
        elif edit == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
    return record


def _rejected_only_now(record):
    """Whether `record` holds a shape the reference accepts and parse_stay
    rejects: a bool time, a list or object event value, or a list field that
    is not a JSON array."""
    if any(key in record and not isinstance(record[key], list) for key in LIST_FIELDS):
        return True
    times = [record.get("admit_time")]
    for event in record.get("events", []):
        if isinstance(event, dict):
            times.append(event.get("time"))
            if isinstance(event.get("value"), (list, dict)):
                return True
    for support in record.get("support_events", []):
        if isinstance(support, list) and len(support) == 2:
            times.append(support[0])
    for study in record.get("studies", []):
        if isinstance(study, dict):
            times.append(study.get("time"))
            if study.get("image_refs") and not isinstance(study["image_refs"], list):
                return True
    for interval in record.get("unit_intervals", []):
        if isinstance(interval, list) and len(interval) == 3:
            times.extend(interval[1:])
    return any(isinstance(t, bool) for t in times)


@settings(max_examples=400, deadline=None)
@given(mutated_records())
def test_parse_stay_matches_reference(record):
    try:
        expected = parse_stay_reference(copy.deepcopy(record))
    except CohortError as exc:
        expected = exc
    except Exception:  # the reference crashes on some malformed nested records
        expected = None
    if expected is None or _rejected_only_now(record):
        with pytest.raises(CohortError):
            parse_stay(record)
    elif isinstance(expected, CohortError):
        with pytest.raises(CohortError) as info:
            parse_stay(record)
        assert str(info.value) == str(expected)
    else:
        assert stay_to_json(parse_stay(record)) == stay_to_json(expected)
