import json

import pytest
from hypothesis import given, strategies as st

from arfdx.cohort import (
    MINUTES_PER_DAY,
    MINUTES_PER_HOUR,
    CohortConfig,
    CohortError,
    ImagingStudy,
    NoStudy,
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
)

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

    def test_round_trip(self):
        stay = parse_stay(self.good_record())
        again = parse_stay(json.loads(stay_to_json(stay)))
        assert stay_to_json(again) == stay_to_json(stay)

    def test_load_writes_rejects_sidecar(self, tmp_path):
        path = tmp_path / "cohort.ndjson"
        lines = [
            "# provenance header is skipped",
            json.dumps(self.good_record()),
            "{not json",
            json.dumps({"admit_time": 0}),  # missing patient_id
        ]
        path.write_text("".join(line + "\n" for line in lines))
        stays = load_cohort(path)
        assert [s.patient_id for s in stays] == ["p1"]
        rejects = (tmp_path / "cohort.ndjson.rejects").read_text().splitlines()
        assert len(rejects) == 2
        assert rejects[0].startswith("line 3:")
        assert rejects[1].startswith("line 4:")
        assert "patient_id" in rejects[1]

    def test_duplicate_patient_id_names_both_lines(self, tmp_path):
        path = tmp_path / "cohort.ndjson"
        record = json.dumps(self.good_record())
        path.write_text("".join(line + "\n" for line in ("# header", record, "{not json", record)))
        with pytest.raises(CohortError, match=r"duplicate patient_id 'p1' on lines 2 and 4"):
            load_cohort(path, rejects_path=tmp_path / "rejects.txt")
