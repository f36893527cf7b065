"""Domain model: level codes, record validation, exclusion audit."""

from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carechoice.domain import (
    DataError,
    ExclusionReason,
    HospitalLevel,
    LEVEL_NAMES,
    N_LEVELS,
    VISIT_TABLE_COLUMNS,
    VisitTable,
    apply_exclusions,
    exclusion_masks,
)
from conftest import make_calendar, make_dataset, make_patient, make_provider, make_visit, visit_table
from oracles import visit_records, visit_table_from_columns


def validate_record(record, patient, providers):
    """The reasons that exclude one record, in ExclusionReason order."""
    patients = {} if patient is None else {record.patient_id: patient}
    masks = exclusion_masks(visit_table([record]), patients, providers)
    return [reason for reason, mask in masks.items() if mask[0]]


class TestHospitalLevel:
    def test_codes_are_the_class_indices(self):
        assert HospitalLevel.MEDICAL_CENTER == 0
        assert HospitalLevel.REGIONAL_HOSPITAL == 1
        assert HospitalLevel.DISTRICT_HOSPITAL == 2
        assert HospitalLevel.CLINIC == 3
        assert N_LEVELS == 4

    def test_every_level_has_a_stable_name(self):
        assert LEVEL_NAMES[HospitalLevel.MEDICAL_CENTER] == "medical_center"
        assert LEVEL_NAMES[HospitalLevel.CLINIC] == "clinic"
        assert len(LEVEL_NAMES) == N_LEVELS


class TestValidateRecord:
    def providers(self):
        return {"H1": make_provider()}

    def test_clean_record_passes(self):
        assert validate_record(make_visit(), make_patient(), self.providers()) == []

    def test_missing_profile_counts_as_missing_birth_or_gender(self):
        reasons = validate_record(make_visit(), None, self.providers())
        assert ExclusionReason.MISSING_BIRTH_OR_GENDER in reasons

    def test_missing_birth_date(self):
        patient = make_patient(birth=None)
        assert validate_record(make_visit(), patient, self.providers()) == [
            ExclusionReason.MISSING_BIRTH_OR_GENDER
        ]

    def test_missing_gender(self):
        patient = make_patient(gender=None)
        assert validate_record(make_visit(), patient, self.providers()) == [
            ExclusionReason.MISSING_BIRTH_OR_GENDER
        ]

    def test_conflicting_gender(self):
        patient = make_patient(gender_conflict=True)
        assert validate_record(make_visit(), patient, self.providers()) == [
            ExclusionReason.CONFLICTING_GENDER
        ]

    def test_missing_visit_date(self):
        assert validate_record(make_visit(when=None), make_patient(), self.providers()) == [
            ExclusionReason.MISSING_VISIT_DATE
        ]

    def test_birth_after_visit(self):
        patient = make_patient(birth=date(2011, 1, 1))
        visit = make_visit(when=date(2010, 6, 15))
        assert validate_record(visit, patient, self.providers()) == [
            ExclusionReason.BIRTH_AFTER_VISIT
        ]

    def test_birth_on_visit_day_is_fine(self):
        patient = make_patient(birth=date(2010, 6, 15))
        visit = make_visit(when=date(2010, 6, 15))
        assert validate_record(visit, patient, self.providers()) == []

    def test_birth_after_visit_needs_both_dates(self):
        # without a visit date only the missing-date rule may fire
        patient = make_patient(birth=date(2011, 1, 1))
        reasons = validate_record(make_visit(when=None), patient, self.providers())
        assert reasons == [ExclusionReason.MISSING_VISIT_DATE]

    def test_blank_primary_diagnosis(self):
        visit = make_visit(dx=" ")
        assert validate_record(visit, make_patient(), self.providers()) == [
            ExclusionReason.NO_PRIMARY_DIAGNOSIS
        ]

    def test_unknown_provider(self):
        visit = make_visit(provider="H404")
        assert validate_record(visit, make_patient(), self.providers()) == [
            ExclusionReason.INCOMPLETE_HOSPITAL_INFO
        ]

    def test_multiple_reasons_all_fire(self):
        visit = make_visit(provider="H404", dx="", when=None)
        reasons = validate_record(visit, None, self.providers())
        assert set(reasons) == {
            ExclusionReason.MISSING_BIRTH_OR_GENDER,
            ExclusionReason.MISSING_VISIT_DATE,
            ExclusionReason.NO_PRIMARY_DIAGNOSIS,
            ExclusionReason.INCOMPLETE_HOSPITAL_INFO,
        }


class TestApplyExclusions:
    def test_clean_dataset_passes_through(self):
        ds = make_dataset(visits=[make_visit()])
        clean, audit = apply_exclusions(ds)
        assert visit_records(clean.visits) == visit_records(ds.visits)
        assert clean.patients == ds.patients
        assert sum(audit.values()) == 0

    def test_bad_record_counts_each_reason_once(self):
        ds = make_dataset(
            patients={"P1": make_patient(), "P2": make_patient("P2")},
            visits=[make_visit(), make_visit(pid="P2", provider="H404", dx="")],
        )
        clean, audit = apply_exclusions(ds)
        assert audit[ExclusionReason.INCOMPLETE_HOSPITAL_INFO] == 1
        assert audit[ExclusionReason.NO_PRIMARY_DIAGNOSIS] == 1
        assert len(clean.visits) == 1

    def test_patient_without_surviving_visits_is_dropped(self):
        ds = make_dataset(
            patients={"P1": make_patient(), "P2": make_patient("P2")},
            visits=[make_visit(), make_visit(pid="P2", when=None)],
        )
        clean, audit = apply_exclusions(ds)
        assert audit[ExclusionReason.MISSING_VISIT_DATE] == 1
        assert audit[ExclusionReason.NO_VISITS] == 1
        assert "P2" not in clean.patients

    def test_patient_with_no_visits_at_all(self):
        ds = make_dataset(
            patients={"P1": make_patient(), "P9": make_patient("P9")},
            visits=[make_visit()],
        )
        _, audit = apply_exclusions(ds)
        assert audit[ExclusionReason.NO_VISITS] == 1

    def test_everything_excluded_raises(self):
        ds = make_dataset(visits=[make_visit(when=None)])
        with pytest.raises(DataError):
            apply_exclusions(ds)

    def test_idempotent(self):
        ds = make_dataset(
            patients={"P1": make_patient(), "P2": make_patient("P2", birth=None)},
            visits=[make_visit(), make_visit(pid="P2")],
        )
        clean, _ = apply_exclusions(ds)
        again, audit = apply_exclusions(clean)
        assert visit_records(again.visits) == visit_records(clean.visits)
        assert sum(audit.values()) == 0


class TestSortKey:
    """`VisitTable.canonical_order`, the content order the loader sorts by."""

    def test_orders_by_content_not_identity(self):
        a = make_visit(when=date(2010, 1, 2))
        b = make_visit(when=date(2010, 1, 1))
        assert visit_table([a, b]).canonical_order().tolist() == [1, 0]

    def test_missing_date_sorts_first(self):
        a = make_visit(when=date(2010, 1, 1))
        b = make_visit(when=None)
        assert visit_table([a, b]).canonical_order().tolist() == [1, 0]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.builds(
        make_visit,
        pid=st.sampled_from(["P1", "P10", "P2"]),
        provider=st.sampled_from(["H1", "H10", "H2"]),
        when=st.sampled_from([None, date(2010, 1, 1), date(2010, 1, 2)]),
        dx=st.sampled_from(["", "D001", "D01"]),
        dx_codes=st.frozensets(st.sampled_from(["D001", "D01", "D1", "T1"]), max_size=3),
        treatment_codes=st.frozensets(st.sampled_from(["T1", "T10", "T2"]), max_size=2),
        triage_level=st.sampled_from([None, 1, 5]),
        catastrophic_illness=st.booleans(),
        setting=st.sampled_from(["outpatient", "emergency"]),
    ), min_size=1, max_size=10))
    def test_matches_the_reference_sort_key(self, records):
        order = visit_table(records).canonical_order().tolist()
        keys = [records[i].sort_key() for i in order]
        assert keys == sorted(keys)
        assert sorted(order) == list(range(len(records)))


    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.builds(
        make_visit,
        pid=st.sampled_from(["P1", "P10", "P2"]),
        when=st.sampled_from([None, date(2010, 1, 1), date(2010, 1, 2)]),
        dx=st.sampled_from(["D001", "D01"]),
        triage_level=st.sampled_from([None, 1, 5]),
        setting=st.sampled_from(["outpatient", "emergency"]),
    ), min_size=1, max_size=8))
    def test_sorted_is_the_canonical_take_and_keeps_a_sorted_table(self, records):
        table = visit_table(records)
        ordered = table.sorted()
        assert visit_records(ordered) == [visit_records(table)[i] for i in table.canonical_order()]
        assert ordered.sorted() is ordered


PATIENTS, PROVIDERS, CODES = ["P2", "P10", "P1", "P7"], ["H2", "H1", "H10"], ["T1", "D1", "", "D01", "D001"]


class TestFromCodes:
    """`VisitTable.from_codes` builds the table the `visit_table_from_columns`
    oracle builds from the strings and sets the integer columns stand for."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.integers(0, len(PATIENTS) - 1),
        st.integers(0, len(PROVIDERS) - 1),
        st.integers(0, 3),
        st.integers(0, len(CODES) - 1),
        st.lists(st.integers(0, len(CODES) - 1), max_size=3),
        st.lists(st.integers(0, len(CODES) - 1), max_size=2),
        st.sampled_from([-1, 1, 5]),
        st.booleans(),
        st.booleans(),
    ), min_size=1, max_size=12))
    def test_matches_from_columns(self, visits):
        patient, provider, day, primary, dx, treatments, triage, catastrophic, emergency = zip(*visits)

        def padded(rows, width):
            return np.array([list(row) + [-1] * (width - len(row)) for row in rows], np.int64)

        built = VisitTable.from_codes(
            PATIENTS, PROVIDERS, CODES, np.array(patient), np.array(provider), np.array(day),
            np.array(primary), padded(dx, 3), padded(treatments, 2), np.array(triage),
            np.array(catastrophic), np.array(emergency))
        expected = visit_table_from_columns(
            [PATIENTS[i] for i in patient], [PROVIDERS[i] for i in provider], day,
            [CODES[i] for i in primary], [frozenset(CODES[i] for i in row) for row in dx],
            [frozenset(CODES[i] for i in row) for row in treatments], triage, catastrophic,
            emergency)
        for name in ("patient_ids", "provider_ids", "codes"):
            assert getattr(built, name) == getattr(expected, name)
        for name in ("set_offsets", "set_members", *VISIT_TABLE_COLUMNS):
            a, b = getattr(built, name), getattr(expected, name)
            assert a.dtype == b.dtype and a.tolist() == b.tolist(), name

    def test_sets_whose_key_would_overflow_match_the_oracle(self):
        # 56,000 distinct codes in sets of 4: 56,001 ** 4 > 2 ** 63; the last
        # rows repeat sets in another order and with a repeated member
        n = 14_000
        codes = [f"C{i:05d}" for i in range(4 * n)]
        dx = np.arange(4 * n).reshape(n, 4)
        dx[-2:] = dx[:2, ::-1]
        dx[-3, 1] = dx[-3, 0]
        zeros = np.zeros(n, np.int64)
        built = VisitTable.from_codes(["P1"], ["H1"], codes, zeros, zeros, zeros, zeros, dx,
                                      np.full((n, 1), -1), zeros, zeros, zeros)
        expected = visit_table_from_columns(
            ["P1"] * n, ["H1"] * n, zeros.tolist(), [codes[0]] * n,
            [frozenset(codes[i] for i in row) for row in dx.tolist()], [frozenset()] * n,
            zeros.tolist(), [False] * n, [False] * n)
        for name in ("set_offsets", "set_members", "dx", "treatments"):
            a, b = getattr(built, name), getattr(expected, name)
            assert a.dtype == b.dtype and a.tolist() == b.tolist(), name


class TestWorkdayCalendar:
    def test_weekday_lookup(self):
        cal = make_calendar()
        assert cal.is_workday(date(2010, 6, 15))  # a Tuesday
        assert not cal.is_workday(date(2010, 6, 13))  # a Sunday

    def test_outside_coverage_raises(self):
        cal = make_calendar()
        with pytest.raises(DataError):
            cal.is_workday(date(2000, 1, 1))
