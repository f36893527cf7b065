"""CSV loaders, writers, and the loader/writer round trip."""

import csv
import hashlib
from dataclasses import fields, replace
from datetime import date
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from carechoice import ingest
from carechoice.domain import NO_DATE, NO_TRIAGE, VISIT_TABLE_COLUMNS, ExclusionReason, HospitalLevel
from carechoice.synthgen import CohortSpec, generate_cohort
from carechoice.ingest import (
    DataPaths,
    IngestError,
    VISIT_COLUMNS,
    input_digests,
    load_dataset,
    load_patients,
    load_visits,
    write_dataset,
    write_visit_table,
)
from conftest import make_dataset, make_patient, make_provider, make_visit
from oracles import naive_load_visits, visit_records, visit_table_from_columns

# sha256 of the visit table written for a small dirty cohort, recorded from
# the loader that built the table from one Python value per visit; it moves
# only with the cohort's bytes or a deliberate change to the table format
DIRTY_TABLE_SHA256 = "b1b32eec3a77a9689c4135f63cc6b7e78ed0d311bf7676523481be364a8b2c13"


def padded(values):
    """Each value, with or without spaces around it."""
    return st.tuples(st.sampled_from(["", " "]), st.sampled_from(values), st.sampled_from(["", "  "])).map("".join)


def code_lists(codes):
    """A cell of codes joined by '|': empty entries give `A||B`, repeats `A|A`."""
    return st.lists(padded(codes), max_size=4).map("|".join)


# a code holding a comma is written as a quoted cell
visit_rows = st.lists(st.tuples(
    padded(["P1", "P2", "P10"]),
    padded(["H1", "H02"]),
    st.sampled_from(["2010-06-15", "2009-01-02", "", " 2011-03-04 "]),
    padded(["", "D1", "D10", "D,4"]),
    code_lists(["D1", "D2", "", "D,4", "T1"]),
    code_lists(["T1", "T2", ""]),
    st.sampled_from(["", "1", " 5", "3"]),
    st.sampled_from(["0", "1", "true", "False "]),
    st.sampled_from(["outpatient", "emergency", " Emergency "]),
), min_size=1, max_size=12)


def write_minimal_tree(root, visits_rows=None, patients_rows=None):
    """A one-patient data directory; rows may be overridden per test."""
    (root / "visits.csv").write_text(
        "patient_id,provider_id,date,primary_dx,dx_codes,treatment_codes,triage,catastrophic,setting\n"
        + "".join(visits_rows if visits_rows is not None
                  else ["P1,H1,2010-06-15,D001,D001|D002,,3,0,outpatient\n"])
    )
    (root / "patients.csv").write_text(
        "patient_id,birth_date,gender,low_income\n"
        + "".join(patients_rows if patients_rows is not None
                  else ["P1,1970-05-04,female,0\n"])
    )
    (root / "providers.csv").write_text("provider_id,level,region_code\nH1,3,R1\n")
    (root / "density.csv").write_text("region_code,physician_density\nR1,20.5\n")
    (root / "calendar.csv").write_text(
        "date,is_workday\n2010-06-14,1\n2010-06-15,1\n2010-06-16,1\n"
    )
    (root / "codes_surgery.txt").write_text("T100\n")
    (root / "codes_er.txt").write_text("T900\n")
    (root / "codes_chronic_dx.txt").write_text("D001\n")
    (root / "codes_catastrophic_dx.txt").write_text("D190\n")
    return DataPaths.from_dir(root)


class TestLoaders:
    def test_minimal_tree_loads(self, tmp_path):
        paths = write_minimal_tree(tmp_path)
        dataset, audit = load_dataset(paths)
        assert len(dataset.visits) == 1
        assert sum(audit.values()) == 0
        visit = visit_records(dataset.visits)[0]
        assert visit.primary_dx == "D001"
        assert visit.dx_codes == frozenset({"D001", "D002"})
        assert visit.triage_level == 3
        assert dataset.providers["H1"].level == HospitalLevel.CLINIC
        assert dataset.region_stats["R1"] == 20.5

    def test_primary_dx_joins_dx_codes(self, tmp_path):
        paths = write_minimal_tree(
            tmp_path, ["P1,H1,2010-06-15,D009,D001,,,0,outpatient\n"]
        )
        dataset, _ = load_dataset(paths)
        assert visit_records(dataset.visits)[0].dx_codes == frozenset({"D009", "D001"})

    def test_missing_column_is_an_error(self, tmp_path):
        write_minimal_tree(tmp_path)
        (tmp_path / "patients.csv").write_text("patient_id,gender\nP1,female\n")
        with pytest.raises(IngestError, match="birth_date"):
            load_dataset(DataPaths.from_dir(tmp_path))

    def test_triage_out_of_range(self, tmp_path):
        paths = write_minimal_tree(
            tmp_path, ["P1,H1,2010-06-15,D001,,,9,0,outpatient\n"]
        )
        with pytest.raises(IngestError, match="triage"):
            load_visits(paths.visits)

    def test_bad_setting(self, tmp_path):
        paths = write_minimal_tree(
            tmp_path, ["P1,H1,2010-06-15,D001,,,,0,telehealth\n"]
        )
        with pytest.raises(IngestError, match="setting"):
            load_visits(paths.visits)

    def test_bad_date(self, tmp_path):
        paths = write_minimal_tree(
            tmp_path, ["P1,H1,15/06/2010,D001,,,,0,outpatient\n"]
        )
        with pytest.raises(IngestError, match="date"):
            load_visits(paths.visits)

    def test_bad_level(self, tmp_path):
        write_minimal_tree(tmp_path)
        (tmp_path / "providers.csv").write_text("provider_id,level,region_code\nH1,7,R1\n")
        with pytest.raises(IngestError, match="level"):
            load_dataset(DataPaths.from_dir(tmp_path))

    @pytest.mark.parametrize("density", ["-1", "nan", "inf"])
    def test_density_must_be_finite_and_not_negative(self, tmp_path, density):
        write_minimal_tree(tmp_path)
        (tmp_path / "density.csv").write_text(f"region_code,physician_density\nR1,{density}\n")
        with pytest.raises(IngestError, match=r"density\.csv:2: field 'physician_density'"):
            load_dataset(DataPaths.from_dir(tmp_path))

    def test_comment_and_blank_lines_skipped(self, tmp_path):
        paths = write_minimal_tree(tmp_path)
        original = (tmp_path / "visits.csv").read_text()
        header, row = original.splitlines()
        (tmp_path / "visits.csv").write_text(f"# generated for a test\n{header}\n\n{row}\n")
        dataset, _ = load_dataset(paths)
        assert len(dataset.visits) == 1

    def test_duplicate_patient_same_gender_merges(self, tmp_path):
        paths = write_minimal_tree(
            tmp_path,
            patients_rows=["P1,1970-05-04,female,0\n", "P1,1970-05-04,female,1\n"],
        )
        patients = load_patients(paths.patients)
        assert len(patients) == 1
        assert not patients["P1"].gender_conflict
        assert patients["P1"].low_income  # any duplicate row claiming support counts

    def test_duplicate_patient_gender_conflict_flagged(self, tmp_path):
        paths = write_minimal_tree(
            tmp_path,
            visits_rows=[
                "P1,H1,2010-06-15,D001,,,,0,outpatient\n",
                "P2,H1,2010-06-15,D001,,,,0,outpatient\n",
            ],
            patients_rows=[
                "P1,1970-05-04,female,0\n",
                "P1,1970-05-04,male,0\n",
                "P2,1980-01-01,male,0\n",
            ],
        )
        patients = load_patients(paths.patients)
        assert patients["P1"].gender_conflict
        dataset, audit = load_dataset(paths)
        assert audit[ExclusionReason.CONFLICTING_GENDER] == 1
        assert audit[ExclusionReason.NO_VISITS] == 1
        assert list(dataset.patients) == ["P2"]

    def test_empty_fields_become_none(self, tmp_path):
        paths = write_minimal_tree(
            tmp_path,
            ["P1,H1,,D001,,,,0,outpatient\n", "P1,H1,2010-06-15,D001,,,,0,outpatient\n"],
        )
        visits = visit_records(load_visits(paths.visits))
        assert visits[0].visit_date is None or visits[1].visit_date is None
        _, audit = load_dataset(paths)
        assert audit[ExclusionReason.MISSING_VISIT_DATE] == 1

    def test_extra_trailing_cells_are_ignored(self, tmp_path):
        paths = write_minimal_tree(
            tmp_path, ["P1,H1,2010-06-15,D001,D002,,3,0,outpatient,surplus,cells\n"]
        )
        visit, = visit_records(load_visits(paths.visits))
        assert visit.setting == "outpatient"
        assert visit.dx_codes == frozenset({"D001", "D002"})


class TestParseSemantics:
    def test_same_dx_token_with_another_primary_gets_its_own_set(self, tmp_path):
        paths = write_minimal_tree(
            tmp_path,
            ["P1,H1,2010-06-15,D001,D002,,,0,outpatient\n",
             "P1,H1,2010-06-15,D003,D002,,,0,outpatient\n",
             "P1,H1,2010-06-15,,D002,,,0,outpatient\n"],
        )
        first, second, third = visit_records(load_visits(paths.visits))
        assert first.dx_codes == frozenset({"D001", "D002"})
        assert second.dx_codes == frozenset({"D003", "D002"})
        assert third.dx_codes == frozenset({"D002"})

    def test_blank_and_padded_codes_are_dropped(self, tmp_path):
        paths = write_minimal_tree(
            tmp_path, ["P1,H1,2010-06-15,,D1| |D2|,T1 || T2,,0,outpatient\n"]
        )
        visit, = visit_records(load_visits(paths.visits))
        assert visit.dx_codes == frozenset({"D1", "D2"})
        assert visit.treatment_codes == frozenset({"T1", "T2"})

    def test_catastrophic_accepts_words_in_any_case(self, tmp_path):
        paths = write_minimal_tree(
            tmp_path,
            ["P1,H1,2010-06-15,D001,,,,TRUE,outpatient\n",
             "P1,H1,2010-06-15,D001,,,,False,outpatient\n"],
        )
        flagged, unflagged = visit_records(load_visits(paths.visits))
        assert flagged.catastrophic_illness and not unflagged.catastrophic_illness

    def test_bad_date_after_repeated_tokens_names_its_own_line(self, tmp_path):
        paths = write_minimal_tree(
            tmp_path,
            ["P1,H1,2010-06-15,D001,D002,T100,,0,outpatient\n",
             "P1,H1,2010-06-15,D001,D002,T100,,0,outpatient\n",
             "P1,H1,2010-02-30,D001,D002,T100,,0,outpatient\n",
             "P1,H1,2010-02-30,D001,D002,T100,,0,outpatient\n"],
        )
        with pytest.raises(IngestError, match=r"visits\.csv:4: field 'date': invalid date '2010-02-30'"):
            load_visits(paths.visits)

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace("\n", "\r\n"),  # the line ends csv.writer writes
        lambda text: text.replace("D001|D002", '"D001|D002"'),  # a quoted cell
        lambda text: text.replace("outpatient\n", "outpatient,extra\n", 1),  # a wider row, too
        lambda text: text + "\n",  # a blank line
    ])
    def test_every_layout_of_the_same_rows_loads_alike(self, tmp_path, edit):
        rows = ["P1,H1,2010-06-15,D001,D001|D002,T100,3,0,outpatient\n",
                "P1,H1,2010-06-14,D002,,,,1,emergency\n"]
        (tmp_path / "plain").mkdir()
        (tmp_path / "edited").mkdir()
        plain = visit_records(load_visits(write_minimal_tree(tmp_path / "plain", rows).visits))
        paths = write_minimal_tree(tmp_path / "edited", rows)
        paths.visits.write_text(edit(paths.visits.read_text()), newline="")
        assert visit_records(load_visits(paths.visits)) == plain

    def test_dirty_cohort_matches_a_dict_reader_parse(self, tmp_path):
        generate_cohort(CohortSpec(n_patients=150, seed=5, dirty_count=2), tmp_path)
        dataset, audit = load_dataset(DataPaths.from_dir(tmp_path))
        visits = [
            (v.patient_id, v.visit_date, v.provider_id, v.primary_dx,
             tuple(sorted(v.dx_codes)), tuple(sorted(v.treatment_codes)),
             -1 if v.triage_level is None else v.triage_level,
             v.catastrophic_illness, v.setting)
            for v in visit_records(dataset.visits)
        ]
        expected_visits, expected_audit = naive_load_visits(tmp_path)
        assert visits == expected_visits
        assert {reason.value: n for reason, n in audit.items() if n} == expected_audit
        assert expected_audit["no_visits"] == 14


class TestChunkedLoader:
    @settings(max_examples=150, deadline=None)
    @given(rows=visit_rows, chunk_rows=st.integers(1, 5))
    def test_matches_a_row_by_row_parse(self, tmp_path_factory, rows, chunk_rows):
        path = tmp_path_factory.getbasetemp() / "visits.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([VISIT_COLUMNS, *rows])
        with mock.patch.object(ingest, "_CHUNK_ROWS", chunk_rows):
            built = load_visits(path)

        def code_set(cell):
            return frozenset(filter(None, (c.strip() for c in cell.split("|"))))

        pid, provider, day, primary, dx, treatments, triage, catastrophic, setting = zip(*rows)
        expected = visit_table_from_columns(
            [p.strip() for p in pid], [p.strip() for p in provider],
            [date.fromisoformat(d.strip()).toordinal() if d.strip() else NO_DATE for d in day],
            [p.strip() for p in primary],
            [code_set(d) | ({p.strip()} if p.strip() else set()) for d, p in zip(dx, primary)],
            [code_set(t) for t in treatments],
            [int(t) if t.strip() else NO_TRIAGE for t in triage],
            [c.strip().lower() in ("1", "true") for c in catastrophic],
            [s.strip().lower() == "emergency" for s in setting],
        )
        for name in ("patient_ids", "provider_ids", "codes"):
            assert getattr(built, name) == getattr(expected, name)
        for name in ("set_offsets", "set_members", *VISIT_TABLE_COLUMNS):
            a, b = getattr(built, name), getattr(expected, name)
            assert a.dtype == b.dtype and a.tolist() == b.tolist(), name

    def test_bad_token_in_a_later_chunk_names_its_line(self, tmp_path, monkeypatch):
        rows = ["P1,H1,2010-06-15,D001,,,,0,outpatient\n"] * 5 + ["P1,H1,2010-06-15,D001,,,7,0,outpatient\n"]
        paths = write_minimal_tree(tmp_path, rows)
        monkeypatch.setattr(ingest, "_CHUNK_ROWS", 2)
        with pytest.raises(IngestError, match=r"visits\.csv:7: field 'triage': level 7 outside 1-5"):
            load_visits(paths.visits)

    def test_short_row_in_a_later_chunk_names_its_line(self, tmp_path, monkeypatch):
        rows = ["P1,H1,2010-06-15,D001,,,,0,outpatient\n"] * 5 + ["P1,H1,2010-06-15\n"]
        paths = write_minimal_tree(tmp_path, rows)
        monkeypatch.setattr(ingest, "_CHUNK_ROWS", 2)
        with pytest.raises(IngestError, match=r"visits\.csv:7: expected 9 fields, found 3"):
            load_visits(paths.visits)

    def test_sets_too_wide_for_an_int64_key_load(self, tmp_path):
        # 20 rows of 8 new dx codes each: 161 ** 9 > 2 ** 63 with the primary
        dx = [[f"D{8 * i + j:03d}" for j in range(8)] for i in range(20)]
        paths = write_minimal_tree(
            tmp_path, [f"P1,H1,2010-06-15,D999,{'|'.join(codes)},,,0,outpatient\n" for codes in dx])
        visits = visit_records(load_visits(paths.visits))
        assert [v.dx_codes for v in visits] == [frozenset(codes) | {"D999"} for codes in dx]

    def test_a_header_without_rows_loads_no_visits(self, tmp_path):
        paths = write_minimal_tree(tmp_path, [])
        visits = load_visits(paths.visits)
        assert len(visits) == 0 and visits.codes == ()

    def test_dirty_cohort_table_keeps_its_pinned_bytes(self, tmp_path):
        paths = generate_cohort(CohortSpec(n_patients=150, seed=5, dirty_count=2), tmp_path / "data").paths
        dataset, _ = load_dataset(paths)
        write_visit_table(tmp_path / "visit_table.npz", dataset, input_digests(paths), "pinned")
        digest = hashlib.sha256((tmp_path / "visit_table.npz").read_bytes()).hexdigest()
        assert digest == DIRTY_TABLE_SHA256


class TestRoundTrip:
    def build(self):
        patients = {
            "P1": make_patient(),
            "P2": make_patient("P2", birth=date(1990, 12, 31), gender="male"),
        }
        providers = {
            "H1": make_provider(),
            "H2": make_provider("H2", HospitalLevel.MEDICAL_CENTER, "R2"),
        }
        visits = [
            make_visit(),
            make_visit(
                pid="P2",
                provider="H2",
                when=date(2009, 2, 1),
                dx="D042",
                dx_codes=frozenset({"D042", "D190"}),
                treatment_codes=frozenset({"T100", "T900"}),
                triage_level=1,
                catastrophic_illness=True,
                setting="emergency",
            ),
        ]
        return make_dataset(
            patients=patients,
            providers=providers,
            visits=visits,
            region_stats={"R1": 20.0, "R2": 31.25},
        )

    def test_write_then_load_preserves_everything(self, tmp_path):
        ds = self.build()
        paths = write_dataset(ds, tmp_path)
        loaded, audit = load_dataset(paths)
        assert sum(audit.values()) == 0
        assert loaded.patients == ds.patients
        assert loaded.providers == ds.providers
        assert set(visit_records(loaded.visits)) == set(visit_records(ds.visits))
        assert loaded.region_stats == ds.region_stats
        assert loaded.code_sets == ds.code_sets
        assert loaded.calendar.entries == ds.calendar.entries

    def test_write_is_deterministic(self, tmp_path):
        ds = self.build()
        write_dataset(ds, tmp_path / "a")
        write_dataset(ds, tmp_path / "b")
        for name in (f.default for f in fields(DataPaths)):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_a_write_failing_midway_keeps_the_previous_visit_file(self, tmp_path):
        ds = self.build()
        write_dataset(ds, tmp_path)
        before = (tmp_path / "visits.csv").read_bytes()
        # the second visit's patient index points past the shortened lookup,
        # so its row raises after the first has been written
        broken = replace(ds, visits=replace(ds.visits, patient_ids=ds.visits.patient_ids[:1]))
        with pytest.raises(IndexError):
            write_dataset(broken, tmp_path)
        assert (tmp_path / "visits.csv").read_bytes() == before
        assert not list(tmp_path.glob(".visits.csv.*.tmp"))

    def test_header_comment_written_and_ignored_on_load(self, tmp_path):
        ds = self.build()
        paths = write_dataset(ds, tmp_path, header_comment="config_hash=deadbeef")
        first = (tmp_path / "visits.csv").read_text().splitlines()[0]
        assert first == "# config_hash=deadbeef"
        loaded, _ = load_dataset(paths)
        assert set(visit_records(loaded.visits)) == set(visit_records(ds.visits))

    def test_missing_file_is_an_error(self, tmp_path):
        ds = self.build()
        paths = write_dataset(ds, tmp_path)
        (tmp_path / "density.csv").unlink()
        with pytest.raises(IngestError):
            load_dataset(paths)

    def test_float_density_round_trips_exactly(self, tmp_path):
        ds = make_dataset(
            visits=[make_visit()], region_stats={"R1": 0.1 + 0.2}
        )
        paths = write_dataset(ds, tmp_path)
        loaded, _ = load_dataset(paths)
        assert loaded.region_stats["R1"] == 0.1 + 0.2
