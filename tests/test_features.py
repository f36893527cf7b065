"""Feature engineering: continuity indices, votes, flags, assembly, scaling."""

from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from carechoice.domain import HospitalLevel
from carechoice.features import (
    FEATURE_NAMES,
    FeatureFileError,
    MissingRegionError,
    N_FEATURES,
    SCALED_FEATURES,
    ScalerParams,
    build_feature_vectors,
    continuity_indices,
    fit_scaler,
    provider_votes,
    read_feature_csv,
    write_feature_csv,
)
from conftest import make_dataset, make_patient, make_provider, make_visit
from oracles import brute_continuity, reference_feature_vectors

provider_sequences = st.lists(
    st.sampled_from(["A", "B", "C", "D"]), min_size=1, max_size=12
)


def codes(labels):
    """Integer codes of string labels, numbered in string order."""
    order = {label: i for i, label in enumerate(sorted(set(labels)))}
    return np.array([order[label] for label in labels], dtype=np.int32)


class TestContinuityIndices:
    def indices(self, providers):
        upc, lupc, secoc, coci = continuity_indices(np.zeros(len(providers), np.int32), codes(providers))[0]
        return upc, lupc, secoc, coci

    def test_worked_example(self):
        # two visits to A then one to B
        upc, lupc, secoc, coci = self.indices("AAB")
        assert upc == pytest.approx(2 / 3)
        assert lupc == pytest.approx(1 / 3)
        assert secoc == pytest.approx(1 / 2)
        assert coci == pytest.approx((4 + 1 - 3) / (3 * 2))

    def test_single_visit_pins_all_four_to_one(self):
        assert self.indices("A") == (1.0, 1.0, 1.0, 1.0)

    def test_perfect_continuity(self):
        assert self.indices("AAAA") == (1.0, 1.0, 1.0, 1.0)

    def test_all_distinct_providers(self):
        upc, lupc, secoc, coci = self.indices("ABCD")
        assert secoc == 0.0
        assert coci == 0.0
        assert upc == lupc == 0.25

    def test_empty_sequence_rejected(self):
        # patient 1 of 0..2 has no visits
        with pytest.raises(ValueError, match="patient 1: empty visit sequence"):
            continuity_indices(np.array([0, 2, 2]), np.array([0, 1, 0]))

    @given(provider_sequences)
    def test_matches_brute_force(self, providers):
        upc, lupc, secoc, coci = brute_continuity(providers)
        got = self.indices(providers)
        assert got[0] == pytest.approx(upc, abs=1e-12)
        assert got[1] == pytest.approx(lupc, abs=1e-12)
        assert got[2] == pytest.approx(secoc, abs=1e-12)
        assert got[3] == pytest.approx(coci, abs=1e-12)

    @given(provider_sequences)
    def test_ranges(self, providers):
        upc, lupc, secoc, coci = self.indices(providers)
        assert 0.0 < lupc <= upc <= 1.0
        assert 0.0 <= secoc <= 1.0
        assert 0.0 <= coci <= 1.0


def votes(*sequences):
    """{provider: (mfpc, lfpc)} for providers with a vote; one sequence per patient."""
    providers = [p for seq in sequences for p in seq]
    names = sorted(set(providers))
    patient = np.repeat(np.arange(len(sequences)), [len(seq) for seq in sequences])
    mfpc, lfpc = provider_votes(patient, codes(providers), len(names))
    return {name: (int(m), int(f)) for name, m, f in zip(names, mfpc, lfpc) if m or f}


class TestProviderVotes:
    def test_each_patient_votes_once_for_each_tally(self):
        tally = votes("AAB", "BBA")
        assert tally["A"] == (1, 1)
        assert tally["B"] == (1, 1)

    def test_tie_goes_to_smallest_provider_id(self):
        tally = votes("BA")
        # both providers have one visit; A wins both votes on the tiebreak
        assert tally["A"] == (1, 1)
        assert "B" not in tally  # zero-vote providers carry no vote

    def test_single_provider_patient_votes_it_twice(self):
        assert votes("CC")["C"] == (1, 1)

    def test_vote_totals_equal_patient_count(self):
        rng = np.random.default_rng(5)
        seqs = [tuple(rng.choice(list("ABCDE"), rng.integers(1, 9))) for _ in range(40)]
        tally = votes(*seqs)
        assert sum(m for m, _ in tally.values()) == 40
        assert sum(f for _, f in tally.values()) == 40


def column(X, name):
    return X[:, FEATURE_NAMES.index(name)]


def one_visit(visit, patient=None):
    """The feature row of a dataset holding this one visit."""
    X, _ = build_feature_vectors(make_dataset(
        patients={visit.patient_id: patient or make_patient(visit.patient_id)},
        visits=[visit],
    ))
    return dict(zip(FEATURE_NAMES, X[0]))


class TestDiseaseImportanceRate:
    def test_share_of_matching_primaries(self):
        visits = [make_visit(dx="D001", when=date(2010, 6, 14)), make_visit(dx="D002"),
                  make_visit(dx="D001", when=date(2010, 6, 16))]
        X, _ = build_feature_vectors(make_dataset(visits=visits))
        assert column(X, "dir")[0] == pytest.approx(2 / 3)
        assert column(X, "dir")[1] == pytest.approx(1 / 3)


class TestIncidentFlags:
    def flags(self, visit):
        row = one_visit(visit)
        return tuple(bool(row[name]) for name in ("is_surgery", "is_er", "is_severe", "is_workday"))

    def test_quiet_weekday_visit(self):
        assert self.flags(make_visit(when=date(2010, 6, 15))) == (False, False, False, True)

    def test_surgery_via_treatment_code(self):
        assert self.flags(make_visit(treatment_codes=frozenset({"T100"})))[0]

    def test_er_via_setting(self):
        assert self.flags(make_visit(setting="emergency"))[1]

    def test_er_via_treatment_code(self):
        assert self.flags(make_visit(treatment_codes=frozenset({"T900"})))[1]

    def test_severe_via_triage(self):
        assert self.flags(make_visit(triage_level=3))[2]
        assert not self.flags(make_visit(triage_level=4))[2]

    def test_severe_via_catastrophic_flag(self):
        assert self.flags(make_visit(catastrophic_illness=True))[2]

    def test_severe_via_catastrophic_primary_dx(self):
        assert self.flags(make_visit(dx="D190"))[2]

    def test_weekend(self):
        assert not self.flags(make_visit(when=date(2010, 6, 13)))[3]


class TestAgeAt:
    def age(self, birth, visit):
        return one_visit(make_visit(when=visit), make_patient(birth=birth))["age"]

    def test_birthday_not_yet_reached(self):
        assert self.age(date(1970, 6, 16), date(2010, 6, 15)) == 39

    def test_birthday_today(self):
        assert self.age(date(1970, 6, 15), date(2010, 6, 15)) == 40

    def test_newborn(self):
        assert self.age(date(2010, 6, 1), date(2010, 6, 15)) == 0


def two_patient_dataset():
    patients = {
        "P1": make_patient(gender="male"),
        "P2": make_patient("P2", birth=date(2000, 1, 1), gender="female", low_income=True),
    }
    providers = {
        "H1": make_provider(),
        "H2": make_provider("H2", HospitalLevel.REGIONAL_HOSPITAL, "R2"),
    }
    visits = [
        make_visit(when=date(2010, 1, 4), dx="D001"),
        make_visit(when=date(2010, 2, 5), provider="H2", dx="D002",
                   dx_codes=frozenset({"D002", "D003"})),
        make_visit(when=date(2010, 3, 8), dx="D001"),
        make_visit(pid="P2", provider="H2", when=date(2010, 7, 10), dx="D190"),
    ]
    return make_dataset(
        patients=patients, providers=providers, visits=visits,
        region_stats={"R1": 10.0, "R2": 30.0},
    )


class TestBuildFeatureVectors:
    def test_row_per_visit_in_canonical_order(self):
        ds = two_patient_dataset()
        X, y = build_feature_vectors(ds)
        assert X.shape == (4, N_FEATURES)
        assert X.dtype == np.float64 and y.dtype == np.int64
        assert list(y) == [3, 1, 3, 1]

    def test_first_visit_values(self):
        ds = two_patient_dataset()
        X, y = build_feature_vectors(ds)
        v = dict(zip(FEATURE_NAMES, X[0]))
        assert v["age"] == 39.0
        assert v["male"] == 1.0
        assert v["low_income"] == 0.0
        assert v["total_visits"] == 3.0
        assert v["total_diseases"] == 3.0  # D001, D002, D003 over the period
        assert v["total_chronic_diseases"] == 1.0
        assert v["upc"] == pytest.approx(2 / 3)
        assert v["lupc"] == pytest.approx(1 / 3)
        assert v["secoc"] == 0.0
        assert v["coci"] == pytest.approx(1 / 3)
        assert v["physician_density"] == 10.0
        # P1 votes H1 most-frequent, H2 least; P2 votes H2 for both
        assert v["mfpc"] == 1.0
        assert v["lfpc"] == 0.0
        assert v["dir"] == pytest.approx(2 / 3)
        assert v["is_workday"] == 1.0
        assert y[0] == HospitalLevel.CLINIC

    def test_votes_of_other_provider(self):
        ds = two_patient_dataset()
        X, _ = build_feature_vectors(ds)
        assert column(X, "mfpc")[1] == 1.0  # P2's most-frequent vote
        assert column(X, "lfpc")[1] == 2.0  # least-frequent votes from both patients
        assert column(X, "physician_density")[1] == 30.0

    def test_severe_catastrophic_primary(self):
        ds = two_patient_dataset()
        X, _ = build_feature_vectors(ds)
        assert column(X, "is_severe")[3] == 1.0
        assert column(X, "dir")[3] == 1.0
        assert column(X, "total_visits")[3] == 1.0

    def test_missing_region_raises(self):
        ds = two_patient_dataset()
        broken = make_dataset(
            patients=ds.patients, providers=ds.providers, visits=ds.visits,
            region_stats={"R1": 10.0},
        )
        with pytest.raises(MissingRegionError):
            build_feature_vectors(broken)

    def test_sequences_follow_visit_order(self):
        # P1 goes H1, H2, H1: no two consecutive visits share a provider,
        # though sorting P1's visits by provider would put the two H1 visits together
        X, _ = build_feature_vectors(two_patient_dataset())
        assert list(column(X, "secoc")) == [0.0, 0.0, 0.0, 1.0]


@st.composite
def small_datasets(draw):
    """Few patients, providers, codes and dates, so that vote ties,
    single-visit patients, duplicate visits and empty code sets are common."""
    n_patients = draw(st.integers(1, 4))
    patients = {
        f"P{i}": make_patient(f"P{i}", birth=draw(st.sampled_from([date(1970, 6, 15), date(2000, 2, 29)])),
                              gender=draw(st.sampled_from(["male", "female"])),
                              low_income=draw(st.booleans()))
        for i in range(n_patients)
    }
    providers = {
        "H1": make_provider("H1"),
        "H2": make_provider("H2", HospitalLevel.MEDICAL_CENTER, "R2"),
        "H10": make_provider("H10", HospitalLevel.DISTRICT_HOSPITAL, "R1"),
    }
    code_lists = st.frozensets(st.sampled_from(["D001", "D002", "D190", "T100", "T900"]), max_size=3)
    visit = st.builds(
        make_visit,
        pid=st.sampled_from(sorted(patients)),
        provider=st.sampled_from(sorted(providers)),
        when=st.sampled_from([date(2010, 6, 12) + timedelta(days=k) for k in range(4)]),
        dx=st.sampled_from(["D001", "D002", "D190"]),
        dx_codes=code_lists,
        treatment_codes=code_lists,
        triage_level=st.sampled_from([None, 1, 3, 4]),
        catastrophic_illness=st.booleans(),
        setting=st.sampled_from(["outpatient", "emergency"]),
    )
    visits = draw(st.lists(visit, min_size=1, max_size=12))
    visits += draw(st.lists(st.sampled_from(visits), max_size=3))  # exact duplicates
    used = {v.patient_id for v in visits}
    return make_dataset(patients={p: patients[p] for p in sorted(used)}, providers=providers,
                        visits=visits, region_stats={"R1": 10.0, "R2": 0.1 + 0.2})


class TestMatchesPerVisitReference:
    @settings(max_examples=300, deadline=None)
    @given(small_datasets())
    def test_bit_for_bit(self, dataset):
        X, y = build_feature_vectors(dataset)
        X0, y0 = reference_feature_vectors(dataset)
        assert np.array_equal(X.view(np.int64), X0.view(np.int64))
        assert np.array_equal(y, y0)


class TestScaler:
    def matrix(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(0, 1, size=(20, N_FEATURES))
        age = FEATURE_NAMES.index("age")
        X[:, age] = rng.uniform(20, 80, size=20)
        mfpc = FEATURE_NAMES.index("mfpc")
        X[:, mfpc] = rng.integers(0, 50, size=20)
        return X

    def test_scaled_columns_land_in_unit_interval(self):
        X = self.matrix()
        scaler = fit_scaler(X)
        Z = scaler.transform(X)
        for name in SCALED_FEATURES:
            j = FEATURE_NAMES.index(name)
            assert Z[:, j].min() >= 0.0 and Z[:, j].max() <= 1.0
            assert Z[:, j].min() == 0.0 and Z[:, j].max() == 1.0

    def test_unscaled_columns_untouched(self):
        X = self.matrix()
        Z = fit_scaler(X).transform(X)
        for j, name in enumerate(FEATURE_NAMES):
            if name not in SCALED_FEATURES:
                assert np.array_equal(Z[:, j], X[:, j])

    def test_out_of_range_rows_clamp(self):
        X = self.matrix()
        scaler = fit_scaler(X)
        age = FEATURE_NAMES.index("age")
        probe = X[0].copy()
        probe[age] = 500.0
        assert scaler.transform(probe)[0, age] == 1.0
        probe[age] = -5.0
        assert scaler.transform(probe)[0, age] == 0.0

    def test_degenerate_column_maps_to_zero(self):
        X = self.matrix()
        age = FEATURE_NAMES.index("age")
        X[:, age] = 47.0
        scaler = fit_scaler(X)
        assert scaler.mins["age"] == scaler.maxs["age"] == 47.0
        assert np.all(scaler.transform(X)[:, age] == 0.0)

    def test_round_trips_through_dict(self):
        scaler = fit_scaler(self.matrix())
        again = ScalerParams.from_dict(scaler.to_dict())
        assert again.mins == scaler.mins
        assert again.maxs == scaler.maxs
        assert again.to_dict() == scaler.to_dict()

    def test_transform_does_not_mutate_input(self):
        X = self.matrix()
        before = X.copy()
        fit_scaler(X).transform(X)
        assert np.array_equal(X, before)


# the values the round trip must keep bit for bit, beside random ones
EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1 + 0.2, 1 / 3])
feature_matrices = arrays(
    np.float64,
    st.tuples(st.integers(1, 8), st.just(N_FEATURES)),
    elements=st.floats(allow_nan=False, allow_infinity=False, width=64) | EDGE_FLOATS,
)


class TestFeatureCsv:
    def test_round_trip_is_bit_exact(self, tmp_path):
        ds = two_patient_dataset()
        X0, y0 = build_feature_vectors(ds)
        path = tmp_path / "features.csv"
        write_feature_csv(path, X0, y0, header_comment="config_hash=abc123")
        X, y = read_feature_csv(path)
        assert np.array_equal(X, X0)
        assert np.array_equal(y, y0)
        assert path.read_text().startswith("# config_hash=abc123\n")

    @given(feature_matrices, st.data())
    def test_cells_are_17_digit_decimals_that_read_back_bit_for_bit(
        self, tmp_path_factory, X0, data
    ):
        y0 = np.array(data.draw(st.lists(st.integers(0, 3), min_size=len(X0), max_size=len(X0))))
        path = tmp_path_factory.getbasetemp() / "property.csv"
        write_feature_csv(path, X0, y0)
        body = path.read_text().splitlines()[1:]
        for line, row, label in zip(body, X0.tolist(), y0.tolist(), strict=True):
            assert line.split(",") == [format(x, ".17g") for x in row] + [str(label)]
        X, y = read_feature_csv(path)
        assert np.array_equal(X.view(np.int64), X0.view(np.int64))
        assert np.array_equal(y, y0)

    def test_repeated_special_values_format_cell_by_cell(self, tmp_path):
        specials = [0.0, -0.0, np.inf, -np.inf, 5e-324, 0.1 + 0.2]
        rng = np.random.default_rng(3)
        column = rng.choice(np.array(specials), size=1000)
        X0 = np.tile(column[:, None], (1, N_FEATURES))
        X0[:, 1] = column[::-1]
        y0 = rng.integers(0, 4, size=1000)
        path = tmp_path / "features.csv"
        write_feature_csv(path, X0, y0)
        body = path.read_text().splitlines()[1:]
        assert len(body) == 1000
        for line, row, label in zip(body, X0.tolist(), y0.tolist()):
            assert line.split(",") == [format(x, ".17g") for x in row] + [str(label)]
        assert {"0", "-0"} <= {line.split(",")[0] for line in body}

    def test_empty_matrix_round_trips(self, tmp_path):
        path = tmp_path / "features.csv"
        write_feature_csv(path, np.empty((0, N_FEATURES)), np.empty(0, dtype=np.int64))
        X, y = read_feature_csv(path)
        assert X.shape == (0, N_FEATURES) and y.shape == (0,)

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(FeatureFileError, match="bad.csv:1: unexpected feature columns"):
            read_feature_csv(path)

    def body_error(self, tmp_path, edit):
        ds = two_patient_dataset()
        path = tmp_path / "features.csv"
        write_feature_csv(path, *build_feature_vectors(ds), header_comment="config_hash=abc123")
        lines = path.read_text().splitlines(keepends=True)
        lines[3] = edit(lines[3])  # the second row, line 4 of the file
        path.write_text("".join(lines))
        with pytest.raises(FeatureFileError) as exc:
            read_feature_csv(path)
        return str(exc.value)

    def test_bad_cell_names_file_line_and_column(self, tmp_path):
        message = self.body_error(tmp_path, lambda ln: "4x6" + ln[ln.index(","):])
        assert message.startswith(f"{tmp_path / 'features.csv'}:4: age is not a number: '4x6'")

    def test_ragged_row_names_its_line(self, tmp_path):
        message = self.body_error(tmp_path, lambda ln: ln.split(",", 1)[1])
        assert ":4: expected 19 columns, found 18" in message

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_its_line(self, tmp_path, cell):
        message = self.body_error(tmp_path, lambda ln: ",".join([ln.split(",")[0], cell, *ln.split(",")[2:]]))
        assert message.startswith(f"{tmp_path / 'features.csv'}:4: {FEATURE_NAMES[1]} is not finite: '{cell}'")

    def test_label_outside_the_level_codes(self, tmp_path):
        message = self.body_error(tmp_path, lambda ln: ln.rsplit(",", 1)[0] + ",9\n")
        assert ":4: label must be a hospital-level code" in message

    def test_write_rejects_a_mis_shaped_matrix(self, tmp_path):
        with pytest.raises(ValueError, match="shape"):
            write_feature_csv(tmp_path / "f.csv", np.zeros((2, 5)), np.zeros(2, dtype=np.int64))
