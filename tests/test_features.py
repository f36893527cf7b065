"""Feature engineering: continuity indices, votes, flags, assembly, scaling."""

from datetime import date

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from carechoice.domain import CodeSets, HospitalLevel
from carechoice.features import (
    FEATURE_NAMES,
    FeatureFileError,
    MissingRegionError,
    N_FEATURES,
    SCALED_FEATURES,
    ScalerParams,
    VisitSequence,
    age_at,
    build_feature_vectors,
    build_visit_sequences,
    continuity_indices,
    disease_importance_rate,
    fit_scaler,
    incident_flags,
    provider_votes,
    read_feature_csv,
    write_feature_csv,
)
from conftest import make_calendar, make_dataset, make_patient, make_provider, make_visit
from oracles import brute_continuity

provider_sequences = st.lists(
    st.sampled_from(["A", "B", "C", "D"]), min_size=1, max_size=12
)


class TestContinuityIndices:
    def seq(self, providers):
        return VisitSequence("P1", tuple(providers))

    def test_worked_example(self):
        # two visits to A then one to B
        idx = continuity_indices(self.seq("AAB"))
        assert idx.upc == pytest.approx(2 / 3)
        assert idx.lupc == pytest.approx(1 / 3)
        assert idx.secoc == pytest.approx(1 / 2)
        assert idx.coci == pytest.approx((4 + 1 - 3) / (3 * 2))

    def test_single_visit_pins_all_four_to_one(self):
        idx = continuity_indices(self.seq("A"))
        assert (idx.upc, idx.lupc, idx.secoc, idx.coci) == (1.0, 1.0, 1.0, 1.0)

    def test_perfect_continuity(self):
        idx = continuity_indices(self.seq("AAAA"))
        assert (idx.upc, idx.lupc, idx.secoc, idx.coci) == (1.0, 1.0, 1.0, 1.0)

    def test_all_distinct_providers(self):
        idx = continuity_indices(self.seq("ABCD"))
        assert idx.secoc == 0.0
        assert idx.coci == 0.0
        assert idx.upc == idx.lupc == 0.25

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            continuity_indices(self.seq(""))

    @given(provider_sequences)
    def test_matches_brute_force(self, providers):
        idx = continuity_indices(self.seq(providers))
        upc, lupc, secoc, coci = brute_continuity(providers)
        assert idx.upc == pytest.approx(upc, abs=1e-12)
        assert idx.lupc == pytest.approx(lupc, abs=1e-12)
        assert idx.secoc == pytest.approx(secoc, abs=1e-12)
        assert idx.coci == pytest.approx(coci, abs=1e-12)

    @given(provider_sequences)
    def test_ranges(self, providers):
        idx = continuity_indices(self.seq(providers))
        assert 0.0 < idx.lupc <= idx.upc <= 1.0
        assert 0.0 <= idx.secoc <= 1.0
        assert 0.0 <= idx.coci <= 1.0


class TestProviderVotes:
    def test_each_patient_votes_once_for_each_tally(self):
        votes = provider_votes([
            VisitSequence("P1", ("A", "A", "B")),
            VisitSequence("P2", ("B", "B", "A")),
        ])
        assert votes["A"].mfpc == 1 and votes["A"].lfpc == 1
        assert votes["B"].mfpc == 1 and votes["B"].lfpc == 1

    def test_tie_goes_to_smallest_provider_id(self):
        votes = provider_votes([VisitSequence("P1", ("B", "A"))])
        # both providers have one visit; A wins both votes on the tiebreak
        assert votes["A"].mfpc == 1 and votes["A"].lfpc == 1
        assert "B" not in votes  # zero-vote providers carry no entry

    def test_single_provider_patient_votes_it_twice(self):
        votes = provider_votes([VisitSequence("P1", ("C", "C"))])
        assert votes["C"].mfpc == 1 and votes["C"].lfpc == 1

    def test_vote_totals_equal_patient_count(self):
        rng = np.random.default_rng(5)
        seqs = [
            VisitSequence(f"P{i}", tuple(rng.choice(list("ABCDE"), rng.integers(1, 9))))
            for i in range(40)
        ]
        votes = provider_votes(seqs)
        assert sum(v.mfpc for v in votes.values()) == 40
        assert sum(v.lfpc for v in votes.values()) == 40


class TestDiseaseImportanceRate:
    def test_share_of_matching_primaries(self):
        visits = [make_visit(dx="D001"), make_visit(dx="D002"), make_visit(dx="D001")]
        assert disease_importance_rate(visits, visits[0]) == pytest.approx(2 / 3)
        assert disease_importance_rate(visits, visits[1]) == pytest.approx(1 / 3)

    def test_no_visits_rejected(self):
        with pytest.raises(ValueError):
            disease_importance_rate([], make_visit())


class TestIncidentFlags:
    def codes(self):
        return CodeSets(
            surgery_codes=frozenset({"T100"}),
            er_codes=frozenset({"T900"}),
            chronic_dx_codes=frozenset({"D001"}),
            catastrophic_dx_codes=frozenset({"D190"}),
        )

    def test_quiet_weekday_visit(self, calendar):
        flags = incident_flags(make_visit(when=date(2010, 6, 15)), self.codes(), calendar)
        assert flags == (False, False, False, True)

    def test_surgery_via_treatment_code(self, calendar):
        visit = make_visit(treatment_codes=frozenset({"T100"}))
        assert incident_flags(visit, self.codes(), calendar)[0]

    def test_er_via_setting(self, calendar):
        visit = make_visit(setting="emergency")
        assert incident_flags(visit, self.codes(), calendar)[1]

    def test_er_via_treatment_code(self, calendar):
        visit = make_visit(treatment_codes=frozenset({"T900"}))
        assert incident_flags(visit, self.codes(), calendar)[1]

    def test_severe_via_triage(self, calendar):
        assert incident_flags(make_visit(triage_level=3), self.codes(), calendar)[2]
        assert not incident_flags(make_visit(triage_level=4), self.codes(), calendar)[2]

    def test_severe_via_catastrophic_flag(self, calendar):
        visit = make_visit(catastrophic_illness=True)
        assert incident_flags(visit, self.codes(), calendar)[2]

    def test_severe_via_catastrophic_primary_dx(self, calendar):
        visit = make_visit(dx="D190")
        assert incident_flags(visit, self.codes(), calendar)[2]

    def test_weekend(self, calendar):
        visit = make_visit(when=date(2010, 6, 13))
        assert not incident_flags(visit, self.codes(), calendar)[3]


class TestAgeAt:
    def test_birthday_not_yet_reached(self):
        assert age_at(date(1970, 6, 16), date(2010, 6, 15)) == 39

    def test_birthday_today(self):
        assert age_at(date(1970, 6, 15), date(2010, 6, 15)) == 40

    def test_newborn(self):
        assert age_at(date(2010, 6, 1), date(2010, 6, 15)) == 0


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


def column(X, name):
    return X[:, FEATURE_NAMES.index(name)]


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
        ds = two_patient_dataset()
        seqs = build_visit_sequences(ds)
        assert seqs["P1"].provider_ids == ("H1", "H2", "H1")
        assert seqs["P2"].provider_ids == ("H2",)


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
        assert "age" in scaler.degenerate
        assert np.all(scaler.transform(X)[:, age] == 0.0)

    def test_round_trips_through_dict(self):
        scaler = fit_scaler(self.matrix())
        again = ScalerParams.from_dict(scaler.to_dict())
        assert again.mins == scaler.mins
        assert again.maxs == scaler.maxs
        assert again.scaled_features == scaler.scaled_features

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
    elements=st.floats(allow_nan=False, width=64) | EDGE_FLOATS,
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

    def test_label_outside_the_level_codes(self, tmp_path):
        message = self.body_error(tmp_path, lambda ln: ln.rsplit(",", 1)[0] + ",9\n")
        assert ":4: label must be a hospital-level code" in message

    def test_write_rejects_a_mis_shaped_matrix(self, tmp_path):
        with pytest.raises(ValueError, match="shape"):
            write_feature_csv(tmp_path / "f.csv", np.zeros((2, 5)), np.zeros(2, dtype=np.int64))
