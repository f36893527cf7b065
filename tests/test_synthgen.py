"""Synthetic cohort generator: determinism, marginals, and audit accounting."""

import hashlib
import json
from collections import Counter
from datetime import date

import numpy as np
import pytest

from carechoice.domain import HospitalLevel
from carechoice.ingest import DataPaths, load_dataset
from carechoice.synthgen import (
    AGE_ANCHOR,
    MANIFEST_FILENAME,
    MARGINALS,
    PRIORS,
    VISITS_LOGNORMAL,
    WINDOW_END,
    WINDOW_START,
    CohortSpec,
    generate_cohort,
)
from oracles import visit_records


def read_tree(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


# files whose bytes do not depend on the spec (the calendar only without a header)
FIXED_DIGESTS = {
    "codes_catastrophic_dx.txt": "640ba5781063338f819a869144d0df6a4ee682dd4c23a932bce583e7099bbfd7",
    "codes_chronic_dx.txt": "bec5fb9b194d8c4dd32dc86315be734ef6d588c484fb73fb952e119f03a8f82f",
    "codes_er.txt": "97cf43abdef27a074100fb38c676820ddc59028cab829fbca2e414b8c59a9ce7",
    "codes_surgery.txt": "81f6e317be881fa1a625b78d3d78d628deb7009f338a65657e2a182376893065",
}
CALENDAR_DIGEST = "fa8450a4cef5e111060b88e740885b4d08f40403fbd90c6d54688ef2c52cdf88"

# (spec, header comment, sha256 of each other file), recorded from the
# per-visit generator this one replaced; they move only with the NumPy
# Generator stream or a deliberate change to the cohort
PINNED_COHORTS = [
    (dict(n_patients=40, seed=3, signal_strength=0.0), None, {
        "calendar.csv": CALENDAR_DIGEST,
        "density.csv": "6af788cb131bbe5ee0240c6eb24e00cae8280bcaa80ba6bf85b2868cfe898f80",
        "generator_manifest.json": "25a307788a64a964b9e7e2a9e37e4bfb8701b1b31e3d9e7f89aa1fd3e4a1385c",
        "patients.csv": "b56d25216b9b45569592f353516ccb89c2d18251068d26b2dbb8dd94db7d6f78",
        "providers.csv": "829c9956e2bbd3822239c737be03ba4737b467cc51271c5aac921ebe66631ed6",
        "visits.csv": "ac260acb4dc1b14749f362f0c4500de4494b568bfa61b318c22fc45de7d3b8e4",
    }),
    (dict(n_patients=60, seed=8, signal_strength=1.0, dirty_count=2), "config_hash=pinned", {
        "calendar.csv": "bdafe89888e10711b686a70f9e1e690066ff9fc5b53d9811158663e53fc32e3a",
        "density.csv": "66a01415bd293f8264259473f6c47de596f8e5e6b6c9cc31040c44bb18b5de59",
        "generator_manifest.json": "ae166ceee294f319f0f871d7636490aaf0c6cfe0f59b71cc37f582f656ab1bd0",
        "patients.csv": "904858bf58ab9013ede67ee869d26ab1c97e0023d2d6fb66a4c0eaf22773dbb1",
        "providers.csv": "fca715e92ca4b3f2c33395d6dac77fb7e92a1fd487609bbcc0d406f34b328aa2",
        "visits.csv": "c0a1c55cb1f568885cad4ce5afbecc3df4b6b260436138b0b90cab2f69de6600",
    }),
    (dict(n_patients=1, seed=5, signal_strength=0.3), None, {
        "calendar.csv": CALENDAR_DIGEST,
        "density.csv": "49929f4c2bc9230adf17f4baae76568f50d89da106bc7394dde3f6a4a2d72367",
        "generator_manifest.json": "6b9841bbdc6b4cae1a1136ce1415258b219d79a1d88398aa637a2b148a10f3e3",
        "patients.csv": "593935af41fcab67a5305eedc6fd89ed1152585234cc1607e243b379ca77c746",
        "providers.csv": "ac6aec4392156b4de8f5d321de59ebe590704b0a4bf6fcacadcd9a45f77a63af",
        "visits.csv": "7826558d9dcb7f602886f78ad3331879f37e9e2b3a49e25c9b1da72f751a92f6",
    }),
]


class TestCohortSpec:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="n_patients"):
            CohortSpec(n_patients=0)
        for bad in (1.5, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="signal_strength must be in"):
                CohortSpec(signal_strength=bad)
        with pytest.raises(ValueError, match="dirty_count"):
            CohortSpec(dirty_count=-1)

    def test_priors_normalize_and_follow_level_codes(self):
        assert PRIORS.sum() == pytest.approx(1.0, abs=1e-12)
        assert PRIORS[HospitalLevel.CLINIC] == max(PRIORS)
        shares = [MARGINALS[f"prior_{level}"] for level in ("center", "regional", "district", "clinic")]
        assert PRIORS[HospitalLevel.MEDICAL_CENTER] == pytest.approx(shares[0] / sum(shares))

    def test_lognormal_parameters_recover_the_target_moments(self):
        mu, sigma = VISITS_LOGNORMAL
        mean = np.exp(mu + sigma**2 / 2)
        var = (np.exp(sigma**2) - 1) * np.exp(2 * mu + sigma**2)
        assert mean == pytest.approx(MARGINALS["visits_mean"], rel=1e-12)
        assert np.sqrt(var) == pytest.approx(MARGINALS["visits_sd"], rel=1e-12)


class TestDeterminism:
    def test_same_spec_gives_byte_identical_trees(self, tmp_path):
        spec = CohortSpec(n_patients=80, seed=5, signal_strength=0.6)
        a = generate_cohort(spec, tmp_path / "a")
        b = generate_cohort(spec, tmp_path / "b")
        assert read_tree(a.directory) == read_tree(b.directory)
        assert a.manifest == b.manifest

    def test_different_seed_changes_the_visits(self, tmp_path):
        a = generate_cohort(CohortSpec(n_patients=60, seed=1), tmp_path / "a")
        b = generate_cohort(CohortSpec(n_patients=60, seed=2), tmp_path / "b")
        assert a.paths.visits.read_bytes() != b.paths.visits.read_bytes()

    @pytest.mark.parametrize("spec, comment, digests", PINNED_COHORTS,
                             ids=["null", "planted-dirty-header", "one-patient"])
    def test_files_keep_their_pinned_bytes(self, tmp_path, spec, comment, digests):
        generate_cohort(CohortSpec(**spec), tmp_path, header_comment=comment)
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(tmp_path.iterdir())}
        assert written == {**FIXED_DIGESTS, **digests}

    def test_header_comment_lands_on_every_csv(self, tmp_path):
        cohort = generate_cohort(
            CohortSpec(n_patients=30), tmp_path, header_comment="config_hash=abc123"
        )
        for path in (cohort.paths.patients, cohort.paths.visits, cohort.paths.providers):
            assert path.read_text().splitlines()[0] == "# config_hash=abc123"


class TestGeneratorStream:
    """`generate_cohort` draws each patient's bounded integers in one call
    with an array of bounds, in place of one call per value; the cohort
    keeps its bytes only while NumPy's Generator gives both the same values."""

    def test_array_bounds_draw_what_scalar_calls_draw(self):
        # spans as the generator uses them, a span of one value (which
        # draws nothing) and an odd count of 32-bit draws, which leaves
        # half of a 64-bit word buffered for the next integer call
        lows = np.array([1, 0, 731, 4, 1, 0, 3, 1, 0, 1024])
        highs = np.array([5, 1, 1461, 6, 4, 10, 4, 2, 2**31, 1045])
        looped, batched = np.random.default_rng(19), np.random.default_rng(19)
        assert looped.random(3).tolist() == batched.random(3).tolist()
        scalar = [int(looped.integers(lo, hi)) for lo, hi in zip(lows.tolist(), highs.tolist())]
        assert scalar == batched.integers(lows, highs).tolist()
        # a float draw takes a whole word and leaves the buffered half alone
        assert looped.random() == batched.random()
        assert int(looped.integers(0, 1000)) == int(batched.integers(0, 1000))
        assert looped.random() == batched.random()


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    spec = CohortSpec(n_patients=800, seed=11)
    return generate_cohort(spec, tmp_path_factory.mktemp("cohort"))


class TestCleanCohort:
    def test_reloads_without_exclusions(self, cohort):
        dataset, audit = load_dataset(DataPaths.from_dir(cohort.directory))
        assert audit == Counter()
        assert len(dataset.patients) == 800
        assert set(dataset.patients) == set(cohort.dataset.patients)
        assert len(dataset.visits) == cohort.manifest["n_visits"]

    def test_quota_marginals_are_exact(self, cohort):
        ds = cohort.dataset
        males = sum(p.gender == "male" for p in ds.patients.values())
        poor = sum(p.low_income for p in ds.patients.values())
        assert males == round(MARGINALS["male_rate"] * 800)
        assert poor == round(MARGINALS["low_income_rate"] * 800)

        visits = visit_records(ds.visits)
        n_visits = len(visits)
        surgery = sum(bool(v.treatment_codes & ds.code_sets.surgery_codes) for v in visits)
        er = sum(v.setting == "emergency" for v in visits)
        severe = sum(
            v.catastrophic_illness or (v.triage_level is not None and v.triage_level <= 3)
            for v in visits
        )
        workday = sum(ds.calendar.is_workday(v.visit_date) for v in visits)
        assert surgery == round(MARGINALS["surgery_rate"] * n_visits)
        assert er == round(MARGINALS["er_rate"] * n_visits)
        assert severe == round(MARGINALS["severe_rate"] * n_visits)
        assert workday == round(MARGINALS["workday_rate"] * n_visits)

    def test_population_moments_near_targets(self, cohort):
        ds = cohort.dataset
        ages = np.array(
            [(AGE_ANCHOR - p.birth_date).days / 365.25 for p in ds.patients.values()]
        )
        assert abs(ages.mean() - 45.80) < 2.5
        counts = Counter(v.patient_id for v in visit_records(ds.visits))
        assert abs(np.mean(list(counts.values())) - 16.70) < 2.0
        assert min(counts.values()) >= 1

    def test_dates_stay_inside_the_window_and_after_birth(self, cohort):
        ds = cohort.dataset
        for v in visit_records(ds.visits):
            assert WINDOW_START <= v.visit_date <= WINDOW_END
            assert v.visit_date >= ds.patients[v.patient_id].birth_date

    def test_visits_are_canonically_sorted(self, cohort):
        keys = [v.sort_key() for v in visit_records(cohort.dataset.visits)]
        assert keys == sorted(keys)

    def test_er_visits_carry_triage_and_others_do_not(self, cohort):
        for v in visit_records(cohort.dataset.visits):
            if v.setting == "emergency":
                assert v.triage_level in (1, 2, 3, 4, 5)
            else:
                assert v.triage_level is None

    def test_primary_dx_always_inside_dx_codes(self, cohort):
        assert all(v.primary_dx in v.dx_codes for v in visit_records(cohort.dataset.visits))

    def test_loyalty_half_concentrates_visits_on_one_provider(self, cohort):
        by_patient = {}
        for v in visit_records(cohort.dataset.visits):
            by_patient.setdefault(v.patient_id, []).append(v.provider_id)
        shares = [
            max(Counter(seq).values()) / len(seq)
            for seq in by_patient.values() if len(seq) >= 5
        ]
        assert 0.5 < np.mean(shares) < 0.9

    def test_manifest_shape(self, cohort):
        m = json.loads((cohort.directory / MANIFEST_FILENAME).read_text())
        assert m == cohort.manifest
        assert m["expected_audit"] == {}
        assert m["spec"]["n_patients"] == 800
        assert sum(m["provider_counts_by_level"].values()) >= 20
        assert m["window"] == [WINDOW_START.isoformat(), WINDOW_END.isoformat()]


class TestSignalGeometry:
    def test_null_cohort_visit_shares_track_the_priors(self, tmp_path):
        spec = CohortSpec(n_patients=700, seed=3, signal_strength=0.0)
        cohort = generate_cohort(spec, tmp_path)
        levels = Counter(
            cohort.dataset.providers[v.provider_id].level for v in visit_records(cohort.dataset.visits)
        )
        total = sum(levels.values())
        clinic_share = levels[HospitalLevel.CLINIC] / total
        assert abs(clinic_share - PRIORS[HospitalLevel.CLINIC]) < 0.06

    def test_signal_skews_supply_toward_clinics_but_not_demand(self, tmp_path):
        spec = CohortSpec(n_patients=600, seed=7, signal_strength=0.9)
        cohort = generate_cohort(spec, tmp_path)
        counts = cohort.manifest["provider_counts_by_level"]
        assert counts["clinic"] / sum(counts.values()) > 0.8
        levels = Counter(
            cohort.dataset.providers[v.provider_id].level for v in visit_records(cohort.dataset.visits)
        )
        clinic_visits = levels[HospitalLevel.CLINIC] / sum(levels.values())
        assert clinic_visits < 0.85
        # centers therefore serve far more patients apiece than clinics
        patients_at = {lvl: set() for lvl in HospitalLevel}
        for v in visit_records(cohort.dataset.visits):
            patients_at[cohort.dataset.providers[v.provider_id].level].add(v.patient_id)
        center_load = len(patients_at[HospitalLevel.MEDICAL_CENTER]) / counts["medical_center"]
        clinic_load = len(patients_at[HospitalLevel.CLINIC]) / counts["clinic"]
        assert center_load > 3 * clinic_load


class TestDirtyMode:
    def test_injected_violations_reproduce_the_expected_audit(self, tmp_path):
        spec = CohortSpec(n_patients=50, seed=13, dirty_count=2)
        cohort = generate_cohort(spec, tmp_path)
        dataset, audit = load_dataset(DataPaths.from_dir(cohort.directory))
        assert audit == cohort.expected_audit
        assert {r.value: c for r, c in sorted(audit.items(), key=lambda i: i[0].value)} == (
            cohort.manifest["expected_audit"]
        )
        assert sum(c for r, c in audit.items() if r.value == "no_visits") == 14
        assert sum(audit.values()) == 6 * 2 + 14
        # the surviving cohort is exactly the clean one
        assert set(dataset.patients) == set(cohort.dataset.patients)
        assert len(dataset.visits) == len(cohort.dataset.visits)

    def test_zero_dirty_count_appends_nothing(self, tmp_path):
        clean = generate_cohort(CohortSpec(n_patients=40, seed=4), tmp_path / "a")
        assert clean.expected_audit == Counter()
