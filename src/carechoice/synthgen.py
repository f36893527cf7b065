"""Seeded synthetic claims cohort, calibrated to published cohort marginals.

The generator fabricates patients, providers, and visit lines whose
marginal statistics (class priors, age, gender, income, visit volume,
incident flags) land within tolerance of the published targets, then
writes the standard ingest file set.

Choice signal. With signal_strength 0 every visit's hospital level is an
independent draw from the priors, so no feature carries label
information. With signal_strength s > 0 two published rules make the
provider-vote and density features genuinely predictive:

  provider supply   share of providers at level L interpolates on the
                    log scale between the visit priors (s = 0) and a
                    skewed target (s = 1) with far fewer, larger
                    tertiary sites, so per-provider vote tallies spread
                    out by level;
  density tilt      both provider placement and each patient's choice
                    of level are reweighted by softmax(log prior +
                    s * beta_L * z_region), where z_region is the
                    standardized physician density.

A dirty mode appends malformed rows at known counts so the exclusion
audit can be checked exactly.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass
from datetime import date, timedelta
from pathlib import Path
from typing import Optional

import numpy as np

from .atomic import open_atomic
from .domain import (
    LEVEL_NAMES,
    N_LEVELS,
    NO_TRIAGE,
    CodeSets,
    Dataset,
    ExclusionReason,
    HospitalLevel,
    PatientProfile,
    ProviderProfile,
    VisitTable,
    WorkdayCalendar,
)
from .ingest import DataPaths, write_dataset

WINDOW_START = date(2008, 1, 1)
WINDOW_END = date(2011, 12, 31)
AGE_ANCHOR = date(2010, 1, 1)  # birth dates are anchored so age 0 stays inside the window

# Provider-supply skew at full signal (by level code: center, regional,
# district, clinic). Fewer tertiary sites means bigger per-site vote counts.
LEVEL_TARGET_SKEW = (0.003, 0.012, 0.05, 0.935)
# Density tilt per level: dense regions favor tertiary care.
DENSITY_BETA = (0.9, 0.45, 0.0, -0.25)

# The published cohort every generated one is calibrated to: class shares,
# age, gender, income, visit volume and incident rates, plus the care
# network's loyalty and the regions' physician density. The manifest
# records them beside the spec.
MARGINALS = {
    "loyalty": 0.5,  # probability that a visit goes to the patient's primary provider
    "prior_clinic": 0.7242,
    "prior_regional": 0.1073,
    "prior_center": 0.0851,
    "prior_district": 0.0835,
    "age_mean": 45.80,
    "age_sd": 16.33,
    "male_rate": 0.4791,
    "low_income_rate": 0.0228,
    "visits_mean": 16.70,
    "visits_sd": 15.39,
    "surgery_rate": 0.0279,
    "er_rate": 0.0181,
    "severe_rate": 0.0349,
    "workday_rate": 0.8373,
    "density_mean": 24.224,
    "density_sd": 8.0,
    "n_regions": 20,
}
# visit-level class priors indexed by hospital-level code; the published
# shares are rounded percentages, so they are renormalized
_PRIOR_SHARES = np.array(
    [MARGINALS[f"prior_{level}"] for level in ("center", "regional", "district", "clinic")]
)
PRIORS = _PRIOR_SHARES / _PRIOR_SHARES.sum()
# (mu, sigma) of the log-normal matching the visit-count mean and SD
_VISITS_SIGMA_SQ = np.log(1.0 + (MARGINALS["visits_sd"] / MARGINALS["visits_mean"]) ** 2)
VISITS_LOGNORMAL = (float(np.log(MARGINALS["visits_mean"]) - _VISITS_SIGMA_SQ / 2.0),
                    float(np.sqrt(_VISITS_SIGMA_SQ)))

DX_VOCAB_SIZE = 200
DX_ZIPF_EXPONENT = 1.1
CHRONIC_VOCAB_FRACTION = 0.25
MAX_EXTRA_DX = 2
CATASTROPHIC_CODES = ("C900", "C901")  # never drawn as diagnoses
SURGERY_CODES = tuple(f"T{c}" for c in range(100, 110))
ER_TREATMENT_CODES = ("E600", "E601")  # ER status is flagged via the visit setting instead

MANIFEST_FILENAME = "generator_manifest.json"


@dataclass(frozen=True)
class CohortSpec:
    """What varies between cohorts; the marginals are the published ones."""

    n_patients: int = 5000
    seed: int = 0
    signal_strength: float = 0.0
    dirty_count: int = 0  # violations injected per exclusion type

    def __post_init__(self):
        if self.n_patients < 1:
            raise ValueError(f"n_patients must be positive, got {self.n_patients}")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not 0.0 <= self.signal_strength <= 1.0:  # also refuses NaN
            raise ValueError(f"signal_strength must be in [0,1], got {self.signal_strength}")
        if self.dirty_count < 0:
            raise ValueError(f"dirty_count must be nonnegative, got {self.dirty_count}")


@dataclass(frozen=True)
class GeneratedCohort:
    """Where the files went plus what a clean reload should observe."""

    directory: Path
    paths: DataPaths
    dataset: Dataset  # the clean cohort, before any dirty rows
    expected_audit: Counter
    manifest: dict


def _softmax(v: np.ndarray) -> np.ndarray:
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _quota_flags(n: int, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Boolean vector with exactly round(rate*n) True entries, placed at random."""
    flags = np.zeros(n, dtype=bool)
    k = int(round(rate * n))
    if k > 0:
        flags[rng.choice(n, size=min(k, n), replace=False)] = True
    return flags


def _choose_rows(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw per row: probs is (n, k), u is (n,) uniforms."""
    cums = probs.cumsum(axis=1)
    # clip guards the case where u exceeds a cumsum that rounds below 1.0
    return np.minimum((u[:, np.newaxis] > cums).sum(axis=1), probs.shape[1] - 1)


def _segment_positions(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions start, start + 1, ... of each segment, segment after segment."""
    return np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())


def _make_calendar() -> WorkdayCalendar:
    entries = {}
    d = WINDOW_START
    while d <= WINDOW_END:
        entries[d] = d.weekday() < 5
        d += timedelta(days=1)
    return WorkdayCalendar(entries)


def generate_cohort(
    spec: CohortSpec, out_dir: str | Path, header_comment: Optional[str] = None
) -> GeneratedCohort:
    """Generate and write one cohort; same spec, byte-identical files."""
    rng = np.random.default_rng(spec.seed)
    out_dir = Path(out_dir)
    log_priors = np.log(PRIORS)
    beta = np.asarray(DENSITY_BETA)
    s = spec.signal_strength

    # regions and standardized density
    n_regions = MARGINALS["n_regions"]
    region_codes = [f"R{r:03d}" for r in range(n_regions)]
    densities = np.clip(
        rng.normal(MARGINALS["density_mean"], MARGINALS["density_sd"], size=n_regions), 5.0, 60.0
    )
    dens_sd = densities.std()
    z_region = (densities - densities.mean()) / dens_sd if dens_sd > 0 else np.zeros_like(densities)

    # provider supply: log-interpolate level shares between priors and the skew target
    # a dense provider pool keeps per-provider vote counts small and heavily
    # collided at signal 0, so provider identity cannot be memorized from the
    # vote features; the planted supply skew still concentrates high levels
    n_providers = max(20, spec.n_patients // 5)
    skew = np.asarray(LEVEL_TARGET_SKEW)
    shares = np.exp((1.0 - s) * log_priors + s * np.log(skew))
    shares /= shares.sum()
    level_counts = np.maximum(1, np.rint(shares * n_providers).astype(int))

    # placement tilt: P(region | level) ∝ exp(s * beta_level * z_region)
    slots: list[tuple[int, int]] = []
    for level in range(N_LEVELS):
        placement = _softmax(s * beta[level] * z_region)
        for _ in range(level_counts[level]):
            slots.append((level, int(rng.choice(n_regions, p=placement))))
    # ids must not encode the level: vote ties break toward the smallest
    # provider id, so id order aligned with level would leak level into
    # the vote features even with no signal planted
    slots = [slots[i] for i in rng.permutation(len(slots))]

    providers: dict[str, ProviderProfile] = {}
    provider_level: list[int] = []
    provider_region: list[int] = []
    for level, region in slots:
        pid = f"H{len(providers):05d}"
        providers[pid] = ProviderProfile(pid, HospitalLevel(level), region_codes[region])
        provider_level.append(level)
        provider_region.append(region)
    provider_ids = list(providers)
    pools: dict[tuple[int, int], np.ndarray] = {}
    for idx, (lvl, reg) in enumerate(zip(provider_level, provider_region)):
        pools.setdefault((reg, lvl), []).append(idx)  # type: ignore[arg-type]
    pools = {key: np.asarray(ids) for key, ids in pools.items()}
    global_pools = {
        lvl: np.flatnonzero(np.asarray(provider_level) == lvl) for lvl in range(N_LEVELS)
    }

    # patients
    n = spec.n_patients
    ages = np.clip(rng.normal(MARGINALS["age_mean"], MARGINALS["age_sd"], size=n), 0.0, 110.0)
    male = _quota_flags(n, MARGINALS["male_rate"], rng)
    low_income = _quota_flags(n, MARGINALS["low_income_rate"], rng)
    home_region = rng.integers(0, n_regions, size=n)
    mu, sigma = VISITS_LOGNORMAL
    visit_counts = np.maximum(1, np.rint(rng.lognormal(mu, sigma, size=n))).astype(np.int64)

    patients: dict[str, PatientProfile] = {}
    birth_dates: list[date] = []
    for i in range(n):
        pid = f"P{i:06d}"
        birth = AGE_ANCHOR - timedelta(days=int(round(ages[i] * 365.25)))
        birth_dates.append(birth)
        patients[pid] = PatientProfile(
            patient_id=pid,
            birth_date=birth,
            gender="male" if male[i] else "female",
            low_income=bool(low_income[i]),
        )

    # per-patient care network: level choice tilted by home-region density
    tilt = _softmax(log_priors[np.newaxis, :] + s * beta[np.newaxis, :] * z_region[:, np.newaxis])
    primary_level = _choose_rows(tilt[home_region], rng.random(n))

    def _pick_provider(region: int, level: int) -> int:
        # regional pools are part of the signal: levels with few providers
        # would otherwise carry uneven per-provider loads (one center soaks up
        # a whole region) and that load variance leaks into the vote features
        # even with no signal planted, so the null cohort draws region-blind
        pool = pools.get((region, level)) if rng.random() < s else None
        if pool is None:
            pool = global_pools[level]  # nobody at that level nearby; travel
        return int(pool[rng.integers(pool.size)])

    # each alternate's level is an inverse-CDF draw against its home
    # region's cumulative row, as `_choose_rows` draws the primary level
    region_cums = tilt.cumsum(axis=1).tolist()
    networks: list[list[int]] = []
    n_alternates = rng.integers(1, 5, size=n)
    for region, level, n_alt in zip(home_region.tolist(), primary_level.tolist(),
                                    n_alternates.tolist()):
        chosen = [_pick_provider(region, level)]
        cums = region_cums[region]
        for u in rng.random(n_alt).tolist():
            lvl = min(sum(u > c for c in cums), N_LEVELS - 1)
            pick = _pick_provider(region, lvl)
            tries = 0
            while pick in chosen and tries < 8:
                pick = _pick_provider(region, lvl)
                tries += 1
            while pick in chosen:  # tiny pool; fall back to any distinct provider
                pick = int(rng.integers(len(provider_ids)))
            chosen.append(pick)
        networks.append(chosen)

    # visit-level quotas
    total_visits = int(visit_counts.sum())
    surgery = _quota_flags(total_visits, MARGINALS["surgery_rate"], rng)
    er = _quota_flags(total_visits, MARGINALS["er_rate"], rng)
    severe = _quota_flags(total_visits, MARGINALS["severe_rate"], rng)
    workday = _quota_flags(total_visits, MARGINALS["workday_rate"], rng)

    # diagnosis vocabulary: Zipf-weighted tokens; the most common fraction is chronic
    vocab = [f"D{i:03d}" for i in range(DX_VOCAB_SIZE)]
    zipf_w = 1.0 / np.arange(1, DX_VOCAB_SIZE + 1) ** DX_ZIPF_EXPONENT
    zipf_cum = np.cumsum(zipf_w / zipf_w.sum())
    chronic = frozenset(vocab[: int(DX_VOCAB_SIZE * CHRONIC_VOCAB_FRACTION)])
    last = DX_VOCAB_SIZE - 1
    primary_dx_idx = np.minimum(
        np.searchsorted(zipf_cum, rng.random(total_visits), side="right"), last
    )
    extra_counts = rng.integers(0, MAX_EXTRA_DX + 1, size=total_visits)
    extra_idx = np.minimum(
        np.searchsorted(zipf_cum, rng.random(int(extra_counts.sum())), side="right"), last
    )

    calendar = _make_calendar()
    all_days = sorted(calendar.entries)
    wd_ords = np.asarray([d.toordinal() for d in all_days if calendar.entries[d]])
    we_ords = np.asarray([d.toordinal() for d in all_days if not calendar.entries[d]])

    # Each patient's visits take one `random` call (loyalty) and one
    # `integers` call whose bounds list, in order: an alternate pick per
    # visit (when the network has more than one provider), then per visit
    # its date, its triage level if it is ER and its surgery code if it is
    # a surgery. NumPy's Generator draws each bounded integer alike whether
    # the bounds come one call at a time or as arrays, so these are the
    # values a per-visit loop would draw. The loyalty draws cannot be
    # batched across patients: a float takes a whole 64-bit word, while an
    # integer below 2**32 takes half of one and may leave the other half
    # buffered for the next integer, so the interleaving must stay.
    net_sizes = np.array([len(net) for net in networks])
    patient_of = np.repeat(np.arange(n), visit_counts)
    alt_counts = np.where(net_sizes > 1, visit_counts, 0)
    visit_slots = 1 + er.astype(np.int64) + surgery
    patient_slots = alt_counts + np.add.reduceat(visit_slots, np.cumsum(visit_counts) - visit_counts)
    slot_end = np.cumsum(patient_slots)
    alt_slot = _segment_positions(slot_end - patient_slots, alt_counts)
    date_slot = np.cumsum(visit_slots) - visit_slots + np.cumsum(alt_counts)[patient_of]
    triage_slot = date_slot[er] + 1
    surgery_slot = date_slot[surgery] + 1 + er[surgery]
    earliest = np.array([max(WINDOW_START, b).toordinal() for b in birth_dates])[patient_of]
    lows = np.zeros(int(slot_end[-1]), np.int64)  # a surgery code's bounds by default
    highs = np.full(lows.size, len(SURGERY_CODES), np.int64)
    lows[alt_slot], highs[alt_slot] = 1, np.repeat(net_sizes, alt_counts)
    lows[date_slot] = np.where(workday, np.searchsorted(wd_ords, earliest),
                               np.searchsorted(we_ords, earliest))
    highs[date_slot] = np.where(workday, wd_ords.size, we_ords.size)
    lows[triage_slot] = np.where(severe[er], 1, 4)
    highs[triage_slot] = np.where(severe[er], 4, 6)

    loyalty_u = np.empty(total_visits)
    draws = np.empty(lows.size, np.int64)
    visit_ends, slot_ends = np.cumsum(visit_counts).tolist(), slot_end.tolist()
    for v0, v1, s0, s1 in zip([0, *visit_ends], visit_ends, [0, *slot_ends], slot_ends):
        loyalty_u[v0:v1] = rng.random(v1 - v0)
        draws[s0:s1] = rng.integers(lows[s0:s1], highs[s0:s1])

    alt_pick = np.zeros(total_visits, np.int64)
    alt_pick[np.repeat(net_sizes > 1, visit_counts)] = draws[alt_slot]
    network_pos = (np.cumsum(net_sizes) - net_sizes)[patient_of]
    network_pos += np.where(loyalty_u < MARGINALS["loyalty"], 0, alt_pick)
    days = np.empty(total_visits, np.int64)
    days[workday] = wd_ords[draws[date_slot[workday]]]
    days[~workday] = we_ords[draws[date_slot[~workday]]]
    triage = np.full(total_visits, NO_TRIAGE, np.int64)
    triage[er] = draws[triage_slot]
    # codes index vocab, then SURGERY_CODES; a visit's dx row is its primary
    # code and its extras, and its treatment row its surgery code if any
    dx = np.full((total_visits, 1 + MAX_EXTRA_DX), -1, np.int64)
    dx[:, 0] = primary_dx_idx
    dx[np.repeat(np.arange(total_visits), extra_counts),
       1 + _segment_positions(np.zeros(total_visits, np.int64), extra_counts)] = extra_idx
    treatments = np.full((total_visits, 1), -1, np.int64)
    treatments[surgery, 0] = DX_VOCAB_SIZE + draws[surgery_slot]
    visits = VisitTable.from_codes(
        patient_ids=list(patients),
        provider_ids=provider_ids,
        codes=vocab + list(SURGERY_CODES),
        patient=patient_of,
        provider=np.concatenate(networks)[network_pos],
        day=days,
        primary=primary_dx_idx,
        dx=dx,
        treatments=treatments,
        triage=triage,
        catastrophic=severe & ~er,
        emergency=er,
    ).sorted()

    dataset = Dataset(
        patients=patients,
        providers=providers,
        visits=visits,
        region_stats={code: float(d) for code, d in zip(region_codes, densities)},
        calendar=calendar,
        code_sets=CodeSets(
            surgery_codes=frozenset(SURGERY_CODES),
            er_codes=frozenset(ER_TREATMENT_CODES),
            chronic_dx_codes=chronic,
            catastrophic_dx_codes=frozenset(CATASTROPHIC_CODES),
        ),
    )
    paths = write_dataset(dataset, out_dir, header_comment)
    expected_audit = _append_dirty_rows(paths, spec.dirty_count, provider_ids[0])

    manifest = {
        "spec": {**asdict(spec), **MARGINALS},
        "window": [WINDOW_START.isoformat(), WINDOW_END.isoformat()],
        "visits_lognormal": {"mu": mu, "sigma": sigma},
        "level_order": [LEVEL_NAMES[HospitalLevel(c)] for c in range(N_LEVELS)],
        "priors_normalized": [float(p) for p in PRIORS],
        "level_target_skew": list(LEVEL_TARGET_SKEW),
        "density_beta": list(DENSITY_BETA),
        "provider_counts_by_level": {
            LEVEL_NAMES[HospitalLevel(c)]: int(level_counts[c]) for c in range(N_LEVELS)
        },
        "signal_rule": (
            "P(level | region) = softmax(log prior + signal_strength * beta * z_region); "
            "provider level shares = normalize(prior^(1-signal) * skew^signal); "
            "providers come from the home-region pool with probability "
            "signal_strength, otherwise from the whole level; each visit goes "
            "to the patient's primary provider with probability `loyalty`, "
            "otherwise to a uniformly chosen alternate"
        ),
        "n_visits": total_visits,
        "region_density": {code: float(d) for code, d in zip(region_codes, densities)},
        "expected_audit": {reason.value: count for reason, count in sorted(
            expected_audit.items(), key=lambda item: item[0].value
        )},
    }
    with open_atomic(out_dir / MANIFEST_FILENAME) as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=1) + "\n")

    return GeneratedCohort(
        directory=out_dir,
        paths=paths,
        dataset=dataset,
        expected_audit=expected_audit,
        manifest=manifest,
    )


def _append_dirty_rows(paths: DataPaths, k: int, good_provider_id: str) -> Counter:
    """Append k malformed rows per exclusion type; returns the expected audit.

    Every injected patient with a bad record gets exactly one visit, so each
    record-level exclusion also removes its patient (one extra no_visits
    count apiece) and the audit stays exactly predictable.
    """
    audit: Counter = Counter()
    if k <= 0:
        return audit

    good_date = "2010-06-15"
    with open(paths.patients, "a", newline="", encoding="utf-8") as fh:
        for i in range(k):
            fh.write(f"X_MBG{i:03d},,male,0\n")  # birth date missing
            fh.write(f"X_CG{i:03d},1980-01-01,male,0\n")  # conflicting gender pair
            fh.write(f"X_CG{i:03d},1980-01-01,female,0\n")
            fh.write(f"X_MVD{i:03d},1980-01-01,female,0\n")
            fh.write(f"X_BAV{i:03d},2013-06-01,male,0\n")  # born after the visit below
            fh.write(f"X_NPD{i:03d},1980-01-01,female,0\n")
            fh.write(f"X_IHI{i:03d},1980-01-01,male,0\n")
            fh.write(f"X_NV{i:03d},1980-01-01,female,0\n")  # no visit rows at all

    with open(paths.visits, "a", newline="", encoding="utf-8") as fh:
        for i in range(k):
            fh.write(f"X_MBG{i:03d},{good_provider_id},{good_date},D000,,,,0,outpatient\n")
            fh.write(f"X_CG{i:03d},{good_provider_id},{good_date},D000,,,,0,outpatient\n")
            fh.write(f"X_MVD{i:03d},{good_provider_id},,D000,,,,0,outpatient\n")  # date missing
            fh.write(f"X_BAV{i:03d},{good_provider_id},2010-06-01,D000,,,,0,outpatient\n")
            fh.write(f"X_NPD{i:03d},{good_provider_id},{good_date},,,,,0,outpatient\n")  # no dx
            fh.write(f"X_IHI{i:03d},H_NOWHERE,{good_date},D000,,,,0,outpatient\n")  # unknown site

    audit[ExclusionReason.MISSING_BIRTH_OR_GENDER] = k
    audit[ExclusionReason.CONFLICTING_GENDER] = k
    audit[ExclusionReason.MISSING_VISIT_DATE] = k
    audit[ExclusionReason.BIRTH_AFTER_VISIT] = k
    audit[ExclusionReason.NO_PRIMARY_DIAGNOSIS] = k
    audit[ExclusionReason.INCOMPLETE_HOSPITAL_INFO] = k
    # 6k bad-record patients lose their only visit, plus k patients with none
    audit[ExclusionReason.NO_VISITS] = 7 * k
    return audit
