"""Feature engineering: continuity indices, provider votes, incident flags,
the 18-column visit feature matrix and its CSV file, and min-max scaling.

Continuity is measured per patient over the full study period at the
provider (institute) level. Provider votes are tallied once over the whole
dataset: every patient casts exactly one most-frequent and one
least-frequent vote.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from datetime import date
from typing import Iterable, Mapping, Sequence

import numpy as np

from .atomic import open_atomic
from .domain import (
    CodeSets,
    Dataset,
    HospitalLevel,
    ProviderProfile,
    VisitRecord,
    WorkdayCalendar,
)

FEATURE_NAMES = (
    "age",
    "male",
    "low_income",
    "total_visits",
    "total_diseases",
    "total_chronic_diseases",
    "upc",
    "lupc",
    "secoc",
    "coci",
    "physician_density",
    "mfpc",
    "lfpc",
    "is_surgery",
    "is_er",
    "is_severe",
    "is_workday",
    "dir",
)

N_FEATURES = len(FEATURE_NAMES)

# Count-like features that need min-max scaling; ratio features and binary
# flags are already in [0,1] and pass through untouched.
SCALED_FEATURES = (
    "age",
    "total_visits",
    "total_diseases",
    "total_chronic_diseases",
    "physician_density",
    "mfpc",
    "lfpc",
)


@dataclass(frozen=True)
class VisitSequence:
    """One patient's chronological provider trajectory."""

    patient_id: str
    provider_ids: tuple[str, ...]

    @property
    def n_visits(self) -> int:
        return len(self.provider_ids)

    @property
    def counts(self) -> Counter:
        return Counter(self.provider_ids)

    @property
    def n_providers(self) -> int:
        return len(set(self.provider_ids))


@dataclass(frozen=True)
class ContinuityIndices:
    upc: float
    lupc: float
    secoc: float
    coci: float


def continuity_indices(seq: VisitSequence) -> ContinuityIndices:
    """Compute the four continuity-of-care indices for one patient.

    upc/lupc are the max/min share of visits going to any provider actually
    visited; secoc is the fraction of consecutive visit pairs at the same
    provider; coci is the concentration index (sum n_i^2 - N) / (N(N-1)).
    A single visit has no dispersion to measure, so secoc and coci are
    defined as 1.0 for N == 1.
    """
    n = seq.n_visits
    if n == 0:
        raise ValueError(f"patient {seq.patient_id}: empty visit sequence")
    counts = seq.counts
    upc = max(counts.values()) / n
    lupc = min(counts.values()) / n
    if n == 1:
        return ContinuityIndices(upc=upc, lupc=lupc, secoc=1.0, coci=1.0)
    same_pairs = sum(
        1 for a, b in zip(seq.provider_ids, seq.provider_ids[1:]) if a == b
    )
    secoc = same_pairs / (n - 1)
    coci = (sum(c * c for c in counts.values()) - n) / (n * (n - 1))
    return ContinuityIndices(upc=upc, lupc=lupc, secoc=secoc, coci=coci)


@dataclass(frozen=True)
class ProviderVotes:
    provider_id: str
    mfpc: int
    lfpc: int


def provider_votes(sequences: Iterable[VisitSequence]) -> dict[str, ProviderVotes]:
    """Tally most/least-frequent provider votes across patients.

    Each patient votes exactly once for the provider with the most visits
    and once for the provider with the fewest (ties broken by smallest
    provider id; a single-provider patient votes it for both).
    """
    mfpc: Counter = Counter()
    lfpc: Counter = Counter()
    for seq in sequences:
        counts = seq.counts
        if not counts:
            raise ValueError(f"patient {seq.patient_id}: empty visit sequence")
        most = min(counts, key=lambda p: (-counts[p], p))
        least = min(counts, key=lambda p: (counts[p], p))
        mfpc[most] += 1
        lfpc[least] += 1
    providers = set(mfpc) | set(lfpc)
    return {p: ProviderVotes(p, mfpc.get(p, 0), lfpc.get(p, 0)) for p in sorted(providers)}


def disease_importance_rate(patient_visits: Sequence[VisitRecord], target: VisitRecord) -> float:
    """Share of the patient's visits whose primary diagnosis matches the target's."""
    if not patient_visits:
        raise ValueError("patient has no visits")
    matches = sum(1 for v in patient_visits if v.primary_dx == target.primary_dx)
    return matches / len(patient_visits)


def incident_flags(
    record: VisitRecord, code_sets: CodeSets, calendar: WorkdayCalendar
) -> tuple[bool, bool, bool, bool]:
    """(is_surgery, is_er, is_severe, is_workday) for one accepted record."""
    is_surgery = bool(record.treatment_codes & code_sets.surgery_codes)
    is_er = record.setting == "emergency" or bool(record.treatment_codes & code_sets.er_codes)
    is_severe = (
        (record.triage_level is not None and record.triage_level <= 3)
        or record.catastrophic_illness
        or record.primary_dx in code_sets.catastrophic_dx_codes
    )
    if record.visit_date is None:
        raise ValueError("record has no visit date")
    return is_surgery, is_er, is_severe, calendar.is_workday(record.visit_date)


def age_at(birth: date, visit: date) -> int:
    """Whole years between birth date and visit date."""
    years = visit.year - birth.year
    if (visit.month, visit.day) < (birth.month, birth.day):
        years -= 1
    return years


class MissingRegionError(Exception):
    pass


def _provider_columns(
    provider: ProviderProfile,
    votes: Mapping[str, ProviderVotes],
    region_stats: Mapping[str, float],
) -> tuple[float, float, float, int]:
    """(physician_density, mfpc, lfpc, label) shared by every visit to a provider."""
    if provider.region_code not in region_stats:
        raise MissingRegionError(
            f"provider {provider.provider_id}: region {provider.region_code!r} "
            "missing from the physician-density table"
        )
    vote = votes.get(provider.provider_id)
    return (
        region_stats[provider.region_code],
        float(vote.mfpc) if vote else 0.0,
        float(vote.lfpc) if vote else 0.0,
        int(provider.level),
    )


def build_visit_sequences(dataset: Dataset) -> dict[str, VisitSequence]:
    by_patient: dict[str, list[str]] = {}
    for v in dataset.visits:  # visits already in canonical chronological order
        by_patient.setdefault(v.patient_id, []).append(v.provider_id)
    return {pid: VisitSequence(pid, tuple(provs)) for pid, provs in by_patient.items()}


def build_feature_vectors(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Compute every visit's 18 features and hospital-level label.

    Returns X of shape (n, 18), columns in FEATURE_NAMES order, and integer
    labels y, one row per visit in the dataset's canonical visit order.
    Vote tallies are global over all patients; continuity, disease counts,
    and the disease-importance rate are per patient over the study period,
    so they are computed once per patient and shared by its rows.
    """
    sequences = build_visit_sequences(dataset)
    votes = provider_votes(sequences.values())

    visits = dataset.visits
    rows_by_patient: dict[str, list[int]] = {}
    for i, v in enumerate(visits):
        rows_by_patient.setdefault(v.patient_id, []).append(i)

    code_sets, calendar = dataset.code_sets, dataset.calendar
    chronic = code_sets.chronic_dx_codes
    provider_columns: dict[str, tuple[float, float, float, int]] = {}
    rows: list = [None] * len(visits)
    labels = [0] * len(visits)
    for pid, row_ids in rows_by_patient.items():
        patient = dataset.patients[pid]
        assert patient.birth_date is not None
        seq = sequences[pid]
        n = seq.n_visits
        indices = continuity_indices(seq)
        patient_visits = [visits[i] for i in row_ids]
        dx_counts = Counter(v.primary_dx for v in patient_visits)
        all_dx: set[str] = set()
        for v in patient_visits:
            all_dx |= v.dx_codes
        patient_columns = (
            1.0 if patient.gender == "male" else 0.0,
            1.0 if patient.low_income else 0.0,
            float(n),
            float(len(all_dx)),
            float(len(all_dx & chronic)),
            indices.upc,
            indices.lupc,
            indices.secoc,
            indices.coci,
        )
        for i, v in zip(row_ids, patient_visits):
            is_surgery, is_er, is_severe, is_workday = incident_flags(v, code_sets, calendar)
            provider = provider_columns.get(v.provider_id)
            if provider is None:
                provider = provider_columns[v.provider_id] = _provider_columns(
                    dataset.providers[v.provider_id], votes, dataset.region_stats
                )
            density, mfpc, lfpc, labels[i] = provider
            rows[i] = (
                float(age_at(patient.birth_date, v.visit_date)),
                *patient_columns,
                density,
                mfpc,
                lfpc,
                float(is_surgery),
                float(is_er),
                float(is_severe),
                float(is_workday),
                dx_counts[v.primary_dx] / n,
            )
    X = np.array(rows, dtype=np.float64).reshape(len(rows), N_FEATURES)
    return X, np.array(labels, dtype=np.int64)


@dataclass(frozen=True)
class ScalerParams:
    """Per-feature (min, max) fitted on training rows for the count-like features."""

    mins: Mapping[str, float]
    maxs: Mapping[str, float]
    scaled_features: tuple[str, ...] = SCALED_FEATURES

    @property
    def degenerate(self) -> tuple[str, ...]:
        return tuple(f for f in self.scaled_features if self.mins[f] == self.maxs[f])

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Min-max scale the fitted columns, clamped to [0,1]; degenerate
        columns (min == max) map to 0."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64)).copy()
        for name in self.scaled_features:
            j = FEATURE_NAMES.index(name)
            lo, hi = self.mins[name], self.maxs[name]
            if hi > lo:
                X[:, j] = np.clip((X[:, j] - lo) / (hi - lo), 0.0, 1.0)
            else:
                X[:, j] = 0.0
        return X

    def to_dict(self) -> dict:
        return {
            "scaled_features": list(self.scaled_features),
            "mins": {k: self.mins[k] for k in self.scaled_features},
            "maxs": {k: self.maxs[k] for k in self.scaled_features},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScalerParams":
        return cls(
            mins=dict(d["mins"]), maxs=dict(d["maxs"]), scaled_features=tuple(d["scaled_features"])
        )


def fit_scaler(X: np.ndarray) -> ScalerParams:
    """Fit per-feature (min, max) on training rows only."""
    X = np.atleast_2d(X)
    if X.shape[0] == 0:
        raise ValueError("cannot fit scaler on zero rows")
    mins = {}
    maxs = {}
    for name in SCALED_FEATURES:
        j = FEATURE_NAMES.index(name)
        mins[name] = float(X[:, j].min())
        maxs[name] = float(X[:, j].max())
    return ScalerParams(mins=mins, maxs=maxs)


_CSV_COLUMNS = FEATURE_NAMES + ("label",)
_LEVEL_CODES = [int(level) for level in HospitalLevel]


class FeatureFileError(Exception):
    """A feature file that does not hold the header and rows write_feature_csv writes."""


def write_feature_csv(path, X: np.ndarray, y: np.ndarray, header_comment: str | None = None):
    """Export the feature matrix with 17-significant-digit decimals so the
    written values round-trip bit-exactly."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[1] != N_FEATURES or y.shape != (X.shape[0],):
        raise ValueError(f"expected X of shape (n, {N_FEATURES}) and y of shape (n,), "
                         f"got {X.shape} and {y.shape}")
    # Columns repeat few distinct values, so each is formatted once. "%.17g"
    # is the shortest fixed precision that round-trips every float64; the
    # bit patterns are compared so that -0.0 and 0.0 stay distinct.
    bits = X.view(np.uint64)
    columns = [_format_distinct(bits[:, j], np.float64, "%.17g") for j in range(N_FEATURES)]
    columns.append(_format_distinct(y, y.dtype, "%d"))
    with open_atomic(path) as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write(",".join(_CSV_COLUMNS) + "\n")
        fh.writelines([",".join(cells) + "\n" for cells in zip(*columns)])


def _format_distinct(keys: np.ndarray, dtype, fmt: str) -> list[str]:
    """`fmt % value` for every entry, formatting each distinct key once."""
    distinct, inverse = np.unique(keys, return_inverse=True)
    texts = np.array([fmt % v for v in distinct.view(dtype).tolist()], dtype=object)
    return texts[inverse].tolist()


def read_feature_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a feature file back into (X, y), every value bit-exact.

    Leading '#' lines are skipped and the header must name the 18 features
    and the label. A malformed body raises FeatureFileError naming the file
    and the first bad line.
    """
    with open(path, encoding="utf-8") as fh:
        line, header_line = fh.readline(), 1
        while line.startswith("#"):
            line, header_line = fh.readline(), header_line + 1
        header = line.strip().split(",")
        if header != list(_CSV_COLUMNS):
            raise FeatureFileError(f"{path}:{header_line}: unexpected feature columns: {header}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # an empty body is zero rows
                data = np.loadtxt(fh, dtype=np.float64, delimiter=",", comments="#", ndmin=2)
        except ValueError as exc:
            raise _first_bad_row(path, header_line) or FeatureFileError(f"{path}: {exc}")
    if data.size == 0:
        return np.empty((0, N_FEATURES)), np.empty(0, dtype=np.int64)
    if data.shape[1] != len(_CSV_COLUMNS) or not np.isin(data[:, -1], _LEVEL_CODES).all():
        raise _first_bad_row(path, header_line) or FeatureFileError(f"{path}: malformed rows")
    return np.ascontiguousarray(data[:, :N_FEATURES]), data[:, -1].astype(np.int64)


def _first_bad_row(path, header_line: int) -> FeatureFileError | None:
    """Error for the first body line that is not 19 numbers ending in a level code."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            cells = line.strip().split(",")
            if lineno <= header_line or line.startswith("#") or cells == [""]:
                continue
            if len(cells) != len(_CSV_COLUMNS):
                return FeatureFileError(
                    f"{path}:{lineno}: expected {len(_CSV_COLUMNS)} columns, found {len(cells)}"
                )
            for name, cell in zip(_CSV_COLUMNS, cells):
                try:
                    float(cell)
                except ValueError:
                    return FeatureFileError(f"{path}:{lineno}: {name} is not a number: {cell!r}")
            if float(cells[-1]) not in _LEVEL_CODES:
                return FeatureFileError(
                    f"{path}:{lineno}: label must be a hospital-level code "
                    f"{_LEVEL_CODES}, got {cells[-1]!r}"
                )
    return None
