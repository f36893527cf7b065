"""Feature engineering: continuity indices, provider votes, incident flags,
the 18-column visit feature matrix and its CSV file, and min-max scaling.

Continuity is measured per patient over the full study period at the
provider (institute) level. Provider votes are tallied once over the whole
dataset: every patient casts exactly one most-frequent and one
least-frequent vote.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from datetime import date
from itertools import islice
from typing import Mapping, Optional

import numpy as np

from .arrayzip import READ_ERRORS, file_sha256, read_array_zip, write_array_zip
from .atomic import open_atomic
from .domain import NO_DATE, NO_TRIAGE, DataError, Dataset, HospitalLevel, VisitTable

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


def _group_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Index of the first entry of each run of equal values."""
    return np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])


def _provider_counts(patient: np.ndarray, provider: np.ndarray, n_providers: int):
    """Distinct (patient, provider) pairs sorted by patient, then provider,
    with the number of visits each pair has: (pair patient, pair provider, count)."""
    pairs, counts = np.unique(patient.astype(np.int64) * n_providers + provider, return_counts=True)
    return pairs // n_providers, pairs % n_providers, counts


def continuity_indices(patient: np.ndarray, provider: np.ndarray) -> np.ndarray:
    """The four continuity-of-care indices of every patient, as an
    (n_patients, 4) array of upc, lupc, secoc, coci.

    `patient` and `provider` are integer codes per visit, patients numbered
    0..n_patients-1, and each patient's visits appear in chronological
    order. upc/lupc are the max/min share of visits going to any provider
    actually visited; secoc is the fraction of consecutive visit pairs at
    the same provider; coci is the concentration index
    (sum n_i^2 - N) / (N(N-1)). A single visit has no dispersion to
    measure, so secoc and coci are defined as 1.0 for N == 1.
    """
    n_patients = int(patient.max()) + 1 if patient.size else 0
    n = np.bincount(patient, minlength=n_patients)
    if (n == 0).any():
        raise ValueError(f"patient {int(np.argmin(n))}: empty visit sequence")
    order = np.argsort(patient, kind="stable")
    p, q = patient[order], provider[order]
    same = np.bincount(p[1:][(p[1:] == p[:-1]) & (q[1:] == q[:-1])], minlength=n_patients)

    n_providers = int(provider.max()) + 1 if provider.size else 1
    pair_patient, _, counts = _provider_counts(patient, provider, n_providers)
    starts = _group_starts(pair_patient)
    most = np.maximum.reduceat(counts, starts)
    least = np.minimum.reduceat(counts, starts)
    squares = np.add.reduceat(counts * counts, starts)
    several = n > 1
    denominator = np.maximum(n - 1, 1)
    return np.column_stack([
        most / n,
        least / n,
        np.where(several, same / denominator, 1.0),
        np.where(several, (squares - n) / (n * denominator), 1.0),
    ])


def provider_votes(patient: np.ndarray, provider: np.ndarray, n_providers: int):
    """Most- and least-frequent provider votes: two int arrays over provider codes.

    Each patient votes exactly once for the provider with the most visits
    and once for the provider with the fewest (ties broken by the smallest
    provider code, which is the smallest provider id; a single-provider
    patient votes it for both).
    """
    pair_patient, pair_provider, counts = _provider_counts(patient, provider, n_providers)
    votes = []
    for key in (-counts, counts):
        # lexsort is stable, so among tied counts the smaller provider stays first
        order = np.lexsort((key, pair_patient))
        first = order[_group_starts(pair_patient[order])]
        votes.append(np.bincount(pair_provider[first], minlength=n_providers))
    return votes[0], votes[1]


def _set_flags(visits: VisitTable, wanted: frozenset[str]) -> np.ndarray:
    """For each distinct code set of the table, whether it meets `wanted`."""
    hit = np.fromiter((c in wanted for c in visits.codes), bool, len(visits.codes))
    n_sets = len(visits.set_offsets) - 1
    set_of_member = np.repeat(np.arange(n_sets), np.diff(visits.set_offsets))
    return np.bincount(set_of_member[hit[visits.set_members]], minlength=n_sets) > 0


def _disease_counts(visits: VisitTable, chronic: frozenset[str]) -> tuple[np.ndarray, np.ndarray]:
    """Per patient, the distinct dx codes over all visits and the chronic ones among them."""
    n_sets = len(visits.set_offsets) - 1
    patient_sets = np.unique(visits.patient.astype(np.int64) * n_sets + visits.dx)
    patient, sets = patient_sets // n_sets, patient_sets % n_sets
    sizes = visits.set_offsets[sets + 1] - visits.set_offsets[sets]
    first = np.repeat(visits.set_offsets[sets] - (np.cumsum(sizes) - sizes), sizes)
    codes = visits.set_members[first + np.arange(int(sizes.sum()))]
    n_codes = len(visits.codes)
    pairs = np.unique(np.repeat(patient, sizes) * n_codes + codes)
    pair_patient, pair_code = pairs // n_codes, pairs % n_codes
    is_chronic = np.fromiter((c in chronic for c in visits.codes), bool, n_codes)
    n_patients = len(visits.patient_ids)
    return (np.bincount(pair_patient, minlength=n_patients),
            np.bincount(pair_patient[is_chronic[pair_code]], minlength=n_patients))


def build_feature_vectors(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Compute every visit's 18 features and hospital-level label.

    Returns X of shape (n, 18), columns in FEATURE_NAMES order, and integer
    labels y, one row per visit in the dataset's visit order. Vote tallies
    are global over all patients; continuity, disease counts, and the
    disease-importance rate are per patient over the study period. Each
    column is computed with group operations over the table's codes, once
    per patient, provider, code set or date.
    """
    visits, code_sets = dataset.visits, dataset.code_sets
    patient, provider = visits.patient, visits.provider
    n_providers = len(visits.provider_ids)
    X = np.empty((len(visits), N_FEATURES))

    def put(name, values):
        X[:, FEATURE_NAMES.index(name)] = values

    profiles = [dataset.patients[pid] for pid in visits.patient_ids]
    if any(p.birth_date is None for p in profiles):
        raise ValueError("every patient with visits needs a birth date")
    days, day_index = np.unique(visits.day, return_inverse=True)
    if days.size and days[0] == NO_DATE:
        raise ValueError("record has no visit date")
    visit_dates = [date.fromordinal(d) for d in days.tolist()]
    visit_year = np.array([d.year for d in visit_dates], np.int64)[day_index]
    visit_day = np.array([d.month * 100 + d.day for d in visit_dates], np.int64)[day_index]
    birth_year = np.array([p.birth_date.year for p in profiles], np.int64)[patient]
    birth_day = np.array([p.birth_date.month * 100 + p.birth_date.day for p in profiles], np.int64)[patient]
    put("age", visit_year - birth_year - (visit_day < birth_day))
    put("male", np.array([p.gender == "male" for p in profiles], np.float64)[patient])
    put("low_income", np.array([p.low_income for p in profiles], np.float64)[patient])

    n = np.bincount(patient, minlength=len(profiles))
    put("total_visits", n[patient])
    diseases, chronic = _disease_counts(visits, code_sets.chronic_dx_codes)
    put("total_diseases", diseases[patient])
    put("total_chronic_diseases", chronic[patient])
    indices = continuity_indices(patient, provider)
    for j, name in enumerate(("upc", "lupc", "secoc", "coci")):
        put(name, indices[patient, j])

    sites = [dataset.providers[pid] for pid in visits.provider_ids]
    missing = [p for p in sites if p.region_code not in dataset.region_stats]
    if missing:
        raise DataError(
            f"provider {missing[0].provider_id}: region {missing[0].region_code!r} "
            "missing from the physician-density table"
        )
    put("physician_density", np.array([dataset.region_stats[p.region_code] for p in sites])[provider])
    mfpc, lfpc = provider_votes(patient, provider, n_providers)
    put("mfpc", mfpc[provider])
    put("lfpc", lfpc[provider])

    put("is_surgery", _set_flags(visits, code_sets.surgery_codes)[visits.treatments])
    put("is_er", visits.emergency | _set_flags(visits, code_sets.er_codes)[visits.treatments])
    catastrophic_dx = np.fromiter((c in code_sets.catastrophic_dx_codes for c in visits.codes), bool,
                                  len(visits.codes))
    put("is_severe", ((visits.triage != NO_TRIAGE) & (visits.triage <= 3)) | visits.catastrophic
        | catastrophic_dx[visits.primary])
    put("is_workday", np.array([dataset.calendar.is_workday(d) for d in visit_dates], bool)[day_index])

    _, primary_group, primary_counts = np.unique(
        patient.astype(np.int64) * len(visits.codes) + visits.primary,
        return_inverse=True, return_counts=True)
    put("dir", primary_counts[primary_group.reshape(-1)] / n[patient])
    labels = np.array([int(p.level) for p in sites], np.int64)[provider]
    return X, labels


@dataclass(frozen=True)
class ScalerParams:
    """Per-feature (min, max) of each of SCALED_FEATURES, fitted on training rows."""

    mins: Mapping[str, float]
    maxs: Mapping[str, float]

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Min-max scale the fitted columns, clamped to [0,1]; degenerate
        columns (min == max) map to 0."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64)).copy()
        for name in SCALED_FEATURES:
            j = FEATURE_NAMES.index(name)
            lo, hi = self.mins[name], self.maxs[name]
            if hi > lo:
                X[:, j] = np.clip((X[:, j] - lo) / (hi - lo), 0.0, 1.0)
            else:
                X[:, j] = 0.0
        return X

    def to_dict(self) -> dict:
        return {
            "scaled_features": list(SCALED_FEATURES),
            "mins": {k: self.mins[k] for k in SCALED_FEATURES},
            "maxs": {k: self.maxs[k] for k in SCALED_FEATURES},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScalerParams":
        """The scaler `to_dict` wrote (other keys are ignored); a missing key,
        a `scaled_features` list other than SCALED_FEATURES or a bound that
        is not a finite number raises ValueError."""
        if not isinstance(d, dict) or not {"scaled_features", "mins", "maxs"} <= d.keys():
            raise ValueError("a scaler is an object with scaled_features, mins and maxs")
        if d["scaled_features"] != list(SCALED_FEATURES):
            raise ValueError(f"scaled_features must be {list(SCALED_FEATURES)}, not {d['scaled_features']!r}")
        for part in ("mins", "maxs"):
            bounds = d[part]
            if not isinstance(bounds, dict) or set(bounds) != set(SCALED_FEATURES):
                raise ValueError(f"{part} must map exactly the scaled features to numbers")
            for name, value in bounds.items():
                if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
                    raise ValueError(f"{part}[{name!r}] is not a finite number: {value!r}")
        return cls(mins=dict(d["mins"]), maxs=dict(d["maxs"]))


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
_CSV_BLOCK_ROWS = 4096
_LEVEL_CODES = [int(level) for level in HospitalLevel]


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
        # joined a block of rows at a time, not all lines at once; islice
        # keeps zip reusing its row tuple
        rows = zip(*columns)
        for _ in range(0, len(y), _CSV_BLOCK_ROWS):
            fh.writelines([",".join(cells) + "\n" for cells in islice(rows, _CSV_BLOCK_ROWS)])


def _format_distinct(keys: np.ndarray, dtype, fmt: str) -> list[str]:
    """`fmt % value` for every entry, formatting each distinct key once."""
    distinct, inverse = np.unique(keys, return_inverse=True)
    texts = np.array([fmt % v for v in distinct.view(dtype).tolist()], dtype=object)
    return texts[inverse].tolist()


def read_feature_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a feature file back into (X, y), every value bit-exact.

    Leading '#' lines are skipped and the header must name the 18 features
    and the label. A malformed body, a non-finite cell included, raises
    DataError naming the file and the first bad line.
    """
    with open(path, encoding="utf-8") as fh:
        line, header_line = fh.readline(), 1
        while line.startswith("#"):
            line, header_line = fh.readline(), header_line + 1
        header = line.strip().split(",")
        if header != list(_CSV_COLUMNS):
            raise DataError(f"{path}:{header_line}: unexpected feature columns: {header}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # an empty body is zero rows
                data = np.loadtxt(fh, dtype=np.float64, delimiter=",", comments="#", ndmin=2)
        except ValueError as exc:
            raise _first_bad_row(path, header_line) or DataError(f"{path}: {exc}")
    if data.size == 0:
        return np.empty((0, N_FEATURES)), np.empty(0, dtype=np.int64)
    if (data.shape[1] != len(_CSV_COLUMNS) or not np.isfinite(data).all()
            or not np.isin(data[:, -1], _LEVEL_CODES).all()):
        raise _first_bad_row(path, header_line) or DataError(f"{path}: malformed rows")
    return np.ascontiguousarray(data[:, :N_FEATURES]), data[:, -1].astype(np.int64)


def _first_bad_row(path, header_line: int) -> DataError | None:
    """Error for the first body line that is not 19 numbers ending in a level code."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            cells = line.strip().split(",")
            if lineno <= header_line or line.startswith("#") or cells == [""]:
                continue
            if len(cells) != len(_CSV_COLUMNS):
                return DataError(
                    f"{path}:{lineno}: expected {len(_CSV_COLUMNS)} columns, found {len(cells)}"
                )
            for name, cell in zip(_CSV_COLUMNS, cells):
                try:
                    value = float(cell)
                except ValueError:
                    return DataError(f"{path}:{lineno}: {name} is not a number: {cell!r}")
                if not math.isfinite(value):
                    return DataError(f"{path}:{lineno}: {name} is not finite: {cell!r}")
            if float(cells[-1]) not in _LEVEL_CODES:
                return DataError(
                    f"{path}:{lineno}: label must be a hospital-level code "
                    f"{_LEVEL_CODES}, got {cells[-1]!r}"
                )
    return None


# ---------------------------------------------------------------------------
# the binary copy of a feature file: a parse cache keyed by the file's sha256

FEATURE_COPY_FORMAT = 1


def write_feature_copy(path, X: np.ndarray, y: np.ndarray, csv_path) -> None:
    """Write (X, y) as float64 and int64 arrays, keyed by the sha256 of the
    feature file at `csv_path`, which must hold exactly these values."""
    header = {"format": FEATURE_COPY_FORMAT, "csv_sha256": file_sha256(csv_path)}
    write_array_zip(path, header, {"X": np.asarray(X, dtype=np.float64), "y": np.asarray(y, dtype=np.int64)})


def read_feature_copy(path, csv_path) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """(X, y) from the copy at `path` if it was written for the current bytes
    of the feature file at `csv_path`; otherwise None.

    A copy that is missing, written for other bytes, cut short, damaged, or
    holding other dtypes, shapes, labels or a non-finite value is None too:
    the feature file is the artifact, and the copy only saves parsing it.
    """
    try:
        _, arrays = read_array_zip(path, ("X", "y"),
                                   {"format": FEATURE_COPY_FORMAT, "csv_sha256": file_sha256(csv_path)})
    except (OSError, *READ_ERRORS):
        return None
    X, y = arrays["X"], arrays["y"]
    if (X.dtype != np.float64 or X.ndim != 2 or X.shape[1] != N_FEATURES
            or y.dtype != np.int64 or y.shape != (X.shape[0],) or not np.isin(y, _LEVEL_CODES).all()
            or not np.isfinite(X).all()):
        return None
    return np.ascontiguousarray(X), y
