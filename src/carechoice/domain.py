"""Core record types, the hospital-level taxonomy, and record exclusion rules.

Validation never raises on bad data: each record-level rule yields a mask of
the visits it excludes. Exclusion runs in two passes, record rules first,
then patient-level removal of anyone left with no records.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from datetime import date
from enum import Enum, IntEnum
from typing import Mapping, Optional, Sequence

import numpy as np


class HospitalLevel(IntEnum):
    """Four-tier provider taxonomy, serialized as stable codes 0-3."""

    MEDICAL_CENTER = 0
    REGIONAL_HOSPITAL = 1
    DISTRICT_HOSPITAL = 2
    CLINIC = 3


N_LEVELS = len(HospitalLevel)

LEVEL_NAMES = {
    HospitalLevel.MEDICAL_CENTER: "medical_center",
    HospitalLevel.REGIONAL_HOSPITAL: "regional_hospital",
    HospitalLevel.DISTRICT_HOSPITAL: "district_hospital",
    HospitalLevel.CLINIC: "clinic",
}


class ExclusionReason(Enum):
    MISSING_BIRTH_OR_GENDER = "missing_birth_or_gender"
    CONFLICTING_GENDER = "conflicting_gender"
    MISSING_VISIT_DATE = "missing_visit_date"
    BIRTH_AFTER_VISIT = "birth_after_visit"
    NO_VISITS = "no_visits"
    NO_PRIMARY_DIAGNOSIS = "no_primary_diagnosis"
    INCOMPLETE_HOSPITAL_INFO = "incomplete_hospital_info"


@dataclass(frozen=True)
class PatientProfile:
    """Beneficiary registry entry.

    ``birth_date`` and ``gender`` are optional so that incomplete registry
    rows can be represented and then excluded; ``gender_conflict`` is set by
    the loader when the same patient appears with two different genders.
    """

    patient_id: str
    birth_date: Optional[date]
    gender: Optional[str]
    low_income: bool = False
    gender_conflict: bool = False


@dataclass(frozen=True)
class ProviderProfile:
    provider_id: str
    level: HospitalLevel
    region_code: str


SETTINGS = ("outpatient", "emergency")
NO_DATE = 0  # `VisitTable.day` of a visit without a date; real dates have ordinals >= 1
NO_TRIAGE = -1

VISIT_TABLE_COLUMNS = ("patient", "provider", "day", "primary", "dx", "treatments",
                       "triage", "catastrophic", "emergency")


def _rank_used(lookup: Sequence[str], index: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """(the values of `lookup` that `index` names, in string order; `index`
    pointed into them). An index of -1 stays -1."""
    used = np.flatnonzero(np.bincount(index.ravel() + 1, minlength=len(lookup) + 1)[1:])
    names = [lookup[i] for i in used.tolist()]
    order = sorted(range(len(names)), key=names.__getitem__)
    remap = np.full(len(lookup) + 1, -1, np.int64)  # the last entry serves -1
    remap[used[order]] = np.arange(len(order))
    return tuple(names[i] for i in order), remap[index].astype(np.int32)


@dataclass(frozen=True, eq=False)
class VisitTable:
    """Visits as columns, one array entry per visit.

    Strings are stored once, in sorted lookup tuples, and the columns hold
    their indices, so each code is also its string's rank. The distinct
    code sets (dx and treatment sets share one table) are rows of a ragged
    array: set `s` holds `codes[m]` for `m` in
    `set_members[set_offsets[s]:set_offsets[s + 1]]`, ascending, and the
    sets are sorted by those member tuples, so sorting on the codes sorts
    the visits by content (see `canonical_order`).
    """

    patient_ids: tuple[str, ...]
    provider_ids: tuple[str, ...]
    codes: tuple[str, ...]
    set_offsets: np.ndarray  # int64, one more than there are sets
    set_members: np.ndarray  # int32 indices into codes
    patient: np.ndarray  # int32 index into patient_ids
    provider: np.ndarray  # int32 index into provider_ids
    day: np.ndarray  # int32 date ordinal, NO_DATE when missing
    primary: np.ndarray  # int32 index into codes
    dx: np.ndarray  # int32 set index; the loader folds the primary code in
    treatments: np.ndarray  # int32 set index
    triage: np.ndarray  # int8 level 1-5, NO_TRIAGE when missing
    catastrophic: np.ndarray  # bool
    emergency: np.ndarray  # bool: setting is "emergency", not "outpatient"

    @classmethod
    def from_codes(cls, patient_ids: Sequence[str], provider_ids: Sequence[str],
                   codes: Sequence[str], patient: np.ndarray, provider: np.ndarray,
                   day: np.ndarray, primary: np.ndarray, dx: np.ndarray, treatments: np.ndarray,
                   triage: np.ndarray, catastrophic: np.ndarray,
                   emergency: np.ndarray) -> "VisitTable":
        """Build the table from integer columns that index lookups in any order.

        `dx` and `treatments` hold one row of code indices per visit, padded
        with -1; a code may repeat within a row. Only the strings the columns
        use are ranked, and each distinct set is sorted once, so the cost per
        visit is array work alone.
        """
        patient_lookup, patient = _rank_used(patient_ids, patient)
        provider_lookup, provider = _rank_used(provider_ids, provider)
        width = max(dx.shape[1], treatments.shape[1])
        rows = np.full((len(dx) + len(treatments), width), -1, np.int64)
        rows[:len(dx), :dx.shape[1]] = dx
        rows[len(dx):, :treatments.shape[1]] = treatments
        code_lookup, ranked = _rank_used(codes, np.concatenate([primary, rows.ravel()]))
        primary, rows = ranked[:len(primary)], ranked[len(primary):].reshape(rows.shape)
        # a set's key reads its distinct members ascending, then its padding,
        # as digits (code + 1, padding 0) in base len(codes) + 1, so the keys
        # order the sets as their member tuples compare
        base = len(code_lookup) + 1
        digits = np.sort(np.where(rows < 0, base - 1, rows), axis=1)  # padding last
        digits[:, 1:][digits[:, 1:] == digits[:, :-1]] = base - 1  # a repeat is padding
        digits = (np.sort(digits, axis=1) + 1) % base
        if base ** width <= 2**63:
            place = base ** np.arange(width - 1, -1, -1)
            distinct, set_index = np.unique(digits @ place, return_inverse=True)
            members = distinct[:, np.newaxis] // place % base
        else:  # the keys would overflow an int64: order the digit rows themselves
            members, set_index = np.unique(digits, axis=0, return_inverse=True)
        set_index = set_index.reshape(-1).astype(np.int32)
        return cls(
            patient_ids=patient_lookup,
            provider_ids=provider_lookup,
            codes=code_lookup,
            set_offsets=np.concatenate([[0], np.cumsum((members > 0).sum(axis=1))]).astype(np.int64),
            set_members=(members[members > 0] - 1).astype(np.int32),
            patient=patient,
            provider=provider,
            day=day.astype(np.int32),
            primary=primary,
            dx=set_index[:len(dx)],
            treatments=set_index[len(dx):],
            triage=triage.astype(np.int8),
            catastrophic=catastrophic.astype(bool),
            emergency=emergency.astype(bool),
        )

    def __len__(self) -> int:
        return len(self.patient)

    def take(self, rows) -> "VisitTable":
        """The visits at `rows` (indices or a mask), in that order; only the
        patients and providers they name stay in the lookups."""
        columns = {name: getattr(self, name)[rows] for name in VISIT_TABLE_COLUMNS}
        lookups = {}
        for name, ids in (("patient", self.patient_ids), ("provider", self.provider_ids)):
            used, inverse = np.unique(columns[name], return_inverse=True)
            columns[name] = inverse.reshape(-1).astype(np.int32)
            lookups[f"{name}_ids"] = tuple(ids[i] for i in used.tolist())
        return replace(self, **lookups, **columns)

    def _sort_keys(self) -> tuple[np.ndarray, ...]:
        """The canonical order's keys, the least significant first."""
        return (~self.emergency, self.catastrophic, self.triage, self.treatments,
                self.dx, self.primary, self.provider, self.day, self.patient)

    def canonical_order(self) -> np.ndarray:
        """Row order by content: patient, date (a missing date first),
        provider, primary dx, dx set, treatment set, triage (none first),
        catastrophic, setting ("emergency" before "outpatient"); sets
        compare as their sorted code tuples. Only identical visits tie, and they keep their
        order."""
        return np.lexsort(self._sort_keys())

    def _in_canonical_order(self) -> bool:
        """Whether no row sorts after the next one; cheaper than sorting."""
        later = np.zeros(max(len(self) - 1, 0), bool)  # row i sorts after row i + 1
        for key in self._sort_keys():
            a, b = key[:-1], key[1:]
            later = np.where(a == b, later, a > b)
        return not later.any()

    def sorted(self) -> "VisitTable":
        """The table in canonical order: itself when it is already."""
        return self if self._in_canonical_order() else self.take(self.canonical_order())


def exclusion_masks(
    visits: VisitTable,
    patients: Mapping[str, PatientProfile],
    providers: Mapping[str, ProviderProfile],
) -> dict[ExclusionReason, np.ndarray]:
    """For each record-level reason, a mask of the visits it excludes. A
    visit whose patient has no profile counts as missing birth/gender
    information. Never raises on bad data."""
    profiles = [patients.get(pid) for pid in visits.patient_ids]
    incomplete = np.array([p is None or p.birth_date is None or p.gender is None for p in profiles], bool)
    conflict = np.array([p is not None and p.gender_conflict for p in profiles], bool)
    birth = np.array([NO_DATE if p is None or p.birth_date is None else p.birth_date.toordinal()
                      for p in profiles], np.int64)
    blank = np.array([not code.strip() for code in visits.codes], bool)
    unknown = np.array([pid not in providers for pid in visits.provider_ids], bool)
    has_date = visits.day != NO_DATE
    return {
        ExclusionReason.MISSING_BIRTH_OR_GENDER: incomplete[visits.patient],
        ExclusionReason.CONFLICTING_GENDER: conflict[visits.patient],
        ExclusionReason.MISSING_VISIT_DATE: ~has_date,
        ExclusionReason.BIRTH_AFTER_VISIT: has_date & (birth[visits.patient] > visits.day),
        ExclusionReason.NO_PRIMARY_DIAGNOSIS: blank[visits.primary],
        ExclusionReason.INCOMPLETE_HOSPITAL_INFO: unknown[visits.provider],
    }


class DataError(Exception):
    """Input data or an artifact whose content cannot be used: a bad input
    row, no records left after exclusion, or an artifact that does not
    parse. The command line exits 5 on it."""


def apply_exclusions(dataset: "Dataset") -> tuple["Dataset", Counter]:
    """Run both exclusion passes and return the clean dataset plus audit counts.

    Record-level reasons are counted once per excluded record; NO_VISITS is
    counted once per removed patient (including patients whose records were
    all excluded by record rules). Idempotent: a clean dataset passes through
    unchanged with an all-zero audit.
    """
    masks = exclusion_masks(dataset.visits, dataset.patients, dataset.providers)
    audit = Counter({reason: int(mask.sum()) for reason, mask in masks.items() if mask.any()})
    kept = dataset.visits.take(~np.logical_or.reduce(list(masks.values())))

    with_visits = set(kept.patient_ids)
    kept_patients = {pid: p for pid, p in dataset.patients.items() if pid in with_visits}
    if len(kept_patients) < len(dataset.patients):
        audit[ExclusionReason.NO_VISITS] = len(dataset.patients) - len(kept_patients)

    if not len(kept) or not kept_patients:
        raise DataError("no records survive the exclusion rules")

    clean = replace(dataset, patients=kept_patients, visits=kept)
    return clean, audit


@dataclass(frozen=True)
class CodeSets:
    """Configurable code lists; membership is exact string equality."""

    surgery_codes: frozenset[str] = frozenset()
    er_codes: frozenset[str] = frozenset()
    chronic_dx_codes: frozenset[str] = frozenset()
    catastrophic_dx_codes: frozenset[str] = frozenset()


@dataclass(frozen=True)
class WorkdayCalendar:
    """Explicit date -> workday table; lookups outside coverage are errors."""

    entries: Mapping[date, bool]

    def is_workday(self, d: date) -> bool:
        try:
            return self.entries[d]
        except KeyError:
            raise DataError(f"date {d.isoformat()} is outside calendar coverage")


@dataclass(frozen=True)
class Dataset:
    """Immutable post-load view of all input tables.

    ``visits`` is canonically sorted by content key (patient, date, then the
    remaining fields) so the load is independent of input line order.
    """

    patients: Mapping[str, PatientProfile]
    providers: Mapping[str, ProviderProfile]
    visits: VisitTable
    region_stats: Mapping[str, float] = field(default_factory=dict)
    calendar: WorkdayCalendar = field(default_factory=lambda: WorkdayCalendar({}))
    code_sets: CodeSets = field(default_factory=CodeSets)
