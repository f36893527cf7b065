"""Core record types, the hospital-level taxonomy, and record exclusion rules.

Validation never raises on bad data: a record either passes or collects the
list of reasons it must be excluded. Exclusion runs in two passes, record
rules first, then patient-level removal of anyone left with no records.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from datetime import date
from enum import Enum, IntEnum
from typing import Callable, Mapping, Optional


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


def _sorted_codes(codes: frozenset[str]) -> tuple[str, ...]:
    return tuple(sorted(codes))


@dataclass(frozen=True)
class VisitRecord:
    """One outpatient or emergency claims line."""

    patient_id: str
    provider_id: str
    visit_date: Optional[date]
    primary_dx: str
    dx_codes: frozenset[str] = frozenset()
    treatment_codes: frozenset[str] = frozenset()
    triage_level: Optional[int] = None
    catastrophic_illness: bool = False
    setting: str = "outpatient"

    def sort_key(self, sorted_codes: Callable[[frozenset[str]], tuple[str, ...]] = _sorted_codes):
        # Content-based key so load order never matters; only truly identical
        # rows are interchangeable. A caller sorting visits that share code
        # sets may pass a memoised `sorted_codes`.
        return (
            self.patient_id,
            self.visit_date or date.min,
            self.provider_id,
            self.primary_dx,
            sorted_codes(self.dx_codes),
            sorted_codes(self.treatment_codes),
            -1 if self.triage_level is None else self.triage_level,
            self.catastrophic_illness,
            self.setting,
        )


def validate_record(
    record: VisitRecord,
    patient: Optional[PatientProfile],
    providers: Mapping[str, ProviderProfile],
) -> list[ExclusionReason]:
    """Check one record against the exclusion rules.

    Returns the empty list when the record is accepted, otherwise every
    reason that fires. A missing patient profile counts as missing
    birth/gender information. Pure: same inputs, same verdict.
    """
    reasons: list[ExclusionReason] = []
    if patient is None or patient.birth_date is None or patient.gender is None:
        reasons.append(ExclusionReason.MISSING_BIRTH_OR_GENDER)
    if patient is not None and patient.gender_conflict:
        reasons.append(ExclusionReason.CONFLICTING_GENDER)
    if record.visit_date is None:
        reasons.append(ExclusionReason.MISSING_VISIT_DATE)
    elif patient is not None and patient.birth_date is not None:
        if patient.birth_date > record.visit_date:
            reasons.append(ExclusionReason.BIRTH_AFTER_VISIT)
    if not record.primary_dx.strip():
        reasons.append(ExclusionReason.NO_PRIMARY_DIAGNOSIS)
    if record.provider_id not in providers:
        reasons.append(ExclusionReason.INCOMPLETE_HOSPITAL_INFO)
    return reasons


class EmptyDatasetError(Exception):
    """No patients or visits survive the exclusion pass."""


def apply_exclusions(dataset: "Dataset") -> tuple["Dataset", Counter]:
    """Run both exclusion passes and return the clean dataset plus audit counts.

    Record-level reasons are counted once per excluded record; NO_VISITS is
    counted once per removed patient (including patients whose records were
    all excluded by record rules). Idempotent: a clean dataset passes through
    unchanged with an all-zero audit.
    """
    audit: Counter = Counter()
    kept_visits = []
    for rec in dataset.visits:
        reasons = validate_record(rec, dataset.patients.get(rec.patient_id), dataset.providers)
        if reasons:
            audit.update(reasons)
        else:
            kept_visits.append(rec)

    patients_with_visits = {rec.patient_id for rec in kept_visits}
    kept_patients = {}
    for pid, profile in dataset.patients.items():
        if pid in patients_with_visits:
            kept_patients[pid] = profile
        else:
            audit[ExclusionReason.NO_VISITS] += 1

    if not kept_visits or not kept_patients:
        raise EmptyDatasetError("no records survive the exclusion rules")

    clean = replace(dataset, patients=kept_patients, visits=tuple(kept_visits))
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
            raise CalendarCoverageError(f"date {d.isoformat()} is outside calendar coverage")

    def coverage(self) -> tuple[date, date]:
        if not self.entries:
            raise CalendarCoverageError("calendar is empty")
        return min(self.entries), max(self.entries)


class CalendarCoverageError(Exception):
    pass


@dataclass(frozen=True)
class Dataset:
    """Immutable post-load view of all input tables.

    ``visits`` is canonically sorted by content key (patient, date, then the
    remaining fields) so the load is independent of input line order.
    """

    patients: Mapping[str, PatientProfile]
    providers: Mapping[str, ProviderProfile]
    visits: tuple[VisitRecord, ...]
    region_stats: Mapping[str, float] = field(default_factory=dict)
    calendar: WorkdayCalendar = field(default_factory=lambda: WorkdayCalendar({}))
    code_sets: CodeSets = field(default_factory=CodeSets)
