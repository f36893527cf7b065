"""Load the delimited-text input files into a Dataset and run the exclusion pass.

All files are UTF-8, comma-delimited with a header line; dates are ISO-8601.
The four code-set files are plain text, one code per line. A parse problem
raises IngestError naming the file, the line number, and the offending field.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from datetime import date
from functools import partial
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Optional

from .domain import (
    CodeSets,
    Dataset,
    HospitalLevel,
    PatientProfile,
    ProviderProfile,
    VisitRecord,
    WorkdayCalendar,
    apply_exclusions,
)

VISIT_COLUMNS = (
    "patient_id",
    "provider_id",
    "date",
    "primary_dx",
    "dx_codes",
    "treatment_codes",
    "triage",
    "catastrophic",
    "setting",
)
PATIENT_COLUMNS = ("patient_id", "birth_date", "gender", "low_income")
PROVIDER_COLUMNS = ("provider_id", "level", "region_code")
DENSITY_COLUMNS = ("region_code", "physician_density")
CALENDAR_COLUMNS = ("date", "is_workday")

STANDARD_FILENAMES = {
    "visits": "visits.csv",
    "patients": "patients.csv",
    "providers": "providers.csv",
    "density": "density.csv",
    "calendar": "calendar.csv",
    "surgery_codes": "codes_surgery.txt",
    "er_codes": "codes_er.txt",
    "chronic_dx_codes": "codes_chronic_dx.txt",
    "catastrophic_dx_codes": "codes_catastrophic_dx.txt",
}


class IngestError(Exception):
    pass


@dataclass(frozen=True)
class DataPaths:
    visits: Path
    patients: Path
    providers: Path
    density: Path
    calendar: Path
    surgery_codes: Path
    er_codes: Path
    chronic_dx_codes: Path
    catastrophic_dx_codes: Path

    @classmethod
    def from_dir(cls, directory: str | Path) -> "DataPaths":
        d = Path(directory)
        return cls(**{key: d / name for key, name in STANDARD_FILENAMES.items()})


def _read_rows(path: Path, columns: tuple[str, ...]):
    """Yield (line number, the row's cells for `columns`) for each non-blank row.

    Leading '#' lines are skipped and the header must name every column. A
    row too short to hold them raises IngestError; extra trailing cells are
    ignored.
    """
    if not path.exists():
        raise IngestError(f"required file missing: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        first, skipped = fh.readline(), 0
        while first.startswith("#"):
            first, skipped = fh.readline(), skipped + 1
        if not first:
            raise IngestError(f"{path.name}: file is empty (no header)")
        reader = csv.reader(chain([first], fh))
        header = next(reader)
        index = {name: i for i, name in enumerate(header)}
        missing = [c for c in columns if c not in index]
        if missing:
            raise IngestError(f"{path.name}: missing required columns {missing}")
        positions = [index[c] for c in columns]
        pick, width = itemgetter(*positions), max(positions) + 1
        for row in reader:
            if len(row) >= width:
                yield reader.line_num + skipped, pick(row)
            elif row:
                raise IngestError(
                    f"{path.name}:{reader.line_num + skipped}: "
                    f"expected {len(header)} fields, found {len(row)}"
                )


def _parse_date(token: str, path: Path, line: int, field: str) -> Optional[date]:
    token = token.strip()
    if not token:
        return None
    try:
        return date.fromisoformat(token)
    except ValueError:
        raise IngestError(f"{path.name}:{line}: field '{field}': invalid date {token!r}")


def _parse_bool(token: str, path: Path, line: int, field: str) -> bool:
    t = token.strip().lower()
    if t in ("1", "true"):
        return True
    if t in ("0", "false"):
        return False
    raise IngestError(f"{path.name}:{line}: field '{field}': invalid boolean {token!r}")


def _parse_codes(token: str) -> frozenset[str]:
    return frozenset(filter(None, map(str.strip, token.split("|"))))


def load_patients(path: Path) -> dict[str, PatientProfile]:
    """Merges duplicate registry rows; conflicting genders set gender_conflict."""
    patients: dict[str, PatientProfile] = {}
    for line, (pid, birth_token, gender_token, low_income_token) in _read_rows(path, PATIENT_COLUMNS):
        pid = pid.strip()
        if not pid:
            raise IngestError(f"{path.name}:{line}: field 'patient_id': empty identifier")
        birth = _parse_date(birth_token, path, line, "birth_date")
        gender = gender_token.strip().lower() or None
        if gender is not None and gender not in ("male", "female"):
            raise IngestError(f"{path.name}:{line}: field 'gender': invalid value {gender_token!r}")
        low_income = _parse_bool(low_income_token, path, line, "low_income")
        if pid in patients:
            prev = patients[pid]
            conflict = prev.gender_conflict or (
                prev.gender is not None and gender is not None and prev.gender != gender
            )
            patients[pid] = PatientProfile(
                patient_id=pid,
                birth_date=prev.birth_date or birth,
                gender=prev.gender or gender,
                low_income=prev.low_income or low_income,
                gender_conflict=conflict,
            )
        else:
            patients[pid] = PatientProfile(pid, birth, gender, low_income)
    return patients


def load_providers(path: Path) -> dict[str, ProviderProfile]:
    providers: dict[str, ProviderProfile] = {}
    for line, (pid, level_token, region) in _read_rows(path, PROVIDER_COLUMNS):
        pid = pid.strip()
        if not pid:
            raise IngestError(f"{path.name}:{line}: field 'provider_id': empty identifier")
        try:
            level = HospitalLevel(int(level_token))
        except ValueError:
            raise IngestError(f"{path.name}:{line}: field 'level': invalid hospital level {level_token!r}")
        if pid not in providers:
            providers[pid] = ProviderProfile(pid, level, region.strip())
    return providers


def load_visits(path: Path) -> list[VisitRecord]:
    """Visits in file order. Each distinct code-list and date token is parsed
    once; the rows that repeat it share the parsed value."""
    visits = []
    dx_sets: dict[tuple[str, str], frozenset[str]] = {}  # the primary code joins the set
    treatment_sets: dict[str, frozenset[str]] = {}
    dates: dict[str, Optional[date]] = {}
    for line, (
        patient_id, provider_id, date_token, primary_token, dx_token,
        treatment_token, triage_token, catastrophic_token, setting_token,
    ) in _read_rows(path, VISIT_COLUMNS):
        triage_token = triage_token.strip()
        if triage_token:
            try:
                triage: Optional[int] = int(triage_token)
            except ValueError:
                raise IngestError(f"{path.name}:{line}: field 'triage': invalid integer {triage_token!r}")
            if not 1 <= triage <= 5:
                raise IngestError(f"{path.name}:{line}: field 'triage': level {triage} outside 1-5")
        else:
            triage = None
        setting = setting_token.strip().lower()
        if setting not in ("outpatient", "emergency"):
            raise IngestError(f"{path.name}:{line}: field 'setting': invalid value {setting_token!r}")
        primary = primary_token.strip()
        dx = dx_sets.get((dx_token, primary))
        if dx is None:
            dx = _parse_codes(dx_token)
            if primary:
                dx = dx | {primary}
            dx_sets[dx_token, primary] = dx
        treatments = treatment_sets.get(treatment_token)
        if treatments is None:
            treatments = treatment_sets[treatment_token] = _parse_codes(treatment_token)
        if date_token in dates:
            visit_date = dates[date_token]
        else:
            visit_date = dates[date_token] = _parse_date(date_token, path, line, "date")
        visits.append(
            VisitRecord(
                patient_id=patient_id.strip(),
                provider_id=provider_id.strip(),
                visit_date=visit_date,
                primary_dx=primary,
                dx_codes=dx,
                treatment_codes=treatments,
                triage_level=triage,
                catastrophic_illness=_parse_bool(catastrophic_token, path, line, "catastrophic"),
                setting=setting,
            )
        )
    return visits


def load_density(path: Path) -> dict[str, float]:
    stats: dict[str, float] = {}
    for line, (region, density_token) in _read_rows(path, DENSITY_COLUMNS):
        try:
            density = float(density_token)
        except ValueError:
            raise IngestError(
                f"{path.name}:{line}: field 'physician_density': invalid number {density_token!r}"
            )
        if density < 0:
            raise IngestError(f"{path.name}:{line}: field 'physician_density': negative density {density}")
        stats[region.strip()] = density
    return stats


def load_calendar(path: Path) -> WorkdayCalendar:
    entries: dict[date, bool] = {}
    for line, (date_token, workday_token) in _read_rows(path, CALENDAR_COLUMNS):
        d = _parse_date(date_token, path, line, "date")
        if d is None:
            raise IngestError(f"{path.name}:{line}: field 'date': empty date")
        entries[d] = _parse_bool(workday_token, path, line, "is_workday")
    return WorkdayCalendar(entries)


def load_code_file(path: Path) -> frozenset[str]:
    if not path.exists():
        raise IngestError(f"required file missing: {path}")
    codes = set()
    for raw in path.read_text(encoding="utf-8").splitlines():
        code = raw.strip()
        if code and not code.startswith("#"):
            codes.add(code)
    return frozenset(codes)


class _SortedCodes(dict):
    """Code set -> its sorted tuple, computed on the first lookup."""

    def __missing__(self, codes: frozenset[str]) -> tuple[str, ...]:
        value = self[codes] = tuple(sorted(codes))
        return value


def load_dataset(paths: DataPaths) -> tuple[Dataset, Counter]:
    """Load all files, sort visits canonically, and run the exclusion pass.

    Deterministic given identical file bytes. Returns the clean dataset and
    the per-reason audit counts.
    """
    patients = load_patients(paths.patients)
    providers = load_providers(paths.providers)
    visits = load_visits(paths.visits)
    # equal visits share their code sets, so each set is sorted once
    visits.sort(key=partial(VisitRecord.sort_key, sorted_codes=_SortedCodes().__getitem__))
    dataset = Dataset(
        patients=patients,
        providers=providers,
        visits=tuple(visits),
        region_stats=load_density(paths.density),
        calendar=load_calendar(paths.calendar),
        code_sets=CodeSets(
            surgery_codes=load_code_file(paths.surgery_codes),
            er_codes=load_code_file(paths.er_codes),
            chronic_dx_codes=load_code_file(paths.chronic_dx_codes),
            catastrophic_dx_codes=load_code_file(paths.catastrophic_dx_codes),
        ),
    )
    return apply_exclusions(dataset)


def _fmt_date(d: Optional[date]) -> str:
    return "" if d is None else d.isoformat()


def _fmt_bool(b: bool) -> str:
    return "1" if b else "0"


def write_dataset(dataset: Dataset, directory: str | Path, header_comment: str | None = None) -> DataPaths:
    """Write a Dataset back out in the standard file formats.

    Inverse of load_dataset for clean data: reloading the written files gives
    an equal Dataset (with an all-zero audit).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = DataPaths.from_dir(directory)

    def _writer(path: Path, columns: tuple[str, ...]):
        fh = open(path, "w", newline="", encoding="utf-8")
        if header_comment:
            fh.write(f"# {header_comment}\n")
        w = csv.writer(fh)
        w.writerow(columns)
        return fh, w

    fh, w = _writer(paths.patients, PATIENT_COLUMNS)
    with fh:
        for pid in sorted(dataset.patients):
            p = dataset.patients[pid]
            w.writerow([p.patient_id, _fmt_date(p.birth_date), p.gender or "", _fmt_bool(p.low_income)])

    fh, w = _writer(paths.providers, PROVIDER_COLUMNS)
    with fh:
        for pid in sorted(dataset.providers):
            p = dataset.providers[pid]
            w.writerow([p.provider_id, int(p.level), p.region_code])

    fh, w = _writer(paths.visits, VISIT_COLUMNS)
    with fh:
        for v in sorted(dataset.visits, key=VisitRecord.sort_key):
            w.writerow(
                [
                    v.patient_id,
                    v.provider_id,
                    _fmt_date(v.visit_date),
                    v.primary_dx,
                    "|".join(sorted(v.dx_codes)),
                    "|".join(sorted(v.treatment_codes)),
                    "" if v.triage_level is None else v.triage_level,
                    _fmt_bool(v.catastrophic_illness),
                    v.setting,
                ]
            )

    fh, w = _writer(paths.density, DENSITY_COLUMNS)
    with fh:
        for region in sorted(dataset.region_stats):
            w.writerow([region, format(dataset.region_stats[region], ".17g")])

    fh, w = _writer(paths.calendar, CALENDAR_COLUMNS)
    with fh:
        for d in sorted(dataset.calendar.entries):
            w.writerow([d.isoformat(), _fmt_bool(dataset.calendar.entries[d])])

    code_files = {
        paths.surgery_codes: dataset.code_sets.surgery_codes,
        paths.er_codes: dataset.code_sets.er_codes,
        paths.chronic_dx_codes: dataset.code_sets.chronic_dx_codes,
        paths.catastrophic_dx_codes: dataset.code_sets.catastrophic_dx_codes,
    }
    for path, codes in code_files.items():
        path.write_text("".join(f"{c}\n" for c in sorted(codes)), encoding="utf-8")
    return paths
