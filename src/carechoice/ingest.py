"""Load the delimited-text input files into a Dataset and run the exclusion pass.

All files are UTF-8, comma-delimited with a header line; dates are ISO-8601.
The four code-set files are plain text, one code per line. A parse problem
raises IngestError naming the file, the line number, and the offending field.
"""

from __future__ import annotations

import csv
import gc
import math
from collections import Counter
from dataclasses import dataclass, fields, replace
from datetime import date
from functools import partial
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path
from typing import Mapping, Optional

import numpy as np

from .arrayzip import READ_ERRORS, file_sha256, read_array_zip, write_array_zip
from .atomic import open_atomic, write_csv
from .domain import (
    NO_DATE,
    NO_TRIAGE,
    SETTINGS,
    VISIT_TABLE_COLUMNS,
    CodeSets,
    Dataset,
    HospitalLevel,
    PatientProfile,
    ProviderProfile,
    VisitTable,
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

class IngestError(Exception):
    pass


@dataclass(frozen=True)
class DataPaths:
    """The nine input files; each field's default is its standard file name.
    The code-file fields are named as their `CodeSets` fields."""

    visits: Path = Path("visits.csv")
    patients: Path = Path("patients.csv")
    providers: Path = Path("providers.csv")
    density: Path = Path("density.csv")
    calendar: Path = Path("calendar.csv")
    surgery_codes: Path = Path("codes_surgery.txt")
    er_codes: Path = Path("codes_er.txt")
    chronic_dx_codes: Path = Path("codes_chronic_dx.txt")
    catastrophic_dx_codes: Path = Path("codes_catastrophic_dx.txt")

    @classmethod
    def from_dir(cls, directory: str | Path) -> "DataPaths":
        d = Path(directory)
        return cls(**{f.name: d / f.default for f in fields(cls)})


def _open_rows(fh, path: Path, columns: tuple[str, ...]):
    """(a csv reader past the header, the header's width, the positions of
    `columns` in it, the number of leading '#' lines skipped)."""
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
    return reader, len(header), [index[c] for c in columns], skipped


def _read_rows(path: Path, columns: tuple[str, ...]):
    """Yield (line number, the row's cells for `columns`) for each non-blank row.

    Leading '#' lines are skipped and the header must name every column. A
    row too short to hold them raises IngestError; extra trailing cells are
    ignored.
    """
    if not path.exists():
        raise IngestError(f"required file missing: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader, n_fields, positions, skipped = _open_rows(fh, path, columns)
        pick, width = itemgetter(*positions), max(positions) + 1
        for row in reader:
            if len(row) >= width:
                yield reader.line_num + skipped, pick(row)
            elif row:
                raise IngestError(
                    f"{path.name}:{reader.line_num + skipped}: "
                    f"expected {n_fields} fields, found {len(row)}"
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


def _parse_triage(token: str, path: Path, line: int) -> int:
    token = token.strip()
    if not token:
        return NO_TRIAGE
    try:
        triage = int(token)
    except ValueError:
        raise IngestError(f"{path.name}:{line}: field 'triage': invalid integer {token!r}")
    if not 1 <= triage <= 5:
        raise IngestError(f"{path.name}:{line}: field 'triage': level {triage} outside 1-5")
    return triage


def _parse_emergency(token: str, path: Path, line: int) -> bool:
    setting = token.strip().lower()
    if setting not in SETTINGS:
        raise IngestError(f"{path.name}:{line}: field 'setting': invalid value {token!r}")
    return setting == "emergency"


def _parse_day(token: str, path: Path, line: int) -> int:
    d = _parse_date(token, path, line, "date")
    return NO_DATE if d is None else d.toordinal()


def _parse_catastrophic(token: str, path: Path, line: int) -> bool:
    return _parse_bool(token, path, line, "catastrophic")


# (column, parser) in the order each row's fields are checked
_VISIT_PARSERS = ((6, _parse_triage), (8, _parse_emergency), (2, _parse_day), (7, _parse_catastrophic))


def _check_rows(path: Path) -> None:
    """Parse the visit file row by row, raising the error of its first bad row."""
    for line, cells in _read_rows(path, VISIT_COLUMNS):
        for j, parse in _VISIT_PARSERS:
            parse(cells[j], path, line)


# Visit rows read and coded per step. A chunk's rows, about 0.7 kB of Python
# objects each, fit in a 2 MB L2 cache; on a Xeon with that cache, chunks of
# 8,192 rows made `load_dataset` about 15 % slower.
_CHUNK_ROWS = 1024


class _Memo(dict):
    """token -> `parse(token)`, calling `parse` once per new token."""

    def __init__(self, parse):
        super().__init__()
        self.parse = parse

    def __missing__(self, token):
        value = self[token] = self.parse(token)
        return value


def _numbering() -> _Memo:
    """A memo that numbers its keys 0, 1, ... in the order they first appear."""
    memo = _Memo(lambda key: len(memo))
    return memo


def load_visits(path: Path) -> VisitTable:
    """Visits in file order, as a table.

    The file is read a chunk of rows at a time, and each chunk of a column
    becomes one array of integer codes: each distinct token is parsed once.
    A bad token or short row raises IngestError naming the first line that
    fails, as a row-by-row parse would.
    """
    if not path.exists():
        raise IngestError(f"required file missing: {path}")
    patient_ids, provider_ids, codes, sets = _numbering(), _numbering(), _numbering(), _numbering()

    def code_set(token: str) -> int:  # a set is a tuple of its codes in first-seen order
        return sets[tuple(map(codes.__getitem__, filter(None, map(str.strip, token.split("|")))))]

    set_memo = _Memo(code_set)
    memos = (  # one per VISIT_COLUMNS entry; dx and treatment tokens share theirs
        _Memo(lambda t: patient_ids[t.strip()]), _Memo(lambda t: provider_ids[t.strip()]),
        _Memo(partial(_parse_day, path=path, line=0)), _Memo(lambda t: codes[t.strip()]),
        set_memo, set_memo, _Memo(partial(_parse_triage, path=path, line=0)),
        _Memo(partial(_parse_catastrophic, path=path, line=0)),
        _Memo(partial(_parse_emergency, path=path, line=0)),
    )
    parts = [[np.zeros(0, np.int64)] for _ in VISIT_COLUMNS]
    # a chunk's rows are lists, in no reference cycle, that every collection
    # of the cyclic garbage collector would walk while they are alive
    collecting = gc.isenabled()
    gc.disable()
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader, _, positions, _ = _open_rows(fh, path, VISIT_COLUMNS)
            pick = itemgetter(*positions)
            for chunk in iter(lambda: list(islice(reader, _CHUNK_ROWS)), []):
                # `pick` raises IndexError on a short row
                for part, memo, column in zip(parts, memos, zip(*map(pick, filter(None, chunk)))):
                    part.append(np.fromiter(map(memo.__getitem__, column), np.int64, len(column)))
    except (IngestError, IndexError):
        _check_rows(path)
        raise
    finally:
        if collecting:
            gc.enable()
    patient, provider, day, primary, dx, treatments, triage, catastrophic, emergency = map(
        np.concatenate, parts)
    del parts  # the chunks' arrays

    # one row of code indices per set, padded with -1
    members = list(sets)
    sizes = np.fromiter(map(len, members), np.int64, len(members))
    table = np.full((len(members), int(sizes.max(initial=0))), -1, np.int64)
    table[np.arange(table.shape[1]) < sizes[:, np.newaxis]] = np.fromiter(
        chain.from_iterable(members), np.int64, int(sizes.sum()))
    in_dx = np.where(primary == codes.get("", -1), -1, primary)  # an empty primary is no dx code
    return VisitTable.from_codes(
        patient_ids=tuple(patient_ids), provider_ids=tuple(provider_ids), codes=tuple(codes),
        patient=patient, provider=provider, day=day, primary=primary,
        dx=np.column_stack([table[dx], in_dx]), treatments=table[treatments],
        triage=triage, catastrophic=catastrophic, emergency=emergency,
    )


def load_density(path: Path) -> dict[str, float]:
    stats: dict[str, float] = {}
    for line, (region, density_token) in _read_rows(path, DENSITY_COLUMNS):
        try:
            density = float(density_token)
        except ValueError:
            raise IngestError(
                f"{path.name}:{line}: field 'physician_density': invalid number {density_token!r}"
            )
        if not 0 <= density < math.inf:
            raise IngestError(f"{path.name}:{line}: field 'physician_density': "
                              f"density {density} is negative or not finite")
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


def load_dataset(paths: DataPaths) -> tuple[Dataset, Counter]:
    """Load all files, run the exclusion pass, and sort the kept visits
    canonically.

    Deterministic given identical file bytes. Returns the clean dataset and
    the per-reason audit counts.
    """
    patients = load_patients(paths.patients)
    providers = load_providers(paths.providers)
    visits = load_visits(paths.visits)
    dataset = Dataset(
        patients=patients,
        providers=providers,
        visits=visits,
        region_stats=load_density(paths.density),
        calendar=load_calendar(paths.calendar),
        code_sets=CodeSets(**{f.name: load_code_file(getattr(paths, f.name)) for f in fields(CodeSets)}),
    )
    # excluding first sorts only the kept rows, which are often in order
    # already; the rows excluded are the same in any order
    clean, audit = apply_exclusions(dataset)
    return replace(clean, visits=clean.visits.sorted()), audit


def _fmt_date(d: Optional[date]) -> str:
    return "" if d is None else d.isoformat()


def _fmt_bool(b: bool) -> str:
    return "1" if b else "0"


def write_dataset(dataset: Dataset, directory: str | Path, header_comment: str | None = None) -> DataPaths:
    """Write a Dataset back out in the standard file formats, each file
    whole or not at all.

    Inverse of load_dataset for clean data: reloading the written files gives
    an equal Dataset (with an all-zero audit).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = DataPaths.from_dir(directory)

    visits = dataset.visits.sorted()
    members, offsets = visits.set_members.tolist(), visits.set_offsets.tolist()
    set_texts = ["|".join(map(visits.codes.__getitem__, members[a:b]))
                 for a, b in zip(offsets, offsets[1:])]
    date_texts = {d: "" if d == NO_DATE else date.fromordinal(d).isoformat()
                  for d in set(visits.day.tolist())}
    visit_columns = (
        map(visits.patient_ids.__getitem__, visits.patient.tolist()),
        map(visits.provider_ids.__getitem__, visits.provider.tolist()),
        map(date_texts.__getitem__, visits.day.tolist()),
        map(visits.codes.__getitem__, visits.primary.tolist()),
        map(set_texts.__getitem__, visits.dx.tolist()),
        map(set_texts.__getitem__, visits.treatments.tolist()),
        ("" if t == NO_TRIAGE else t for t in visits.triage.tolist()),
        map(_fmt_bool, visits.catastrophic.tolist()),
        map(SETTINGS.__getitem__, visits.emergency.tolist()),
    )
    tables = {  # path: (columns, rows)
        paths.patients: (PATIENT_COLUMNS, (
            [p.patient_id, _fmt_date(p.birth_date), p.gender or "", _fmt_bool(p.low_income)]
            for _, p in sorted(dataset.patients.items()))),
        paths.providers: (PROVIDER_COLUMNS, (
            [p.provider_id, int(p.level), p.region_code] for _, p in sorted(dataset.providers.items()))),
        paths.visits: (VISIT_COLUMNS, zip(*visit_columns)),
        paths.density: (DENSITY_COLUMNS, (
            [region, format(density, ".17g")] for region, density in sorted(dataset.region_stats.items()))),
        paths.calendar: (CALENDAR_COLUMNS, (
            [d.isoformat(), _fmt_bool(workday)] for d, workday in sorted(dataset.calendar.entries.items()))),
    }
    for path, (columns, rows) in tables.items():
        write_csv(path, columns, rows, header_comment)
    for f in fields(CodeSets):
        with open_atomic(getattr(paths, f.name)) as fh:
            fh.write("".join(f"{c}\n" for c in sorted(getattr(dataset.code_sets, f.name))))
    return paths


# ---------------------------------------------------------------------------
# the clean visit table that `ingest` writes and `features` reads

VISIT_TABLE_FORMAT = 1
_TABLE_ARRAYS = ("set_offsets", "set_members", *VISIT_TABLE_COLUMNS)
_INPUT_NAMES = {f.default.name for f in fields(DataPaths)}


class VisitTableFileError(IngestError):
    """A visit-table file that is not whole or not in this format."""


def input_digests(paths: DataPaths) -> dict[str, Optional[str]]:
    """sha256 of each input file by file name; None for a missing file."""
    return {path.name: file_sha256(path) if path.exists() else None
            for path in map(Path, vars(paths).values())}


def write_visit_table(path: str | Path, dataset: Dataset, inputs: Mapping[str, Optional[str]],
                      config_hash: str) -> None:
    """Write a clean dataset as an uncompressed zip of `.npy` columns plus a
    JSON header holding the lookups, `config_hash` and the input digests.

    Members carry a fixed timestamp, so equal datasets give equal bytes.
    """
    visits = dataset.visits
    header = {
        "format": VISIT_TABLE_FORMAT,
        "config_hash": config_hash,
        "inputs": dict(inputs),
        "patient_ids": visits.patient_ids,
        "provider_ids": visits.provider_ids,
        "codes": visits.codes,
        "patients": [[p.patient_id, _fmt_date(p.birth_date), p.gender, p.low_income, p.gender_conflict]
                     for p in dataset.patients.values()],
        "providers": [[p.provider_id, int(p.level), p.region_code] for p in dataset.providers.values()],
        "region_stats": list(dataset.region_stats.items()),
        "calendar": [[d.isoformat(), w] for d, w in dataset.calendar.entries.items()],
        "code_sets": {f.name: sorted(getattr(dataset.code_sets, f.name)) for f in fields(CodeSets)},
    }
    write_array_zip(path, header, {name: getattr(visits, name) for name in _TABLE_ARRAYS})


def _check_visit_table(dataset: Dataset) -> None:
    """Raise ValueError unless every code of the table indexes inside its
    lookup and every patient and provider it names has a profile."""
    visits = dataset.visits
    n_sets = len(visits.set_offsets) - 1
    bounds = {"set_members": len(visits.codes), "patient": len(visits.patient_ids),
              "provider": len(visits.provider_ids), "primary": len(visits.codes),
              "dx": n_sets, "treatments": n_sets}
    for name, bound in bounds.items():
        column = getattr(visits, name)
        if column.ndim != 1 or column.dtype.kind not in "iu":
            raise ValueError(f"{name} is not a column of integer codes")
        if column.size and not 0 <= column.min() <= column.max() < bound:
            raise ValueError(f"{name} holds codes outside 0-{bound - 1}")
    offsets = visits.set_offsets
    if (n_sets < 0 or offsets.ndim != 1 or offsets[0] != 0
            or offsets[-1] != len(visits.set_members) or (np.diff(offsets) < 0).any()):
        raise ValueError("set_offsets do not partition set_members")
    for kind, ids, profiles in (("patient", visits.patient_ids, dataset.patients),
                                ("provider", visits.provider_ids, dataset.providers)):
        missing = set(ids).difference(profiles)
        if missing:
            raise ValueError(f"{len(missing)} {kind} id(s) without a profile, e.g. {min(missing)!r}")


def read_visit_table(path: str | Path) -> tuple[Dataset, dict[str, Optional[str]]]:
    """The dataset write_visit_table wrote, and the input digests it recorded.

    A file that is cut short, altered or in another format raises
    VisitTableFileError, as does one whose codes point outside its lookups
    or whose input digests are not a string or null per input file.
    """
    try:
        header, arrays = read_array_zip(path, _TABLE_ARRAYS, {"format": VISIT_TABLE_FORMAT})
        inputs = header.get("inputs")
        if not (isinstance(inputs, dict) and inputs.keys() == _INPUT_NAMES
                and all(digest is None or isinstance(digest, str) for digest in inputs.values())):
            raise ValueError("inputs is not a digest or null per input file")
        if len({arrays[name].shape for name in VISIT_TABLE_COLUMNS}) != 1:
            raise ValueError("columns of different lengths")
        visits = VisitTable(patient_ids=tuple(header["patient_ids"]),
                            provider_ids=tuple(header["provider_ids"]),
                            codes=tuple(header["codes"]), **arrays)
        dataset = Dataset(
            patients={pid: PatientProfile(pid, date.fromisoformat(birth) if birth else None,
                                          gender, low_income, conflict)
                      for pid, birth, gender, low_income, conflict in header["patients"]},
            providers={pid: ProviderProfile(pid, HospitalLevel(level), region)
                       for pid, level, region in header["providers"]},
            visits=visits,
            region_stats=dict(header["region_stats"]),
            calendar=WorkdayCalendar({date.fromisoformat(d): w for d, w in header["calendar"]}),
            code_sets=CodeSets(**{name: frozenset(codes) for name, codes in header["code_sets"].items()}),
        )
        _check_visit_table(dataset)
    except READ_ERRORS as exc:
        raise VisitTableFileError(f"{path}: not a whole visit table: {exc}") from exc
    return dataset, inputs
