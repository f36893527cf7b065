"""Shared builders for hand-rolled datasets used across test modules."""

from datetime import date, timedelta

import pytest

from carechoice.domain import (
    CodeSets,
    Dataset,
    HospitalLevel,
    NO_DATE,
    NO_TRIAGE,
    PatientProfile,
    ProviderProfile,
    SETTINGS,
    VisitTable,
    WorkdayCalendar,
)
from oracles import VisitRecord, visit_table_from_columns


def make_calendar(start=date(2008, 1, 1), end=date(2011, 12, 31)):
    entries = {}
    d = start
    while d <= end:
        entries[d] = d.weekday() < 5
        d += timedelta(days=1)
    return WorkdayCalendar(entries=entries)


def make_patient(pid="P1", birth=date(1970, 5, 4), gender="female", **kw):
    return PatientProfile(patient_id=pid, birth_date=birth, gender=gender, **kw)


def make_provider(pid="H1", level=HospitalLevel.CLINIC, region="R1"):
    return ProviderProfile(provider_id=pid, level=level, region_code=region)


def make_visit(pid="P1", provider="H1", when=date(2010, 6, 15), dx="D001", **kw):
    kw.setdefault("dx_codes", frozenset({dx}))
    return VisitRecord(
        patient_id=pid, provider_id=provider, visit_date=when, primary_dx=dx, **kw
    )


def visit_table(records):
    """A VisitTable holding `records` in the given order."""
    records = list(records)
    for r in records:
        if r.setting not in SETTINGS:
            raise ValueError(f"visit setting must be one of {SETTINGS}, got {r.setting!r}")
    return visit_table_from_columns(
        [r.patient_id for r in records],
        [r.provider_id for r in records],
        [NO_DATE if r.visit_date is None else r.visit_date.toordinal() for r in records],
        [r.primary_dx for r in records],
        [r.dx_codes for r in records],
        [r.treatment_codes for r in records],
        [NO_TRIAGE if r.triage_level is None else r.triage_level for r in records],
        [r.catastrophic_illness for r in records],
        [r.setting == "emergency" for r in records],
    )


def make_dataset(patients=None, providers=None, visits=(), code_sets=None,
                 region_stats=None, calendar=None):
    if patients is None:
        patients = {"P1": make_patient()}
    if providers is None:
        providers = {"H1": make_provider()}
    if region_stats is None:
        region_stats = {p.region_code: 20.0 for p in providers.values()}
    return Dataset(
        patients=patients,
        providers=providers,
        visits=visits if isinstance(visits, VisitTable) else visit_table(visits),
        region_stats=region_stats,
        calendar=calendar or make_calendar(),
        code_sets=code_sets or CodeSets(
            surgery_codes=frozenset({"T100"}),
            er_codes=frozenset({"T900"}),
            chronic_dx_codes=frozenset({"D001"}),
            catastrophic_dx_codes=frozenset({"D190"}),
        ),
    )


@pytest.fixture
def calendar():
    return make_calendar()
