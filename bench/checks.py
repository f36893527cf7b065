"""Checks of one finished pipeline run, computed apart from the program.

Nothing here imports carechoice. The feature check re-reads the raw input
files with the csv module and rebuilds a seeded sample of patients' rows
from the published definitions (continuity indices, provider votes,
disease importance rate, incident flags, demographics). The other checks
rest on the generator manifest or on properties the method must have:
the audit equals the injected violations, the held-out count follows the
split fraction, Shapley attributions are efficient, and the planted
provider-vote feature ranks near the top.

Each check returns None when it passes and raises CheckFailed otherwise.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from datetime import date
from pathlib import Path

FEATURE_COLUMNS = (
    "age", "male", "low_income", "total_visits", "total_diseases",
    "total_chronic_diseases", "upc", "lupc", "secoc", "coci",
    "physician_density", "mfpc", "lfpc", "is_surgery", "is_er",
    "is_severe", "is_workday", "dir",
)
EXCLUSION_REASONS = (
    "missing_birth_or_gender", "conflicting_gender", "missing_visit_date",
    "birth_after_visit", "no_visits", "no_primary_diagnosis",
    "incomplete_hospital_info",
)
REL_TOL = 1e-9
EFFICIENCY_TOL = 1e-9
SAMPLE_PATIENTS = 40


class CheckFailed(Exception):
    pass


def _rows(path: Path):
    """Header-keyed rows of a CSV whose leading '#' lines are comments."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = (ln for ln in fh if not ln.startswith("#"))
        yield from csv.DictReader(lines)


def _codes(path: Path) -> frozenset:
    text = path.read_text(encoding="utf-8").splitlines()
    return frozenset(c.strip() for c in text if c.strip() and not c.startswith("#"))


def _split_codes(cell: str) -> set:
    return {c.strip() for c in cell.split("|") if c.strip()}


def _iso(cell: str):
    cell = cell.strip()
    return date.fromisoformat(cell) if cell else None


@dataclass
class Cohort:
    """The input files reduced to what the checks need, in plain Python."""

    patients: dict  # pid -> (birth, gender, low_income, gender_conflict)
    providers: dict  # provider id -> (level, region)
    density: dict
    workday: dict
    codes: dict
    kept_counts: dict  # pid -> Counter of provider ids over kept visits
    sampled: dict  # pid -> kept visit rows, for a seeded sample of registry patients

    @property
    def n_kept(self) -> int:
        return sum(sum(c.values()) for c in self.kept_counts.values())


def _load_patients(path: Path) -> dict:
    patients: dict = {}
    for row in _rows(path):
        pid = row["patient_id"].strip()
        birth = _iso(row["birth_date"])
        gender = row["gender"].strip().lower() or None
        low = row["low_income"].strip().lower() in ("1", "true")
        if pid in patients:
            b0, g0, l0, c0 = patients[pid]
            conflict = c0 or (g0 is not None and gender is not None and g0 != gender)
            patients[pid] = (b0 or birth, g0 or gender, l0 or low, conflict)
        else:
            patients[pid] = (birth, gender, low, False)
    return patients


def _kept(row: dict, patients: dict, providers: dict) -> bool:
    """The published exclusion rules, applied to one raw visit row."""
    patient = patients.get(row["patient_id"].strip())
    if patient is None:
        return False
    birth, gender, _, conflict = patient
    visit = _iso(row["date"])
    return (
        birth is not None and gender is not None and not conflict
        and visit is not None and birth <= visit
        and bool(row["primary_dx"].strip())
        and row["provider_id"].strip() in providers
    )


def load_cohort(data_dir: Path, seed: int) -> Cohort:
    patients = _load_patients(data_dir / "patients.csv")
    registry = sorted(patients)
    sampled: dict = {p: [] for p in random.Random(seed).sample(registry, min(SAMPLE_PATIENTS, len(registry)))}
    providers = {}
    for row in _rows(data_dir / "providers.csv"):
        providers.setdefault(row["provider_id"].strip(), (int(row["level"]), row["region_code"].strip()))
    density = {r["region_code"].strip(): float(r["physician_density"]) for r in _rows(data_dir / "density.csv")}
    workday = {date.fromisoformat(r["date"].strip()): r["is_workday"].strip() in ("1", "true")
               for r in _rows(data_dir / "calendar.csv")}
    codes = {name: _codes(data_dir / f"codes_{name}.txt")
             for name in ("surgery", "er", "chronic_dx", "catastrophic_dx")}
    kept_counts: dict = {}
    for row in _rows(data_dir / "visits.csv"):
        if _kept(row, patients, providers):
            pid = row["patient_id"].strip()
            kept_counts.setdefault(pid, Counter())[row["provider_id"].strip()] += 1
            if pid in sampled:
                sampled[pid].append({**row, "dx": _split_codes(row["dx_codes"]) | {row["primary_dx"].strip()}})
    return Cohort(patients, providers, density, workday, codes, kept_counts, sampled)


def _votes(cohort: Cohort) -> tuple[Counter, Counter]:
    """Each patient votes once for their most- and least-visited provider;
    ties go to the smallest provider id."""
    most: Counter = Counter()
    least: Counter = Counter()
    for counts in cohort.kept_counts.values():
        most[min(counts, key=lambda p: (-counts[p], p))] += 1
        least[min(counts, key=lambda p: (counts[p], p))] += 1
    return most, least


def _visit_key(v: dict):
    """Canonical visit order within a patient: date, then the other fields."""
    triage = v["triage"].strip()
    return (
        _iso(v["date"]), v["provider_id"].strip(), v["primary_dx"].strip(),
        tuple(sorted(v["dx"])), tuple(sorted(_split_codes(v["treatment_codes"]))),
        int(triage) if triage else -1,
        v["catastrophic"].strip().lower() in ("1", "true"),
        v["setting"].strip().lower(),
    )


def _age(birth: date, visit: date) -> int:
    return visit.year - birth.year - ((visit.month, visit.day) < (birth.month, birth.day))


def _feature_rows(cohort: Cohort, pid: str, visits: list, votes) -> list[list[float]]:
    birth, gender, low_income, _ = cohort.patients[pid]
    most, least = votes
    n = len(visits)
    seq = [v["provider_id"].strip() for v in visits]
    counts = Counter(seq)
    upc = max(counts.values()) / n
    lupc = min(counts.values()) / n
    if n == 1:
        secoc = coci = 1.0
    else:
        secoc = sum(1 for a, b in zip(seq, seq[1:]) if a == b) / (n - 1)
        coci = (sum(c * c for c in counts.values()) - n) / (n * (n - 1))
    diseases = set().union(*(v["dx"] for v in visits))
    primaries = Counter(v["primary_dx"].strip() for v in visits)
    out = []
    for v in visits:
        day = _iso(v["date"])
        provider = v["provider_id"].strip()
        level, region = cohort.providers[provider]
        treatments = _split_codes(v["treatment_codes"])
        triage = v["triage"].strip()
        severe = (
            (bool(triage) and int(triage) <= 3)
            or v["catastrophic"].strip().lower() in ("1", "true")
            or v["primary_dx"].strip() in cohort.codes["catastrophic_dx"]
        )
        er = v["setting"].strip().lower() == "emergency" or bool(treatments & cohort.codes["er"])
        out.append([
            float(_age(birth, day)), float(gender == "male"), float(low_income),
            float(n), float(len(diseases)), float(len(diseases & cohort.codes["chronic_dx"])),
            upc, lupc, secoc, coci, cohort.density[region],
            float(most.get(provider, 0)), float(least.get(provider, 0)),
            float(bool(treatments & cohort.codes["surgery"])), float(er), float(severe),
            float(cohort.workday[day]), primaries[v["primary_dx"].strip()] / n,
            float(level),
        ])
    return out


def patient_offsets(cohort: Cohort) -> dict:
    """First feature-file row of each patient: rows follow patient id order."""
    offsets, row = {}, 0
    for pid in sorted(cohort.kept_counts):
        offsets[pid] = row
        row += sum(cohort.kept_counts[pid].values())
    return offsets


def read_feature_rows(path: Path, wanted: set) -> tuple[dict, int]:
    """Rows at the wanted indices, and the total row count, read as text."""
    found, n = {}, 0
    with open(path, encoding="utf-8") as fh:
        header = None
        for line in fh:
            if line.startswith("#"):
                continue
            if header is None:
                header = line.strip().split(",")
                if header != [*FEATURE_COLUMNS, "label"]:
                    raise CheckFailed(f"feature file columns {header}")
                continue
            if n in wanted:
                found[n] = [float(x) for x in line.strip().split(",")]
            n += 1
    return found, n


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


def check_features(cohort: Cohort, features_csv: Path) -> None:
    votes = _votes(cohort)
    offsets = patient_offsets(cohort)
    sample = [p for p, visits in cohort.sampled.items() if visits]
    wanted = {offsets[p] + k for p in sample for k in range(len(cohort.sampled[p]))}
    found, n_rows = read_feature_rows(features_csv, wanted)
    if n_rows != cohort.n_kept:
        raise CheckFailed(f"feature file has {n_rows} rows, the inputs keep {cohort.n_kept} visits")
    for pid in sample:
        expected = _feature_rows(cohort, pid, sorted(cohort.sampled[pid], key=_visit_key), votes)
        for k, want in enumerate(expected):
            got = found[offsets[pid] + k]
            for name, w, g in zip((*FEATURE_COLUMNS, "label"), want, got):
                if not _close(w, g):
                    raise CheckFailed(f"patient {pid} visit {k}: {name} is {g}, recomputed {w}")


def check_audit(cohort: Cohort, data_dir: Path, audit_json: Path) -> None:
    manifest = json.loads((data_dir / "generator_manifest.json").read_text())
    audit = json.loads(audit_json.read_text())
    expected = {r: manifest["expected_audit"].get(r, 0) for r in EXCLUSION_REASONS}
    if audit["exclusions"] != expected:
        raise CheckFailed(f"audit exclusions {audit['exclusions']}, generator injected {expected}")
    if audit["n_visits"] != manifest["n_visits"] or audit["n_visits"] != cohort.n_kept:
        raise CheckFailed(f"audit keeps {audit['n_visits']} visits; generator wrote "
                          f"{manifest['n_visits']} clean, the rules keep {cohort.n_kept}")
    if audit["n_patients"] != len(cohort.kept_counts):
        raise CheckFailed(f"audit keeps {audit['n_patients']} patients, the rules keep {len(cohort.kept_counts)}")


def check_evaluation(cohort: Cohort, eval_json: Path, train_fraction: float, auc_floor: float) -> None:
    report = json.loads(eval_json.read_text())
    n = cohort.n_kept
    held_out = n - math.ceil(train_fraction * n)
    if report["n_samples"] != held_out:
        raise CheckFailed(f"evaluated {report['n_samples']} rows, expected {held_out} of {n}")
    auc = report["macro"]["auc"]
    if not auc >= auc_floor:
        raise CheckFailed(f"held-out macro AUC {auc} below the floor {auc_floor}")


def check_efficiency(explanations_json: Path, n_instances: int) -> None:
    instances = json.loads(explanations_json.read_text())["instances"]
    if len(instances) != n_instances:
        raise CheckFailed(f"{len(instances)} explained visits, expected {n_instances}")
    for item in instances:
        att = item["attribution"]
        gap = abs(att["base_value"] + math.fsum(att["phi"]) - att["fx"])
        if not gap <= EFFICIENCY_TOL:
            raise CheckFailed(f"row {item['row']}: base + sum(phi) misses f(x) by {gap}")


def check_top_feature(importance_csv: Path, feature: str, top: int) -> None:
    rows = list(_rows(importance_csv))
    ranked = [r["feature"] for r in sorted(rows, key=lambda r: int(r["rank"]))]
    if feature not in ranked[:top]:
        raise CheckFailed(f"{feature} not in the global top {top}: {ranked[:top]}")


def digests(run_dir: Path) -> dict:
    """sha256 of every artifact under the run directory."""
    out = {}
    for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        out[str(path.relative_to(run_dir))] = h.hexdigest()
    return out


def check_identical(a: dict, b: dict) -> None:
    if a.keys() != b.keys():
        raise CheckFailed(f"artifact sets differ: {sorted(a.keys() ^ b.keys())}")
    differ = sorted(k for k in a if a[k] != b[k])
    if differ:
        raise CheckFailed(f"repeated runs wrote different bytes: {differ}")
