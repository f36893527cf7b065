"""Independent naive reimplementations used as test oracles.

Everything here is written the slow, obvious way (python loops, itertools
subsets) and deliberately shares no code with the package. Tests compare
package output against these.
"""

import csv
from datetime import date
from itertools import combinations, permutations
from math import factorial

import numpy as np


def brute_continuity(providers):
    """Four continuity indices straight from their textbook definitions."""
    n = len(providers)
    counts = {}
    for p in providers:
        counts[p] = counts.get(p, 0) + 1
    upc = max(counts.values()) / n
    lupc = min(counts.values()) / n
    if n == 1:
        return upc, lupc, 1.0, 1.0
    same = sum(1 for a, b in zip(providers, providers[1:]) if a == b)
    secoc = same / (n - 1)
    coci = (sum(c * c for c in counts.values()) - n) / (n * (n - 1))
    return upc, lupc, secoc, coci


def naive_class_counts(labels, predictions, cls):
    tp = sum(1 for y, p in zip(labels, predictions) if y == cls and p == cls)
    fp = sum(1 for y, p in zip(labels, predictions) if y != cls and p == cls)
    fn = sum(1 for y, p in zip(labels, predictions) if y == cls and p != cls)
    tn = sum(1 for y, p in zip(labels, predictions) if y != cls and p != cls)
    return tp, fp, fn, tn


def naive_class_metrics(labels, predictions, cls):
    """accuracy, sensitivity, specificity, precision, f1 with 0-for-0/0."""
    tp, fp, fn, tn = naive_class_counts(labels, predictions, cls)
    total = tp + fp + fn + tn
    accuracy = (tp + tn) / total
    sensitivity = tp / (tp + fn) if tp + fn else 0.0
    specificity = tn / (tn + fp) if tn + fp else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    denom = precision + sensitivity
    f1 = 2 * precision * sensitivity / denom if denom else 0.0
    return accuracy, sensitivity, specificity, precision, f1


def naive_auc(scores, positive):
    """All-pairs Mann-Whitney AUC, ties worth half a win."""
    pos = [s for s, y in zip(scores, positive) if y]
    neg = [s for s, y in zip(scores, positive) if not y]
    if not pos or not neg:
        return float("nan")
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def naive_value(model_fn, x, background_rows, subset):
    """Coalition value: subset features from x, the rest from each
    background row, averaged over rows."""
    rows = np.array(background_rows, dtype=np.float64, ndmin=2)
    total = 0.0
    for row in rows:
        mixed = row.copy()
        for i in subset:
            mixed[i] = x[i]
        total += float(model_fn(mixed[np.newaxis, :])[0])
    return total / rows.shape[0]


def naive_shapley(model_fn, x, background_rows):
    """Weighted-marginal Shapley sum over all coalitions (scalar model)."""
    d = len(x)
    phi = np.zeros(d)
    others = list(range(d))
    for i in range(d):
        rest = [j for j in others if j != i]
        for size in range(d):
            w = factorial(size) * factorial(d - size - 1) / factorial(d)
            for subset in combinations(rest, size):
                with_i = naive_value(model_fn, x, background_rows, subset + (i,))
                without_i = naive_value(model_fn, x, background_rows, subset)
                phi[i] += w * (with_i - without_i)
    return phi


def naive_permutation_shapley(model_fn, x, background_rows):
    """Average marginal contribution over every permutation of features."""
    d = len(x)
    phi = np.zeros(d)
    count = 0
    for order in permutations(range(d)):
        prefix = []
        prev = naive_value(model_fn, x, background_rows, ())
        for i in order:
            prefix.append(i)
            cur = naive_value(model_fn, x, background_rows, tuple(prefix))
            phi[i] += cur - prev
            prev = cur
        count += 1
    return phi / count


def _dict_rows(path):
    """Data rows of a headed CSV whose leading lines may be '#' comments."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [line for line in fh]
    while lines and lines[0].startswith("#"):
        lines.pop(0)
    return list(csv.DictReader(lines))


def _codes(token):
    codes = set()
    for part in token.split("|"):
        if part.strip() != "":
            codes.add(part.strip())
    return codes


def naive_load_visits(directory):
    """Read visits, patients and providers with csv.DictReader, apply the
    exclusion rules, and return (visit tuples in canonical order, audit).

    A visit tuple is (patient, date, provider, primary dx, sorted dx codes
    with the primary folded in, sorted treatment codes, triage or -1,
    catastrophic, setting); the audit maps each reason's name to its count.
    """
    patients = {}
    for row in _dict_rows(f"{directory}/patients.csv"):
        pid = row["patient_id"].strip()
        birth = date.fromisoformat(row["birth_date"].strip()) if row["birth_date"].strip() else None
        gender = row["gender"].strip().lower() or None
        low_income = row["low_income"].strip().lower() in ("1", "true")
        if pid in patients:
            b, g, li, conflict = patients[pid]
            if g is not None and gender is not None and g != gender:
                conflict = True
            patients[pid] = (b or birth, g or gender, li or low_income, conflict)
        else:
            patients[pid] = (birth, gender, low_income, False)
    providers = set()
    for row in _dict_rows(f"{directory}/providers.csv"):
        providers.add(row["provider_id"].strip())

    audit = {}
    kept = []
    for row in _dict_rows(f"{directory}/visits.csv"):
        pid = row["patient_id"].strip()
        when = date.fromisoformat(row["date"].strip()) if row["date"].strip() else None
        primary = row["primary_dx"].strip()
        dx = _codes(row["dx_codes"])
        if primary:
            dx.add(primary)
        triage = int(row["triage"]) if row["triage"].strip() else -1
        visit = (
            pid, when, row["provider_id"].strip(), primary, tuple(sorted(dx)),
            tuple(sorted(_codes(row["treatment_codes"]))), triage,
            row["catastrophic"].strip().lower() in ("1", "true"),
            row["setting"].strip().lower(),
        )
        reasons = []
        patient = patients.get(pid)
        if patient is None or patient[0] is None or patient[1] is None:
            reasons.append("missing_birth_or_gender")
        if patient is not None and patient[3]:
            reasons.append("conflicting_gender")
        if when is None:
            reasons.append("missing_visit_date")
        elif patient is not None and patient[0] is not None and patient[0] > when:
            reasons.append("birth_after_visit")
        if not primary:
            reasons.append("no_primary_diagnosis")
        if visit[2] not in providers:
            reasons.append("incomplete_hospital_info")
        for reason in reasons:
            audit[reason] = audit.get(reason, 0) + 1
        if not reasons:
            kept.append(visit)
    with_visits = {visit[0] for visit in kept}
    for pid in patients:
        if pid not in with_visits:
            audit["no_visits"] = audit.get("no_visits", 0) + 1
    return sorted(kept), audit
