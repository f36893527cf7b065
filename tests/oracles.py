"""Independent naive reimplementations used as test oracles.

Everything here is written the slow, obvious way (python loops, itertools
subsets) and deliberately shares no code with the package, with four
exceptions: `gradient_check` calls the package's `_backprop` on purpose,
because the backprop that SGD runs is what it checks, against central
differences of the package's loss; `whole_autoencoder` returns the decoder
that `train_autoencoder` fits and drops, from the package's `_run_sgd`;
`exhaustive_shapley` runs the package's permutation estimator over every
feature order, so that the estimator `sampled_shapley` runs is what tests
compare with the exact values; and `visit_table_from_columns` fills the
package's `VisitTable` record. Tests compare package output against these.
"""

import csv
from collections import Counter
from dataclasses import dataclass
from datetime import date
from fractions import Fraction
from typing import NamedTuple, Optional
from itertools import combinations, permutations
from math import exp, factorial, isnan, sqrt
from statistics import fmean, stdev

import numpy as np

from carechoice import explain, neuralnet
from carechoice.domain import VisitTable


@dataclass(frozen=True)
class VisitRecord:
    """One visit as plain Python values, the way the input files spell it."""

    patient_id: str
    provider_id: str
    visit_date: Optional[date]
    primary_dx: str
    dx_codes: frozenset = frozenset()
    treatment_codes: frozenset = frozenset()
    triage_level: Optional[int] = None
    catastrophic_illness: bool = False
    setting: str = "outpatient"

    def sort_key(self):
        """Content order: patient, date (a missing date first), provider,
        primary dx, the sorted code sets, triage (none first), catastrophic,
        setting."""
        return (
            self.patient_id,
            self.visit_date is not None,
            self.visit_date or date.min,
            self.provider_id,
            self.primary_dx,
            tuple(sorted(self.dx_codes)),
            tuple(sorted(self.treatment_codes)),
            -1 if self.triage_level is None else self.triage_level,
            self.catastrophic_illness,
            self.setting,
        )


def visit_table_from_columns(patient_ids, provider_ids, days, primaries, dx_sets,
                             treatment_sets, triage, catastrophic, emergency):
    """A VisitTable built from one Python value per visit and column, the
    slow way: every lookup, set and column by sorting Python values."""

    def rank(values):
        distinct = tuple(sorted(set(values)))
        index = {v: i for i, v in enumerate(distinct)}
        return distinct, np.array([index[v] for v in values], np.int32)

    patient_lookup, patient = rank(patient_ids)
    provider_lookup, provider = rank(provider_ids)
    distinct_sets = set(dx_sets) | set(treatment_sets)
    codes = tuple(sorted(set(primaries).union(*distinct_sets)))
    code_index = {c: i for i, c in enumerate(codes)}
    members = {s: tuple(sorted(code_index[c] for c in s)) for s in distinct_sets}
    ordered = sorted(distinct_sets, key=members.__getitem__)
    set_index = {s: i for i, s in enumerate(ordered)}
    offsets = [0]
    for s in ordered:
        offsets.append(offsets[-1] + len(s))
    return VisitTable(
        patient_ids=patient_lookup,
        provider_ids=provider_lookup,
        codes=codes,
        set_offsets=np.array(offsets, np.int64),
        set_members=np.array([m for s in ordered for m in members[s]], np.int32),
        patient=patient,
        provider=provider,
        day=np.array(days, np.int32),
        primary=np.array([code_index[c] for c in primaries], np.int32),
        dx=np.array([set_index[s] for s in dx_sets], np.int32),
        treatments=np.array([set_index[s] for s in treatment_sets], np.int32),
        triage=np.array(triage, np.int8),
        catastrophic=np.array(catastrophic, bool),
        emergency=np.array(emergency, bool),
    )


def visit_records(table):
    """The rows of a VisitTable as VisitRecords, decoded one visit at a time
    from the table's documented layout."""
    offsets, members = table.set_offsets.tolist(), table.set_members.tolist()

    def code_set(s):
        return frozenset(table.codes[m] for m in members[offsets[s]:offsets[s + 1]])

    return [
        VisitRecord(
            patient_id=table.patient_ids[int(table.patient[i])],
            provider_id=table.provider_ids[int(table.provider[i])],
            visit_date=None if table.day[i] == 0 else date.fromordinal(int(table.day[i])),
            primary_dx=table.codes[int(table.primary[i])],
            dx_codes=code_set(int(table.dx[i])),
            treatment_codes=code_set(int(table.treatments[i])),
            triage_level=None if table.triage[i] == -1 else int(table.triage[i]),
            catastrophic_illness=bool(table.catastrophic[i]),
            setting="emergency" if table.emergency[i] else "outpatient",
        )
        for i in range(len(table))
    ]


def brute_continuity(providers):
    """Four continuity indices (upc, lupc, secoc, coci) of one patient's
    chronological provider sequence, straight from their textbook definitions."""
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


def provider_votes(sequences):
    """(most-frequent, least-frequent) vote Counters over providers; each
    patient's sequence votes once in each, ties to the smallest provider id."""
    most, least = Counter(), Counter()
    for providers in sequences:
        counts = Counter(providers)
        if not counts:
            raise ValueError("empty visit sequence")
        most[min(counts, key=lambda p: (-counts[p], p))] += 1
        least[min(counts, key=lambda p: (counts[p], p))] += 1
    return most, least


def disease_importance_rate(patient_visits, target):
    """Share of the patient's visits whose primary diagnosis matches the target's."""
    if not patient_visits:
        raise ValueError("patient has no visits")
    matches = sum(1 for v in patient_visits if v.primary_dx == target.primary_dx)
    return matches / len(patient_visits)


def incident_flags(record, code_sets, calendar):
    """(is_surgery, is_er, is_severe, is_workday) for one accepted record."""
    is_surgery = bool(record.treatment_codes & code_sets.surgery_codes)
    is_er = record.setting == "emergency" or bool(record.treatment_codes & code_sets.er_codes)
    is_severe = (
        (record.triage_level is not None and record.triage_level <= 3)
        or record.catastrophic_illness
        or record.primary_dx in code_sets.catastrophic_dx_codes
    )
    return is_surgery, is_er, is_severe, calendar.is_workday(record.visit_date)


def age_at(birth, visit):
    """Whole years between birth date and visit date."""
    years = visit.year - birth.year
    if (visit.month, visit.day) < (birth.month, birth.day):
        years -= 1
    return years


def reference_feature_vectors(dataset):
    """The 18 features and the label of every visit, one visit at a time,
    as (X, y) in the dataset's visit order."""
    visits = visit_records(dataset.visits)
    by_patient = {}
    for v in visits:
        by_patient.setdefault(v.patient_id, []).append(v)
    most, least = provider_votes([[v.provider_id for v in vs] for vs in by_patient.values()])
    code_sets = dataset.code_sets
    rows, labels = [], []
    for v in visits:
        patient = dataset.patients[v.patient_id]
        own = by_patient[v.patient_id]
        upc, lupc, secoc, coci = brute_continuity([w.provider_id for w in own])
        diseases = set()
        for w in own:
            diseases |= w.dx_codes
        provider = dataset.providers[v.provider_id]
        rows.append([
            float(age_at(patient.birth_date, v.visit_date)),
            1.0 if patient.gender == "male" else 0.0,
            1.0 if patient.low_income else 0.0,
            float(len(own)),
            float(len(diseases)),
            float(len(diseases & code_sets.chronic_dx_codes)),
            upc, lupc, secoc, coci,
            dataset.region_stats[provider.region_code],
            float(most[v.provider_id]),
            float(least[v.provider_id]),
            *(float(flag) for flag in incident_flags(v, code_sets, dataset.calendar)),
            disease_importance_rate(own, v),
        ])
        labels.append(int(provider.level))
    return np.array(rows, dtype=np.float64).reshape(len(rows), 18), np.array(labels, dtype=np.int64)


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


def naive_value(model_fn, x, baseline, subset):
    """Coalition value: subset features from x, the rest from the baseline."""
    mixed = np.array(baseline, dtype=np.float64)
    for i in subset:
        mixed[i] = x[i]
    return float(model_fn(mixed[np.newaxis, :])[0])


def naive_shapley(model_fn, x, baseline):
    """Weighted-marginal Shapley sum over all coalitions (scalar model)."""
    d = len(x)
    phi = np.zeros(d)
    others = list(range(d))
    for i in range(d):
        rest = [j for j in others if j != i]
        for size in range(d):
            w = factorial(size) * factorial(d - size - 1) / factorial(d)
            for subset in combinations(rest, size):
                with_i = naive_value(model_fn, x, baseline, subset + (i,))
                without_i = naive_value(model_fn, x, baseline, subset)
                phi[i] += w * (with_i - without_i)
    return phi


def naive_permutation_shapley(model_fn, x, baseline):
    """Average marginal contribution over every permutation of features."""
    d = len(x)
    phi = np.zeros(d)
    count = 0
    for order in permutations(range(d)):
        prefix = []
        prev = naive_value(model_fn, x, baseline, ())
        for i in order:
            prefix.append(i)
            cur = naive_value(model_fn, x, baseline, tuple(prefix))
            phi[i] += cur - prev
            prev = cur
        count += 1
    return phi / count


EXHAUSTIVE_LIMIT = 8  # 8! orders is the most `exhaustive_shapley` enumerates


def exhaustive_shapley(model_fn, x, baseline, explained_class=None):
    """The package's permutation estimator over all d! feature orders, which
    gives the exact Shapley values: an Attribution, as `sampled_shapley`
    returns one. Only for small d."""
    x, baseline = explain._check_instance(x, baseline)
    d = x.shape[0]
    if d > EXHAUSTIVE_LIMIT:
        raise ValueError(f"exhaustive mode enumerates d! permutations; d={d} exceeds {EXHAUSTIVE_LIMIT}")
    orders = np.array(list(permutations(range(d))), dtype=np.int64)
    return explain._permutation_shapley(model_fn, x, baseline, explained_class, orders)


def per_prefix_shapley(model_fn, x, baseline, orders):
    """Permutation-sampling Shapley estimate over the given feature orders
    (scalar model) that evaluates every prefix of every order, repeats
    included: (phi, stderr, base value, fx), where stderr is the sample
    standard deviation of a feature's marginals over sqrt(len(orders))."""
    d = len(x)
    marginals = [[] for _ in range(d)]
    for order in orders:
        prefix = []
        prev = naive_value(model_fn, x, baseline, ())
        for i in order:
            prefix.append(i)
            cur = naive_value(model_fn, x, baseline, tuple(prefix))
            marginals[i].append(cur - prev)
            prev = cur
    phi = np.array([fmean(m) for m in marginals])
    stderr = np.array([stdev(m) / sqrt(len(orders)) for m in marginals])
    base = naive_value(model_fn, x, baseline, ())
    fx = naive_value(model_fn, x, baseline, tuple(range(d)))
    return phi, stderr, base, fx


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


GRADIENT_CHECK_STEP = 1e-5
GRADIENT_CHECK_PARAM_LIMIT = 10_000


def naive_sigmoid(z):
    """1 / (1 + e^-z) of one float: `math.exp`'s e^-z, then the sum and the
    quotient exactly and rounded once; 0 once e^-z overflows."""
    if isnan(z):
        return z
    try:
        e = exp(-z)
    except OverflowError:
        return 0.0
    return float(1 / (1 + Fraction(e)))


class Network(NamedTuple):
    """Sizes, (weights, biases) layers and activations, as `_loss`,
    `_backprop` and `gradient_check` read them."""

    layer_sizes: tuple
    layers: tuple
    activations: tuple
    loss_trace: tuple


def whole_autoencoder(x, encoder_sizes, config):
    """The encoder and decoder of the fit that `train_autoencoder(x,
    encoder_sizes, config)` runs, of which it returns only the encoder: the
    decoder mirrors the encoder, the code is sigmoid, the reconstruction
    linear and every other layer ReLU."""
    hidden = ("relu",) * (len(encoder_sizes) - 2)
    sizes = (*encoder_sizes, *encoder_sizes[-2::-1])
    activations = (*hidden, "sigmoid", *hidden, "linear")
    layers, trace = neuralnet._run_sgd("autoencoder", sizes, activations, x, x, config)
    return Network(sizes, layers, activations, trace)


def n_parameters(model):
    return sum(w.size + b.size for w, b in model.layers)


def gradient_check(model, x, targets, step=GRADIENT_CHECK_STEP):
    """Max relative error between the analytic gradients of
    `neuralnet._backprop` and central differences of `neuralnet._loss`.

    `targets` are integer labels for classifiers and a real matrix for
    MSE models. Refuses models over 10k parameters, because the numeric
    sweep costs two loss passes per parameter.
    """
    if n_parameters(model) > GRADIENT_CHECK_PARAM_LIMIT:
        raise ValueError(f"gradient_check is limited to {GRADIENT_CHECK_PARAM_LIMIT} parameters")
    x = np.asarray(x, dtype=np.float64)
    layers = [(w.copy(), b.copy()) for w, b in model.layers]
    analytic = {}

    def take(i, dz, a):
        analytic[i] = (dz.T @ a, dz.sum(axis=0))

    neuralnet._backprop(layers, model.activations, x, targets, take)

    worst = 0.0
    for li, (w, b) in enumerate(layers):
        for arr, grad in ((w, analytic[li][0]), (b, analytic[li][1])):
            flat = arr.reshape(-1)
            gflat = grad.reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + step
                hi = neuralnet._loss(layers, model.activations, x, targets)
                flat[j] = orig - step
                lo = neuralnet._loss(layers, model.activations, x, targets)
                flat[j] = orig
                numeric = (hi - lo) / (2.0 * step)
                denom = max(abs(gflat[j]), abs(numeric), 1e-8)
                worst = max(worst, abs(gflat[j] - numeric) / denom)
    return worst
