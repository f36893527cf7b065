"""The bytes of the metric and explanation payloads that the CLI writes.

The inputs are fixed and the arithmetic involves no BLAS, so the digest is
the same on any machine. Class 2 is never predicted (degenerate precision
and F1) and class 3 never occurs (NaN AUC, degenerate sensitivity). A
change of digest means `eval_*.json`, `cv_metrics_*.json` or
`explanations_*.json` would change bytes.
"""

import hashlib
import json

import numpy as np
import pytest

from carechoice.explain import Attribution, local_report
from carechoice.metrics import build_report

LABELS = [0, 0, 0, 1, 1, 1, 2, 2, 0, 1]
PREDICTIONS = [0, 1, 0, 1, 1, 3, 0, 1, 0, 3]
PROBABILITIES = [
    [0.5, 0.25, 0.125, 0.125],
    [0.25, 0.5, 0.125, 0.125],
    [0.625, 0.125, 0.125, 0.125],
    [0.125, 0.5, 0.25, 0.125],
    [0.25, 0.5, 0.125, 0.125],
    [0.125, 0.25, 0.25, 0.375],
    [0.5, 0.125, 0.25, 0.125],
    [0.25, 0.375, 0.25, 0.125],
    [0.5, 0.25, 0.125, 0.125],
    [0.125, 0.25, 0.125, 0.5],
]
PAYLOAD_SHA256 = "016914bdfd24404a0725e6f18de5c864e8437aeaffb7bdb231b3e24374941132"


def test_payload_bytes_are_pinned():
    att = Attribution(
        feature_names=("a", "b", "c", "d", "e"),
        phi=np.array([0.25, -0.5, 0.0, 0.1, -0.0625]),
        base_value=0.3, fx=0.0875, explained_class=2, method="sampled",
        stderr=np.array([0.01, np.nan, 0.0, 0.02, 0.03]), n_permutations=3,
    )
    with pytest.warns(UserWarning, match="class 3"):
        report = build_report(LABELS, PREDICTIONS, np.array(PROBABILITIES), "withAE")
    payload = {"eval": report, "attribution": att.to_dict(), "report": local_report(att)}
    text = json.dumps(payload, sort_keys=True, indent=1)  # as cli._write_json writes it
    assert hashlib.sha256(text.encode()).hexdigest() == PAYLOAD_SHA256
