"""All-or-nothing artifact writes."""

import numpy as np
import pytest

from carechoice.atomic import open_atomic
from carechoice.features import N_FEATURES, read_feature_csv, write_feature_csv


def test_completed_write_replaces_the_file_byte_for_byte(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("old\n")
    with open_atomic(path) as fh:
        fh.write("x,y\r\n1,2\n")
    assert path.read_bytes() == b"x,y\r\n1,2\n"
    assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]


def test_failed_write_keeps_the_previous_file_and_no_temp_file(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("old\n")
    with pytest.raises(RuntimeError, match="partway"):
        with open_atomic(path) as fh:
            fh.write("new, half written")
            raise RuntimeError("failed partway")
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]


def test_feature_file_write_failing_partway_keeps_the_previous_file(tmp_path):
    path = tmp_path / "features.csv"
    X = np.arange(3 * N_FEATURES, dtype=np.float64).reshape(3, N_FEATURES)
    write_feature_csv(path, X, np.array([0, 1, 2]))
    before = path.read_bytes()
    with pytest.raises(TypeError):  # the last label cannot be formatted
        write_feature_csv(path, X + 1, np.array([3, 2, "x"], dtype=object))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["features.csv"]
    assert np.array_equal(read_feature_csv(path)[0], X)
