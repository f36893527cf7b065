"""Memory guards: artifacts are hashed and read as streams, so no reader
holds a file's bytes beside what it computes from them.

Traced by tracemalloc, which counts numpy's array buffers too, so the
bounds do not depend on how the process's resident set moves.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from carechoice.arrayzip import file_sha256
from carechoice.features import read_feature_copy, write_feature_copy
from carechoice.ingest import DataPaths, input_digests

MIB = 1 << 20


def traced_peak(fn, *args):
    """(fn(*args), the traced peak of the call above what was held before it),
    which counts whatever the call returns."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before


@pytest.fixture
def big_file(tmp_path):
    """An 8 MiB file of bytes that no two blocks share."""
    path = tmp_path / "big.bin"
    path.write_bytes(np.random.default_rng(0).bytes(8 * MIB))
    return path


def test_file_sha256_hashes_a_block_at_a_time(big_file):
    digest, added = traced_peak(file_sha256, big_file)
    assert digest == hashlib.sha256(big_file.read_bytes()).hexdigest()
    assert added < MIB


def test_input_digests_hash_a_block_at_a_time(tmp_path, big_file):
    paths = DataPaths.from_dir(tmp_path)
    big_file.rename(paths.visits)
    digests, added = traced_peak(input_digests, paths)
    assert digests[paths.visits.name] == hashlib.sha256(paths.visits.read_bytes()).hexdigest()
    assert digests[paths.patients.name] is None
    assert added < MIB


def test_read_feature_copy_holds_little_beyond_its_arrays(tmp_path, big_file):
    # the copy keys on the feature file's bytes alone, so any file serves as one
    rng = np.random.default_rng(1)
    X = rng.random((50_000, 18))
    y = rng.integers(0, 4, X.shape[0])
    write_feature_copy(tmp_path / "features.npz", X, y, big_file)
    (X_read, y_read), added = traced_peak(read_feature_copy, tmp_path / "features.npz", big_file)
    assert X_read.tobytes() == X.tobytes() and np.array_equal(y_read, y)
    assert added <= 1.25 * (X.nbytes + y.nbytes)
