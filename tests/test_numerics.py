"""The numeric platform record and OpenBLAS's thread count."""

from __future__ import annotations

import numpy as np
import pytest

from skewlab import numerics
from skewlab.numerics import blas_threads, platform_record


@pytest.fixture
def caller_threads():
    """The test process's thread count, restored afterwards; skips without OpenBLAS."""
    threads = blas_threads()
    if threads is None:
        pytest.skip("numpy's BLAS is not a bundled scipy-openblas")
    yield threads
    blas_threads(threads)


def test_record_names_numpy_blas_and_dispatch():
    record = platform_record()
    assert record["numpy"] == np.__version__
    assert record["blas_threads"] == blas_threads()
    assert set(record["dispatch"]) == {"exp", "log", "tanh"}
    if record["blas_threads"] is not None:
        assert record["blas_config"].startswith("OpenBLAS")
        assert record["blas_core"] and record["blas_core"] in record["blas_config"]


def test_setting_returns_the_count_it_replaces(caller_threads):
    assert blas_threads(1) == caller_threads
    assert blas_threads(3) == 1
    assert blas_threads() == 3


def test_a_missing_symbol_reads_none_and_sets_nothing(caller_threads, monkeypatch):
    real = numerics._blas
    monkeypatch.setattr(numerics, "_blas", lambda name, *types: real(f"no_such_{name}", *types))
    assert blas_threads(1) is None
    assert platform_record()["blas_config"] is None
    assert real("get_num_threads")() == caller_threads
