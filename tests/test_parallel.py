"""The replication pool: one BLAS thread per worker while it runs, counts restored after."""

import sys
import threading

import numpy as np
import pytest

from flrlab import parallel
from flrlab.parallel import foreach

CONTROLS = parallel._blas_controls()
needs_openblas = pytest.mark.skipif(not CONTROLS, reason="no OpenBLAS thread setter is loaded")


def blas_counts():
    return [c.get() for c in CONTROLS]


@pytest.fixture
def two_blas_threads():
    """Every OpenBLAS at 2 threads, so a count of 1 inside the pool is the cap's doing."""
    saved = blas_counts()
    for c in CONTROLS:
        c.set(2)
    yield
    for c, count in zip(CONTROLS, saved):
        c.set(count)


def eigen_work(out):
    def fn(i):
        m = np.random.default_rng(i).standard_normal((64, 64))
        out[i] = np.linalg.eigvalsh(m @ m.T)
    return fn


def test_openblas_found_when_numpy_uses_it():
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "openblas" not in str(config.get("name", "")).lower():
        pytest.skip("numpy is not built against OpenBLAS")
    assert CONTROLS


@needs_openblas
def test_pool_replications_run_single_threaded_blas(two_blas_threads):
    seen = [None] * 8

    def record(i):
        seen[i] = blas_counts()

    foreach(record, 8, 2)
    assert seen == [[1] * len(CONTROLS)] * 8
    foreach(record, 8, 1)   # the serial path keeps the caller's BLAS threading
    assert seen == [[2] * len(CONTROLS)] * 8


@needs_openblas
def test_blas_counts_restored_on_return_and_on_raise(two_blas_threads):
    before = blas_counts()
    foreach(lambda i: None, 4, 2)
    assert blas_counts() == before

    def fail(i):
        if i == 2:
            raise RuntimeError("replication 2 failed")

    with pytest.raises(RuntimeError, match="replication 2 failed"):
        foreach(fail, 6, 2)
    assert blas_counts() == before


def test_pool_without_a_blas_setter_gives_the_same_results(monkeypatch):
    serial = [None] * 6
    foreach(eigen_work(serial), 6, 1)
    monkeypatch.setattr(parallel, "_mapped_openblas", lambda: [])
    assert parallel._blas_controls() == []
    pooled = [None] * 6
    foreach(eigen_work(pooled), 6, 2)
    for a, b in zip(serial, pooled):
        assert np.array_equal(a, b)


@needs_openblas
def test_overlapping_pools_share_one_cap(two_blas_threads):
    # more pool threads than cores, from two callers at once: every replication
    # sees the cap, and the count is restored only when the last pool ends
    before = blas_counts()
    seen, errors = [], []

    def record(i):
        np.linalg.eigvalsh(np.eye(32) * (i + 1))
        seen.append(blas_counts())

    def caller():
        try:
            for _ in range(5):
                foreach(record, 12, 3)
        except Exception as exc:   # reported through the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=caller) for _ in range(2)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers) and not errors
    assert len(seen) == 2 * 5 * 12
    assert all(counts == [1] * len(CONTROLS) for counts in seen)
    assert blas_counts() == before
