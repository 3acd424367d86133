"""Replication loops: one BLAS thread per replication while they run, counts restored
after; a pooled loop opens its own helper pool, which the calling thread joins."""

import sys
import threading

import numpy as np
import pytest

from flrlab import DesignSpec, ThetaClass, parallel, pinsker_decomposition_draws, risk
from flrlab.estimators import default_rho
from flrlab.parallel import foreach

from conftest import CONTROLS, blas_counts, needs_openblas


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
    seen[:] = [None] * 8
    foreach(record, 8, 1)   # serial loops hold BLAS at one thread too
    assert seen == [[1] * len(CONTROLS)] * 8
    assert blas_counts() == [2] * len(CONTROLS)


@needs_openblas
def test_decomposition_replications_run_single_threaded_blas(two_blas_threads, monkeypatch):
    # the bias/variance decomposition study runs its replications through foreach too
    seen = []
    empirical_covariance = risk.empirical_covariance

    def record(*args, **kwargs):
        seen.append(blas_counts())
        return empirical_covariance(*args, **kwargs)

    monkeypatch.setattr(risk, "empirical_covariance", record)
    spec = DesignSpec(kind="basis-expansion", alpha=2.0, grid_size=256)
    pinsker_decomposition_draws(spec, ThetaClass(beta=2.0, c_theta=1.0), 1.0, default_rho(2.0),
                                n=200, reps=2, seed=3)
    assert seen == [[1] * len(CONTROLS)] * 2
    assert blas_counts() == [2] * len(CONTROLS)


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


def test_every_index_runs_once_on_more_threads_than_cores():
    # the calling thread and its helpers take indices from one iterator: an
    # index taken twice or lost shows in its own counter
    counts = [0] * 300
    rounds = 20

    def bump(i):
        counts[i] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(rounds):
            foreach(bump, len(counts), 5)
    finally:
        sys.setswitchinterval(interval)
    assert counts == [rounds] * len(counts)


def test_calling_thread_runs_replications():
    ran_on = set()
    gate = threading.Barrier(2, timeout=30)

    def record(i):
        ran_on.add(threading.get_ident())
        if i < 2:
            gate.wait()     # index 0 and 1 meet: two threads run the loop at once

    foreach(record, 8, 2)
    assert threading.get_ident() in ran_on and len(ran_on) == 2


def test_first_failure_stops_the_loop_and_propagates():
    started = []

    def fail(i):
        started.append(i)
        raise RuntimeError(f"replication {i} failed")

    with pytest.raises(RuntimeError, match="replication [01] failed"):
        foreach(fail, 100, 2)
    assert len(started) <= 2     # neither thread takes an index after a failure


def test_nested_loop_in_a_pooled_replication_finishes():
    # every outer call runs at once, each on its own thread, and each opens
    # a pool of its own for its inner loop: no loop waits for a busy helper
    workers = 3
    gate = threading.Barrier(workers, timeout=30)
    out = np.zeros((workers, 10))
    errors = []

    def outer(i):
        gate.wait()

        def inner(j):
            out[i, j] = 10 * i + j

        foreach(inner, 10, workers)

    def caller():
        try:
            foreach(outer, workers, workers)
        except Exception as exc:   # reported through the assertion below
            errors.append(exc)

    t = threading.Thread(target=caller)
    t.start()
    t.join(timeout=60)
    assert not t.is_alive() and not errors
    assert np.array_equal(out, 10 * np.arange(workers)[:, None] + np.arange(10))


def test_pooled_loop_leaves_no_helper_alive():
    # the calls wait for each other, so every helper runs one; once the loop
    # has returned, none of its helper threads is left
    workers = 3
    gate = threading.Barrier(workers, timeout=30)
    ran_on = set()

    def record(i):
        ran_on.add(threading.current_thread())
        gate.wait()

    before = set(threading.enumerate())
    foreach(record, workers, workers)
    helpers = ran_on - {threading.current_thread()}
    assert len(helpers) == workers - 1
    assert not any(t.is_alive() for t in helpers)
    assert set(threading.enumerate()) <= before
