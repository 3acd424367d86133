"""Replication pool: independent Monte Carlo replications on threads that own the cores.

Each replication writes its own slot of a result array and spends its time in
numpy's linear algebra, which releases the interpreter lock, so a
``ThreadPoolExecutor`` runs them in parallel. OpenBLAS, however, also starts
its own threads inside every call: ``threads`` pool workers, each driving a
BLAS with nproc threads, oversubscribe the machine. While a pool runs, every
loaded OpenBLAS is therefore held at one thread, and its previous count is
restored when the pool has finished, also when a replication raises. Serial
runs (``threads <= 1``) keep the default BLAS threading, which is faster for
one caller.

Measured on 2 vCPU (OpenBLAS 0.3.31 from the numpy 2.4.6 and scipy 1.17.1
wheels, Python 3.11.7) on the criterion-6 cutoff study (basis designs,
n = 2^9..2^14, 30 replications, seed 7), median of three runs after a warm-up:

=========================================  ======  ======
setting                                     wall    CPU
=========================================  ======  ======
``threads=1``, default BLAS                 1.16 s  2.29 s
``threads=1``, one BLAS thread              0.99 s  0.98 s
``threads=2``, default BLAS (no cap)        1.78 s  3.45 s
``threads=2``, one BLAS thread per worker   0.64 s  1.20 s
=========================================  ======  ======

One process-wide setting would be wrong: the serial data-driven Pinsker study
(criterion 7, 300 replications at n = 1e4) took 5.8-6.2 s with default BLAS
and 6.5-6.8 s with one BLAS thread, so the cap lives only as long as a pool.
Worker processes were rejected: a spawned worker pays a fresh
``import flrlab, flrlab.risk`` of 0.20-0.25 s wall and about 0.35 s CPU
(median of 9), and two fresh workers that each run half the cutoff study
took 0.90 s against 0.62 s for the two-thread pool with the cap (medians
of 5).

OpenBLAS is found among the shared objects mapped into the process (Linux
``/proc/self/maps``) and its thread count is set through ``ctypes``. Only
libraries already loaded are capped: scipy is imported only by the KS battery
(``risk.two_sample_equivalence_test``), so in a run without it the cap finds
numpy's OpenBLAS alone. Where none is found, for example with another BLAS or
on another platform, the cap does nothing.

On basis-expansion designs (J <= 128) results do not depend on the worker
count: their J x J eigenproblems give the same bits serial and on two
workers. On integrated-Gaussian designs they do, in the last digits:
J = min(2n, D - 1) exceeds n, so every replication solves an n x n dual
eigenproblem (n up to 512 in the perturbation study), and multi-threaded
OpenBLAS in a serial run rounds it differently from the single-threaded BLAS
of a pool worker. On the benchmark's cli-gaussian model (6 replications,
seed 7), ``delta56_study`` gives E||Delta||^2 = 0.024096734216066135 at
n = 512 with ``threads=1`` and 0.024096734216065993 with ``threads=2``; with
``OPENBLAS_NUM_THREADS=1`` the serial run gives the latter.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

# (setter, getter) exported by the OpenBLAS builds numpy and scipy ship
# (64-bit-integer interface first), then by a plain OpenBLAS.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@dataclass(frozen=True)
class _BlasThreads:
    """Thread-count getter and setter of one loaded OpenBLAS."""

    get: Callable[[], int]
    set: Callable[[int], None]


def _mapped_openblas() -> list[str]:
    """Paths of the mapped shared objects whose file name contains ``openblas``."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            rows = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return []
    paths = {row[5].strip() for row in rows if len(row) == 6}
    return sorted(p for p in paths if "openblas" in os.path.basename(p))


@functools.lru_cache(maxsize=None)
def _controls_of(path: str) -> _BlasThreads | None:
    try:
        # RTLD_NOLOAD: only a library that is already loaded is opened.
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LOCAL)
    except OSError:
        return None
    for setter, getter in _OPENBLAS_SYMBOLS:
        if hasattr(lib, setter) and hasattr(lib, getter):
            set_fn, get_fn = getattr(lib, setter), getattr(lib, getter)
            set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
            get_fn.argtypes, get_fn.restype = [], ctypes.c_int
            return _BlasThreads(get_fn, set_fn)
    return None


def _blas_controls() -> list[_BlasThreads]:
    """Thread controls of every OpenBLAS loaded in this process; empty when none is found."""
    return [c for c in map(_controls_of, _mapped_openblas()) if c is not None]


# The BLAS thread count is process-wide, so pools that overlap (foreach called
# from several threads) share one cap: the first pool to start saves the counts,
# the last one to finish restores them.
_cap_lock = threading.Lock()
_cap_pools = 0
_cap_saved: list = []


@contextlib.contextmanager
def _single_threaded_blas():
    global _cap_pools, _cap_saved
    with _cap_lock:
        if _cap_pools == 0:
            _cap_saved = [(c, c.get()) for c in _blas_controls()]
            for c, _ in _cap_saved:
                c.set(1)
        _cap_pools += 1
    try:
        yield
    finally:
        with _cap_lock:
            _cap_pools -= 1
            if _cap_pools == 0:
                for c, count in _cap_saved:
                    c.set(count)
                _cap_saved = []


def foreach(fn: Callable[[int], object], count: int, threads: int) -> None:
    """Run fn(0), ..., fn(count - 1); each call stores its own result by index.

    With ``threads > 1`` the calls run on a pool of that many threads, with
    every loaded OpenBLAS held at one thread until the pool has shut down. The
    first exception a call raises propagates after the pool has finished.
    """
    if threads <= 1:
        for i in range(count):
            fn(i)
        return
    with _single_threaded_blas(), ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(fn, range(count)))
