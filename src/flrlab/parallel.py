"""Replication loops: independent Monte Carlo replications, serial or on threads that own the cores.

Each replication writes its own slot of a result array and spends its time in
numpy's linear algebra, which releases the interpreter lock, so a
``ThreadPoolExecutor`` runs them in parallel. OpenBLAS, however, also starts
its own threads inside every call: ``threads`` pool workers, each driving a
BLAS with nproc threads, oversubscribe the machine, and in a serial loop the
BLAS threads spin on the other cores between the small calls of a
replication, burning CPU for little speed. So every loop of ``foreach``,
serial or pooled, holds every loaded OpenBLAS at one thread, and restores
the previous counts when it has finished, also when a replication raises:
every replication solves its linear algebra single-threaded, whatever
``threads`` is. Work outside a loop (one fit, one transform) keeps the
default BLAS threading.

Measured on 2 vCPU (OpenBLAS 0.3.31 from the numpy 2.4.6 and scipy 1.17.1
wheels, Python 3.11.7), in-process after a warm-up. Criterion 6 is the
cutoff study on basis designs (n = 2^9..2^14, 30 replications, seed 7;
range of two medians of three); criterion 7 is the data-driven Pinsker
workload of the benchmark (a 20-replication gamma study and 300 MISE
replications at n = 1e4, seed 7; medians of nine alternating runs):

==================================================  ===========  ===========
setting                                              wall         CPU
==================================================  ===========  ===========
criterion 6, ``threads=1``, default BLAS             0.58-0.65 s  0.95-1.05 s
criterion 6, ``threads=1``, one BLAS thread          0.60-0.66 s  0.53 s
criterion 6, ``threads=2``, one BLAS thread each     0.66-0.91 s  0.61-0.69 s
criterion 7, serial, default BLAS                    6.18 s       11.5 s
criterion 7, serial, one BLAS thread                 5.97 s       5.6 s
==================================================  ===========  ===========

Without the cap, two pool workers each driving a two-thread BLAS took the
criterion-6 study 1.78 s (CPU 3.45 s) when its replications still solved a
J x J eigenproblem, against 0.64 s with it. The cap used to cover pools
only, because the serial criterion-7 study then ran faster with the default
BLAS (5.8-6.2 s against 6.5-6.8 s) while every replication rendered a
10000 x 1024 grid; since its replications fit from (Gamma-hat, X^T y / n)
the pairs above show one BLAS thread costing no wall time and half the CPU.

Two other uses of the cores were measured and rejected:

* worker processes: a spawned worker pays a fresh ``import flrlab,
  flrlab.risk`` of 0.20-0.25 s wall and about 0.35 s CPU (median of 9), and
  two fresh workers that each run half the cutoff study took 0.90 s against
  0.62 s for the two-thread pool with the cap (medians of 5);
* handing the core a serial loop frees to the 10000 x 128 uniform design
  draw, in row slices drawn from copies of the replication's PCG64 stream
  advanced to each slice (the same bits): on criterion 7 with the cap, the
  split draw took a median of 6.90 s against 5.97 s (faster in 1 of 9
  alternating runs, up to 22 s in the slowest), and with a persistent
  helper thread sharing chunks it was slower in 6 of 6 runs (by 0.3-0.9 s).
  One draw takes about 6 ms, too short for the second vCPU to help: two
  threads drawing at once ran at about the speed of one unless both had
  been busy for a while.

OpenBLAS is found among the shared objects mapped into the process (Linux
``/proc/self/maps``) and its thread count is set through ``ctypes``. Only
libraries already loaded are capped: scipy's OpenBLAS is mapped by any scipy
import that loads its compiled modules, ``scipy.special`` included, and
scipy is imported only by the KS battery (``risk.two_sample_equivalence_test``,
for ``scipy.special.smirnov``), so in a run without it the cap finds numpy's
OpenBLAS alone. Where none is found, for example with another BLAS or
on another platform, the cap does nothing.

Results do not depend on the worker count. This includes integrated-Gaussian
designs, where J = min(2n, D - 1) exceeds n and every replication solves an
n x n dual eigenproblem (n up to 512 in the perturbation study): a serial
loop with a multi-threaded OpenBLAS rounded it differently from a pool
worker, so ``delta56_study`` and the Pinsker kinds of ``mise_monte_carlo``
read differently in the last digits at ``threads=1`` and ``threads=2``; with
one BLAS thread in both they give the same bits.
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


# The BLAS thread count is process-wide, so loops that overlap (foreach called
# from several threads) share one cap: the first loop to start saves the
# counts, the last one to finish restores them.
_cap_lock = threading.Lock()
_cap_loops = 0
_cap_saved: list = []


@contextlib.contextmanager
def _single_threaded_blas():
    global _cap_loops, _cap_saved
    with _cap_lock:
        if _cap_loops == 0:
            _cap_saved = [(c, c.get()) for c in _blas_controls()]
            for c, _ in _cap_saved:
                c.set(1)
        _cap_loops += 1
    try:
        yield
    finally:
        with _cap_lock:
            _cap_loops -= 1
            if _cap_loops == 0:
                for c, count in _cap_saved:
                    c.set(count)
                _cap_saved = []


def foreach(fn: Callable[[int], object], count: int, threads: int) -> None:
    """Run fn(0), ..., fn(count - 1); each call stores its own result by index.

    Every loaded OpenBLAS is held at one thread until the loop has finished,
    serial or not. With ``threads > 1`` the calls run on a pool of that many
    threads; the first exception a call raises propagates after the pool has
    finished.
    """
    with _single_threaded_blas():
        if threads <= 1:
            for i in range(count):
                fn(i)
            return
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fn, range(count)))
