"""Replication loops: independent Monte Carlo replications, serial or on one
persistent pool of helper threads that the calling thread joins; and the cap
that holds OpenBLAS at one thread while they, or a CLI subcommand, run.

Each replication writes its own slot of a result array and spends its time in
numpy's linear algebra, which releases the interpreter lock, so threads run
replications in parallel. A loop with ``threads > 1`` runs on one
process-wide ``ThreadPoolExecutor`` of helper threads, created by the first
pooled loop and replaced by a larger one only when a loop asks for more
helpers than it holds; its threads persist from loop to loop. The loop
submits ``threads - 1`` helpers, each of which drains a shared iterator of
indices, and the calling thread drains the same iterator instead of waiting,
so ``threads`` threads run replications. When the iterator runs out, the
caller cancels every helper that has not started and waits for the others to
finish the index they hold. So a loop nested in a replication, which runs on
a pool thread, never waits for a helper that the busy pool cannot start: its
caller runs every index itself. The studies in ``risk`` hand their whole
n x reps grid to one loop, largest n first, so the cores stay busy across
the n boundaries, where a pool per n drained to one thread and the caller
sat idle. Helpers go through ``ThreadPoolExecutor.submit``, so a tracer that
wraps it sees their work as a continuation of the caller's.

OpenBLAS, however, also starts its own threads inside every call:
``threads`` workers, each driving a BLAS with nproc threads, oversubscribe
the machine, and in a serial loop the BLAS threads spin on the other cores
between the small calls of a replication, burning CPU for little speed. So
``one_blas_thread`` holds every loaded OpenBLAS at one thread and restores
the previous counts when its last holder leaves, also when the work raises.
Every loop of ``foreach``, serial or pooled, holds it, so every replication
solves its linear algebra single-threaded, whatever ``threads`` is; and the
CLI holds it around each whole subcommand, so one fit, one transform or one
report runs on one BLAS thread too, and its artifacts do not depend on the
BLAS thread count it was started with. There the spare BLAS thread mostly
spun: at the config of the benchmark's cli-gaussian workload (integrated-
Gaussian designs, n = 256; 2 vCPU, in-process after a warm-up, three
processes of three runs each) the CPU time of ``simulate`` went from
0.34-0.47 s to 0.20-0.29 s and that of ``transform`` from 0.37-0.49 s to
0.20-0.28 s, with wall times of 0.20-0.32 s before and 0.20-0.29 s after.
The holders share one counter, so a loop inside a subcommand, or loops on
several threads at once, nest.

Measured on 2 vCPU of a shared host (OpenBLAS 0.3.31 from the numpy 2.4.6
and scipy 1.17.1 wheels, Python 3.11.7), in-process after a warm-up, with
every OpenBLAS at one thread. Criterion 6 is the benchmark's cutoff study on
basis designs (n = 2^9..2^14, 30 replications, seed 7); each range spans
five processes, each the median of nine alternating runs:

==================================================  ===========  ===========
criterion 6                                         wall         CPU
==================================================  ===========  ===========
``threads=1``                                       0.32-0.51 s  0.32-0.51 s
``threads=2``, a new two-thread pool per n          0.28-0.33 s  0.46-0.56 s
``threads=2``, one persistent pool, caller joins    0.21-0.27 s  0.38-0.51 s
==================================================  ===========  ===========

In the benchmark's cutoff-flr workload (the same study in a fresh
interpreter, 10 alternating 25 s pairs), the persistent pool with the whole
grid in one loop, and the cutoff's true operator built once per n, took the
median wall time from 0.364 s to 0.307 s (better in 10 of 10 pairs) and the
CPU time from 0.619 s to 0.553 s.

The cap itself was measured when the criterion-6 replications still solved
a J x J eigenproblem: at ``threads=1`` the study took 0.58-0.65 s (CPU
0.95-1.05 s) with the default BLAS and 0.60-0.66 s (CPU 0.53 s) with one
BLAS thread, and two pool workers each driving a two-thread BLAS took it
1.78 s (CPU 3.45 s) against 0.64 s with the cap. The cap used to cover
pools only, because the serial criterion-7 study (the data-driven Pinsker
workload: a 20-replication gamma study and 300 MISE replications at
n = 1e4, seed 7) then ran faster with the default BLAS (5.8-6.2 s against
6.5-6.8 s) while every replication rendered a 10000 x 1024 grid; since its
replications fit from (Gamma-hat, X^T y / n), one BLAS thread costs no wall
time and half the CPU there (5.97 s and 5.6 s of CPU against 6.18 s and
11.5 s, medians of nine alternating runs).

Three other uses of the cores were measured and rejected:

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
  been busy for a while;
* prefetching the next row block of ``designs.stream_moments`` on a helper
  thread while the caller folds the current one into its sums (the same
  bits; each block handed over as a copy). In the benchmark's workloads
  (``perfbench/run.py --trace 0 --seed 7 --seconds 10``, 4 alternating
  pairs), the serial dd-pinsker-flr study took a median wall time of
  4.83 s against 5.46 s (faster in 4 of 4 pairs, by 3-14 %), but 6.84 s of
  CPU against 5.45 s (21-32 % more in every pair) and a peak RSS of 47 MB
  against 43 MB; on cutoff-flr, whose pool already keeps both cores busy
  with whole replications, the helper competes with it, and the median wall
  time went from 0.26 s to 0.60 s.

OpenBLAS is found among the shared objects mapped into the process (Linux
``/proc/self/maps``) and its thread count is set through ``ctypes``. Only
libraries already loaded when the first holder enters are capped; a library
first loaded while the cap is held keeps its default count until a later
holder enters with none outstanding. scipy's OpenBLAS is mapped by any scipy
import that loads its compiled modules, ``scipy.special`` included, and
scipy is imported only by the KS battery (``risk.two_sample_equivalence_test``,
for ``scipy.special.smirnov``), inside the subcommand's cap, so that
OpenBLAS is not capped there; no CLI path calls into it, so nothing runs on
it. Where none is found, for example with another BLAS or on another
platform, the cap does nothing.

Results do not depend on the worker count, nor, under the CLI, on the
BLAS thread count. This includes integrated-Gaussian
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
from concurrent.futures import Future, ThreadPoolExecutor
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


# The BLAS thread count is process-wide, so holders that overlap (a CLI
# subcommand and its loops, or foreach called from several threads) share one
# cap: the first holder to enter saves the counts, the last one to leave
# restores them.
_cap_lock = threading.Lock()
_cap_holders = 0
_cap_saved: list = []


@contextlib.contextmanager
def one_blas_thread():
    """Hold every loaded OpenBLAS at one thread; on exit, also by an exception,
    the counts saved on entry come back once no other holder remains.

    Holders nest and overlap across threads. A library first loaded while
    the cap is held is not capped."""
    global _cap_holders, _cap_saved
    with _cap_lock:
        if _cap_holders == 0:
            _cap_saved = [(c, c.get()) for c in _blas_controls()]
            for c, _ in _cap_saved:
                c.set(1)
        _cap_holders += 1
    try:
        yield
    finally:
        with _cap_lock:
            _cap_holders -= 1
            if _cap_holders == 0:
                for c, count in _cap_saved:
                    c.set(count)
                _cap_saved = []


# One process-wide pool of helper threads, created on the first pooled loop
# and grown when a loop asks for more helpers than it has. Its threads persist
# between loops, so a study pays for starting them once.
_pool_lock = threading.Lock()
_pool: ThreadPoolExecutor | None = None
_pool_size = 0


def _submit_helpers(task: Callable[[], None], count: int) -> list[Future]:
    """Submit ``count`` copies of ``task`` to the helper pool, grown to at least that size."""
    global _pool, _pool_size
    with _pool_lock:
        if count > _pool_size:
            if _pool is not None:
                _pool.shutdown(wait=False)      # its threads finish what they hold, then exit
            _pool = ThreadPoolExecutor(max_workers=count, thread_name_prefix="flrlab-helper")
            _pool_size = count
        return [_pool.submit(task) for _ in range(count)]


def foreach(fn: Callable[[int], object], count: int, threads: int) -> None:
    """Run fn(0), ..., fn(count - 1); each call stores its own result by index.

    Every loaded OpenBLAS is held at one thread until the loop has finished,
    serial or not. With ``threads > 1`` the calling thread and ``threads - 1``
    helpers of the process's pool take indices from one shared iterator; when
    it runs out, helpers that have not started are cancelled, so a loop
    nested in a replication never waits for a pool thread it occupies. The
    first exception a call raises stops the others taking new indices and
    propagates once every running call has returned.
    """
    with one_blas_thread():
        if threads <= 1:
            for i in range(count):
                fn(i)
            return
        indices, lock, failures = iter(range(count)), threading.Lock(), []

        def drain() -> None:
            while True:
                with lock:
                    i = None if failures else next(indices, None)
                if i is None:
                    return
                try:
                    fn(i)
                except BaseException as exc:    # re-raised by the calling thread below
                    with lock:
                        failures.append(exc)
                    return

        helpers = _submit_helpers(drain, min(threads, count) - 1)
        drain()
        for helper in helpers:
            if not helper.cancel():     # started: wait for it to run out of indices
                helper.result()
        if failures:
            raise failures[0]
