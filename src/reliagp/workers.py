"""Run independent jobs in forked worker processes.

``fork_map(job, count)`` returns ``[job(i) for i in range(count)]`` in index
order.  The jobs run on a pool of ``fork``-context processes, one per CPU in
this process's affinity mask, so ``taskset`` limits them.  Forking lets a
job be a closure over in-memory state (a likelihood stack, a design), which
``spawn`` would have to pickle and rebuild; only the job index goes to a
worker, and only the job's result comes back.  The library starts no
threads of its own, and OpenBLAS shuts its thread pool down around a fork,
so forking is safe here.  With one CPU, or inside a worker, the jobs run in
this process.

Each worker sets every loaded OpenBLAS to one thread before its first job:
two workers with default BLAS threading oversubscribe the CPUs and run
slower than one process.  A job's exception is raised in the caller, the
first in index order; a worker that dies makes the call raise
BrokenProcessPool.

This is the library's one parallel path: no other module forks or imports
``multiprocessing`` or ``concurrent.futures``.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

__all__ = ["fork_map", "worker_count"]

# set in a worker process only, by _start_worker
_worker_job = None

# the thread-count setters of OpenBLAS builds: plain, 64-bit-integer and
# the scipy-openblas wheels' prefixed names
_SET_THREADS = [
    f"{prefix}_set_num_threads{suffix}" for prefix in ("openblas", "scipy_openblas") for suffix in ("", "64_", "_64")
]


def worker_count() -> int:
    """Processes fork_map runs jobs on: the CPUs this process may run on, or
    1 inside a worker."""
    return 1 if _worker_job is not None else len(os.sched_getaffinity(0))


def fork_map(job, count: int) -> list:
    """[job(i) for i in range(count)], with the jobs spread over
    min(count, worker_count()) forked processes."""
    workers = min(count, worker_count())
    if workers <= 1:
        return [job(i) for i in range(count)]
    with ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"), initializer=_start_worker, initargs=(job,)
    ) as pool:
        return list(pool.map(_run_job, range(count)))


def _start_worker(job) -> None:
    global _worker_job
    _worker_job = job
    _one_blas_thread()


def _run_job(i: int):
    return _worker_job(i)


def _one_blas_thread() -> None:
    """Set every OpenBLAS loaded in this process to one thread, through the
    set_num_threads symbol its build exports (as threadpoolctl does)."""
    with open("/proc/self/maps") as maps:
        paths = {line.split(maxsplit=5)[5].strip() for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        set_threads = next(filter(None, (getattr(lib, name, None) for name in _SET_THREADS)), None)
        if set_threads is not None:
            set_threads.argtypes = [ctypes.c_int]
            set_threads.restype = None
            set_threads(1)
