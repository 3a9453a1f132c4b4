"""Run independent jobs in forked worker processes.

``fork_blocks(job, count)`` deals ``range(count)`` out over W =
min(count, worker_count()) shares, share k taking the items k, k + W,
k + 2W, ..., runs ``job(slice(k, count, W))`` for each share and puts the
items the shares return back in index order, so neighbours that cost
alike (the input chains of one family) go to different workers.  The
shares run on a pool of ``fork``-context processes, one per CPU in this
process's affinity mask, so ``taskset`` limits them.  Forking lets a job
be a closure over in-memory state (a design, the input posteriors), which
``spawn`` would have to pickle and rebuild; only the share index goes to a
worker, and only the share's items come back.  The library starts no
threads of its own, and OpenBLAS shuts its thread pool down around a fork,
so forking is safe here.  With one CPU, or inside a worker, the share runs
in this process.  A job's exception reaches the caller as the exception of
the first failing share, in share order; a worker that dies makes the call
raise BrokenProcessPool.

Each worker sets every loaded OpenBLAS to one thread before its share
(one_blas_thread): two workers with default BLAS threading oversubscribe
the CPUs and run slower than one process.  ``cli.main`` sets its own
process the same way before it runs a command: on the pipeline's small
matrices (one row per simulator run) a second BLAS thread costs far more
CPU than the wall time it saves.

fork_blocks is the library's one parallel path: no other module forks or
imports ``multiprocessing`` or ``concurrent.futures``, and one_blas_thread
is the one place that sets BLAS threads: no other module imports
``ctypes``.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

__all__ = ["fork_blocks", "one_blas_thread", "worker_count"]

# set in a worker process only, by _start_worker
_worker_job = None

# the thread-count setters of OpenBLAS builds: plain, 64-bit-integer and
# the scipy-openblas wheels' prefixed names; each has a get_num_threads twin
_SET_THREADS = [
    f"{prefix}_set_num_threads{suffix}" for prefix in ("openblas", "scipy_openblas") for suffix in ("", "64_", "_64")
]


def worker_count() -> int:
    """Processes fork_blocks runs shares on: the CPUs this process may run
    on, or 1 inside a worker."""
    return 1 if _worker_job is not None else len(os.sched_getaffinity(0))


def fork_blocks(job, count: int) -> list:
    """job(slice(0, count)) as the items of job(slice(k, count, W)) over the
    W = min(count, worker_count()) shares k < W, each on its own forked
    process when W > 1, put back in index order; job(share) returns one
    item per index of range(count)[share]."""
    shares = min(count, worker_count())
    slices = [slice(k, count, shares) for k in range(shares)]
    if shares <= 1:
        parts = [job(share) for share in slices]
    else:
        with ProcessPoolExecutor(
            shares, mp_context=multiprocessing.get_context("fork"), initializer=_start_worker, initargs=(job,)
        ) as pool:
            parts = list(pool.map(_run_job, slices))
    items = [None] * count
    for k, part in enumerate(parts):
        items[k::shares] = part
    return items


def _start_worker(job) -> None:
    global _worker_job
    _worker_job = job
    one_blas_thread()


def _run_job(share: slice):
    return _worker_job(share)


def one_blas_thread() -> None:
    """Set every OpenBLAS loaded in this process to one thread, through the
    set_num_threads symbol its build exports (as threadpoolctl does).  A
    library already at one thread is left alone: setting it again restarts
    the thread pool that a fork shut down, and each new pool thread spins
    for about 0.1 s of CPU before it sleeps."""
    with open("/proc/self/maps") as maps:
        paths = {line.split(maxsplit=5)[5].strip() for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        name = next((name for name in _SET_THREADS if hasattr(lib, name)), None)
        if name is None:
            continue
        get_threads, set_threads = getattr(lib, name.replace("_set_", "_get_")), getattr(lib, name)
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        if get_threads() != 1:
            set_threads(1)
