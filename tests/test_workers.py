"""Worker processes: every parallel caller gives the serial result at any
worker count.

Each test forces the worker count to 1, 2 or 3 by patching
``workers.worker_count`` and compares against the one-worker run, which
takes fork_map's in-process path.
"""

import ctypes
import math
import os
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import test_tuning
from reliagp import workers
from reliagp.cli import main
from reliagp.ingest import synth_study
from reliagp.gp import GpDesign
from reliagp.mcmc import AmSettings, am_sample_lockstep
from reliagp.tuning import cv_hyperparams, cv_lambda
from test_cli import write_config
from test_mcmc import far_target, std_normal_target

COUNTS = [1, 2, 3]


def force_workers(monkeypatch, n):
    monkeypatch.setattr(workers, "worker_count", lambda: n)


def at_workers(monkeypatch, n, fn, *args, **kwargs):
    """fn(*args, **kwargs) with the worker count forced to n."""
    force_workers(monkeypatch, n)
    return fn(*args, **kwargs)


@pytest.fixture(scope="module")
def small_design():
    ds = synth_study(seed=8000)
    return GpDesign(S=ds.design[:8], Z=ds.outputs[:8], standardize=True)


@pytest.mark.parametrize("n", COUNTS)
def test_fork_map_keeps_index_order(n, monkeypatch):
    force_workers(monkeypatch, n)
    parent = os.getpid()
    out = workers.fork_map(lambda i: (i * i, os.getpid()), 7)
    assert [v for v, _ in out] == [i * i for i in range(7)]
    # one worker runs the jobs here, more run them in forked processes
    assert all((pid == parent) == (n == 1) for _, pid in out)


def test_fork_map_runs_in_process_inside_a_worker():
    # a job that calls fork_map runs the inner jobs in its own process
    inner = workers.fork_map(lambda i: workers.fork_map(lambda j: os.getpid(), 3), 2)
    assert all(len(set(pids)) == 1 for pids in inner)


def _openblas_threads() -> list[int]:
    """Thread count of each OpenBLAS loaded in this process."""
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split(maxsplit=5)[5].strip() for line in maps if "openblas" in line.lower()})
    counts = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            get_threads = getattr(lib, symbol, None)
            if get_threads is not None:
                get_threads.restype = ctypes.c_int
                counts.append(get_threads())
                break
    return counts


def test_workers_run_one_blas_thread(monkeypatch):
    if not _openblas_threads():
        pytest.skip("NumPy and SciPy load no OpenBLAS here")
    force_workers(monkeypatch, 2)
    per_worker = workers.fork_map(lambda i: _openblas_threads(), 2)
    assert all(counts == [1] * len(counts) for counts in per_worker)


@pytest.mark.parametrize("n", [2, 3])
def test_dead_worker_raises(n, monkeypatch):
    force_workers(monkeypatch, n)
    with pytest.raises(BrokenProcessPool):
        workers.fork_map(lambda i: os._exit(1) if i == 1 else i, 4)


@pytest.mark.parametrize("n", COUNTS)
def test_job_exception_reaches_the_caller(n, monkeypatch):
    force_workers(monkeypatch, n)

    def job(i):
        if i == 2:
            raise KeyError("job 2")
        return i

    with pytest.raises(KeyError, match="job 2"):
        workers.fork_map(job, 5)


def _lockstep_run():
    """Five chains, the second and fifth on far_target, whose adaptation
    fails; the generators' states after the run and the chains (or errors)
    it returns."""
    settings = AmSettings(d=2, t=2000, t0=100, t1=7, t2=10)
    shifted = lambda x: -0.5 * float((x - 1.0) @ (x - 1.0)) / 4.0
    targets = [std_normal_target, far_target, shifted, std_normal_target, far_target]
    inits = [np.zeros(2), np.full(2, 1e8), np.ones(2), np.zeros(2), np.full(2, 1e8)]
    covs = [np.eye(2), 1e-6 * np.eye(2), 2.0 * np.eye(2), 0.5 * np.eye(2), 1e-6 * np.eye(2)]
    rngs = [np.random.default_rng(s) for s in (1, 2, 3, 4, 5)]

    def target(X):
        # the values, from each row alone, as the lockstep contract asks
        return [f(x) for f, x in zip(targets, X)]

    chains = am_sample_lockstep(target, inits, covs, settings, rngs)
    return [rng.bit_generator.state for rng in rngs], chains


@pytest.mark.parametrize("n", COUNTS)
def test_lockstep_chains_do_not_depend_on_worker_count(n, monkeypatch):
    serial_states, serial = at_workers(monkeypatch, 1, _lockstep_run)
    states, chains = at_workers(monkeypatch, n, _lockstep_run)
    assert states == serial_states
    assert isinstance(chains[1], RuntimeError) and isinstance(chains[4], RuntimeError)
    for got, want in zip(chains, serial):
        if isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want)
        else:
            assert got.draws.tobytes() == want.draws.tobytes()
            assert got.acceptance_rate == want.acceptance_rate


@pytest.mark.parametrize("n", COUNTS)
def test_cv_hyperparams_does_not_depend_on_worker_count(n, small_design, monkeypatch):
    # tau=50 starts no chain and fails alone
    settings = AmSettings(d=4, t=200, t0=50, t2=10)
    candidates = [(3.0, 0.26), (50.0, 0.26), (2.5, 0.5)]
    serial = at_workers(monkeypatch, 1, cv_hyperparams, small_design, candidates, settings, master_seed=3)
    report = at_workers(monkeypatch, n, cv_hyperparams, small_design, candidates, settings, master_seed=3)
    assert report.scores.tobytes() == serial.scores.tobytes()
    assert report.fold_losses.tobytes() == serial.fold_losses.tobytes()
    assert report.scores[1] == math.inf and report.winner == serial.winner


@pytest.mark.parametrize("n", COUNTS)
def test_cv_lambda_does_not_depend_on_worker_count(n, small_design, monkeypatch):
    serial = at_workers(monkeypatch, 1, cv_lambda, small_design, [0.5, 2.0, 8.0], restarts=2, master_seed=11)
    report = at_workers(monkeypatch, n, cv_lambda, small_design, [0.5, 2.0, 8.0], restarts=2, master_seed=11)
    assert report.scores.tobytes() == serial.scores.tobytes()
    assert report.fold_losses.tobytes() == serial.fold_losses.tobytes()


def _fit_inputs_outputs(root):
    data_dir, out = root / "data", root / "out"
    assert main(["synth", "--out", str(data_dir), "--seed", "5", "--n", "8", "--n-obs", "8"]) == 0
    cfg = write_config(root, data_dir / "manifest.json", out, am_inputs={"t": 2000, "t0": 200, "t2": 10})
    assert main(["fit-inputs", "--config", str(cfg)]) == 0
    return {p.name: p.read_bytes() for p in sorted((out / "inputs").iterdir())}


@pytest.mark.parametrize("n", COUNTS)
def test_fit_inputs_does_not_depend_on_worker_count(n, tmp_path, monkeypatch):
    (tmp_path / "serial").mkdir()
    (tmp_path / "forced").mkdir()
    serial = at_workers(monkeypatch, 1, _fit_inputs_outputs, tmp_path / "serial")
    assert at_workers(monkeypatch, n, _fit_inputs_outputs, tmp_path / "forced") == serial
    assert len(serial) == 8  # four chains and their sidecars


@pytest.mark.parametrize("n", COUNTS)
def test_tuning_failure_handling_holds_at_every_worker_count(n, monkeypatch):
    force_workers(monkeypatch, n)
    test_tuning.test_cv_lambda_lets_programming_errors_escape(monkeypatch)
    ds = synth_study(seed=8000)
    design = GpDesign(S=ds.design[:10], Z=ds.outputs[:10], standardize=True)
    test_tuning.test_failed_chain_fails_only_its_candidate(design, monkeypatch)
