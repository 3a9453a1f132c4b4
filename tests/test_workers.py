"""Worker processes: every parallel caller gives the serial result at any
worker count.

Each test forces the worker count to 1, 2 or 3 by patching
``workers.worker_count`` and compares against the one-worker run, which
takes fork_blocks' in-process path.
"""

import ctypes
import math
import os
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import test_cli
import test_tuning
from reliagp import distributions, tuning, workers
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
def test_fork_blocks_keeps_index_order(n, monkeypatch):
    force_workers(monkeypatch, n)
    parent = os.getpid()
    out = workers.fork_blocks(lambda share: [(i * i, os.getpid()) for i in range(7)[share]], 7)
    assert [v for v, _ in out] == [i * i for i in range(7)]
    # one worker runs the share here, more run the shares in forked processes
    assert all((pid == parent) == (n == 1) for _, pid in out)


def test_fork_blocks_runs_in_process_inside_a_worker():
    # a share that calls fork_blocks runs the inner shares in its own process
    def pids(share):
        return [os.getpid() for _ in range(3)[share]]

    out = workers.fork_blocks(lambda share: [workers.fork_blocks(pids, 3) for _ in range(2)[share]], 2)
    assert all(len(set(inner)) == 1 for inner in out)


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
    per_worker = workers.fork_blocks(lambda share: [_openblas_threads()], 2)
    assert all(counts == [1] * len(counts) for counts in per_worker)


def _set_openblas_threads(n: int) -> None:
    """Set each OpenBLAS loaded in this process to n threads."""
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split(maxsplit=5)[5].strip() for line in maps if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        set_threads = next(filter(None, (getattr(lib, name, None) for name in workers._SET_THREADS)))
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(n)


def test_main_runs_one_blas_thread(tmp_path):
    # the pipeline's own process, not only its workers, runs one BLAS thread
    if not _openblas_threads():
        pytest.skip("NumPy and SciPy load no OpenBLAS here")
    config, _ = test_cli._study(tmp_path)
    _set_openblas_threads(2)
    if set(_openblas_threads()) != {2}:
        pytest.skip("OpenBLAS keeps to one thread here")
    assert main(["fit-gp", "--config", str(config)]) == 0
    assert _openblas_threads() == [1] * len(_openblas_threads())


@pytest.mark.parametrize("n", [2, 3])
def test_dead_worker_raises(n, monkeypatch):
    force_workers(monkeypatch, n)
    with pytest.raises(BrokenProcessPool):
        workers.fork_blocks(lambda share: os._exit(1) if 1 in range(4)[share] else list(range(4)[share]), 4)


@pytest.mark.parametrize("n", COUNTS)
def test_job_exception_reaches_the_caller(n, monkeypatch):
    force_workers(monkeypatch, n)

    def job(share):
        # with more than one share, every share but the first fails, and
        # share 1 after share 2: the first in share order reaches the caller
        if share.start == 0 and n > 1:
            return list(range(5)[share])
        time.sleep(0.2 if share.start == 1 else 0.0)
        raise KeyError(f"share {share.start}")

    with pytest.raises(KeyError, match="share 0" if n == 1 else "share 1"):
        workers.fork_blocks(job, 5)


@pytest.mark.parametrize("n", COUNTS)
@pytest.mark.parametrize("count", range(6))
def test_fork_blocks_joins_contiguous_blocks_in_order(n, count, monkeypatch):
    # fork_blocks deals the items out, worker k taking k, k + W, ..., and
    # joins what the shares return in index order
    force_workers(monkeypatch, n)
    assert workers.fork_blocks(lambda share: list(range(count)[share]), count) == list(range(count))

    def job(share):
        # no share is empty, so count == 0 runs no job at all, as
        # cv_hyperparams needs when it keeps no chain
        assert range(count)[share], f"job({share})"
        return [(i, share.start, share.step) for i in range(count)[share]]

    out = workers.fork_blocks(job, count)
    assert [i for i, _, _ in out] == list(range(count))
    shares = min(count, n)
    assert all(start == i % shares and step == shares for i, start, step in out)


def test_fork_blocks_splits_the_weibull_inputs(monkeypatch):
    # at 2 workers fit-inputs' two Weibull chains, the costlier, fall in
    # different shares
    force_workers(monkeypatch, 2)
    families = [v.family for v in synth_study(seed=5, n=8, n_obs=8).variables]
    weibull = [k for k, family in enumerate(families) if family == distributions.Family.WEIBULL]
    assert len(weibull) == 2
    share_of = workers.fork_blocks(lambda share: [share.start] * len(range(len(families))[share]), len(families))
    assert share_of[weibull[0]] != share_of[weibull[1]]


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


@pytest.mark.parametrize("n", [2, 3])
def test_lockstep_calls_its_target_in_this_process(n, monkeypatch):
    # the callers split chains over workers; the sampler itself stays here
    force_workers(monkeypatch, n)
    parent = os.getpid()
    calls = []

    def target(X):
        assert os.getpid() == parent, "target called in a worker process"
        calls.append(len(X))
        return [std_normal_target(x) for x in X]

    settings = AmSettings(d=2, t=200, t0=50, t2=10)
    rngs = [np.random.default_rng(s) for s in range(4)]
    am_sample_lockstep(target, np.zeros((4, 2)), [np.eye(2)] * 4, settings, rngs)
    assert calls == [4] * (settings.t + 1)


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


@pytest.mark.parametrize("n", [1, 2])
def test_failed_fold_fit_ends_its_candidate_at_that_fold(n, small_design, monkeypatch):
    # the fit on candidate 1, fold 3's stream fails, in whichever worker it
    # runs: that candidate keeps its first three fold losses and fails, and
    # candidate 0 is untouched
    force_workers(monkeypatch, n)
    lambdas = [0.5, 2.0]
    clean = cv_lambda(small_design, lambdas, restarts=2, master_seed=11)
    assert np.isfinite(clean.scores).all()
    fit_reml = tuning.fit_reml
    failing = tuning.fold_rng(11, 1, 3).bit_generator.state

    def fail_one_fold(design, **kwargs):
        if kwargs["rng"].bit_generator.state == failing:
            raise RuntimeError("forced")
        return fit_reml(design, **kwargs)

    monkeypatch.setattr(tuning, "fit_reml", fail_one_fold)
    report = cv_lambda(small_design, lambdas, restarts=2, master_seed=11)
    assert report.fold_losses[1, :3].tobytes() == clean.fold_losses[1, :3].tobytes()
    assert np.isnan(report.fold_losses[1, 3:]).all() and report.scores[1] == math.inf
    assert report.fold_losses[0].tobytes() == clean.fold_losses[0].tobytes()
    assert report.scores[0] == clean.scores[0] and report.winner == 0


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


def _fail_on_non_finite_rows(monkeypatch):
    """Make the targets of tune-prior's and fit-inputs' chains raise on a
    non-finite row."""

    def checked(build):
        def build_checked(*args):
            target = build(*args)

            def log_target(x):
                assert np.isfinite(x).all(), "a target was given a non-finite row"
                return target(x)

            return log_target

        return build_checked

    monkeypatch.setattr(tuning, "bayes_log_posterior_stack", checked(tuning.bayes_log_posterior_stack))
    monkeypatch.setattr(distributions, "log_posterior_target", checked(distributions.log_posterior_target))


@pytest.mark.parametrize("n", COUNTS)
def test_no_target_is_given_a_nan_row(n, small_design, tmp_path, monkeypatch):
    # tau=50's chains cannot start: they stop at their starts, which lie
    # outside the theta box, and are given no non-finite row either
    force_workers(monkeypatch, n)
    _fail_on_non_finite_rows(monkeypatch)
    settings = AmSettings(d=4, t=200, t0=50, t2=10)
    report = cv_hyperparams(small_design, [(3.0, 0.26), (50.0, 0.26)], settings, master_seed=3)
    assert math.isfinite(report.scores[0]) and report.scores[1] == math.inf
    assert len(_fit_inputs_outputs(tmp_path)) == 8


@pytest.mark.parametrize("n", COUNTS)
def test_failed_input_chain_is_named_at_every_worker_count(n, tmp_path, monkeypatch, capsys):
    # at three workers X0002's chain runs in the second of three blocks
    force_workers(monkeypatch, n)
    test_cli.test_failed_input_chain_names_its_variable(tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("n", COUNTS)
def test_tuning_failure_handling_holds_at_every_worker_count(n, monkeypatch):
    force_workers(monkeypatch, n)
    test_tuning.test_cv_lambda_lets_programming_errors_escape(monkeypatch)
    ds = synth_study(seed=8000)
    design = GpDesign(S=ds.design[:10], Z=ds.outputs[:10], standardize=True)
    test_tuning.test_failed_chain_fails_only_its_candidate(design, monkeypatch)
