"""Leave-one-out cross-validation drivers for surrogate tuning.

Two protocols, both with squared-error loss, that differ only in how a
fold's theta rows are found:

* ``cv_lambda``: for each candidate ridge penalty, each leave-one-out fold
  refits the regularized REML range parameters; its theta is that point
  fit.  The Q * n fold fits are dealt out over the worker processes by
  ``workers.fork_blocks``, and each returns its fit.
* ``cv_hyperparams``: for each candidate (tau, nu^2) prior, each fold runs
  the adaptive Metropolis sampler on the integrated-likelihood target; its
  theta rows are the retained draws.  The (candidate, fold) chains run on
  likelihood stacks: one default_init_cov call gives every chain's initial
  covariance, and they run in one am_sample_lockstep call per share of
  ``workers.fork_blocks``.  A chain that cannot start fails its fold.

One scorer, ``_score_folds``, then kriges each held-out point in this
process through ``kriging.held_out_predictions`` (one factorization stack
per fold) at every theta row of its fold and scores the kriged means,
which do not depend on the GP scale.  A fold that fails numerically
(RuntimeError or ValueError) in its fit or its kriging ends its candidate
with score inf; any other exception propagates.

Each (candidate, fold) pair draws from its own stream, fold_rng(master
seed, candidate index, fold index), so a rerun repeats every fold's
optimizer starts or chain.  Candidates do not share random numbers: their
scores differ by Monte Carlo noise as well as by the candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from reliagp import workers
from reliagp.gp import GpDesign, bayes_log_posterior_stack, fit_reml
from reliagp.kriging import held_out_predictions
from reliagp.mcmc import BURN_IN, AmSettings, am_sample_lockstep, default_init_cov, remove_burn_in
from reliagp.mcmc import am_sample  # noqa: F401 -- perfbench/spans.py wraps tuning.am_sample

__all__ = ["CvReport", "cv_lambda", "cv_hyperparams", "fold_rng"]


@dataclass(frozen=True)
class CvReport:
    """Candidate settings, their CV scores, and the winning index.
    ``winner_draws`` stacks the winner's theta rows over its n folds: every
    fold's retained draws (cv_hyperparams) or point fit (cv_lambda), or
    None when no candidate has a finite score."""

    candidates: list
    scores: np.ndarray
    winner: int
    fold_losses: np.ndarray | None = None  # (Q, n) per-fold contributions
    winner_draws: np.ndarray | None = None  # (rows, K)

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=float)
        object.__setattr__(self, "scores", scores)
        finite = scores[np.isfinite(scores)]
        if finite.size and np.any(finite < 0):
            raise ValueError("CV scores must be non-negative")


def fold_rng(master_seed: int, candidate: int, fold: int) -> np.random.Generator:
    """Deterministic per-(candidate, fold) stream from the master seed."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(candidate, fold))
    return np.random.default_rng(ss)


def _score_folds(design: GpDesign, candidates: list, fold_thetas: list) -> CvReport:
    """Leave-one-out report over the candidates.

    ``fold_thetas[q * n + i]`` is candidate q's fit on fold i: its theta
    rows, a K-vector point fit or a (T, K) matrix of draws, and the nugget
    to krige at; or the RuntimeError or ValueError that ended the fold.
    Held-out point i is kriged at each row by held_out_predictions,
    candidate by candidate and fold by fold.  The squared-error losses are
    summed over folds per row, and the score is their mean over rows.  A
    candidate stops, with score inf, at its first failed fit or kriging;
    its fold losses are NaN from there.  The winner is the first candidate
    with the lowest score, and the report carries its fold theta rows.
    """
    n = design.n
    scores = np.full(len(candidates), math.inf)
    fold_losses = np.full((len(candidates), n), np.nan)
    for q in range(len(candidates)):
        per_draw = 0.0  # L_qj accumulated over folds
        try:
            for i, fit in enumerate(fold_thetas[q * n : (q + 1) * n]):
                if isinstance(fit, Exception):
                    raise fit
                thetas, nugget = fit
                z = held_out_predictions(design, i, np.atleast_2d(thetas), nugget=nugget)[0]
                # a point fit's loss is a plain loop's scalar arithmetic: a scalar's
                # ** 2 is pow(), which can differ in the last bit from an array's x * x
                losses = (design.Z[i] - (z if np.ndim(thetas) == 2 else z[0])) ** 2
                per_draw = per_draw + losses
                fold_losses[q, i] = float(np.mean(losses))
        except (RuntimeError, ValueError):
            continue
        scores[q] = float(np.mean(per_draw))
    winner = int(np.argmin(scores))
    draws = None
    if math.isfinite(scores[winner]):  # then none of its folds failed
        draws = np.vstack([np.atleast_2d(thetas) for thetas, _ in fold_thetas[winner * n : (winner + 1) * n]])
    return CvReport(candidates, scores, winner, fold_losses, draws)


def cv_lambda(design: GpDesign, lambdas, restarts: int = 8, master_seed: int = 0) -> CvReport:
    """Leave-one-out CV over the regularized-REML penalty candidates: each
    fold refits theta by fit_reml, and _score_folds kriges the held-out
    point at that point fit.

    The Q * n fold fits are dealt out by fork_blocks, each returning its
    (theta, nugget) or its RuntimeError or ValueError; any other exception
    propagates.  Every fold draws from its own stream, so the report does
    not depend on the worker count."""
    lambdas = list(lambdas)
    if not lambdas or design.n < 3:
        raise ValueError("need at least one penalty candidate and n >= 3 for leave-one-out")
    n = design.n

    def fold_fit(k):
        q, i = divmod(k, n)
        try:
            fit = fit_reml(
                design.drop_row(i), lam=lambdas[q], restarts=restarts, rng=fold_rng(master_seed, q, i), hessian=False
            )
        except (RuntimeError, ValueError) as e:
            return e
        return fit.theta, fit.nugget

    folds = range(len(lambdas) * n)
    fits = workers.fork_blocks(lambda share: [fold_fit(k) for k in folds[share]], len(folds))
    return _score_folds(design, lambdas, fits)


def cv_hyperparams(
    design: GpDesign,
    candidates,
    am_settings: AmSettings,
    burn_in: float = BURN_IN,
    master_seed: int = 0,
) -> CvReport:
    """Leave-one-out CV over (tau, nu^2) prior candidates.

    Per candidate and fold, the theta posterior is sampled on the reduced
    data from theta = tau in every coordinate and burn-in is removed;
    _score_folds kriges the held-out point once per retained draw j at
    nugget 0.  L_qj sums squared errors over folds at draw j and the
    candidate's score is the mean of L_qj over j.

    The n reduced designs are built once.  One default_init_cov call, on a
    bayes_log_posterior_stack target over every (candidate, fold) pair,
    gives the chains' initial covariances.  The chains are dealt out over
    the worker processes (workers.fork_blocks), one am_sample_lockstep call
    per share on a target over the share's pairs, each chain on its own
    fold_rng stream.  A chain that cannot start, or whose proposal
    covariance fails, is its fold's error.  The report therefore equals
    that of running the chains one after another, folds in order, and
    stopping a candidate at its first failed fold.  The report's
    winner_draws are the winning candidate's retained draws over its folds.
    """
    candidates = [tuple(c) for c in candidates]
    if not candidates or design.n < 3:
        raise ValueError("need at least one (tau, nu_sq) candidate and n >= 3 for leave-one-out")
    n = design.n
    tau, nu_sq = np.repeat(np.array(candidates, dtype=float), n, axis=0).T  # pair k = q * n + i
    reduced = [design.drop_row(i) for i in range(n)]
    pairs = range(tau.size)

    def target_for(share):  # over pairs[share]
        return bayes_log_posterior_stack([reduced[k % n] for k in pairs[share]], tau[share], nu_sq[share], 0.0)

    inits = np.repeat(tau[:, None], design.K, axis=1)
    covs = default_init_cov(target_for(slice(None)), inits)

    def run_share(share):
        rngs = [fold_rng(master_seed, *divmod(k, n)) for k in pairs[share]]
        return am_sample_lockstep(target_for(share), inits[share], covs[share], am_settings, rngs)

    chains = workers.fork_blocks(run_share, tau.size)
    fold_thetas = [c if isinstance(c, Exception) else (remove_burn_in(c, burn_in).draws, 0.0) for c in chains]
    return _score_folds(design, candidates, fold_thetas)
