"""Leave-one-out cross-validation drivers for surrogate tuning.

Two protocols, both with squared-error loss:

* ``cv_lambda``: for each candidate ridge penalty, refit the regularized
  REML range parameters on each leave-one-out fold and krige the held-out
  point; the score is the sum of squared errors over folds.
* ``cv_hyperparams``: for each candidate (tau, nu^2) prior, run the adaptive
  Metropolis sampler on the integrated-likelihood target per fold, krige the
  held-out point once per retained draw, and average the per-draw summed
  losses.  Every (candidate, fold) chain is started, run and scored on one
  likelihood stack: one target call checks all starts, one default_init_cov
  call gives all initial covariances, and one am_sample_lockstep call
  samples them, its chains split in blocks over the worker processes.

cv_lambda's fold fits run as independent jobs on the worker processes of
``workers.fork_map``.

Both krige through ``kriging.held_out_predictions`` (one factorization
stack per fold) and score the kriged means, which do not depend on the GP
scale, in one fold-scoring loop.  A fold that fails numerically
(RuntimeError or ValueError) ends its candidate with score inf; any other
exception propagates.

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
from reliagp.mcmc import AmSettings, am_sample_lockstep, default_init_cov, remove_burn_in
from reliagp.mcmc import am_sample  # noqa: F401 -- perfbench/spans.py wraps tuning.am_sample

__all__ = ["CvReport", "cv_lambda", "cv_hyperparams", "fold_rng"]


@dataclass(frozen=True)
class CvReport:
    """Candidate settings, their CV scores, and the winning index."""

    candidates: list
    scores: np.ndarray
    winner: int
    fold_losses: np.ndarray | None = None  # (Q, n) per-fold contributions

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


def _score_folds(design: GpDesign, candidates: list, fold_predictions) -> CvReport:
    """Leave-one-out report over the candidates.

    ``fold_predictions(q, i)`` gives candidate q's kriged mean of held-out
    point i, one per draw (a scalar for one draw).  The squared-error
    losses are summed over folds per draw, and the score is their mean over
    draws.  A candidate stops, with score inf, at its first fold that raises
    RuntimeError or ValueError; its fold losses are NaN from there.  The
    winner is the first candidate with the lowest score.
    """
    scores = np.full(len(candidates), math.inf)
    fold_losses = np.full((len(candidates), design.n), np.nan)
    for q in range(len(candidates)):
        per_draw = 0.0  # L_qj accumulated over folds
        try:
            for i in range(design.n):
                losses = (design.Z[i] - fold_predictions(q, i)) ** 2
                per_draw = per_draw + losses
                fold_losses[q, i] = float(np.mean(losses))
        except (RuntimeError, ValueError):
            continue
        scores[q] = float(np.mean(per_draw))
    return CvReport(candidates, scores, int(np.argmin(scores)), fold_losses)


def cv_lambda(design: GpDesign, lambdas, restarts: int = 8, master_seed: int = 0) -> CvReport:
    """Leave-one-out CV over the regularized-REML penalty candidates: each
    fold refits theta by fit_reml and kriges the held-out point at it.

    The Q * n fold fits are fork_map jobs, each returning its kriged value
    or its RuntimeError or ValueError; any other exception propagates.
    Every fold draws from its own stream, so the report does not depend on
    the worker count."""
    lambdas = list(lambdas)
    if not lambdas or design.n < 3:
        raise ValueError("need at least one penalty candidate and n >= 3 for leave-one-out")

    n = design.n

    def fold_prediction(k):
        q, i = divmod(k, n)
        try:
            fit = fit_reml(
                design.drop_row(i), lam=lambdas[q], restarts=restarts, rng=fold_rng(master_seed, q, i), hessian=False
            )
            z, _ = held_out_predictions(design, i, fit.theta[None], nugget=fit.nugget)
        except (RuntimeError, ValueError) as e:
            return e
        # a scalar, so that its loss is the scalar arithmetic of a plain
        # Python loop over folds, bit for bit
        return z[0]

    predictions = workers.fork_map(fold_prediction, len(lambdas) * n)

    def fold_value(q, i):
        z = predictions[q * n + i]
        if isinstance(z, Exception):
            raise z
        return z

    return _score_folds(design, lambdas, fold_value)


def cv_hyperparams(
    design: GpDesign,
    candidates,
    am_settings: AmSettings,
    burn_in: float = 0.2,
    master_seed: int = 0,
) -> CvReport:
    """Leave-one-out CV over (tau, nu^2) prior candidates.

    Per candidate and fold, the theta posterior is sampled on the reduced
    data from theta = tau in every coordinate, burn-in is removed, and the
    held-out point is kriged once per retained draw j at nugget 0; L_qj sums
    squared errors over folds at draw j and the candidate's score is the
    mean of L_qj over j.

    One bayes_log_posterior_stack target over every (candidate, fold) pair
    scores all starts in one call; a candidate's chains stop at its first
    fold with no finite start.  One default_init_cov call gives the kept
    chains' initial covariances, and one am_sample_lockstep call runs them,
    each on its own fold_rng stream.  The report therefore equals that of
    running the chains one after another, folds in order, and stopping a
    candidate at its first failed fold.
    """
    candidates = [tuple(c) for c in candidates]
    if not candidates or design.n < 3:
        raise ValueError("need at least one (tau, nu_sq) candidate and n >= 3 for leave-one-out")
    n = design.n
    pairs = [(q, i) for q in range(len(candidates)) for i in range(n)]
    tau, nu_sq = np.array([candidates[q] for q, _ in pairs], dtype=float).T
    target = bayes_log_posterior_stack([design.drop_row(i) for _, i in pairs], tau, nu_sq, 0.0)
    starts = np.repeat(tau[:, None], design.K, axis=1)
    kept = np.flatnonzero(np.cumprod(np.isfinite(target(starts)).reshape(-1, n), axis=1))

    def kept_target(theta):
        # the other rows are NaN, outside THETA_BOUNDS, which the target
        # scores -inf without factorizing them
        full = np.full_like(starts, np.nan)
        full[kept] = theta
        return target(full)[kept]

    inits = starts[kept]
    rngs = [fold_rng(master_seed, *pairs[k]) for k in kept]
    runs = am_sample_lockstep(kept_target, inits, default_init_cov(kept_target, inits), am_settings, rngs)
    chains = dict.fromkeys(pairs, ValueError("no finite start"))
    chains.update(zip([pairs[k] for k in kept], runs))

    def fold_predictions(q, i):
        chain = chains[q, i]
        if isinstance(chain, Exception):
            raise chain
        return held_out_predictions(design, i, remove_burn_in(chain, burn_in).draws, nugget=0.0)[0]

    return _score_folds(design, candidates, fold_predictions)
