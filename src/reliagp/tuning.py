"""Leave-one-out cross-validation drivers for surrogate tuning.

Two protocols, both with squared-error loss:

* ``cv_lambda``: for each candidate ridge penalty, refit the regularized
  REML range parameters on each leave-one-out fold and krige the held-out
  point; the score is the sum of squared errors over folds.
* ``cv_hyperparams``: for each candidate (tau, nu^2) prior, run the adaptive
  Metropolis sampler on the integrated-likelihood target per fold, krige the
  held-out point once per retained draw, and average the per-draw summed
  losses.  All candidates' and folds' chains run in lockstep.

Both krige through ``kriging.held_out_predictions`` (one factorization stack
per fold), and both score only the kriged means, which do not depend on the
GP scale.  A fold that fails numerically (RuntimeError or ValueError) ends
its candidate with score inf; any other exception propagates.

Per-fold seeds derive deterministically from (master seed, candidate index,
fold index) so candidates are compared on common random numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from reliagp.gp import GpDesign, bayes_log_posterior, bayes_log_posterior_stack, fit_reml
from reliagp.kriging import held_out_predictions
# am_sample stays importable from here: perfbench/spans.py wraps tuning.am_sample
from reliagp.mcmc import (  # noqa: F401
    AmSettings,
    am_sample,
    am_sample_lockstep,
    default_init_cov,
    remove_burn_in,
)

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


def _pick_winner(scores: np.ndarray) -> int:
    # first occurrence of the minimum
    return int(np.argmin(scores))


def cv_lambda(design: GpDesign, lambdas, restarts: int = 8, master_seed: int = 0) -> CvReport:
    """Leave-one-out CV over the regularized-REML penalty candidates."""
    lambdas = list(lambdas)
    if not lambdas:
        raise ValueError("need at least one penalty candidate")
    if design.n < 3:
        raise ValueError("need n >= 3 for leave-one-out")
    n = design.n
    Q = len(lambdas)
    scores = np.full(Q, math.inf)
    fold_losses = np.full((Q, n), np.nan)
    for q, lam in enumerate(lambdas):
        total = 0.0
        for i in range(n):
            try:
                fit = fit_reml(design.drop_row(i), lam=lam, restarts=restarts, rng=fold_rng(master_seed, q, i))
                z, _ = held_out_predictions(design, i, fit.theta[None], nugget=fit.nugget)
            except (RuntimeError, ValueError):
                break
            fold_losses[q, i] = (design.Z[i] - z[0]) ** 2
            total += fold_losses[q, i]
        else:
            scores[q] = total
    return CvReport(candidates=lambdas, scores=scores, winner=_pick_winner(scores), fold_losses=fold_losses)


def cv_hyperparams(
    design: GpDesign,
    candidates,
    am_settings: AmSettings,
    burn_in: float = 0.2,
    master_seed: int = 0,
    nugget: float = 0.0,
) -> CvReport:
    """Leave-one-out CV over (tau, nu^2) prior candidates.

    Per candidate and fold, the theta posterior is sampled on the reduced
    data, burn-in is removed, and the held-out point is kriged once per
    retained draw j; L_qj sums squared errors over folds at draw j and the
    candidate's score is the mean of L_qj over j.

    All (candidate, fold) chains run in lockstep on one batched likelihood,
    and each follows its own fold_rng stream, so the report equals that of
    running the chains one after another, folds in order, and stopping a
    candidate at its first failed fold.
    """
    candidates = [tuple(c) for c in candidates]
    if not candidates:
        raise ValueError("need at least one (tau, nu_sq) candidate")
    if design.n < 3:
        raise ValueError("need n >= 3 for leave-one-out")
    n = design.n
    Q = len(candidates)
    folds = [design.drop_row(i) for i in range(n)]

    # a candidate's chains stop at its first fold with no finite start
    members, inits, init_covs, rngs = [], [], [], []
    for q, (tau, nu_sq) in enumerate(candidates):
        init = np.full(design.K, tau, dtype=float)
        for i, fold in enumerate(folds):
            target = bayes_log_posterior(fold, tau, nu_sq, nugget)
            if not math.isfinite(target(init)):
                break
            init_covs.append(default_init_cov(target, init))
            members.append((q, i))
            inits.append(init)
            rngs.append(fold_rng(master_seed, q, i))
    if members:
        target = bayes_log_posterior_stack(
            [folds[i] for _, i in members],
            [candidates[q][0] for q, _ in members],
            [candidates[q][1] for q, _ in members],
            nugget,
        )
        chains = dict(zip(members, am_sample_lockstep(target, inits, init_covs, am_settings, rngs)))
    else:
        chains = {}

    scores = np.full(Q, math.inf)
    n_kept = am_settings.n_retained - int(math.floor(burn_in * am_settings.n_retained))
    fold_losses = np.full((Q, n), np.nan)
    for q in range(Q):
        per_draw = np.zeros(n_kept)  # L_qj accumulated over folds
        for i in range(n):
            chain = chains.get((q, i))
            if chain is None or isinstance(chain, Exception):
                break
            try:
                z_j, _ = held_out_predictions(design, i, remove_burn_in(chain, burn_in).draws, nugget=nugget)
            except (RuntimeError, ValueError):
                break
            losses = (design.Z[i] - z_j) ** 2
            per_draw += losses
            fold_losses[q, i] = float(np.mean(losses))
        else:
            scores[q] = float(np.mean(per_draw))
    return CvReport(
        candidates=candidates, scores=scores, winner=_pick_winner(scores), fold_losses=fold_losses
    )
