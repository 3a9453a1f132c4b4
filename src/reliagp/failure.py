"""Latin hypercube design generation and the exceedance-probability simulation.

The end product is a posterior sample of the failure probability: the outer
loop draws one joint realization of the input-distribution parameters (and,
in Setting B, of the GP range parameters) from their posterior chains; the
inner loop simulates trial inputs, kriges them, and averages the per-trial
exceedance probabilities 1 - Phi((z_crit - z_hat0) / S0).  Both settings run
the same loop over one (R, K) matrix of theta rows (R = 1 for Setting A's
fixed REML theta), and each distinct row's kriging predictor is built once.
The trial points go through the predictor's lean ``krige`` body, which
computes no distances to the design.

The Phi complement is computed through erfc so that probabilities at the
1e-6 scale and far below do not cancel to zero in double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import erfc

from reliagp.distributions import Family, ParamVector, params_from_array, ppf, sample
from reliagp.gp import GpDesign
from reliagp.kriging import KrigingModel

__all__ = [
    "LhsDesign",
    "FailurePosterior",
    "lhs_sample",
    "exceedance_probability",
    "simulate_pf",
    "summarize",
]


@dataclass(frozen=True)
class LhsDesign:
    """Stratified uniforms and their inverse-CDF transforms."""

    U: np.ndarray  # (n, K) in (0, 1), one point per stratum per column
    S: np.ndarray  # (n, K) transformed through the marginals


@dataclass(frozen=True)
class FailurePosterior:
    """Posterior draws of the exceedance probability."""

    p: np.ndarray
    z_crit: float
    N: int
    M: int

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if np.any(p < 0) or np.any(p > 1):
            raise ValueError("exceedance draws must lie in [0, 1]")
        object.__setattr__(self, "p", p)


def lhs_sample(
    n: int, K: int, marginals: Sequence[ParamVector], rng: np.random.Generator
) -> LhsDesign:
    """Latin hypercube sample: per column, a random permutation of the n
    equal-probability strata with a uniform draw inside each stratum, then
    the inverse CDF of that column's marginal."""
    if n < 1:
        raise ValueError("need n >= 1")
    if len(marginals) != K:
        raise ValueError(f"{len(marginals)} marginals for K={K} columns")
    U = np.empty((n, K))
    for k in range(K):
        perm = rng.permutation(n)
        U[:, k] = (perm + rng.uniform(size=n)) / n
    S = np.column_stack([ppf(marginals[k], U[:, k]) for k in range(K)])
    return LhsDesign(U=U, S=S)


def exceedance_probability(z_hat, s0, z_crit: float):
    """P(Z0 > z_crit) under the predictive Normal; tail-stable via erfc.

    Where s0 == 0 the prediction is deterministic and the exceedance is the
    indicator z_hat > z_crit.
    """
    z_hat = np.asarray(z_hat, dtype=float)
    s0 = np.asarray(s0, dtype=float)
    out = np.empty(np.broadcast(z_hat, s0).shape)
    z_hat, s0 = np.broadcast_arrays(z_hat, s0)
    positive = s0 > 0
    t = np.divide(z_crit - z_hat, s0, out=np.zeros_like(out), where=positive)
    out[positive] = 0.5 * erfc(t[positive] / math.sqrt(2.0))
    out[~positive] = (z_hat[~positive] > z_crit).astype(float)
    return out


def simulate_pf(
    input_chains: Sequence[tuple[Family, np.ndarray]],
    theta_source,
    design: GpDesign,
    z_crit: float,
    N: int,
    M: int,
    rng: np.random.Generator,
    scale: str = "reml",
    nugget: float = 0.0,
) -> FailurePosterior:
    """Nested posterior simulation of the failure probability.

    ``input_chains`` holds, per input variable, its family and a matrix of
    retained posterior parameter draws (burn-in already removed).
    ``theta_source`` is either a fixed K-vector of range parameters
    (Setting A) or an (R, K) matrix of posterior theta draws (Setting B);
    both are one (R, K) matrix here, so a single-row matrix behaves
    identically to the fixed vector.

    Each outer iteration draws one uniformly random retained row per chain
    and of the theta matrix, independently; a matrix with one row is used
    without a draw.  It kriges M inner-loop trial points with the predictor
    of that theta row, built once per distinct row on first use, and
    averages their exceedance probabilities.
    """
    if N < 1 or M < 1:
        raise ValueError("N and M must be >= 1")
    K = design.K
    if len(input_chains) != K:
        raise ValueError(f"{len(input_chains)} input chains for K={K} design columns")
    families = []
    draw_mats = []
    for fam, draws in input_chains:
        draws = np.atleast_2d(np.asarray(draws, dtype=float))
        if draws.shape[0] < 1 or draws.shape[1] != 2:
            raise ValueError("each input chain needs a (rows, 2) draw matrix")
        families.append(Family(fam))
        draw_mats.append(draws)

    theta = np.atleast_2d(np.asarray(theta_source, dtype=float))
    if theta.shape[0] == 0:
        raise ValueError("empty theta chain")
    if theta.shape[1] != K:
        raise ValueError("theta dimension does not match the design")

    def pick(draws):
        # a uniformly random row; a one-row matrix consumes no randomness
        return draws[rng.integers(draws.shape[0])] if draws.shape[0] > 1 else draws[0]

    models = {}  # one predictor per distinct theta row, built on first use
    p = np.empty(N)
    for i in range(N):
        marginals = [params_from_array(fam, pick(draws)) for fam, draws in zip(families, draw_mats)]
        row = pick(theta)
        key = row.tobytes()
        if key not in models:
            models[key] = KrigingModel(design, row, scale=scale, nugget=nugget)
        s0 = np.column_stack([sample(marginals[k], rng, size=M) for k in range(K)])
        z_hat, s0_rmspe, _ = models[key].krige(s0)
        p[i] = float(np.mean(exceedance_probability(z_hat, s0_rmspe, z_crit)))
    return FailurePosterior(p=p, z_crit=z_crit, N=N, M=M)


def summarize(posterior: FailurePosterior, target: float = 1e-6) -> dict:
    """Posterior summaries with the 2.5%/97.5% credible-interval convention,
    also expressed in units of the one-in-a-million target."""
    p = posterior.p
    if p.size == 0:
        raise ValueError("empty posterior")
    mean = float(np.mean(p))
    median = float(np.median(p))
    lo, hi = (float(v) for v in np.quantile(p, [0.025, 0.975]))
    scale = 1.0 / target
    return {
        "mean": mean,
        "median": median,
        "ci_lower": lo,
        "ci_upper": hi,
        "mean_per_target": mean * scale,
        "median_per_target": median * scale,
        "ci_lower_per_target": lo * scale,
        "ci_upper_per_target": hi * scale,
        "target": target,
        "median_below_target": median < target,
        "mean_below_target": mean < target,
        "z_crit": posterior.z_crit,
        "N": posterior.N,
        "M": posterior.M,
    }
