"""Adaptive Metropolis sampler and chain diagnostics.

The sampler follows Haario, Saksman and Tamminen (2001): a random-walk
Metropolis whose Gaussian proposal covariance is the empirical covariance of
the whole chain history, scaled by s_d = 2.4^2/d and regularized by eps*I.
Adaptation starts after an initial non-adaptive period t0 and the proposal
covariance is refreshed every t1 steps; every t2-th state is retained as
output, so a run of t steps yields t/t2 draws.  ``am_sample_lockstep`` runs
many independent chains side by side with one target call per step, and
``am_sample`` is its one-chain case.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

__all__ = [
    "AmSettings",
    "PosteriorChain",
    "am_sample",
    "am_sample_lockstep",
    "remove_burn_in",
    "geweke",
    "running_average",
    "trace_export",
    "default_init_cov",
    "save_chain",
    "load_chain",
]


@dataclass(frozen=True)
class AmSettings:
    """Adaptive Metropolis run settings."""

    d: int
    t: int = 100_000
    epsilon: float = 1e-4
    t0: int = 10_000
    t1: int = 10
    t2: int = 100

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension d must be >= 1")
        if self.t % self.t2 != 0:
            raise ValueError(f"t={self.t} must be a multiple of t2={self.t2}")
        if not (0 <= self.t0 < self.t):
            raise ValueError("t0 must satisfy 0 <= t0 < t")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.t1 < 1 or self.t2 < 1:
            raise ValueError("t1 and t2 must be >= 1")

    @property
    def s_d(self) -> float:
        return 2.4**2 / self.d

    @property
    def n_retained(self) -> int:
        return self.t // self.t2


@dataclass(frozen=True)
class PosteriorChain:
    """Retained MCMC draws plus run metadata."""

    draws: np.ndarray  # (rows, d)
    acceptance_rate: float
    settings: AmSettings | None = None
    burn_in_fraction: float = 0.0
    geweke_z: np.ndarray | None = None

    @property
    def rows(self) -> int:
        return self.draws.shape[0]

    @property
    def d(self) -> int:
        return self.draws.shape[1]


def default_init_cov(log_target, init: np.ndarray, step: float = 1e-4) -> np.ndarray:
    """Inverse finite-difference Hessian of -log_target at init, if SPD.

    Falls back to 0.1*I when the Hessian is not positive definite or the
    target is not finite in the probed neighborhood.
    """
    init = np.asarray(init, dtype=float)
    d = init.size
    fallback = 0.1 * np.eye(d)
    try:
        hess = fd_hessian(lambda x: -log_target(x), init, step)
        if not np.all(np.isfinite(hess)):
            return fallback
        cov = np.linalg.inv(hess)
        np.linalg.cholesky(cov)
        return cov
    except np.linalg.LinAlgError:
        return fallback


def fd_hessian(f, x: np.ndarray, step: float) -> np.ndarray:
    """Central finite-difference Hessian of f at x with step
    step * max(1, |x_k|) in coordinate k."""
    d = x.size
    h = step * np.maximum(1.0, np.abs(x))
    hess = np.empty((d, d))
    f0 = f(x)
    for i in range(d):
        for j in range(i, d):
            ei = np.zeros(d)
            ej = np.zeros(d)
            ei[i] = h[i]
            ej[j] = h[j]
            if i == j:
                val = (f(x + ei) - 2 * f0 + f(x - ei)) / h[i] ** 2
            else:
                val = (
                    f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
                ) / (4 * h[i] * h[j])
            hess[i, j] = val
            hess[j, i] = val
    return hess


def cholesky_stack(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of a (B, d, d) stack, member by member.

    Returns (L, ok): where A[b] is not positive definite ok[b] is False and
    L[b] is NaN, and the other members are factorized all the same.
    """
    try:
        return np.linalg.cholesky(A), np.ones(len(A), dtype=bool)
    except np.linalg.LinAlgError:
        L = np.full_like(A, np.nan)
        ok = np.zeros(len(A), dtype=bool)
        for b, a in enumerate(A):
            try:
                L[b] = np.linalg.cholesky(a)
                ok[b] = True
            except np.linalg.LinAlgError:
                pass
        return L, ok


def am_sample(
    log_target,
    init,
    init_cov,
    settings: AmSettings,
    rng: np.random.Generator,
) -> PosteriorChain:
    """Run the adaptive Metropolis sampler: the one-chain am_sample_lockstep.

    The proposal is Gaussian centered at the current state with covariance
    s_d*init_cov during the first t0 steps and
    s_d*Cov(history) + s_d*eps*I afterwards, refreshed every t1 steps.
    Symmetric accept/reject with probability min(1, exp(delta log-target)).
    """
    init = np.asarray(init, dtype=float)
    if init.shape != (settings.d,):
        raise ValueError(f"init has shape {init.shape}, expected ({settings.d},)")
    (chain,) = am_sample_lockstep(
        lambda x: [float(log_target(x[0]))], init[None], np.asarray(init_cov)[None], settings, [rng]
    )
    if isinstance(chain, Exception):
        raise chain
    return chain


def am_sample_lockstep(
    log_target,
    inits,
    init_covs,
    settings: AmSettings,
    rngs: list[np.random.Generator],
) -> list:
    """Run B adaptive Metropolis chains side by side, one step of all per
    iteration.

    ``log_target`` maps a (B, d) stack of states, row b from chain b, to B
    log densities, so one call scores every chain's proposal.  Chain b draws
    standard_normal(d) and then uniform() from ``rngs[b]`` at each step, and
    its accept test, moments and adaptation use its own state only, so it
    follows bit for bit the path am_sample gives it alone.  Returns one
    PosteriorChain per chain, or the exception am_sample would raise for a
    chain whose proposal covariance is not positive definite; such a chain
    stops moving and the others run on.
    """
    B, d = len(rngs), settings.d
    t0, t1, t2 = settings.t0, settings.t1, settings.t2
    x = np.array(inits, dtype=float)
    if x.shape != (B, d):
        raise ValueError(f"inits have shape {x.shape}, expected ({B}, {d})")
    lp = np.asarray(log_target(x.copy()), dtype=float).tolist()
    if not all(map(math.isfinite, lp)):
        raise ValueError("log_target(init) must be finite")
    chol, alive = cholesky_stack(settings.s_d * np.asarray(init_covs, dtype=float))
    errors = [
        None if ok else np.linalg.LinAlgError("initial proposal covariance is not positive definite")
        for ok in alive
    ]
    chol[~alive] = 0.0  # a stopped chain proposes its own state
    stopped = not alive.all()

    # Running first/second moments over the full history (init included).
    # The states of t1 steps are buffered in rows 1..t1 and folded into row
    # 0 at every t1-th step by a cumulative sum down the rows, which adds
    # them in the order one += per step would.
    hist = np.empty((t1 + 1, B, d))
    outer = np.empty((t1 + 1, B, d, d))
    hist[0] = x
    outer[0] = x[:, :, None] * x[:, None, :]
    eps_eye = settings.epsilon * np.eye(d)

    z = np.empty((B, d, 1))
    log_u = [0.0] * B
    # each chain's draws, from its own generator into its row of z; random()
    # is uniform() without the identity map 0 + 1*u, the same double from
    # the same draw
    draws = [(rng.standard_normal, rng.random, z[b, :, 0]) for b, rng in enumerate(rngs)]
    retained = np.empty((B, settings.n_retained, d))
    n_accept = [0] * B
    out = 0
    row = 0
    for step in range(1, settings.t + 1) if alive.any() else ():
        for b, (normal, uniform, z_b) in enumerate(draws):
            normal(out=z_b)
            log_u[b] = math.log(max(uniform(), 1e-300))
        prop = x + (chol @ z)[:, :, 0]
        for b, lp_prop in enumerate(log_target(prop)):
            if lp_prop - lp[b] > log_u[b]:
                x[b] = prop[b]
                lp[b] = lp_prop
                n_accept[b] += 1
        row += 1
        hist[row] = x
        if row == t1:
            row = 0
            np.multiply(hist[1:, :, :, None], hist[1:, :, None, :], out=outer[1:])
            hist[0] = np.add.accumulate(hist, axis=0)[-1]
            outer[0] = np.add.accumulate(outer, axis=0)[-1]
            if step > t0:
                count = step + 1
                s1, s2 = hist[0], outer[0]
                cov = (s2 - s1[:, :, None] * s1[:, None, :] / count) / (count - 1)
                chol, ok = cholesky_stack(settings.s_d * (cov + eps_eye))
                if stopped or not ok.all():
                    for b in np.flatnonzero(alive & ~ok):
                        errors[b] = RuntimeError(
                            "proposal covariance lost positive definiteness despite regularization"
                        )
                    alive &= ok
                    chol[~alive] = 0.0
                    stopped = True
                    if not alive.any():
                        break
        if step % t2 == 0:
            retained[:, out] = x
            out += 1

    return [
        errors[b]
        or PosteriorChain(draws=retained[b], acceptance_rate=n_accept[b] / settings.t, settings=settings)
        for b in range(B)
    ]


def remove_burn_in(chain: PosteriorChain, fraction: float = 0.2) -> PosteriorChain:
    """Drop the first floor(fraction*rows) retained draws."""
    if not (0 <= fraction < 1):
        raise ValueError(f"burn-in fraction must be in [0, 1), got {fraction}")
    drop = int(math.floor(fraction * chain.rows))
    return replace(chain, draws=chain.draws[drop:], burn_in_fraction=fraction)


def _window_variance(x: np.ndarray, method: str) -> float:
    """Variance of the window mean: sample variance / length, or a tapered
    spectral-density-at-zero estimate divided by length."""
    n = x.size
    if method == "sample":
        return float(np.var(x, ddof=1) / n)
    if method == "spectral":
        # 4% lag window with Bartlett taper
        lags = max(1, int(0.04 * n))
        xc = x - x.mean()
        s0 = float(np.dot(xc, xc) / n)
        for k in range(1, lags + 1):
            w = 1.0 - k / (lags + 1)
            s0 += 2.0 * w * float(np.dot(xc[k:], xc[:-k]) / n)
        return max(s0, 0.0) / n
    raise ValueError(f"unknown variance method {method!r}")


def geweke(
    chain: PosteriorChain,
    first_frac: float = 0.1,
    last_frac: float = 0.5,
    variance: str = "sample",
) -> np.ndarray:
    """Geweke z-scores comparing early and late window means, per coordinate."""
    rows = chain.rows
    n_a = int(first_frac * rows)
    n_b = int(last_frac * rows)
    if n_a < 10 or n_b < 10:
        raise ValueError(f"windows too short ({n_a} and {n_b} draws); need >= 10 each")
    z = np.empty(chain.d)
    for j in range(chain.d):
        a = chain.draws[:n_a, j]
        b = chain.draws[rows - n_b :, j]
        var = _window_variance(a, variance) + _window_variance(b, variance)
        if var <= 0:
            raise ValueError(f"coordinate {j}: zero variance, Geweke z undefined")
        z[j] = (a.mean() - b.mean()) / math.sqrt(var)
    return z


def running_average(chain: PosteriorChain) -> np.ndarray:
    """Cumulative means per coordinate, for running-average plots."""
    csum = np.cumsum(chain.draws, axis=0)
    return csum / np.arange(1, chain.rows + 1)[:, None]


def trace_export(chain: PosteriorChain) -> list[dict]:
    """Thinned states with their output index, as plot-ready records."""
    return [
        {"index": i, **{f"coord_{j}": float(v) for j, v in enumerate(row)}}
        for i, row in enumerate(chain.draws)
    ]


def save_chain(chain: PosteriorChain, csv_path, json_path=None, names=None) -> None:
    """CSV of retained draws plus a JSON sidecar with run metadata."""
    csv_path = Path(csv_path)
    d = chain.d
    names = list(names) if names is not None else [f"coord_{j}" for j in range(d)]
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in chain.draws:
            writer.writerow([repr(float(v)) for v in row])
    if json_path is None:
        json_path = csv_path.with_suffix(".json")
    meta = {
        "columns": names,
        "rows": chain.rows,
        "acceptance_rate": chain.acceptance_rate,
        "burn_in_fraction": chain.burn_in_fraction,
        "geweke_z": None if chain.geweke_z is None else [float(z) for z in chain.geweke_z],
        "settings": None
        if chain.settings is None
        else {
            "d": chain.settings.d,
            "t": chain.settings.t,
            "epsilon": chain.settings.epsilon,
            "t0": chain.settings.t0,
            "t1": chain.settings.t1,
            "t2": chain.settings.t2,
        },
    }
    Path(json_path).write_text(json.dumps(meta, indent=2))


def load_chain(csv_path, json_path=None) -> PosteriorChain:
    csv_path = Path(csv_path)
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)  # header
        draws = np.array([[float(v) for v in row] for row in reader])
    if json_path is None:
        json_path = csv_path.with_suffix(".json")
    meta = json.loads(Path(json_path).read_text())
    settings = None
    if meta.get("settings"):
        settings = AmSettings(**meta["settings"])
    return PosteriorChain(
        draws=draws,
        acceptance_rate=meta.get("acceptance_rate", float("nan")),
        settings=settings,
        burn_in_fraction=meta.get("burn_in_fraction", 0.0),
        geweke_z=None if meta.get("geweke_z") is None else np.asarray(meta["geweke_z"]),
    )
