"""Output checks of the benchmark, made apart from the program.

Each check reads a stage's artifacts from the pipeline's ``out_dir`` and
compares them with a computation of its own (dense NumPy solves instead of
the program's Cholesky path, closed-form posterior means, the frozen
direct-Monte-Carlo truth) or with a property the method must have.  A check
that fails raises :class:`CheckFailed`.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# True P_f of the synthetic fixture's simulator under its true marginals:
# 1e8-draw direct Monte Carlo, tests/oracles/compute_small_p_truth.py.
SMALL_P_TRUE = 1.0475e-4

BURN_IN = 0.2  # the pipeline's default, which no workload changes
# Posterior-mean tolerance in batch-means standard errors.  Over 200 seeds
# of 80-draw chains the z-scores reached 5.1: their tails are heavier than
# Normal, and a false alarm would fail a correct run.
MC_SIGMAS = 10.0
N_BATCHES = 20
NUGGET_LADDER = (0.0, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4)
# The program factorizes V by Cholesky, the oracles solve densely; on the
# fixture's smooth surrogates V has a condition number near 1e12, so the two
# agree to about 1e-8 relative, not to machine precision.
REL_TOL = 1e-6


class CheckFailed(Exception):
    """A stage's output disagrees with the benchmark's own computation."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _read_csv(path: Path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2))


def _coords(S: np.ndarray) -> np.ndarray:
    sd = S.std(axis=0)
    return (S - S.mean(axis=0)) / np.where(sd > 0, sd, 1.0)


def _corr(A: np.ndarray, B: np.ndarray, theta: np.ndarray) -> np.ndarray:
    diff = (A[:, None, :] - B[None, :, :]) / np.exp(theta)
    return np.exp(-np.sum(diff**2, axis=2))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def stage_did_work(stage: str, log: str, record_before, record_after) -> None:
    """The invocation did not report itself up to date, and it rewrote its
    provenance record."""
    _require("up to date" not in log, f"{stage}: no-op, stage was up to date")
    _require(
        record_after is not None and record_after != record_before,
        f"{stage}: provenance record was not rewritten",
    )


def _chain_health(csv_path: Path) -> np.ndarray:
    meta = json.loads(csv_path.with_suffix(".json").read_text())
    rate = meta["acceptance_rate"]
    _require(0.0 < rate < 1.0, f"{csv_path.name}: acceptance rate {rate}")
    draws = _read_csv(csv_path)
    spread = draws.std(axis=0)
    scale = np.maximum(np.abs(draws.mean(axis=0)), 1.0)
    _require(
        bool(np.all(spread > 1e-8 * scale)),
        f"{csv_path.name}: frozen coordinate, spread {spread.tolist()}",
    )
    return draws[int(math.floor(BURN_IN * draws.shape[0])) :]


def _batch_means_se(x: np.ndarray) -> float:
    m = x.size // N_BATCHES
    means = x[: m * N_BATCHES].reshape(N_BATCHES, m).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(N_BATCHES))


def input_chains(out_dir: Path, variables) -> None:
    """Every input chain moves; for each Normal input under the joint
    Jeffreys prior, E[mu] = xbar and E[sigma^2] = SS/(n-2) within Monte
    Carlo error."""
    for name, family, obs in variables:
        kept = _chain_health(out_dir / "inputs" / f"{name}.csv")
        if family != "normal":
            continue
        n = obs.size
        xbar = float(obs.mean())
        exact = {"mu": xbar, "sigma2": float(np.sum((obs - xbar) ** 2)) / (n - 2)}
        for j, (param, value) in enumerate(exact.items()):
            col = kept[:, j]
            se = _batch_means_se(col)
            err = abs(float(col.mean()) - value)
            _require(
                err <= MC_SIGMAS * se,
                f"{name}: posterior mean of {param} {col.mean():.6g} vs closed form "
                f"{value:.6g} ({err / se:.1f} s.e.)",
            )


def cv_scores(path: Path) -> None:
    """Every CV candidate's score is finite."""
    scores = json.loads(path.read_text())["scores"]
    _require(
        len(scores) > 0 and all(math.isfinite(s) for s in scores),
        f"{path.name}: scores {scores}",
    )


def tune_prior(out_dir: Path) -> None:
    cv_scores(out_dir / "cv_prior.json")
    _chain_health(out_dir / "theta_chain.csv")


def gp_fit(out_dir: Path, S: np.ndarray, Z: np.ndarray) -> None:
    """gp_fit.json's objective and alpha_reml equal the regularized REML
    formula evaluated densely at the recorded theta, nugget and lambda."""
    fit = json.loads((out_dir / "gp_fit.json").read_text())
    theta = np.asarray(fit["theta"], dtype=float)
    n = Z.size
    V = _corr(_coords(S), _coords(S), theta) + fit["nugget"] * np.eye(n)
    ones = np.ones(n)
    xtvx = float(ones @ np.linalg.solve(V, ones))
    beta = float(ones @ np.linalg.solve(V, Z)) / xtvx
    resid = Z - beta
    g_sq = float(resid @ np.linalg.solve(V, resid))
    _, logdet_v = np.linalg.slogdet(V)
    m = n - 1
    nll = (
        0.5 * m * math.log(2 * math.pi)
        + 0.5 * m * math.log(g_sq / m)
        - 0.5 * math.log(n)
        + 0.5 * math.log(xtvx)
        + 0.5 * logdet_v
        + 0.5 * m
    )
    objective = nll + fit["lam"] * float(np.sum((theta - theta.mean()) ** 2))
    _require(
        _close(fit["objective"], objective),
        f"gp_fit.json: objective {fit['objective']!r} vs dense {objective!r}",
    )
    _require(
        _close(fit["alpha_reml"], g_sq / m),
        f"gp_fit.json: alpha_reml {fit['alpha_reml']!r} vs dense {g_sq / m!r}",
    )


def _lagrange_prediction(C: np.ndarray, Z: np.ndarray, c0: np.ndarray, theta: np.ndarray) -> float:
    """Ordinary-kriging BLUP from the dense bordered system
    [[R, 1], [1^T, 0]] [gamma; mu] = [r0; 1], with the smallest nugget of
    the ladder at which R is positive definite."""
    n = Z.size
    R = _corr(C, C, theta)
    for nugget in NUGGET_LADDER:
        try:
            np.linalg.cholesky(R + nugget * np.eye(n))
            break
        except np.linalg.LinAlgError:
            continue
    A = np.zeros((n + 1, n + 1))
    A[:n, :n] = R + nugget * np.eye(n)
    A[:n, n] = A[n, :n] = 1.0
    rhs = np.append(_corr(C, c0[None, :], theta)[:, 0], 1.0)
    gamma = np.linalg.solve(A, rhs)[:n]
    return float(gamma @ Z)


def loo_report(out_dir: Path, S: np.ndarray, Z: np.ndarray) -> None:
    """report/observed_vs_expected.csv holds the leave-one-out kriging
    predictions at the REML theta."""
    theta = np.asarray(json.loads((out_dir / "gp_fit.json").read_text())["theta"])
    table = _read_csv(out_dir / "report" / "observed_vs_expected.csv")
    _require(table.shape[0] == Z.size, f"observed_vs_expected.csv: {table.shape[0]} rows")
    C = _coords(S)
    scale = max(1.0, float(np.max(np.abs(Z))))
    for i in range(Z.size):
        keep = np.arange(Z.size) != i
        ref = _lagrange_prediction(C[keep], Z[keep], C[i], theta)
        _require(
            abs(table[i, 1] - ref) <= REL_TOL * scale and table[i, 0] == Z[i],
            f"observed_vs_expected.csv row {i}: expected {table[i, 1]!r} vs dense {ref!r}",
        )


def pf_draws(out_dir: Path, setting: str, N: int) -> None:
    """N draws of P_f, all in [0, 1], whose central 99% holds the true P_f."""
    path = out_dir / f"pf_setting_{setting}.csv"
    p = _read_csv(path)[:, 0]
    _require(p.size == N, f"{path.name}: {p.size} draws, expected {N}")
    _require(bool(np.all((p >= 0.0) & (p <= 1.0))), f"{path.name}: draws outside [0, 1]")
    lo, hi = np.quantile(p, [0.005, 0.995])
    _require(
        lo <= SMALL_P_TRUE <= hi,
        f"{path.name}: true P_f {SMALL_P_TRUE} outside central 99% [{lo:.3g}, {hi:.3g}]",
    )
