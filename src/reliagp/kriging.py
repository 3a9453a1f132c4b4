"""Ordinary/universal kriging prediction and mean-squared prediction error.

The predictor is the best linear unbiased predictor under the fitted GP:
solving the constrained minimization of E[(z0 - gamma^T Z)^2] subject to
gamma^T X = x0^T gives

    z_hat0 = x0^T beta_hat + phi^T Sigma^-1 (Z - X beta_hat)
    MSPE   = sigma0^2 - phi^T Sigma^-1 phi
             + (x0 - X^T Sigma^-1 phi)^T (X^T Sigma^-1 X)^-1 (x0 - X^T Sigma^-1 phi)

with phi the cross-covariance vector to the training outputs and
sigma0^2 = alpha * (1 + nugget).  The fitted scale alpha cancels from the
predictor and factors out of the MSPE, so all solves run on the correlation
matrix and reuse a single Cholesky factorization per theta.

Predictors are built one way: KrigingStack factorizes a stack of theta rows
over one design through one GpStack, and KrigingModel is its one-row case.
held_out_predictions kriges a design row from the design without it at many
theta rows; leave-one-out diagnostics and both cross-validation drivers use it.

One kriging body, ``krige``, returns (z_hat, S0, mspe_raw) and does only that
work.  It carries the m new points as K contiguous rows, so every
elementwise pass runs along the points, and each member's scaled design
coordinates and their squared norms are computed once, when the stack is
built; gp.correlation maps their squared distances to cross covariances.
The kriged mean takes the same operations in the same order as the
row-layout formula, so it keeps its bits.  The MSPE's triangular solves
run from the right on the Fortran-ordered (m, n) view of the cross
covariances, one BLAS trsm call in place, with no copy.  That is the same
forward substitution as a solve from the left, with the same backward-error
bound (Higham, *Accuracy and Stability of Numerical Algorithms*, 8.1), in
another order; S0 and the raw MSPE therefore differ from a left-side LAPACK
solve at rounding level.  A non-finite point raises ValueError before any
solve.  Only ``predict_batch`` and ``predict`` add the minimum distance to
the design, for extrapolation diagnostics; the failure-probability
simulation and the held-out predictions call ``krige`` and never build it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dtrtrs

from reliagp.gp import GpDesign, GpFit, GpStack, GpWork, correlation, sq_distances

__all__ = [
    "KrigingPrediction", "KrigingStack", "KrigingModel",
    "held_out_predictions", "loo_predictions", "loo_diagnostics",
]

# a raw MSPE below this, in correlation units (MSPE / alpha), warns
MSPE_WARN_FLOOR = -1e-8


def _solve_lower(L, b):
    """L^-1 b for a C-ordered lower factor L (n, n) and a C-ordered b (n, m),
    computed in b's memory: BLAS trsm solves x^T L^T = b^T from the right on
    the Fortran-ordered (m, n) views of b and L^T, so nothing is copied."""
    return dtrsm(1.0, L.T, b.T, side=1, lower=0, overwrite_b=1).T


@dataclass(frozen=True)
class KrigingPrediction:
    """Predictive mean and root-MSPE at one new input point."""

    z_hat: float
    S0: float
    min_design_distance: float
    mspe_raw: float  # before clamping at zero


class KrigingStack:
    """Predictors at the B rows of ``thetas`` over one design.

    One GpStack factorizes every row, and member b predicts from its GpWork
    view with the operations of a lone predictor, so its numbers do not
    depend on B or on the other rows.  ``error[b]`` is the exception a lone
    KrigingModel at row b raises, else None; a failed member predicts NaN.
    The MSPE's scale is ``alpha`` when given, else member b's REML estimate
    G^2 / (n - q).
    """

    def __init__(self, design: GpDesign, thetas, alpha=None, nugget: float = 0.0):
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        n, q = design.n, design.q
        if alpha is None and n <= q:
            raise ValueError("cannot estimate the scale with n <= q; pass alpha")
        stack = GpStack(design.coords[None], design.X[None], design.Z[None], thetas, nugget)
        self.design = design
        self.constant_mean = np.allclose(design.X, 1.0)
        self.error = stack.error
        # b -> (GLS quantities, alpha, Sigma^-1 (Z - X beta_hat) in correlation
        # units, the range scales as a (K, 1) column, and the design
        # coordinates in those scales with their squared row norms)
        coords = design.coords
        self.members = {}
        for b in [b for b, error in enumerate(stack.error) if error is None]:
            w = GpWork.member(design, thetas[b], stack, b)
            a = float(alpha) if alpha is not None else w.G_sq / (n - q)
            resid_w = w.Zw - w.Xw @ w.beta_hat
            # L^T x = resid_w; the kriged mean's bits, and the CV scores, rest on this LAPACK call
            c_inv_resid = dtrtrs(w.L.T, resid_w, lower=0)[0]
            range_scale = w.range_scale
            scaled = coords / range_scale
            sq_scaled = np.add.reduce(scaled * scaled, axis=1)
            self.members[b] = w, a, c_inv_resid, range_scale[:, None], scaled, sq_scaled

    def krige(self, pts, x0=None):
        """Predict at many points at once with every member.

        Returns (z_hat, S0, mspe_raw) as (B, m) arrays over the members and
        the rows of the (m, K) ``pts``, which may be a transposed view of K
        point rows; a failed member's rows are NaN.  ``x0`` is the
        mean-model covariate vector of the new points (all-ones for the
        default constant mean).  A non-finite point or covariate raises
        ValueError.
        """
        cols = self.design.transform(pts)  # (K, m)
        m, q = cols.shape[1], self.design.q
        if x0 is None:
            if not self.constant_mean:
                raise ValueError("x0 required for a non-constant mean design")
            x0 = np.ones((m, q))
        else:
            x0 = np.atleast_2d(np.asarray(x0, dtype=float))
            if x0.shape != (m, q):
                raise ValueError(f"x0 has shape {x0.shape}, expected ({m}, {q})")
        if not (np.isfinite(cols).all() and np.isfinite(x0).all()):
            raise ValueError("array must not contain infs or NaNs")

        z_hat, mspe = np.full((2, len(self.error), m), np.nan)
        for b, (w, alpha, c_inv_resid, range_scale, scaled, sq_scaled) in self.members.items():
            v0 = correlation(sq_distances(scaled, cols / range_scale, sq_scaled))  # (n, m)
            z_hat[b] = x0 @ w.beta_hat + v0.T @ c_inv_resid
            v0w = _solve_lower(w.L, v0)  # (n, m), in v0's memory
            u0 = w.Xw.T @ v0w  # (q, m)
            t = _solve_lower(w.L_xtvx, np.subtract(x0.T, u0, out=u0))
            quad_v = np.add.reduce(np.multiply(v0w, v0w, out=v0w), axis=0)
            quad_u = np.add.reduce(np.multiply(t, t, out=t), axis=0)
            mspe[b] = alpha * ((1.0 + w.nugget) - quad_v + quad_u)
        return z_hat, np.sqrt(np.maximum(mspe, 0.0)), mspe

    def predict_batch(self, pts, x0=None):
        """``krige`` plus the minimum distance from each point to the design
        in the distance coordinates, an (m,) array, for extrapolation
        diagnostics: (z_hat, S0, mspe_raw, min_dist)."""
        z_hat, s0, mspe = self.krige(pts, x0)
        min_dist = np.sqrt(sq_distances(self.design.coords, self.design.transform(pts)).min(axis=0))
        return z_hat, s0, mspe, min_dist


class KrigingModel:
    """Predictor at a fixed theta: the one-row KrigingStack."""

    def __init__(self, design: GpDesign, theta, alpha=None, nugget: float = 0.0):
        self.stack = KrigingStack(design, np.reshape(theta, (1, -1)), alpha, nugget)
        if self.stack.error[0] is not None:
            raise self.stack.error[0]
        self.design = design
        self.work, self.alpha, *_ = self.stack.members[0]
        self.theta, self.nugget = self.work.theta, self.work.nugget

    @classmethod
    def from_fit(cls, fit: GpFit, design: GpDesign) -> "KrigingModel":
        return cls(design, fit.theta, alpha=fit.alpha_reml, nugget=fit.nugget)

    def krige(self, pts, x0=None):
        """KrigingStack.krige of the one row: (z_hat, S0, mspe_raw) as arrays
        over the rows of ``pts``."""
        z_hat, s0, mspe = self.stack.krige(pts, x0)
        return z_hat[0], s0[0], mspe[0]

    def predict_batch(self, pts, x0=None):
        """KrigingStack.predict_batch of the one row: (z_hat, S0, mspe_raw,
        min_dist) as arrays over the rows of ``pts``."""
        z_hat, s0, mspe, min_dist = self.stack.predict_batch(pts, x0)
        return z_hat[0], s0[0], mspe[0], min_dist

    def predict(self, s0, x0=None) -> KrigingPrediction:
        s0 = np.asarray(s0, dtype=float).ravel()
        if s0.size != self.design.K:
            raise ValueError(f"s0 has {s0.size} coordinates, design has {self.design.K}")
        z, s, mspe, dist = self.predict_batch(s0[None, :], x0)
        if mspe[0] < MSPE_WARN_FLOOR * self.alpha:  # mspe / alpha < floor, alpha >= 0
            warnings.warn(
                f"MSPE clamped from {mspe[0]:.3e}; numerical health suspect", RuntimeWarning
            )
        return KrigingPrediction(
            z_hat=float(z[0]),
            S0=float(s[0]),
            min_design_distance=float(dist[0]),
            mspe_raw=float(mspe[0]),
        )


def held_out_predictions(design: GpDesign, i: int, thetas, nugget: float = 0.0):
    """Krige row ``i`` of ``design`` from ``design.drop_row(i)`` at each row
    of the (T, K) matrix ``thetas``, as T lone KrigingModels would; returns
    (z_hat, s0), each of shape (T,).  A row whose predictor cannot be built
    fails the fold: its exception is raised."""
    stack = KrigingStack(design.drop_row(i), thetas, nugget=nugget)
    for error in stack.error:
        if error is not None:
            raise error
    z_hat, s0, _ = stack.krige(design.S[i][None, :], design.X[i][None, :])
    return z_hat[:, 0], s0[:, 0]


def loo_predictions(design: GpDesign, theta_source, nugget: float = 0.0):
    """Leave-one-out predictions at fixed theta or over posterior theta draws.

    ``theta_source`` is either a K-vector (fixed-theta path: one prediction
    per held-out row) or a (T, K) matrix of posterior draws (one prediction
    per draw per row).  Returns (z_hat, s0) arrays of shape (n,) or (n, T).
    """
    if design.n < 3:
        raise ValueError("need n >= 3 for leave-one-out")
    theta_source = np.asarray(theta_source, dtype=float)
    draws = np.atleast_2d(theta_source)
    folds = [held_out_predictions(design, i, draws, nugget) for i in range(design.n)]
    z_hat, s0 = np.stack(folds, axis=1)  # (2, n, T)
    if theta_source.ndim == 1:
        return z_hat[:, 0], s0[:, 0]
    return z_hat, s0


def loo_diagnostics(observed: np.ndarray, predicted: np.ndarray) -> dict:
    """Observed-vs-expected summary: correlation and signal-to-noise ratio
    (variance of predictions over variance of prediction residuals)."""
    observed = np.asarray(observed, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    resid = observed - predicted
    corr = float(np.corrcoef(observed, predicted)[0, 1]) if observed.size > 1 else float("nan")
    var_resid = float(np.var(resid))
    snr = float(np.var(predicted) / var_resid) if var_resid > 0 else float("inf")
    return {"correlation": corr, "signal_to_noise": snr, "sse": float(np.sum(resid**2))}
