"""Gaussian-process surrogate core.

Covariance model: Sigma = alpha * V(theta) with the anisotropic squared
exponential

    v_ij = exp( - sum_k (x_ik - x_jk)^2 / exp(theta_k)^2 )

where theta_k are per-dimension log range parameters.  The kernel lives in
``correlation`` alone, which the covariances and the cross covariances call.
The mean is a linear model X beta (constant by default).  Three negative log
likelihoods over theta are provided: REML, ridge-regularized REML, and the
Bayesian integrated likelihood with a Normal prior on the theta_k.

All linear algebra goes through Cholesky factors; the likelihoods never
form an explicit inverse (only the REML gradient needs the projection P,
which it builds from the inverse Cholesky factor).  One core, GpStack,
computes the GLS quantities for a stack of (design, theta) pairs, a design
given once serving every theta row; the likelihoods use its one-member case,
and kriging and sampling many chains at once use the whole stack.

Every squared distance is a sum of squared coordinate differences, so close
points keep the digits that the expanded form |a|^2 + |b|^2 - 2 a.b cancels.
V is built from each design's differences D_k (GpDesign.sq_diffs, formed in
_sq_diffs alone) as exp(-sum_k D_k exp(-2 theta_k)), and the cross
covariances to new points from SciPy's cdist, in cross_covariance alone.
GpStack takes each design's mean design X, outputs Z and differences D
alone, and factorizes every member's V, built once and bordered by X and Z,
[[V, X, Z], [X^T, c I, 0], [Z^T, 0, c]], in one batched Cholesky call: the
factor's leading block is L, and its last q + 1 rows are the whitened
design and outputs L^-1 X and L^-1 Z, with no triangular solve.  The border
constant c (BORDER) lies far above every |L^-1 [X Z]|^2 of data whose G^2
is finite, so the factor's trailing block, that of
c I - [L^-1 X, L^-1 Z]^T [L^-1 X, L^-1 Z], stays positive and the bordered
matrix factorizes whenever V does; c enters no number that is read.  A
member that fails climbs the nugget ladder inside that bordered matrix.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import optimize
from scipy.linalg.lapack import dtrtrs
from scipy.spatial.distance import cdist

from reliagp.mcmc import cholesky_stack, fd_hessian

__all__ = [
    "GpDesign",
    "GpFit",
    "GpStack",
    "correlation",
    "covariance_matrix",
    "cholesky_with_nugget",
    "nll_reml",
    "nll_reml_regularized",
    "nll_reml_regularized_grad",
    "nll_bayes",
    "bayes_log_posterior",
    "bayes_log_posterior_stack",
    "fit_reml",
    "hessian_nu_estimate",
    "in_theta_box",
]

NUGGET_START = 1e-8
NUGGET_MAX = 1e-4
# the diagonal of GpStack's border: it enters only the trailing diagonal of
# the factor, which is never read, so as large a c as stays finite bounds
# |L^-1 [X Z]|^2 the least
BORDER = 1e300
THETA_BOUNDS = (-10.0, 10.0)


def in_theta_box(theta):
    """Whether each entry of ``theta`` lies in THETA_BOUNDS (NaN does not)."""
    return (theta >= THETA_BOUNDS[0]) & (theta <= THETA_BOUNDS[1])


class FactorizationError(RuntimeError):
    """Covariance matrix not factorizable even after nugget escalation."""


@dataclass(frozen=True)
class GpDesign:
    """Input design, mean-model design matrix, and outputs.

    ``standardize`` rescales each input column to zero mean / unit variance
    before distance computation; the transform is stored so predictions at
    new points use the same coordinates.
    """

    S: np.ndarray  # (n, K) input locations
    Z: np.ndarray  # (n,) outputs
    X: np.ndarray | None = None  # (n, q) mean design, defaults to ones
    standardize: bool = False

    def __post_init__(self):
        S = np.atleast_2d(np.asarray(self.S, dtype=float))
        Z = np.asarray(self.Z, dtype=float).ravel()
        n = S.shape[0]
        if Z.size != n:
            raise ValueError(f"design has {n} rows but {Z.size} outputs")
        X = self.X
        if X is None:
            X = np.ones((n, 1))
        else:
            X = np.asarray(X, dtype=float)
            if X.ndim == 1:
                X = X[:, None]
        if X.shape[0] != n:
            raise ValueError("mean design matrix row count mismatch")
        # n == q is allowed for pure prediction; the likelihoods need n > q
        if n < X.shape[1]:
            raise ValueError(f"need n >= q (got n={n}, q={X.shape[1]})")
        for name, a in (("S", S), ("Z", Z), ("X", X)):
            if not np.all(np.isfinite(a)):
                raise ValueError(f"design array {name} has non-finite entries")
        if np.linalg.matrix_rank(X) < X.shape[1]:
            raise ValueError("mean design matrix is rank deficient")
        if len(np.unique(S, axis=0)) < n:
            raise ValueError("input design rows must be distinct")
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "X", X)
        if self.standardize:
            mu = S.mean(axis=0)
            sd = S.std(axis=0)
            sd = np.where(sd > 0, sd, 1.0)
        else:
            mu = np.zeros(S.shape[1])
            sd = np.ones(S.shape[1])
        object.__setattr__(self, "_mu", mu)
        object.__setattr__(self, "_sd", sd)

    @property
    def n(self) -> int:
        return self.S.shape[0]

    @property
    def K(self) -> int:
        return self.S.shape[1]

    @property
    def q(self) -> int:
        return self.X.shape[1]

    @cached_property
    def coords(self) -> np.ndarray:
        """Input locations in the (possibly standardized) distance coordinates."""
        return self.transform(self.S)

    @cached_property
    def logdet_xtx(self) -> float:
        """log|X^T X|, a constant of the REML likelihood."""
        return np.linalg.slogdet(self.X.T @ self.X)[1]

    @cached_property
    def sq_diffs(self) -> np.ndarray:
        """(K, n*n) squared coordinate differences: D_k[i, j] at column i*n + j
        of row k (see _sq_diffs), from which V and its derivatives in theta
        are built."""
        return _sq_diffs(self.coords)

    def transform(self, pts: np.ndarray) -> np.ndarray:
        """Map new input points, the rows of an (m, K) array, into the
        training distance coordinates, as (m, K) rows like ``coords``."""
        return (np.atleast_2d(np.asarray(pts, dtype=float)) - self._mu) / self._sd

    def drop_row(self, i: int) -> "GpDesign":
        keep = np.arange(self.n) != i
        d = GpDesign(S=self.S[keep], Z=self.Z[keep], X=self.X[keep], standardize=False)
        # inherit the parent's coordinate transform so folds share distances;
        # set before anything reads (and caches) the fold's coords
        object.__setattr__(d, "_mu", self._mu)
        object.__setattr__(d, "_sd", self._sd)
        return d


def _sq_diffs(c: np.ndarray) -> np.ndarray:
    """(K, n*n) squared differences D_k[i, j] = (c_ik - c_jk)^2 of the rows
    of the coordinates c (n, K), at column i*n + j of row k: the one site
    where the pairwise differences of one array's rows are formed.  Each is
    the square of one difference, so close rows keep their digits, and D_k
    is exactly symmetric with a zero diagonal."""
    ct = c.T
    d = ct[:, :, None] - ct[:, None, :]
    return np.square(d, out=d).reshape(len(ct), -1)


def correlation(d2: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The squared-exponential correlations exp(-d2) of squared scaled
    distances ``d2``, computed in d2's memory, or written to ``out``."""
    return np.exp(np.negative(d2, out=d2), out=d2 if out is None else out)


def covariance_matrix(S: np.ndarray, theta: np.ndarray, nugget: float = 0.0) -> np.ndarray:
    """Anisotropic squared-exponential correlation matrix plus nugget*I."""
    if nugget < 0:
        raise ValueError("nugget must be >= 0")
    S = np.atleast_2d(np.asarray(S, dtype=float))
    theta = np.asarray(theta, dtype=float).ravel()
    if theta.size != S.shape[1]:
        raise ValueError(f"theta has {theta.size} entries for {S.shape[1]} input dimensions")
    return _covariance_stack(_sq_diffs(S)[None], theta[None], nugget)[0]


def _covariance_stack(D: np.ndarray, theta: np.ndarray, nugget: float, out: np.ndarray | None = None) -> np.ndarray:
    """covariance_matrix for B (design, theta) pairs from the designs'
    squared coordinate differences D (B, K, n*n), or (1, K, n*n) shared by
    every row of theta (B, K).  V is written to ``out`` (B, n, n) when
    given, which may be a block of a larger array.

    d2 for member b is one vector-matrix product exp(-2 theta_b) @ D_b,
    batched over the stack, so each member's row rounds as it does alone (a
    single (B, K) @ (K, n*n) GEMM would round a row differently as B
    changes).  D is exactly symmetric, so V is too."""
    B, n = len(theta), math.isqrt(D.shape[2])
    d2 = np.matmul(np.exp(-2.0 * theta)[:, None, :], D).reshape(B, n, n)
    V = correlation(d2, out)
    diag = np.arange(n)
    V[:, diag, diag] = 1.0 + nugget
    return V


def cross_covariance(S: np.ndarray, S_new: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Correlations between the training rows of S (n, K) and the rows of
    S_new (m, K), in the same distance coordinates; shape (n, m).  Each
    squared distance is a sum of squared coordinate differences (cdist), so
    close points keep their digits, as in V."""
    scale = np.exp(np.asarray(theta, dtype=float).ravel())
    return correlation(cdist(np.atleast_2d(S) / scale, np.atleast_2d(S_new) / scale, "sqeuclidean"))


def cholesky_with_nugget(M: np.ndarray, n: int, nugget: float) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of M, a GpStack member's bordered matrix whose
    leading n x n block is V, and the nugget it settled on, once M has failed
    with V's diagonal at 1 + nugget.  If V alone factorizes there, M fails on
    the data's scale, |L^-1 [X Z]|^2 past BORDER, which no nugget mends:
    ValueError.  Else the nugget climbs by factors of 10 (from NUGGET_START
    at 0) up to NUGGET_MAX, past which FactorizationError is raised, and each
    rung sets V's diagonal to 1 + nugget in place and factorizes M again."""
    diag = np.arange(n)
    while True:
        try:
            np.linalg.cholesky(M[:n, :n])
        except np.linalg.LinAlgError:
            pass
        else:
            raise ValueError(
                f"V factorizes at nugget={nugget} but its border by X and Z does not: "
                "the data's scale overflows the factor"
            )
        if nugget == 0.0:
            nugget = NUGGET_START
        elif nugget < NUGGET_MAX:
            nugget = min(nugget * 10.0, NUGGET_MAX)
        else:
            raise FactorizationError(f"Cholesky failed even with nugget={nugget}")
        M[diag, diag] = 1.0 + nugget
        try:
            return np.linalg.cholesky(M), nugget
        except np.linalg.LinAlgError:
            pass


class GpStack:
    """GLS quantities for B (design, theta) pairs of one size at once, from
    one bordered Cholesky factorization per member: L, log|V|, the whitened
    design Xw = L^-1 X and outputs Zw = L^-1 Z, beta_hat, the whitened
    residual resid_w = Zw - Xw beta_hat, G^2 and log|X^T V^-1 X|.

    ``X`` (B, n, q) holds each design's mean design, ``Z`` (B, n) its
    outputs, ``D`` (B, K, n*n) its sq_diffs, from which V alone is built,
    and ``theta`` (B, K) the range parameters; a design given once, with a
    leading axis of 1, is shared by every theta row.

    Each member's V is bordered as [[V, X, Z], [X^T, c I, 0], [Z^T, 0, c]]
    with c = BORDER, and one NumPy Cholesky call (mcmc.cholesky_stack)
    factorizes the whole stack.  The factor's leading n x n block is L, and
    its last q + 1 rows, left of the diagonal, are Xw^T and Zw.  Its trailing
    block, the factor of c I - [Xw Zw]^T [Xw Zw], is not read: c only keeps
    it positive, which holds while |Xw|^2 and |Zw|^2 stay below c = 1e300,
    near where G^2 itself would overflow.
    ``V`` holds each member's factorized V, the bordered matrix's leading
    block.

    Every operation is a batched matmul or a batched LAPACK call, each of
    which works on one member alone, so a member's numbers do not depend on
    B or on the other members.  Only a member that fails at ``nugget`` goes
    up cholesky_with_nugget's ladder, inside its own bordered matrix, from
    the rung above ``nugget``, and keeps the factor the ladder returns.
    ``error[b]`` is the FactorizationError or ValueError a lone evaluation
    of member b raises, else None; its other entries are then meaningless.
    """

    def __init__(self, X, Z, D, theta, nugget: float):
        B, (n, q) = len(theta), X.shape[1:]
        N = n + q + 1
        self.nugget = np.full(B, float(nugget))
        self.error: list[Exception | None] = [None] * B
        M = np.empty((B, N, N))
        self.V = _covariance_stack(D, theta, nugget, out=M[:, :n, :n])
        M[:, :n, n:-1] = X
        M[:, :n, -1] = Z
        M[:, n:, :n] = M[:, :n, n:].transpose(0, 2, 1)
        M[:, n:, n:] = 0.0
        M.reshape(B, N * N)[:, n * (N + 1) :: N + 1] = BORDER  # the border's diagonal
        F, ok = cholesky_stack(M)
        for b in np.flatnonzero(~ok):
            # the member climbs the ladder in its bordered matrix, whose V
            # block (self.V[b]) ends at the nugget it settles on
            try:
                F[b], self.nugget[b] = cholesky_with_nugget(M[b], n, nugget)
            except (FactorizationError, ValueError) as e:
                # the identity's factor, with X for Xw and no Zw, keeps the
                # failed member finite: Z itself may square past overflow
                F[b] = np.eye(N)
                F[b, n:-1, :n] = M[b, n:-1, :n]
                self.error[b] = type(e)(f"{e} at theta={theta[b]}")
        self.L = F[:, :n, :n]
        self.logdet_V = 2.0 * np.sum(np.log(np.diagonal(self.L, axis1=1, axis2=2)), axis=1)
        XwT = F[:, n:-1, :n]
        self.Xw = Xw = XwT.transpose(0, 2, 1)
        self.Zw = F[:, -1, :n]
        xtvx = XwT @ Xw
        self.L_xtvx, ok = cholesky_stack(xtvx)
        for b in np.flatnonzero(~ok):
            self.L_xtvx[b] = xtvx[b] = np.eye(q)
            self.error[b] = self.error[b] or FactorizationError("X^T V^-1 X is singular")
        self.logdet_xtvx = 2.0 * np.sum(np.log(np.diagonal(self.L_xtvx, axis1=1, axis2=2)), axis=1)
        # NaN or inf in the data or a factor reaches log|V|, log|X^T V^-1 X|
        # or G^2, and the member fails with ValueError
        finite = np.isfinite(self.logdet_V) & np.isfinite(self.logdet_xtvx)
        if not finite.all():
            xtvx[~finite] = np.eye(q)  # a non-finite member must not fail the batched solve
        self.beta_hat = np.linalg.solve(xtvx, XwT @ self.Zw[:, :, None])[:, :, 0]
        self.resid_w = r = self.Zw - (Xw @ self.beta_hat[:, :, None])[:, :, 0]
        self.G_sq = (r[:, None, :] @ r[:, :, None])[:, 0, 0]
        finite &= np.isfinite(self.G_sq)
        for b in np.flatnonzero(~finite):
            self.error[b] = self.error[b] or ValueError("array must not contain infs or NaNs")


class GpWork:
    """Shared GLS quantities at a fixed theta: the one-member GpStack, or
    with ``GpWork.member`` one member of a larger stack."""

    def __init__(self, design: GpDesign, theta, nugget: float = NUGGET_START):
        theta = np.asarray(theta, dtype=float).ravel()
        stack = GpStack(design.X[None], design.Z[None], design.sq_diffs[None], theta[None], nugget)
        self._take(design, theta, stack, 0)

    @classmethod
    def member(cls, design: GpDesign, theta, stack: GpStack, b: int) -> "GpWork":
        """Member b of ``stack``, factorized at ``theta`` over ``design``."""
        work = cls.__new__(cls)
        work._take(design, theta, stack, b)
        return work

    def _take(self, design, theta, stack, b):
        if stack.error[b] is not None:
            raise stack.error[b]
        self.design = design
        self.theta = theta
        self.nugget = float(stack.nugget[b])
        self.V = stack.V[b]
        self.L = stack.L[b]
        self.logdet_V = float(stack.logdet_V[b])
        self.Xw = stack.Xw[b]
        self.Zw = stack.Zw[b]
        self.L_xtvx = stack.L_xtvx[b]
        self.logdet_xtvx = float(stack.logdet_xtvx[b])
        self.beta_hat = stack.beta_hat[b]
        self.resid_w = stack.resid_w[b]
        self.G_sq = float(stack.G_sq[b])


def _nll_reml_from_work(w: GpWork) -> float:
    design = w.design
    n, q = design.n, design.q
    if w.G_sq <= 0:
        raise ValueError("degenerate data: zero GLS residual, REML NLL is -inf")
    return (
        0.5 * (n - q) * math.log(2 * math.pi)
        + 0.5 * (n - q) * math.log(w.G_sq / (n - q))
        - 0.5 * design.logdet_xtx
        + 0.5 * w.logdet_xtvx
        + 0.5 * w.logdet_V
        + 0.5 * (n - q)
    )


def nll_reml(design: GpDesign, theta, nugget: float = NUGGET_START) -> float:
    """Restricted (contrast) negative log likelihood in its simplified form."""
    return _nll_reml_from_work(GpWork(design, theta, nugget))


def _ridge_penalty(theta: np.ndarray, lam: float) -> float:
    """lam * sum_k (theta_k - mean(theta))^2, for lam >= 0."""
    if lam < 0:
        raise ValueError("penalty lam must be >= 0")
    return lam * float(np.sum((theta - theta.mean()) ** 2))


def nll_reml_regularized(design: GpDesign, theta, lam: float) -> float:
    """REML NLL plus the ridge penalty lam * sum_k (theta_k - mean(theta))^2."""
    theta = np.asarray(theta, dtype=float).ravel()
    penalty = _ridge_penalty(theta, lam)
    return nll_reml(design, theta) + penalty


def nll_reml_regularized_grad(design: GpDesign, theta, lam: float) -> tuple[float, np.ndarray]:
    """nll_reml_regularized and its exact gradient in theta from one
    factorization; the value equals nll_reml_regularized's bit for bit.

    With P = V^-1 - V^-1 X (X^T V^-1 X)^-1 X^T V^-1, Pz = P Z and
    dV_k = 2 exp(-2 theta_k) V o D_k (Rasmussen & Williams 2006, 5.4.1),

        d/dtheta_k = 1/2 tr(P dV_k) - 1/2 (n - q) Pz^T dV_k Pz / G^2
                     + 2 lam (theta_k - mean(theta)).

    The gradient is that of the objective at the nugget the factorization
    settled on; the nugget itself is constant in theta.
    """
    theta = np.asarray(theta, dtype=float).ravel()
    penalty = _ridge_penalty(theta, lam)
    w = GpWork(design, theta)
    value = _nll_reml_from_work(w) + penalty

    n, q = design.n, design.q
    L_inv = dtrtrs(w.L, np.eye(n), lower=1)[0]
    # V^-1 X (X^T V^-1 X)^-1 X^T V^-1 = A A^T with A = L^-T Xw L_xtvx^-T
    A = L_inv.T @ dtrtrs(w.L_xtvx, w.Xw.T, lower=1)[0].T
    P = L_inv.T @ L_inv - A @ A.T
    Pz = L_inv.T @ w.resid_w
    # dV_k's factor -dk/dd2 is k itself for the squared exponential, so the
    # factorized V serves; its diagonal does not matter: D_k vanishes there
    terms = np.stack([P * w.V, np.outer(Pz, Pz) * w.V]).reshape(2, n * n) @ design.sq_diffs.T
    grad = np.exp(-2.0 * theta) * (terms[0] - (n - q) * terms[1] / w.G_sq)
    return value, grad + 2.0 * lam * (theta - theta.mean())


def _nll_bayes_of(
    dof: int, K: int, G_sq: float, logdet_V: float, logdet_xtvx: float, sq_dev: float, nu_sq: float
) -> float:
    """nll_bayes from the GLS quantities at a theta of K coordinates, dof =
    n - q, and sq_dev = sum_k (theta_k - tau)^2, for nu_sq > 0; ValueError
    on a zero GLS residual."""
    if G_sq <= 0:
        raise ValueError("degenerate data: zero GLS residual")
    log_prior = -0.5 * K * math.log(2 * math.pi * nu_sq) - 0.5 * sq_dev / nu_sq
    return -log_prior + 0.5 * logdet_V + 0.5 * dof * math.log(G_sq) + 0.5 * logdet_xtvx


def nll_bayes(
    design: GpDesign, theta, tau: float, nu_sq: float, nugget: float = NUGGET_START
) -> float:
    """Negative log of the theta posterior with beta and alpha integrated out
    under the prior pi(theta)/alpha, pi(theta) = prod_k N(theta_k | tau, nu^2)."""
    if nu_sq <= 0:
        raise ValueError("prior variance nu_sq must be positive")
    w = GpWork(design, theta, nugget)
    sq_dev = float(np.sum((w.theta - tau) ** 2))
    return float(_nll_bayes_of(design.n - design.q, w.theta.size, w.G_sq, w.logdet_V, w.logdet_xtvx, sq_dev, nu_sq))


def bayes_log_posterior(design: GpDesign, tau: float, nu_sq: float, nugget: float = NUGGET_START):
    """Log-target callable over theta for MCMC sampling of the range
    parameters; returns -inf outside THETA_BOUNDS and where the likelihood
    cannot be evaluated: the one-row bayes_log_posterior_stack."""
    stack = bayes_log_posterior_stack([design], [tau], [nu_sq], nugget)

    def target(theta):
        return float(stack(np.asarray(theta, dtype=float).reshape(1, -1))[0])

    return target


def bayes_log_posterior_stack(designs, tau, nu_sq, nugget: float = NUGGET_START):
    """bayes_log_posterior for B chains at once.

    The callable maps a (B, K) stack of theta rows to B log targets, row b
    under ``designs[b]``, ``tau[b]`` and ``nu_sq[b]``; the designs share one
    size, and a single design, with its tau and nu_sq, serves any number of
    rows.  One call factorizes every live row, in the box with nu_sq > 0,
    through one GpStack, and each row's value is -nll_bayes at it bit for
    bit, or -inf where nll_bayes raises.
    """
    X, Z, D = (np.stack([getattr(d, a) for d in designs]) for a in ("X", "Z", "sq_diffs"))
    tau = np.asarray(tau, dtype=float)[:, None]
    nu_sq = np.asarray(nu_sq, dtype=float)
    nu_sq_rows, shared = nu_sq.tolist(), len(designs) == 1
    (_, n, q), K = X.shape, D.shape[1]
    dof = n - q

    def log_target(theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        live = np.all(in_theta_box(theta), axis=1) & (nu_sq > 0)
        rows = np.flatnonzero(live).tolist()
        sq_dev = np.sum((theta - tau) ** 2, axis=1).tolist()
        out = np.full(len(theta), -math.inf)
        arrays = (X, Z, D, theta)  # every row live: the stacks themselves, uncopied
        if len(rows) < len(theta):  # copy the live rows; a shared design stays as it is
            arrays = (X, Z, D, theta[live]) if shared else tuple(a[live] for a in arrays)
        stack = GpStack(*arrays, nugget)
        quantities = zip(stack.error, stack.G_sq.tolist(), stack.logdet_V.tolist(), stack.logdet_xtvx.tolist())
        for b, (error, G_sq, logdet_V, logdet_xtvx) in zip(rows, quantities):
            if error is not None:
                continue  # -inf, where nll_bayes raises
            try:
                out[b] = -_nll_bayes_of(dof, K, G_sq, logdet_V, logdet_xtvx, sq_dev[b], nu_sq_rows[0 if shared else b])
            except ValueError:
                pass  # a zero GLS residual: -inf, where nll_bayes raises
        return out

    return log_target


@dataclass(frozen=True)
class GpFit:
    """Fitted range parameters and derived GLS quantities.  ``alpha_reml``
    is the REML scale, the one that kriging's MSPE uses."""

    theta: np.ndarray
    beta_hat: np.ndarray
    alpha_reml: float  # G^2 / (n - q)
    objective: float
    hessian: np.ndarray | None  # None when fit_reml was asked for no Hessian
    nugget: float
    lam: float
    at_bounds: bool


def fit_reml(
    design: GpDesign,
    lam: float = 0.0,
    restarts: int = 8,
    rng: np.random.Generator | None = None,
    hessian: bool = True,
) -> GpFit:
    """Minimize the regularized REML objective over theta in [-10, 10]^K.

    Multi-start L-BFGS-B on the exact gradient (nll_reml_regularized_grad)
    from ``restarts`` starts drawn from N(0, 2^2) per coordinate.  A start's
    finite result is kept whether L-BFGS-B reports convergence or an
    abnormal line search (with an exact gradient that is round-off, often
    from a nugget escalation).  A start that never reaches a finite value
    is dropped, as the data then fail at every theta, and RuntimeError is
    raised when every start is.  Ties across starts break by lowest
    objective, then lexicographically smallest theta.  ``objective`` is
    nll_reml_regularized at ``theta``, and ``hessian`` is its central
    finite-difference Hessian with relative step 0.2, probed through the
    optimizer's own objective (whose value is the same), or None when
    ``hessian`` is False (33 objective calls at K=4 that a caller reading
    only theta does not need).
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if design.n <= design.q:
        raise ValueError("need n > q observations to estimate the covariance")
    rng = rng if rng is not None else np.random.default_rng(0)
    K = design.K

    # outputs exactly in the mean-model column space: every theta is optimal,
    # the surrogate reproduces the data with zero scale
    coef, *_ = np.linalg.lstsq(design.X, design.Z, rcond=None)
    exact_resid = design.Z - design.X @ coef
    if np.max(np.abs(exact_resid)) <= 1e-12 * max(1.0, float(np.max(np.abs(design.Z)))):
        w0 = GpWork(design, np.zeros(K))
        return GpFit(
            theta=np.zeros(K),
            beta_hat=coef,
            alpha_reml=0.0,
            objective=-math.inf,
            hessian=np.zeros((K, K)) if hessian else None,
            nugget=w0.nugget,
            lam=lam,
            at_bounds=False,
        )

    def objective_and_grad(theta):
        try:
            return nll_reml_regularized_grad(design, theta, lam)
        except (FactorizationError, ValueError):
            return 1e300, np.zeros(K)

    bounds = [THETA_BOUNDS] * K
    results = []
    for _ in range(restarts):
        x0 = np.clip(rng.normal(0.0, 2.0, size=K), *THETA_BOUNDS)
        res = optimize.minimize(objective_and_grad, x0, method="L-BFGS-B", jac=True, bounds=bounds)
        if res.fun < 1e299:
            results.append((float(res.fun), res.x))
    if not results:
        raise RuntimeError("all optimizer starts failed")
    results.sort(key=lambda r: (r[0], tuple(r[1])))
    best_val, best_theta = results[0]

    w = GpWork(design, best_theta)
    n, q = design.n, design.q
    # the wide step reads the curvature of the objective's quadratic envelope
    # rather than the factorization-level roughness a tiny step would
    # amplify; Wald intervals from a much smaller step are badly
    # anti-conservative
    hess = fd_hessian(lambda t: objective_and_grad(t)[0], best_theta, 0.2) if hessian else None
    at_bounds = bool(
        np.any(np.isclose(best_theta, THETA_BOUNDS[0])) or np.any(np.isclose(best_theta, THETA_BOUNDS[1]))
    )
    return GpFit(
        theta=best_theta,
        beta_hat=w.beta_hat,
        alpha_reml=w.G_sq / (n - q),
        objective=best_val,
        hessian=hess,
        nugget=w.nugget,
        lam=lam,
        at_bounds=at_bounds,
    )


def hessian_nu_estimate(fit: GpFit) -> tuple[float, float]:
    """Empirical-Bayes prior hyperparameters from a REML fit:
    tau_hat = mean(theta), nu_sq_hat = mean of diag(H^-1).  nu_sq_hat is
    NaN, with a RuntimeWarning, when H is not positive definite, and a fit
    made without H raises ValueError."""
    if fit.hessian is None:
        raise ValueError("the fit has no Hessian: fit_reml was called with hessian=False")
    tau_hat = float(np.mean(fit.theta))
    try:
        np.linalg.cholesky(fit.hessian)
    except np.linalg.LinAlgError:
        warnings.warn("objective Hessian is not SPD; nu_sq_hat is undefined", RuntimeWarning)
        return tau_hat, math.nan
    return tau_hat, float(np.mean(np.diag(np.linalg.inv(fit.hessian))))
