"""Adaptive Metropolis and independence samplers, and chain diagnostics.

The adaptive Metropolis sampler follows Haario, Saksman and Tamminen
(2001): a random-walk Metropolis whose Gaussian proposal covariance is the
empirical covariance of the whole chain history, scaled by s_d = 2.4^2/d
and regularized by eps*I.  Adaptation starts after an initial
non-adaptive period t0 and the proposal covariance is refreshed every t1
steps; every t2-th state is retained as output, so a run of t steps yields
t/t2 draws.  ``am_sample_lockstep`` runs many independent chains side by
side in this process, with one target call per step, and ``am_sample`` is
its one-chain case.  The pipeline's input chains (one per input variable)
and tune-prior's cross-validation chains go through am_sample_lockstep,
one call per share of chains that their callers deal out over worker
processes (``workers.fork_blocks``).  The pipeline sets only t, t0 and t2;
epsilon and t1 are AmSettings' constants.  A chain that cannot start (a
non-finite target at its start) or whose proposal covariance fails stops
alone: the call returns its exception in its place, and am_sample raises
it.

A chain draws one adaptation window at a time, a window running from one
possible refresh of the proposal covariance to the next (the first ends
at the first refresh after t0, the last at t).  At the start of a window
each live chain draws the window's standard_normal(d) and random() values
step by step from its own generator (``_draw_steps``), the order a step
at a time takes, so every generator ends in the state it would; one
stacked product then gives all the window's proposal increments
chol @ z, each bit for bit the product of its step alone, and the
per-step loop only adds, scores and tests.

``independence_sample`` is the independence Metropolis-Hastings sampler
(Tierney 1994) on a fixed multivariate t proposal; tune-prior's final
theta chain runs in it, its proposal fitted to the winning prior's
cross-validation draws (the adaptive independence sampler of Holden,
Hauge and Holden 2009).  Its proposals do not depend on the chain's
state, so one call of a stacked target scores IMH_CHUNK of them, and the
walk then only tests.  It draws through ``_draw_steps`` too, t
proposals, and keeps every t2-th state; t0, t1 and epsilon play no role.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from reliagp.tables import read_table, write_table

__all__ = [
    "AmSettings",
    "PosteriorChain",
    "am_sample",
    "am_sample_lockstep",
    "independence_sample",
    "remove_burn_in",
    "geweke",
    "default_init_cov",
    "save_chain",
    "load_chain",
]

# independence_sample's proposals scored per target call; a row's value does
# not depend on the rows beside it, so the chunk size moves no number
IMH_CHUNK = 64
T_DOF = 4  # degrees of freedom of independence_sample's t proposal

BURN_IN = 0.2  # the fraction of every chain's retained draws dropped as burn-in


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
    geweke_z: np.ndarray | None = None

    @property
    def rows(self) -> int:
        return self.draws.shape[0]

    @property
    def d(self) -> int:
        return self.draws.shape[1]


def default_init_cov(log_target, init: np.ndarray) -> np.ndarray:
    """Inverse finite-difference Hessian of -log_target at init, if SPD,
    with relative step 1e-4.

    Works over the last axis of ``init`` as fd_hessian does, so a (B, d)
    stack of starts gives B covariances.  A member falls back to 0.1*I on
    its own when its Hessian is not finite (the target is not finite in the
    probed neighborhood) or its inverse is not positive definite.
    """
    init = np.asarray(init, dtype=float)
    d = init.shape[-1]
    hess = fd_hessian(lambda x: -log_target(x), init, 1e-4)
    covs = []
    for h in hess.reshape(-1, d, d):
        cov = 0.1 * np.eye(d)
        if np.all(np.isfinite(h)):
            with contextlib.suppress(np.linalg.LinAlgError):
                inv = np.linalg.inv(h)
                np.linalg.cholesky(inv)
                cov = inv
        covs.append(cov)
    return np.reshape(covs, hess.shape)


def fd_hessian(f, x: np.ndarray, step: float) -> np.ndarray:
    """Central finite-difference Hessian of f at x with step
    step * max(1, |x_k|) in coordinate k, over the last axis of x: f maps a
    (d,) x to a value, or a (B, d) stack to B values, and each of the B
    Hessians equals its lone call bit for bit."""
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    h = step * np.maximum(1.0, np.abs(x))
    # C pow per entry, as ** on a NumPy or Python scalar gives it; the array
    # square (h * h) differs from it in the last bit for about 1 in 1000 h
    h_sq = np.reshape([v**2 for v in h.ravel().tolist()], h.shape)
    hess = np.empty(x.shape + (d,))
    f0 = f(x)
    for i in range(d):
        for j in range(i, d):
            ei = np.zeros_like(x)
            ej = np.zeros_like(x)
            ei[..., i] = h[..., i]
            ej[..., j] = h[..., j]
            with np.errstate(invalid="ignore"):  # inf - inf is NaN, as for Python floats
                if i == j:
                    val = (f(x + ei) - 2 * f0 + f(x - ei)) / h_sq[..., i]
                else:
                    val = (
                        f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
                    ) / (4 * h[..., i] * h[..., j])
            hess[..., i, j] = val
            hess[..., j, i] = val
    return hess


def cholesky_stack(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of a (B, d, d) stack, member by member.

    Returns (L, ok): where A[b] is not positive definite ok[b] is False and
    L[b] is NaN, and the other members are factorized all the same (a lone
    member, which has just failed, is not factorized again).
    """
    try:
        return np.linalg.cholesky(A), np.ones(len(A), dtype=bool)
    except np.linalg.LinAlgError:
        L = np.full_like(A, np.nan)
        ok = np.zeros(len(A), dtype=bool)
        for b, a in enumerate(A if len(A) > 1 else []):
            try:
                L[b] = np.linalg.cholesky(a)
                ok[b] = True
            except np.linalg.LinAlgError:
                pass
        return L, ok


def _proposal_factor(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cholesky_stack of proposal covariances, where a non-finite factor also
    fails: NumPy returns a NaN factor for a NaN matrix (moments that
    overflowed) instead of raising."""
    chol, ok = cholesky_stack(cov)
    return chol, ok & np.isfinite(chol).all(axis=(1, 2))


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


def _draw_steps(rng: np.random.Generator, z: np.ndarray) -> list[float]:
    """Each step's draws, step by step: row j of ``z`` gets the step's
    standard normals and then the step's random() value is drawn, the order
    a step at a time takes.  Returns the random() values.  Both samplers
    draw here and nowhere else.  random() is uniform() without the identity
    map 0 + 1*u, the same double from the same draw."""
    u = [0.0] * len(z)
    for j in range(len(z)):
        rng.standard_normal(out=z[j])
        u[j] = rng.random()
    return u


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
    standard_normal(d) and then random() from ``rngs[b]`` for each step, a
    window of steps at a time (see the module docstring), and its accept
    test, moments and adaptation use its own state only, so it follows bit
    for bit the path am_sample gives it alone.  Returns one
    PosteriorChain per chain, or the exception am_sample would raise for a
    chain whose target at its start is not finite (ValueError) or whose
    proposal covariance is not finite and positive definite; such a chain
    stops moving and drawing, so its generator ends where am_sample leaves
    it, and the others run on.  The accept test compares Python floats, so
    a stopped chain at -inf raises no RuntimeWarning.
    """
    B, d = len(rngs), settings.d
    x = np.array(inits, dtype=float)
    if x.shape != (B, d):
        raise ValueError(f"inits have shape {x.shape}, expected ({B}, {d})")
    lp = np.asarray(log_target(x.copy()), dtype=float).tolist()
    t0, t1, t2 = settings.t0, settings.t1, settings.t2
    chol, alive = _proposal_factor(settings.s_d * np.asarray(init_covs, dtype=float))
    errors = [
        ValueError("log_target(init) must be finite") if not math.isfinite(v)
        else None if ok else np.linalg.LinAlgError("initial proposal covariance is not positive definite")
        for v, ok in zip(lp, alive)
    ]
    alive &= np.isfinite(lp)
    chol[~alive] = 0.0  # a stopped chain proposes its own state
    stopped = not alive.all()

    # Running first/second moments over the full history (init included),
    # each step's x and x x^T side by side in one row of ``moments``.  The
    # rows of t1 steps are buffered in rows 1..t1 and folded into row 0 at
    # every t1-th step by one sum down the rows, which adds them in the order
    # one += per step would: a row holds d + d^2 >= 2 entries, so NumPy adds
    # row to row and never sums a lone column pairwise.
    moments = np.empty((t1 + 1, B, d + d * d))
    hist, outer = moments[..., :d], moments[..., d:].reshape(t1 + 1, B, d, d)
    hist[0] = x
    outer[0] = x[:, :, None] * x[:, None, :]
    eps_eye = settings.epsilon * np.eye(d)

    retained = np.empty((B, settings.n_retained, d))
    n_accept = [0] * B
    out = 0
    row = 0
    first = 1  # the first step of the window
    while first <= settings.t and alive.any():
        # a window runs up to the next step that may refresh chol, or to t
        last = max(first, t0 + 1)
        last = min(last - last % -t1, settings.t)
        width = last + 1 - first
        # only live chains draw (alive changes at a window's last step only);
        # a stopped chain's z rows stay zero, since its zero chol times
        # uninitialised memory can be NaN
        z = np.zeros((width, B, d))
        u = [[0.0] * width for _ in range(B)]
        for b in np.flatnonzero(alive):
            u[b] = _draw_steps(rngs[b], z[:, b])
        incr = (chol @ z[..., None])[..., 0]  # each step's chol @ z, bit for bit
        log_u = [[math.log(max(v, 1e-300)) for v in u_b] for u_b in u]
        for j in range(width):
            step = first + j
            prop = x + incr[j]
            values = np.asarray(log_target(prop), dtype=float).tolist()
            for b in range(B):
                if values[b] - lp[b] > log_u[b][j]:
                    x[b] = prop[b]
                    lp[b] = values[b]
                    n_accept[b] += 1
            row += 1
            hist[row] = x
            if row == t1:
                row = 0
                np.multiply(hist[1:, :, :, None], hist[1:, :, None, :], out=outer[1:])
                moments[0] = np.add.reduce(moments, axis=0)
                if step > t0:
                    count = step + 1
                    s1, s2 = hist[0], outer[0]
                    cov = (s2 - s1[:, :, None] * s1[:, None, :] / count) / (count - 1)
                    chol, ok = _proposal_factor(settings.s_d * (cov + eps_eye))
                    if stopped or not ok.all():
                        for b in np.flatnonzero(alive & ~ok):
                            errors[b] = RuntimeError(
                                "proposal covariance lost positive definiteness despite regularization"
                            )
                        alive &= ok
                        chol[~alive] = 0.0
                        stopped = True
            if step % t2 == 0:
                retained[:, out] = x
                out += 1
        first = last + 1

    return [
        errors[b]
        or PosteriorChain(draws=retained[b], acceptance_rate=n_accept[b] / settings.t, settings=settings)
        for b in range(B)
    ]


def independence_sample(
    log_target,
    center,
    scale,
    settings: AmSettings,
    rng: np.random.Generator,
) -> PosteriorChain:
    """Independence Metropolis-Hastings (Tierney 1994) from ``center`` on a
    multivariate t proposal with T_DOF degrees of freedom, location
    ``center`` and scale matrix ``scale`` (d x d).

    ``log_target`` maps an (m, d) stack of states to m log densities, each
    that of its row alone.  Proposal y = center + L z sqrt(nu / w), with
    L L^T = scale, z the step's first d standard normals and w the sum of
    the squares of its last nu = T_DOF (a chi-square draw); the step's
    random() value u follows (``_draw_steps``).  The proposal's log density
    is -(nu + d)/2 log(1 + z^T z / w) up to a constant, 0 at the center, and
    y replaces the state x when log u < (log target - log proposal)(y) -
    (log target - log proposal)(x).  The proposals do not depend on x, so
    one target call scores IMH_CHUNK of them and the walk then tests them in
    order: ceil(t / IMH_CHUNK) + 1 calls in all, the first at the center.

    The chain makes settings.t proposals and keeps every t2-th state, so it
    yields t/t2 draws as am_sample does; t0, t1 and epsilon play no role.
    ``acceptance_rate`` is the accepted proposals over t.  A non-finite
    target at the center raises ValueError, and a scale that is not finite
    and positive definite raises LinAlgError, as am_sample does at its
    start.
    """
    center = np.asarray(center, dtype=float)
    d = settings.d
    if center.shape != (d,):
        raise ValueError(f"center has shape {center.shape}, expected ({d},)")
    weight = float(np.asarray(log_target(center[None]), dtype=float)[0])  # the proposal's log density is 0 here
    if not math.isfinite(weight):
        raise ValueError("log_target(center) must be finite")
    (chol,), ok = _proposal_factor(np.asarray(scale, dtype=float)[None])
    if not ok[0]:
        raise np.linalg.LinAlgError("proposal scale is not positive definite")

    x = center
    retained = np.empty((settings.n_retained, d))
    accepted = 0
    for first in range(0, settings.t, IMH_CHUNK):
        z = np.empty((min(IMH_CHUNK, settings.t - first), d + T_DOF))
        log_u = [math.log(max(v, 1e-300)) for v in _draw_steps(rng, z)]
        normals, w = z[:, :d], np.sum(np.square(z[:, d:]), axis=1)
        props = center + (chol @ normals[:, :, None])[:, :, 0] * np.sqrt(T_DOF / w)[:, None]
        log_q = -0.5 * (T_DOF + d) * np.log1p(np.sum(np.square(normals), axis=1) / w)
        weights = (np.asarray(log_target(props), dtype=float) - log_q).tolist()
        for j, step in enumerate(range(first + 1, first + len(z) + 1)):
            if weights[j] - weight > log_u[j]:
                x, weight = props[j], weights[j]
                accepted += 1
            if step % settings.t2 == 0:
                retained[step // settings.t2 - 1] = x
    return PosteriorChain(draws=retained, acceptance_rate=accepted / settings.t, settings=settings)


def remove_burn_in(chain: PosteriorChain, fraction: float = BURN_IN) -> PosteriorChain:
    """Drop the first floor(fraction*rows) retained draws."""
    if not (0 <= fraction < 1):
        raise ValueError(f"burn-in fraction must be in [0, 1), got {fraction}")
    drop = int(math.floor(fraction * chain.rows))
    return replace(chain, draws=chain.draws[drop:])


def geweke(chain: PosteriorChain) -> np.ndarray:
    """Geweke (1992) z-scores per coordinate, comparing the mean of the first
    10% of the draws with that of the last 50%.  The variance of a window's
    mean is its sample variance over its length (Geweke's spectral estimate
    at frequency zero for independent draws)."""
    rows = chain.rows
    n_a = int(0.1 * rows)
    n_b = int(0.5 * rows)
    if n_a < 10 or n_b < 10:
        raise ValueError(f"windows too short ({n_a} and {n_b} draws); need >= 10 each")
    z = np.empty(chain.d)
    for j in range(chain.d):
        a = chain.draws[:n_a, j]
        b = chain.draws[rows - n_b :, j]
        var = float(np.var(a, ddof=1) / n_a) + float(np.var(b, ddof=1) / n_b)
        if var <= 0:
            raise ValueError(f"coordinate {j}: zero variance, Geweke z undefined")
        z[j] = (a.mean() - b.mean()) / math.sqrt(var)
    return z


def save_chain(chain: PosteriorChain, csv_path, names: list[str]) -> None:
    """CSV of retained draws under the column ``names`` plus a JSON sidecar with run metadata."""
    csv_path = Path(csv_path)
    write_table(csv_path, names, chain.draws)
    meta = {
        "columns": names,
        "rows": chain.rows,
        "acceptance_rate": chain.acceptance_rate,
        "geweke_z": None if chain.geweke_z is None else [float(z) for z in chain.geweke_z],
        "settings": None if chain.settings is None else asdict(chain.settings),
    }
    csv_path.with_suffix(".json").write_text(json.dumps(meta, indent=2))


def load_chain(csv_path) -> PosteriorChain:
    csv_path = Path(csv_path)
    _, draws = read_table(csv_path)
    sidecar = csv_path.with_suffix(".json")
    meta = json.loads(sidecar.read_text())
    try:
        settings = AmSettings(**meta["settings"]) if meta.get("settings") else None
    except (AttributeError, TypeError) as e:  # a sidecar that is not an object, or an unknown setting
        raise ValueError(f"chain sidecar {sidecar}: {e}") from e
    return PosteriorChain(
        draws=draws,
        acceptance_rate=meta.get("acceptance_rate", float("nan")),
        settings=settings,
        geweke_z=None if meta.get("geweke_z") is None else np.asarray(meta["geweke_z"]),
    )
