"""Normal and Weibull input variables: densities, MLE, priors, posteriors.

Each uncertain simulator input is described by an :class:`InputVariableSpec`
holding a small sample of laboratory observations.  Parameters are either
fitted by maximum likelihood or given a posterior distribution by combining
the likelihood with one of three priors (flat, Jeffreys, conjugate).

Weibull convention throughout: scale ``alpha`` and shape ``beta`` with
density f(x) = (beta/alpha) (x/alpha)^(beta-1) exp(-(x/alpha)^beta).
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from enum import Enum
from functools import cached_property
from typing import Union

import numpy as np
from scipy import optimize
from scipy.special import gammaln, ndtri

__all__ = [
    "Family",
    "PriorKind",
    "InputVariableSpec",
    "NormalParams",
    "WeibullParams",
    "PriorSpec",
    "log_density",
    "mle_fit",
    "log_prior",
    "log_posterior_target",
    "log_posterior_unnorm",
    "sample",
]

NEG_INF = float("-inf")

# sqrt(det Fisher) constant, evaluated once
_WEIBULL_JEFFREYS_CONST = 0.5 * math.log(math.pi**2 / 6.0)


class Family(str, Enum):
    NORMAL = "normal"
    WEIBULL = "weibull"


class PriorKind(str, Enum):
    FLAT = "flat"
    JEFFREYS = "jeffreys"
    CONJUGATE = "conjugate"


class DegenerateDataError(ValueError):
    """All observations equal; the Weibull shape MLE diverges."""


@dataclass(frozen=True)
class InputVariableSpec:
    """One uncertain simulator input with its raw observations."""

    name: str
    family: Family
    observations: np.ndarray

    def __post_init__(self):
        obs = np.asarray(self.observations, dtype=float)
        if obs.ndim != 1 or obs.size == 0:
            raise ValueError(f"{self.name}: observations must be a non-empty vector")
        if not np.all(np.isfinite(obs)):
            raise ValueError(f"{self.name}: observations contain NaN/inf")
        if self.family == Family.WEIBULL and np.any(obs <= 0):
            raise ValueError(f"{self.name}: Weibull observations must be strictly positive")
        object.__setattr__(self, "observations", obs)

    @property
    def n(self) -> int:
        return self.observations.size

    @cached_property
    def sufficient_stats(self) -> tuple:
        """What _log_likelihood reads of the sample, as Python numbers:
        (n, xbar, SS) of a Normal one, (n, logs, sum logs) of a Weibull one."""
        obs = self.observations
        if self.family == Family.NORMAL:
            xbar = float(np.mean(obs))
            return obs.size, xbar, float(np.sum((obs - xbar) ** 2))
        logs = tuple(np.log(obs).tolist())
        return obs.size, logs, sum(logs)


def _normal_valid(mu: float, sigma2: float) -> bool:
    return math.isfinite(mu) and math.isfinite(sigma2) and sigma2 > 0


def _weibull_valid(alpha: float, beta: float) -> bool:
    return math.isfinite(alpha) and math.isfinite(beta) and alpha > 0 and beta > 0


@dataclass(frozen=True)
class NormalParams:
    """Normal location/variance pair (mu, sigma2)."""

    mu: float
    sigma2: float

    family = Family.NORMAL

    def valid(self) -> bool:
        return _normal_valid(self.mu, self.sigma2)

    def as_array(self) -> np.ndarray:
        return np.array([self.mu, self.sigma2])


@dataclass(frozen=True)
class WeibullParams:
    """Weibull scale/shape pair (alpha, beta)."""

    alpha: float
    beta: float

    family = Family.WEIBULL

    def valid(self) -> bool:
        return _weibull_valid(self.alpha, self.beta)

    def as_array(self) -> np.ndarray:
        return np.array([self.alpha, self.beta])


ParamVector = Union[NormalParams, WeibullParams]


def params_from_array(family: Family, values) -> ParamVector:
    v = np.asarray(values, dtype=float)
    if family == Family.NORMAL:
        return NormalParams(mu=float(v[0]), sigma2=float(v[1]))
    return WeibullParams(alpha=float(v[0]), beta=float(v[1]))


@dataclass(frozen=True)
class PriorSpec:
    """Prior choice for a parameter pair.

    Conjugate hyperparameters:

    * Normal: Normal-Inverse-Gamma (m, kappa, a, b) on (mu, sigma2).
    * Weibull: Inverse-Gamma (a, b) on lam = alpha**beta0 with the shape
      fixed at beta0 (conjugacy needs a known shape).

    ``jeffreys_normal_variant`` selects the joint Jeffreys prior for the
    Normal (proportional to sigma^-3, the default) or the independence
    variant (sigma^-2).
    """

    kind: PriorKind
    nig: tuple | None = None  # (m, kappa, a, b)
    ig: tuple | None = None  # (a, b)
    beta0: float | None = None
    jeffreys_normal_variant: str = "joint"  # "joint" (sigma^-3) or "independence" (sigma^-2)

    def __post_init__(self):
        if self.kind == PriorKind.CONJUGATE:
            if self.nig is not None:
                m, kappa, a, b = self.nig
                if kappa <= 0 or a <= 0 or b <= 0:
                    raise ValueError("NIG hyperparameters must be positive")
            if self.ig is not None:
                a, b = self.ig
                if a <= 0 or b <= 0:
                    raise ValueError("Inverse-Gamma hyperparameters must be positive")
                if self.beta0 is None or self.beta0 <= 0:
                    raise ValueError("Conjugate Weibull prior needs a positive fixed shape beta0")
        if self.jeffreys_normal_variant not in ("joint", "independence"):
            raise ValueError("jeffreys_normal_variant must be 'joint' or 'independence'")

    @staticmethod
    def flat() -> "PriorSpec":
        return PriorSpec(kind=PriorKind.FLAT)

    @staticmethod
    def jeffreys(variant: str = "joint") -> "PriorSpec":
        return PriorSpec(kind=PriorKind.JEFFREYS, jeffreys_normal_variant=variant)

    @staticmethod
    def conjugate_for(spec: InputVariableSpec) -> "PriorSpec":
        """Weakly informative conjugate prior centered on the data."""
        obs = spec.observations
        if spec.family == Family.NORMAL:
            m = float(np.mean(obs))
            b = float(np.var(obs)) if obs.size > 1 else 1.0
            return PriorSpec(kind=PriorKind.CONJUGATE, nig=(m, 1.0, 2.0, max(b, 1e-12)))
        beta0 = mle_fit(spec).beta
        rate = float(np.mean(obs**beta0))
        return PriorSpec(kind=PriorKind.CONJUGATE, ig=(2.0, rate), beta0=beta0)


def log_density(x: float, params: ParamVector) -> float:
    """Log density of one observation under the given parameter pair."""
    if not params.valid():
        raise ValueError(f"invalid parameters: {params}")
    sample = InputVariableSpec("x", params.family, [x])  # checks x's support
    return _log_likelihood(params.family, sample.sufficient_stats)(*astuple(params))


def _log_likelihood(family: Family, stats: tuple):
    """Sum of the log densities of a sample, given by its sufficient_stats,
    as a function of a valid parameter pair: plain arithmetic on Python
    floats, with no NumPy call.

    * Normal, from n, the mean xbar and SS = sum (x_i - xbar)^2:
      -n/2 log(2 pi s2) - (SS + n (xbar - mu)^2) / (2 s2);
    * Weibull, from n and the logs l_i = log x_i:
      n log(b/a) + (b - 1)(sum l_i - n log a) - sum exp(b (l_i - log a)),
      which is -inf where a term of the last sum overflows.
    """
    if family == Family.NORMAL:
        n, xbar, ss = stats
        half_n, two_pi = -0.5 * n, 2 * math.pi

        def normal(mu, s2):
            dev = xbar - mu  # dev * dev, not dev ** 2: a float product overflows to inf without raising
            return half_n * math.log(two_pi * s2) - 0.5 * (ss + n * dev * dev) / s2

        return normal
    n, logs, sum_logs = stats

    def weibull(a, b):
        log_a = math.log(a)
        try:
            tail = sum([math.exp(b * (v - log_a)) for v in logs])
        except OverflowError:
            return NEG_INF
        return n * math.log(b / a) + (b - 1) * (sum_logs - n * log_a) - tail

    return weibull


def _weibull_profile_score(beta: float, logs: np.ndarray) -> float:
    # d/dbeta of the profile log-likelihood (scale concentrated out):
    # sum(x^b log x)/sum(x^b) - 1/b - mean(log x)
    # weights shifted by the max log to avoid overflow at large shapes
    w = np.exp(beta * (logs - logs.max()))
    return float(np.dot(w, logs) / np.sum(w) - 1.0 / beta - np.mean(logs))


def mle_fit(spec: InputVariableSpec) -> ParamVector:
    """Maximum-likelihood parameter estimates.

    Normal: closed-form moments (variance divided by n, not n-1).
    Weibull: the shape is profiled and solved by bracketed root finding on
    the score equation; the scale then follows in closed form.
    """
    obs = spec.observations
    if obs.size < 2:
        raise ValueError(f"{spec.name}: need at least 2 observations")
    if spec.family == Family.NORMAL:
        return NormalParams(mu=float(np.mean(obs)), sigma2=float(np.var(obs)))

    if np.all(obs == obs[0]):
        raise DegenerateDataError(f"{spec.name}: all observations equal; Weibull MLE diverges")
    logs = np.log(obs)
    lo, hi = 1e-3, 1e3
    f_lo = _weibull_profile_score(lo, logs)
    f_hi = _weibull_profile_score(hi, logs)
    if f_lo * f_hi > 0:
        raise RuntimeError(f"{spec.name}: Weibull shape score has no sign change in [{lo}, {hi}]")
    beta = optimize.brentq(_weibull_profile_score, lo, hi, args=(logs,), xtol=1e-13, rtol=1e-15)
    alpha = float(np.mean(obs**beta) ** (1.0 / beta))
    # score at the solution must be numerically zero
    if abs(_weibull_profile_score(beta, logs)) > 1e-8:
        raise RuntimeError(f"{spec.name}: Weibull MLE did not converge")
    return WeibullParams(alpha=alpha, beta=float(beta))


def _at_fixed_shape(beta: float, beta0: float) -> bool:
    """Whether a Weibull shape sits at the conjugate prior's fixed beta0."""
    return math.isclose(beta, beta0, rel_tol=1e-12, abs_tol=0.0)


def _log_prior(family: Family, prior: PriorSpec):
    """Log prior density as a function of a valid parameter pair, up to an
    additive constant for improper priors; a conjugate Weibull pair must
    sit at the fixed shape.  The prior's constants are computed here, once;
    a conjugate prior is -inf where a power in it overflows or underflows."""
    if prior.kind == PriorKind.FLAT:
        return lambda p0, p1: 0.0

    if prior.kind == PriorKind.JEFFREYS:
        if family == Family.NORMAL:
            slope = -0.5 * (3.0 if prior.jeffreys_normal_variant == "joint" else 2.0)
            return lambda mu, s2: slope * math.log(s2)
        # 0.5*log det Fisher = 0.5*log(pi^2/6) - log(alpha); the determinant
        # is free of the shape in this parameterization
        return lambda alpha, beta: _WEIBULL_JEFFREYS_CONST - math.log(alpha)

    # conjugate; an Inverse-Gamma(a, b) log density of v is
    # a*log(b) - gammaln(a) - (a + 1)*log(v) - b/v
    if family == Family.NORMAL:
        if prior.nig is None:
            raise ValueError("conjugate Normal prior requires NIG hyperparameters")
        m, kappa, a, b = prior.nig
        ig_const = a * math.log(b) - gammaln(a)

        def normal(mu, s2):
            lp_s2 = ig_const - (a + 1) * math.log(s2) - b / s2
            try:  # a float ** raises OverflowError
                lp_mu = -0.5 * math.log(2 * math.pi * s2 / kappa) - 0.5 * kappa * (mu - m) ** 2 / s2
            except OverflowError:
                return NEG_INF
            return lp_s2 + lp_mu

        return normal
    if prior.ig is None or prior.beta0 is None:
        raise ValueError("conjugate Weibull prior requires IG hyperparameters and beta0")
    a, b = prior.ig
    beta0 = prior.beta0
    ig_const, log_beta0 = a * math.log(b) - gammaln(a), math.log(beta0)

    def weibull(alpha, beta):
        try:  # a float ** raises OverflowError, and log raises ValueError at an underflowed 0
            lam = alpha**beta0
            lp_lam = ig_const - (a + 1) * math.log(lam) - b / lam
        except (OverflowError, ValueError):
            return NEG_INF
        # change of variables lam = alpha^beta0 so this is a density in alpha
        jac = log_beta0 + (beta0 - 1) * math.log(alpha)
        return lp_lam + jac

    return weibull


def log_prior(params: ParamVector, prior: PriorSpec) -> float:
    """Log prior density, up to an additive constant for improper priors."""
    if not params.valid():
        raise ValueError(f"invalid parameters: {params}")
    log_pi = _log_prior(params.family, prior)
    if params.family == Family.WEIBULL and prior.kind == PriorKind.CONJUGATE:
        if not _at_fixed_shape(params.beta, prior.beta0):
            raise ValueError(f"conjugate Weibull prior fixes the shape at {prior.beta0}, got {params.beta}")
    return log_pi(*astuple(params))


def log_posterior_target(spec: InputVariableSpec, prior: PriorSpec):
    """Unnormalized log posterior of ``spec``'s parameters under ``prior`` as
    a function of a parameter pair, (mu, sigma2) or (alpha, beta); -inf
    outside the support.  What depends only on the data (once per spec) or
    the prior is computed before any call, so each call works on plain floats."""
    log_pi = _log_prior(spec.family, prior)
    log_lik = _log_likelihood(spec.family, spec.sufficient_stats)
    valid = _normal_valid if spec.family == Family.NORMAL else _weibull_valid
    if spec.family == Family.WEIBULL and prior.kind == PriorKind.CONJUGATE:
        # out-of-support rather than an error inside MCMC: the shape is fixed
        valid = lambda alpha, beta: _weibull_valid(alpha, beta) and _at_fixed_shape(beta, prior.beta0)

    def target(psi) -> float:
        p0, p1 = psi
        if not valid(p0, p1):
            return NEG_INF
        return log_pi(p0, p1) + log_lik(p0, p1)

    return target


def log_posterior_unnorm(
    params: ParamVector, spec: InputVariableSpec, prior: PriorSpec
) -> float:
    """Unnormalized log posterior; -inf when the parameters violate support.
    Builds log_posterior_target(spec, prior) for one call."""
    return log_posterior_target(spec, prior)(astuple(params))


def sample(params: ParamVector, rng: np.random.Generator, size=None):
    """Draw variates; Weibull by inverse CDF, Normal via the generator."""
    if not params.valid():
        raise ValueError(f"invalid parameters: {params}")
    if params.family == Family.NORMAL:
        return rng.normal(params.mu, math.sqrt(params.sigma2), size=size)
    return ppf(params, rng.uniform(size=size))


def ppf(params: ParamVector, u):
    """Quantile function, used by the Latin-hypercube transform."""
    u = np.asarray(u, dtype=float)
    if params.family == Family.NORMAL:
        return params.mu + math.sqrt(params.sigma2) * ndtri(u)
    return params.alpha * (-np.log1p(-u)) ** (1.0 / params.beta)


def conjugate_normal_posterior(spec: InputVariableSpec, prior: PriorSpec) -> tuple:
    """Closed-form NIG posterior hyperparameters (m, kappa, a, b).

    Exposed for validation of MCMC output against the analytic update.
    """
    if spec.family != Family.NORMAL or prior.nig is None:
        raise ValueError("requires a Normal variable with an NIG prior")
    m0, k0, a0, b0 = prior.nig
    obs = spec.observations
    n = obs.size
    xbar = float(np.mean(obs))
    ss = float(np.sum((obs - xbar) ** 2))
    kn = k0 + n
    mn = (k0 * m0 + n * xbar) / kn
    an = a0 + n / 2.0
    bn = b0 + 0.5 * ss + 0.5 * k0 * n * (xbar - m0) ** 2 / kn
    return (mn, kn, an, bn)
