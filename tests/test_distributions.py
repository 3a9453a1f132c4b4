import math

import numpy as np
import pytest
from scipy import integrate, optimize

from reliagp.distributions import (
    DegenerateDataError,
    Family,
    InputVariableSpec,
    NormalParams,
    PriorKind,
    PriorSpec,
    WeibullParams,
    conjugate_normal_posterior,
    log_density,
    log_posterior_target,
    log_posterior_unnorm,
    log_prior,
    mle_fit,
    params_from_array,
    sample,
)
from reliagp.ingest import synth_study


def test_log_density_weibull_exponential_case():
    # beta=1 reduces to Exponential(scale 2)
    assert log_density(2.0, WeibullParams(alpha=2, beta=1)) == pytest.approx(-math.log(2) - 1)


def test_log_density_standard_normal_mode():
    assert log_density(0.0, NormalParams(mu=0, sigma2=1)) == pytest.approx(
        -0.5 * math.log(2 * math.pi)
    )


def test_log_density_weibull_direct():
    assert log_density(1.0, WeibullParams(alpha=1, beta=2)) == pytest.approx(math.log(2) - 1)


def test_log_density_outside_support():
    with pytest.raises(ValueError):
        log_density(-1.0, WeibullParams(alpha=1, beta=2))
    with pytest.raises(ValueError):
        log_density(1.0, NormalParams(mu=0, sigma2=-1))
    with pytest.raises(ValueError):
        log_density(math.nan, NormalParams(mu=0, sigma2=1))


def test_mle_normal_closed_form():
    spec = InputVariableSpec("v", Family.NORMAL, np.array([1.0, 2.0, 3.0]))
    fit = mle_fit(spec)
    assert fit.mu == 2.0
    assert fit.sigma2 == pytest.approx(2.0 / 3.0, abs=0)


def test_mle_weibull_consistency():
    rng = np.random.default_rng(101)
    obs = sample(WeibullParams(alpha=2, beta=3), rng, size=10_000)
    fit = mle_fit(InputVariableSpec("w", Family.WEIBULL, obs))
    assert 1.95 <= fit.alpha <= 2.05
    assert 2.9 <= fit.beta <= 3.1


def test_mle_weibull_degenerate():
    spec = InputVariableSpec("w", Family.WEIBULL, np.array([3.0, 3.0, 3.0]))
    with pytest.raises(DegenerateDataError):
        mle_fit(spec)


def test_weibull_mle_is_local_max():
    rng = np.random.default_rng(7)
    obs = sample(WeibullParams(alpha=1.5, beta=2.5), rng, size=50)
    spec = InputVariableSpec("w", Family.WEIBULL, obs)
    fit = mle_fit(spec)

    def loglik(a, b):
        return sum(log_density(x, WeibullParams(a, b)) for x in obs)

    best = loglik(fit.alpha, fit.beta)
    for _ in range(100):
        a = fit.alpha * math.exp(rng.normal(0, 0.1))
        b = fit.beta * math.exp(rng.normal(0, 0.1))
        assert loglik(a, b) <= best + 1e-9


def test_flat_prior_is_zero():
    assert log_prior(NormalParams(1.0, 2.0), PriorSpec.flat()) == 0.0
    assert log_prior(WeibullParams(1.0, 2.0), PriorSpec.flat()) == 0.0


def test_jeffreys_normal_joint():
    p = PriorSpec.jeffreys()
    assert log_prior(NormalParams(0.0, 1.0), p) == pytest.approx(0.0)
    assert log_prior(NormalParams(0.0, math.e**2), p) == pytest.approx(-3.0)


def test_jeffreys_normal_independence_variant():
    p = PriorSpec.jeffreys(variant="independence")
    assert log_prior(NormalParams(0.0, math.e**2), p) == pytest.approx(-2.0)


def _numerical_fisher_weibull(a, b, h=1e-5):
    """Fisher matrix by quadrature over finite-difference scores."""

    def logf(x, a_, b_):
        return math.log(b_ / a_) + (b_ - 1) * math.log(x / a_) - (x / a_) ** b_

    def score(x):
        da = (logf(x, a + h, b) - logf(x, a - h, b)) / (2 * h)
        db = (logf(x, a, b + h) - logf(x, a, b - h)) / (2 * h)
        return da, db

    def dens(x):
        return (b / a) * (x / a) ** (b - 1) * math.exp(-((x / a) ** b))

    mat = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            mat[i, j] = integrate.quad(
                lambda x: score(x)[i] * score(x)[j] * dens(x), 0, np.inf, limit=200
            )[0]
    return mat


def test_jeffreys_weibull_matches_numerical_fisher():
    fisher = _numerical_fisher_weibull(1.0, 1.0)
    expected = 0.5 * math.log(np.linalg.det(fisher))
    got = log_prior(WeibullParams(1.0, 1.0), PriorSpec.jeffreys())
    assert got == pytest.approx(expected, abs=1e-4)


@pytest.mark.parametrize("a,b", [(2.0, 3.0), (0.5, 1.5)])
def test_jeffreys_weibull_other_points(a, b):
    fisher = _numerical_fisher_weibull(a, b)
    expected = 0.5 * math.log(np.linalg.det(fisher))
    got = log_prior(WeibullParams(a, b), PriorSpec.jeffreys())
    assert got == pytest.approx(expected, abs=1e-4)


def test_jeffreys_depends_only_on_params():
    # same value regardless of any data context
    p = PriorSpec.jeffreys()
    v1 = log_prior(WeibullParams(2.0, 3.0), p)
    v2 = log_prior(WeibullParams(2.0, 3.0), PriorSpec.jeffreys())
    assert v1 == v2


def test_flat_posterior_equals_loglik():
    rng = np.random.default_rng(3)
    obs = rng.normal(5, 2, size=12)
    spec = InputVariableSpec("v", Family.NORMAL, obs)
    params = NormalParams(4.8, 3.5)
    expected = sum(log_density(x, params) for x in obs)
    assert log_posterior_unnorm(params, spec, PriorSpec.flat()) == pytest.approx(expected)


def test_posterior_sentinel_on_invalid_params():
    spec = InputVariableSpec("v", Family.NORMAL, np.array([1.0, 2.0]))
    assert log_posterior_unnorm(NormalParams(0.0, -1.0), spec, PriorSpec.flat()) == -math.inf


def test_conjugate_normal_posterior_mode():
    rng = np.random.default_rng(11)
    obs = rng.normal(3, 1.5, size=20)
    spec = InputVariableSpec("v", Family.NORMAL, obs)
    prior = PriorSpec(kind=PriorKind.CONJUGATE, nig=(0.0, 2.0, 3.0, 4.0))
    mn, kn, an, bn = conjugate_normal_posterior(spec, prior)
    # joint NIG mode: mu = mn, sigma2 = bn / (an + 3/2)
    mode = np.array([mn, bn / (an + 1.5)])

    res = optimize.minimize(
        lambda psi: -log_posterior_unnorm(params_from_array(Family.NORMAL, psi), spec, prior),
        np.array([np.mean(obs), np.var(obs)]),
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-12},
    )
    assert np.allclose(res.x, mode, atol=1e-6)


def test_conjugate_weibull_shape_mismatch():
    prior = PriorSpec(kind=PriorKind.CONJUGATE, ig=(2.0, 1.0), beta0=2.0)
    with pytest.raises(ValueError):
        log_prior(WeibullParams(1.0, 3.0), prior)
    # inside the posterior it is a support rejection, not an error
    spec = InputVariableSpec("w", Family.WEIBULL, np.array([1.0, 2.0]))
    assert log_posterior_unnorm(WeibullParams(1.0, 3.0), spec, prior) == -math.inf


GRID_PRIORS = {
    "flat": lambda spec: PriorSpec.flat(),
    "jeffreys_joint": lambda spec: PriorSpec.jeffreys("joint"),
    "jeffreys_independence": lambda spec: PriorSpec.jeffreys("independence"),
    "conjugate": PriorSpec.conjugate_for,
}


def _grid_spec(family: Family) -> InputVariableSpec:
    rng = np.random.default_rng(31)
    if family == Family.NORMAL:
        obs = rng.normal(5.0, 2.0, size=10)
    else:
        obs = sample(WeibullParams(2.0, 3.0), rng, size=10)
    return InputVariableSpec("v", family, obs)


def _invalid_rows(family: Family, p0: float, p1: float) -> list:
    invalid = [[p0, 0.0], [p0, -p1], [np.nan, p1], [p0, np.inf], [-np.inf, p1]]
    if family == Family.WEIBULL:
        invalid += [[0.0, p1], [-p0, p1]]
    return invalid


@pytest.mark.parametrize("prior_name", sorted(GRID_PRIORS))
@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_posterior_target_equals_log_posterior_unnorm(family, prior_name):
    spec = _grid_spec(family)
    prior = GRID_PRIORS[prior_name](spec)
    target = log_posterior_target(spec, prior)
    p0, p1 = mle_fit(spec).as_array()
    factors = [0.5, 0.7, 0.85, 1.0, 1.2, 1.5, 2.0]
    first = [p0 + 2.0 * (f - 1.0) for f in factors] if family == Family.NORMAL else [p0 * f for f in factors]
    grid = [[a, p1 * f] for a in first for f in factors]
    invalid = _invalid_rows(family, p0, p1)
    values = []
    for psi in grid + invalid:
        expected = log_posterior_unnorm(params_from_array(family, psi), spec, prior)
        assert target(np.array(psi)) == expected, psi
        assert target(psi) == expected, psi
        values.append(expected)
    assert values[len(grid) :] == [-math.inf] * len(invalid)

    if prior.kind == PriorKind.CONJUGATE and family == Family.WEIBULL:
        # the shape is fixed at beta0 (the MLE shape, factor 1.0): every
        # other shape is out of support
        at_beta0 = [math.isfinite(v) for v, psi in zip(values, grid) if psi[1] == prior.beta0]
        assert at_beta0 == [True] * len(first)
        assert sum(map(math.isfinite, values)) == len(first)
        assert target([p0, prior.beta0 * (1 + 1e-9)]) == -math.inf
    else:
        assert all(map(math.isfinite, values[: len(grid)]))


def numpy_log_posterior(spec: InputVariableSpec, prior: PriorSpec):
    """The input posterior with the likelihood summed by NumPy over the
    observations, as it was computed before the float-arithmetic target:
    the reference for log_posterior_target; -inf where log_prior rejects
    the pair."""
    obs, n = spec.observations, spec.n
    logs = np.log(obs)

    def log_lik(p0, p1):
        if spec.family == Family.NORMAL:
            return float(-0.5 * n * math.log(2 * math.pi * p1) - 0.5 * np.add.reduce((obs - p0) ** 2) / p1)
        lt = logs - math.log(p0)
        return float(n * math.log(p1 / p0) + (p1 - 1) * np.add.reduce(lt) - np.add.reduce(np.exp(p1 * lt)))

    def target(psi):
        try:
            return log_prior(params_from_array(spec.family, psi), prior) + log_lik(*psi)
        except ValueError:
            return -math.inf

    return target


@pytest.mark.parametrize("prior_name", sorted(GRID_PRIORS))
@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_float_target_equals_the_numpy_formula(family, prior_name):
    # 500 random rows around the MLE, within 1e-13 relative; the conjugate
    # Weibull prior's rows sit at its fixed shape
    spec = _grid_spec(family)
    prior = GRID_PRIORS[prior_name](spec)
    target, reference = log_posterior_target(spec, prior), numpy_log_posterior(spec, prior)
    p0, p1 = mle_fit(spec).as_array()
    rng = np.random.default_rng(41)
    spread = np.exp(rng.normal(0.0, 0.5, size=(500, 2)))
    if family == Family.NORMAL:
        rows = np.column_stack([p0 + rng.normal(0.0, 2.0, size=500), p1 * spread[:, 1]])
    else:
        rows = np.array([p0, p1]) * spread
        if prior.kind == PriorKind.CONJUGATE:
            rows[:, 1] = prior.beta0
    for psi in rows.tolist():
        expected = reference(psi)
        assert math.isfinite(expected), psi
        assert abs(target(psi) - expected) <= 1e-13 * abs(expected), psi
    for psi in _invalid_rows(family, p0, p1):
        assert target(psi) == reference(psi) == -math.inf, psi


@pytest.mark.parametrize("index", range(4))
def test_conjugate_target_is_minus_inf_where_a_prior_power_overflows(index):
    # far out, (mu - m) ** 2 and alpha ** beta0 raise OverflowError, and near
    # alpha = 0 alpha ** beta0 underflows to 0: the prior density is 0 there
    spec = synth_study(seed=8000).variables[index]
    prior = PriorSpec.conjugate_for(spec)
    target = log_posterior_target(spec, prior)
    if spec.family == Family.NORMAL:
        rows = [[1e200, 1.0], [-1e200, 1.0]]
    else:
        rows = [[1e200, prior.beta0], [1e-200, prior.beta0]]
    for psi in rows:
        assert target(psi) == -math.inf, psi


def test_sample_weibull_inverse_cdf_point():
    class StubRng:
        def uniform(self, size=None):
            return 1.0 - math.exp(-1.0)

    x = sample(WeibullParams(alpha=1, beta=1), StubRng())
    assert x == pytest.approx(1.0)


def test_sample_weibull_moment():
    rng = np.random.default_rng(21)
    draws = sample(WeibullParams(alpha=2, beta=3), rng, size=1_000_000)
    target = 2 * math.gamma(4.0 / 3.0)
    se = draws.std() / math.sqrt(draws.size)
    assert abs(draws.mean() - target) < 3 * se


def test_sample_normal_variance():
    rng = np.random.default_rng(22)
    draws = sample(NormalParams(mu=5, sigma2=4), rng, size=1_000_000)
    # MC s.e. of the sample variance of a normal: sigma^2 * sqrt(2/n)
    se = 4.0 * math.sqrt(2.0 / draws.size)
    assert abs(draws.var() - 4.0) < 3 * se


@pytest.mark.parametrize(
    "params",
    [
        NormalParams(0.0, 1.0),
        NormalParams(-3.0, 0.25),
        WeibullParams(1.0, 1.0),
        WeibullParams(2.0, 3.0),
        WeibullParams(0.5, 0.8),
    ],
)
def test_density_normalization(params):
    if params.family == Family.NORMAL:
        lo, hi = params.mu - 40 * math.sqrt(params.sigma2), params.mu + 40 * math.sqrt(params.sigma2)
    else:
        lo, hi = 0.0, np.inf
    total, _ = integrate.quad(
        lambda x: math.exp(log_density(x, params)), lo, hi, limit=300
    )
    assert total == pytest.approx(1.0, abs=1e-6)
