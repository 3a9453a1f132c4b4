import math

import numpy as np
import pytest

from reliagp.distributions import (
    Family,
    InputVariableSpec,
    PriorKind,
    PriorSpec,
    conjugate_normal_posterior,
    log_posterior_unnorm,
    params_from_array,
)
from reliagp.mcmc import (
    AmSettings,
    PosteriorChain,
    am_sample,
    am_sample_lockstep,
    default_init_cov,
    geweke,
    load_chain,
    remove_burn_in,
    running_average,
    save_chain,
    trace_export,
)


def std_normal_target(x):
    return -0.5 * float(x @ x)


def test_settings_validation():
    with pytest.raises(ValueError):
        AmSettings(d=1, t=1001, t2=100)
    with pytest.raises(ValueError):
        AmSettings(d=1, t=1000, t0=1000)
    with pytest.raises(ValueError):
        AmSettings(d=1, epsilon=0.0)
    assert AmSettings(d=4).s_d == pytest.approx(2.4**2 / 4)


def test_retained_row_count():
    settings = AmSettings(d=1, t=1000, t0=100, t2=100)
    chain = am_sample(std_normal_target, np.zeros(1), np.eye(1), settings, np.random.default_rng(0))
    assert chain.rows == 10


def test_standard_normal_moments():
    settings = AmSettings(d=1, t=100_000, t0=10_000)
    chain = am_sample(std_normal_target, np.zeros(1), np.eye(1), settings, np.random.default_rng(5))
    assert abs(chain.draws.mean()) < 0.05
    assert abs(chain.draws.var() - 1.0) < 0.1
    # acceptance-rate desideratum: soft check only
    if not (0.2 <= chain.acceptance_rate <= 0.5):
        import warnings

        warnings.warn(f"acceptance rate {chain.acceptance_rate:.3f} outside [0.2, 0.5]")


def test_error_on_infinite_init():
    settings = AmSettings(d=1, t=1000, t0=100)
    with pytest.raises(ValueError):
        am_sample(lambda x: -math.inf, np.zeros(1), np.eye(1), settings, np.random.default_rng(0))


def test_determinism():
    settings = AmSettings(d=2, t=5000, t0=500)
    target = lambda x: -0.5 * float(x @ x)
    a = am_sample(target, np.zeros(2), np.eye(2), settings, np.random.default_rng(9))
    b = am_sample(target, np.zeros(2), np.eye(2), settings, np.random.default_rng(9))
    assert np.array_equal(a.draws, b.draws)
    assert a.acceptance_rate == b.acceptance_rate


def far_target(x):
    # mass at 1e8 with spread 1e-3: the history's moments lose every digit
    # of the spread to cancellation, and adaptation meets a covariance that
    # is not positive definite
    return -0.5 * float(np.sum((x - 1e8) ** 2)) / 1e-6


def test_lockstep_chains_equal_lone_chains():
    settings = AmSettings(d=2, t=2000, t0=100, t1=7, t2=10)
    targets = [std_normal_target, far_target, lambda x: -0.5 * float((x - 1.0) @ (x - 1.0)) / 4.0]
    inits = [np.zeros(2), np.full(2, 1e8), np.ones(2)]
    covs = [np.eye(2), 1e-6 * np.eye(2), 2.0 * np.eye(2)]
    chains = am_sample_lockstep(
        lambda X: [f(x) for f, x in zip(targets, X)],
        inits,
        covs,
        settings,
        [np.random.default_rng(s) for s in (1, 2, 3)],
    )
    # the chain whose adaptation fails stops alone
    assert isinstance(chains[1], RuntimeError)
    with pytest.raises(RuntimeError):
        am_sample(far_target, inits[1], covs[1], settings, np.random.default_rng(2))
    for b in (0, 2):
        lone = am_sample(targets[b], inits[b], covs[b], settings, np.random.default_rng(b + 1))
        assert np.array_equal(chains[b].draws, lone.draws)
        assert chains[b].acceptance_rate == lone.acceptance_rate


def test_conjugate_posterior_mean_recovery():
    rng = np.random.default_rng(2)
    obs = rng.normal(2.0, 1.0, size=15)
    spec = InputVariableSpec("v", Family.NORMAL, obs)
    prior = PriorSpec(kind=PriorKind.CONJUGATE, nig=(0.0, 1.0, 2.0, 1.0))
    mn, kn, an, bn = conjugate_normal_posterior(spec, prior)

    def target(psi):
        return log_posterior_unnorm(params_from_array(Family.NORMAL, psi), spec, prior)

    init = np.array([np.mean(obs), np.var(obs)])
    settings = AmSettings(d=2, t=100_000, t0=10_000)
    chain = remove_burn_in(
        am_sample(target, init, default_init_cov(target, init), settings, np.random.default_rng(3)),
        0.2,
    )
    mu_draws = chain.draws[:, 0]
    se = _batch_means_se(mu_draws)
    assert abs(mu_draws.mean() - mn) < 3 * se


def _batch_means_se(x, n_batches=20):
    n = x.size
    m = n // n_batches
    means = x[: m * n_batches].reshape(n_batches, m).mean(axis=1)
    return means.std(ddof=1) / math.sqrt(n_batches)


def test_remove_burn_in_floor_rule():
    draws = np.arange(1000, dtype=float)[:, None]
    chain = PosteriorChain(draws=draws, acceptance_rate=0.3)
    trimmed = remove_burn_in(chain, 0.2)
    assert trimmed.rows == 800
    assert trimmed.draws[0, 0] == 200.0  # original row 201 (1-based)

    assert remove_burn_in(chain, 0.0).rows == 1000

    seven = PosteriorChain(draws=np.arange(7.0)[:, None], acceptance_rate=0.3)
    assert remove_burn_in(seven, 0.2).rows == 6

    with pytest.raises(ValueError):
        remove_burn_in(chain, 1.0)


def test_geweke_constant_chain_fails():
    chain = PosteriorChain(draws=np.ones((500, 1)), acceptance_rate=1.0)
    with pytest.raises(ValueError):
        geweke(chain)


def test_geweke_detects_mean_shift():
    rng = np.random.default_rng(4)
    first = rng.normal(10, 1, size=(500, 1))
    second = rng.normal(0, 1, size=(500, 1))
    chain = PosteriorChain(draws=np.vstack([first, second]), acceptance_rate=0.3)
    assert abs(geweke(chain)[0]) > 5


def test_geweke_windows_too_short():
    chain = PosteriorChain(draws=np.random.default_rng(0).normal(size=(30, 1)), acceptance_rate=0.3)
    with pytest.raises(ValueError):
        geweke(chain)


def test_geweke_spectral_variant_runs():
    rng = np.random.default_rng(8)
    chain = PosteriorChain(draws=rng.normal(size=(1000, 2)), acceptance_rate=0.3)
    z = geweke(chain, variance="spectral")
    assert z.shape == (2,)
    assert np.all(np.isfinite(z))


def test_running_average():
    chain = PosteriorChain(draws=np.array([[1.0], [2.0], [3.0]]), acceptance_rate=0.3)
    assert np.allclose(running_average(chain).ravel(), [1.0, 1.5, 2.0])
    single = PosteriorChain(draws=np.array([[4.0]]), acceptance_rate=0.3)
    assert np.allclose(running_average(single), [[4.0]])


def test_trace_export_row_count():
    chain = PosteriorChain(draws=np.random.default_rng(1).normal(size=(17, 2)), acceptance_rate=0.3)
    rows = trace_export(chain)
    assert len(rows) == 17
    assert rows[0]["index"] == 0


def test_chain_roundtrip(tmp_path):
    settings = AmSettings(d=2, t=1000, t0=100)
    chain = am_sample(
        lambda x: -0.5 * float(x @ x), np.zeros(2), np.eye(2), settings, np.random.default_rng(0)
    )
    path = tmp_path / "chain.csv"
    save_chain(chain, path, names=["a", "b"])
    back = load_chain(path)
    assert np.array_equal(back.draws, chain.draws)
    assert back.acceptance_rate == chain.acceptance_rate
    assert back.settings == settings


def test_mixture_target_total_variation():
    # detailed-balance smoke: equal mixture of N(-2, 0.5^2) and N(2, 0.5^2)
    def target(x):
        v = x[0]
        a = -0.5 * ((v + 2) / 0.5) ** 2
        b = -0.5 * ((v - 2) / 0.5) ** 2
        return float(np.logaddexp(a, b))

    settings = AmSettings(d=1, t=200_000, t0=10_000, t2=10)
    chain = am_sample(target, np.array([2.0]), 0.25 * np.eye(1), settings, np.random.default_rng(12))
    edges = np.linspace(-5, 5, 101)
    hist, _ = np.histogram(chain.draws[:, 0], bins=edges, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    true = 0.5 * (
        np.exp(-0.5 * ((centers + 2) / 0.5) ** 2) + np.exp(-0.5 * ((centers - 2) / 0.5) ** 2)
    ) / (0.5 * math.sqrt(2 * math.pi))
    width = edges[1] - edges[0]
    tv = 0.5 * np.sum(np.abs(hist - true)) * width
    assert tv < 0.05
