import json
import math
import warnings

import numpy as np
import pytest

from reliagp import mcmc
from reliagp.distributions import (
    Family,
    InputVariableSpec,
    PriorKind,
    PriorSpec,
    conjugate_normal_posterior,
    log_posterior_unnorm,
    params_from_array,
)
from reliagp.gp import THETA_BOUNDS, GpDesign, bayes_log_posterior_stack
from reliagp.ingest import synth_study
from reliagp.mcmc import (
    AmSettings,
    PosteriorChain,
    am_sample,
    am_sample_lockstep,
    default_init_cov,
    fd_hessian,
    geweke,
    independence_sample,
    load_chain,
    remove_burn_in,
    save_chain,
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


def test_unstartable_chain_fails_alone():
    settings = AmSettings(d=2, t=2000, t0=100, t1=7, t2=10)
    targets = [std_normal_target, lambda x: -math.inf, lambda x: -0.5 * float((x - 1.0) @ (x - 1.0)) / 4.0]
    inits = [np.zeros(2), np.ones(2), np.ones(2)]
    covs = [np.eye(2), np.eye(2), 2.0 * np.eye(2)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the stopped chain's accept test at -inf must not warn
        chains = am_sample_lockstep(
            lambda X: np.array([f(x) for f, x in zip(targets, X)]),
            inits,
            covs,
            settings,
            [np.random.default_rng(s) for s in (1, 2, 3)],
        )
    assert isinstance(chains[1], ValueError) and "must be finite" in str(chains[1])
    for b in (0, 2):
        lone = am_sample(targets[b], inits[b], covs[b], settings, np.random.default_rng(b + 1))
        assert np.array_equal(chains[b].draws, lone.draws)
        assert chains[b].acceptance_rate == lone.acceptance_rate


# ----------------------------------------------------- independence sampler


def batch_se(x, stat, n_batches=20):
    """Batch-means standard error of ``stat`` over the draws x."""
    m = x.size // n_batches
    values = [stat(batch) for batch in x[: m * n_batches].reshape(n_batches, m)]
    return float(np.std(values, ddof=1) / math.sqrt(n_batches))


def test_independence_sample_recovers_a_known_target():
    # a correlated 2-D Normal from a proposal off its mean and twice its
    # covariance: each coordinate's mean and 5/50/95% quantiles within 3
    # batch-means standard errors of the closed form
    mean, cov = np.array([1.0, -2.0]), np.array([[1.0, 0.6], [0.6, 2.0]])
    precision = np.linalg.inv(cov)

    def target(X):
        dev = X - mean
        return -0.5 * np.einsum("ij,jk,ik->i", dev, precision, dev)

    settings = AmSettings(d=2, t=100_000, t0=1, t2=5)
    chain = independence_sample(target, mean + [0.5, -0.5], 2.0 * cov, settings, np.random.default_rng(7))
    assert chain.rows == settings.n_retained and 0.3 < chain.acceptance_rate < 0.9
    z = [-1.6448536269514722, 0.0, 1.6448536269514722]  # the Normal's 5/50/95% points
    for k in range(2):
        x, sd = chain.draws[:, k], math.sqrt(cov[k, k])
        assert abs(x.mean() - mean[k]) < 3 * batch_se(x, np.mean)
        for p, zp in zip((0.05, 0.5, 0.95), z):
            q = lambda v, p=p: np.quantile(v, p)
            assert abs(q(x) - (mean[k] + zp * sd)) < 3 * batch_se(x, q), (k, p)


@pytest.fixture(scope="module")
def theta_design():
    ds = synth_study(seed=8000)
    return GpDesign(S=ds.design, Z=ds.outputs, standardize=True)


def test_independence_sample_does_not_depend_on_the_chunk(theta_design, monkeypatch):
    # the fixture's theta target, with a proposal wide enough to leave the
    # box: the same draws, acceptance and generator state at any chunk size
    target = bayes_log_posterior_stack([theta_design], [3.0], [0.26], 0.0)
    settings = AmSettings(d=4, t=2000, t0=1, t2=10)
    center, scale = np.full(4, 3.0), 4.0 * np.eye(4)
    runs = []
    for chunk in (1, 7, mcmc.IMH_CHUNK):
        monkeypatch.setattr(mcmc, "IMH_CHUNK", chunk)
        calls = []
        rng = np.random.default_rng(5)
        recorded = lambda X: calls.append(X.copy()) or target(X)
        chain = independence_sample(recorded, center, scale, settings, rng)
        runs.append((chain.draws.tobytes(), chain.acceptance_rate, rng.bit_generator.state))
        rows = [len(X) for X in calls]
        assert rows == [1] + [chunk] * (settings.t // chunk) + [settings.t % chunk] * (settings.t % chunk > 0)
        assert np.concatenate(calls).max() > THETA_BOUNDS[1], "no proposal left the box"
    assert runs[0] == runs[1] == runs[2]
    assert 0 < runs[0][1] < 1
    assert np.any(np.frombuffer(runs[0][0]) != 3.0)


def test_independence_sample_start_errors():
    settings = AmSettings(d=2, t=100, t0=1, t2=10)
    target = lambda X: -0.5 * np.sum(X * X, axis=1)
    with pytest.raises(ValueError, match="must be finite"):
        independence_sample(target, np.array([np.nan, 0.0]), np.eye(2), settings, np.random.default_rng(0))
    with pytest.raises(ValueError, match="must be finite"):
        independence_sample(target, np.array([np.inf, 0.0]), np.eye(2), settings, np.random.default_rng(0))
    for scale in (np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros((2, 2)), np.full((2, 2), np.nan)):
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            independence_sample(target, np.zeros(2), scale, settings, np.random.default_rng(0))


# ------------------------------------------------------ the reference loop


def reference_am(target, init, cov, settings, rng):
    """Adaptive Metropolis one step at a time: draw standard_normal(d), then
    random(); propose x + L z; accept on log u; fold the state into the
    moments; refresh L every t1 steps after t0; retain every t2-th state.
    Returns (retained draws, accepted count, None), or (None, None, the
    RuntimeError) at the first refresh whose factor fails."""
    d, t0, t1, t2 = settings.d, settings.t0, settings.t1, settings.t2
    x = np.array(init, dtype=float)
    lp = float(target(x))
    L = np.linalg.cholesky(settings.s_d * np.asarray(cov, dtype=float))
    s1, s2 = x.copy(), np.outer(x, x)
    draws, accepted = [], 0
    for step in range(1, settings.t + 1):
        z = rng.standard_normal(d)
        u = rng.random()
        prop = x + (L @ z[:, None])[:, 0]
        lp_prop = float(target(prop))
        if lp_prop - lp > math.log(max(u, 1e-300)):
            x, lp, accepted = prop, lp_prop, accepted + 1
        s1, s2 = s1 + x, s2 + np.outer(x, x)
        if step > t0 and step % t1 == 0:
            count = step + 1
            cov = (s2 - np.outer(s1, s1) / count) / (count - 1)
            try:
                L = np.linalg.cholesky(settings.s_d * (cov + settings.epsilon * np.eye(d)))
            except np.linalg.LinAlgError:
                L = np.full((d, d), np.nan)
            if not np.isfinite(L).all():
                return None, None, RuntimeError("proposal covariance lost positive definiteness")
        if step % t2 == 0:
            draws.append(x)
    return np.array(draws), accepted, None


# t1 = 7 divides neither t0 nor t, and far_target's refresh fails
REFERENCE_SETTINGS = AmSettings(d=2, t=2000, t0=100, t1=7, t2=10)
REFERENCE_CHAINS = [
    (std_normal_target, np.zeros(2), np.eye(2), 1),
    (far_target, np.full(2, 1e8), 1e-6 * np.eye(2), 2),
    (lambda x: -0.5 * float((x - 1.0) @ (x - 1.0)) / 4.0, np.ones(2), 2.0 * np.eye(2), 3),
]


def assert_matches_reference(chain, rng, target, init, cov, seed):
    ref_rng = np.random.default_rng(seed)
    draws, accepted, error = reference_am(target, init, cov, REFERENCE_SETTINGS, ref_rng)
    if error is not None:
        assert isinstance(chain, RuntimeError)
    else:
        assert chain.draws.tobytes() == draws.tobytes()
        assert chain.acceptance_rate == accepted / REFERENCE_SETTINGS.t
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("form", ["plain"])
@pytest.mark.parametrize("k", range(len(REFERENCE_CHAINS)))
def test_am_sample_equals_the_reference_loop(k, form):
    target, init, cov, seed = REFERENCE_CHAINS[k]
    rng = np.random.default_rng(seed)
    try:
        chain = am_sample(target, init, cov, REFERENCE_SETTINGS, rng)
    except RuntimeError as e:
        chain = e
    assert_matches_reference(chain, rng, target, init, cov, seed)


def test_lockstep_chains_equal_the_reference_loop():
    targets, inits, covs, seeds = zip(*REFERENCE_CHAINS)
    rngs = [np.random.default_rng(s) for s in seeds]
    chains = am_sample_lockstep(
        lambda X: [f(x) for f, x in zip(targets, X)], inits, covs, REFERENCE_SETTINGS, rngs
    )
    # a stopped chain stops drawing at its failed refresh, as it does alone
    for chain, rng, chain_args in zip(chains, rngs, REFERENCE_CHAINS):
        assert_matches_reference(chain, rng, *chain_args)
    assert [isinstance(c, Exception) for c in chains] == [False, True, False]


def test_unstartable_lockstep_chain_draws_nothing():
    # the chain starting at -inf leaves its generator untouched, and the
    # others are the reference loop's chains
    unstartable = (lambda x: -math.inf, np.zeros(2), np.eye(2), 9)
    chain_args = [REFERENCE_CHAINS[0], unstartable, REFERENCE_CHAINS[2]]
    targets, inits, covs, seeds = zip(*chain_args)
    rngs = [np.random.default_rng(s) for s in seeds]
    untouched = np.random.default_rng(9).bit_generator.state
    chains = am_sample_lockstep(
        lambda X: [f(x) for f, x in zip(targets, X)], inits, covs, REFERENCE_SETTINGS, rngs
    )
    assert isinstance(chains[1], ValueError)
    assert rngs[1].bit_generator.state == untouched
    for b in (0, 2):
        assert_matches_reference(chains[b], rngs[b], *chain_args[b])


def test_one_coordinate_chain_equals_the_reference_loop():
    # one chain of one coordinate: each moment fold sums t1 + 1 = 11 states
    # per entry, where NumPy would sum a lone column pairwise, not in order
    settings = AmSettings(d=1, t=2000, t0=100, t2=10)
    target = lambda x: -0.5 * float(x[0]) ** 2 - 0.1 * abs(float(x[0])) ** 3
    rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
    chain = am_sample(target, np.zeros(1), np.eye(1), settings, rng)
    draws, accepted, error = reference_am(target, np.zeros(1), np.eye(1), settings, ref_rng)
    assert error is None and settings.t1 == 10
    assert chain.draws.tobytes() == draws.tobytes()
    assert chain.acceptance_rate == accepted / settings.t


def scalar_fd_hessian(f, x, step):
    """fd_hessian on Python scalars, one entry at a time."""
    d = len(x)
    h = [step * max(1.0, abs(float(v))) for v in x]
    hess = np.empty((d, d))
    for i in range(d):
        for j in range(i, d):
            ei, ej = np.zeros(d), np.zeros(d)
            ei[i], ej[j] = h[i], h[j]
            if i == j:
                val = (f(x + ei) - 2 * f(x) + f(x - ei)) / h[i] ** 2
            else:
                val = (f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)) / (4 * h[i] * h[j])
            hess[i, j] = hess[j, i] = val
    return hess


def test_stacked_hessian_and_init_cov_equal_lone_calls():
    # one call over a (B, d) stack of starts against B lone calls, and each
    # lone call against the scalar formula; the members sit at |x| > 1 and
    # < 1, so the steps differ per member, and at x = 1.2 the step 1.2e-4
    # squares to different last bits by pow and by h * h
    A = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 0.5]])
    targets = [
        lambda x: -0.5 * float(x @ A @ x),
        lambda x: -float(np.sum(np.cosh(x - 2.0))) - 0.1 * float(x[0] * x[1] * x[2]),
        # -inf past x_0 = 3: the probes around a start at 3 leave the support
        lambda x: -0.5 * float(x @ x) if x[0] <= 3.0 else -math.inf,
        # a saddle: a finite Hessian whose inverse is not positive definite
        lambda x: -float(x[0] ** 2 - x[1] ** 2 + x[2] ** 2),
        lambda x: -0.5 * float(np.sum((x - 40.0) ** 2 / np.array([1.0, 9.0, 1e4]))),
    ]
    starts = np.array(
        [[1.2, -0.2, 0.3], [2.5, 1.0, -3.0], [3.0, 0.5, 0.0], [0.4, -0.3, 0.2], [41.0, 35.0, -60.0]]
    )
    stack = lambda X: np.array([f(x) for f, x in zip(targets, X)])

    hess = fd_hessian(lambda X: -stack(X), starts, 1e-4)
    covs = default_init_cov(stack, starts)
    assert hess.shape == covs.shape == (5, 3, 3)
    for b, (f, x) in enumerate(zip(targets, starts)):
        lone = fd_hessian(lambda y: -f(y), x, 1e-4)
        assert np.array_equal(hess[b], lone, equal_nan=True)
        assert np.array_equal(lone, scalar_fd_hessian(lambda y: -f(y), x, 1e-4), equal_nan=True)
        assert np.array_equal(covs[b], default_init_cov(f, x))
    assert not np.all(np.isfinite(hess[2]))
    assert np.all(np.isfinite(hess[3]))
    for b in range(5):
        assert np.array_equal(covs[b], 0.1 * np.eye(3)) == (b in (2, 3))


def test_overflowing_moments_fail_adaptation():
    # a flat target under a 1e306 proposal: the history's moments overflow,
    # NumPy factorizes the NaN covariance into NaNs without raising, and the
    # chain must fail rather than run on with NaN proposals
    settings = AmSettings(d=2, t=2000, t0=100)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        RuntimeError, match="positive definiteness"
    ):
        am_sample(lambda x: 0.0, np.zeros(2), 1e306 * np.eye(2), settings, np.random.default_rng(0))
    # the same NaN factor from a NaN initial covariance
    with pytest.raises(np.linalg.LinAlgError, match="initial proposal"):
        am_sample(lambda x: 0.0, np.zeros(2), np.full((2, 2), np.nan), settings, np.random.default_rng(0))


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
    # a saved chain is raw, so its sidecar records no burn-in; an older
    # sidecar that still carries the key loads all the same
    sidecar = path.with_suffix(".json")
    meta = json.loads(sidecar.read_text())
    assert "burn_in_fraction" not in meta
    sidecar.write_text(json.dumps({**meta, "burn_in_fraction": 0.0}))
    assert np.array_equal(load_chain(path).draws, chain.draws)


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
