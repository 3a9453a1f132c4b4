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
from reliagp.gp import THETA_BOUNDS, GpDesign, bayes_log_posterior
from reliagp.ingest import synth_study
from reliagp.mcmc import (
    AmSettings,
    PosteriorChain,
    am_sample,
    am_sample_lockstep,
    default_init_cov,
    fd_hessian,
    geweke,
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


# ------------------------------------------------------------ looking ahead


def recording(f, stack=None):
    """f, recording the states of each call in ``.calls``; with ``stack``
    (f's stacked form) only the stacked form is offered and recorded."""
    calls = []

    def lone(x):
        calls.append(np.array([x]))
        return f(x)

    def stacked(rows):
        calls.append(np.array(rows))
        return stack(rows)

    if stack is None:
        lone.calls = calls
        return lone
    wrapped = lambda x: f(x)
    wrapped.stack, wrapped.calls = stacked, calls
    return wrapped


def walked_steps(calls, plain_calls, settings, ahead):
    """Replay the look-ahead calls against the plain run's proposals (one
    per step): each call must hold the proposals of the steps right after
    those already walked, as many as ``ahead``, the end of the run and the
    next refresh of the proposal covariance allow; the chain walks them up
    to the first that differs from the plain run's (an acceptance moved
    the state).  Returns the steps walked."""
    proposals = [rows[0] for rows in plain_calls[1:]]
    refreshes = [r for r in range(1, settings.t + settings.t1) if r > settings.t0 and r % settings.t1 == 0]
    assert len(calls[0]) == 1  # the start
    done = 0
    for rows in calls[1:]:
        crossed = [r for r in refreshes if done < r < done + len(rows)]
        assert not crossed, f"a call scores proposals from both sides of the refresh at step {crossed}"
        refresh = next(r for r in refreshes if r > done)
        assert len(rows) == min(ahead, settings.t - done, refresh - done)
        walked = 0
        while walked < len(rows) and np.array_equal(rows[walked], proposals[done + walked]):
            walked += 1
        assert walked > 0
        done += walked
    return done


@pytest.fixture(scope="module")
def theta_target():
    ds = synth_study(seed=8000)
    return bayes_log_posterior(GpDesign(S=ds.design, Z=ds.outputs, standardize=True), 3.0, 0.26)


def run_plain_and_ahead(target, stack, init, cov, settings, seed):
    """am_sample on the plain target and on its stacked form: (chain or
    exception, recorded calls) for each."""
    runs = []
    for f in (recording(target), recording(target, stack)):
        try:
            runs.append((am_sample(f, init, cov, settings, np.random.default_rng(seed)), f.calls))
        except (RuntimeError, ValueError) as e:
            runs.append((e, f.calls))
    return runs


@pytest.mark.parametrize("ahead", [2, 3, 4, 7])
def test_look_ahead_chain_equals_plain_chain(ahead, theta_target, monkeypatch):
    # the fixture's theta chain from a start near the box's edge, across t0
    # and 243 refreshes every 7 steps: the same draws and acceptance rate
    # in fewer target calls, and no call reaching past a refresh
    monkeypatch.setattr(mcmc, "LOOKAHEAD", ahead)
    settings = AmSettings(d=4, t=2000, t0=300, t1=7, t2=10)
    init = np.array([9.5, 3.0, 3.0, 3.0])
    (plain, plain_calls), (chain, calls) = run_plain_and_ahead(
        theta_target, theta_target.stack, init, np.eye(4), settings, seed=6
    )
    assert np.array_equal(chain.draws, plain.draws)
    assert chain.acceptance_rate == plain.acceptance_rate
    assert 0 < plain.acceptance_rate < 1
    rows = np.concatenate(calls)
    assert np.any(rows > THETA_BOUNDS[1]), "no proposal left the box"
    assert len(calls) < len(plain_calls) == settings.t + 1
    assert walked_steps(calls, plain_calls, settings, ahead) == settings.t


def test_look_ahead_chain_fails_at_the_same_refresh():
    # far_target's adaptation fails at a refresh: the look-ahead chain
    # raises the same error after walking the same steps
    settings = AmSettings(d=2, t=2000, t0=100, t1=7, t2=10)
    stack = lambda X: np.array([far_target(x) for x in X])
    (plain, plain_calls), (chain, calls) = run_plain_and_ahead(
        far_target, stack, np.full(2, 1e8), 1e-6 * np.eye(2), settings, seed=2
    )
    assert isinstance(plain, RuntimeError) and type(chain) is type(plain)
    assert str(chain) == str(plain)
    steps = len(plain_calls) - 1
    assert settings.t0 < steps < settings.t and steps % settings.t1 == 0
    assert walked_steps(calls, plain_calls, settings, mcmc.LOOKAHEAD) == steps


def test_look_ahead_needs_one_chain():
    settings = AmSettings(d=1, t=100, t0=10)
    with pytest.raises(ValueError, match="one chain"):
        am_sample_lockstep(
            lambda X: -0.5 * np.sum(X**2, axis=1), np.zeros((2, 1)), np.ones((2, 1, 1)), settings,
            [np.random.default_rng(s) for s in (1, 2)], ahead=3,
        )


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


def drawn_for(seed, steps, d):
    """The state of generator ``seed`` after ``steps`` steps' draws."""
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        rng.standard_normal(d)
        rng.random()
    return rng.bit_generator.state


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


@pytest.mark.parametrize("stacked", [False, True], ids=["plain", "stack"])
@pytest.mark.parametrize("k", range(len(REFERENCE_CHAINS)))
def test_am_sample_equals_the_reference_loop(k, stacked):
    target, init, cov, seed = REFERENCE_CHAINS[k]
    f = target
    if stacked:
        f = lambda x: target(x)
        f.stack = lambda X: np.array([target(x) for x in X])
    rng = np.random.default_rng(seed)
    try:
        chain = am_sample(f, init, cov, REFERENCE_SETTINGS, rng)
    except RuntimeError as e:
        chain = e
    assert_matches_reference(chain, rng, target, init, cov, seed)


def test_lockstep_chains_equal_the_reference_loop():
    targets, inits, covs, seeds = zip(*REFERENCE_CHAINS)
    rngs = [np.random.default_rng(s) for s in seeds]
    chains = am_sample_lockstep(
        lambda X: [f(x) for f, x in zip(targets, X)], inits, covs, REFERENCE_SETTINGS, rngs
    )
    for chain, rng, chain_args in zip(chains, rngs, REFERENCE_CHAINS):
        if isinstance(chain, Exception):
            # a stopped chain draws on to the last step, beside the others
            assert isinstance(chain, RuntimeError)
            assert rng.bit_generator.state == drawn_for(chain_args[3], REFERENCE_SETTINGS.t, 2)
        else:
            assert_matches_reference(chain, rng, *chain_args)
    assert [isinstance(c, Exception) for c in chains] == [False, True, False]


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
