import math

import numpy as np
import pytest
from scipy import stats

from reliagp import failure
from reliagp.distributions import Family, NormalParams, WeibullParams, mle_fit, params_from_array, sample
from reliagp.failure import (
    FailurePosterior,
    exceedance_probability,
    lhs_sample,
    simulate_pf,
    summarize,
)
from reliagp.gp import GpDesign
from reliagp.ingest import synth_study
from reliagp.kriging import KrigingModel


# ---------------------------------------------------------------------- LHS


def test_lhs_stratification():
    rng = np.random.default_rng(0)
    n, K = 20, 3
    marginals = [NormalParams(0.0, 1.0)] * K
    design = lhs_sample(n, K, marginals, rng)
    # each column hits every stratum [i/n, (i+1)/n) exactly once
    for k in range(K):
        strata = np.floor(design.U[:, k] * n).astype(int)
        assert sorted(strata) == list(range(n))


def test_lhs_inverse_cdf_consistency():
    rng = np.random.default_rng(1)
    marginals = [NormalParams(3.0, 4.0), WeibullParams(2.0, 3.0)]
    design = lhs_sample(10, 2, marginals, rng)
    assert np.allclose(design.S[:, 0], stats.norm.ppf(design.U[:, 0], loc=3.0, scale=2.0))
    assert np.allclose(
        design.S[:, 1], stats.weibull_min.ppf(design.U[:, 1], 3.0, scale=2.0)
    )


def test_lhs_column_mean_unbiased():
    # averaged over many designs, each column's mean matches the marginal mean
    rng = np.random.default_rng(2)
    marginals = [NormalParams(5.0, 1.0)]
    means = [lhs_sample(8, 1, marginals, rng).S.mean() for _ in range(500)]
    se = np.std(means) / math.sqrt(len(means))
    assert abs(np.mean(means) - 5.0) < 4 * max(se, 1e-12)


def test_lhs_validation():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        lhs_sample(0, 1, [NormalParams(0, 1)], rng)
    with pytest.raises(ValueError):
        lhs_sample(5, 2, [NormalParams(0, 1)], rng)


# -------------------------------------------------------------- exceedance


def test_exceedance_at_mean():
    assert exceedance_probability(3.0, 1.0, 3.0) == pytest.approx(0.5)


def test_exceedance_one_sigma():
    got = exceedance_probability(0.0, 1.0, 1.0)
    assert got == pytest.approx(1.0 - stats.norm.cdf(1.0), rel=1e-12)


def test_exceedance_deep_tail_not_flushed_to_zero():
    # ten-sigma tail: tiny but strictly positive
    p = float(exceedance_probability(0.0, 1.0, 10.0))
    assert 0.0 < p <= 1e-20
    assert p == pytest.approx(float(stats.norm.sf(10.0)), rel=1e-10)


def test_exceedance_zero_spread_indicator():
    assert exceedance_probability(4.0, 0.0, 3.0) == 1.0
    assert exceedance_probability(2.0, 0.0, 3.0) == 0.0
    assert exceedance_probability(3.0, 0.0, 3.0) == 0.0  # strict exceedance


def test_exceedance_vectorized_mixed():
    z_hat = np.array([4.0, 2.0, 3.0])
    s0 = np.array([0.0, 1.0, 0.5])
    out = exceedance_probability(z_hat, s0, 3.0)
    assert out[0] == 1.0
    assert out[1] == pytest.approx(float(stats.norm.sf(1.0)))
    assert out[2] == pytest.approx(0.5)


# ------------------------------------------------------------- simulate_pf


def tiny_design():
    S = np.array([[0.0], [1.0], [2.0]])
    Z = np.array([0.0, 1.0, 0.5])
    return GpDesign(S=S, Z=Z)


def fixed_chain(params):
    return np.asarray(params, dtype=float)[None, :]


def test_simulate_pf_fixed_theta_against_direct_monte_carlo():
    design = tiny_design()
    theta = np.array([0.0])
    marginal = NormalParams(1.0, 0.25)
    chains = [(Family.NORMAL, fixed_chain([1.0, 0.25]))]
    z_crit = 1.2

    post = simulate_pf(
        chains, theta, design, z_crit, N=200, M=400, rng=np.random.default_rng(10)
    )
    est = float(np.mean(post.p))

    # independent oracle: plain Monte Carlo through the same predictive law
    model = KrigingModel(tiny_design(), theta, scale="reml", nugget=0.0)
    rng = np.random.default_rng(999)
    x = rng.normal(1.0, 0.5, size=200_000)
    z_hat, s0, _, _ = model.predict_batch(x[:, None])
    probs = exceedance_probability(z_hat, s0, z_crit)
    truth = float(np.mean(probs))
    se_mc = float(np.std(probs) / math.sqrt(probs.size))
    # spread of the estimator itself
    se_est = float(np.std(post.p) / math.sqrt(post.N))
    assert abs(est - truth) < 3 * math.sqrt(se_mc**2 + se_est**2)


def test_simulate_pf_single_row_theta_matches_fixed():
    design = tiny_design()
    chains = [(Family.NORMAL, fixed_chain([1.0, 0.25]))]
    a = simulate_pf(
        chains, np.array([0.3]), design, 1.2, N=50, M=50, rng=np.random.default_rng(4)
    )
    b = simulate_pf(
        chains, np.array([[0.3]]), design, 1.2, N=50, M=50, rng=np.random.default_rng(4)
    )
    assert np.array_equal(a.p, b.p)


def test_simulate_pf_builds_one_predictor_per_distinct_theta_row(monkeypatch):
    # a theta chain repeats rows wherever the sampler rejected a proposal;
    # each distinct row gets one predictor however often it is drawn, and
    # the draws match predictors rebuilt at every outer iteration
    design = tiny_design()
    chains = [(Family.NORMAL, np.array([[1.0, 0.25], [1.1, 0.2]]))]
    draws = np.array([[0.0], [0.5], [0.5], [1.0], [0.0], [0.5]])
    built = []

    class CountingModel(KrigingModel):
        def __init__(self, design, theta, **kwargs):
            built.append(np.asarray(theta).tolist())
            super().__init__(design, theta, **kwargs)

    monkeypatch.setattr(failure, "KrigingModel", CountingModel)
    post = simulate_pf(chains, draws, design, 1.2, N=60, M=20, rng=np.random.default_rng(5))
    assert len(built) == len({tuple(row) for row in built}) <= 3

    # the same stream by hand, one model per outer iteration
    rng = np.random.default_rng(5)
    expected = []
    for _ in range(60):
        mu, var = chains[0][1][rng.integers(2)]
        model = KrigingModel(design, draws[rng.integers(len(draws))], nugget=0.0)
        z_hat, s0, _, _ = model.predict_batch(rng.normal(mu, np.sqrt(var), size=20)[:, None])
        expected.append(float(np.mean(exceedance_probability(z_hat, s0, 1.2))))
    assert post.p.tolist() == expected


FIXTURE_THETA = np.array([0.8, 1.0, 1.2, 0.9])
REPEATED_ROWS = FIXTURE_THETA + np.array([[0.0], [0.3], [0.0], [0.3], [-0.2]])


@pytest.mark.parametrize("theta", [FIXTURE_THETA, REPEATED_ROWS], ids=["fixed", "repeated_rows"])
def test_simulate_pf_on_fixture_matches_predict_batch_loop_bit_for_bit(theta):
    # the K=4 fixture study, two retained rows per input chain: the draws
    # equal a hand loop through predict_batch with the same random stream
    ds = synth_study(seed=8000)
    design = GpDesign(S=ds.design, Z=ds.outputs, standardize=True)
    chains = []
    for spec in ds.variables:
        mle = mle_fit(spec).as_array()
        chains.append((spec.family, np.vstack([mle, mle * [1.02, 0.97]])))
    N, M, z_crit = 30, 200, 0.5
    post = simulate_pf(chains, theta, design, z_crit, N=N, M=M, rng=np.random.default_rng(21))

    rng = np.random.default_rng(21)
    rows = np.atleast_2d(theta)

    def pick(draws):
        return draws[rng.integers(len(draws))] if len(draws) > 1 else draws[0]

    expected = []
    for _ in range(N):
        marginals = [params_from_array(fam, pick(draws)) for fam, draws in chains]
        model = KrigingModel(design, pick(rows), nugget=0.0)
        pts = np.column_stack([sample(m, rng, size=M) for m in marginals])
        z_hat, s0, _, _ = model.predict_batch(pts)
        expected.append(float(np.mean(exceedance_probability(z_hat, s0, z_crit))))
    assert post.p.tolist() == expected
    assert 0.0 < min(expected)


def test_simulate_pf_monotone_in_z_crit():
    design = tiny_design()
    chains = [(Family.NORMAL, fixed_chain([1.0, 0.25]))]
    means = []
    for zc in (0.5, 1.0, 1.5):
        post = simulate_pf(
            chains, np.array([0.0]), design, zc, N=100, M=200, rng=np.random.default_rng(7)
        )
        means.append(float(np.mean(post.p)))
    assert means[0] > means[1] > means[2]


def test_simulate_pf_inner_doubling_tightens_spread():
    # with point-mass posteriors every outer draw is iid MC noise; doubling M
    # shrinks the spread of p by about 1/sqrt(2)
    design = tiny_design()
    chains = [(Family.NORMAL, fixed_chain([1.0, 0.25]))]
    rng1 = np.random.default_rng(11)
    rng2 = np.random.default_rng(12)
    post_m = simulate_pf(chains, np.array([0.0]), design, 1.2, N=400, M=100, rng=rng1)
    post_2m = simulate_pf(chains, np.array([0.0]), design, 1.2, N=400, M=200, rng=rng2)
    ratio = float(np.std(post_2m.p) / np.std(post_m.p))
    assert 0.55 < ratio < 0.9  # near 1/sqrt(2) ~ 0.707


def test_simulate_pf_theta_draws_consume_rng():
    design = tiny_design()
    chains = [(Family.NORMAL, fixed_chain([1.0, 0.25]))]
    draws = np.array([[0.0], [0.5], [1.0]])
    post = simulate_pf(
        chains, draws, design, 1.2, N=40, M=50, rng=np.random.default_rng(5)
    )
    assert post.p.shape == (40,)
    assert np.all((post.p >= 0) & (post.p <= 1))


def test_simulate_pf_validation():
    design = tiny_design()
    chains = [(Family.NORMAL, fixed_chain([1.0, 0.25]))]
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        simulate_pf(chains, np.array([0.0]), design, 1.0, N=0, M=10, rng=rng)
    with pytest.raises(ValueError):
        simulate_pf([], np.array([0.0]), design, 1.0, N=10, M=10, rng=rng)
    with pytest.raises(ValueError):
        simulate_pf(chains, np.array([0.0, 1.0]), design, 1.0, N=10, M=10, rng=rng)


def test_posterior_validates_range():
    with pytest.raises(ValueError):
        FailurePosterior(p=np.array([-0.1]), z_crit=1.0, N=1, M=1)
    with pytest.raises(ValueError):
        FailurePosterior(p=np.array([1.1]), z_crit=1.0, N=1, M=1)


# ---------------------------------------------------------------- summaries


def test_summarize_small_example():
    post = FailurePosterior(
        p=np.array([0.0, 0.0, 0.0, 4e-6]), z_crit=3.0, N=4, M=10
    )
    s = summarize(post, target=1e-6)
    assert s["mean"] == pytest.approx(1e-6)
    assert s["median"] == 0.0
    assert s["mean_per_target"] == pytest.approx(1.0)
    assert s["median_below_target"] is True
    assert s["mean_below_target"] is False


def test_summarize_constant_vector():
    post = FailurePosterior(p=np.full(10, 2e-6), z_crit=3.0, N=10, M=10)
    s = summarize(post)
    assert s["mean"] == pytest.approx(2e-6)
    assert s["ci_lower"] == pytest.approx(2e-6)
    assert s["ci_upper"] == pytest.approx(2e-6)
    assert s["mean_below_target"] is False
    assert s["median_below_target"] is False
