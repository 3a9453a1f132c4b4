import math

import numpy as np
import pytest

from reliagp import tuning
from reliagp.gp import GpDesign, bayes_log_posterior, fit_reml
from reliagp.ingest import synth_study
from reliagp.kriging import KrigingModel
from reliagp.mcmc import AmSettings, am_sample, default_init_cov, remove_burn_in
from reliagp.tuning import CvReport, cv_hyperparams, cv_lambda, fold_rng


def smooth_design(rng, n=5, K=1):
    S = np.sort(rng.uniform(0, 3, (n, K)), axis=0)
    Z = np.sin(S.sum(axis=1)) + 0.1 * rng.normal(size=n)
    return GpDesign(S=S, Z=Z)


def test_report_rejects_negative_scores():
    with pytest.raises(ValueError):
        CvReport(candidates=[1.0], scores=np.array([-0.1]), winner=0)


def test_fold_rng_deterministic_and_distinct():
    a = fold_rng(7, 0, 1).uniform(size=3)
    b = fold_rng(7, 0, 1).uniform(size=3)
    c = fold_rng(7, 1, 1).uniform(size=3)
    d = fold_rng(7, 0, 2).uniform(size=3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_cv_lambda_single_candidate():
    rng = np.random.default_rng(0)
    d = smooth_design(rng, n=5)
    report = cv_lambda(d, [2.0], restarts=2, master_seed=1)
    assert report.winner == 0
    assert report.scores.shape == (1,)
    assert math.isfinite(report.scores[0])
    assert report.scores[0] >= 0


def test_cv_lambda_constant_outputs_zero_score():
    rng = np.random.default_rng(1)
    d = GpDesign(S=rng.uniform(0, 1, (4, 1)), Z=np.full(4, 5.0))
    report = cv_lambda(d, [0.5, 2.0], restarts=2, master_seed=1)
    assert np.allclose(report.scores, 0.0, atol=1e-18)


def test_cv_lambda_brute_force_bit_identical():
    # recompute every fold by hand with the same per-fold streams; scores
    # must match bit for bit
    rng = np.random.default_rng(2)
    d = smooth_design(rng, n=4, K=1)
    lambdas = [1.0, 3.0]
    report = cv_lambda(d, lambdas, restarts=2, master_seed=11)

    for q, lam in enumerate(lambdas):
        total = 0.0
        for i in range(d.n):
            fold_stream = fold_rng(11, q, i)
            reduced = d.drop_row(i)
            fit = fit_reml(reduced, lam=lam, restarts=2, rng=fold_stream)
            model = KrigingModel.from_fit(fit, reduced)
            z, _, _, _ = model.predict_batch(d.S[i][None, :], d.X[i][None, :])
            total += (d.Z[i] - float(z[0])) ** 2
        assert report.scores[q] == total  # exact equality


def test_cv_lambda_needs_three_points():
    d = GpDesign(S=np.array([[0.0], [1.0]]), Z=np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        cv_lambda(d, [1.0])


def test_cv_lambda_empty_candidates():
    rng = np.random.default_rng(3)
    d = smooth_design(rng)
    with pytest.raises(ValueError):
        cv_lambda(d, [])


def test_cv_hyperparams_deterministic_given_seed():
    rng = np.random.default_rng(4)
    d = smooth_design(rng, n=4)
    settings = AmSettings(d=1, t=1000, t0=100, t2=100)
    a = cv_hyperparams(d, [(0.0, 1.0), (0.5, 2.0)], settings, master_seed=5)
    b = cv_hyperparams(d, [(0.0, 1.0), (0.5, 2.0)], settings, master_seed=5)
    assert np.array_equal(a.scores, b.scores)
    assert a.winner == b.winner
    # duplicated candidates draw distinct per-candidate streams, so their
    # scores are close in distribution but not bit-identical
    dup = cv_hyperparams(d, [(0.0, 1.0), (0.0, 1.0)], settings, master_seed=5)
    assert np.all(np.isfinite(dup.scores))


def test_cv_hyperparams_posthoc_recomputation():
    # recompute a candidate's score from scratch: rerun each fold's chain
    # with the same per-fold stream and average the per-draw summed losses
    rng = np.random.default_rng(5)
    d = smooth_design(rng, n=4, K=1)
    settings = AmSettings(d=1, t=2000, t0=200, t2=100)
    tau, nu_sq = 0.0, 1.0
    burn = 0.2
    report = cv_hyperparams(d, [(tau, nu_sq)], settings, burn_in=burn, master_seed=9)

    n_kept = settings.n_retained - int(math.floor(burn * settings.n_retained))
    per_draw = np.zeros(n_kept)
    for i in range(d.n):
        stream = fold_rng(9, 0, i)
        reduced = d.drop_row(i)
        target = bayes_log_posterior(reduced, tau, nu_sq, 0.0)
        init = np.zeros(1)
        chain = remove_burn_in(
            am_sample(target, init, default_init_cov(target, init), settings, stream), burn
        )
        for j in range(chain.rows):
            model = KrigingModel(reduced, chain.draws[j], nugget=0.0)
            z, _, _, _ = model.predict_batch(d.S[i][None, :], d.X[i][None, :])
            per_draw[j] += (d.Z[i] - float(z[0])) ** 2
    assert report.scores[0] == pytest.approx(float(np.mean(per_draw)), abs=1e-12)


def test_cv_hyperparams_single_retained_draw():
    # t == t2 keeps exactly one state per fold: the score reduces to the sum
    # of squared errors at those single draws
    rng = np.random.default_rng(6)
    d = smooth_design(rng, n=4, K=1)
    settings = AmSettings(d=1, t=100, t0=10, t2=100)
    report = cv_hyperparams(d, [(0.0, 1.0)], settings, burn_in=0.0, master_seed=3)
    assert report.scores.shape == (1,)
    assert math.isfinite(report.scores[0])

    total = 0.0
    for i in range(d.n):
        stream = fold_rng(3, 0, i)
        reduced = d.drop_row(i)
        target = bayes_log_posterior(reduced, 0.0, 1.0, 0.0)
        init = np.zeros(1)
        chain = am_sample(target, init, default_init_cov(target, init), settings, stream)
        model = KrigingModel(reduced, chain.draws[0], nugget=0.0)
        z, _, _, _ = model.predict_batch(d.S[i][None, :], d.X[i][None, :])
        total += (d.Z[i] - float(z[0])) ** 2
    assert report.scores[0] == total


def test_cv_hyperparams_invalid_prior_gives_inf():
    rng = np.random.default_rng(7)
    d = smooth_design(rng, n=4)
    settings = AmSettings(d=1, t=500, t0=100, t2=100)
    # tau far outside the theta box: the chain cannot start
    report = cv_hyperparams(d, [(50.0, 0.01), (0.0, 1.0)], settings, master_seed=2)
    assert report.scores[0] == math.inf
    assert report.winner == 1


def test_fold_losses_recorded():
    rng = np.random.default_rng(8)
    d = smooth_design(rng, n=4)
    report = cv_lambda(d, [2.0], restarts=2, master_seed=1)
    assert report.fold_losses.shape == (1, 4)
    assert report.scores[0] == pytest.approx(float(np.nansum(report.fold_losses[0])))


def sequential_cv_hyperparams(d, candidates, settings, burn, seed, failed=()):
    """cv_hyperparams as one chain after another, folds in order; a
    candidate stops at its first failed fold, and (q, i) in ``failed``
    fails as a sampler error would."""
    n_kept = settings.n_retained - int(math.floor(burn * settings.n_retained))
    scores = np.full(len(candidates), math.inf)
    fold_losses = np.full((len(candidates), d.n), np.nan)
    for q, (tau, nu_sq) in enumerate(candidates):
        per_draw = np.zeros(n_kept)
        for i in range(d.n):
            reduced = d.drop_row(i)
            target = bayes_log_posterior(reduced, tau, nu_sq, 0.0)
            init = np.full(d.K, tau)
            if not math.isfinite(target(init)) or (q, i) in failed:
                break
            stream = fold_rng(seed, q, i)
            chain = remove_burn_in(
                am_sample(target, init, default_init_cov(target, init), settings, stream), burn
            )
            z = np.array(
                [
                    KrigingModel(reduced, theta, nugget=0.0).predict_batch(d.S[i][None, :], d.X[i][None, :])[0][0]
                    for theta in chain.draws
                ]
            )
            losses = (d.Z[i] - z) ** 2
            per_draw += losses
            fold_losses[q, i] = float(np.mean(losses))
        else:
            scores[q] = float(np.mean(per_draw))
    return scores, fold_losses


@pytest.fixture(scope="module")
def fixture_design():
    ds = synth_study(seed=8000)
    return GpDesign(S=ds.design[:10], Z=ds.outputs[:10], standardize=True)


def test_lockstep_cv_equals_sequential_chains(fixture_design):
    # all chains of all candidates in one lockstep run against one chain at a
    # time, at K=4; tau=50 cannot start its chains and must fail alone
    d = fixture_design
    settings = AmSettings(d=4, t=300, t0=50, t2=10)
    candidates = [(3.0, 0.26), (50.0, 0.26), (2.5, 0.5)]
    report = cv_hyperparams(d, candidates, settings, burn_in=0.2, master_seed=17)
    scores, fold_losses = sequential_cv_hyperparams(d, candidates, settings, 0.2, 17)
    assert report.scores.tolist() == scores.tolist()
    assert np.array_equal(report.fold_losses, fold_losses, equal_nan=True)
    assert report.scores[1] == math.inf and np.isnan(report.fold_losses[1]).all()
    assert np.isfinite(report.scores[[0, 2]]).all()


def test_failed_chain_fails_only_its_candidate(fixture_design, monkeypatch):
    # a chain whose sampler fails mid-candidate ends that candidate at its
    # fold: earlier folds keep their losses, the rest are NaN, and the other
    # candidate's score is untouched
    d = fixture_design
    settings = AmSettings(d=4, t=200, t0=50, t2=10)
    candidates = [(3.0, 0.26), (2.5, 0.5)]
    lockstep = tuning.am_sample_lockstep

    def fail_one_chain(log_target, inits, init_covs, settings, rngs):
        chains = lockstep(log_target, inits, init_covs, settings, rngs)
        chains[d.n + 4] = RuntimeError("proposal covariance lost positive definiteness")
        return chains

    monkeypatch.setattr(tuning, "am_sample_lockstep", fail_one_chain)
    report = cv_hyperparams(d, candidates, settings, master_seed=5)
    scores, fold_losses = sequential_cv_hyperparams(d, candidates, settings, 0.2, 5, failed={(1, 4)})
    assert report.scores.tolist() == scores.tolist()
    assert np.array_equal(report.fold_losses, fold_losses, equal_nan=True)
    assert report.scores[1] == math.inf
    assert np.isfinite(report.fold_losses[1, :4]).all() and np.isnan(report.fold_losses[1, 4:]).all()
    assert report.winner == 0
