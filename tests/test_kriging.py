import math
import warnings

import numpy as np
import pytest
from scipy import linalg
from scipy.spatial.distance import cdist

from reliagp import gp
from reliagp.gp import FactorizationError, GpDesign, covariance_matrix, cross_covariance, fit_reml
from reliagp.ingest import synth_study
from reliagp.kriging import (
    KrigingModel,
    KrigingStack,
    held_out_predictions,
    loo_diagnostics,
    loo_predictions,
)


def random_design(rng, n=6, K=2):
    S = rng.uniform(0, 2, (n, K))
    Z = rng.normal(size=n)
    return GpDesign(S=S, Z=Z)


# ------------------------------------------------------------- interpolation


def test_exact_interpolation_at_training_points():
    rng = np.random.default_rng(0)
    d = random_design(rng, n=7, K=2)
    model = KrigingModel(d, np.array([0.3, -0.2]), alpha=1.5, nugget=0.0)
    for i in range(d.n):
        p = model.predict(d.S[i])
        assert p.z_hat == pytest.approx(d.Z[i], abs=1e-7)
        assert p.S0 == pytest.approx(0.0, abs=1e-4)


def test_far_field_reverts_to_gls_mean():
    rng = np.random.default_rng(1)
    d = random_design(rng, n=6, K=1)
    theta = np.array([0.0])
    model = KrigingModel(d, theta, alpha=2.0, nugget=0.0)
    p = model.predict(np.array([1e6]))
    beta = model.work.beta_hat[0]
    assert p.z_hat == pytest.approx(beta, abs=1e-12)
    # far-field MSPE: alpha * (1 + (1^T V^-1 1)^-1)
    V = covariance_matrix(d.S, theta)
    ones = np.ones(d.n)
    extra = 1.0 / float(ones @ np.linalg.solve(V, ones))
    assert p.mspe_raw == pytest.approx(2.0 * (1.0 + extra), rel=1e-10)


# ---------------------------------------------------------- Lagrange oracle


def lagrange_blup(design, theta, alpha, s0, nugget=0.0):
    """BLUP via the bordered Lagrange system:

        [Sigma  X] [gamma]   [phi]
        [X^T    0] [mu   ] = [x0 ]

    z_hat = gamma^T Z,  MSPE = sigma0^2 - 2 gamma^T phi + gamma^T Sigma gamma.
    """
    V = covariance_matrix(design.coords, theta, nugget)
    Sigma = alpha * V
    phi = alpha * cross_covariance(design.coords, design.transform(s0[None, :]), theta)[:, 0]
    X = design.X
    n, q = design.n, design.q
    A = np.zeros((n + q, n + q))
    A[:n, :n] = Sigma
    A[:n, n:] = X
    A[n:, :n] = X.T
    rhs = np.concatenate([phi, np.ones(q)])
    sol = np.linalg.solve(A, rhs)
    gamma = sol[:n]
    z_hat = float(gamma @ design.Z)
    sigma0_sq = alpha * (1.0 + nugget)
    mspe = sigma0_sq - 2.0 * float(gamma @ phi) + float(gamma @ Sigma @ gamma)
    return z_hat, mspe


@pytest.mark.parametrize("seed", range(10))
def test_matches_lagrange_system_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(3, 9))
    K = int(rng.integers(1, 4))
    d = random_design(rng, n=n, K=K)
    # keep the correlation matrix well conditioned so a 1e-9 comparison
    # between two solution paths is meaningful
    while True:
        theta = rng.uniform(-1.0, 1.0, K)
        if np.linalg.cond(covariance_matrix(d.S, theta)) < 1e6:
            break
    alpha = float(rng.uniform(0.5, 3.0))
    model = KrigingModel(d, theta, alpha=alpha, nugget=0.0)
    for _ in range(3):
        s0 = rng.uniform(-0.5, 2.5, K)
        p = model.predict(s0)
        # use whatever nugget the factorization settled on
        z_ref, mspe_ref = lagrange_blup(d, theta, alpha, s0, nugget=model.nugget)
        assert p.z_hat == pytest.approx(z_ref, abs=1e-9 * max(1.0, abs(z_ref)))
        assert p.mspe_raw == pytest.approx(mspe_ref, abs=1e-9 * max(1.0, alpha))


def test_nonzero_nugget_matches_oracle():
    rng = np.random.default_rng(7)
    d = random_design(rng, n=5, K=2)
    theta = np.array([0.2, -0.5])
    model = KrigingModel(d, theta, alpha=1.2, nugget=1e-4)
    s0 = np.array([0.7, 1.1])
    p = model.predict(s0)
    z_ref, mspe_ref = lagrange_blup(d, theta, 1.2, s0, nugget=1e-4)
    assert p.z_hat == pytest.approx(z_ref, abs=1e-9)
    assert p.mspe_raw == pytest.approx(mspe_ref, abs=1e-9)


# --------------------------------------------------------------- edge cases


def test_single_training_point():
    d = GpDesign(S=np.array([[0.0]]), Z=np.array([2.5]))
    model = KrigingModel(d, np.array([0.0]), alpha=1.0, nugget=0.0)
    at_data = model.predict(np.array([0.0]))
    assert at_data.z_hat == pytest.approx(2.5)
    far = model.predict(np.array([100.0]))
    assert far.z_hat == pytest.approx(2.5)  # beta_hat equals the single output


def test_scale_estimate_requires_enough_points():
    d = GpDesign(S=np.array([[0.0]]), Z=np.array([2.5]))
    with pytest.raises(ValueError):
        KrigingModel(d, np.array([0.0]))


def test_mspe_nonnegative_after_clamp():
    rng = np.random.default_rng(3)
    d = random_design(rng, n=8, K=2)
    model = KrigingModel(d, np.array([1.0, 1.0]), alpha=1.0)
    pts = rng.uniform(0, 2, (50, 2))
    _, s0, _, _ = model.predict_batch(pts)
    assert np.all(s0 >= 0.0)


def test_permutation_invariance():
    rng = np.random.default_rng(4)
    d = random_design(rng, n=7, K=2)
    theta = np.array([0.1, 0.4])
    perm = rng.permutation(7)
    dp = GpDesign(S=d.S[perm], Z=d.Z[perm])
    s0 = np.array([0.5, 0.8])
    a = KrigingModel(d, theta, alpha=1.0, nugget=0.0).predict(s0)
    b = KrigingModel(dp, theta, alpha=1.0, nugget=0.0).predict(s0)
    assert a.z_hat == pytest.approx(b.z_hat, abs=1e-10)
    assert a.mspe_raw == pytest.approx(b.mspe_raw, abs=1e-10)


def test_min_design_distance():
    d = GpDesign(S=np.array([[0.0], [1.0]]), Z=np.array([0.0, 1.0]))
    model = KrigingModel(d, np.array([0.0]), alpha=1.0)
    p = model.predict(np.array([1.75]))
    assert p.min_design_distance == pytest.approx(0.75)


def test_batch_matches_pointwise():
    rng = np.random.default_rng(6)
    d = random_design(rng, n=6, K=2)
    model = KrigingModel(d, np.array([0.0, 0.3]), alpha=1.0, nugget=0.0)
    pts = rng.uniform(0, 2, (5, 2))
    zb, sb, _, _ = model.predict_batch(pts)
    for i in range(5):
        p = model.predict(pts[i])
        assert zb[i] == pytest.approx(p.z_hat, abs=1e-12)
        assert sb[i] == pytest.approx(p.S0, abs=1e-12)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_point_raises_value_error(bad):
    rng = np.random.default_rng(10)
    d = random_design(rng, n=6, K=2)
    thetas = np.array([[0.2, -0.1], [0.5, 0.0]])
    model = KrigingModel(d, thetas[0], alpha=1.0, nugget=0.0)
    stack = KrigingStack(d, thetas, alpha=1.0)
    pts = rng.uniform(0, 2, (4, 2))
    pts[2, 1] = bad
    for call in (model.predict_batch, model.krige, stack.krige):
        with pytest.raises(ValueError, match="infs or NaNs"):
            call(pts)
    with pytest.raises(ValueError, match="infs or NaNs"):
        model.predict(pts[2])


def test_min_dist_is_brute_force_distance_in_standardized_coordinates():
    rng = np.random.default_rng(11)
    spread = np.array([1.0, 10.0, 100.0])
    S = rng.uniform(0, 1, (8, 3)) * spread
    d = GpDesign(S=S, Z=rng.normal(size=8), standardize=True)
    pts = rng.uniform(0, 1, (20, 3)) * spread
    pts[0] = S[4]
    *_, min_dist = KrigingModel(d, np.zeros(3), alpha=1.0).predict_batch(pts)
    coords, new = (S - S.mean(axis=0)) / S.std(axis=0), (pts - S.mean(axis=0)) / S.std(axis=0)
    brute = np.sqrt(np.sum((new[:, None, :] - coords[None, :, :]) ** 2, axis=2)).min(axis=1)
    assert min_dist == pytest.approx(brute, rel=1e-9, abs=1e-6)
    assert brute[1:].min() > 1e-3


# ----------------------------------------------- the K=4 fixture study


@pytest.fixture(scope="module")
def fixture_study():
    """The K=4 fixture design, its REML theta, and trial points: the 25
    design points, 1000 points jittered around them by 1e-6 to 1e-2 input
    standard deviations, and 500 points uniform over the design's box."""
    ds = synth_study(seed=8000)
    design = GpDesign(S=ds.design, Z=ds.outputs, standardize=True)
    theta = fit_reml(design, hessian=False).theta
    rng = np.random.default_rng(2)
    S = design.S
    jitter = 10.0 ** rng.uniform(-6, -2, size=(1000, 1)) * S.std(axis=0)
    near = np.repeat(S, 40, axis=0) + rng.normal(size=(1000, 4)) * jitter
    broad = S.min(axis=0) + rng.uniform(size=(500, 4)) * (S.max(axis=0) - S.min(axis=0))
    return ds, design, theta, np.vstack([S, near, broad])


def row_layout_z_hat(design, work, pts):
    """The kriged mean as the row-layout formula computes it: squared
    distances between (m, K) point rows as sums of squared coordinate
    differences, then x0^T beta_hat + v0^T V^-1 (Z - X beta_hat)."""
    mu, sd = design.S.mean(axis=0), design.S.std(axis=0)
    scale = np.exp(work.theta)
    A, B = ((design.S - mu) / sd) / scale, ((pts - mu) / sd) / scale
    v0 = np.exp(-cdist(A, B, "sqeuclidean"))
    c_inv_resid = linalg.solve_triangular(work.L, work.Zw - work.Xw @ work.beta_hat, lower=True, trans=1)
    return np.ones((len(pts), 1)) @ work.beta_hat + v0.T @ c_inv_resid


def test_z_hat_is_the_row_layout_formula_bit_for_bit(fixture_study):
    _, design, theta, pts = fixture_study
    rows = theta + np.random.default_rng(4).normal(0.0, 0.5, size=(5, 4))
    model = KrigingModel(design, theta)
    assert model.krige(pts)[0].tolist() == row_layout_z_hat(design, model.work, pts).tolist()
    z_stack, _, _ = KrigingStack(design, rows).krige(pts)
    for b, row in enumerate(rows):
        expected = row_layout_z_hat(design, KrigingModel(design, row).work, pts)
        assert z_stack[b].tolist() == expected.tolist()


def forward_substitution(L, b):
    """L^-1 b in np.longdouble, one row of L at a time."""
    L, b = L.astype(np.longdouble), b.astype(np.longdouble)
    x = np.zeros_like(b)
    for i in range(len(L)):
        x[i] = (b[i] - L[i, :i] @ x[:i]) / L[i, i]
    return x


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="no extended precision")
def test_mspe_matches_an_extended_precision_solve(fixture_study):
    # MSPE / alpha against the same formula in long double on the same
    # float64 factor and cross-covariances
    _, design, theta, pts = fixture_study
    model = KrigingModel(design, theta)
    w = model.work
    _, _, mspe = model.krige(pts)
    v0w = forward_substitution(w.L, cross_covariance(design.coords, design.transform(pts), theta))
    t = forward_substitution(w.L_xtvx, 1.0 - w.Xw.T.astype(np.longdouble) @ v0w)
    reference = (1.0 + w.nugget) - np.sum(v0w**2, axis=0) + np.sum(t**2, axis=0)
    error = np.abs(mspe / model.alpha - reference.astype(float))
    assert error.max() < 1e-13


def test_krige_does_not_depend_on_the_point_layout(fixture_study):
    _, design, theta, pts = fixture_study
    stack = KrigingStack(design, theta + np.array([[0.0], [0.3]]))
    expected = [a.tolist() for a in stack.krige(pts)]
    for layout in (np.asfortranarray(pts), np.ascontiguousarray(pts.T).T):
        assert [a.tolist() for a in stack.krige(layout)] == expected


def test_mspe_warning_does_not_depend_on_output_units(fixture_study):
    # rounding leaves a raw MSPE of about -1e-15 * alpha at a design point;
    # whether that warns must not depend on the units of Z
    ds, _, theta, _ = fixture_study
    counts = []
    for units in (1.0, 1e3, 1e7):
        design = GpDesign(S=ds.design, Z=units * ds.outputs, standardize=True)
        model = KrigingModel(design, theta)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for s0 in design.S:
                model.predict(s0)
        counts.append(sum("MSPE clamped" in str(c.message) for c in caught))
    assert counts == [counts[0]] * 3


# ------------------------------------------------------------ leave-one-out


def test_loo_constant_outputs():
    rng = np.random.default_rng(8)
    S = rng.uniform(0, 1, (5, 1))
    d = GpDesign(S=S, Z=np.full(5, 7.0))
    z_hat, s0 = loo_predictions(d, np.array([0.0]))
    assert np.allclose(z_hat, 7.0, atol=1e-9)


def test_loo_three_points_manual():
    d = GpDesign(S=np.array([[0.0], [1.0], [2.0]]), Z=np.array([1.0, 3.0, 2.0]))
    theta = np.array([0.5])
    z_hat, s0 = loo_predictions(d, theta)
    for i in range(3):
        keep = np.arange(3) != i
        reduced = GpDesign(S=d.S[keep], Z=d.Z[keep])
        model = KrigingModel(reduced, theta, nugget=0.0)
        p = model.predict(d.S[i])
        assert z_hat[i] == pytest.approx(p.z_hat, abs=1e-12)
        assert s0[i] == pytest.approx(p.S0, abs=1e-12)


def test_held_out_stack_equals_lone_models_bit_for_bit(monkeypatch):
    # T theta rows per fold in one stack against T lone models: theta = 7
    # needs a nugget (the stack's Cholesky then fails and every member takes
    # the per-member escalation), and theta = 8 cannot be factorized on
    # fold 2 only; that fold fails, every other fold and member is exact
    ds = synth_study(seed=8000)
    design = GpDesign(S=ds.design, Z=ds.outputs, standardize=True)
    rng = np.random.default_rng(3)
    thetas = np.vstack([rng.normal(3.0, 0.6, size=(4, 4)), np.full((1, 4), 7.0), np.full((1, 4), 8.0)])
    # the key is fold 2's whole V(8) below the diagonal: folds 3-24 share
    # its first rows
    forced = np.tril(covariance_matrix(design.drop_row(2).coords, thetas[5]), -1)
    ladder = gp.cholesky_with_nugget

    def failing_ladder(M, n, nugget):
        if np.array_equal(np.tril(M[:n, :n], -1), forced):
            raise FactorizationError("forced")
        return ladder(M, n, nugget)

    monkeypatch.setattr(gp, "cholesky_with_nugget", failing_ladder)
    for i in range(design.n):
        fold = design.drop_row(i)
        pt, x0 = design.S[i][None, :], design.X[i][None, :]
        if i == 2:
            with pytest.raises(FactorizationError):
                held_out_predictions(design, i, thetas)
            stack = KrigingStack(fold, thetas)
            assert [type(e) for e in stack.error] == [type(None)] * 5 + [FactorizationError]
            with pytest.raises(FactorizationError):
                KrigingModel(fold, thetas[5], nugget=0.0)
            z, s0, _ = stack.krige(pt, x0)
            assert np.isnan(z[5]).all() and np.isnan(s0[5]).all()
            members = range(5)
        else:
            z, s0 = held_out_predictions(design, i, thetas)
            z, s0 = z[:, None], s0[:, None]
            members = range(6)
        for j in members:
            lone = KrigingModel(fold, thetas[j], nugget=0.0)
            assert lone.nugget > 0.0 or j != 4
            z_j, s_j, _, _ = lone.predict_batch(pt, x0)
            assert z[j].tolist() == z_j.tolist() and s0[j].tolist() == s_j.tolist()


def test_loo_requires_three_points():
    d = GpDesign(S=np.array([[0.0], [1.0]]), Z=np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        loo_predictions(d, np.array([0.0]))


def test_loo_diagnostics_values():
    obs = np.array([1.0, 2.0, 3.0, 4.0])
    stats = loo_diagnostics(obs, obs)
    assert stats["correlation"] == pytest.approx(1.0)
    assert stats["sse"] == 0.0
    assert stats["signal_to_noise"] == math.inf

    pred = np.array([1.1, 1.9, 3.2, 3.8])
    stats = loo_diagnostics(obs, pred)
    resid = obs - pred
    assert stats["sse"] == pytest.approx(float(np.sum(resid**2)))
    assert stats["signal_to_noise"] == pytest.approx(float(np.var(pred) / np.var(resid)))
