import math

import numpy as np
import pytest
from scipy import integrate, linalg

from reliagp import gp
from reliagp.gp import (
    FactorizationError,
    GpDesign,
    GpStack,
    GpWork,
    bayes_log_posterior,
    bayes_log_posterior_stack,
    covariance_matrix,
    cross_covariance,
    fit_reml,
    hessian_nu_estimate,
    nll_bayes,
    nll_reml,
    nll_reml_regularized,
    nll_reml_regularized_grad,
)
from reliagp.ingest import synth_study


def random_design(rng, n=6, K=2, q=1):
    S = rng.uniform(0, 1, (n, K))
    Z = rng.normal(size=n)
    X = None if q == 1 else rng.normal(size=(n, q))
    return GpDesign(S=S, Z=Z, X=X)


@pytest.mark.parametrize("name", ["S", "Z", "X"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_design_rejects_non_finite_arrays(name, bad):
    rng = np.random.default_rng(1)
    arrays = {"S": rng.uniform(size=(6, 2)), "Z": rng.normal(size=6), "X": np.ones((6, 1))}
    arrays[name][3] = bad
    with pytest.raises(ValueError, match=f"design array {name} has non-finite entries"):
        GpDesign(**arrays)


# ---------------------------------------------------------------- covariance


def test_unit_diagonal():
    rng = np.random.default_rng(0)
    V = covariance_matrix(rng.uniform(size=(5, 3)), np.array([0.3, -1.0, 2.0]))
    assert np.allclose(np.diag(V), 1.0)
    assert np.array_equal(V, V.T)


def test_covariance_single_pair():
    V = covariance_matrix(np.array([[0.0], [1.0]]), np.array([0.0]))
    assert V[0, 1] == pytest.approx(math.exp(-1.0))


def test_covariance_long_range_limit():
    rng = np.random.default_rng(1)
    V = covariance_matrix(rng.uniform(size=(4, 2)), np.array([30.0, 30.0]))
    assert np.all(np.abs(V - 1.0) < 1e-6)


def test_covariance_nugget_on_diagonal():
    V = covariance_matrix(np.array([[0.0], [1.0]]), np.array([0.0]), nugget=1e-3)
    assert V[0, 0] == pytest.approx(1.001)


def test_covariance_keeps_its_digits_for_close_rows():
    # two rows 1e-4 apart at coordinate 100: |a|^2 + |b|^2 - 2 a.b cancels
    # about eight of its digits there, one squared difference cancels none
    V = covariance_matrix(np.array([[100.0, 0.0], [100.0 + 1e-4, 0.0]]), np.zeros(2))
    assert 1.0 - V[0, 1] == pytest.approx(-math.expm1(-1e-8), rel=1e-7, abs=0)


def test_cross_covariance_keeps_its_digits_for_close_rows():
    # the same two rows, one a design row and one a new point: the cross
    # covariance must not cancel the digits that V keeps
    design = GpDesign(S=[[100.0, 0.0]], Z=[0.0])
    new = design.transform(np.array([[100.0 + 1e-4, 0.0]]))
    v0 = cross_covariance(design.coords, new, np.zeros(2))
    assert 1.0 - v0[0, 0] == pytest.approx(-math.expm1(-1e-8), rel=1e-7, abs=0)


# ---------------------------------------------------------------------- GLS


def test_gls_reduces_to_mean_when_independent():
    rng = np.random.default_rng(2)
    # theta = -10: correlations vanish, V = I
    d = random_design(rng, n=8)
    theta = np.full(2, -10.0)
    w = GpWork(d, theta, nugget=0.0)
    beta, g_sq = w.beta_hat, w.G_sq
    assert beta[0] == pytest.approx(d.Z.mean(), abs=1e-10)
    assert g_sq == pytest.approx(np.sum((d.Z - d.Z.mean()) ** 2), rel=1e-10)


def test_gls_reduces_to_ols():
    rng = np.random.default_rng(3)
    d = random_design(rng, n=10, q=2)
    theta = np.full(2, -10.0)
    beta = GpWork(d, theta, nugget=0.0).beta_hat
    ols = np.linalg.lstsq(d.X, d.Z, rcond=None)[0]
    assert np.allclose(beta, ols, atol=1e-9)


def test_g_sq_equals_explicit_h_quadratic_form():
    rng = np.random.default_rng(4)
    d = random_design(rng, n=6)
    theta = np.array([0.2, -0.4])
    g_sq = GpWork(d, theta, nugget=0.0).G_sq
    V = covariance_matrix(d.S, theta)
    Vi = np.linalg.inv(V)
    X = d.X
    H = Vi - Vi @ X @ np.linalg.inv(X.T @ Vi @ X) @ X.T @ Vi
    assert g_sq == pytest.approx(float(d.Z @ H @ d.Z), abs=1e-10)


def test_gls_equivariance_under_mean_shift():
    rng = np.random.default_rng(5)
    d = random_design(rng, n=7, q=2)
    theta = np.array([0.0, 0.5])
    w0 = GpWork(d, theta)
    beta0, g0 = w0.beta_hat, w0.G_sq
    c = np.array([1.5, -2.0])
    shifted = GpDesign(S=d.S, Z=d.Z + d.X @ c, X=d.X)
    w1 = GpWork(shifted, theta)
    beta1, g1 = w1.beta_hat, w1.G_sq
    assert np.allclose(beta1, beta0 + c, atol=1e-10)
    assert g1 == pytest.approx(g0, abs=1e-10)


# --------------------------------------------------------------------- NLLs


def _contrast_nll(design, theta, nugget=0.0):
    """REML likelihood from an explicit orthonormal contrast basis."""
    X, Z, n, q = design.X, design.Z, design.n, design.q
    A = linalg.null_space(X.T)  # n x (n-q), orthonormal columns
    V = covariance_matrix(design.coords, theta, nugget)
    AVA = A.T @ V @ A
    W = A.T @ Z
    g_sq = float(W @ np.linalg.solve(AVA, W))
    alpha = g_sq / (n - q)
    _, logdet = np.linalg.slogdet(AVA)
    return (
        0.5 * (n - q) * math.log(2 * math.pi * alpha)
        + 0.5 * logdet
        + 0.5 * g_sq / alpha
    )


def test_reml_independent_case_closed_form():
    rng = np.random.default_rng(8)
    d = random_design(rng, n=9)
    theta = np.full(2, -10.0)
    n = d.n
    s2 = np.sum((d.Z - d.Z.mean()) ** 2) / (n - 1)
    expected = (
        0.5 * (n - 1) * math.log(2 * math.pi)
        + 0.5 * (n - 1) * math.log(s2)
        + 0.5 * (n - 1)
    )
    # with V=I the two design-determinant terms cancel
    assert nll_reml(d, theta, nugget=0.0) == pytest.approx(expected, abs=1e-7)


def test_reml_equals_contrast_likelihood_up_to_constant():
    rng = np.random.default_rng(9)
    d = random_design(rng, n=5, K=1)
    thetas = np.linspace(-2, 2, 20)
    # same explicit nugget on both sides so neither path escalates it
    diffs = [
        _contrast_nll(d, np.array([t]), nugget=1e-6)
        - nll_reml(d, np.array([t]), nugget=1e-6)
        for t in thetas
    ]
    assert max(diffs) - min(diffs) < 1e-8


def test_regularized_reml_trivials():
    rng = np.random.default_rng(10)
    d1 = random_design(rng, n=5, K=1)
    theta = np.array([0.7])
    for lam in (0.0, 1.0, 5.0):
        assert nll_reml_regularized(d1, theta, lam) == nll_reml(d1, theta)

    d2 = random_design(rng, n=6, K=2)
    theta2 = np.array([1.0, 1.0])
    assert nll_reml_regularized(d2, theta2, 3.0) == nll_reml(d2, theta2)

    theta3 = np.array([0.0, 2.0])
    penalty = nll_reml_regularized(d2, theta3, 2.0) - nll_reml(d2, theta3)
    assert penalty == pytest.approx(4.0)


def test_regularized_equals_reml_at_zero_lambda():
    rng = np.random.default_rng(11)
    d = random_design(rng, n=7, K=3)
    for _ in range(5):
        theta = rng.normal(size=3)
        assert nll_reml_regularized(d, theta, 0.0) == nll_reml(d, theta)


def test_bayes_prior_difference_identity():
    rng = np.random.default_rng(12)
    d = random_design(rng, n=6, K=2)
    theta = np.array([0.5, -0.3])
    tau, tau2, nu_sq = 1.0, 2.5, 0.7
    diff = nll_bayes(d, theta, tau, nu_sq) - nll_bayes(d, theta, tau2, nu_sq)
    expected = float(np.sum((theta - tau) ** 2 - (theta - tau2) ** 2)) / (2 * nu_sq)
    assert diff == pytest.approx(expected, abs=1e-10)


def test_bayes_flat_limit_matches_reml_shape():
    # the Bayesian NLL with the prior term removed differs from the REML NLL
    # by a theta-independent constant
    rng = np.random.default_rng(13)
    d = random_design(rng, n=6, K=1)
    tau, nu_sq = 0.0, 1.3
    diffs = []
    for t in np.linspace(-2, 2, 20):
        theta = np.array([t])
        log_prior = -0.5 * math.log(2 * math.pi * nu_sq) - 0.5 * (t - tau) ** 2 / nu_sq
        likelihood_part = nll_bayes(d, theta, tau, nu_sq) + log_prior
        diffs.append(likelihood_part - nll_reml(d, theta))
    assert max(diffs) - min(diffs) < 1e-9


def test_bayes_vague_prior_argmin():
    rng = np.random.default_rng(14)
    d = random_design(rng, n=8, K=1)
    grid = np.linspace(-3, 3, 61)

    def integrated_part(t):
        theta = np.array([t])
        nu_sq = 1e8
        lp = -0.5 * math.log(2 * math.pi * nu_sq) - 0.5 * t**2 / nu_sq
        return nll_bayes(d, theta, 0.0, nu_sq) + lp

    vague = [nll_bayes(d, np.array([t]), 0.0, 1e8) for t in grid]
    pure = [integrated_part(t) for t in grid]
    assert grid[int(np.argmin(vague))] == grid[int(np.argmin(pure))]


def log_marginal_quadrature(design, theta, tau, nu_sq, nugget=0.0):
    """Log of the 2-d (beta, alpha) marginalization quadrature oracle."""
    V = covariance_matrix(design.coords, theta, nugget)
    X, Z, n = design.X, design.Z, design.n
    Vi = np.linalg.inv(V)
    _, logdet_V = np.linalg.slogdet(V)
    K = theta.size
    theta = np.asarray(theta)
    log_pi = float(
        -0.5 * K * math.log(2 * math.pi * nu_sq) - 0.5 * np.sum((theta - tau) ** 2) / nu_sq
    )

    # center the integrand at its approximate peak so the quadrature stays
    # in floating-point range
    beta_hat = ((X.T @ Vi @ Z) / (X.T @ Vi @ X)).item()
    resid_hat = Z - X @ [beta_hat]
    g_sq = float(resid_hat @ Vi @ resid_hat)
    alpha_hat = g_sq / n
    log_c = (
        -0.5 * n * math.log(2 * math.pi * alpha_hat)
        - 0.5 * logdet_V
        - 0.5 * n
        + log_pi
        - math.log(alpha_hat)
    )

    def integrand(beta, alpha):
        resid = Z - X @ [beta]
        quad = float(resid @ Vi @ resid)
        logf = (
            -0.5 * n * math.log(2 * math.pi * alpha)
            - 0.5 * logdet_V
            - 0.5 * quad / alpha
        )
        return math.exp(logf + log_pi - math.log(alpha) - log_c)

    lo, hi = alpha_hat / 200.0, alpha_hat * 200.0
    b_half = 40.0 * math.sqrt(alpha_hat)
    val, err = integrate.dblquad(
        integrand,
        lo,
        hi,
        beta_hat - b_half,
        beta_hat + b_half,
        epsabs=1e-14,
        epsrel=1e-10,
    )
    return math.log(val) + log_c


def test_bayes_marginalization_quadrature_oracle():
    rng = np.random.default_rng(15)
    # spread the inputs so the correlation matrix stays well conditioned
    S = np.sort(rng.uniform(0, 4, (5, 1)), axis=0)
    d = GpDesign(S=S, Z=rng.normal(size=5))
    t1, t2 = np.array([0.2]), np.array([-0.8])
    tau, nu_sq = 0.0, 1.0
    lq1 = log_marginal_quadrature(d, t1, tau, nu_sq)
    lq2 = log_marginal_quadrature(d, t2, tau, nu_sq)
    lb1 = nll_bayes(d, t1, tau, nu_sq, nugget=0.0)
    lb2 = nll_bayes(d, t2, tau, nu_sq, nugget=0.0)
    # exp(-l_B) proportional to the marginal: log ratios must match
    assert lq1 - lq2 == pytest.approx(lb2 - lb1, abs=1e-6)


def test_nll_permutation_invariance():
    rng = np.random.default_rng(16)
    d = random_design(rng, n=7, K=2)
    theta = np.array([0.1, 0.6])
    perm = rng.permutation(7)
    dp = GpDesign(S=d.S[perm], Z=d.Z[perm], X=d.X[perm])
    assert nll_reml(dp, theta) == pytest.approx(nll_reml(d, theta), abs=1e-9)
    assert nll_bayes(dp, theta, 0.5, 1.0) == pytest.approx(
        nll_bayes(d, theta, 0.5, 1.0), abs=1e-9
    )


def test_cholesky_logdet_matches_direct():
    rng = np.random.default_rng(17)
    for n in (4, 6, 8):
        d = random_design(rng, n=n, K=2)
        theta = rng.normal(size=2)
        w = GpWork(d, theta, nugget=0.0)
        V = covariance_matrix(d.S, theta, w.nugget)
        assert w.logdet_V == pytest.approx(np.linalg.slogdet(V)[1], abs=1e-9)


# ------------------------------------------------------------ batched core


def fixture_folds():
    ds = synth_study(seed=8000)
    design = GpDesign(S=ds.design, Z=ds.outputs, standardize=True)
    return [design.drop_row(i) for i in range(design.n)]


def test_stack_equals_lone_evaluations_bit_for_bit(monkeypatch):
    # B fold/theta pairs in one stack against B lone calls: one theta outside
    # the box, one whose factorization needs a nugget (that member alone
    # climbs the nugget ladder; the others keep the stack's factors)
    ladder, climbs = gp.cholesky_with_nugget, []

    def counted_ladder(S, theta, nugget=gp.NUGGET_START):
        climbs.append(theta.tolist())
        return ladder(S, theta, nugget)

    monkeypatch.setattr(gp, "cholesky_with_nugget", counted_ladder)
    folds = fixture_folds()
    rng = np.random.default_rng(20)
    thetas = rng.normal(3.0, 0.6, size=(12, 4))
    thetas[4] = [10.5, 3.0, 3.0, 3.0]
    thetas[7] = 7.0
    members = [folds[(5 * b) % len(folds)] for b in range(len(thetas))]
    taus = np.linspace(2.7, 4.7, len(thetas))
    lp = bayes_log_posterior_stack(members, taus, np.full(len(thetas), 0.26), nugget=0.0)(thetas)
    lone = [bayes_log_posterior(f, t, 0.26, 0.0)(th) for f, t, th in zip(members, taus, thetas)]
    assert lp.tolist() == lone
    assert lp[4] == -math.inf and np.isfinite(np.delete(lp, 4)).all()

    inside = np.delete(np.arange(len(thetas)), 4)
    climbs.clear()
    stack = GpStack(
        np.stack([members[b].coords for b in inside]),
        np.stack([members[b].X for b in inside]),
        np.stack([members[b].Z for b in inside]),
        thetas[inside],
        nugget=0.0,
    )
    assert climbs == [thetas[7].tolist()]
    for k, b in enumerate(inside):
        w = GpWork(members[b], thetas[b], nugget=0.0)
        assert stack.nugget[k] == w.nugget == (1e-8 if b == 7 else 0.0)
        assert stack.logdet_V[k] == w.logdet_V
        assert stack.logdet_xtvx[k] == w.logdet_xtvx
        assert stack.G_sq[k] == w.G_sq
        assert np.array_equal(stack.beta_hat[k], w.beta_hat)
        assert np.array_equal(stack.L[k], w.L)


def test_stack_failed_member_fails_alone(monkeypatch):
    # a member that no nugget can factorize is -inf; its neighbours are not
    folds = fixture_folds()[:3]
    thetas = np.array([[3.0] * 4, [7.0] * 4, [3.5] * 4])
    ladder = gp.cholesky_with_nugget

    def failing_ladder(S, theta, nugget=gp.NUGGET_START):
        if theta[0] == 7.0:
            raise FactorizationError("forced")
        return ladder(S, theta, nugget)

    monkeypatch.setattr(gp, "cholesky_with_nugget", failing_ladder)
    lp = bayes_log_posterior_stack(folds, [3.0] * 3, [0.26] * 3, nugget=0.0)(thetas)
    assert lp[1] == -math.inf
    assert lp[[0, 2]].tolist() == [
        bayes_log_posterior(folds[b], 3.0, 0.26, 0.0)(thetas[b]) for b in (0, 2)
    ]
    with pytest.raises(FactorizationError):
        GpWork(folds[1], thetas[1], nugget=0.0)


def test_lone_target_scores_a_stack_of_rows():
    # bayes_log_posterior's stacked form: m rows under one design, each the
    # lone call's value; all rows in the box take the uncopied stacks, a row
    # outside it the live rows alone
    ds = synth_study(seed=8000)
    target = bayes_log_posterior(GpDesign(S=ds.design, Z=ds.outputs, standardize=True), 3.0, 0.26, 0.0)
    thetas = np.random.default_rng(21).normal(3.0, 0.6, size=(5, 4))
    for rows in (thetas, np.vstack([thetas, [[3.0, -10.5, 3.0, 3.0]]])):
        lp = target.stack(rows)
        assert lp.tolist() == [target(th) for th in rows]
    assert lp[-1] == -math.inf and np.isfinite(lp[:-1]).all()
    assert target.stack(thetas[:1]).tolist() == [target(thetas[0])]


def _failing_ladder(monkeypatch, theta0):
    """cholesky_with_nugget that no nugget satisfies at theta[0] == theta0."""
    ladder = gp.cholesky_with_nugget

    def failing(S, theta, nugget=gp.NUGGET_START):
        if theta[0] == theta0:
            raise FactorizationError("forced")
        return ladder(S, theta, nugget)

    monkeypatch.setattr(gp, "cholesky_with_nugget", failing)


def test_covariance_is_exactly_symmetric():
    # what a symmetrising pass would force holds without one: V equals
    # 0.5 * (V + V^T) bit for bit, stacked and lone, for a design given once
    # at B = 1 and 4, the fixture's 25 folds at B = 62, a K = 1 design and
    # a 25-row one
    rng = np.random.default_rng(23)
    ds = synth_study(seed=8000)
    coords = GpDesign(S=ds.design, Z=ds.outputs, standardize=True).coords
    folds = fixture_folds()
    cases = {
        "once B=1": (coords[None], rng.normal(0.5, 1.0, size=(1, 4))),
        "once B=4": (coords[None], rng.normal(0.5, 1.0, size=(4, 4))),
        "folds B=62": (np.stack([folds[b % 25].coords for b in range(62)]), rng.normal(3.0, 0.6, size=(62, 4))),
        "K=1": (rng.uniform(size=(1, 9, 1)), rng.normal(-1.0, 0.5, size=(3, 1))),
        "n=25": (rng.uniform(size=(2, 25, 3)), rng.normal(-1.0, 0.5, size=(2, 3))),
    }
    for name, (S, thetas) in cases.items():
        V = gp._covariance_stack(S, thetas, 0.0)
        assert V.tobytes() == (0.5 * (V + V.transpose(0, 2, 1))).tobytes(), name
        for b, theta in enumerate(thetas):
            V = covariance_matrix(S[b % len(S)], theta)
            assert V.tobytes() == (0.5 * (V + V.T)).tobytes(), name


STACK_FIELDS = ("nugget", "L", "logdet_V", "Xw", "Zw", "L_xtvx", "logdet_xtvx", "beta_hat", "G_sq")


def test_design_given_once_equals_design_stacked(monkeypatch):
    # one design with a leading axis of 1 against the same design stacked B
    # times: every field bit for bit, with a member that climbs the nugget
    # ladder (theta = 7 at nugget 0) and one that fails (theta = 9)
    _failing_ladder(monkeypatch, 9.0)
    ds = synth_study(seed=8000)
    design = GpDesign(S=ds.design, Z=ds.outputs, standardize=True)
    thetas = np.random.default_rng(22).normal(3.0, 0.6, size=(6, 4))
    thetas[2], thetas[4] = 7.0, 9.0
    B = len(thetas)
    once = GpStack(design.coords[None], design.X[None], design.Z[None], thetas, nugget=0.0)
    stacked = GpStack(
        np.stack([design.coords] * B), np.stack([design.X] * B), np.stack([design.Z] * B), thetas, nugget=0.0
    )
    assert once.nugget[2] == 1e-8 and isinstance(once.error[4], FactorizationError)
    assert list(map(repr, once.error)) == list(map(repr, stacked.error))
    for field in STACK_FIELDS:
        assert getattr(once, field).tobytes() == getattr(stacked, field).tobytes(), field


def _fold_stack(B, seed):
    """GpStack of B fixture folds, fold b % 25 at theta row b ~ N(3, 0.6),
    at nugget 0 as the CV scores them; returns (folds, thetas, stack)."""
    folds = fixture_folds()
    members = [folds[b % len(folds)] for b in range(B)]
    thetas = np.random.default_rng(seed).normal(3.0, 0.6, size=(B, 4))
    S, X, Z = (np.stack([getattr(d, a) for d in members]) for a in ("coords", "X", "Z"))
    return members, thetas, GpStack(S, X, Z, thetas, nugget=0.0)


def _rel_err(a, b):
    return np.linalg.norm(np.asarray(a) - b) / np.linalg.norm(b)


def test_bordered_factor_matches_triangular_solves():
    # the bordered factor's last q + 1 rows against LAPACK's triangular solve
    # with its own L, and log|V| against slogdet, on a q = 2 design and on
    # the fixture's folds at B = 62 (q = 1).  At theta ~ N(3, 0.6) the folds'
    # V reach cond(L) ~ 5e5, where two solves that agree in exact arithmetic
    # differ by up to cond(L) * eps, so there the bound is 1e-12 relative per
    # unit of cond(L) (of cond(V) for log|V|), and the factor's residuals
    # L L^T - V, L Xw - X and L Zw - Z stay within 1e-12 relative unscaled
    d = random_design(np.random.default_rng(27), n=12, K=3, q=2)
    d_thetas = np.random.default_rng(28).normal(-0.5, 0.5, size=(8, 3))
    d_stack = GpStack(d.coords[None], d.X[None], d.Z[None], d_thetas, nugget=0.0)
    members, thetas, stack = _fold_stack(62, 26)
    cases = [(d_stack, b, d, theta) for b, theta in enumerate(d_thetas)]
    cases += [(stack, b, members[b], thetas[b]) for b in range(len(members))]
    for st, b, design, theta in cases:
        assert st.error[b] is None
        L, Xw, Zw = st.L[b], st.Xw[b], st.Zw[b]
        V = covariance_matrix(design.coords, theta, st.nugget[b])
        scale = 1.0 if st is d_stack else np.linalg.cond(L)
        assert _rel_err(Xw, linalg.lapack.dtrtrs(L, design.X, lower=1)[0]) <= 1e-12 * scale
        assert _rel_err(Zw, linalg.lapack.dtrtrs(L, design.Z, lower=1)[0]) <= 1e-12 * scale
        sign, logdet = np.linalg.slogdet(V)
        assert sign == 1.0 and st.logdet_V[b] == pytest.approx(logdet, rel=1e-12 * scale**2, abs=0)
        norm_L = np.linalg.norm(L)
        assert np.linalg.norm(L @ L.T - V) <= 1e-12 * np.linalg.norm(V)
        assert np.linalg.norm(L @ Xw - design.X) <= 1e-12 * norm_L * np.linalg.norm(Xw)
        assert np.linalg.norm(L @ Zw - design.Z) <= 1e-12 * norm_L * np.linalg.norm(Zw)


def test_bordered_factor_takes_outputs_far_from_unit_scale():
    # the border must stay above |L^-1 Z|^2: outputs scaled by 1e60 or
    # 1e-60 scale beta_hat and G^2 and leave log|V| as it is
    d = random_design(np.random.default_rng(30), n=8, K=2, q=2)
    theta = np.array([-1.0, -1.0])
    w = GpWork(d, theta)
    for scale in (1e60, 1e-60):
        ws = GpWork(GpDesign(S=d.S, Z=d.Z * scale, X=d.X), theta)
        assert ws.logdet_V == w.logdet_V
        assert ws.beta_hat == pytest.approx(w.beta_hat * scale, rel=1e-12, abs=0)
        assert ws.G_sq == pytest.approx(w.G_sq * scale**2, rel=1e-12, abs=0)


def test_stack_members_do_not_depend_on_stack_size():
    # at the CV's size, B = 125 fold members: every field of every member
    # equals the lone evaluation's bit for bit, and so does the V it factorized
    members, thetas, stack = _fold_stack(125, 29)
    for b, (design, theta) in enumerate(zip(members, thetas)):
        w = GpWork(design, theta, nugget=0.0)
        for field in (*STACK_FIELDS, "V"):
            assert np.asarray(getattr(stack, field)[b]).tobytes() == np.asarray(getattr(w, field)).tobytes(), (b, field)


HEALTHY_THETA = np.array([-0.4, 0.1])


def _refuse_factorizing_at(monkeypatch, design, theta):
    """np.linalg.cholesky refuses any matrix whose leading n x n block is
    V(theta) plus a nugget, alone or in a stack; returns the nuggets it
    refused on a lone matrix."""
    v01, refused = covariance_matrix(design.S, theta)[0, 1], []
    cholesky = np.linalg.cholesky

    def refusing(a):
        if a.shape[-1] >= design.n and np.isclose(a[..., 0, 1], v01, rtol=1e-12, atol=0).any():
            if a.ndim == 2:
                refused.append(a[0, 0] - 1.0)
            raise np.linalg.LinAlgError("forced")
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", refusing)
    return refused


def test_nll_bayes_checks_prior_variance_before_factorizing(monkeypatch):
    design, theta = random_design(np.random.default_rng(24)), np.array([0.3, -0.2])
    _refuse_factorizing_at(monkeypatch, design, theta)
    with pytest.raises(FactorizationError):
        nll_bayes(design, theta, 0.0, 0.5)
    for nu_sq in (0.0, -1.0):
        with pytest.raises(ValueError, match="nu_sq must be positive"):
            nll_bayes(design, theta, 0.0, nu_sq)
        lp = bayes_log_posterior_stack([design], [0.0], [nu_sq])(np.stack([theta, HEALTHY_THETA]))
        assert lp.tolist() == [-math.inf, -math.inf]


def test_nll_bayes_fails_past_nugget_max(monkeypatch):
    # the stacked target scores the failed row -inf and its neighbour as
    # nll_bayes does
    design, theta = random_design(np.random.default_rng(24)), np.array([0.3, -0.2])
    refused = _refuse_factorizing_at(monkeypatch, design, theta)
    with pytest.raises(FactorizationError):
        nll_bayes(design, theta, 0.0, 0.5)
    assert max(refused) == pytest.approx(gp.NUGGET_MAX)
    lp = bayes_log_posterior_stack([design], [0.0], [0.5])(np.stack([theta, HEALTHY_THETA]))
    assert lp.tolist() == [-math.inf, -nll_bayes(design, HEALTHY_THETA, 0.0, 0.5)]


def test_nll_bayes_rejects_a_zero_gls_residual():
    design = GpDesign(S=np.random.default_rng(25).uniform(0, 1, (6, 2)), Z=np.zeros(6))
    theta = np.array([0.3, -0.2])
    assert GpWork(design, theta).G_sq == 0.0
    with pytest.raises(ValueError, match="zero GLS residual"):
        nll_bayes(design, theta, 0.0, 0.5)
    lp = bayes_log_posterior_stack([design], [0.0], [0.5])(np.stack([theta, HEALTHY_THETA]))
    assert lp.tolist() == [-math.inf, -math.inf]


# ------------------------------------------------------------ REML gradient


def central_grad(f, theta, h=1e-5):
    return np.array([(f(theta + h * e) - f(theta - h * e)) / (2 * h) for e in np.eye(theta.size)])


def assert_grad_matches_central_differences(design, theta, lam):
    value, grad = nll_reml_regularized_grad(design, theta, lam)
    assert value == nll_reml_regularized(design, theta, lam)
    fd = central_grad(lambda t: nll_reml_regularized(design, t, lam), theta)
    assert np.linalg.norm(grad - fd) <= 1e-5 * np.linalg.norm(fd)


@pytest.mark.parametrize(
    "q,lam,theta",
    [
        (1, 0.0, [-2.5]),
        (2, 1.5, [-2.2]),
        (1, 1.5, [-0.6, -0.1, 0.3, 0.5]),
        (2, 0.0, [0.4, -0.5, 0.0, 0.2]),
    ],
)
def test_reml_gradient_matches_central_differences(q, lam, theta):
    theta = np.array(theta)
    d = random_design(np.random.default_rng(7), n=9, K=theta.size, q=q)
    assert_grad_matches_central_differences(d, theta, lam)


def test_reml_gradient_at_escalated_nugget(monkeypatch):
    # a Cholesky that refuses every nugget short of the ladder's top on the
    # leading n x n block of what it factorizes: each evaluation climbs the
    # whole ladder, and value and gradient are those of V + 1e-4 I
    rng = np.random.default_rng(44)
    d = random_design(rng, n=9, K=4, q=2)
    theta = rng.uniform(-1.5, -0.5, size=4)
    cholesky = np.linalg.cholesky

    def refusing(a):
        leading = np.diagonal(a, axis1=-2, axis2=-1)[..., : d.n]
        if a.shape[-1] >= d.n and np.min(leading) < 1.0 + 0.5 * gp.NUGGET_MAX:
            raise np.linalg.LinAlgError("forced")
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", refusing)
    assert GpWork(d, theta).nugget == pytest.approx(gp.NUGGET_MAX)
    assert_grad_matches_central_differences(d, theta, 0.7)


# ---------------------------------------------------------------------- fit


def test_fit_reml_local_optimality_probes():
    rng = np.random.default_rng(18)
    d = random_design(rng, n=12, K=2)
    fit = fit_reml(d, lam=1.0, restarts=4, rng=np.random.default_rng(1))
    probes = np.random.default_rng(2).uniform(-10, 10, size=(100, 2))
    for theta in probes:
        assert fit.objective <= nll_reml_regularized(d, theta, 1.0) + 1e-9


def test_fit_reml_objective_is_the_value_at_theta(monkeypatch):
    # pure noise drives theta to the box, and the reported objective is the
    # objective at the reported theta; a start that never sees a finite
    # value is dropped, so when every start fails the fit fails
    rng = np.random.default_rng(19)
    d = GpDesign(S=rng.uniform(0, 1, (15, 2)), Z=rng.normal(size=15))
    fit = fit_reml(d, lam=0.0, restarts=2, rng=np.random.default_rng(3))
    assert fit.objective == nll_reml_regularized(d, fit.theta, 0.0)

    def no_gradient(*args, **kwargs):
        raise ValueError("forced")

    monkeypatch.setattr(gp, "nll_reml_regularized_grad", no_gradient)
    with pytest.raises(RuntimeError, match="all optimizer starts failed"):
        fit_reml(d, lam=0.0, restarts=2, rng=np.random.default_rng(3))


def test_fit_reml_white_noise_flagged():
    rng = np.random.default_rng(19)
    S = rng.uniform(0, 1, (15, 2))
    Z = rng.normal(size=15)  # pure noise, no spatial signal
    d = GpDesign(S=S, Z=Z)
    fit = fit_reml(d, lam=2.0, restarts=4, rng=np.random.default_rng(3))
    theta = fit.theta
    # either pinned at the box or shrunk to a common value by the penalty
    shrunk = abs(theta[0] - theta[1]) < 0.5
    assert fit.at_bounds or shrunk


def test_fit_reml_constant_outputs():
    rng = np.random.default_rng(20)
    d = GpDesign(S=rng.uniform(size=(5, 1)), Z=np.full(5, 3.3))
    fit = fit_reml(d, lam=2.0, restarts=2)
    assert fit.alpha_reml == 0.0
    assert fit.objective == -math.inf
    assert fit.beta_hat[0] == pytest.approx(3.3)


# ---------------------------------------------------- empirical-Bayes prior


def test_hessian_nu_estimate_identity():
    fit = _fake_fit(theta=np.array([1.0, 3.0]), hessian=4.0 * np.eye(2))
    tau, nu_sq = hessian_nu_estimate(fit)
    assert tau == 2.0
    assert nu_sq == 0.25


def test_hessian_nu_estimate_diagonal():
    fit = _fake_fit(theta=np.zeros(2), hessian=np.diag([2.0, 8.0]))
    _, nu_sq = hessian_nu_estimate(fit)
    assert nu_sq == pytest.approx(0.3125)


def test_hessian_nu_exceeds_point_spread_for_clustered_theta():
    # tightly clustered estimates with a shallow objective: the Hessian-based
    # variance is larger than the spread of the point estimates
    theta = np.array([1.0, 1.01, 0.99, 1.0])
    fit = _fake_fit(theta=theta, hessian=0.5 * np.eye(4))
    tau, nu_sq = hessian_nu_estimate(fit)
    spread = float(np.mean((theta - tau) ** 2))
    assert nu_sq > spread


def test_hessian_nu_non_spd_fallback():
    fit = _fake_fit(theta=np.zeros(2), hessian=np.diag([1.0, -1.0]))
    with pytest.warns(RuntimeWarning):
        hessian_nu_estimate(fit)


def test_hessian_nu_non_spd_is_nan():
    # the pseudo-inverse of diag(1, -1) has mean diagonal 0: no usable variance
    fit = _fake_fit(theta=np.array([1.0, 2.0]), hessian=np.diag([1.0, -1.0]))
    with pytest.warns(RuntimeWarning):
        tau, nu_sq = hessian_nu_estimate(fit)
    assert tau == 1.5
    assert math.isnan(nu_sq)


def test_hessian_nu_estimate_rejects_a_fit_without_hessian():
    # a fit made with hessian=False has no curvature to read, which is not
    # the same as a Hessian that is not SPD
    d = random_design(np.random.default_rng(21), n=8)
    fit = fit_reml(d, lam=1.0, restarts=1, hessian=False)
    assert fit.hessian is None
    with pytest.raises(ValueError, match="no Hessian"):
        hessian_nu_estimate(fit)


def _fake_fit(theta, hessian):
    from reliagp.gp import GpFit

    return GpFit(
        theta=theta,
        beta_hat=np.array([0.0]),
        alpha_reml=1.0,
        objective=0.0,
        hessian=hessian,
        nugget=0.0,
        lam=0.0,
        at_bounds=False,
    )
