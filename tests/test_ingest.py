import json
import math
import re

import numpy as np
import pytest
from scipy import stats

from reliagp.distributions import Family, NormalParams, WeibullParams
from reliagp.ingest import (
    SMALL_P_MARGINALS,
    SMALL_P_TRUE,
    SMALL_P_TRUE_SE,
    SMALL_P_Z_CRIT,
    SimulatorConfig,
    StudyDataset,
    load_dataset,
    save_dataset,
    small_p_preset,
    synth_simulator,
    synth_study,
)


def full_scale_marginals():
    """15 input variables: 6 Normal and 9 Weibull."""
    out = []
    for i in range(6):
        out.append((f"X{i + 1:04d}", Family.NORMAL, NormalParams(mu=2.0 + i, sigma2=0.25)))
    for i in range(9):
        out.append(
            (f"X{i + 7:04d}", Family.WEIBULL, WeibullParams(alpha=1.0 + 0.2 * i, beta=2.5))
        )
    return out


def config_for(marginals, **kwargs):
    means, sds = [], []
    for _, fam, params in marginals:
        if fam == Family.NORMAL:
            means.append(params.mu)
            sds.append(math.sqrt(params.sigma2))
        else:
            a, b = params.alpha, params.beta
            m = a * math.gamma(1 + 1 / b)
            v = a**2 * (math.gamma(1 + 2 / b) - math.gamma(1 + 1 / b) ** 2)
            means.append(m)
            sds.append(math.sqrt(v))
    k = len(means)
    defaults = dict(intercept=2.0, coeffs=(0.05,) * k, loc=tuple(means), sc=tuple(sds))
    defaults.update(kwargs)
    return SimulatorConfig(**defaults)


# ----------------------------------------------------------------- simulator


def test_simulator_intercept_at_centered_input():
    cfg = SimulatorConfig(
        intercept=2.5, coeffs=(0.1, 0.2), loc=(1.0, 2.0), sc=(1.0, 1.0)
    )
    assert synth_simulator(np.array([1.0, 2.0]), cfg) == pytest.approx(2.5)


def test_simulator_linear_closed_form():
    cfg = SimulatorConfig(
        intercept=1.0, coeffs=(0.5, -0.25), loc=(0.0, 0.0), sc=(2.0, 4.0)
    )
    s = np.array([2.0, 8.0])
    # u = (1.0, 2.0); h = 1 + 0.5*1 - 0.25*2 = 1.0
    assert synth_simulator(s, cfg) == pytest.approx(1.0)


def test_simulator_deterministic_and_vectorized():
    cfg = small_p_preset()
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.5, 10.0, (6, 4))
    batch = synth_simulator(pts, cfg)
    singles = np.array([synth_simulator(p, cfg) for p in pts])
    assert np.array_equal(batch, singles)
    assert np.array_equal(batch, synth_simulator(pts, cfg))


def test_simulator_dimension_check():
    cfg = small_p_preset()
    with pytest.raises(ValueError):
        synth_simulator(np.array([1.0, 2.0]), cfg)


def test_linear_exceedance_matches_normal_tail():
    # all-Normal inputs with a purely linear simulator: the output is exactly
    # Normal, so the exceedance has a closed form
    marginals = [
        ("X0001", Family.NORMAL, NormalParams(3.0, 1.0)),
        ("X0002", Family.NORMAL, NormalParams(-1.0, 4.0)),
    ]
    cfg = config_for(marginals, intercept=2.0, coeffs=(0.3, 0.4))
    rng = np.random.default_rng(1)
    s = np.column_stack(
        [rng.normal(3.0, 1.0, 200_000), rng.normal(-1.0, 2.0, 200_000)]
    )
    h = synth_simulator(s, cfg)
    z_crit = 2.0 + 2.0 * math.sqrt(0.3**2 + 0.4**2)  # two sigma above the mean
    truth = float(stats.norm.sf(2.0))
    est = float(np.mean(h > z_crit))
    se = math.sqrt(truth * (1 - truth) / h.size)
    assert abs(est - truth) < 4 * se


def test_small_p_frozen_truth_consistent():
    # spot check the frozen reference with a fresh, smaller Monte Carlo run
    cfg = small_p_preset()
    rng = np.random.default_rng(12345)
    n = 2_000_000
    cols = []
    for _, fam, params in SMALL_P_MARGINALS:
        if fam == Family.NORMAL:
            cols.append(rng.normal(params.mu, math.sqrt(params.sigma2), n))
        else:
            cols.append(params.alpha * rng.weibull(params.beta, n))
    h = synth_simulator(np.column_stack(cols), cfg)
    est = float(np.mean(h > SMALL_P_Z_CRIT))
    se = math.sqrt(SMALL_P_TRUE * (1 - SMALL_P_TRUE) / n)
    assert abs(est - SMALL_P_TRUE) < 4 * math.sqrt(se**2 + SMALL_P_TRUE_SE**2)


# -------------------------------------------------------------- synth study


def test_synth_study_deterministic():
    a = synth_study(seed=42, n=10)
    b = synth_study(seed=42, n=10)
    assert np.array_equal(a.design, b.design)
    assert np.array_equal(a.outputs_raw, b.outputs_raw)
    for va, vb in zip(a.variables, b.variables):
        assert np.array_equal(va.observations, vb.observations)
    c = synth_study(seed=43, n=10)
    assert not np.array_equal(a.design, c.design)


def test_synth_study_full_scale_shapes():
    marginals = full_scale_marginals()
    cfg = config_for(marginals)
    ds = synth_study(seed=7, n=25, config=cfg, marginals=marginals, n_obs=10)
    assert ds.n == 25
    assert ds.K == 15
    assert len(ds.variables) == 15
    assert all(v.observations.size == 10 for v in ds.variables)
    families = [v.family for v in ds.variables]
    assert families.count(Family.NORMAL) == 6
    assert families.count(Family.WEIBULL) == 9


def test_synth_study_mle_recovery_with_many_observations():
    marginals = [
        ("X0001", Family.NORMAL, NormalParams(4.0, 1.0)),
        ("X0002", Family.WEIBULL, WeibullParams(2.0, 3.0)),
    ]
    cfg = config_for(marginals)
    ds = synth_study(seed=3, n=5, config=cfg, marginals=marginals, n_obs=200_000)
    from reliagp.distributions import mle_fit

    norm_fit = mle_fit(ds.variables[0])
    weib_fit = mle_fit(ds.variables[1])
    assert norm_fit.mu == pytest.approx(4.0, rel=0.01)
    assert norm_fit.sigma2 == pytest.approx(1.0, rel=0.02)
    assert weib_fit.alpha == pytest.approx(2.0, rel=0.01)
    assert weib_fit.beta == pytest.approx(3.0, rel=0.01)


def test_outputs_rescaling():
    ds = synth_study(seed=5, n=8)
    assert np.allclose(ds.outputs * ds.rescale_factor, ds.outputs_raw)
    # raw outputs sit around intercept * rescale_factor
    assert 1000.0 < np.median(ds.outputs_raw) < 5000.0


# ----------------------------------------------------------------- file I/O


def test_save_load_roundtrip_bit_exact(tmp_path):
    ds = synth_study(seed=9, n=6)
    manifest = save_dataset(ds, tmp_path)
    back = load_dataset(manifest)
    assert np.array_equal(back.design, ds.design)
    assert np.array_equal(back.outputs_raw, ds.outputs_raw)
    assert back.rescale_factor == ds.rescale_factor
    assert [v.name for v in back.variables] == [v.name for v in ds.variables]
    for va, vb in zip(ds.variables, back.variables):
        assert va.family == vb.family
        assert np.array_equal(va.observations, vb.observations)


def test_load_missing_manifest(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path / "nope.json")


def test_load_missing_component_file(tmp_path):
    ds = synth_study(seed=9, n=5)
    manifest = save_dataset(ds, tmp_path)
    (tmp_path / "design.csv").unlink()
    with pytest.raises(FileNotFoundError, match="design"):
        load_dataset(manifest)


def test_load_bad_observation_schema(tmp_path):
    ds = synth_study(seed=9, n=5)
    manifest = save_dataset(ds, tmp_path)
    (tmp_path / "observations.csv").write_text("var,val\nX0001,1.0\n")
    with pytest.raises(ValueError, match="schema"):
        load_dataset(manifest)


def test_load_undeclared_variable(tmp_path):
    ds = synth_study(seed=9, n=5)
    manifest = save_dataset(ds, tmp_path)
    with open(tmp_path / "observations.csv", "a") as fh:
        fh.write("X9999,1.0\n")
    with pytest.raises(ValueError, match="undeclared"):
        load_dataset(manifest)


def test_load_design_output_mismatch(tmp_path):
    ds = synth_study(seed=9, n=5)
    manifest = save_dataset(ds, tmp_path)
    lines = (tmp_path / "outputs.csv").read_text().strip().splitlines()
    (tmp_path / "outputs.csv").write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError, match="rows"):
        load_dataset(manifest)


def test_load_wrong_output_header(tmp_path):
    ds = synth_study(seed=9, n=5)
    manifest = save_dataset(ds, tmp_path)
    text = (tmp_path / "outputs.csv").read_text().splitlines()
    text[0] = "acceleration"
    (tmp_path / "outputs.csv").write_text("\n".join(text) + "\n")
    with pytest.raises(ValueError, match="peak_accel_g"):
        load_dataset(manifest)


def test_dataset_validation():
    with pytest.raises(ValueError, match="rows"):
        StudyDataset(variables=[], design=np.zeros((2, 0)), outputs_raw=np.zeros(3))
    with pytest.raises(ValueError, match="NaN|inf"):
        StudyDataset(
            variables=SMALL_P_MARGINALS_SPECS(),
            design=np.full((2, 4), np.nan),
            outputs_raw=np.zeros(2),
        )


@pytest.mark.parametrize("factor", [-1000.0, 0.0, math.inf, math.nan])
def test_dataset_rejects_a_rescale_factor_that_is_not_positive(factor):
    # a negative factor flips every output, and with it the failure tail
    ds = synth_study(seed=9, n=5)
    with pytest.raises(ValueError, match="rescale_factor"):
        StudyDataset(variables=ds.variables, design=ds.design, outputs_raw=ds.outputs_raw, rescale_factor=factor)


@pytest.mark.parametrize(
    "edit",
    [
        lambda m: [m],
        lambda m: {**m, "variables": [v["name"] for v in m["variables"]]},
        lambda m: {**m, "variables": [{"family": "normal"}]},
        lambda m: {**m, "observations": 3},
        lambda m: {**m, "rescale_factor": None},
    ],
    ids=["list", "variables_strings", "variable_unnamed", "observations_number", "rescale_factor_null"],
)
def test_load_manifest_of_the_wrong_shape(tmp_path, edit):
    manifest = save_dataset(synth_study(seed=9, n=5), tmp_path)
    manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
    with pytest.raises(ValueError, match=re.escape(str(manifest))):
        load_dataset(manifest)


def SMALL_P_MARGINALS_SPECS():
    from reliagp.distributions import InputVariableSpec

    return [
        InputVariableSpec(name=name, family=fam, observations=np.array([1.0, 2.0]))
        for name, fam, _ in SMALL_P_MARGINALS
    ]
