import csv
import dataclasses
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from reliagp import cli, ingest, tuning
from reliagp.distributions import PriorSpec, log_posterior_unnorm, mle_fit, params_from_array
from reliagp.mcmc import AmSettings, am_sample, default_init_cov, load_chain
from reliagp.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from reliagp.gp import GpFit
from reliagp.tables import read_table, write_table


def write_config(tmp_path: Path, manifest: Path, out_dir: Path, /, **overrides) -> Path:
    cfg = {
        "manifest": str(manifest),
        "out_dir": str(out_dir),
        "seed": 77,
        "setting": "B",
        "lambda_grid": [2.0],
        "tau_candidates": [0.0],
        "N": 20,
        "M": 20,
        "restarts": 2,
        "cv_restarts": 2,
        "am_inputs": {"t": 1000, "t0": 100, "t2": 100},
        "am_theta": {"t": 1000, "t0": 100, "t2": 100},
        "am_cv": {"t": 500, "t0": 100, "t2": 100},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One tiny end-to-end run shared by the assertion tests."""
    root = tmp_path_factory.mktemp("pipeline")
    data_dir = root / "data"
    out_dir = root / "out"
    assert main(["synth", "--out", str(data_dir), "--seed", "5", "--n", "8", "--n-obs", "8"]) == EXIT_OK
    cfg_path = write_config(root, data_dir / "manifest.json", out_dir)
    assert main(["all", "--config", str(cfg_path)]) == EXIT_OK
    return root, cfg_path, out_dir


def test_all_writes_expected_artifacts(pipeline):
    _, _, out = pipeline
    expected = [
        "inputs/X0001.csv",
        "inputs/X0004.csv",
        "cv_lambda.json",
        "cv_lambda_folds.csv",
        "gp_fit.json",
        "cv_prior.json",
        "theta_chain.csv",
        "pf_setting_B.csv",
        "pf_setting_B_summary.json",
        "report/report_index.json",
        "report/input_posterior_ci.csv",
        "report/observed_vs_expected.csv",
        "report/theta_comparison.csv",
    ]
    for rel in expected:
        assert (out / rel).exists(), rel


def test_gp_fit_contents(pipeline):
    _, _, out = pipeline
    info = json.loads((out / "gp_fit.json").read_text())
    assert len(info["theta"]) == 4
    assert len(info["hessian"]) == 4
    assert "tau_hat" in info and "nu_sq_hat" in info
    assert info["alpha_reml"] >= 0


def test_pf_rows_match_outer_loop(pipeline):
    _, _, out = pipeline
    with open(out / "pf_setting_B.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["p_crit"]
    assert len(rows) - 1 == 20
    p = np.array([float(r[0]) for r in rows[1:]])
    assert np.all((p >= 0) & (p <= 1))


def test_report_row_counts(pipeline):
    _, _, out = pipeline
    with open(out / "report" / "observed_vs_expected.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) - 1 == 8  # one per design point

    with open(out / "report" / "input_posterior_ci.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) - 1 == 8  # 4 variables x 2 parameters


def test_rerun_is_up_to_date_noop(pipeline, capsys):
    _, cfg_path, out = pipeline
    before = (out / "gp_fit.json").stat().st_mtime_ns
    assert main(["all", "--config", str(cfg_path)]) == EXIT_OK
    captured = capsys.readouterr()
    assert "up to date" in captured.out
    assert (out / "gp_fit.json").stat().st_mtime_ns == before


def test_setting_a_run_reuses_artifacts(pipeline):
    root, cfg_path, out = pipeline
    assert main(["simulate-pf", "--config", str(cfg_path), "--setting", "A"]) == EXIT_OK
    assert (out / "pf_setting_A.csv").exists()
    assert (out / "pf_setting_A_summary.json").exists()


def test_missing_upstream_names_dependency(tmp_path, capsys):
    data_dir = tmp_path / "data"
    assert main(["synth", "--out", str(data_dir), "--seed", "5", "--n", "6", "--n-obs", "6"]) == EXIT_OK
    cfg_path = write_config(tmp_path, data_dir / "manifest.json", tmp_path / "out")
    rc = main(["simulate-pf", "--config", str(cfg_path)])
    captured = capsys.readouterr()
    assert rc == EXIT_CONFIG
    assert "gp_fit.json" in captured.err


def test_bad_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["fit-gp", "--config", str(bad)]) == EXIT_CONFIG

    missing = tmp_path / "nope.json"
    assert main(["fit-gp", "--config", str(missing)]) == EXIT_CONFIG

    data_dir = tmp_path / "data"
    main(["synth", "--out", str(data_dir), "--seed", "1", "--n", "5", "--n-obs", "5"])
    cfg_path = write_config(tmp_path, data_dir / "manifest.json", tmp_path / "out", setting="C")
    assert main(["fit-gp", "--config", str(cfg_path)]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "stage, fields",
    [
        ("fit-gp", None),
        ("fit-gp", {"seed": "abc"}),
        ("fit-gp", {"burn_in": "x"}),
        ("fit-gp", {"am_inputs": {"foo": 1}}),
        ("fit-inputs", {"seed": -1}),
        ("fit-inputs", {"am_inputs": {"t": 1000, "t0": 100, "t2": 7}}),
        ("fit-gp", {"restarts": 0}),
        ("fit-inputs", {"am_inputs": {"t": 1000.0, "t0": 100, "t2": 100}}),
        ("fit-inputs", {"am_inputs": {"t": 1000, "t0": 100, "t1": True, "t2": 100}}),
        ("fit-inputs", {"am_inputs": {"t": 1000, "t0": 100, "t2": 100, "d": 1}}),
        ("fit-inputs", {"am_inputs": {"t": 1000, "t0": 100, "t2": 100, "epsilon": float("nan")}}),
        ("fit-inputs", {"am_inputs": {"t": 1000, "t0": 100, "t2": 100, "epsilon": True}}),
        ("fit-gp", {"lam": "x"}),
        ("tune-lambda", {"lambda_grid": "ab"}),
        ("tune-lambda", {"lambda_grid": []}),
        ("fit-gp", {"z_crit": "x"}),
        ("fit-inputs", {"out_dir": 5}),
        ("fit-gp", {"z_crit": float("nan")}),
        ("fit-gp", {"standardize": "no"}),
        ("fit-inputs", {"jeffreys_normal_variant": "x"}),
        ("fit-gp", {"nu_sq": "x"}),
        ("fit-gp", {"nu_sq": -1.0}),
        ("fit-gp", {"tau_candidates": ["a"]}),
        ("fit-gp", {"tau_candidates": []}),
        ("fit-gp", {"lam": -1.0}),
        ("tune-lambda", {"lambda_grid": [-1.0]}),
        ("fit-gp", {"scale": "reml"}),
        ("fit-gp", {"z_crit": 10**400}),
    ],
    ids=[
        "not_an_object", "seed_str", "burn_in_str_removed", "am_unknown_key", "seed_negative", "am_t2",
        "restarts_zero", "am_t_float", "am_t1_removed", "am_d_key", "am_epsilon_nan", "am_epsilon_true",
        "lam_str_removed", "lambda_grid_str", "lambda_grid_empty", "z_crit_str", "out_dir_int", "z_crit_nan",
        "standardize_str_removed", "jeffreys_variant_str", "nu_sq_str_removed", "nu_sq_negative_removed",
        "tau_candidates_str", "tau_candidates_empty", "lam_negative_removed", "lambda_grid_negative",
        "scale_removed", "z_crit_past_float",
    ],
)
def test_malformed_config_field_exits_config(tmp_path, capsys, stage, fields):
    data_dir = tmp_path / "data"
    assert main(["synth", "--out", str(data_dir), "--seed", "5", "--n", "6", "--n-obs", "6"]) == EXIT_OK
    cfg_path = write_config(tmp_path, data_dir / "manifest.json", tmp_path / "out", **(fields or {}))
    if fields is None:
        cfg_path.write_text("[1, 2]")
    capsys.readouterr()
    assert main([stage, "--config", str(cfg_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err
    assert all(key in err for key in fields or {}), err  # names the field, or its am_* block


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(cli.PipelineConfig)])
def test_every_config_field_is_checked(tmp_path, capsys, name):
    # a list holding an object is a wrong value for every field
    data_dir = tmp_path / "data"
    assert main(["synth", "--out", str(data_dir), "--seed", "5", "--n", "6", "--n-obs", "6"]) == EXIT_OK
    cfg_path = write_config(tmp_path, data_dir / "manifest.json", tmp_path / "out", **{name: [{}]})
    capsys.readouterr()
    assert main(["fit-gp", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert name in capsys.readouterr().err


def test_seed_override_changes_artifacts(tmp_path):
    data_dir = tmp_path / "data"
    assert main(["synth", "--out", str(data_dir), "--seed", "5", "--n", "6", "--n-obs", "6"]) == EXIT_OK
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, data_dir / "manifest.json", out)
    assert main(["fit-inputs", "--config", str(cfg_path)]) == EXIT_OK
    first = (out / "inputs" / "X0001.csv").read_bytes()
    assert main(["fit-inputs", "--config", str(cfg_path), "--seed", "123"]) == EXIT_OK
    second = (out / "inputs" / "X0001.csv").read_bytes()
    assert first != second


def test_synth_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["synth", "--out", str(a), "--seed", "9", "--n", "6", "--n-obs", "6"])
    main(["synth", "--out", str(b), "--seed", "9", "--n", "6", "--n-obs", "6"])
    for name in ("observations.csv", "design.csv", "outputs.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_fit_gp_rejects_negative_prior_variance(tmp_path, monkeypatch, capsys):
    # a REML optimum on a saddle: this Hessian is not SPD, so
    # hessian_nu_estimate gives a NaN nu_sq_hat, which no later stage can use
    data_dir = tmp_path / "data"
    assert main(["synth", "--out", str(data_dir), "--seed", "5", "--n", "6", "--n-obs", "6"]) == EXIT_OK
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, data_dir / "manifest.json", out)
    saddle = GpFit(
        theta=np.full(4, -1.57),
        beta_hat=np.array([0.0]),
        alpha_reml=1.0,
        objective=0.0,
        hessian=np.diag([-2e-4, 8.0, 8.0, 8.0]),
        nugget=1e-8,
        lam=2.0,
        at_bounds=False,
    )
    monkeypatch.setattr(cli, "fit_reml", lambda *args, **kwargs: saddle)
    with pytest.warns(RuntimeWarning):
        assert main(["fit-gp", "--config", str(cfg_path)]) == EXIT_NUMERICAL
    assert "nu_sq_hat" in capsys.readouterr().err
    assert not (out / "gp_fit.json").exists()


def test_tune_prior_exits_when_every_candidate_fails(tmp_path, capsys):
    # tau = 50 lies outside the theta box, so no CV chain can start
    data_dir = tmp_path / "data"
    assert main(["synth", "--out", str(data_dir), "--seed", "5", "--n", "8", "--n-obs", "8"]) == EXIT_OK
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, data_dir / "manifest.json", out, tau_candidates=[50.0])
    assert main(["fit-gp", "--config", str(cfg_path)]) == EXIT_OK
    assert main(["tune-prior", "--config", str(cfg_path)]) == EXIT_NUMERICAL
    assert "failed cross-validation" in capsys.readouterr().err
    assert not (out / "cv_prior.json").exists()


def test_tune_lambda_exits_when_every_candidate_fails(tmp_path, monkeypatch, capsys):
    cfg_path, out = _study(tmp_path)

    def failing_fit(*args, **kwargs):
        raise RuntimeError("fold fit failed")

    monkeypatch.setattr(tuning, "fit_reml", failing_fit)
    assert main(["tune-lambda", "--config", str(cfg_path)]) == EXIT_NUMERICAL
    assert "failed cross-validation" in capsys.readouterr().err
    assert not (out / "cv_lambda.json").exists()


def test_missing_design_file_exits_config(tmp_path, capsys):
    data_dir = tmp_path / "data"
    assert main(["synth", "--out", str(data_dir), "--seed", "5", "--n", "6", "--n-obs", "6"]) == EXIT_OK
    (data_dir / "design.csv").unlink()
    cfg_path = write_config(tmp_path, data_dir / "manifest.json", tmp_path / "out")
    assert main(["fit-inputs", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert "design.csv" in capsys.readouterr().err


def test_bad_outputs_header_exits_config(tmp_path, capsys):
    data_dir = tmp_path / "data"
    assert main(["synth", "--out", str(data_dir), "--seed", "5", "--n", "6", "--n-obs", "6"]) == EXIT_OK
    outputs = data_dir / "outputs.csv"
    outputs.write_text(outputs.read_text().replace("peak_accel_g", "peak_g", 1))
    cfg_path = write_config(tmp_path, data_dir / "manifest.json", tmp_path / "out")
    assert main(["fit-inputs", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert "peak_accel_g" in capsys.readouterr().err


def _study(tmp_path: Path, **overrides) -> tuple[Path, Path]:
    """A synthetic study and its config; returns (config path, out_dir)."""
    data_dir = tmp_path / "data"
    assert main(["synth", "--out", str(data_dir), "--seed", "5", "--n", "8", "--n-obs", "8"]) == EXIT_OK
    out = tmp_path / "out"
    return write_config(tmp_path, data_dir / "manifest.json", out, **overrides), out


@pytest.mark.parametrize(
    "change, reruns",
    [
        ({"z_crit": 2.7}, {"simulate-pf", "report"}),
        ({"tau_candidates": [0.0, 1.0]}, {"tune-prior", "simulate-pf", "report"}),
    ],
    ids=["z_crit", "tau_candidates"],
)
def test_changed_input_reruns_the_stages_that_read_it(tmp_path, capsys, change, reruns):
    cfg_path, out = _study(tmp_path)
    assert main(["all", "--config", str(cfg_path)]) == EXIT_OK
    write_config(tmp_path, tmp_path / "data" / "manifest.json", out, **change)
    capsys.readouterr()
    assert main(["all", "--config", str(cfg_path)]) == EXIT_OK
    log = capsys.readouterr().out
    for stage in cli.STAGES:
        assert (f"{stage}: up to date" not in log) == (stage in reruns), stage
    echo = out / "report" / "pf_setting_B_summary.json"
    assert echo.read_bytes() == (out / "pf_setting_B_summary.json").read_bytes()


def test_failed_stage_commits_nothing(tmp_path, monkeypatch, capsys):
    cfg_path, out = _study(tmp_path)
    assert main(["fit-gp", "--config", str(cfg_path)]) == EXIT_OK
    assert main(["tune-prior", "--config", str(cfg_path)]) == EXIT_OK
    kept = ["cv_prior.json", "theta_chain.csv", "provenance/tune-prior.json"]
    before = {rel: (out / rel).read_bytes() for rel in kept}
    entries = sorted(out.iterdir())

    # new candidates make the stage re-run; its cross-validation succeeds,
    # then the final theta chain fails
    write_config(tmp_path, tmp_path / "data" / "manifest.json", out, tau_candidates=[0.0, 1.0])

    def failing_chain(*args, **kwargs):
        raise RuntimeError("chain failed")

    monkeypatch.setattr(cli, "am_sample", failing_chain)
    assert main(["tune-prior", "--config", str(cfg_path)]) == EXIT_NUMERICAL
    assert "chain failed" in capsys.readouterr().err
    assert {rel: (out / rel).read_bytes() for rel in kept} == before
    assert sorted(out.iterdir()) == entries


def test_frozen_input_chain_exits_numerical(tmp_path, capsys):
    # the conjugate Weibull prior fixes the shape, so the 2-D sampler never
    # accepts a move off it
    cfg_path, out = _study(tmp_path, input_prior="conjugate")
    assert main(["fit-inputs", "--config", str(cfg_path)]) == EXIT_NUMERICAL
    assert "X0003" in capsys.readouterr().err
    assert not (out / "inputs").exists()


@pytest.mark.parametrize(
    "prior, variant", [("flat", "joint"), ("jeffreys", "joint"), ("jeffreys", "independence")]
)
def test_input_chains_match_lone_chains(tmp_path, prior, variant):
    """The lockstep stage writes, bit for bit, the chain that each input's
    own am_sample run gives on the per-chain target of the sequential stage."""
    am = {"t": 2000, "t0": 200, "t2": 10}
    cfg_path, out = _study(tmp_path, input_prior=prior, jeffreys_normal_variant=variant, am_inputs=am)
    assert main(["fit-inputs", "--config", str(cfg_path)]) == EXIT_OK
    cfg = cli.PipelineConfig.from_file(cfg_path)
    pr = PriorSpec.flat() if prior == "flat" else PriorSpec.jeffreys(variant)
    for k, spec in enumerate(ingest.load_dataset(cfg.manifest).variables):

        def target(psi, spec=spec):
            return log_posterior_unnorm(params_from_array(spec.family, psi), spec, pr)

        init = mle_fit(spec).as_array()
        rng = cli.stage_rng(cfg.seed, "fit-inputs", k)
        lone = am_sample(target, init, default_init_cov(target, init), AmSettings(d=2, **am), rng)
        saved = load_chain(out / "inputs" / f"{spec.name}.csv")
        assert saved.draws.tobytes() == lone.draws.tobytes(), spec.name
        assert saved.acceptance_rate == lone.acceptance_rate, spec.name


def test_failed_input_chain_names_its_variable(tmp_path, monkeypatch, capsys):
    cfg_path, out = _study(tmp_path)
    names = [v.name for v in ingest.load_dataset(tmp_path / "data" / "manifest.json").variables]
    real_init_cov = cli.default_init_cov

    def nan_cov_for_x0002(target, inits):
        covs = real_init_cov(target, inits)
        covs[names.index("X0002")] = np.nan
        return covs

    monkeypatch.setattr(cli, "default_init_cov", nan_cov_for_x0002)
    assert main(["fit-inputs", "--config", str(cfg_path)]) == EXIT_NUMERICAL
    assert "X0002" in capsys.readouterr().err
    assert not (out / "inputs").exists()


def test_unstartable_input_chain_names_its_variable(tmp_path, capsys):
    # all of X0001's observations equal: its MLE variance is 0, where the
    # target is not finite, so its chain cannot start
    cfg_path, out = _study(tmp_path)
    observations = tmp_path / "data" / "observations.csv"
    header, *rows = observations.read_text().splitlines(keepends=True)
    observations.write_text(header + "".join("X0001,10.0\n" if r.startswith("X0001,") else r for r in rows))
    assert main(["fit-inputs", "--config", str(cfg_path)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "X0001" in err and "must be finite" in err
    assert not (out / "inputs").exists()


def test_changed_data_file_reruns_stage(tmp_path, capsys):
    cfg_path, out = _study(tmp_path)
    assert main(["fit-gp", "--config", str(cfg_path)]) == EXIT_OK
    # the manifest is unchanged, but the outputs no longer match the design
    outputs = tmp_path / "data" / "outputs.csv"
    header, *rows = outputs.read_text().splitlines(keepends=True)
    outputs.write_text(header + "".join(reversed(rows)))
    capsys.readouterr()
    assert main(["fit-gp", "--config", str(cfg_path)]) == EXIT_OK
    assert "up to date" not in capsys.readouterr().out


def _drop_key(path: Path, key: str) -> None:
    data = json.loads(path.read_text())
    del data[key]
    path.write_text(json.dumps(data))


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda p: p.write_text(p.read_text()[: len(p.read_text()) // 2]),
        lambda p: _drop_key(p, "outputs"),
        lambda p: p.write_text(json.dumps([json.loads(p.read_text())])),
    ],
    ids=["truncated", "no_outputs", "list"],
)
def test_damaged_provenance_record_reruns_stage(tmp_path, capsys, corrupt):
    cfg_path, out = _study(tmp_path)
    assert main(["fit-gp", "--config", str(cfg_path)]) == EXIT_OK
    record = out / "provenance" / "fit-gp.json"
    intact = json.loads(record.read_text())
    corrupt(record)
    capsys.readouterr()
    assert main(["fit-gp", "--config", str(cfg_path)]) == EXIT_OK
    assert "up to date" not in capsys.readouterr().out
    assert json.loads(record.read_text()) == intact
    assert main(["fit-gp", "--config", str(cfg_path)]) == EXIT_OK
    assert "up to date" in capsys.readouterr().out


def _set_key(path: Path, key: str, value) -> None:
    data = json.loads(path.read_text())
    data[key] = value
    path.write_text(json.dumps(data))


def _first_three(path: Path, key: str) -> None:
    """Cut the JSON list (or square matrix) at ``key`` to its first three entries (rows and columns)."""
    value = json.loads(path.read_text())[key]
    _set_key(path, key, [v[:3] if isinstance(v, list) else v for v in value[:3]])


def _edit_columns(path: Path, edit) -> None:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(edit(row) for row in rows)


def _keep_header(path: Path) -> None:
    path.write_text(path.read_text().splitlines(keepends=True)[0])


def _spoil_first_row(path: Path) -> None:
    header, _, *rest = path.read_text().splitlines(keepends=True)
    path.write_text(header + ",".join(["x"] * len(header.split(","))) + "\n" + "".join(rest))


def _add_unknown_setting(path: Path) -> None:
    data = json.loads(path.read_text())
    data["settings"]["unknown"] = 1
    path.write_text(json.dumps(data))


def _edit_hessian(path: Path, row: int, col: int, edit) -> None:
    hessian = json.loads(path.read_text())["hessian"]
    hessian[row][col] = edit(hessian[row][col])
    _set_key(path, "hessian", hessian)


def _edit_draws(path: Path, edit) -> None:
    """Replace the draws of the table at ``path`` by ``edit(draws)``; the header stays."""
    header, draws = read_table(path)
    write_table(path, header, edit(draws))


def _move_theta_to_50(path: Path) -> None:
    _edit_draws(path, lambda draws: np.full_like(draws, 50.0))


@pytest.mark.parametrize(
    "artifact, corrupt, argv",
    [
        ("inputs/X0001.json", Path.unlink, ["simulate-pf", "--setting", "A"]),
        ("inputs/X0001.json", Path.unlink, ["simulate-pf"]),
        ("gp_fit.json", lambda p: _drop_key(p, "theta"), ["simulate-pf", "--setting", "A"]),
        ("gp_fit.json", lambda p: p.write_text("{not json"), ["simulate-pf", "--setting", "A"]),
        ("inputs/X0003.csv", _spoil_first_row, ["simulate-pf"]),
        ("pf_setting_A.csv", _spoil_first_row, ["report"]),
        ("pf_setting_A_summary.json", lambda p: p.write_text("{not json"), ["report"]),
        ("gp_fit.json", lambda p: p.write_text(json.dumps([json.loads(p.read_text())])), ["simulate-pf", "--setting", "A"]),
        ("inputs/X0001.json", _add_unknown_setting, ["simulate-pf"]),
        ("inputs/X0001.json", lambda p: p.write_text(json.dumps([json.loads(p.read_text())])), ["simulate-pf"]),
        ("gp_fit.json", lambda p: _set_key(p, "tau_hat", "x"), ["tune-prior"]),
        ("gp_fit.json", lambda p: _first_three(p, "hessian"), ["report"]),
        ("gp_fit.json", lambda p: _set_key(p, "hessian", "x"), ["report"]),
        ("gp_fit.json", lambda p: _first_three(p, "theta"), ["simulate-pf", "--setting", "A"]),
        ("gp_fit.json", lambda p: _set_key(p, "nu_sq_hat", -1.0), ["tune-prior"]),
        ("cv_lambda.json", lambda p: _set_key(p, "winner", [1]), ["fit-gp"]),
        ("cv_lambda.json", lambda p: _set_key(p, "winner", -1.0), ["fit-gp"]),
        ("cv_lambda.json", lambda p: _set_key(p, "candidates", 5), ["report"]),
        ("theta_chain.csv", lambda p: _edit_columns(p, lambda row: row[:3]), ["report"]),
        ("theta_chain.csv", lambda p: _edit_columns(p, lambda row: row[:3]), ["simulate-pf", "--setting", "B"]),
        ("inputs/X0001.csv", lambda p: _edit_columns(p, lambda row: row[:1]), ["report"]),
        ("inputs/X0001.csv", lambda p: _edit_columns(p, lambda row: row[:1]), ["simulate-pf"]),
        ("inputs/X0001.csv", lambda p: _edit_columns(p, lambda row: row + row[:1]), ["report"]),
        ("theta_chain.csv", _keep_header, ["report"]),
        ("theta_chain.csv", _keep_header, ["simulate-pf"]),
        ("gp_fit.json", lambda p: _set_key(p, "tau_hat", 10**400), ["tune-prior"]),
        ("gp_fit.json", lambda p: _edit_hessian(p, 0, 0, lambda v: -v), ["report"]),
        ("gp_fit.json", lambda p: _edit_hessian(p, 0, 1, lambda v: v + 1.0), ["report"]),
        ("gp_fit.json", lambda p: _set_key(p, "theta", [50.0] * 4), ["tune-prior"]),
        ("gp_fit.json", lambda p: _set_key(p, "theta", [50.0] * 4), ["simulate-pf", "--setting", "A"]),
        ("inputs/X0001.csv", lambda p: _edit_draws(p, lambda d: d * [1.0, -1.0]), ["simulate-pf"]),
        ("inputs/X0001.csv", lambda p: _edit_draws(p, lambda d: d * [1.0, -1.0]), ["report"]),
        ("theta_chain.csv", _move_theta_to_50, ["simulate-pf", "--setting", "B"]),
        ("theta_chain.csv", _move_theta_to_50, ["report"]),
        ("pf_setting_B.csv", lambda p: _edit_draws(p, lambda d: np.vstack([[7.5], [-2.0], d[2:]])), ["report"]),
        ("pf_setting_A.csv", lambda p: p.write_text("\n"), ["report"]),
    ],
    ids=[
        "sidecar_deleted_A", "sidecar_deleted_B", "key_removed", "invalid_json", "chain_cell", "pf_cell",
        "summary_invalid_json", "json_list", "sidecar_unknown_setting", "sidecar_list",
        "tau_hat_string", "hessian_3x3", "hessian_string", "theta_length_3", "nu_sq_hat_negative",
        "winner_list", "winner_negative", "candidates_number", "theta_chain_3_columns_report",
        "theta_chain_3_columns_B", "input_chain_1_column_report", "input_chain_1_column_pf",
        "input_chain_3_columns_report", "theta_chain_no_rows_report", "theta_chain_no_rows_B",
        "tau_hat_past_float", "hessian_not_positive_definite", "hessian_asymmetric", "theta_outside_box_tune_prior",
        "theta_outside_box_A", "input_variance_negative_pf", "input_variance_negative_report",
        "theta_chain_outside_box_B", "theta_chain_outside_box_report", "pf_draws_outside_unit_report",
        "pf_no_columns",
    ],
)
def test_bad_upstream_artifact_exits_config(tmp_path, capsys, artifact, corrupt, argv):
    cfg_path, out = _study(tmp_path)
    assert main(["all", "--config", str(cfg_path)]) == EXIT_OK
    assert main(["simulate-pf", "--config", str(cfg_path), "--setting", "A"]) == EXIT_OK
    corrupt(out / artifact)
    capsys.readouterr()
    assert main([*argv, "--config", str(cfg_path)]) == EXIT_CONFIG
    assert Path(artifact).name in capsys.readouterr().err


def test_all_setting_a_skips_tune_prior(tmp_path, capsys):
    # Setting A never reads the theta posterior, so with no tau candidates
    # asked for, `all` runs no tune-prior and report compares no theta
    cfg_path, out = _study(tmp_path, tau_candidates=None)
    capsys.readouterr()
    assert main(["all", "--config", str(cfg_path), "--setting", "A"]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "tune-prior" not in printed and "simulate-pf (A)" in printed
    assert not (out / "cv_prior.json").exists() and not (out / "theta_chain.csv").exists()
    assert (out / "report" / "report_index.json").exists()
    assert not (out / "report" / "theta_comparison.csv").exists()


@pytest.mark.parametrize(
    "artifact, argv",
    [
        ("gp_fit.json", ["tune-prior"]),
        ("gp_fit.json", ["simulate-pf", "--setting", "A"]),
        ("theta_chain.csv", ["simulate-pf", "--setting", "B"]),
        ("inputs/X0001.csv", ["report"]),
    ],
    ids=["tune_prior", "simulate_pf_A", "simulate_pf_B", "report"],
)
def test_missing_required_upstream_file_exits_config(pipeline, tmp_path, capsys, artifact, argv):
    root, _, shared_out = pipeline
    out = tmp_path / "out"
    shutil.copytree(shared_out, out)
    cfg_path = write_config(tmp_path, root / "data" / "manifest.json", out)
    (out / artifact).unlink()
    capsys.readouterr()
    assert main([*argv, "--config", str(cfg_path)]) == EXIT_CONFIG
    assert str(out / artifact) in capsys.readouterr().err


def _edit_manifest(root: Path, edit) -> None:
    path = root / "data" / "manifest.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))


def _repeat_first_design_row(root: Path) -> None:
    path = root / "data" / "design.csv"
    header, first, _, *rest = path.read_text().splitlines(keepends=True)
    path.write_text(header + first + first + "".join(rest))


def _keep_two_design_rows(root: Path) -> None:
    for name in ("design.csv", "outputs.csv"):
        path = root / "data" / name
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:3]))


def _variables_as_strings(manifest: dict) -> dict:
    return {**manifest, "variables": [v["name"] for v in manifest["variables"]]}


def _config_as_utf16(root: Path) -> None:
    path = root / "config.json"
    path.write_bytes(path.read_text().encode("utf-16"))


def _config_as_directory(root: Path) -> None:
    (root / "config.json").unlink()
    (root / "config.json").mkdir()


@pytest.mark.parametrize(
    "spoil, named",
    [
        (lambda root: _edit_manifest(root, _variables_as_strings), "data/manifest.json"),
        (lambda root: _edit_manifest(root, lambda m: [m]), "data/manifest.json"),
        (lambda root: _edit_manifest(root, lambda m: {**m, "observations": 3}), "data/manifest.json"),
        (_config_as_directory, "config.json"),
        (lambda root: (root / "out").write_text(""), "out"),
        (_config_as_utf16, "config.json"),
        (_repeat_first_design_row, "data/manifest.json"),
        (lambda root: _edit_manifest(root, lambda m: {**m, "rescale_factor": 0}), "data/manifest.json"),
        (lambda root: _edit_manifest(root, lambda m: {**m, "rescale_factor": -1000}), "data/manifest.json"),
        (lambda root: _edit_manifest(root, lambda m: {**m, "rescale_factor": True}), "data/manifest.json"),
        (_keep_two_design_rows, "data/manifest.json"),
    ],
    ids=[
        "manifest_variables_strings", "manifest_list", "manifest_observations_number", "config_directory",
        "out_dir_file", "config_not_utf8", "design_rows_repeat", "rescale_factor_zero",
        "rescale_factor_negative", "rescale_factor_true", "design_two_rows",
    ],
)
def test_bad_outside_input_exits_config_before_any_write(tmp_path, capsys, spoil, named):
    # main returning at all means no traceback escaped it
    cfg_path, out = _study(tmp_path)
    spoil(tmp_path)
    capsys.readouterr()
    assert main(["fit-inputs", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert str(tmp_path / named) in capsys.readouterr().err
    assert not (out / "inputs").exists()
    assert not (out / "provenance" / "fit-inputs.json").exists()


def test_blocked_output_path_exits_config(tmp_path, capsys):
    # out/inputs is a regular file: the chains run, then publishing them
    # cannot make their directory; main returning at all means no
    # traceback escaped it
    cfg_path, out = _study(tmp_path)
    out.mkdir()
    (out / "inputs").write_text("")
    capsys.readouterr()
    assert main(["fit-inputs", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert str(out / "inputs") in capsys.readouterr().err
    assert not (out / "provenance" / "fit-inputs.json").exists()


@pytest.mark.parametrize(
    "args, named",
    [
        (["--out", "data", "--n", "0"], "--n "),
        (["--out", "data", "--n", "2"], "--n "),
        (["--out", "data", "--n-obs", "1"], "--n-obs"),
        (["--out", "data", "--n-obs", "0"], "--n-obs"),
        (["--out", "taken"], "taken"),
        (["--out", "data", "--seed", "-1"], "--seed"),
    ],
    ids=["n_zero", "n_two", "n_obs_one", "n_obs_zero", "out_file", "seed_negative"],
)
def test_bad_synth_argument_exits_config(tmp_path, monkeypatch, capsys, args, named):
    monkeypatch.chdir(tmp_path)
    Path("taken").write_text("")
    assert main(["synth", "--seed", "5", *args]) == EXIT_CONFIG
    assert named in capsys.readouterr().err
    assert not Path("data").exists()
