import csv
import json
from pathlib import Path

import numpy as np
import pytest

from reliagp import cli
from reliagp.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from reliagp.gp import GpFit


def write_config(tmp_path: Path, manifest: Path, out_dir: Path, **overrides) -> Path:
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
        ("fit-gp", {"lam": "x"}),
        ("tune-lambda", {"lambda_grid": "ab"}),
        ("tune-lambda", {"lambda_grid": []}),
    ],
    ids=[
        "not_an_object", "seed_str", "burn_in_str", "am_unknown_key", "seed_negative", "am_t2",
        "restarts_zero", "am_t_float", "am_t1_bool", "am_d_key", "lam_str", "lambda_grid_str",
        "lambda_grid_empty",
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
    assert "config error" in capsys.readouterr().err


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
    # a REML optimum on a saddle: the pseudo-inverse of this Hessian gives a
    # negative nu_sq_hat, which no later stage can use
    data_dir = tmp_path / "data"
    assert main(["synth", "--out", str(data_dir), "--seed", "5", "--n", "6", "--n-obs", "6"]) == EXIT_OK
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, data_dir / "manifest.json", out)
    saddle = GpFit(
        theta=np.full(4, -1.57),
        beta_hat=np.array([0.0]),
        alpha_reml=1.0,
        alpha_profile=1.0,
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
        ({"scale": "profile"}, {"simulate-pf", "report"}),
    ],
    ids=["z_crit", "tau_candidates", "scale"],
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
