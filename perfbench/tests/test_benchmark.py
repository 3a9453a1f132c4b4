"""Tests of the benchmark itself: every output check fails on a corrupted
artifact, and every workload's code path runs at the smoke size.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import run
import workloads
from checks import CheckFailed
from reliagp.cli import main as cli_main

BENCH = run.ROOT / "perfbench"
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One clean smoke pass of the replication workload."""
    p = run.Pipeline("replication", 3, "smoke", tmp_path_factory.mktemp("pass"))
    _, crashed, wrong = p.run_pass(run.stage_runner(cli_main))
    assert crashed == [] and wrong == []
    return p


@pytest.fixture
def out(pipeline, tmp_path):
    """A private copy of the pass's artifacts, to corrupt."""
    return shutil.copytree(pipeline.out_dir, tmp_path / "out")


def rewrite_csv(path, fn):
    lines = path.read_text().splitlines()
    rows = [np.array([float(v) for v in line.split(",")]) for line in lines[1:]]
    new = fn(np.array(rows))
    path.write_text("\n".join([lines[0]] + [",".join(repr(float(v)) for v in r) for r in new]) + "\n")


def rewrite_json(path, **changes):
    data = json.loads(path.read_text())
    data.update(changes)
    path.write_text(json.dumps(data))


def run_checks(p, out):
    checks.input_chains(out, p.variables)
    checks.cv_scores(out / "cv_lambda.json")
    checks.gp_fit(out, p.S, p.Z)
    checks.tune_prior(out)
    for setting in "AB":
        checks.pf_draws(out, setting, p.config["N"])
    checks.loo_report(out, p.S, p.Z)


def test_clean_artifacts_pass(pipeline, out):
    run_checks(pipeline, out)


@pytest.mark.parametrize(
    "scale, match",
    [(1e6, "outside \\[0, 1\\]"), (1e-6, "outside central 99%")],
)
def test_pf_draws_scaled(pipeline, out, scale, match):
    rewrite_csv(out / "pf_setting_B.csv", lambda p: p * scale)
    with pytest.raises(CheckFailed, match=match):
        checks.pf_draws(out, "B", pipeline.config["N"])


def test_pf_draws_missing_row(pipeline, out):
    rewrite_csv(out / "pf_setting_A.csv", lambda p: p[1:])
    with pytest.raises(CheckFailed, match="draws, expected"):
        checks.pf_draws(out, "A", pipeline.config["N"])


@pytest.mark.parametrize("key, shift", [("objective", 1e-3), ("alpha_reml", 1e-3)])
def test_gp_fit_shifted(pipeline, out, key, shift):
    path = out / "gp_fit.json"
    rewrite_json(path, **{key: json.loads(path.read_text())[key] + shift})
    with pytest.raises(CheckFailed, match=key):
        checks.gp_fit(out, pipeline.S, pipeline.Z)


def test_loo_prediction_shifted(pipeline, out):
    def shift(table):
        table[3, 1] += 1e-3
        return table

    rewrite_csv(out / "report" / "observed_vs_expected.csv", shift)
    with pytest.raises(CheckFailed, match="row 3"):
        checks.loo_report(out, pipeline.S, pipeline.Z)


# 80 retained draws resolve mu to a few hundredths but sigma^2 only to
# about a tenth of itself, so the sigma^2 corruption is larger.
@pytest.mark.parametrize("column, param, factor", [(0, "mu", 1.1), (1, "sigma2", 3.0)])
def test_normal_posterior_mean_shifted(pipeline, out, column, param, factor):
    def shift(draws):
        draws[:, column] *= factor
        return draws

    rewrite_csv(out / "inputs" / "X0001.csv", shift)
    with pytest.raises(CheckFailed, match=f"posterior mean of {param}"):
        checks.input_chains(out, pipeline.variables)


def test_frozen_input_chain(pipeline, out):
    # the shape of a chain that never moves off its start: spread ~1e-14
    rewrite_csv(out / "inputs" / "X0003.csv", lambda d: d[:1] + 1e-14 * (d - d.mean(axis=0)))
    with pytest.raises(CheckFailed, match="frozen"):
        checks.input_chains(out, pipeline.variables)


@pytest.mark.parametrize("rate", [0.0, 1.0])
def test_input_chain_acceptance(pipeline, out, rate):
    rewrite_json(out / "inputs" / "X0004.json", acceptance_rate=rate)
    with pytest.raises(CheckFailed, match="acceptance rate"):
        checks.input_chains(out, pipeline.variables)


def test_frozen_theta_chain(out):
    rewrite_csv(out / "theta_chain.csv", lambda d: np.repeat(d[:1], d.shape[0], axis=0))
    with pytest.raises(CheckFailed, match="frozen"):
        checks.tune_prior(out)


@pytest.mark.parametrize("name", ["cv_lambda.json", "cv_prior.json"])
def test_infinite_cv_score(out, name):
    path = out / name
    scores = json.loads(path.read_text())["scores"]
    rewrite_json(path, scores=scores[:-1] + [float("inf")])
    with pytest.raises(CheckFailed, match="scores"):
        checks.cv_scores(path)


def test_stage_left_up_to_date(pipeline):
    """A second invocation on unchanged inputs is a no-op, and is caught."""
    record = pipeline.out_dir / "provenance" / "report.json"
    before = run._stat(record)
    log = io.StringIO()
    with contextlib.redirect_stdout(log):
        assert cli_main(pipeline.argv("report", None)) == 0
    with pytest.raises(CheckFailed, match="up to date"):
        checks.stage_did_work("report", log.getvalue(), before, run._stat(record))
    with pytest.raises(CheckFailed, match="not rewritten"):
        checks.stage_did_work("report", "", before, run._stat(record))


def spec_names(kind):
    return sorted(m["name"] for m in SPEC[kind])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke(workload, trace):
    args = run.parse_args(
        ["--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace), "--size", "smoke"]
    )
    result = run.run(args)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(workloads.STEPS)
    metrics = result["metrics"]
    assert sorted(metrics) == spec_names("per_layer" if trace else "end_to_end")
    if not trace:
        assert all(m["value"] > 0 for m in metrics.values())


def test_passes_per_run():
    """At the benchmark's run length, two replications or one lambda-pf pass."""
    seconds = SPEC["run_seconds"]
    assert workloads.passes("replication", seconds) == 2
    assert workloads.passes("lambda-pf", seconds) == 1
    assert workloads.passes("replication", 0) == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replication", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
