"""Pipeline orchestration.

Stages (in `all` order): fit-inputs -> tune-lambda -> fit-gp -> tune-prior
-> simulate-pf -> report.  `STAGE_TABLE` declares each stage once: the
config fields and the files it reads, and a body that writes its outputs.
One runner skips a stage whose provenance record (hashes of those fields,
of the dataset and the files read, and of the outputs) still matches, so a
stage re-runs when any file it reads changes (`report` after a new
`simulate-pf`, say).  Otherwise the body writes into a temporary directory
under the output directory, and its outputs appear only when it succeeds:
a failed stage leaves its previous outputs and record as they were.

fit-inputs samples every input's parameter posterior by adaptive
Metropolis in one am_sample_lockstep call, chain k on stage_rng(seed,
"fit-inputs", k).  That call, tune-lambda's fold fits and tune-prior's CV
chains run on worker processes (reliagp.workers); every chain and fold
draws from its own stream, so the outputs do not depend on the worker
count.

Config file is JSON; see PipelineConfig for the fields.  One master seed
fans out to all stage seeds via SeedSequence with a spawn key derived from
the stage name and loop indices, so identical configs produce byte-identical
numeric artifacts.

Exit codes: 0 success, 2 config or data error (a missing or malformed
upstream artifact included), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from reliagp import distributions as dists
from reliagp import gp as gpmod
from reliagp import ingest
from reliagp.distributions import Family, InputVariableSpec, PriorSpec, mle_fit
from reliagp.failure import simulate_pf, summarize
from reliagp.gp import GpDesign, bayes_log_posterior, fit_reml, hessian_nu_estimate
from reliagp.kriging import loo_diagnostics, loo_predictions
from reliagp.mcmc import (
    AmSettings,
    PosteriorChain,
    am_sample,
    am_sample_lockstep,
    default_init_cov,
    geweke,
    load_chain,
    remove_burn_in,
    save_chain,
)
from reliagp.tables import read_table, write_table
from reliagp.tuning import cv_hyperparams, cv_lambda

__all__ = ["PipelineConfig", "main", "run_stage"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

PARAM_NAMES = {Family.NORMAL: ["mu", "sigma2"], Family.WEIBULL: ["alpha", "beta"]}


class ConfigError(Exception):
    pass


class NumericalError(Exception):
    pass


def _is_a(value, kind) -> bool:
    """isinstance for a JSON value, with booleans never counted as numbers."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _finite(value, low=-math.inf, high=math.inf) -> bool:
    """A finite JSON number in [low, high)."""
    return _is_a(value, (int, float)) and -math.inf < value < high and value >= low


@dataclass
class PipelineConfig:
    manifest: str
    out_dir: str
    seed: int
    setting: str = "B"  # "A" (fixed REML theta) or "B" (theta posterior)
    input_prior: str = "jeffreys"
    jeffreys_normal_variant: str = "joint"
    burn_in: float = 0.2
    lam: float = 2.0
    lambda_grid: list = field(default_factory=lambda: [0.5, 1.0, 2.0, 4.0, 8.0])
    tau_candidates: list | None = None  # defaults to a grid around the EB estimate
    nu_sq: float | None = None  # defaults to the Hessian-based estimate
    z_crit: float = 3.0
    N: int = 2000
    M: int = 1000
    scale: str = "reml"
    standardize: bool = True
    restarts: int = 8
    cv_restarts: int = 4
    am_inputs: dict = field(default_factory=dict)
    am_theta: dict = field(default_factory=dict)
    am_cv: dict = field(default_factory=lambda: {"t": 10_000, "t0": 1_000})

    @staticmethod
    def from_file(path, overrides: dict | None = None) -> "PipelineConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}")
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        if overrides:
            raw.update({k: v for k, v in overrides.items() if v is not None})
        try:
            cfg = PipelineConfig(**raw)
        except TypeError as e:
            raise ConfigError(f"bad config fields: {e}")
        cfg.validate()
        return cfg

    def validate(self):
        def fail(key, valid):
            raise ConfigError(f"{key} must be {valid}, got {getattr(self, key)!r}")

        for key, kind in (("manifest", str), ("out_dir", str), ("standardize", bool)):
            if not isinstance(getattr(self, key), kind):
                fail(key, f"a {kind.__name__}")
        # seed is mandatory: no wall-clock seeding
        for key, low in (("seed", 0), ("N", 1), ("M", 1), ("restarts", 1), ("cv_restarts", 1)):
            if not (_is_a(getattr(self, key), int) and getattr(self, key) >= low):
                fail(key, f"an integer >= {low}")
        for key, low, high in (("z_crit", -math.inf, math.inf), ("lam", 0, math.inf), ("burn_in", 0, 1)):
            if not _finite(getattr(self, key), low, high):
                fail(key, f"a finite number in [{low}, {high})")
        for key, allowed in (
            ("setting", ("A", "B")),
            ("input_prior", ("flat", "jeffreys", "conjugate")),
            ("jeffreys_normal_variant", ("joint", "independence")),
            ("scale", ("reml", "profile")),
        ):
            if getattr(self, key) not in allowed:
                fail(key, f"one of {allowed}")
        grid = self.lambda_grid
        if not (isinstance(grid, list) and grid and all(_finite(v, 0) for v in grid)):
            fail("lambda_grid", "a non-empty list of finite numbers >= 0")
        taus = self.tau_candidates
        if not (taus is None or (isinstance(taus, list) and taus and all(map(_finite, taus)))):
            fail("tau_candidates", "null or a non-empty list of finite numbers")
        if not (self.nu_sq is None or (_finite(self.nu_sq) and self.nu_sq > 0)):
            fail("nu_sq", "null or a finite number > 0")
        for which in ("inputs", "theta", "cv"):
            block = getattr(self, f"am_{which}")
            # the stage sets the dimension d from its target
            if not isinstance(block, dict) or "d" in block:
                fail(f"am_{which}", "an object without a 'd' key")
            for key in ("t", "t0", "t1", "t2"):
                if key in block and not _is_a(block[key], int):
                    raise ConfigError(f"am_{which}: {key} must be an integer, got {block[key]!r}")
            try:
                self.am_settings(1, which)
            except (TypeError, ValueError) as e:
                raise ConfigError(f"am_{which}: {e}") from e
        if not Path(self.manifest).exists():
            raise ConfigError(f"dataset manifest not found: {self.manifest}")

    def am_settings(self, d: int, which: str) -> AmSettings:
        base = {"d": d}
        base.update(getattr(self, f"am_{which}"))
        return AmSettings(**base)

    def hash_subset(self, keys) -> str:
        subset = {k: getattr(self, k) for k in sorted(keys)}
        return hashlib.sha256(json.dumps(subset, sort_keys=True, default=str).encode()).hexdigest()


def stage_rng(master_seed: int, stage: str, *indices: int) -> np.random.Generator:
    """Documented seed fan-out: SeedSequence(master, spawn_key=(h(stage), *indices))
    with h the first 8 bytes of sha256(stage name)."""
    h = int.from_bytes(hashlib.sha256(stage.encode()).digest()[:8], "big")
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(h, *indices))
    return np.random.default_rng(ss)


def _file_hash(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_json(path: Path, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True))


def _save_checked_chain(chain: PosteriorChain, path: Path, names) -> None:
    """Write a chain with its Geweke z (NaN when the chain is too short for
    it).  A chain that never accepted a proposal sits at its start and
    carries none of the posterior's spread, so it fails the stage."""
    if chain.acceptance_rate == 0:
        raise NumericalError(f"chain {path.stem} is frozen: no proposal was accepted")
    try:
        z = geweke(chain)
    except ValueError:
        z = np.full(chain.d, np.nan)
    save_chain(replace(chain, geweke_z=z), path, names=names)


def _prior_for(cfg: PipelineConfig, spec: InputVariableSpec) -> PriorSpec:
    if cfg.input_prior == "flat":
        return PriorSpec.flat()
    if cfg.input_prior == "jeffreys":
        return PriorSpec.jeffreys(cfg.jeffreys_normal_variant)
    return PriorSpec.conjugate_for(spec)


def _build_design(cfg: PipelineConfig, dataset: ingest.StudyDataset) -> GpDesign:
    return GpDesign(S=dataset.design, Z=dataset.outputs, standardize=cfg.standardize)


def _input_chain_files(dataset) -> list[str]:
    return [f"inputs/{v.name}.csv" for v in dataset.variables]


def _with_sidecars(chain_files: list[str]) -> list[str]:
    """Each chain CSV and the JSON sidecar that load_chain reads beside it."""
    return [f for rel in chain_files for f in (rel, str(Path(rel).with_suffix(".json")))]


def _read_upstream(cfg: PipelineConfig, rel: str, read):
    """``read(path)`` of the artifact ``rel`` under ``out_dir``; a missing or
    malformed file, or a missing JSON key, is a ConfigError that names it."""
    path = Path(cfg.out_dir) / rel
    try:
        return read(path)
    except (OSError, ValueError, KeyError) as e:
        raise ConfigError(f"cannot read upstream artifact {path}: {type(e).__name__}: {e}") from e


def _read_json(cfg: PipelineConfig, rel: str, *keys: str) -> list:
    """The entries ``keys`` of the JSON object at ``rel`` under ``out_dir``."""
    return _read_upstream(cfg, rel, lambda path: [json.loads(path.read_text())[k] for k in keys])


def _draws(cfg: PipelineConfig, rel: str) -> np.ndarray:
    """Retained draws of the chain at ``rel`` under ``out_dir``, after burn-in."""
    return _read_upstream(cfg, rel, lambda path: remove_burn_in(load_chain(path), cfg.burn_in).draws)


def _mean_ci(col: np.ndarray) -> list[float]:
    """Mean and 95% interval of one column of draws."""
    return [col.mean(), *np.quantile(col, [0.025, 0.975])]


# Stage bodies.  Each reads its inputs under cfg.out_dir and writes its
# outputs under `work`, at the paths they take under cfg.out_dir.


def _fit_inputs(cfg: PipelineConfig, dataset, work: Path) -> None:
    """One adaptive Metropolis chain per input, all in one
    am_sample_lockstep call.

    Chain k starts at input k's MLE and draws from stage_rng(seed,
    "fit-inputs", k), so it is the chain am_sample gives it alone.  The
    first failed chain in variable order fails the stage, named."""
    specs = dataset.variables
    targets = [dists.log_posterior_target(spec, _prior_for(cfg, spec)) for spec in specs]

    def target(psi):  # row k holds input k's parameter pair
        return np.array([t(row) for t, row in zip(targets, psi.tolist())])

    inits = np.array([mle_fit(spec).as_array() for spec in specs])
    rngs = [stage_rng(cfg.seed, "fit-inputs", k) for k in range(len(specs))]
    settings = cfg.am_settings(2, "inputs")
    runs = am_sample_lockstep(target, inits, default_init_cov(target, inits), settings, rngs)
    for spec, rel, run in zip(specs, _input_chain_files(dataset), runs):
        if isinstance(run, Exception):
            raise NumericalError(f"fit-inputs: chain {spec.name} failed: {run}") from run
        _save_checked_chain(run, work / rel, PARAM_NAMES[spec.family])
    print(f"fit-inputs: wrote {len(specs)} chains")


def _tune_lambda(cfg: PipelineConfig, dataset, work: Path) -> None:
    design = _build_design(cfg, dataset)
    rng_seed = int(stage_rng(cfg.seed, "tune-lambda").integers(2**63))
    report = cv_lambda(design, cfg.lambda_grid, restarts=cfg.cv_restarts, master_seed=rng_seed)
    if not np.any(np.isfinite(report.scores)):
        raise NumericalError(f"tune-lambda: every lambda candidate {cfg.lambda_grid} failed cross-validation")
    winner = report.candidates[report.winner]
    _write_json(
        work / "cv_lambda.json",
        {
            "candidates": list(report.candidates),
            "scores": [float(s) for s in report.scores],
            "winner_index": report.winner,
            "winner": winner,
        },
    )
    write_table(
        work / "cv_lambda_folds.csv",
        ["lambda", "fold", "squared_error"],
        (
            [float(lam), i, report.fold_losses[q, i]]
            for q, lam in enumerate(report.candidates)
            for i in range(design.n)
        ),
    )
    print(f"tune-lambda: winner lambda={winner}")


def _fit_gp(cfg: PipelineConfig, dataset, work: Path) -> None:
    has_cv = (Path(cfg.out_dir) / "cv_lambda.json").exists()
    lam = float(_read_json(cfg, "cv_lambda.json", "winner")[0]) if has_cv else cfg.lam
    design = _build_design(cfg, dataset)
    fit = fit_reml(design, lam=lam, restarts=cfg.restarts, rng=stage_rng(cfg.seed, "fit-gp"))
    tau_hat, nu_sq_hat = hessian_nu_estimate(fit)
    if not (math.isfinite(nu_sq_hat) and nu_sq_hat > 0):
        raise NumericalError(
            f"fit-gp: prior variance estimate nu_sq_hat={nu_sq_hat} is not positive; "
            f"the REML Hessian at theta={list(fit.theta)} is not positive definite"
        )
    _write_json(
        work / "gp_fit.json",
        {
            "theta": [float(t) for t in fit.theta],
            "beta_mean": [float(b) for b in fit.beta_hat],
            "alpha_reml": fit.alpha_reml,
            "alpha_profile": fit.alpha_profile,
            "objective": fit.objective,
            "hessian": [[float(v) for v in row] for row in fit.hessian],
            "nugget": fit.nugget,
            "lam": lam,
            "at_bounds": fit.at_bounds,
            "tau_hat": tau_hat,
            "nu_sq_hat": nu_sq_hat,
        },
    )
    print(f"fit-gp: objective {fit.objective:.4f}, tau_hat {tau_hat:.3f}, nu_sq_hat {nu_sq_hat:.4f}")


def _tune_prior(cfg: PipelineConfig, dataset, work: Path) -> None:
    theta_hat, tau_hat, nu_sq_hat = _read_json(cfg, "gp_fit.json", "theta", "tau_hat", "nu_sq_hat")
    nu_sq = cfg.nu_sq if cfg.nu_sq is not None else nu_sq_hat
    if cfg.tau_candidates is not None:
        taus = list(cfg.tau_candidates)
    else:
        taus = sorted({round(tau_hat * f, 3) for f in (0.67, 0.74, 0.84, 1.0, 1.17)})
    candidates = [(float(t), float(nu_sq)) for t in taus]

    design = _build_design(cfg, dataset)
    cv_settings = cfg.am_settings(design.K, "cv")
    cv_seed = int(stage_rng(cfg.seed, "tune-prior-cv").integers(2**63))
    report = cv_hyperparams(design, candidates, cv_settings, burn_in=cfg.burn_in, master_seed=cv_seed)
    if not np.any(np.isfinite(report.scores)):
        raise NumericalError(f"tune-prior: every prior candidate {candidates} failed cross-validation")
    tau_star, nu_sq_star = report.candidates[report.winner]
    _write_json(
        work / "cv_prior.json",
        {
            "candidates": [[t, v] for t, v in report.candidates],
            "scores": [float(s) for s in report.scores],
            "winner_index": report.winner,
            "tau": tau_star,
            "nu_sq": nu_sq_star,
        },
    )

    # final theta posterior chain under the winning prior (used by Setting B)
    target = bayes_log_posterior(design, tau_star, nu_sq_star)
    init = np.asarray(theta_hat, dtype=float)
    if not math.isfinite(target(init)):
        init = np.full(design.K, tau_star)
    settings = cfg.am_settings(design.K, "theta")
    rng = stage_rng(cfg.seed, "tune-prior-chain")
    chain = am_sample(target, init, default_init_cov(target, init), settings, rng)
    _save_checked_chain(chain, work / "theta_chain.csv", [f"theta_{k}" for k in range(design.K)])
    print(f"tune-prior: winner tau={tau_star}, nu_sq={nu_sq_star:.4f}")


def _simulate_pf(cfg: PipelineConfig, dataset, work: Path) -> None:
    design = _build_design(cfg, dataset)
    input_chains = [
        (spec.family, _draws(cfg, rel))
        for spec, rel in zip(dataset.variables, _input_chain_files(dataset))
    ]
    if cfg.setting == "A":
        theta_source = np.asarray(_read_json(cfg, "gp_fit.json", "theta")[0], dtype=float)
    else:
        theta_source = _draws(cfg, "theta_chain.csv")
    posterior = simulate_pf(
        input_chains,
        theta_source,
        design,
        z_crit=cfg.z_crit,
        N=cfg.N,
        M=cfg.M,
        rng=stage_rng(cfg.seed, "simulate-pf"),
        scale=cfg.scale,
    )
    write_table(work / f"pf_setting_{cfg.setting}.csv", ["p_crit"], posterior.p[:, None])
    s = summarize(posterior)
    _write_json(work / f"pf_setting_{cfg.setting}_summary.json", s)
    print(
        f"simulate-pf ({cfg.setting}): median {s['median_per_target']:.3f}, "
        f"mean {s['mean_per_target']:.3f} (x target)"
    )


def _report(cfg: PipelineConfig, dataset, work: Path) -> None:
    out = Path(cfg.out_dir)
    report_dir = work / "report"

    # per-variable posterior mean with 95% CI
    rows = []
    for spec, rel in zip(dataset.variables, _input_chain_files(dataset)):
        draws = _draws(cfg, rel)
        for j, pname in enumerate(PARAM_NAMES[spec.family]):
            rows.append([spec.name, pname, *_mean_ci(draws[:, j])])
    header = ["variable", "parameter", "mean", "ci_lower", "ci_upper"]
    write_table(report_dir / "input_posterior_ci.csv", header, rows)

    # CV curves, when the tuning stages ran
    for name in ("cv_lambda", "cv_prior"):
        if (out / f"{name}.json").exists():
            candidates, scores = _read_json(cfg, f"{name}.json", "candidates", "scores")
            write_table(
                report_dir / f"{name}_curve.csv",
                ["candidate", "score"],
                ([json.dumps(c), float(s)] for c, s in zip(candidates, scores)),
            )

    # observed vs expected at the REML theta
    design = _build_design(cfg, dataset)
    theta, hessian = _read_json(cfg, "gp_fit.json", "theta", "hessian")
    theta = np.asarray(theta, dtype=float)
    z_hat, s0 = loo_predictions(design, theta, scale=cfg.scale)
    write_table(
        report_dir / "observed_vs_expected.csv", ["observed", "expected", "rmspe"], zip(design.Z, z_hat, s0)
    )
    _write_json(report_dir / "observed_vs_expected_stats.json", loo_diagnostics(design.Z, z_hat))

    # REML vs Bayesian range-parameter comparison, when the chain exists
    if (out / "theta_chain.csv").exists():
        draws = _draws(cfg, "theta_chain.csv")
        try:
            hess_inv = np.linalg.inv(np.asarray(hessian))
            half = 1.96 * np.sqrt(np.clip(np.diag(hess_inv), 0.0, None))
        except np.linalg.LinAlgError:
            half = np.full(design.K, np.nan)
        rows = []
        for k in range(design.K):
            reml = (theta[k], theta[k] - half[k], theta[k] + half[k])
            rows.append([k, *reml, *_mean_ci(draws[:, k])])
        write_table(
            report_dir / "theta_comparison.csv",
            ["k", "reml", "reml_ci_lower", "reml_ci_upper", "bayes_mean", "bayes_ci_lower", "bayes_ci_upper"],
            rows,
        )

    # P_f histogram data and summary echo
    for setting in ("A", "B"):
        if (out / f"pf_setting_{setting}.csv").exists():
            _, p = _read_upstream(cfg, f"pf_setting_{setting}.csv", read_table)
            counts, edges = np.histogram(p[:, 0], bins=40)
            rows = zip(edges[:-1], edges[1:], counts)
            write_table(report_dir / f"pf_setting_{setting}_hist.csv", ["bin_left", "bin_right", "count"], rows)
            summary_src = out / f"pf_setting_{setting}_summary.json"
            if summary_src.exists():
                _write_text(report_dir / summary_src.name, summary_src.read_text())

    files = sorted(str(p.relative_to(work)) for p in work.rglob("*") if p.is_file())
    _write_json(report_dir / "report_index.json", {"files": files})
    print(f"report: wrote {len(files) + 1} files")


def _simulate_pf_reads(cfg: PipelineConfig, dataset):
    theta = ["theta_chain.csv"] if cfg.setting == "B" else []
    return ["gp_fit.json", *_with_sidecars([*_input_chain_files(dataset), *theta])], []


def _report_reads(cfg: PipelineConfig, dataset):
    pf = [f"pf_setting_{s}{ext}" for s in "AB" for ext in (".csv", "_summary.json")]
    optional = [*_with_sidecars(["theta_chain.csv"]), "cv_lambda.json", "cv_prior.json", *pf]
    return ["gp_fit.json", *_with_sidecars(_input_chain_files(dataset))], optional


@dataclass(frozen=True)
class Stage:
    """One pipeline stage: its name, the config fields its body reads, and
    its body.  ``reads(cfg, dataset)`` names the files under ``out_dir``
    that the body reads, as (required, optional) lists; every stage also
    reads the dataset (its manifest and data files)."""

    name: str
    config_keys: str  # space-separated PipelineConfig field names
    body: Callable[[PipelineConfig, ingest.StudyDataset, Path], None]
    reads: Callable[[PipelineConfig, ingest.StudyDataset], tuple[list[str], list[str]]] = (
        lambda cfg, dataset: ([], [])
    )


STAGE_TABLE = {
    s.name: s
    for s in (
        Stage("fit-inputs", "seed input_prior jeffreys_normal_variant am_inputs", _fit_inputs),
        Stage("tune-lambda", "seed lambda_grid cv_restarts standardize", _tune_lambda),
        Stage(
            "fit-gp", "seed lam restarts standardize", _fit_gp, lambda cfg, ds: ([], ["cv_lambda.json"])
        ),
        Stage(
            "tune-prior",
            "seed tau_candidates nu_sq am_cv am_theta burn_in standardize",
            _tune_prior,
            lambda cfg, ds: (["gp_fit.json"], []),
        ),
        Stage(
            "simulate-pf",
            "seed setting z_crit N M scale burn_in standardize",
            _simulate_pf,
            _simulate_pf_reads,
        ),
        Stage("report", "burn_in scale standardize", _report, _report_reads),
    )
}
STAGES = list(STAGE_TABLE)


def run_stage(stage: str, cfg: PipelineConfig) -> None:
    """Run one stage unless it is up to date; see the module docstring."""
    if stage not in STAGE_TABLE:
        raise ConfigError(f"unknown stage {stage!r}")
    spec = STAGE_TABLE[stage]
    try:
        dataset = ingest.load_dataset(cfg.manifest)
    except (OSError, KeyError, ValueError) as e:
        # a missing file, manifest key or schema error is bad data, not numerics
        raise ConfigError(f"cannot load dataset {cfg.manifest}: {e}") from e
    out = Path(cfg.out_dir)
    required, optional = ([out / rel for rel in rels] for rels in spec.reads(cfg, dataset))
    for p in required:
        if not p.exists():
            raise ConfigError(f"stage {stage}: missing upstream artifact {p}")
    reads = [*dataset.files, *required, *(p for p in optional if p.exists())]
    state = {
        "config_hash": cfg.hash_subset(spec.config_keys.split()),
        "upstream": {str(p): _file_hash(p) for p in reads},
    }
    record_path = out / "provenance" / f"{stage}.json"
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    if all(record.get(k) == v for k, v in state.items()) and all(
        Path(p).exists() and _file_hash(Path(p)) == h for p, h in record["outputs"].items()
    ):
        print(f"{stage}: up to date")
        return
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f".{stage}-", dir=out) as tmp:
        work = Path(tmp)
        spec.body(cfg, dataset, work)
        outputs = {}
        for p in sorted(p for p in work.rglob("*") if p.is_file()):
            dst = out / p.relative_to(work)
            outputs[str(dst)] = _file_hash(p)
            dst.parent.mkdir(parents=True, exist_ok=True)
            os.replace(p, dst)
        _write_json(work / "record.json", {**state, "outputs": outputs})
        record_path.parent.mkdir(exist_ok=True)
        os.replace(work / "record.json", record_path)


def run_all(cfg: PipelineConfig):
    for stage in STAGES:
        if stage == "tune-prior" and cfg.setting == "A" and cfg.tau_candidates is None:
            # Setting A never consumes the theta posterior; skip unless asked
            continue
        run_stage(stage, cfg)


def cmd_synth(args) -> int:
    dataset = ingest.synth_study(seed=args.seed, n=args.n, n_obs=args.n_obs)
    manifest = ingest.save_dataset(dataset, args.out)
    print(f"synth: wrote {manifest}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="reliagp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate the synthetic fixture dataset")
    synth.add_argument("--out", required=True)
    synth.add_argument("--seed", type=int, required=True)
    synth.add_argument("--n", type=int, default=25)
    synth.add_argument("--n-obs", type=int, default=10)

    for name in STAGES + ["all"]:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON pipeline config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--setting", choices=["A", "B"], default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "synth":
            return cmd_synth(args)
        cfg = PipelineConfig.from_file(
            args.config, {"seed": args.seed, "setting": args.setting}
        )
        if args.command == "all":
            run_all(cfg)
        else:
            run_stage(args.command, cfg)
        return EXIT_OK
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        NumericalError,
        np.linalg.LinAlgError,
        gpmod.FactorizationError,
        RuntimeError,
        ValueError,
    ) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
