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
Metropolis, chain k on stage_rng(seed, "fit-inputs", k).  Its chains,
tune-lambda's fold fits and tune-prior's CV chains run on worker processes
(reliagp.workers); every chain and fold draws from its own stream, so the
outputs do not depend on the worker count.  Every process runs OpenBLAS
on one thread: ``main`` sets its own (workers.one_blas_thread) before it
runs a command, as each worker does.  tune-prior's final theta chain runs
here, on a target that scores several proposals per call (see
mcmc.am_sample).

Config file is JSON; see PipelineConfig for the fields.  One master seed
fans out to all stage seeds via SeedSequence with a spawn key derived from
the stage name and loop indices, so identical configs produce byte-identical
numeric artifacts.

Exit codes: 0 success, 3 numerical failure, 2 config or data error: a
config, dataset or upstream artifact that ``_read`` cannot read (an
upstream value of the wrong kind or shape or outside its support, or a
chain with no draws, of the wrong width or with a draw outside its
support, included), a design with fewer than 3 rows or that
GpDesign rejects, an out_dir or synth --out that cannot be created, a
stage output that cannot be written, or a bad synth argument.
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
from reliagp import ingest, workers
from reliagp.distributions import Family, InputVariableSpec, PriorSpec, mle_fit
from reliagp.failure import simulate_pf, summarize
from reliagp.gp import THETA_BOUNDS, GpDesign, bayes_log_posterior, fit_reml, hessian_nu_estimate, in_theta_box
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


def _finite(value, low=-math.inf) -> bool:
    """A finite JSON number >= low; an integer past the largest float is not."""
    return _is_a(value, (int, float)) and abs(value) <= sys.float_info.max and value >= low


LAM_WITHOUT_CV = 2.0  # the ridge penalty fit-gp fits at when tune-lambda did not run


@dataclass
class PipelineConfig:
    manifest: str
    out_dir: str
    seed: int
    setting: str = "B"  # "A" (fixed REML theta) or "B" (theta posterior)
    input_prior: str = "jeffreys"
    jeffreys_normal_variant: str = "joint"
    lambda_grid: list = field(default_factory=lambda: [0.5, 1.0, 2.0, 4.0, 8.0])
    tau_candidates: list | None = None  # defaults to a grid around the EB estimate
    z_crit: float = 3.0
    N: int = 2000
    M: int = 1000
    restarts: int = 8
    cv_restarts: int = 4
    # adaptive-Metropolis blocks: t, t0 and t2 only (AmSettings keeps epsilon and t1)
    am_inputs: dict = field(default_factory=dict)
    am_theta: dict = field(default_factory=dict)
    am_cv: dict = field(default_factory=lambda: {"t": 10_000, "t0": 1_000})

    @staticmethod
    def from_file(path, overrides: dict | None = None) -> "PipelineConfig":
        # JSON that is not an object, or names an unknown field, is a TypeError here
        given = {k: v for k, v in (overrides or {}).items() if v is not None}
        cfg = _read(Path(path), lambda p: PipelineConfig(**{**json.loads(p.read_text()), **given}), "config file")
        cfg.validate()
        return cfg

    def validate(self):
        def fail(key, valid):
            raise ConfigError(f"{key} must be {valid}, got {getattr(self, key)!r}")

        for key in ("manifest", "out_dir"):
            if not isinstance(getattr(self, key), str):
                fail(key, "a str")
        # seed is mandatory: no wall-clock seeding
        for key, low in (("seed", 0), ("N", 1), ("M", 1), ("restarts", 1), ("cv_restarts", 1)):
            if not (_is_a(getattr(self, key), int) and getattr(self, key) >= low):
                fail(key, f"an integer >= {low}")
        if not _finite(self.z_crit):
            fail("z_crit", "a finite number")
        for key, allowed in (
            ("setting", ("A", "B")),
            ("input_prior", ("flat", "jeffreys", "conjugate")),
            ("jeffreys_normal_variant", ("joint", "independence")),
        ):
            if getattr(self, key) not in allowed:
                fail(key, f"one of {allowed}")
        grid = self.lambda_grid
        if not (isinstance(grid, list) and grid and all(_finite(v, 0) for v in grid)):
            fail("lambda_grid", "a non-empty list of finite numbers >= 0")
        taus = self.tau_candidates
        if not (taus is None or (isinstance(taus, list) and taus and all(map(_finite, taus)))):
            fail("tau_candidates", "null or a non-empty list of finite numbers")
        for which in ("inputs", "theta", "cv"):
            block = getattr(self, f"am_{which}")
            # the stage sets the dimension d from its target
            if not (isinstance(block, dict) and set(block) <= {"t", "t0", "t2"}):
                fail(f"am_{which}", "an object with no keys but 't', 't0' and 't2'")
            for key, value in block.items():
                if not _is_a(value, int):
                    raise ConfigError(f"am_{which}: {key} must be an integer, got {value!r}")
            try:
                self.am_settings(1, which)
            except ValueError as e:
                raise ConfigError(f"am_{which}: {e}") from e

    def am_settings(self, d: int, which: str) -> AmSettings:
        return AmSettings(d=d, **getattr(self, f"am_{which}"))

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


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True))


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


def _input_chain_files(dataset) -> list[str]:
    return [f"inputs/{v.name}.csv" for v in dataset.variables]


def _with_sidecars(chain_files: list[str]) -> list[str]:
    """Each chain CSV and the JSON sidecar that load_chain reads beside it."""
    return [f for rel in chain_files for f in (rel, str(Path(rel).with_suffix(".json")))]


def _read(path: Path, read, what: str):
    """``read(path)`` of a file from outside the program; a missing or
    malformed file, a missing JSON key, JSON of the wrong shape or a value
    that ``read`` rejects is a ConfigError that names ``what`` and the
    path."""
    try:
        return read(path)
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise ConfigError(f"cannot read {what} {path}: {type(e).__name__}: {e}") from e


def _make_dir(path: Path, what: str) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create {what} {path}: {e}") from e


def _read_upstream(cfg: PipelineConfig, rel: str, read):
    return _read(Path(cfg.out_dir) / rel, read, "upstream artifact")


def _numbers(*shape: int, ok=_finite, valid="a finite number"):
    """A reader ``read(value, key)`` of the JSON value at ``key``: nested
    lists of ``shape`` whose entries pass ``ok``, as a float array, or for
    no shape a lone number, as a float; any other value is a ValueError that
    names the key and says what it must be (each entry ``valid``)."""

    def fits(value, shape) -> bool:
        if not shape:
            return ok(value)
        return isinstance(value, list) and len(value) == shape[0] and all(fits(v, shape[1:]) for v in value)

    def read(value, key: str):
        if not fits(value, shape):
            raise ValueError(f"{key} must be {f'of shape {shape}, each entry ' if shape else ''}{valid}: {value!r}")
        return np.array(value, dtype=float) if shape else float(value)

    return read


def _theta(K: int):
    """A reader of a theta K-vector inside THETA_BOUNDS (see _numbers)."""
    return _numbers(K, ok=lambda v: _finite(v) and in_theta_box(v), valid=f"a number in {list(THETA_BOUNDS)}")


def _spd(K: int):
    """A reader of a symmetric positive definite K x K matrix (see _numbers);
    a matrix that Cholesky cannot factorize raises LinAlgError, a ValueError."""
    read_matrix = _numbers(K, K)

    def read(value, key: str):
        matrix = read_matrix(value, key)
        if not np.array_equal(matrix, matrix.T):
            raise ValueError(f"{key} must be symmetric: {value!r}")
        np.linalg.cholesky(matrix)
        return matrix

    return read


def _read_json(cfg: PipelineConfig, rel: str, **kinds) -> list:
    """The entries of the JSON object at ``rel`` under ``out_dir`` that the
    keywords name, each read by its reader (see _numbers)."""

    def read(path):
        entries = json.loads(path.read_text())
        return [kind(entries[key], key) for key, kind in kinds.items()]

    return _read_upstream(cfg, rel, read)


def _cv_curve(path: Path) -> list:
    """The (candidate, score) pairs of a cv_*.json, whose candidates and
    scores are lists of equal length, each score a number (inf for a failed
    candidate)."""
    entries = json.loads(path.read_text())
    candidates = entries["candidates"]
    if not isinstance(candidates, list):
        raise ValueError(f"candidates must be a list: {candidates!r}")
    read_scores = _numbers(len(candidates), ok=lambda v: _is_a(v, float) or _finite(v), valid="a number")
    return list(zip(candidates, read_scores(entries["scores"], "scores")))


def _draws(cfg: PipelineConfig, rel: str, width: int, inside, support: str) -> np.ndarray:
    """Retained draws of the chain at ``rel`` under ``out_dir``, after
    burn-in; a chain with no draws, not ``width`` columns wide, or with a
    draw that ``inside(draws)`` finds outside ``support``, is a ValueError."""

    def read(path):
        chain = load_chain(path)
        rows, cols = chain.draws.shape
        if cols != width or not rows:
            raise ValueError(f"the chain has {rows} draws of {cols} columns, expected {width} columns")
        if not inside(chain.draws):
            raise ValueError(f"the chain has a draw outside {support}")
        return remove_burn_in(chain).draws

    return _read_upstream(cfg, rel, read)


def _input_draws(cfg: PipelineConfig, dataset) -> list[np.ndarray]:
    """_draws of each input's chain, in variable order: pairs that the
    input's family admits (distributions.SUPPORT)."""

    def read(spec, rel):
        valid = dists.SUPPORT[spec.family]
        return _draws(cfg, rel, 2, lambda draws: all(map(valid, *draws.T.tolist())), f"the {spec.family.value} support")

    return [read(spec, rel) for spec, rel in zip(dataset.variables, _input_chain_files(dataset))]


def _theta_draws(cfg: PipelineConfig, K: int) -> np.ndarray:
    """_draws of the theta chain: K-vectors inside THETA_BOUNDS."""
    inside = lambda draws: in_theta_box(draws).all()
    return _draws(cfg, "theta_chain.csv", K, inside, f"THETA_BOUNDS {list(THETA_BOUNDS)}")


def _pf_draws(path: Path) -> np.ndarray:
    """The P_f draws of a pf_setting_*.csv; a table that is not one column of
    draws in [0, 1] is a ValueError."""
    _, p = read_table(path)
    if p.shape[1] != 1 or not np.all((0 <= p) & (p <= 1)):
        raise ValueError(f"the table must be one column of P_f draws in [0, 1], got {p.shape[1]} columns")
    return p[:, 0]


def _mean_ci(col: np.ndarray) -> list[float]:
    """Mean and 95% interval of one column of draws."""
    return [col.mean(), *np.quantile(col, [0.025, 0.975])]


def _write_cv(work: Path, stage: str, name: str, report, **winner) -> None:
    """Write cv_<name>.json: the candidates, their scores, the winner's index
    and the ``winner`` entries.  A report with no finite score fails the
    stage."""
    if not np.any(np.isfinite(report.scores)):
        raise NumericalError(f"{stage}: every {name} candidate {report.candidates} failed cross-validation")
    fields = {"candidates": list(report.candidates), "scores": [float(s) for s in report.scores]}
    _write_json(work / f"cv_{name}.json", {**fields, "winner_index": report.winner, **winner})


# Stage bodies.  Each reads its inputs under cfg.out_dir and writes its
# outputs under `work`, at the paths they take under cfg.out_dir.


def _fit_inputs(cfg: PipelineConfig, dataset, design: GpDesign, work: Path) -> None:
    """One adaptive Metropolis chain per input.

    One default_init_cov call over all inputs gives the chains' initial
    covariances.  The chains are dealt out over the worker processes
    (workers.fork_blocks), one am_sample_lockstep call per share on a
    target over the share's inputs.  Chain k starts at input k's MLE
    and draws from stage_rng(seed, "fit-inputs", k), so it is the chain
    am_sample gives it alone.  The first failed chain in variable order
    fails the stage, named."""
    specs = dataset.variables
    targets = [dists.log_posterior_target(spec, _prior_for(cfg, spec)) for spec in specs]

    def target_for(share):  # row k holds the parameter pair of share[k]'s input
        return lambda psi: np.array([t(row) for t, row in zip(share, psi.tolist())])

    inits = np.array([mle_fit(spec).as_array() for spec in specs])
    covs = default_init_cov(target_for(targets), inits)
    settings = cfg.am_settings(2, "inputs")

    def run_share(share):
        rngs = [stage_rng(cfg.seed, "fit-inputs", k) for k in range(len(specs))[share]]
        return am_sample_lockstep(target_for(targets[share]), inits[share], covs[share], settings, rngs)

    runs = workers.fork_blocks(run_share, len(specs))
    for spec, rel, run in zip(specs, _input_chain_files(dataset), runs):
        if isinstance(run, Exception):
            raise NumericalError(f"fit-inputs: chain {spec.name} failed: {run}") from run
        _save_checked_chain(run, work / rel, PARAM_NAMES[spec.family])
    print(f"fit-inputs: wrote {len(specs)} chains")


def _tune_lambda(cfg: PipelineConfig, dataset, design: GpDesign, work: Path) -> None:
    rng_seed = int(stage_rng(cfg.seed, "tune-lambda").integers(2**63))
    report = cv_lambda(design, cfg.lambda_grid, restarts=cfg.cv_restarts, master_seed=rng_seed)
    winner = report.candidates[report.winner]
    _write_cv(work, "tune-lambda", "lambda", report, winner=winner)
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


def _fit_gp(cfg: PipelineConfig, dataset, design: GpDesign, work: Path) -> None:
    has_cv = (Path(cfg.out_dir) / "cv_lambda.json").exists()
    non_negative = _numbers(ok=lambda v: _finite(v, 0), valid="a finite number >= 0")
    lam = _read_json(cfg, "cv_lambda.json", winner=non_negative)[0] if has_cv else LAM_WITHOUT_CV
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


def _tune_prior(cfg: PipelineConfig, dataset, design: GpDesign, work: Path) -> None:
    positive = _numbers(ok=lambda v: _finite(v) and v > 0, valid="a finite number > 0")
    theta_hat, tau_hat, nu_sq_hat = _read_json(
        cfg, "gp_fit.json", theta=_theta(design.K), tau_hat=_numbers(), nu_sq_hat=positive
    )
    if cfg.tau_candidates is not None:
        taus = list(cfg.tau_candidates)
    else:
        taus = sorted({round(tau_hat * f, 3) for f in (0.67, 0.74, 0.84, 1.0, 1.17)})
    candidates = [(float(t), float(nu_sq_hat)) for t in taus]

    cv_settings = cfg.am_settings(design.K, "cv")
    cv_seed = int(stage_rng(cfg.seed, "tune-prior-cv").integers(2**63))
    report = cv_hyperparams(design, candidates, cv_settings, master_seed=cv_seed)
    tau_star, nu_sq_star = report.candidates[report.winner]
    _write_cv(work, "tune-prior", "prior", report, tau=tau_star, nu_sq=nu_sq_star)

    # final theta posterior chain under the winning prior (used by Setting B),
    # on the nugget-0 likelihood the CV scored the prior on
    target = bayes_log_posterior(design, tau_star, nu_sq_star, 0.0)
    settings = cfg.am_settings(design.K, "theta")
    rng = stage_rng(cfg.seed, "tune-prior-chain")
    chain = am_sample(target, theta_hat, default_init_cov(target, theta_hat), settings, rng)
    _save_checked_chain(chain, work / "theta_chain.csv", [f"theta_{k}" for k in range(design.K)])
    print(f"tune-prior: winner tau={tau_star}, nu_sq={nu_sq_star:.4f}")


def _simulate_pf(cfg: PipelineConfig, dataset, design: GpDesign, work: Path) -> None:
    input_chains = [(spec.family, draws) for spec, draws in zip(dataset.variables, _input_draws(cfg, dataset))]
    if cfg.setting == "A":
        theta_source = _read_json(cfg, "gp_fit.json", theta=_theta(design.K))[0]
    else:
        theta_source = _theta_draws(cfg, design.K)
    posterior = simulate_pf(
        input_chains,
        theta_source,
        design,
        z_crit=cfg.z_crit,
        N=cfg.N,
        M=cfg.M,
        rng=stage_rng(cfg.seed, "simulate-pf"),
    )
    write_table(work / f"pf_setting_{cfg.setting}.csv", ["p_crit"], posterior.p[:, None])
    s = summarize(posterior)
    _write_json(work / f"pf_setting_{cfg.setting}_summary.json", s)
    print(
        f"simulate-pf ({cfg.setting}): median {s['median_per_target']:.3f}, "
        f"mean {s['mean_per_target']:.3f} (x target)"
    )


def _report(cfg: PipelineConfig, dataset, design: GpDesign, work: Path) -> None:
    out = Path(cfg.out_dir)
    report_dir = work / "report"

    # per-variable posterior mean with 95% CI
    rows = []
    for spec, draws in zip(dataset.variables, _input_draws(cfg, dataset)):
        for j, pname in enumerate(PARAM_NAMES[spec.family]):
            rows.append([spec.name, pname, *_mean_ci(draws[:, j])])
    header = ["variable", "parameter", "mean", "ci_lower", "ci_upper"]
    write_table(report_dir / "input_posterior_ci.csv", header, rows)

    # CV curves, when the tuning stages ran
    for name in ("cv_lambda", "cv_prior"):
        if (out / f"{name}.json").exists():
            curve = _read_upstream(cfg, f"{name}.json", _cv_curve)
            rows = ([json.dumps(c), s] for c, s in curve)
            write_table(report_dir / f"{name}_curve.csv", ["candidate", "score"], rows)

    # observed vs expected at the REML theta
    theta, hessian = _read_json(cfg, "gp_fit.json", theta=_theta(design.K), hessian=_spd(design.K))
    z_hat, s0 = loo_predictions(design, theta)
    write_table(
        report_dir / "observed_vs_expected.csv", ["observed", "expected", "rmspe"], zip(design.Z, z_hat, s0)
    )
    _write_json(report_dir / "observed_vs_expected_stats.json", loo_diagnostics(design.Z, z_hat))

    # REML vs Bayesian range-parameter comparison, when the chain exists
    if (out / "theta_chain.csv").exists():
        draws = _theta_draws(cfg, design.K)
        half = 1.96 * np.sqrt(np.diag(np.linalg.inv(hessian)))
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
            p = _read_upstream(cfg, f"pf_setting_{setting}.csv", _pf_draws)
            counts, edges = np.histogram(p, bins=40)
            rows = zip(edges[:-1], edges[1:], counts)
            write_table(report_dir / f"pf_setting_{setting}_hist.csv", ["bin_left", "bin_right", "count"], rows)
            summary = f"pf_setting_{setting}_summary.json"
            if (out / summary).exists():
                echo = _read_upstream(cfg, summary, lambda path: json.loads(path.read_text()))
                _write_json(report_dir / summary, echo)

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
    body: Callable[[PipelineConfig, ingest.StudyDataset, GpDesign, Path], None]
    reads: Callable[[PipelineConfig, ingest.StudyDataset], tuple[list[str], list[str]]] = (
        lambda cfg, dataset: ([], [])
    )


STAGE_TABLE = {
    s.name: s
    for s in (
        Stage("fit-inputs", "seed input_prior jeffreys_normal_variant am_inputs", _fit_inputs),
        Stage("tune-lambda", "seed lambda_grid cv_restarts", _tune_lambda),
        Stage("fit-gp", "seed restarts", _fit_gp, lambda cfg, ds: ([], ["cv_lambda.json"])),
        Stage("tune-prior", "seed tau_candidates am_cv am_theta", _tune_prior, lambda cfg, ds: (["gp_fit.json"], [])),
        Stage("simulate-pf", "seed setting z_crit N M", _simulate_pf, _simulate_pf_reads),
        Stage("report", "", _report, _report_reads),
    )
}
STAGES = list(STAGE_TABLE)


def run_stage(stage: str, cfg: PipelineConfig) -> None:
    """Run one stage unless it is up to date; see the module docstring."""
    if stage not in STAGE_TABLE:
        raise ConfigError(f"unknown stage {stage!r}")
    spec = STAGE_TABLE[stage]

    def load(manifest):  # a design GpDesign rejects is bad data, like a malformed file
        dataset = ingest.load_dataset(manifest)
        if dataset.n < 3:  # leave-one-out and the REML fit need at least 3 rows
            raise ValueError(f"the design has {dataset.n} rows; at least 3 are needed")
        return dataset, GpDesign(S=dataset.design, Z=dataset.outputs, standardize=True)

    dataset, design = _read(Path(cfg.manifest), load, "dataset")
    out = Path(cfg.out_dir)
    required, optional = ([out / rel for rel in rels] for rels in spec.reads(cfg, dataset))
    reads = [*dataset.files, *required, *(p for p in optional if p.exists())]
    state = {
        "config_hash": cfg.hash_subset(spec.config_keys.split()),
        "upstream": {str(p): _read(p, _file_hash, f"{stage} input") for p in reads},
    }
    record_path = out / "provenance" / f"{stage}.json"
    try:  # stale if the record is missing, is not an object with an outputs mapping, or lists a lost output
        record = json.loads(record_path.read_text())
        fresh = all(record.get(k) == v for k, v in state.items()) and all(
            _file_hash(Path(p)) == h for p, h in record["outputs"].items()
        )
    except (OSError, ValueError, KeyError, AttributeError):
        fresh = False
    if fresh:
        print(f"{stage}: up to date")
        return
    _make_dir(out, "out_dir")
    try:  # a write that fails, in the body, in publishing or in the record, names its path
        with tempfile.TemporaryDirectory(prefix=f".{stage}-", dir=out) as tmp:
            work = Path(tmp)
            spec.body(cfg, dataset, design, work)
            outputs = {}
            for p in sorted(p for p in work.rglob("*") if p.is_file()):
                dst = out / p.relative_to(work)
                outputs[str(dst)] = _file_hash(p)
                dst.parent.mkdir(parents=True, exist_ok=True)
                os.replace(p, dst)
            _write_json(work / "record.json", {**state, "outputs": outputs})
            record_path.parent.mkdir(exist_ok=True)
            os.replace(work / "record.json", record_path)
    except OSError as e:
        raise ConfigError(f"{stage}: cannot write its outputs under {out}: {e}") from e


def run_all(cfg: PipelineConfig):
    for stage in STAGES:
        if stage == "tune-prior" and cfg.setting == "A" and cfg.tau_candidates is None:
            # Setting A never consumes the theta posterior; skip unless asked
            continue
        run_stage(stage, cfg)


def cmd_synth(args) -> int:
    for flag, value, low in (("--seed", args.seed, 0), ("--n", args.n, 3), ("--n-obs", args.n_obs, 2)):
        if value < low:
            raise ConfigError(f"synth {flag} must be an integer >= {low}, got {value}")
    _make_dir(Path(args.out), "--out directory")
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
    workers.one_blas_thread()
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
    except (NumericalError, RuntimeError, ValueError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
