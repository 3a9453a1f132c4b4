"""Pipeline orchestration.

Stages (in `all` order): fit-inputs -> tune-lambda -> fit-gp -> tune-prior
-> simulate-pf -> report.  Each stage writes its artifacts under the
configured output directory together with a provenance record (content
hashes of the config subset and upstream artifacts); re-running a stage
whose inputs are unchanged is a no-op.

Config file is JSON; see PipelineConfig for the fields.  One master seed
fans out to all stage seeds via SeedSequence with a spawn key derived from
the stage name and loop indices, so identical configs produce byte-identical
numeric artifacts.

Exit codes: 0 success, 2 config or data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

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
    am_sample,
    default_init_cov,
    geweke,
    load_chain,
    remove_burn_in,
    save_chain,
)
from reliagp.tuning import cv_hyperparams, cv_lambda

__all__ = ["PipelineConfig", "main", "run_stage"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

STAGES = ["fit-inputs", "tune-lambda", "fit-gp", "tune-prior", "simulate-pf", "report"]


class ConfigError(Exception):
    pass


class NumericalError(Exception):
    pass


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
        if overrides:
            raw.update({k: v for k, v in overrides.items() if v is not None})
        try:
            cfg = PipelineConfig(**raw)
        except TypeError as e:
            raise ConfigError(f"bad config fields: {e}")
        cfg.validate()
        return cfg

    def validate(self):
        if self.seed is None:
            raise ConfigError("seed is mandatory (no wall-clock seeding)")
        if self.setting not in ("A", "B"):
            raise ConfigError(f"setting must be 'A' or 'B', got {self.setting!r}")
        if self.input_prior not in ("flat", "jeffreys", "conjugate"):
            raise ConfigError(f"unknown input_prior {self.input_prior!r}")
        if not (0 <= self.burn_in < 1):
            raise ConfigError("burn_in must be in [0, 1)")
        if self.scale not in ("reml", "profile"):
            raise ConfigError("scale must be 'reml' or 'profile'")
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


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True))


class StageContext:
    """Provenance bookkeeping: skip a stage whose config subset, upstream
    hashes, and outputs all match the recorded state."""

    def __init__(self, cfg: PipelineConfig, stage: str, config_keys, upstream: list[Path]):
        self.cfg = cfg
        self.stage = stage
        self.out = Path(cfg.out_dir)
        self.record_path = self.out / "provenance" / f"{stage}.json"
        for p in upstream:
            if not p.exists():
                raise ConfigError(f"stage {stage}: missing upstream artifact {p}")
        self.state = {
            "config_hash": cfg.hash_subset(config_keys),
            "upstream": {str(p): _file_hash(p) for p in upstream},
        }

    def up_to_date(self) -> bool:
        if not self.record_path.exists():
            return False
        rec = json.loads(self.record_path.read_text())
        if rec.get("config_hash") != self.state["config_hash"]:
            return False
        if rec.get("upstream") != self.state["upstream"]:
            return False
        for p, h in rec.get("outputs", {}).items():
            path = Path(p)
            if not path.exists() or _file_hash(path) != h:
                return False
        return True

    def finish(self, outputs: list[Path]) -> None:
        rec = dict(self.state)
        rec["outputs"] = {str(p): _file_hash(p) for p in outputs}
        _write_json(self.record_path, rec)


def _prior_for(cfg: PipelineConfig, spec: InputVariableSpec) -> PriorSpec:
    if cfg.input_prior == "flat":
        return PriorSpec.flat()
    if cfg.input_prior == "jeffreys":
        return PriorSpec.jeffreys(cfg.jeffreys_normal_variant)
    return PriorSpec.conjugate_for(spec)


def _build_design(cfg: PipelineConfig, dataset: ingest.StudyDataset) -> GpDesign:
    return GpDesign(S=dataset.design, Z=dataset.outputs, standardize=cfg.standardize)


def _input_chain_paths(cfg: PipelineConfig, dataset) -> list[Path]:
    return [Path(cfg.out_dir) / "inputs" / f"{v.name}.csv" for v in dataset.variables]


def stage_fit_inputs(cfg: PipelineConfig, dataset) -> list[Path]:
    ctx = StageContext(
        cfg,
        "fit-inputs",
        ["seed", "input_prior", "jeffreys_normal_variant", "am_inputs", "burn_in"],
        [Path(cfg.manifest)],
    )
    chain_paths = _input_chain_paths(cfg, dataset)
    if ctx.up_to_date():
        print("fit-inputs: up to date")
        return chain_paths
    outputs = []
    for idx, spec in enumerate(dataset.variables):
        prior = _prior_for(cfg, spec)
        mle = mle_fit(spec)
        init = mle.as_array()
        target = lambda psi, s=spec, pr=prior: dists.log_posterior_unnorm(
            dists.params_from_array(s.family, psi), s, pr
        )
        settings = cfg.am_settings(2, "inputs")
        rng = stage_rng(cfg.seed, "fit-inputs", idx)
        init_cov = default_init_cov(target, init)
        chain = am_sample(target, init, init_cov, settings, rng)
        try:
            z = geweke(chain)
        except ValueError:
            z = np.full(2, np.nan)
        chain = replace(chain, geweke_z=z)
        path = chain_paths[idx]
        path.parent.mkdir(parents=True, exist_ok=True)
        names = ["mu", "sigma2"] if spec.family == Family.NORMAL else ["alpha", "beta"]
        save_chain(chain, path, names=names)
        outputs.extend([path, path.with_suffix(".json")])
    ctx.finish(outputs)
    print(f"fit-inputs: wrote {len(dataset.variables)} chains")
    return chain_paths


def stage_tune_lambda(cfg: PipelineConfig, dataset) -> Path:
    ctx = StageContext(
        cfg,
        "tune-lambda",
        ["seed", "lambda_grid", "cv_restarts", "scale", "standardize"],
        [Path(cfg.manifest)],
    )
    out_json = Path(cfg.out_dir) / "cv_lambda.json"
    out_csv = Path(cfg.out_dir) / "cv_lambda_folds.csv"
    if ctx.up_to_date():
        print("tune-lambda: up to date")
        return out_json
    design = _build_design(cfg, dataset)
    rng_seed = int(stage_rng(cfg.seed, "tune-lambda").integers(2**63))
    report = cv_lambda(
        design, cfg.lambda_grid, restarts=cfg.cv_restarts, master_seed=rng_seed, scale=cfg.scale
    )
    _write_json(
        out_json,
        {
            "candidates": list(report.candidates),
            "scores": [float(s) for s in report.scores],
            "winner_index": report.winner,
            "winner": report.candidates[report.winner],
        },
    )
    with open(out_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "fold", "squared_error"])
        for q, lam in enumerate(report.candidates):
            for i in range(design.n):
                writer.writerow([repr(float(lam)), i, repr(float(report.fold_losses[q, i]))])
    ctx.finish([out_json, out_csv])
    print(f"tune-lambda: winner lambda={report.candidates[report.winner]}")
    return out_json


def stage_fit_gp(cfg: PipelineConfig, dataset) -> Path:
    lam_path = Path(cfg.out_dir) / "cv_lambda.json"
    lam = cfg.lam
    upstream = [Path(cfg.manifest)]
    if lam_path.exists():
        lam = float(json.loads(lam_path.read_text())["winner"])
        upstream.append(lam_path)
    ctx = StageContext(
        cfg, "fit-gp", ["seed", "lam", "restarts", "scale", "standardize"], upstream
    )
    out_json = Path(cfg.out_dir) / "gp_fit.json"
    if ctx.up_to_date():
        print("fit-gp: up to date")
        return out_json
    design = _build_design(cfg, dataset)
    rng = stage_rng(cfg.seed, "fit-gp")
    fit = fit_reml(design, lam=lam, restarts=cfg.restarts, rng=rng)
    tau_hat, nu_sq_hat = hessian_nu_estimate(fit)
    if not (math.isfinite(nu_sq_hat) and nu_sq_hat > 0):
        raise NumericalError(
            f"fit-gp: prior variance estimate nu_sq_hat={nu_sq_hat} is not positive; "
            f"the REML Hessian at theta={list(fit.theta)} is not positive definite"
        )
    _write_json(
        out_json,
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
    ctx.finish([out_json])
    print(f"fit-gp: objective {fit.objective:.4f}, tau_hat {tau_hat:.3f}, nu_sq_hat {nu_sq_hat:.4f}")
    return out_json


def stage_tune_prior(cfg: PipelineConfig, dataset) -> Path:
    gp_path = Path(cfg.out_dir) / "gp_fit.json"
    ctx = StageContext(
        cfg,
        "tune-prior",
        ["seed", "tau_candidates", "nu_sq", "am_cv", "am_theta", "burn_in", "scale", "standardize"],
        [Path(cfg.manifest), gp_path],
    )
    out_json = Path(cfg.out_dir) / "cv_prior.json"
    theta_csv = Path(cfg.out_dir) / "theta_chain.csv"
    if ctx.up_to_date():
        print("tune-prior: up to date")
        return out_json
    gp_info = json.loads(gp_path.read_text())
    nu_sq = cfg.nu_sq if cfg.nu_sq is not None else gp_info["nu_sq_hat"]
    if cfg.tau_candidates is not None:
        taus = list(cfg.tau_candidates)
    else:
        tau_hat = gp_info["tau_hat"]
        taus = sorted({round(tau_hat * f, 3) for f in (0.67, 0.74, 0.84, 1.0, 1.17)})
    candidates = [(float(t), float(nu_sq)) for t in taus]

    design = _build_design(cfg, dataset)
    cv_settings = cfg.am_settings(design.K, "cv")
    cv_seed = int(stage_rng(cfg.seed, "tune-prior-cv").integers(2**63))
    report = cv_hyperparams(
        design, candidates, cv_settings, burn_in=cfg.burn_in, master_seed=cv_seed, scale=cfg.scale
    )
    if not np.any(np.isfinite(report.scores)):
        raise NumericalError(f"tune-prior: every prior candidate {candidates} failed cross-validation")
    tau_star, nu_sq_star = report.candidates[report.winner]
    _write_json(
        out_json,
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
    init = np.asarray(gp_info["theta"], dtype=float)
    if not math.isfinite(target(init)):
        init = np.full(design.K, tau_star)
    settings = cfg.am_settings(design.K, "theta")
    rng = stage_rng(cfg.seed, "tune-prior-chain")
    chain = am_sample(target, init, default_init_cov(target, init), settings, rng)
    try:
        z = geweke(chain)
    except ValueError:
        z = np.full(design.K, np.nan)
    chain = replace(chain, geweke_z=z)
    save_chain(chain, theta_csv, names=[f"theta_{k}" for k in range(design.K)])
    ctx.finish([out_json, theta_csv, theta_csv.with_suffix(".json")])
    print(f"tune-prior: winner tau={tau_star}, nu_sq={nu_sq_star:.4f}")
    return out_json


def _load_input_chains(cfg: PipelineConfig, dataset):
    chains = []
    for spec, path in zip(dataset.variables, _input_chain_paths(cfg, dataset)):
        chain = remove_burn_in(load_chain(path), cfg.burn_in)
        chains.append((spec.family, chain.draws))
    return chains


def stage_simulate_pf(cfg: PipelineConfig, dataset) -> Path:
    gp_path = Path(cfg.out_dir) / "gp_fit.json"
    upstream = [Path(cfg.manifest), gp_path] + _input_chain_paths(cfg, dataset)
    theta_csv = Path(cfg.out_dir) / "theta_chain.csv"
    if cfg.setting == "B":
        upstream.append(theta_csv)
    ctx = StageContext(
        cfg,
        "simulate-pf",
        ["seed", "setting", "z_crit", "N", "M", "scale", "burn_in", "standardize"],
        upstream,
    )
    out_csv = Path(cfg.out_dir) / f"pf_setting_{cfg.setting}.csv"
    out_json = Path(cfg.out_dir) / f"pf_setting_{cfg.setting}_summary.json"
    if ctx.up_to_date():
        print("simulate-pf: up to date")
        return out_csv
    design = _build_design(cfg, dataset)
    input_chains = _load_input_chains(cfg, dataset)
    gp_info = json.loads(gp_path.read_text())
    if cfg.setting == "A":
        theta_source = np.asarray(gp_info["theta"], dtype=float)
    else:
        theta_source = remove_burn_in(load_chain(theta_csv), cfg.burn_in).draws
    rng = stage_rng(cfg.seed, "simulate-pf")
    posterior = simulate_pf(
        input_chains,
        theta_source,
        design,
        z_crit=cfg.z_crit,
        N=cfg.N,
        M=cfg.M,
        rng=rng,
        scale=cfg.scale,
    )
    with open(out_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p_crit"])
        for v in posterior.p:
            writer.writerow([repr(float(v))])
    _write_json(out_json, summarize(posterior))
    ctx.finish([out_csv, out_json])
    s = summarize(posterior)
    print(
        f"simulate-pf ({cfg.setting}): median {s['median_per_target']:.3f}, "
        f"mean {s['mean_per_target']:.3f} (x target)"
    )
    return out_csv


def stage_report(cfg: PipelineConfig, dataset) -> Path:
    out = Path(cfg.out_dir)
    gp_path = out / "gp_fit.json"
    upstream = [Path(cfg.manifest), gp_path] + _input_chain_paths(cfg, dataset)
    ctx = StageContext(cfg, "report", ["seed", "burn_in", "scale", "standardize", "setting"], upstream)
    report_dir = out / "report"
    done_marker = report_dir / "report_index.json"
    if ctx.up_to_date():
        print("report: up to date")
        return done_marker
    report_dir.mkdir(parents=True, exist_ok=True)
    outputs = []

    # per-variable posterior mean with 95% CI
    ci_path = report_dir / "input_posterior_ci.csv"
    with open(ci_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variable", "parameter", "mean", "ci_lower", "ci_upper"])
        for spec, path in zip(dataset.variables, _input_chain_paths(cfg, dataset)):
            chain = remove_burn_in(load_chain(path), cfg.burn_in)
            names = ["mu", "sigma2"] if spec.family == Family.NORMAL else ["alpha", "beta"]
            for j, pname in enumerate(names):
                col = chain.draws[:, j]
                lo, hi = np.quantile(col, [0.025, 0.975])
                writer.writerow(
                    [spec.name, pname, repr(float(col.mean())), repr(float(lo)), repr(float(hi))]
                )
    outputs.append(ci_path)

    # CV curves, when the tuning stages ran
    for name in ("cv_lambda.json", "cv_prior.json"):
        src = out / name
        if src.exists():
            data = json.loads(src.read_text())
            dst = report_dir / name.replace(".json", "_curve.csv")
            with open(dst, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["candidate", "score"])
                for cand, score in zip(data["candidates"], data["scores"]):
                    writer.writerow([json.dumps(cand), repr(float(score))])
            outputs.append(dst)

    # observed vs expected at the REML theta
    design = _build_design(cfg, dataset)
    gp_info = json.loads(gp_path.read_text())
    theta = np.asarray(gp_info["theta"], dtype=float)
    z_hat, s0 = loo_predictions(design, theta, scale=cfg.scale)
    diag = loo_diagnostics(design.Z, z_hat)
    oe_path = report_dir / "observed_vs_expected.csv"
    with open(oe_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["observed", "expected", "rmspe"])
        for o, e, s in zip(design.Z, z_hat, s0):
            writer.writerow([repr(float(o)), repr(float(e)), repr(float(s))])
    outputs.append(oe_path)
    _write_json(report_dir / "observed_vs_expected_stats.json", diag)
    outputs.append(report_dir / "observed_vs_expected_stats.json")

    # REML vs Bayesian range-parameter comparison, when the chain exists
    theta_csv = out / "theta_chain.csv"
    if theta_csv.exists():
        chain = remove_burn_in(load_chain(theta_csv), cfg.burn_in)
        cmp_path = report_dir / "theta_comparison.csv"
        try:
            hess_inv = np.linalg.inv(np.asarray(gp_info["hessian"]))
            reml_se = np.sqrt(np.clip(np.diag(hess_inv), 0.0, None))
        except np.linalg.LinAlgError:
            reml_se = np.full(design.K, np.nan)
        with open(cmp_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["k", "reml", "reml_ci_lower", "reml_ci_upper", "bayes_mean", "bayes_ci_lower", "bayes_ci_upper"]
            )
            for k in range(design.K):
                col = chain.draws[:, k]
                lo, hi = np.quantile(col, [0.025, 0.975])
                writer.writerow(
                    [
                        k,
                        repr(float(theta[k])),
                        repr(float(theta[k] - 1.96 * reml_se[k])),
                        repr(float(theta[k] + 1.96 * reml_se[k])),
                        repr(float(col.mean())),
                        repr(float(lo)),
                        repr(float(hi)),
                    ]
                )
        outputs.append(cmp_path)

    # P_f histogram data and summary echo
    for setting in ("A", "B"):
        src = out / f"pf_setting_{setting}.csv"
        if src.exists():
            with open(src, newline="") as fh:
                reader = csv.reader(fh)
                next(reader)
                p = np.array([float(row[0]) for row in reader])
            hist_path = report_dir / f"pf_setting_{setting}_hist.csv"
            counts, edges = np.histogram(p, bins=40)
            with open(hist_path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["bin_left", "bin_right", "count"])
                for c, lft, rgt in zip(counts, edges[:-1], edges[1:]):
                    writer.writerow([repr(float(lft)), repr(float(rgt)), int(c)])
            outputs.append(hist_path)
            summary_src = out / f"pf_setting_{setting}_summary.json"
            if summary_src.exists():
                echo = report_dir / f"pf_setting_{setting}_summary.json"
                echo.write_text(summary_src.read_text())
                outputs.append(echo)

    _write_json(done_marker, {"files": sorted(str(p.relative_to(out)) for p in outputs)})
    outputs.append(done_marker)
    ctx.finish(outputs)
    print(f"report: wrote {len(outputs)} files")
    return done_marker


def run_stage(stage: str, cfg: PipelineConfig):
    try:
        dataset = ingest.load_dataset(cfg.manifest)
    except (OSError, KeyError, ValueError) as e:
        # a missing file, manifest key or schema error is bad data, not numerics
        raise ConfigError(f"cannot load dataset {cfg.manifest}: {e}") from e
    Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    if stage == "fit-inputs":
        return stage_fit_inputs(cfg, dataset)
    if stage == "tune-lambda":
        return stage_tune_lambda(cfg, dataset)
    if stage == "fit-gp":
        return stage_fit_gp(cfg, dataset)
    if stage == "tune-prior":
        return stage_tune_prior(cfg, dataset)
    if stage == "simulate-pf":
        return stage_simulate_pf(cfg, dataset)
    if stage == "report":
        return stage_report(cfg, dataset)
    raise ConfigError(f"unknown stage {stage!r}")


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
