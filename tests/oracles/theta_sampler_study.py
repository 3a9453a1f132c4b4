"""Accuracy study of tune-prior's final theta chain: the independence sampler
on a t proposal fitted to the prior's cross-validation draws, against the
adaptive Metropolis chain from the REML theta that it replaced.

For each fixture synth_study(seed) with seed in 8000..8019, fit-gp's REML
fit (lambda 2.0, 4 restarts, as in criterion 8) gives tau_hat and nu_sq_hat.
At each tau in {0.67, 0.84, 1.0, 1.17} * tau_hat the nugget-0 theta target
bayes_log_posterior_stack([design], [tau], [nu_sq_hat], 0.0) is sampled by

* ``imh``: cv_hyperparams on the one candidate (tau, nu_sq_hat) with
  criterion 8's CV chains (t 1000, t0 100, t2 100), then
  independence_sample on the pipeline's proposal (cli._theta_proposal):
  the mean of the pooled retained CV draws, with cli.PROPOSAL_INFLATION
  times their covariance as its scale;
* ``am``: am_sample from the REML theta with default_init_cov;

both with criterion 8's theta settings (t 10000, t0 1000, t2 100), so each
keeps 80 rows after burn-in.  The reference is an adaptive Metropolis chain
of REFERENCE_STEPS steps from the REML theta, thinned by 10, its first 20%
dropped.  A sampler's quantile error is the mean over coordinates and the
5/50/95% points of |quantile - reference quantile| / reference sd.

Run:  PYTHONPATH=src python tests/oracles/theta_sampler_study.py > study.json
(about 5 minutes on two CPUs; the fixtures are dealt out over the CPUs in
the process's affinity mask).
"""

import json

import numpy as np

from reliagp import workers
from reliagp.cli import LAM_WITHOUT_CV, _theta_proposal, stage_rng
from reliagp.gp import GpDesign, bayes_log_posterior_stack, fit_reml, hessian_nu_estimate
from reliagp.ingest import synth_study
from reliagp.mcmc import (
    AmSettings,
    am_sample,
    am_sample_lockstep,
    default_init_cov,
    independence_sample,
    remove_burn_in,
)
from reliagp.tuning import cv_hyperparams

FIXTURES = range(8000, 8020)
TAU_FACTORS = (0.67, 0.84, 1.0, 1.17)
REFERENCE_STEPS = 150_000
QUANTILES = (0.05, 0.5, 0.95)
CV = {"t": 1_000, "t0": 100, "t2": 100}
THETA = {"t": 10_000, "t0": 1_000, "t2": 100}


def quantile_error(draws: np.ndarray, reference: np.ndarray) -> float:
    errors = np.abs(np.quantile(draws, QUANTILES, axis=0) - np.quantile(reference, QUANTILES, axis=0))
    return float(np.mean(errors / reference.std(axis=0, ddof=1)))


def study_fixture(seed: int) -> list[dict]:
    ds = synth_study(seed=seed)
    design = GpDesign(S=ds.design, Z=ds.outputs, standardize=True)
    K = design.K
    fit = fit_reml(design, lam=LAM_WITHOUT_CV, restarts=4, rng=stage_rng(seed, "fit-gp"))
    tau_hat, nu_sq = hessian_nu_estimate(fit)
    taus = [round(tau_hat * f, 3) for f in TAU_FACTORS]

    # the references: one lockstep run over the four tau targets
    stacked = bayes_log_posterior_stack([design] * len(taus), taus, [nu_sq] * len(taus), 0.0)
    inits = np.repeat(fit.theta[None], len(taus), axis=0)
    ref_settings = AmSettings(d=K, t=REFERENCE_STEPS, t0=10_000, t2=10)
    rngs = [np.random.default_rng([seed, 1, j]) for j in range(len(taus))]
    references = am_sample_lockstep(stacked, inits, default_init_cov(stacked, inits), ref_settings, rngs)

    rows = []
    for j, (factor, tau, reference) in enumerate(zip(TAU_FACTORS, taus, references)):
        row = {"fixture": seed, "tau_factor": factor, "tau": tau, "nu_sq": nu_sq}
        if isinstance(reference, Exception):
            rows.append({**row, "error": f"reference: {reference}"})
            continue
        ref = remove_burn_in(reference).draws
        target = bayes_log_posterior_stack([design], [tau], [nu_sq], 0.0)
        settings = AmSettings(d=K, **THETA)
        report = cv_hyperparams(design, [(tau, nu_sq)], AmSettings(d=K, **CV), master_seed=seed)
        try:
            imh = independence_sample(
                target, *_theta_proposal(report.winner_draws), settings, np.random.default_rng([seed, 2, j])
            )
            row["imh"] = {
                "acceptance": imh.acceptance_rate,
                "quantile_error": quantile_error(remove_burn_in(imh).draws, ref),
            }
        except ValueError as e:  # LinAlgError included
            row["imh"] = {"error": str(e)}
        lone = lambda theta: float(target(np.asarray(theta)[None])[0])
        try:
            am = am_sample(lone, fit.theta, default_init_cov(lone, fit.theta), settings, np.random.default_rng([seed, 3, j]))
            row["am"] = {
                "acceptance": am.acceptance_rate,
                "quantile_error": quantile_error(remove_burn_in(am).draws, ref),
            }
        except (RuntimeError, ValueError) as e:
            row["am"] = {"error": str(e)}
        row["reference"] = {"steps": REFERENCE_STEPS, "acceptance": reference.acceptance_rate, "kept": len(ref)}
        rows.append(row)
    return rows


def summary(rows: list[dict]) -> dict:
    out = {}
    for sampler in ("imh", "am"):
        for factor in TAU_FACTORS:
            cells = [r[sampler] for r in rows if r["tau_factor"] == factor and "error" not in r.get(sampler, {"error": 1})]
            acc = [c["acceptance"] for c in cells]
            err = [c["quantile_error"] for c in cells]
            out[f"{sampler}@{factor}"] = {
                "runs": len(cells),
                "acceptance_min_median_max": [min(acc), float(np.median(acc)), max(acc)] if acc else None,
                "quantile_error_min_median_max": [min(err), float(np.median(err)), max(err)] if err else None,
                "acceptance_at_most_0.07": sum(a <= 0.07 for a in acc),
            }
    return out


def main():
    seeds = list(FIXTURES)
    per_fixture = workers.fork_blocks(lambda share: [study_fixture(s) for s in seeds[share]], len(seeds))
    rows = [row for fixture in per_fixture for row in fixture]
    print(json.dumps({"summary": summary(rows), "rows": rows}, indent=1))


if __name__ == "__main__":
    workers.one_blas_thread()
    main()
