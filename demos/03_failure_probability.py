"""Posterior distribution of a rare-event failure probability.

Ties everything together in memory: posterior chains for the input
marginals, a theta posterior for the surrogate, and the nested simulation
that produces a *distribution* over the failure probability P_f rather than
a single number. Setting A fixes theta at its REML estimate; Setting B also
propagates theta uncertainty.
"""

import numpy as np

from reliagp import (
    AmSettings,
    GpDesign,
    am_sample,
    bayes_log_posterior,
    default_init_cov,
    fit_reml,
    hessian_nu_estimate,
    log_posterior_target,
    mle_fit,
    remove_burn_in,
    simulate_pf,
    summarize,
    synth_study,
)
from reliagp.distributions import PriorSpec
from reliagp.ingest import SMALL_P_TRUE, SMALL_P_Z_CRIT


def main():
    dataset = synth_study(seed=11)
    design = GpDesign(S=dataset.design, Z=dataset.outputs, standardize=True)
    prior = PriorSpec.jeffreys()

    # 1. posterior chains for each input marginal
    print("sampling input-parameter posteriors ...")
    input_chains = []
    for idx, spec in enumerate(dataset.variables):
        target = log_posterior_target(spec, prior)
        init = mle_fit(spec).as_array()
        chain = am_sample(
            target,
            init,
            default_init_cov(target, init),
            AmSettings(d=2, t=20_000, t0=2_000),
            np.random.default_rng(100 + idx),
        )
        input_chains.append((spec.family, remove_burn_in(chain).draws))

    # 2. surrogate fit and theta posterior
    print("fitting the GP surrogate ...")
    fit = fit_reml(design, lam=2.0, restarts=6, rng=np.random.default_rng(0))
    tau_hat, nu_sq_hat = hessian_nu_estimate(fit)
    target = bayes_log_posterior(design, tau_hat, nu_sq_hat, 0.0)
    theta_chain = remove_burn_in(
        am_sample(
            target,
            fit.theta,
            default_init_cov(target, fit.theta),
            AmSettings(d=design.K, t=10_000, t0=1_000),
            np.random.default_rng(1),
        )
    )

    # 3. nested posterior simulation of P_f under both settings
    for label, theta_source in (("A (fixed REML theta)", fit.theta),
                                ("B (theta posterior)", theta_chain.draws)):
        posterior = simulate_pf(
            input_chains,
            theta_source,
            design,
            z_crit=SMALL_P_Z_CRIT,
            N=500,
            M=500,
            rng=np.random.default_rng(2),
        )
        s = summarize(posterior)
        print(f"\nSetting {label}:")
        print(f"  P_f posterior median {s['median']:.3e}, mean {s['mean']:.3e}")
        print(f"  95% credible interval [{s['ci_lower']:.3e}, {s['ci_upper']:.3e}]")
        print(f"  median {'below' if s['median_below_target'] else 'above'} the 1e-6 target")
    print(f"\nfixture ground truth (1e8-draw Monte Carlo): P_f = {SMALL_P_TRUE:.4e}")
    print("the interval is wide on purpose: with 10 observations per input variable,")
    print("the tail probability genuinely is this uncertain.")


if __name__ == "__main__":
    main()
