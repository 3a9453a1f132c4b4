"""Rare-event failure-probability estimation with GP surrogates.

The library covers four stages:

1. Bayesian fitting of small-sample input distributions
   (:mod:`reliagp.distributions`, :mod:`reliagp.mcmc`).
2. Gaussian-process surrogate modeling with uncertain anisotropic range
   parameters (:mod:`reliagp.gp`, :mod:`reliagp.kriging`).
3. Leave-one-out cross-validation for the regularization penalty and the
   range-parameter prior (:mod:`reliagp.tuning`).
4. Nested posterior simulation of the exceedance probability
   (:mod:`reliagp.failure`).

:mod:`reliagp.ingest` provides dataset loading and synthetic fixtures;
:mod:`reliagp.cli` orchestrates the full pipeline, and :mod:`reliagp.workers`
runs its independent chains and CV folds on forked worker processes.
"""

from reliagp.distributions import (
    Family,
    InputVariableSpec,
    NormalParams,
    WeibullParams,
    PriorSpec,
    log_density,
    mle_fit,
    log_prior,
    log_posterior_target,
    log_posterior_unnorm,
    params_from_array,
    sample,
)
from reliagp.mcmc import (
    AmSettings,
    PosteriorChain,
    am_sample,
    default_init_cov,
    remove_burn_in,
    geweke,
)
from reliagp.gp import (
    GpDesign,
    GpFit,
    bayes_log_posterior,
    covariance_matrix,
    nll_reml,
    nll_reml_regularized,
    nll_bayes,
    fit_reml,
    hessian_nu_estimate,
)
from reliagp.kriging import (
    KrigingModel,
    KrigingPrediction,
    loo_diagnostics,
    loo_predictions,
)
from reliagp.tuning import CvReport, cv_lambda, cv_hyperparams
from reliagp.failure import LhsDesign, FailurePosterior, lhs_sample, simulate_pf, summarize
from reliagp.ingest import StudyDataset, SimulatorConfig, load_dataset, synth_simulator, synth_study

__all__ = [
    "Family",
    "InputVariableSpec",
    "NormalParams",
    "WeibullParams",
    "PriorSpec",
    "log_density",
    "mle_fit",
    "log_prior",
    "log_posterior_target",
    "log_posterior_unnorm",
    "params_from_array",
    "sample",
    "AmSettings",
    "PosteriorChain",
    "am_sample",
    "default_init_cov",
    "remove_burn_in",
    "geweke",
    "GpDesign",
    "GpFit",
    "bayes_log_posterior",
    "covariance_matrix",
    "nll_reml",
    "nll_reml_regularized",
    "nll_bayes",
    "fit_reml",
    "hessian_nu_estimate",
    "KrigingModel",
    "KrigingPrediction",
    "loo_diagnostics",
    "loo_predictions",
    "CvReport",
    "cv_lambda",
    "cv_hyperparams",
    "LhsDesign",
    "FailurePosterior",
    "lhs_sample",
    "simulate_pf",
    "summarize",
    "StudyDataset",
    "SimulatorConfig",
    "load_dataset",
    "synth_simulator",
    "synth_study",
]
