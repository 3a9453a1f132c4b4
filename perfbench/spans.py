"""Tracing for the benchmark's traced run.

A :class:`Tracer` records one span (name, start, end, parent) around each
call into the layers' public functions.  :func:`traced` wraps each name
where its caller looks it up (``reliagp.cli.am_sample``, the class attribute
``KrigingModel.__init__``, ...) and restores the originals on exit, so the
program itself is unchanged.  Spans stay in memory until :meth:`Tracer.save`.
"""

from __future__ import annotations

import contextlib
import math
import time
from array import array
from collections import Counter

import numpy as np


STAGE_PREFIX = "cli."  # span name of a stage invocation: "cli.<stage>"


class Tracer:
    """In-memory span store plus counters recorded at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around each call."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        clock = time.perf_counter
        stack = self._stack

        def traced_call(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        return traced_call

    def arrays(self):
        return (
            np.frombuffer(self.name_id, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def save(self, path) -> None:
        name_id, parent, start, end = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name_id=name_id,
            parent=parent,
            start=start,
            end=end,
            counter_names=np.array(list(self.counts)),
            counter_values=np.array(list(self.counts.values()), dtype=float),
        )


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Wrap the layers' public names in spans for the duration of the block."""
    from reliagp import cli, distributions, failure, gp, ingest, kriging, tuning

    patched = []

    def patch(owner, attr, replacement):
        patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    counts = tracer.counts

    def am_sample_hook(fn):
        traced_target = tracer.wrap("mcmc.target", lambda f, x: f(x))

        def am_sample(log_target, init, init_cov, settings, rng):
            calls = 0

            def target(x):
                nonlocal calls
                lp = traced_target(log_target, x)
                if calls:  # the first call scores init, not a proposal
                    counts["mcmc.am_sample.proposals"] += 1
                    counts["mcmc.am_sample.finite_proposals"] += math.isfinite(lp)
                calls += 1
                return lp

            counts["mcmc.am_sample.steps"] += settings.t
            return fn(target, init, init_cov, settings, rng)

        return am_sample

    def cholesky_hook(fn):
        def cholesky_with_nugget(S, theta, nugget=gp.NUGGET_START):
            L, used = fn(S, theta, nugget)
            counts["gp.cholesky_with_nugget.escalations"] += used > nugget
            return L, used

        return cholesky_with_nugget

    def predict_batch_hook(fn):
        def predict_batch(model, pts, x0=None):
            counts["kriging.predict_batch.points"] += np.atleast_2d(pts).shape[0]
            return fn(model, pts, x0)

        return predict_batch

    def cv_hook(fn):
        def cv(*args, **kwargs):
            report = fn(*args, **kwargs)
            counts["tuning.failed_candidates"] += int(np.sum(~np.isfinite(report.scores)))
            return report

        return cv

    def simulate_pf_hook(fn):
        def simulate_pf(*args, **kwargs):
            posterior = fn(*args, **kwargs)
            counts["failure.simulate_pf.outer_draws"] += posterior.N
            return posterior

        return simulate_pf

    hooked = [
        (cli, "am_sample", "mcmc.am_sample", am_sample_hook),
        (tuning, "am_sample", "mcmc.am_sample", am_sample_hook),
        (gp, "cholesky_with_nugget", "gp.cholesky_with_nugget", cholesky_hook),
        (kriging.KrigingModel, "predict_batch", "kriging.predict_batch", predict_batch_hook),
        (cli, "cv_lambda", "tuning.cv_lambda", cv_hook),
        (cli, "cv_hyperparams", "tuning.cv_hyperparams", cv_hook),
        (cli, "simulate_pf", "failure.simulate_pf", simulate_pf_hook),
    ]
    plain = [
        (ingest, "load_dataset", "ingest.load_dataset"),
        (distributions, "log_posterior_unnorm", "distributions.log_posterior_unnorm"),
        (failure, "sample", "distributions.sample"),
        (cli, "default_init_cov", "mcmc.default_init_cov"),
        (tuning, "default_init_cov", "mcmc.default_init_cov"),
        (cli, "save_chain", "mcmc.save_chain"),
        (cli, "load_chain", "mcmc.load_chain"),
        (gp, "nll_bayes", "gp.nll_bayes"),
        (gp, "nll_reml_regularized", "gp.nll_reml_regularized"),
        (cli, "fit_reml", "gp.fit_reml"),
        (tuning, "fit_reml", "gp.fit_reml"),
        (kriging.KrigingModel, "__init__", "kriging.model_build"),
        (cli, "loo_predictions", "kriging.loo_predictions"),
        (failure, "exceedance_probability", "failure.exceedance_probability"),
    ]
    try:
        for owner, attr, name, hook in hooked:
            patch(owner, attr, tracer.wrap(name, hook(getattr(owner, attr))))
        for owner, attr, name in plain:
            patch(owner, attr, tracer.wrap(name, getattr(owner, attr)))
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer metrics, per pipeline pass, derived from the spans."""
    name_id, parent, start, end = tracer.arrays()
    dur = end - start
    child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=dur.size)
    self_time = dur - child
    ids = {name: i for i, name in enumerate(tracer.names)}

    def mask(name):
        return name_id == ids[name] if name in ids else np.zeros(dur.size, dtype=bool)

    def calls(name):
        return int(np.count_nonzero(mask(name)))

    def total(name):
        return float(dur[mask(name)].sum())

    def self_total(name):
        return float(self_time[mask(name)].sum())

    def ratio(a, b):
        return a / b if b else 0.0

    c = tracer.counts
    steps = c["mcmc.am_sample.steps"]
    draws = c["failure.simulate_pf.outer_draws"]
    in_simulate = np.isin(parent, np.flatnonzero(mask("failure.simulate_pf")))
    stage_names = [n for n in tracer.names if n.startswith(STAGE_PREFIX)]
    metrics = {
        "cli.stage.self_s": sum(self_total(n) for n in stage_names) / passes,
        "ingest.load_dataset.calls": calls("ingest.load_dataset") / passes,
        "ingest.load_dataset.s": total("ingest.load_dataset") / passes,
        "mcmc.am_sample.calls": calls("mcmc.am_sample") / passes,
        "mcmc.am_sample.steps": steps / passes,
        "mcmc.am_sample.self_us_per_step": 1e6 * ratio(self_total("mcmc.am_sample"), steps),
        "mcmc.am_sample.finite_target_ratio": ratio(
            c["mcmc.am_sample.finite_proposals"], c["mcmc.am_sample.proposals"]
        ),
        "mcmc.default_init_cov.calls": calls("mcmc.default_init_cov") / passes,
        "mcmc.default_init_cov.s": total("mcmc.default_init_cov") / passes,
        "mcmc.chain_io.s": (total("mcmc.save_chain") + total("mcmc.load_chain")) / passes,
        "gp.fit_reml.calls": calls("gp.fit_reml") / passes,
        "gp.fit_reml.ms_per_call": 1e3 * ratio(total("gp.fit_reml"), calls("gp.fit_reml")),
        "gp.fit_reml.evals_per_call": ratio(
            calls("gp.nll_reml_regularized"), calls("gp.fit_reml")
        ),
        "gp.cholesky_with_nugget.calls": calls("gp.cholesky_with_nugget") / passes,
        "gp.cholesky_with_nugget.escalations": c["gp.cholesky_with_nugget.escalations"] / passes,
        "kriging.model_build.calls": calls("kriging.model_build") / passes,
        "kriging.model_build.us_per_call": 1e6
        * ratio(total("kriging.model_build"), calls("kriging.model_build")),
        "kriging.predict_batch.calls": calls("kriging.predict_batch") / passes,
        "kriging.predict_batch.points": c["kriging.predict_batch.points"] / passes,
        "kriging.predict_batch.us_per_1k_points": 1e9
        * ratio(total("kriging.predict_batch"), c["kriging.predict_batch.points"]),
        "kriging.loo_predictions.s": total("kriging.loo_predictions") / passes,
        "tuning.cv_lambda.self_s": self_total("tuning.cv_lambda") / passes,
        "tuning.cv_hyperparams.self_s": self_total("tuning.cv_hyperparams") / passes,
        "tuning.failed_candidates": c["tuning.failed_candidates"] / passes,
        "failure.simulate_pf.outer_draws": draws / passes,
        "failure.simulate_pf.self_s": self_total("failure.simulate_pf") / passes,
        "failure.simulate_pf.models_per_draw": ratio(
            int(np.count_nonzero(in_simulate & mask("kriging.model_build"))), draws
        ),
        "failure.exceedance_probability.us_per_call": 1e6
        * ratio(total("failure.exceedance_probability"), calls("failure.exceedance_probability")),
        "trace.wall_s": sum(total(n) for n in stage_names) / passes,
        "trace.spans": dur.size / passes,
    }
    for name in stage_names:
        metrics[f"{name.replace('-', '_')}.s"] = total(name) / passes
    for name in ("distributions.log_posterior_unnorm", "distributions.sample", "gp.nll_bayes", "gp.nll_reml_regularized"):
        metrics[f"{name}.calls"] = calls(name) / passes
        metrics[f"{name}.us_per_call"] = 1e6 * ratio(total(name), calls(name))
    return metrics
