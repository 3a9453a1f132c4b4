#!/usr/bin/env python3
"""Staged-pipeline benchmark of reliagp.

Runs the six CLI stages (simulate-pf once per setting) through
``reliagp.cli.main`` in this process, one closed-loop client, stages in
sequence, each pass in a fresh ``out_dir``, and makes as many whole passes
as fit in ``--seconds`` at the workload's reference pace (at least one), so
that every run does the same work.  Every stage invocation is timed from
outside and its outputs are checked (see checks.py).  The last stdout line is one JSON
object: ``correct``, ``attempted`` and ``failed`` stage invocations, and the
end-to-end metrics (``--trace 0``) or the per-layer metrics of a traced run
(``--trace 1``).

    python3 perfbench/run.py --workload replication --seed 1 --seconds 60 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
RUNS_DIR = Path(__file__).resolve().parent / "_runs"

# metric name -> unit, for the end-to-end and the per-layer metrics
UNITS = {
    kind: {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}
    for kind in ("end_to_end", "per_layer")
}


def process_age() -> float:
    """Seconds since this process started, from the kernel's start time."""
    fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


class Pipeline:
    """One workload's fixture, config and checks, in a private run directory."""

    def __init__(self, workload: str, seed: int, size: str, run_dir: Path):
        from reliagp.ingest import save_dataset, synth_study

        self.workload = workload
        self.out_dir = run_dir / "out"
        dataset = synth_study(seed=workloads.FIXTURE_SEED)
        manifest = save_dataset(dataset, run_dir / "data")
        self.config = workloads.pipeline_config(
            workload, size, seed, str(manifest), str(self.out_dir)
        )
        self.config_path = run_dir / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=2))
        self.S = dataset.design
        self.Z = dataset.outputs
        self.variables = [(v.name, v.family.value, v.observations) for v in dataset.variables]

    def argv(self, stage: str, setting: str | None) -> list[str]:
        argv = [stage, "--config", str(self.config_path)]
        if setting:
            argv += ["--setting", setting]
        if stage in workloads.OPTIMISER_STAGES:
            argv += ["--seed", str(workloads.OPTIMISER_SEED)]
        return argv

    def check(self, stage: str, setting: str | None) -> None:
        out = self.out_dir
        if stage == "fit-inputs":
            checks.input_chains(out, self.variables)
        elif stage == "tune-lambda":
            checks.cv_scores(out / "cv_lambda.json")
        elif stage == "fit-gp":
            checks.gp_fit(out, self.S, self.Z)
        elif stage == "tune-prior":
            checks.tune_prior(out)
        elif stage == "simulate-pf":
            checks.pf_draws(out, setting, self.config["N"])
        elif stage == "report":
            checks.loo_report(out, self.S, self.Z)

    def run_pass(self, stage_main) -> tuple[dict, list[str], list[str]]:
        """One pass through every step; returns the pass metrics, the
        invocations that exited nonzero and those whose outputs are wrong."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        metrics = dict.fromkeys(["wall_s", "cpu_s"], 0.0)
        crashed, wrong = [], []
        for stage, setting in workloads.STEPS:
            record = self.out_dir / "provenance" / f"{stage}.json"
            before = _stat(record)
            log = io.StringIO()
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                    rc = stage_main(stage, self.argv(stage, setting))
            except Exception:
                rc = None
                log.write(traceback.format_exc())
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            metrics["wall_s"] += wall
            metrics["cpu_s"] += cpu
            name = f"{stage} {setting or ''}"
            if rc != 0:
                crashed.append(f"{name}: exit code {rc}\n{log.getvalue()}")
                continue
            try:
                checks.stage_did_work(stage, log.getvalue(), before, _stat(record))
                self.check(stage, setting)
            except (checks.CheckFailed, OSError, ValueError, KeyError) as e:
                wrong.append(f"{name}: {type(e).__name__}: {e}\n{log.getvalue()}")
        return metrics, crashed, wrong


def stage_runner(cli_main, tracer=None):
    """(stage, argv) -> exit code; one span per invocation when traced."""
    if tracer is None:
        return lambda stage, argv: cli_main(argv)
    mains = {stage: tracer.wrap(spans.STAGE_PREFIX + stage, cli_main) for stage, _ in workloads.STEPS}
    return lambda stage, argv: mains[stage](argv)


def _stat(path: Path):
    try:
        st = path.stat()
    except FileNotFoundError:
        return None
    return (st.st_ino, st.st_mtime_ns, st.st_size)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="master seed of the sampling stages")
    parser.add_argument(
        "--seconds", type=float, required=True, help="run as many whole passes as fit in this long at the reference pace"
    )
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "smoke"], default="full")
    return parser.parse_args(argv)


def run(args) -> dict:
    """Set up, run the whole passes that fit in ``args.seconds``, and return the result."""
    src = ROOT / "src"
    if not (src / "reliagp").is_dir():
        raise SystemExit(f"reliagp sources not found under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from reliagp.cli import main as cli_main

    RUNS_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS_DIR))
    try:
        pipeline = Pipeline(args.workload, args.seed, args.size, run_dir)
        setup_s = process_age()
        tracer = spans.Tracer() if args.trace else None
        stage_main = stage_runner(cli_main, tracer)
        passes, crashed, wrong = [], [], []
        with spans.traced(tracer) if tracer else contextlib.nullcontext():
            # a traced run's figures are per pass, so one pass is enough
            n_passes = 1 if tracer else workloads.passes(args.workload, args.seconds)
            for _ in range(n_passes):
                metrics, pass_crashed, pass_wrong = pipeline.run_pass(stage_main)
                passes.append(metrics)
                crashed += pass_crashed
                wrong += pass_wrong
        for msg in crashed + wrong:
            print(msg, file=sys.stderr)
        if tracer:
            tracer.save(RUNS_DIR / f"trace-{args.workload}.npz")
            values = spans.layer_metrics(tracer, len(passes))
            units = UNITS["per_layer"]
        else:
            values = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
            values["setup_s"] = setup_s
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = UNITS["end_to_end"]
        return {
            "correct": not wrong,
            "attempted": len(passes) * len(workloads.STEPS),
            "failed": len(crashed) + len(wrong),
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in sorted(values)},
        }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None) -> int:
    result = run(parse_args(argv))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
