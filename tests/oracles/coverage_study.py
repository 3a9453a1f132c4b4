"""Coverage study of the whole pipeline on the small-p fixture: criterion 8's
stage sequence and config over a range of fixture seeds.

For each seed, synth_study(seed) is written out and fit-inputs, fit-gp,
tune-prior and simulate-pf (Setting A, then B) run with criterion 8's
``_pipeline_config`` (tests/test_acceptance.py) at that seed, as criterion 8
runs them.  Per replication and setting it records whether the 95% interval
[ci_lower, ci_upper] covers SMALL_P_TRUE, P_true's rank (the share of P_f
draws below it), ci_upper / P_true and the share of draws below 1e-8, and
each stage's wall time.  The summary gives, per setting, the coverage with
its 95% Clopper-Pearson interval, the misses with P_true below and above
the interval, and a Kolmogorov-Smirnov test of the ranks against uniform,
in the style of simulation-based calibration (Talts et al. 2018); with one
fixed truth that is evidence, not a theorem.

Run:  PYTHONPATH=src python tests/oracles/coverage_study.py 8000 8039
(the first and last seed; about 2 s a seed on two CPUs).  It writes
COVERAGE_small_p.json at the repo root.
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
from scipy import stats

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tests"))

from test_acceptance import _pipeline_config  # noqa: E402

from reliagp.cli import run_stage  # noqa: E402
from reliagp.ingest import SMALL_P_TRUE, save_dataset, synth_study  # noqa: E402
from reliagp.tables import read_table  # noqa: E402

SETTINGS = ("A", "B")
STEPS = [("fit-inputs", None), ("fit-gp", None), ("tune-prior", None), *(("simulate-pf", s) for s in SETTINGS)]
TINY = 1e-8  # a draw below this is read as "no failure seen"


def replication(seed: int, work: Path) -> dict:
    """Criterion 8's stages at one seed, and what each setting's P_f draws say about P_true."""
    cfg = _pipeline_config(save_dataset(synth_study(seed=seed), work / "data"), work / "out", seed=seed)
    wall = {}
    for stage, setting in STEPS:
        if setting:
            cfg.setting = setting
        start = time.perf_counter()
        run_stage(stage, cfg)
        wall[f"{stage} {setting}" if setting else stage] = time.perf_counter() - start
    record = {"seed": seed, "wall_s": wall}
    for setting in SETTINGS:
        summary = json.loads((work / "out" / f"pf_setting_{setting}_summary.json").read_text())
        _, p = read_table(work / "out" / f"pf_setting_{setting}.csv")
        record[setting] = {
            "covers": summary["ci_lower"] <= SMALL_P_TRUE <= summary["ci_upper"],
            "p_true_below_interval": SMALL_P_TRUE < summary["ci_lower"],
            "p_true_above_interval": SMALL_P_TRUE > summary["ci_upper"],
            "rank": float(np.mean(p < SMALL_P_TRUE)),
            "ci_upper_over_p_true": summary["ci_upper"] / SMALL_P_TRUE,
            "share_below_1e-8": float(np.mean(p < TINY)),
        }
    return record


def summary(records: list[dict], setting: str) -> dict:
    rows = [r[setting] for r in records]
    hits = sum(r["covers"] for r in rows)
    ci = stats.binomtest(hits, len(rows)).proportion_ci(method="exact")
    ks = stats.kstest([r["rank"] for r in rows], "uniform")
    return {
        "covered": hits,
        "replications": len(rows),
        "coverage_clopper_pearson_95": [ci.low, ci.high],
        "p_true_below_interval": sum(r["p_true_below_interval"] for r in rows),
        "p_true_above_interval": sum(r["p_true_above_interval"] for r in rows),
        "missed_seeds": [rec["seed"] for rec, r in zip(records, rows) if not r["covers"]],
        "rank_ks_statistic": float(ks.statistic),
        "rank_ks_pvalue": float(ks.pvalue),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("first", type=int, help="first fixture seed")
    parser.add_argument("last", type=int, help="last fixture seed, included")
    args = parser.parse_args(argv)
    records = []
    for seed in range(args.first, args.last + 1):
        with tempfile.TemporaryDirectory() as tmp:
            records.append(replication(seed, Path(tmp)))
        print(seed, {s: records[-1][s]["covers"] for s in SETTINGS}, file=sys.stderr, flush=True)
    result = {
        "preset": "small_p",
        "p_true": SMALL_P_TRUE,
        "seeds": [args.first, args.last],
        "summary": {s: summary(records, s) for s in SETTINGS},
        "replications": records,
    }
    (ROOT / "COVERAGE_small_p.json").write_text(json.dumps(result, indent=2) + "\n")


if __name__ == "__main__":
    main()
