"""Dataset ingestion, validation, rescaling, and synthetic fixtures.

For development and testing, a deterministic smooth synthetic simulator
stands in for an expensive external simulator, and a generator reproduces a
typical study layout: draw small observation samples per input variable,
fit the marginals by MLE, build a Latin hypercube design through the fitted
marginals, run the simulator, and record the outputs.

File schemas (all CSV, UTF-8, '.' decimal, mandatory headers):

* observations: columns ``variable,value`` (long format)
* design: columns named after the variables (``X0001``, ...)
* outputs: single column ``peak_accel_g`` (raw units before rescaling)

A JSON manifest ties the three files together with the rescale factor and
the per-variable distributional assumptions.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from reliagp.distributions import (
    Family,
    InputVariableSpec,
    NormalParams,
    ParamVector,
    WeibullParams,
    mle_fit,
    sample,
)
from reliagp.failure import lhs_sample

__all__ = [
    "StudyDataset",
    "SimulatorConfig",
    "small_p_preset",
    "synth_simulator",
    "synth_study",
    "load_dataset",
    "save_dataset",
]


@dataclass(frozen=True)
class StudyDataset:
    """Input variables, design, and outputs of one simulation study."""

    variables: list[InputVariableSpec]
    design: np.ndarray  # (n, K)
    outputs_raw: np.ndarray  # (n,), raw units
    rescale_factor: float = 1000.0

    def __post_init__(self):
        design = np.atleast_2d(np.asarray(self.design, dtype=float))
        outputs = np.asarray(self.outputs_raw, dtype=float).ravel()
        if design.shape[0] != outputs.size:
            raise ValueError(
                f"design has {design.shape[0]} rows but there are {outputs.size} outputs"
            )
        if design.shape[1] != len(self.variables):
            raise ValueError(
                f"design has {design.shape[1]} columns for {len(self.variables)} variables"
            )
        if not np.all(np.isfinite(design)) or not np.all(np.isfinite(outputs)):
            raise ValueError("design/outputs contain NaN or inf")
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "outputs_raw", outputs)

    @property
    def outputs(self) -> np.ndarray:
        """Outputs in rescaled units."""
        return self.outputs_raw / self.rescale_factor

    @property
    def n(self) -> int:
        return self.design.shape[0]

    @property
    def K(self) -> int:
        return self.design.shape[1]


@dataclass(frozen=True)
class SimulatorConfig:
    """Coefficients of the deterministic synthetic simulator.

    Output (in rescaled units) at input s:

        u = (s - loc) / sc                      (per-variable standardization)
        h(s) = intercept + coeffs . u
               + nonlin * mean(tanh(u))
               + interaction * u[0] * u[1]      (when K >= 2)

    ``loc``/``sc`` are fixed constants of the simulator, typically the means
    and standard deviations of the true input marginals.
    """

    intercept: float
    coeffs: tuple
    loc: tuple
    sc: tuple
    nonlin: float = 0.0
    interaction: float = 0.0

    @property
    def K(self) -> int:
        return len(self.coeffs)


def synth_simulator(s, config: SimulatorConfig):
    """Deterministic smooth stand-in for the expensive simulator.

    Accepts a K-vector or an (m, K) matrix; returns a scalar or m-vector in
    rescaled output units.
    """
    s = np.asarray(s, dtype=float)
    single = s.ndim == 1
    pts = np.atleast_2d(s)
    if pts.shape[1] != config.K:
        raise ValueError(f"input has {pts.shape[1]} coordinates, simulator expects {config.K}")
    u = (pts - np.asarray(config.loc)) / np.asarray(config.sc)
    out = config.intercept + u @ np.asarray(config.coeffs)
    if config.nonlin:
        out = out + config.nonlin * np.mean(np.tanh(u), axis=1)
    if config.interaction and config.K >= 2:
        out = out + config.interaction * u[:, 0] * u[:, 1]
    return float(out[0]) if single else out


# True input marginals of the "small-p" fixture.  z_crit = 3.0 was placed so
# the exceedance probability under these marginals is close to 1e-4; the
# frozen reference value below was computed by direct Monte Carlo with 1e8
# draws (see tests/oracles/compute_small_p_truth.py).
SMALL_P_MARGINALS: list[tuple[str, Family, ParamVector]] = [
    ("X0001", Family.NORMAL, NormalParams(mu=10.0, sigma2=1.0)),
    ("X0002", Family.NORMAL, NormalParams(mu=5.0, sigma2=0.25)),
    ("X0003", Family.WEIBULL, WeibullParams(alpha=2.0, beta=3.0)),
    ("X0004", Family.WEIBULL, WeibullParams(alpha=1.0, beta=2.0)),
]

SMALL_P_Z_CRIT = 3.0
# frozen 1e8-draw direct-MC reference (tests/oracles/compute_small_p_truth.py)
SMALL_P_TRUE = 1.0475e-4
SMALL_P_TRUE_SE = 1.02e-6


def small_p_preset() -> SimulatorConfig:
    """Simulator preset whose true exceedance probability of z_crit = 3.0
    under the true marginals is ~1e-4 (see SMALL_P_TRUE)."""
    means = []
    sds = []
    for _, fam, params in SMALL_P_MARGINALS:
        if fam == Family.NORMAL:
            means.append(params.mu)
            sds.append(math.sqrt(params.sigma2))
        else:
            a, b = params.alpha, params.beta
            m = a * math.gamma(1 + 1 / b)
            v = a**2 * (math.gamma(1 + 2 / b) - math.gamma(1 + 1 / b) ** 2)
            means.append(m)
            sds.append(math.sqrt(v))
    k = len(means)
    return SimulatorConfig(
        intercept=2.60,
        coeffs=tuple([0.046] * k),
        loc=tuple(means),
        sc=tuple(sds),
        nonlin=0.01,
        interaction=0.01,
    )


def synth_study(
    seed: int,
    n: int = 25,
    config: SimulatorConfig | None = None,
    marginals: list[tuple[str, Family, ParamVector]] | None = None,
    n_obs: int = 10,
    rescale_factor: float = 1000.0,
) -> StudyDataset:
    """Reproducible synthetic study: observations -> MLE marginals -> LHS
    design -> simulator outputs.  Deterministic given the seed."""
    if marginals is None:
        marginals = SMALL_P_MARGINALS
    if config is None:
        config = small_p_preset()
    K = len(marginals)
    if config.K != K:
        raise ValueError(f"simulator expects {config.K} inputs, got {K} marginals")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))

    variables = []
    fitted = []
    for name, fam, true_params in marginals:
        obs = sample(true_params, rng, size=n_obs)
        spec = InputVariableSpec(name=name, family=fam, observations=np.asarray(obs))
        variables.append(spec)
        fitted.append(mle_fit(spec))

    design = lhs_sample(n, K, fitted, rng).S
    outputs = synth_simulator(design, config) * rescale_factor
    return StudyDataset(
        variables=variables,
        design=design,
        outputs_raw=outputs,
        rescale_factor=rescale_factor,
    )


def save_dataset(dataset: StudyDataset, out_dir) -> Path:
    """Write observations/design/outputs CSVs and the manifest; returns the
    manifest path.  Floats are written with repr for lossless round-trips."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    obs_path = out_dir / "observations.csv"
    with open(obs_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variable", "value"])
        for var in dataset.variables:
            for v in var.observations:
                writer.writerow([var.name, repr(float(v))])

    design_path = out_dir / "design.csv"
    names = [v.name for v in dataset.variables]
    with open(design_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in dataset.design:
            writer.writerow([repr(float(v)) for v in row])

    outputs_path = out_dir / "outputs.csv"
    with open(outputs_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["peak_accel_g"])
        for v in dataset.outputs_raw:
            writer.writerow([repr(float(v))])

    manifest = {
        "observations": obs_path.name,
        "design": design_path.name,
        "outputs": outputs_path.name,
        "rescale_factor": dataset.rescale_factor,
        "variables": [{"name": v.name, "family": v.family.value} for v in dataset.variables],
    }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2))
    return manifest_path


def load_dataset(manifest_path) -> StudyDataset:
    """Load and validate a study from its manifest."""
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise FileNotFoundError(f"manifest not found: {manifest_path}")
    manifest = json.loads(manifest_path.read_text())
    base = manifest_path.parent
    for key in ("observations", "design", "outputs"):
        if not (base / manifest[key]).exists():
            raise FileNotFoundError(f"{key} file missing: {base / manifest[key]}")

    declared = {v["name"]: Family(v["family"]) for v in manifest["variables"]}

    obs_by_var: dict[str, list[float]] = {name: [] for name in declared}
    with open(base / manifest["observations"], newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["variable", "value"]:
            raise ValueError(
                f"observations schema must be 'variable,value', got {reader.fieldnames}"
            )
        for row in reader:
            name = row["variable"]
            if name not in declared:
                raise ValueError(f"observation for undeclared variable {name!r}")
            obs_by_var[name].append(float(row["value"]))

    variables = []
    for name, fam in declared.items():
        if not obs_by_var[name]:
            raise ValueError(f"no observations for variable {name!r}")
        variables.append(
            InputVariableSpec(name=name, family=fam, observations=np.array(obs_by_var[name]))
        )

    with open(base / manifest["design"], newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != list(declared):
            raise ValueError(
                f"design columns {header} do not match declared variables {list(declared)}"
            )
        design = np.array([[float(v) for v in row] for row in reader])

    with open(base / manifest["outputs"], newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["peak_accel_g"]:
            raise ValueError(f"outputs column must be 'peak_accel_g', got {header}")
        outputs = np.array([float(row[0]) for row in reader])

    if design.shape[0] != outputs.size:
        raise ValueError(
            f"design has {design.shape[0]} rows but outputs file has {outputs.size} values"
        )
    return StudyDataset(
        variables=variables,
        design=design,
        outputs_raw=outputs,
        rescale_factor=float(manifest.get("rescale_factor", 1000.0)),
    )
