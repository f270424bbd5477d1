"""The benchmark's workloads: one experiment config each, plus output checks.

Every workload is one ``mhenet.experiments.run`` call at acceptance-suite
scale (the sizes of ``tests/test_acceptance.py``).  The benchmark seed is
passed through as the config's base seed, so it picks the drift run and
evaluation set (drift-adapt), the matched twin (twin-converge) or the
dataset and initial weights (offline-train).

``tiny=True`` shrinks every workload to criterion-10 sizes for the
self-test; the quality thresholds below only hold at full scale.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import pathlib

from mhenet import experiments, mhe, plant, training
from mhenet.experiments import ExperimentConfig
from mhenet.models import ModelSpec, ParamVector

DATA_DIR = pathlib.Path(__file__).resolve().parent / "data"

BENCH_SPEC = ModelSpec("lstm", 6, 10, 4)

# offline-train runs a fixed number of full-batch epochs and never stops
# early, so its work does not depend on how the loss evolves
TRAIN_EPOCHS = 20

TAGS = {"drift-adapt": "adapt", "twin-converge": "converge",
        "offline-train": "train"}

# drift-adapt must recover at least this share of the drift-induced MSE
MIN_MSE_REDUCTION = 0.5
# twin-converge must shrink the weight error below this share of eps0
MAX_EPS_RATIO = 1e-6
# offline-train: train_mse against the recorded reference of the same seed
TRAIN_MSE_RTOL = 1e-6


class SetupError(RuntimeError):
    """The benchmark's own inputs are missing or corrupt."""


def config(workload: str, seed: int, out_dir, tiny: bool = False) -> ExperimentConfig:
    """The experiment config of ``workload`` at ``seed``."""
    if workload not in TAGS:
        raise SetupError(f"unknown workload {workload!r}; expected one of {sorted(TAGS)}")
    epochs = 3 if tiny else TRAIN_EPOCHS
    base = dict(
        tag=TAGS[workload], seed=seed, out_dir=str(out_dir), model=BENCH_SPEC,
        train=training.TrainConfig(epochs=epochs, learning_rate=1e-2,
                                   lr_decay=0.9988, washout=100, patience=epochs),
        mhe=mhe.MheConfig(N=10, mu=0.1, washout=100, solver="lbfgs", max_iter=2),
        converge=experiments.ConvergeConfig(horizon=200, washout=50, n_updates=10,
                                            eps0=0.1, delta_samples=30,
                                            probe_smallest=2),
    )
    if workload == "drift-adapt":
        base["model_dir"] = str(DATA_DIR)
    if tiny:
        base.update(
            drift=plant.DriftSchedule(t_start=4.0, t_end=8.0),
            dataset=plant.DatasetConfig(n_sequences=4, seq_len=120, n_train=3,
                                        n_test=1, substeps=4),
            mhe=mhe.MheConfig(N=5, mu=0.1, washout=20, solver="lbfgs", max_iter=2),
            converge=experiments.ConvergeConfig(horizon=40, washout=10, n_updates=3,
                                                delta_samples=4, probe_smallest=1,
                                                max_iter=60),
            n_eval_sequences=2, adapt_time=20.0)
        base["train"] = training.TrainConfig(epochs=epochs, washout=20,
                                             patience=epochs)
        if workload != "drift-adapt":
            base["model"] = ModelSpec("lstm", 6, 3, 4)
    return ExperimentConfig(**base)


def update_budget_s(cfg: ExperimentConfig) -> float:
    """Wall-time budget of one online update: N samples of tau seconds."""
    N = cfg.converge.horizon if cfg.tag == "converge" else cfg.mhe.N
    return N * cfg.dataset.tau


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_model(cfg: ExperimentConfig):
    """Load the committed benchmark model after checking it byte for byte.

    ``data/params.json`` and ``data/scaler.json`` are copies of the trained
    acceptance model; ``data/manifest.json`` is that training run's
    manifest, whose artifact checksums they must match.
    """
    try:
        with open(DATA_DIR / "manifest.json") as fh:
            artifacts = json.load(fh)["artifacts"]
        for name in ("params.json", "scaler.json"):
            if _sha256(DATA_DIR / name) != artifacts[name]["sha256"]:
                raise SetupError(f"{DATA_DIR / name}: sha256 differs from the "
                                 f"training manifest")
        params = ParamVector.from_json((DATA_DIR / "params.json").read_text())
        scaler = training.Scaler.from_json((DATA_DIR / "scaler.json").read_text())
    except (OSError, KeyError, ValueError) as exc:
        raise SetupError(f"benchmark model under {DATA_DIR} unusable: {exc}") from exc
    if params.spec != cfg.model:
        raise SetupError("benchmark model spec does not match the workload config")
    return params, scaler


def train_reference(seed: int):
    """Recorded train_mse of offline-train at ``seed``, or None if unrecorded."""
    with open(DATA_DIR / "train_reference.json") as fh:
        ref = json.load(fh)
    if ref["epochs"] != TRAIN_EPOCHS:
        raise SetupError("train_reference.json was recorded at another epoch count")
    return ref["train_mse"].get(str(seed)), ref["band"]


def _finite(value) -> bool:
    if isinstance(value, (list, tuple)):
        return all(_finite(v) for v in value)
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return True
    return math.isfinite(value)


def check_run(workload: str, cfg: ExperimentConfig, manifest, out_dir,
              tiny: bool = False) -> list:
    """Reasons the run's outputs are wrong; empty when they are right."""
    if manifest.status != "ok":
        return [f"manifest status {manifest.status!r}"]
    out = pathlib.Path(out_dir)
    m = manifest.metrics
    failures = []
    if not manifest.verify_artifacts(out):
        failures.append("artifact checksums do not verify")
    if not _finite(m):
        failures.append("non-finite metric in the manifest")
    if workload == "drift-adapt":
        peak = cfg.mhe.washout + cfg.mhe.N + 1
        if m["peak_buffered"] != peak:
            failures.append(f"peak_buffered {m['peak_buffered']} != {peak}")
        if not tiny and not m["mse_reduction"] >= MIN_MSE_REDUCTION:
            failures.append(f"mse_reduction {m['mse_reduction']:.3f} "
                            f"< {MIN_MSE_REDUCTION}")
    elif workload == "twin-converge":
        if m["violations"]:
            failures.append(f"contraction violated at updates {m['violations']}")
        if not m["rho_c"] < 1.0:
            failures.append(f"rho_c {m['rho_c']:.3f} >= 1")
        if not tiny and not m["final_epsilon"] <= MAX_EPS_RATIO * m["eps0"]:
            failures.append(f"final eps {m['final_epsilon']:.2e} > "
                            f"{MAX_EPS_RATIO} * eps0")
    else:
        with open(out / "history.csv", newline="") as fh:
            train_col = [float(row["train_mse"]) for row in csv.DictReader(fh)]
        if any(b > a for a, b in zip(train_col, train_col[1:])):
            failures.append("training history increases")
        if len(train_col) != cfg.train.epochs:
            failures.append(f"{len(train_col)} epochs run, expected {cfg.train.epochs}")
        if not tiny:
            exact, (lo, hi) = train_reference(cfg.seed)
            got = m["train_mse"]
            if exact is not None and abs(got - exact) > TRAIN_MSE_RTOL * exact:
                failures.append(f"train_mse {got!r} != reference {exact!r}")
            if not lo <= got <= hi:
                failures.append(f"train_mse {got:.4g} outside [{lo:.4g}, {hi:.4g}]")
    return failures
