"""Config-driven experiment harness.

Each experiment is fully determined by an ExperimentConfig (plus the
code version): the dataclass is serialized next to every artifact set
and hashed into the run manifest, so re-running the same config and
seed reproduces the same summary (wall times excluded).

Experiment tags
  simulate    collect an excitation dataset from the plant and save it
  train       offline identification of the nominal network
  drift-eval  before/after-drift open-loop MSE of the unadapted model
  adapt       moving-horizon weight adaptation along one drift run
  sweep       the (mu, N) grid of adaptation runs, one table row each
  converge    matched-twin contraction study with delta estimation

All tabular outputs are CSV with a header row; figure data is emitted
as plain CSV series so any plotting tool can consume it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import pathlib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np

from . import convergence, mhe, models, plant, training
from .mhe import MheConfig
from .models import ModelSpec, ParamVector
from .plant import DatasetConfig, DriftSchedule, PlantParams
from .training import TrainConfig

TAGS = ("simulate", "train", "drift-eval", "adapt", "sweep", "converge")

# (mu, N) rows of the adaptation hyperparameter study
DEFAULT_SWEEP_GRID = ((0.05, 10), (0.1, 5), (0.1, 10), (0.1, 20), (0.5, 10))

FIGURE_TAGS = ("fig3", "fig4", "fig5", "fig6", "fig7")


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the field."""


@dataclass(frozen=True)
class ConvergeConfig:
    """Settings of the matched-twin contraction study."""

    horizon: int = 200        # window length N of the twin study
    washout: int = 50
    n_updates: int = 10
    eps0: float = 0.1         # squared weight error of the perturbed prior
    hold_steps: int = 5       # input levels held this many samples
    delta_samples: int = 30   # random perturbations for delta estimation
    probe_smallest: int = 2   # least-identifiable directions probed per window
    max_iter: int = 400

    def __post_init__(self):
        for name, low in (("horizon", 1), ("washout", 0), ("n_updates", 1),
                          ("hold_steps", 1), ("delta_samples", 0),
                          ("probe_smallest", 0), ("max_iter", 1)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < low:
                raise ConfigError(f"{name} must be an integer >= {low}")
        if not 0.0 < self.eps0:
            raise ConfigError("eps0 must be positive")
        if not np.isfinite(self.eps0):
            raise ConfigError("eps0 must be finite")
        if self.delta_samples == self.probe_smallest == 0:
            raise ConfigError("delta_samples and probe_smallest cannot both be 0")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run depends on, serializable to/from JSON.

    Seeds for the individual stages are derived deterministically from
    the single base seed; the drifted evaluation set uses its own
    derived seed, disjoint from the train/test data.
    """

    tag: str
    seed: int = 0
    out_dir: str = "runs"
    plant: PlantParams = field(default_factory=PlantParams)
    drift: DriftSchedule = field(default_factory=DriftSchedule)
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: ModelSpec = field(default_factory=lambda: ModelSpec("lstm", 6, 10, 4))
    train: TrainConfig = field(default_factory=TrainConfig)
    # A small per-update iteration budget is deliberate: each window has far
    # fewer residuals than the network has weights, so a fully converged
    # solve chases noise along weakly identified weight directions and the
    # drift in those directions accumulates across updates.  A few truncated
    # L-BFGS steps capture the well-identified correction and stop there.
    mhe: MheConfig = field(
        default_factory=lambda: MheConfig(solver="lbfgs", max_iter=2))
    converge: ConvergeConfig = field(default_factory=ConvergeConfig)
    sweep_grid: tuple = DEFAULT_SWEEP_GRID
    n_eval_sequences: int = 35
    adapt_time: float = 300.0     # drift-run length [s]
    model_dir: str | None = None  # train-run directory with params/scaler
    jobs: int = 1

    def __post_init__(self):
        if self.tag not in TAGS:
            raise ConfigError(f"tag: expected one of {TAGS}, got {self.tag!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigError("seed: must be an integer")
        if not isinstance(self.jobs, int) or isinstance(self.jobs, bool):
            raise ConfigError("jobs: must be an integer")
        if not isinstance(self.adapt_time, (int, float)):
            raise ConfigError("adapt_time: must be a number")
        if (not isinstance(self.n_eval_sequences, int)
                or isinstance(self.n_eval_sequences, bool) or self.n_eval_sequences < 1):
            raise ConfigError("n_eval_sequences: must be an integer >= 1")
        if self.adapt_time <= self.drift.t_start:
            raise ConfigError("adapt_time must extend past the drift onset")
        if self.jobs < 1:
            raise ConfigError("jobs: must be >= 1")
        # (mu, N) rows in one canonical form, so that a config built with an
        # integer mu hashes the same as its JSON round trip
        try:
            grid = tuple((float(mu), int(N)) for mu, N in self.sweep_grid)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"sweep_grid: expected [mu, N] rows: {exc}") from exc
        if any(isinstance(N, bool) or N != n
               for (_, N), (_, n) in zip(self.sweep_grid, grid)):
            raise ConfigError("sweep_grid: horizon N must be an integer")
        if not grid or any(mu < 0 or N < 1 for mu, N in grid):
            raise ConfigError("sweep_grid: needs rows [mu, N] with mu >= 0, N >= 1")
        object.__setattr__(self, "sweep_grid", grid)

    # derived stage seeds
    @property
    def seed_dataset(self):
        return self.seed

    @property
    def seed_train(self):
        return self.seed + 1

    @property
    def seed_eval(self):
        return self.seed + 101

    @property
    def seed_drift(self):
        return self.seed + 7

    @property
    def seed_twin(self):
        return self.seed + 13

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        try:
            return plant.config_from_dict(cls, d)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    def config_hash(self) -> str:
        """Hash of everything that determines results (not placement)."""
        d = self.to_dict()
        d.pop("out_dir")
        d.pop("jobs")
        text = json.dumps(d, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return ExperimentConfig.from_dict(data)


@dataclass
class RunManifest:
    """Record of one run: config identity, artifacts, and summary metrics."""

    tag: str
    config_hash: str
    config: dict
    artifacts: dict          # name -> {path, sha256, bytes}
    metrics: dict
    wall_times: dict         # stage -> seconds, a list for sweep rows (not compared)
    status: str = "ok"

    def summary(self) -> dict:
        """Everything reproducible: the manifest minus wall times."""
        return {"tag": self.tag, "config_hash": self.config_hash,
                "artifacts": self.artifacts, "metrics": self.metrics,
                "status": self.status}

    def save(self, path):
        with open(path, "w") as fh:
            json.dump({"tag": self.tag, "config_hash": self.config_hash,
                       "config": self.config, "artifacts": self.artifacts,
                       "metrics": self.metrics, "wall_times": self.wall_times,
                       "status": self.status}, fh, indent=1)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls(**json.load(fh))

    def verify_artifacts(self, out_dir) -> bool:
        out = pathlib.Path(out_dir)
        for name, rec in self.artifacts.items():
            p = out / rec["path"]
            if not p.exists() or plant.file_sha256(p) != rec["sha256"]:
                return False
        return True


def _record_artifact(artifacts, out, path):
    path = pathlib.Path(path)
    artifacts[path.name] = {"path": str(path.relative_to(out)),
                            "sha256": plant.file_sha256(path),
                            "bytes": path.stat().st_size}


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v
                             for v in row])


def csv_stream(path, scaler: training.Scaler | None = None):
    """Incrementally consume a sequence CSV as an IOSample stream."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != plant.SEQUENCE_CSV_COLUMNS:
            raise ValueError(f"unexpected sequence CSV header {header}")
        for t, row in enumerate(reader):
            vals = [float(v) for v in row]
            u = np.array(vals[1:7])
            y = np.array(vals[7:11])
            if scaler is not None:
                u, y = scaler.scale_u(u), scaler.scale_y(y)
            yield mhe.IOSample(u=u, y=y, t=t)


def _load_model(config: ExperimentConfig):
    """(params, scaler) from the train-run directory named by the config."""
    if config.model_dir is None:
        raise ConfigError("model_dir: required for this experiment tag")
    d = pathlib.Path(config.model_dir)
    try:
        with open(d / "params.json") as fh:
            params = ParamVector.from_json(fh.read())
        with open(d / "scaler.json") as fh:
            scaler = training.Scaler.from_json(fh.read())
    except OSError as exc:
        raise ConfigError(f"model_dir: cannot load trained model: {exc}") from exc
    if params.spec != config.model:
        raise ConfigError("model_dir: trained spec does not match config.model")
    return params, scaler


def _eval_dataset(config: ExperimentConfig) -> plant.Dataset:
    """Dedicated post-drift evaluation set (drifted kA, its own seed)."""
    eval_cfg = replace(config.dataset, n_sequences=config.n_eval_sequences,
                       n_train=0, n_test=config.n_eval_sequences,
                       kA=config.drift.end_value)
    return plant.collect_dataset(eval_cfg, seed=config.seed_eval)


def _mse_row(label, report):
    return [label] + [float(v) for v in report.channel_mse] + [report.average]


# ---------------------------------------------------------------------------
# experiment implementations

def _run_simulate(config, out, artifacts, metrics, walls):
    t0 = time.perf_counter()
    ds = plant.collect_dataset(config.dataset, seed=config.seed_dataset)
    walls["collect"] = time.perf_counter() - t0
    manifest = plant.save_dataset(out / "dataset", ds)
    for name in manifest["files"]:
        _record_artifact(artifacts, out, out / "dataset" / name)
    _record_artifact(artifacts, out, out / "dataset" / "dataset.json")
    Y = np.concatenate([s.y for s in ds.sequences])
    metrics.update({
        "n_sequences": len(ds.sequences),
        "seq_len": config.dataset.seq_len,
        "output_mean": [float(v) for v in Y.mean(axis=0)],
        "output_std": [float(v) for v in Y.std(axis=0)],
    })


def _run_train(config, out, artifacts, metrics, walls):
    t0 = time.perf_counter()
    ds = plant.collect_dataset(config.dataset, seed=config.seed_dataset)
    walls["collect"] = time.perf_counter() - t0
    scaler = training.fit_scaler(ds.train)
    cfg = replace(config.train, seed=config.seed_train)
    t1 = time.perf_counter()
    params, history = training.train_offline(config.model, ds, cfg, scaler=scaler)
    walls["train"] = time.perf_counter() - t1
    with open(out / "params.json", "w") as fh:
        fh.write(params.to_json())
    with open(out / "scaler.json", "w") as fh:
        fh.write(scaler.to_json())
    _write_csv(out / "history.csv", ("epoch", "train_mse", "test_mse"),
               [(int(e), float(tr), float(te)) for e, tr, te in history])
    train_rep = training.evaluate_mse(config.model, params, ds.train,
                                      cfg.washout, scaler)
    test_rep = training.evaluate_mse(config.model, params, ds.test,
                                     cfg.washout, scaler)
    for name in ("params.json", "scaler.json", "history.csv"):
        _record_artifact(artifacts, out, out / name)
    metrics.update({"epochs_run": len(history),
                    "train_mse": train_rep.average,
                    "test_mse": test_rep.average,
                    "channel_test_mse": [float(v) for v in test_rep.channel_mse]})
    for fig in ("fig3", "fig4"):
        emit_plotdata(out, fig, config, params=params, scaler=scaler, ds=ds)
    for name in ("fig3.csv", "fig4.csv"):
        _record_artifact(artifacts, out, out / name)


def _run_drift_eval(config, out, artifacts, metrics, walls):
    params, scaler = _load_model(config)
    t0 = time.perf_counter()
    ds = plant.collect_dataset(config.dataset, seed=config.seed_dataset)
    pre = training.evaluate_mse(config.model, params, ds.test,
                                config.train.washout, scaler)
    post_ds = _eval_dataset(config)
    post = training.evaluate_mse(config.model, params, post_ds.test,
                                 config.train.washout, scaler)
    walls["evaluate"] = time.perf_counter() - t0
    header = ("phase",) + plant.STATE_COLUMNS + ("average",)
    _write_csv(out / "drift_eval.csv", header,
               [_mse_row("before_drift", pre), _mse_row("after_drift", post)])
    _record_artifact(artifacts, out, out / "drift_eval.csv")
    ratios = post.channel_mse / pre.channel_mse
    metrics.update({"pre_drift_mse": pre.average, "post_drift_mse": post.average,
                    "channel_pre": [float(v) for v in pre.channel_mse],
                    "channel_post": [float(v) for v in post.channel_mse],
                    "channel_ratio": [float(v) for v in ratios],
                    "average_ratio": post.average / pre.average})


def _drift_data(config, scaler):
    """The drift run, its scaled copy and the drifted evaluation set; they
    depend on the seeds only, so every (mu, N) row shares them."""
    run = plant.drift_run(config.adapt_time, config.drift,
                          config.dataset.excitation, seed=config.seed_drift,
                          params=config.plant, substeps=config.dataset.substeps)
    scaled = plant.Sequence(u=scaler.scale_u(run.u), y=scaler.scale_y(run.y),
                            tau=run.tau)
    return run, scaled, _eval_dataset(config)


def _adapt_row(config, params, scaler, scaled, eval_ds, mu, N):
    """(checkpoints, run_stats, wall time, EvalReport of the last solution)
    of one (mu, N) adaptation; top-level so that a process pool can run it."""
    cfg = replace(config.mhe, mu=mu, N=N)
    t0 = time.perf_counter()
    checkpoints, stats = mhe.run_adaptation(config.model, params,
                                            mhe.sequence_stream(scaled), cfg)
    wall = time.perf_counter() - t0
    if not checkpoints:
        raise RuntimeError(f"adaptation (mu={mu}, N={N}) produced no checkpoints")
    report = training.evaluate_mse(config.model, checkpoints[-1].solution,
                                   eval_ds.test, config.train.washout, scaler)
    return checkpoints, stats, wall, report


def _run_adapt(config, out, artifacts, metrics, walls):
    params, scaler = _load_model(config)
    t0 = time.perf_counter()
    run, scaled, eval_ds = _drift_data(config, scaler)
    walls["drift_data"] = time.perf_counter() - t0
    checkpoints, stats, walls["adapt"], ad = _adapt_row(
        config, params, scaler, scaled, eval_ds, config.mhe.mu, config.mhe.N)
    un = training.evaluate_mse(config.model, params, eval_ds.test,
                               config.train.washout, scaler)
    adapted = checkpoints[-1].solution
    plant.save_sequence_csv(out / "drift_run.csv", run)
    mhe.save_checkpoints(out / "checkpoints.jsonl", checkpoints)
    with open(out / "adapted_params.json", "w") as fh:
        fh.write(adapted.to_json())
    with open(out / "unadapted_params.json", "w") as fh:
        fh.write(params.to_json())
    with open(out / "scaler.json", "w") as fh:
        fh.write(scaler.to_json())
    header = ("model",) + plant.STATE_COLUMNS + ("average",)
    _write_csv(out / "adapt_eval.csv", header,
               [_mse_row("unadapted", un), _mse_row("adapted", ad)])
    for name in ("drift_run.csv", "checkpoints.jsonl", "adapted_params.json",
                 "unadapted_params.json", "scaler.json", "adapt_eval.csv"):
        _record_artifact(artifacts, out, out / name)
    metrics.update({
        "mu": config.mhe.mu, "N": config.mhe.N,
        "n_updates": len(checkpoints),
        "peak_buffered": stats["peak_buffered"],
        "unadapted_mse": un.average, "adapted_mse": ad.average,
        "channel_unadapted": [float(v) for v in un.channel_mse],
        "channel_adapted": [float(v) for v in ad.channel_mse],
        "mse_reduction": 1.0 - ad.average / un.average,
    })
    emit_plotdata(out, "fig5", config)
    for fig in ("fig6", "fig7"):
        emit_plotdata(out, fig, config, params=params, scaler=scaler,
                      ds=eval_ds, adapted=adapted)
    for name in ("fig5.csv", "fig6.csv", "fig7.csv"):
        _record_artifact(artifacts, out, out / name)


def _run_sweep(config, out, artifacts, metrics, walls):
    params, scaler = _load_model(config)
    t0 = time.perf_counter()
    _, scaled, eval_ds = _drift_data(config, scaler)
    walls["drift_data"] = time.perf_counter() - t0
    row = partial(_adapt_row, config, params, scaler, scaled, eval_ds)
    mus, Ns = zip(*config.sweep_grid)
    t0 = time.perf_counter()
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            results = list(pool.map(row, mus, Ns))
    else:
        results = list(map(row, mus, Ns))
    walls["sweep"] = time.perf_counter() - t0
    walls["sweep_rows"] = [wall for _, _, wall, _ in results]
    rows, table = [], []
    for mu, N, (_, _, _, rep) in zip(mus, Ns, results):
        channel = [float(v) for v in rep.channel_mse]
        rows.append({"mu": mu, "N": N, "channel_mse": channel, "average": rep.average})
        table.append([mu, N] + channel + [rep.average])
    header = ("mu", "N") + plant.STATE_COLUMNS + ("average",)
    _write_csv(out / "sweep.csv", header, table)
    _record_artifact(artifacts, out, out / "sweep.csv")
    best = min(rows, key=lambda r: r["average"])
    metrics.update({"rows": rows, "best_mu": best["mu"], "best_N": best["N"],
                    "best_average": best["average"]})


def _run_converge(config, out, artifacts, metrics, walls):
    spec = config.model
    cc = config.converge
    theta_o = models.init_params(spec, config.seed_twin, "uniform")
    rng = np.random.default_rng(config.seed_twin + 1)
    N, washout = cc.horizon, cc.washout
    # first update at k = washout + N, then every N steps: exactly n_updates
    T = washout + cc.n_updates * N + 1
    n_levels = -(-T // cc.hold_steps)
    u = rng.normal(size=(n_levels, spec.n_u)).repeat(cc.hold_steps, axis=0)[:T]
    y, xs = models.simulate(spec, theta_o, models.zero_state(spec), u)
    seq = plant.Sequence(u=u, y=y, tau=config.dataset.tau)

    mask = models.trainable_mask(spec)
    d = np.random.default_rng(config.seed_twin + 2).normal(size=int(mask.sum()))
    d *= np.sqrt(cc.eps0) / np.linalg.norm(d)
    vals = theta_o.values.copy()
    vals[mask] += d
    prior = theta_o.replace_values(vals)
    eps0 = convergence.epsilon(theta_o, prior)

    # the update schedule is fixed by the stream, so the windows the run
    # will solve on are known in advance; estimate delta over exactly those
    windows = [mhe.HorizonWindow(inputs=u[k - N:k + 1], outputs=y[k - N:k + 1],
                                 x_init=xs[k - N], k=k)
               for k in range(washout + N, T, N)]
    t0 = time.perf_counter()
    sampler = convergence.DeltaSamplerConfig(
        n_samples=cc.delta_samples, radius=2.0 * np.sqrt(eps0),
        seed=config.seed_twin + 3, probe_smallest=cc.probe_smallest)
    estimate = convergence.estimate_delta(spec, theta_o, windows, sampler)
    walls["estimate_delta"] = time.perf_counter() - t0
    mu = 0.5 * (2.0 / 3.0) * estimate.delta_hat
    rho_c, satisfied = convergence.contraction_coefficient(mu, estimate.delta_hat)

    cfg = replace(config.mhe, N=N, mu=mu, washout=washout, observer="oracle",
                  solver="lm", max_iter=cc.max_iter, gtol=1e-14, ftol=3e-16)
    t1 = time.perf_counter()
    checkpoints, _ = mhe.run_adaptation(spec, prior, mhe.sequence_stream(seq, xs), cfg)
    walls["adapt"] = time.perf_counter() - t1
    report = convergence.track_error(checkpoints, prior, theta_o,
                                     estimate.delta_hat, mu)

    _write_csv(out / "convergence.csv",
               ("k", "epsilon", "ratio", "rho_c", "violated"),
               [[r["k"], r["epsilon"], r["ratio"], r["rho_c"], r["violated"]]
                for r in report.to_rows()])
    with open(out / "convergence.json", "w") as fh:
        json.dump({"delta_hat": estimate.delta_hat, "mu": mu, "rho_c": rho_c,
                   "contraction_satisfied": satisfied, "eps0": eps0,
                   "final_epsilon": report.epsilons[-1],
                   "n_updates": len(checkpoints),
                   "violations": report.violations,
                   "delta_samples": estimate.n_samples}, fh, indent=1)
    for name in ("convergence.csv", "convergence.json"):
        _record_artifact(artifacts, out, out / name)
    metrics.update({"delta_hat": estimate.delta_hat, "mu": mu, "rho_c": rho_c,
                    "eps0": eps0, "final_epsilon": report.epsilons[-1],
                    "violations": report.violations,
                    "epsilon_reduction": report.epsilons[-1] / eps0})


_RUNNERS = {"simulate": _run_simulate, "train": _run_train,
            "drift-eval": _run_drift_eval, "adapt": _run_adapt,
            "sweep": _run_sweep, "converge": _run_converge}


def run(config: ExperimentConfig, out_dir=None) -> RunManifest:
    """Execute the tagged experiment end-to-end and write its manifest.

    A failure mid-run still leaves a manifest on disk, marked failed, so
    partial artifacts are identifiable.
    """
    out = pathlib.Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "config.json", "w") as fh:
        json.dump(config.to_dict(), fh, indent=1)
    # config.json is written for humans and re-runs; its identity is the
    # config hash, so it is not an artifact (it embeds the output path)
    artifacts, metrics, walls = {}, {}, {}
    t0 = time.perf_counter()
    manifest = RunManifest(tag=config.tag, config_hash=config.config_hash(),
                           config=config.to_dict(), artifacts=artifacts,
                           metrics=metrics, wall_times=walls)
    try:
        _RUNNERS[config.tag](config, out, artifacts, metrics, walls)
    except Exception:
        manifest.status = "failed"
        walls["total"] = time.perf_counter() - t0
        manifest.save(out / "manifest.json")
        raise
    walls["total"] = time.perf_counter() - t0
    manifest.save(out / "manifest.json")
    return manifest


def _open_loop_prediction(config, params, scaler, sequence):
    """Raw-unit open-loop prediction of a model over one sequence."""
    u = scaler.scale_u(sequence.u)
    pred, _ = models.simulate(config.model, params,
                              models.zero_state(config.model), u)
    return scaler.unscale_y(pred)


def emit_plotdata(out_dir, figure_tag, config, params=None, scaler=None,
                  ds=None, adapted=None):
    """Figure-data CSVs: time series for ground truth and model predictions.

    fig3/fig4: open-loop prediction of xA2/xB2 by ``params`` vs truth on
    the first test sequence of the training dataset ``ds``.  fig5: the
    drifting kA trace (needs only ``config``).  fig6/fig7: truth vs the
    unadapted ``params`` vs the ``adapted`` prediction of xA2/xB2 on the
    first sequence of the drifted evaluation set ``ds``.
    """
    out = pathlib.Path(out_dir)
    if figure_tag not in FIGURE_TAGS:
        raise ValueError(f"unknown figure tag {figure_tag!r}")
    if figure_tag == "fig5":
        ts = np.arange(0.0, config.adapt_time, config.dataset.tau)
        kas = plant.drift_value(config.drift, ts)
        _write_csv(out / "fig5.csv", ("t", "kA"),
                   [[float(t), float(v)] for t, v in zip(ts, kas)])
        return out / "fig5.csv"

    seq = ds.test[0]
    pred = _open_loop_prediction(config, params, scaler, seq)
    if figure_tag in ("fig3", "fig4"):
        channel = 1 if figure_tag == "fig3" else 2   # xA2 / xB2
        _write_csv(out / f"{figure_tag}.csv", ("t", "truth", "prediction"),
                   [[float(t), float(a), float(b)] for t, a, b in
                    zip(seq.t, seq.y[:, channel], pred[:, channel])])
        return out / f"{figure_tag}.csv"

    channel = 1 if figure_tag == "fig6" else 2
    pred_ad = _open_loop_prediction(config, adapted, scaler, seq)
    _write_csv(out / f"{figure_tag}.csv",
               ("t", "truth", "unadapted", "adapted"),
               [[float(t), float(a), float(b), float(c)] for t, a, b, c in
                zip(seq.t, seq.y[:, channel], pred[:, channel],
                    pred_ad[:, channel])])
    return out / f"{figure_tag}.csv"
