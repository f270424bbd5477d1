"""Config-driven experiment harness.

Each experiment is fully determined by an ExperimentConfig, the code
version and, for the stages that read a trained model, that model: the
dataclass is serialized next to every artifact set and hashed without
its placement (output and model directories, worker count) into the run
manifest, which records the sha256 of a model read from ``model_dir``.
Re-running the same config, seed and model reproduces the same summary
(wall times excluded).  Every file a stage writes, apart from
config.json and manifest.json, is recorded as an artifact by the call
that writes it.

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

import contextlib
import csv
import hashlib
import json
import pathlib
import time
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

# the ExperimentConfig fields that the train stage reads
TRAIN_FIELDS = ("seed", "plant", "dataset", "model", "train")


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the field."""


def _digest(d: dict) -> str:
    return hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()


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
        plant.check_fields(self, ints=(("horizon", 1), ("washout", 0), ("n_updates", 1),
                                       ("hold_steps", 1), ("delta_samples", 0),
                                       ("probe_smallest", 0), ("max_iter", 1)),
                           error=ConfigError)
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
    derived seed, disjoint from the train/test data.  Every stage
    integrates ``plant``; ``drift`` ramps its kA from ``plant.kA`` to
    ``drift.end_value``, the kA of the drifted evaluation set.
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
        plant.check_fields(self, ints=(("seed", 0), ("jobs", 1), ("n_eval_sequences", 1)),
                           positive=("adapt_time",), error=ConfigError)
        if self.adapt_time <= self.drift.t_start:
            raise ConfigError("adapt_time must extend past the drift onset")
        # one nominal kA: the drift ramp and a dataset override start from the plant's
        if self.drift.start_value != self.plant.kA:
            raise ConfigError(f"drift: start_value {self.drift.start_value} differs "
                              f"from plant.kA {self.plant.kA}; both are absolute kA values")
        if self.dataset.kA is not None and self.dataset.kA != self.plant.kA:
            raise ConfigError(f"dataset: kA {self.dataset.kA} differs from plant.kA "
                              f"{self.plant.kA}; set the nominal kA in plant")
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
        """Hash of everything that determines results, not of placement:
        ``out_dir`` and ``jobs`` are left out, and ``model_dir`` hashes as
        unset; a run that reads a model records its sha256 in the metrics."""
        d = dict(self.to_dict(), model_dir=None)
        d.pop("out_dir")
        d.pop("jobs")
        return _digest(d)

    def train_key(self) -> str:
        """Hash of the fields the train stage reads: the trained model is a
        function of these alone, so a cache of it is keyed on them."""
        d = self.to_dict()
        return _digest({name: d[name] for name in TRAIN_FIELDS})


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
            json.dump(asdict(self), fh, indent=1)

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


def _record_artifact(artifacts, out, name):
    """Record the file ``out / name`` as an artifact, keyed by its base name."""
    path = out / name
    artifacts[path.name] = {"path": str(path.relative_to(out)),
                            "sha256": plant.file_sha256(path),
                            "bytes": path.stat().st_size}


def _save(artifacts, out, name, text):
    """Write ``text`` to ``out / name`` and record the file as an artifact."""
    with open(out / name, "w") as fh:
        fh.write(text)
    _record_artifact(artifacts, out, name)


def _write_csv(artifacts, out, name, header, rows):
    """Write a CSV (floats at full precision) and record it as an artifact."""
    with open(out / name, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v
                             for v in row])
    _record_artifact(artifacts, out, name)


def _load_model(config: ExperimentConfig, metrics):
    """(params, scaler) from the train-run directory named by the config;
    the sha256 of each file read goes to ``metrics["model_sha256"]``, the
    model's identity wherever the directory is."""
    if config.model_dir is None:
        raise ConfigError("model_dir: required for this experiment tag")
    d = pathlib.Path(config.model_dir)
    try:
        raw = {name: (d / name).read_bytes() for name in ("params.json", "scaler.json")}
    except OSError as exc:
        raise ConfigError(f"model_dir: cannot load trained model: {exc}") from exc
    params = ParamVector.from_json(raw["params.json"].decode())
    if params.spec != config.model:
        raise ConfigError("model_dir: trained spec does not match config.model")
    metrics["model_sha256"] = {name: hashlib.sha256(b).hexdigest() for name, b in raw.items()}
    return params, training.Scaler.from_json(raw["scaler.json"].decode())


def _eval_dataset(config: ExperimentConfig) -> plant.Dataset:
    """Dedicated post-drift evaluation set (drifted kA, its own seed)."""
    eval_cfg = replace(config.dataset, n_sequences=config.n_eval_sequences,
                       n_train=0, n_test=config.n_eval_sequences, kA=None)
    return plant.collect_dataset(eval_cfg, seed=config.seed_eval,
                                 params=replace(config.plant, kA=config.drift.end_value))


def _timed_eval_dataset(config: ExperimentConfig):
    """(the drifted evaluation set, seconds its build took); top-level so
    that a worker process can build it."""
    t0 = time.perf_counter()
    ds = _eval_dataset(config)
    return ds, time.perf_counter() - t0


@contextlib.contextmanager
def _process_pool(max_workers=1):
    """A process pool whose workers start from a fresh interpreter, so
    they inherit no thread or lock of this one.  Each worker imports the
    caller's main module, so a script that runs these stages guards its
    entry point with ``if __name__ == "__main__":``.  The pool is
    imported here, so that only the stages that build the drifted
    evaluation set load it.  Leaving the block cancels the tasks still
    queued, which only an error leaves, and waits for those that have
    started: a failed sweep stops within the rows already handed out."""
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context
    pool = ProcessPoolExecutor(max_workers, mp_context=get_context("spawn"))
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


def _fail_early(future):
    """A check that raises the exception of ``future`` once it has failed:
    called between updates, or before a sweep hands the pool its next
    row, it stops a stage whose evaluation-set build failed there, not at
    the join after the last update."""
    def check(*_):
        if future.done():
            future.result()
    return check


def _join_eval_set(eval_set, walls):
    """The drifted evaluation set from the future ``eval_set``.  The
    worker's build time goes to ``walls["eval_set"]``, and the time this
    process blocked on it to ``walls["eval_set_wait"]``."""
    t0 = time.perf_counter()
    ds, walls["eval_set"] = eval_set.result()
    walls["eval_set_wait"] = time.perf_counter() - t0
    return ds


def _score(config, params, scaler, sequences):
    return training.evaluate_mse(config.model, params, sequences, config.train.washout, scaler)


def _mse_row(label, report):
    return [label] + [float(v) for v in report.channel_mse] + [report.average]


# ---------------------------------------------------------------------------
# experiment implementations

def _run_simulate(config, out, artifacts, metrics, walls):
    t0 = time.perf_counter()
    ds = plant.collect_dataset(config.dataset, seed=config.seed_dataset,
                               params=config.plant)
    walls["collect"] = time.perf_counter() - t0
    manifest = plant.save_dataset(out / "dataset", ds)
    for name in manifest["files"] + ["dataset.json"]:
        _record_artifact(artifacts, out, f"dataset/{name}")
    Y = np.concatenate([s.y for s in ds.sequences])
    metrics.update({
        "n_sequences": len(ds.sequences),
        "seq_len": config.dataset.seq_len,
        "output_mean": [float(v) for v in Y.mean(axis=0)],
        "output_std": [float(v) for v in Y.std(axis=0)],
    })


def _run_train(config, out, artifacts, metrics, walls):
    t0 = time.perf_counter()
    ds = plant.collect_dataset(config.dataset, seed=config.seed_dataset,
                               params=config.plant)
    walls["collect"] = time.perf_counter() - t0
    scaler = training.fit_scaler(ds.train)
    cfg = replace(config.train, seed=config.seed_train)
    t1 = time.perf_counter()
    params, history = training.train_offline(config.model, ds, cfg, scaler=scaler)
    walls["train"] = time.perf_counter() - t1
    _save(artifacts, out, "params.json", params.to_json())
    _save(artifacts, out, "scaler.json", scaler.to_json())
    _write_csv(artifacts, out, "history.csv", ("epoch", "train_mse"),
               [(int(e), float(tr)) for e, tr in history])
    train_rep, test_rep = (_score(config, params, scaler, s) for s in (ds.train, ds.test))
    metrics.update({"epochs_run": len(history),
                    "train_mse": train_rep.average,
                    "test_mse": test_rep.average,
                    "channel_test_mse": [float(v) for v in test_rep.channel_mse]})
    emit_plotdata(out, config, artifacts, params, scaler, ds)


def _run_drift_eval(config, out, artifacts, metrics, walls):
    params, scaler = _load_model(config, metrics)
    with _process_pool() as pool:
        post_set = pool.submit(_timed_eval_dataset, config)
        t0 = time.perf_counter()
        ds = plant.collect_dataset(config.dataset, seed=config.seed_dataset,
                                   params=config.plant)
        pre = _score(config, params, scaler, ds.test)
        post_ds = _join_eval_set(post_set, walls)
    post = _score(config, params, scaler, post_ds.test)
    walls["evaluate"] = time.perf_counter() - t0
    header = ("phase",) + plant.STATE_COLUMNS + ("average",)
    _write_csv(artifacts, out, "drift_eval.csv", header,
               [_mse_row("before_drift", pre), _mse_row("after_drift", post)])
    ratios = post.channel_mse / pre.channel_mse
    metrics.update({"pre_drift_mse": pre.average, "post_drift_mse": post.average,
                    "channel_pre": [float(v) for v in pre.channel_mse],
                    "channel_post": [float(v) for v in post.channel_mse],
                    "channel_ratio": [float(v) for v in ratios],
                    "average_ratio": post.average / pre.average})


def _drift_data(config, scaler, walls):
    """The drift run and its scaled copy; they depend on the seeds only,
    so every (mu, N) row shares them.  The run's time goes to
    ``walls["drift_run"]``.  The drifted evaluation set is not built
    here: each stage starts it in a worker process before this call and
    joins it only when it first evaluates on it."""
    t0 = time.perf_counter()
    run = plant.drift_run(config.adapt_time, config.drift,
                          config.dataset.excitation, seed=config.seed_drift,
                          params=config.plant, substeps=config.dataset.substeps)
    scaled = plant.Sequence(u=scaler.scale_u(run.u), y=scaler.scale_y(run.y),
                            tau=run.tau)
    walls["drift_run"] = time.perf_counter() - t0
    return run, scaled


def _adapt(config, params, scaled, mu, N, on_checkpoint=None):
    """(checkpoints, run_stats, wall time) of one (mu, N) adaptation; top-level for a pool."""
    cfg = replace(config.mhe, mu=mu, N=N)
    t0 = time.perf_counter()
    checkpoints, stats = mhe.run_adaptation(config.model, params,
                                            mhe.sequence_stream(scaled), cfg,
                                            on_checkpoint)
    wall = time.perf_counter() - t0
    if not checkpoints:
        raise RuntimeError(f"adaptation (mu={mu}, N={N}) produced no checkpoints")
    return checkpoints, stats, wall


def _run_adapt(config, out, artifacts, metrics, walls):
    params, scaler = _load_model(config, metrics)
    with _process_pool() as pool:
        eval_set = pool.submit(_timed_eval_dataset, config)
        run, scaled = _drift_data(config, scaler, walls)
        checkpoints, stats, walls["adapt"] = _adapt(
            config, params, scaled, config.mhe.mu, config.mhe.N, _fail_early(eval_set))
        eval_ds = _join_eval_set(eval_set, walls)
    adapted = checkpoints[-1].solution
    un, ad = (_score(config, p, scaler, eval_ds.test) for p in (params, adapted))
    plant.save_sequence_csv(out / "drift_run.csv", run)
    _record_artifact(artifacts, out, "drift_run.csv")
    mhe.save_checkpoints(out / "checkpoints.jsonl", checkpoints)
    _record_artifact(artifacts, out, "checkpoints.jsonl")
    _save(artifacts, out, "adapted_params.json", adapted.to_json())
    _save(artifacts, out, "unadapted_params.json", params.to_json())
    _save(artifacts, out, "scaler.json", scaler.to_json())
    header = ("model",) + plant.STATE_COLUMNS + ("average",)
    _write_csv(artifacts, out, "adapt_eval.csv", header,
               [_mse_row("unadapted", un), _mse_row("adapted", ad)])
    metrics.update({
        "mu": config.mhe.mu, "N": config.mhe.N,
        "n_updates": len(checkpoints),
        "peak_buffered": stats["peak_buffered"],
        "unadapted_mse": un.average, "adapted_mse": ad.average,
        "channel_unadapted": [float(v) for v in un.channel_mse],
        "channel_adapted": [float(v) for v in ad.channel_mse],
        "mse_reduction": 1.0 - ad.average / un.average,
    })
    emit_plotdata(out, config, artifacts, params, scaler, eval_ds, adapted)


def _run_sweep(config, out, artifacts, metrics, walls):
    params, scaler = _load_model(config, metrics)
    with _process_pool(config.jobs) as pool:
        eval_set = pool.submit(_timed_eval_dataset, config)  # the first task
        fail_early = _fail_early(eval_set)
        _, scaled = _drift_data(config, scaler, walls)
        row = partial(_adapt, config, params, scaled)

        def landed():   # each row's (checkpoints, stats, wall), in grid order
            queued = []
            for mu, N in config.sweep_grid:
                if config.jobs == 1:   # the row runs here, beside the set's build
                    yield row(mu, N, fail_early)
                    continue
                if len(queued) == config.jobs:   # the next row waits for the oldest
                    yield queued.pop(0).result()
                    fail_early()
                queued.append(pool.submit(row, mu, N))
            yield from (q.result() for q in queued)

        t0 = time.perf_counter()   # rows keep their last solution only, not every checkpoint
        results = [(checkpoints[-1].solution, wall) for checkpoints, _, wall in landed()]
        walls["sweep"] = time.perf_counter() - t0
        eval_ds = _join_eval_set(eval_set, walls)
    walls["sweep_rows"] = [wall for _, wall in results]
    rows, table = [], []
    for (mu, N), (solution, _) in zip(config.sweep_grid, results):
        rep = _score(config, solution, scaler, eval_ds.test)
        channel = [float(v) for v in rep.channel_mse]
        rows.append({"mu": mu, "N": N, "channel_mse": channel, "average": rep.average})
        table.append([mu, N] + channel + [rep.average])
    header = ("mu", "N") + plant.STATE_COLUMNS + ("average",)
    _write_csv(artifacts, out, "sweep.csv", header, table)
    best = min(rows, key=lambda r: r["average"])
    metrics.update({"rows": rows, "best_mu": best["mu"], "best_N": best["N"],
                    "best_average": best["average"]})


def _run_converge(config, out, artifacts, metrics, walls):
    spec = config.model
    cc = config.converge
    theta_o = models.init_params(spec, config.seed_twin, "uniform")
    rng = np.random.default_rng(config.seed_twin + 1)
    N = cc.horizon
    history = mhe.history_length(spec, cc.washout)
    # first update at k = history + N, then every N steps: exactly n_updates
    T = history + cc.n_updates * N + 1
    n_levels = -(-T // cc.hold_steps)
    u = rng.normal(size=(n_levels, spec.n_u)).repeat(cc.hold_steps, axis=0)[:T]
    y, xs = models.simulate(spec, theta_o, models.zero_state(spec), u)
    seq = plant.Sequence(u=u, y=y, tau=config.dataset.tau)

    n = models.param_count(spec)
    d = np.random.default_rng(config.seed_twin + 2).normal(size=n)
    d *= np.sqrt(cc.eps0) / np.linalg.norm(d)
    vals = theta_o.values.copy()
    vals[:n] += d
    prior = theta_o.replace_values(vals)
    eps0 = convergence.epsilon(theta_o, prior)

    # the update schedule is fixed by the stream, so the windows the run
    # will solve on are known in advance; estimate delta over exactly those
    windows = [mhe.HorizonWindow(inputs=u[k - N:k + 1], outputs=y[k - N:k + 1],
                                 x_init=xs[k - N], k=k)
               for k in range(history + N, T, N)]
    t0 = time.perf_counter()
    sampler = convergence.DeltaSamplerConfig(
        n_samples=cc.delta_samples, radius=2.0 * np.sqrt(eps0),
        seed=config.seed_twin + 3, probe_smallest=cc.probe_smallest)
    estimate = convergence.estimate_delta(spec, theta_o, windows, sampler)
    walls["estimate_delta"] = time.perf_counter() - t0
    mu = 0.5 * (2.0 / 3.0) * estimate.delta_hat
    rho_c, satisfied = convergence.contraction_coefficient(mu, estimate.delta_hat)

    cfg = mhe.MheConfig(N=N, mu=mu, max_iter=cc.max_iter, gtol=1e-14, ftol=3e-16,
                        washout=cc.washout, observer="oracle", solver="lm")
    t1 = time.perf_counter()
    checkpoints, _ = mhe.run_adaptation(spec, prior, mhe.sequence_stream(seq, xs), cfg)
    walls["adapt"] = time.perf_counter() - t1
    report = convergence.track_error(checkpoints, prior, theta_o,
                                     estimate.delta_hat, mu)

    _write_csv(artifacts, out, "convergence.csv",
               ("k", "epsilon", "ratio", "rho_c", "violated"),
               [[r["k"], r["epsilon"], r["ratio"], r["rho_c"], r["violated"]]
                for r in report.to_rows()])
    result = {"delta_hat": estimate.delta_hat, "mu": mu, "rho_c": rho_c,
              "contraction_satisfied": satisfied, "eps0": eps0,
              "final_epsilon": report.epsilons[-1], "n_updates": len(checkpoints),
              "violations": report.violations, "delta_samples": estimate.n_samples}
    _save(artifacts, out, "convergence.json", json.dumps(result, indent=1))
    metrics.update({k: result[k] for k in ("delta_hat", "mu", "rho_c", "eps0",
                                           "final_epsilon", "violations")},
                   epsilon_reduction=report.epsilons[-1] / eps0)


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
    except BaseException:
        manifest.status = "failed"
        raise
    finally:
        walls["total"] = time.perf_counter() - t0
        manifest.save(out / "manifest.json")
    return manifest


def _open_loop_prediction(config, params, scaler, sequence):
    """Raw-unit open-loop prediction of a model over one sequence."""
    u = scaler.scale_u(sequence.u)
    pred, _ = models.simulate(config.model, params,
                              models.zero_state(config.model), u)
    return scaler.unscale_y(pred)


def emit_plotdata(out_dir, config, artifacts, params, scaler, ds, adapted=None):
    """Write and record a stage's figure-data CSVs from one open-loop
    rollout per model on the first test sequence of ``ds``.

    Without ``adapted`` (train): fig3/fig4, truth vs the prediction of
    ``params`` for xA2/xB2 on the training dataset.  With ``adapted``
    (adapt): fig5, the drifting kA trace, then fig6/fig7, truth vs the
    unadapted ``params`` vs the ``adapted`` prediction of xA2/xB2 on the
    drifted evaluation set.
    """
    out = pathlib.Path(out_dir)
    seq = ds.test[0]
    preds = [_open_loop_prediction(config, p, scaler, seq)
             for p in (params, adapted) if p is not None]
    if adapted is None:
        names, header = ("fig3.csv", "fig4.csv"), ("t", "truth", "prediction")
    else:
        ts = np.arange(0.0, config.adapt_time, config.dataset.tau)
        _write_csv(artifacts, out, "fig5.csv", ("t", "kA"),
                   zip(ts, plant.drift_value(config.drift, ts)))
        names, header = ("fig6.csv", "fig7.csv"), ("t", "truth", "unadapted", "adapted")
    for name, channel in zip(names, (1, 2)):   # xA2 / xB2
        _write_csv(artifacts, out, name, header,
                   zip(seq.t, seq.y[:, channel], *(p[:, channel] for p in preds)))
