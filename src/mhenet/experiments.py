"""Config-driven experiment harness.

Each experiment is fully determined by an ExperimentConfig, the code
version and, for the stages that read a trained model, that model: the
dataclass is serialized next to every artifact set and hashed without
its placement (output and model directories) into the run manifest,
which records the sha256 of a model read from ``model_dir``.
Re-running the same config, seed and model reproduces the same summary
(wall times excluded).  Every file a stage writes, apart from
config.json and manifest.json, is recorded as an artifact by the call
that writes it.

Experiment tags
  simulate    collect an excitation dataset from the plant and save it
  train       offline identification of the nominal network
  drift-eval  before/after-drift open-loop MSE of the unadapted model
  adapt       moving-horizon weight adaptation along one drift run
  sweep       the (mu, N) grid of adaptation runs, one by one, a row each
  converge    matched-twin contraction study with delta estimation

All tabular outputs are CSV with a header row; figure data is emitted
as plain CSV series so any plotting tool can consume it.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import pathlib
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import convergence, mhe, models, plant, training
from .convergence import ConvergeConfig
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
class ExperimentConfig:
    """Everything a run depends on, serializable to/from JSON.

    Seeds for the individual stages are derived deterministically from
    the single base seed; the drifted evaluation set uses its own
    derived seed, disjoint from the train/test data.  Every stage
    integrates ``plant``; ``drift`` ramps its kA from ``plant.kA`` to
    ``drift.end_value``, the kA of the drifted evaluation set.  A field
    that no stage reads, or that one overrides, has one legal value.
    """

    tag: str
    seed: int = 0
    out_dir: str = "runs"
    plant: PlantParams = field(default_factory=PlantParams)
    drift: DriftSchedule = field(default_factory=DriftSchedule)
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: ModelSpec = field(default_factory=lambda: ModelSpec("lstm", 6, 10, 4))
    train: TrainConfig = field(default_factory=TrainConfig)
    mhe: MheConfig = field(default_factory=MheConfig)
    converge: ConvergeConfig = field(default_factory=ConvergeConfig)
    sweep_grid: tuple = DEFAULT_SWEEP_GRID
    n_eval_sequences: int = 35
    adapt_time: float = 300.0     # drift-run length [s]
    model_dir: str | None = None  # train-run directory with params/scaler

    def __post_init__(self):
        plant.check_fields(self, ints=(("seed", 0), ("n_eval_sequences", 1)),
                           positive=("adapt_time",), choices=(("tag", TAGS),), error=ConfigError)
        if self.adapt_time <= self.drift.t_start:
            raise ConfigError("adapt_time must extend past the drift onset")
        for name, legal in (("out_dir", str), ("model_dir", (str, type(None)))):
            if not isinstance(value := getattr(self, name), legal):
                raise ConfigError(f"{name}: expected a path string, got {value!r}")
        if self.train.seed != 0:
            raise ConfigError(f"train: seed: must be 0 (the train stage seeds from "
                              f"seed_train), got {self.train.seed!r}")
        # every row must make an MheConfig, and is kept as (float mu, N) so
        # that a config built with an integer mu hashes as its JSON round trip
        try:
            rows = self.sweep_rows
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"sweep_grid: {exc}") from exc
        if not rows:
            raise ConfigError("sweep_grid: needs at least one [mu, N] row")
        object.__setattr__(self, "sweep_grid", tuple((float(r.mu), r.N) for r in rows))

    @property
    def sweep_rows(self):
        """The MheConfig of each sweep row: ``mhe`` with the row's mu and N."""
        return tuple(replace(self.mhe, mu=mu, N=N) for mu, N in self.sweep_grid)

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
        ``out_dir`` is left out, and ``model_dir`` hashes as unset; a run
        that reads a model records its sha256 in the metrics."""
        d = dict(self.to_dict(), model_dir=None)
        d.pop("out_dir")
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
    """Write a CSV (``plant.write_csv``) and record it as an artifact."""
    plant.write_csv(out / name, header, rows)
    _record_artifact(artifacts, out, name)


def _load_model(config: ExperimentConfig, metrics):
    """(params, scaler) from the train-run directory named by the config;
    the sha256 of each file read goes to ``metrics["model_sha256"]``, the
    model's identity wherever the directory is.  A file that is missing,
    unparsable, refused or unfit for ``config.model`` is a ConfigError."""
    if config.model_dir is None:
        raise ConfigError("model_dir: required for this experiment tag")
    d = pathlib.Path(config.model_dir)
    try:
        raw = {name: (d / name).read_bytes() for name in ("params.json", "scaler.json")}
        params = ParamVector.from_json(raw["params.json"].decode())
        scaler = training.Scaler.from_json(raw["scaler.json"].decode())
    except (OSError, ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"model_dir: cannot load trained model: "
                          f"{type(exc).__name__}: {exc}") from exc
    if params.spec != config.model:
        raise ConfigError("model_dir: trained spec does not match config.model")
    for name in ("u_shift", "u_scale", "y_shift", "y_scale"):
        n = config.model.n_u if name[0] == "u" else config.model.n_y
        if (shape := np.shape(getattr(scaler, name))) != (n,):
            raise ConfigError(f"model_dir: scaler.json: {name} has shape {shape}, not ({n},)")
    metrics["model_sha256"] = {name: hashlib.sha256(b).hexdigest() for name, b in raw.items()}
    return params, scaler


def _eval_dataset(config: ExperimentConfig) -> plant.Dataset:
    """Dedicated post-drift evaluation set (drifted kA, its own seed)."""
    eval_cfg = replace(config.dataset, n_sequences=config.n_eval_sequences,
                       n_train=0, n_test=config.n_eval_sequences)
    return plant.collect_dataset(eval_cfg, seed=config.seed_eval,
                                 params=replace(config.plant, kA=config.drift.end_value))


# the drifted evaluation set's test sequences, by config hash; at most one
# entry, held by the process that scores on the set
_EVAL_SETS = {}


def _eval_scores(config: ExperimentConfig, scaler, params_list):
    """(seconds the set's build took, one EvalReport per weight vector of
    ``params_list``, the set's first test sequence) on the drifted
    evaluation set; top-level, so that a worker process can run it.  The
    set is built on the first call and kept in this process, so that every
    later request with the same config reuses it: a stage's worker builds
    it once, and only reports and one sequence leave the worker."""
    key = config.config_hash()
    t0 = time.perf_counter()
    if key not in _EVAL_SETS:
        _EVAL_SETS.clear()
        _EVAL_SETS[key] = _eval_dataset(config).test
    build_s = time.perf_counter() - t0
    test = _EVAL_SETS[key]
    return build_s, [_score(config, p, scaler, test) for p in params_list], test[0]


@contextlib.contextmanager
def _process_pool():
    """A one-worker process pool whose worker starts from a fresh
    interpreter, so it inherits no thread or lock of this one.  The worker
    imports the caller's main module, so a script that runs these stages
    guards its entry point with ``if __name__ == "__main__":``.  The pool
    is imported here, so that only the stages that read a trained model
    load it: each scores on the drifted evaluation set in this worker.
    Leaving the block cancels the score requests still queued, which only
    an error leaves, and waits for the one that has started."""
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context
    pool = ProcessPoolExecutor(1, mp_context=get_context("spawn"))
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


def _fail_early(future):
    """A check that raises the exception of ``future``, a stage's first
    ``_eval_scores`` request, once it has failed: called between updates,
    it stops a stage whose evaluation-set build failed there, not when
    the reports are collected after the last update."""
    def check(*_):
        if future.done():
            future.result()
    return check


def _reports(requests, walls):
    """(the EvalReports of the ``_eval_scores`` futures ``requests``, in
    order, the set's first test sequence).  The first request's build time
    goes to ``walls["eval_set"]``, and the time this process blocked on
    the reports to ``walls["eval_set_wait"]``."""
    t0 = time.perf_counter()
    results = [r.result() for r in requests]
    walls["eval_set_wait"] = time.perf_counter() - t0
    walls["eval_set"], _, first_test = results[0]
    return [rep for _, reps, _ in results for rep in reps], first_test


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
    emit_plotdata(out, config, artifacts, params, scaler, ds.test[0])


def _run_drift_eval(config, out, artifacts, metrics, walls):
    params, scaler = _load_model(config, metrics)
    with _process_pool() as pool:
        request = pool.submit(_eval_scores, config, scaler, [params])
        t0 = time.perf_counter()
        ds = plant.collect_dataset(config.dataset, seed=config.seed_dataset,
                                   params=config.plant)
        pre = _score(config, params, scaler, ds.test)
        (post,), _ = _reports([request], walls)
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
    here: each stage's first ``_eval_scores`` request builds it in a
    worker process before this call, and the set stays there."""
    t0 = time.perf_counter()
    run = plant.drift_run(config.adapt_time, config.drift,
                          config.dataset.excitation, seed=config.seed_drift,
                          params=config.plant, substeps=config.dataset.substeps)
    scaled = plant.Sequence(u=scaler.scale_u(run.u), y=scaler.scale_y(run.y),
                            tau=run.tau)
    walls["drift_run"] = time.perf_counter() - t0
    return run, scaled


def _adapt(config, params, scaled, cfg, on_checkpoint=None):
    """(checkpoints, run_stats, wall time) of one adaptation by MheConfig ``cfg``."""
    t0 = time.perf_counter()
    checkpoints, stats = mhe.run_adaptation(config.model, params,
                                            mhe.sequence_stream(scaled), cfg,
                                            on_checkpoint)
    wall = time.perf_counter() - t0
    if not checkpoints:
        raise RuntimeError(f"adaptation (mu={cfg.mu}, N={cfg.N}) produced no checkpoints")
    return checkpoints, stats, wall


def _run_adapt(config, out, artifacts, metrics, walls):
    params, scaler = _load_model(config, metrics)
    with _process_pool() as pool:
        unadapted = pool.submit(_eval_scores, config, scaler, [params])   # the first task
        run, scaled = _drift_data(config, scaler, walls)
        checkpoints, stats, walls["adapt"] = _adapt(config, params, scaled, config.mhe,
                                                    _fail_early(unadapted))
        adapted = checkpoints[-1].solution
        requests = [unadapted, pool.submit(_eval_scores, config, scaler, [adapted])]
        # the artifacts that need no score are written while the worker scores
        plant.save_sequence_csv(out / "drift_run.csv", run)
        _record_artifact(artifacts, out, "drift_run.csv")
        mhe.save_checkpoints(out / "checkpoints.jsonl", checkpoints)
        _record_artifact(artifacts, out, "checkpoints.jsonl")
        _save(artifacts, out, "adapted_params.json", adapted.to_json())
        _save(artifacts, out, "unadapted_params.json", params.to_json())
        _save(artifacts, out, "scaler.json", scaler.to_json())
        (un, ad), first_test = _reports(requests, walls)
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
    emit_plotdata(out, config, artifacts, params, scaler, first_test, adapted, run.t)


def _run_sweep(config, out, artifacts, metrics, walls):
    params, scaler = _load_model(config, metrics)
    grid = config.sweep_rows
    with _process_pool() as pool:
        build = pool.submit(_eval_scores, config, scaler, [])   # the first task
        _, scaled = _drift_data(config, scaler, walls)
        check, requests, row_walls = _fail_early(build), [build], []
        t0 = time.perf_counter()
        for cfg in grid:   # the rows run here, beside the set's build
            checkpoints, _, wall = _adapt(config, params, scaled, cfg, check)
            requests.append(pool.submit(_eval_scores, config, scaler,
                                        [checkpoints[-1].solution]))
            row_walls.append(wall)
            del checkpoints   # not held through the next row's run
        walls["sweep"] = time.perf_counter() - t0
        reports, _ = _reports(requests, walls)
    walls["sweep_rows"] = row_walls
    table = [[cfg.mu] + _mse_row(cfg.N, rep) for cfg, rep in zip(grid, reports)]
    header = ("mu", "N") + plant.STATE_COLUMNS + ("average",)
    _write_csv(artifacts, out, "sweep.csv", header, table)
    rows = [{"mu": mu, "N": N, "channel_mse": channel, "average": average}
            for mu, N, *channel, average in table]
    best = min(rows, key=lambda r: r["average"])
    metrics.update({"rows": rows, "best_mu": best["mu"], "best_N": best["N"],
                    "best_average": best["average"]})


def _run_converge(config, out, artifacts, metrics, walls):
    """Run ``convergence.twin_study`` on a twin of ``config.model`` from
    ``config.seed_twin`` and write its update rows and its summary."""
    result, report = convergence.twin_study(config.model, config.converge,
                                            config.seed_twin, walls)
    header = ("k", "epsilon", "ratio", "rho_c", "violated")
    _write_csv(artifacts, out, "convergence.csv", header,
               [[r[h] for h in header] for r in report.to_rows()])
    _save(artifacts, out, "convergence.json", json.dumps(result, indent=1))
    metrics.update({k: result[k] for k in ("delta_hat", "mu", "rho_c", "eps0",
                                           "final_epsilon", "violations")},
                   epsilon_reduction=result["final_epsilon"] / result["eps0"])


_RUNNERS = {"simulate": _run_simulate, "train": _run_train,
            "drift-eval": _run_drift_eval, "adapt": _run_adapt,
            "sweep": _run_sweep, "converge": _run_converge}


def run(config: ExperimentConfig) -> RunManifest:
    """Execute the tagged experiment end-to-end in ``config.out_dir`` and
    write its manifest there.

    A failure mid-run still leaves a manifest on disk, marked failed, so
    partial artifacts are identifiable.
    """
    out = pathlib.Path(config.out_dir)
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


def emit_plotdata(out_dir, config, artifacts, params, scaler, seq, adapted=None,
                  drift_t=None):
    """Write and record a stage's figure-data CSVs from one open-loop
    rollout per model, in this process, on the test sequence ``seq``.

    Without ``adapted`` (train): fig3/fig4, truth vs the prediction of
    ``params`` for xA2/xB2 on the training dataset's first test sequence.
    With ``adapted`` (adapt): fig5, the drifting kA at the drift run's
    sample times ``drift_t``, then fig6/fig7, truth vs the unadapted
    ``params`` vs the ``adapted`` prediction of xA2/xB2 on the first test
    sequence of the drifted evaluation set, the one sequence of the set
    that the scoring worker returns.
    """
    out = pathlib.Path(out_dir)
    u, x0 = scaler.scale_u(seq.u), models.zero_state(config.model)
    preds = [scaler.unscale_y(models.simulate(config.model, p, x0, u)[0])
             for p in (params, adapted) if p is not None]
    if adapted is None:
        names, header = ("fig3.csv", "fig4.csv"), ("t", "truth", "prediction")
    else:
        _write_csv(artifacts, out, "fig5.csv", ("t", "kA"),
                   zip(drift_t, plant.drift_value(config.drift, config.plant.kA, drift_t)))
        names, header = ("fig6.csv", "fig7.csv"), ("t", "truth", "unadapted", "adapted")
    for name, channel in zip(names, (1, 2)):   # xA2 / xB2
        _write_csv(artifacts, out, name, header,
                   zip(seq.t, seq.y[:, channel], *(p[:, channel] for p in preds)))
