import copy
import dataclasses
import json
import multiprocessing
import pathlib
import shutil
import time

import numpy as np
import pytest

from mhenet import cli, experiments, mhe, models, plant, training
from mhenet.experiments import ConfigError, ExperimentConfig, RunManifest
from mhenet.models import ModelSpec

from conftest import run_python


def tiny_config(tag, out_dir, **overrides):
    """A miniature benchmark setup that runs in seconds."""
    base = dict(
        tag=tag,
        out_dir=str(out_dir),
        seed=3,
        drift=plant.DriftSchedule(t_start=4.0, t_end=8.0),
        dataset=plant.DatasetConfig(n_sequences=5, seq_len=120, n_train=3,
                                    n_test=2, substeps=4),
        model=ModelSpec("lstm", 6, 3, 4),
        train=training.TrainConfig(epochs=15, washout=20, patience=15),
        mhe=mhe.MheConfig(N=5, mu=0.1, washout=20, solver="lbfgs", max_iter=40),
        converge=experiments.ConvergeConfig(horizon=40, washout=10, n_updates=3,
                                            delta_samples=4, probe_smallest=1,
                                            max_iter=60),
        sweep_grid=((0.1, 5), (0.5, 5)),
        n_eval_sequences=2,
        adapt_time=20.0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# one non-default instance of every config dataclass
CONFIG_EXAMPLES = [
    plant.PlantParams(kA=0.326),
    plant.DriftSchedule(t_start=4.0, t_end=8.0),
    plant.default_excitation(q2_span=0.4),
    plant.DatasetConfig(n_sequences=5, seq_len=120, n_train=3, n_test=2, kA=0.3),
    ModelSpec("esn", 3, 5, 2, spectral_radius=0.8, leak_rate=0.5),
    training.TrainConfig(batch_size=8, init_scheme="zeros"),
    mhe.MheConfig(N=5, mu=0.2, solver="lbfgs", observer="oracle"),
    experiments.ConvergeConfig(horizon=40, eps0=0.5),
    tiny_config("sweep", "runs/x", model_dir="m"),
]


# out-of-range section values that must be refused when the config loads,
# not at run time
BAD_SECTION_VALUES = [
    ("converge", {"hold_steps": 0}), ("converge", {"washout": -1}),
    ("converge", {"delta_samples": -1}), ("converge", {"probe_smallest": -1}),
    ("converge", {"max_iter": 0}), ("converge", {"horizon": 2.5}),
    ("converge", {"delta_samples": 0, "probe_smallest": 0}),
    ("converge", {"eps0": float("inf")}),
    ("mhe", {"N": 2.5}), ("mhe", {"N": True}), ("mhe", {"washout": 1.5}),
    ("mhe", {"max_iter": 2.5}), ("mhe", {"max_iter": 0}), ("mhe", {"washout": -1}),
    ("mhe", {"mu": float("nan")}), ("mhe", {"mu": float("inf")}),
    ("dataset", {"n_sequences": 0, "n_train": 0, "n_test": 0}),
    ("dataset", {"seq_len": 0}), ("dataset", {"substeps": 0}),
    ("dataset", {"substeps": 1.5}), ("dataset", {"tau": 0.0}),
    ("dataset", {"n_train": -1}), ("dataset", {"n_test": -1}),
    ("model", {"kind": "gru", "n_u": 2.5, "n_h": 3, "n_y": 2}),
    ("model", {"kind": "lstm", "n_u": True, "n_h": 3, "n_y": 2}),
    ("model", {"kind": "nnarx", "n_u": 2, "n_h": 0, "n_y": 1, "order": 1.5, "mlp_width": 3}),
    ("model", {"kind": "esn", "n_u": 2, "n_h": 5, "n_y": 1, "leak_rate": float("nan")}),
    ("model", {"kind": "esn", "n_u": 2, "n_h": 5, "n_y": 1, "leak_rate": 0.0}),
    ("model", {"kind": "esn", "n_u": 2, "n_h": 5, "n_y": 1, "leak_rate": 3.0}),
    ("drift", {"start_value": 0.3}),  # differs from plant.kA
    ("dataset", {"kA": 0.3}),  # differs from plant.kA
]

# a changed value of every ExperimentConfig field outside the train key,
# except the tag, which picks the stage
OUTSIDE_TRAIN_KEY = dict(
    out_dir="elsewhere",
    drift=plant.DriftSchedule(end_value=0.3, t_start=2.0, t_end=6.0),
    mhe=mhe.MheConfig(N=7, mu=0.5, washout=10, solver="lm", max_iter=3),
    converge=experiments.ConvergeConfig(horizon=30, washout=5, n_updates=2,
                                        delta_samples=3, probe_smallest=0),
    sweep_grid=((0.2, 3),),
    n_eval_sequences=3,
    adapt_time=25.0,
    model_dir="somewhere",
    jobs=2,
)


@pytest.fixture(scope="module")
def train_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("train_run")
    config = tiny_config("train", out)
    manifest = experiments.run(config)
    return config, manifest, out


class TestConfig:
    def test_json_roundtrip(self, tmp_path):
        cfg = tiny_config("adapt", tmp_path, model_dir="somewhere")
        loaded = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert loaded == cfg
        assert loaded.config_hash() == cfg.config_hash()

    def test_hash_ignores_placement_but_not_substance(self, tmp_path):
        a = tiny_config("train", tmp_path / "a")
        b = tiny_config("train", tmp_path / "b")
        c = tiny_config("train", tmp_path / "a", seed=4)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()

    def test_unknown_tag_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="tag"):
            tiny_config("optimize", tmp_path)

    def test_bad_nested_field_named(self, tmp_path):
        d = tiny_config("train", tmp_path).to_dict()
        d["drift"]["t_start"] = 999.0
        with pytest.raises(ConfigError, match="drift"):
            ExperimentConfig.from_dict(d)

    def test_error_names_nested_path(self, tmp_path):
        d = tiny_config("train", tmp_path).to_dict()
        d["dataset"]["excitation"]["lo"] = [0.0]
        with pytest.raises(ConfigError, match="dataset: excitation: need bounds"):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize("config", CONFIG_EXAMPLES,
                             ids=lambda c: type(c).__name__)
    def test_every_config_roundtrips(self, config):
        text = json.dumps(dataclasses.asdict(config), indent=1)
        back = plant.config_from_dict(type(config), json.loads(text))
        assert back == config
        assert json.dumps(dataclasses.asdict(back), indent=1) == text

    def test_integer_mu_roundtrip_keeps_hash(self, tmp_path):
        cfg = tiny_config("sweep", tmp_path, sweep_grid=((1, 10),))
        loaded = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert loaded == cfg
        assert loaded.config_hash() == cfg.config_hash()

    @pytest.mark.parametrize("grid", [[[0.1]], [["a", 3]], 5, [], [[0.1, 0]],
                                      [[0.1, 10.7]], [[0.1, True]]],
                             ids=["short-row", "non-numeric", "not-a-list",
                                  "empty", "zero-horizon", "fractional-horizon",
                                  "boolean-horizon"])
    def test_bad_sweep_grid_is_config_error(self, tmp_path, capsys, grid):
        d = {"tag": "sweep", "sweep_grid": grid}
        with pytest.raises(ConfigError, match="sweep_grid"):
            ExperimentConfig.from_dict(d)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(d))
        assert cli.main(["sweep", "--config", str(p)]) == 1
        assert "config error: sweep_grid" in capsys.readouterr().err

    def test_converge_error_named_once(self, tmp_path):
        d = tiny_config("converge", tmp_path).to_dict()
        d["converge"]["eps0"] = 0.0
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_dict(d)
        assert str(info.value) == "converge: eps0 must be positive"

    @pytest.mark.parametrize("section,bad", BAD_SECTION_VALUES, ids=[
        f"{section}-" + "-".join(f"{k}={v}" for k, v in bad.items())
        for section, bad in BAD_SECTION_VALUES])
    def test_bad_converge_or_mhe_value_is_config_error(self, tmp_path, capsys,
                                                       section, bad):
        d = {"tag": "converge", section: bad}
        with pytest.raises(ConfigError, match=f"^{section}: "):
            ExperimentConfig.from_dict(d)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(d))
        assert cli.main(["converge", "--config", str(p)]) == 1
        assert f"config error: {section}: " in capsys.readouterr().err

    @pytest.mark.parametrize("value", [2.5, True, 0, "3"],
                             ids=["fractional", "boolean", "zero", "string"])
    def test_bad_n_eval_sequences_is_config_error(self, tmp_path, capsys, value):
        d = {"tag": "drift-eval", "n_eval_sequences": value}
        with pytest.raises(ConfigError, match="^n_eval_sequences: "):
            ExperimentConfig.from_dict(d)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(d))
        assert cli.main(["drift-eval", "--config", str(p)]) == 1
        assert "config error: n_eval_sequences: " in capsys.readouterr().err

    def test_load_config_bad_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            experiments.load_config(p)


class TestSimulate:
    def test_artifacts_and_roundtrip(self, tmp_path):
        config = tiny_config("simulate", tmp_path)
        manifest = experiments.run(config)
        assert manifest.status == "ok"
        assert manifest.verify_artifacts(tmp_path)
        ds = plant.load_dataset(tmp_path / "dataset")
        assert len(ds.sequences) == 5
        assert ds.config == config.dataset
        regen = plant.collect_dataset(config.dataset, seed=config.seed_dataset)
        assert np.allclose(ds.sequences[0].u, regen.sequences[0].u)
        assert np.allclose(ds.sequences[0].y, regen.sequences[0].y)

    def test_checksum_tamper_detected(self, tmp_path):
        experiments.run(tiny_config("simulate", tmp_path))
        target = tmp_path / "dataset" / "seq_000.csv"
        target.write_text(target.read_text().replace("0", "1", 1))
        with pytest.raises(ValueError, match="checksum"):
            plant.load_dataset(tmp_path / "dataset")


class TestTrain:
    def test_artifacts(self, train_run):
        config, manifest, out = train_run
        assert manifest.status == "ok"
        for name in ("params.json", "scaler.json", "history.csv",
                     "fig3.csv", "fig4.csv"):
            assert name in manifest.artifacts
            assert (out / name).exists()
        assert manifest.metrics["test_mse"] > 0

    def test_history_csv_has_epoch_and_train_mse(self, train_run):
        config, manifest, out = train_run
        rows = (out / "history.csv").read_text().strip().split("\n")
        assert rows[0] == "epoch,train_mse"
        assert len(rows) == 1 + manifest.metrics["epochs_run"]

    def test_saved_model_loads(self, train_run):
        config, manifest, out = train_run
        with open(out / "params.json") as fh:
            params = models.ParamVector.from_json(fh.read())
        assert params.spec == config.model

    def test_fig_csv_shape(self, train_run):
        config, manifest, out = train_run
        rows = (out / "fig3.csv").read_text().strip().split("\n")
        assert rows[0] == "t,truth,prediction"
        assert len(rows) == config.dataset.seq_len + 1


class TestTrainKey:
    @pytest.mark.parametrize("change", [
        lambda c: {"mhe": dataclasses.replace(c.mhe, mu=0.7)},
        lambda c: {"converge": dataclasses.replace(c.converge, horizon=50)},
        lambda c: {"sweep_grid": ((0.3, 4),)},
        lambda c: {"drift": dataclasses.replace(c.drift, end_value=0.31)},
        lambda c: {"adapt_time": 30.0},
        lambda c: {"n_eval_sequences": 4},
        lambda c: {"jobs": 3},
    ], ids=["mhe.mu", "converge.horizon", "sweep_grid", "drift.end_value",
            "adapt_time", "n_eval_sequences", "jobs"])
    def test_other_stages_keep_the_key(self, tmp_path, change):
        base = tiny_config("train", tmp_path)
        assert tiny_config("train", tmp_path, **change(base)).train_key() == base.train_key()

    @pytest.mark.parametrize("change", [
        lambda c: {"train": dataclasses.replace(c.train, epochs=16)},
        lambda c: {"dataset": dataclasses.replace(c.dataset, seq_len=121)},
        lambda c: {"model": dataclasses.replace(c.model, n_h=4)},
        lambda c: {"plant": dataclasses.replace(c.plant, kB=0.09)},
        lambda c: {"seed": 4},
    ], ids=["train.epochs", "dataset.seq_len", "model.n_h", "plant.kB", "seed"])
    def test_train_fields_move_the_key(self, tmp_path, change):
        base = tiny_config("train", tmp_path)
        assert tiny_config("train", tmp_path, **change(base)).train_key() != base.train_key()

    def test_every_field_is_in_the_key_or_outside_it(self):
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert set(experiments.TRAIN_FIELDS) | set(OUTSIDE_TRAIN_KEY) | {"tag"} == names
        assert not set(experiments.TRAIN_FIELDS) & set(OUTSIDE_TRAIN_KEY)

    def test_fields_outside_the_key_leave_the_model_alone(self, train_run, tmp_path):
        config, manifest, _ = train_run
        other = dataclasses.replace(config, **{**OUTSIDE_TRAIN_KEY,
                                               "out_dir": str(tmp_path)})
        assert other.train_key() == config.train_key()
        assert other.config_hash() != config.config_hash()
        rerun = experiments.run(other)
        assert rerun.artifacts == manifest.artifacts
        assert rerun.metrics == manifest.metrics


class TestConfiguredPlant:
    def test_simulate_integrates_the_config_plant(self, tmp_path):
        config = tiny_config("simulate", tmp_path / "kB",
                             plant=plant.PlantParams(kB=0.095))
        experiments.run(config)
        experiments.run(tiny_config("simulate", tmp_path / "nominal"))
        ds = plant.load_dataset(tmp_path / "kB" / "dataset")
        nominal = plant.load_dataset(tmp_path / "nominal" / "dataset")
        for seq, ref in zip(ds.sequences, nominal.sequences):
            assert np.array_equal(seq.u, ref.u)
            assert not np.array_equal(seq.y, ref.y)
        regen = plant.collect_dataset(config.dataset, seed=config.seed_dataset,
                                      params=config.plant)
        assert np.array_equal(ds.sequences[0].y, regen.sequences[0].y)

    def test_eval_set_is_the_config_plant_at_the_drift_end(self, tmp_path):
        config = tiny_config("drift-eval", tmp_path,
                             plant=plant.PlantParams(kB=0.095),
                             dataset=plant.DatasetConfig(n_sequences=5, seq_len=120,
                                                         n_train=3, n_test=2,
                                                         substeps=4, kA=0.336))
        eval_ds = experiments._eval_dataset(config)
        n = config.n_eval_sequences
        ref = plant.collect_dataset(
            dataclasses.replace(config.dataset, n_sequences=n, n_train=0,
                                n_test=n, kA=None),
            seed=config.seed_eval,
            params=dataclasses.replace(config.plant, kA=config.drift.end_value))
        assert len(eval_ds.test) == n
        for seq, r in zip(eval_ds.test, ref.test):
            assert np.array_equal(seq.u, r.u) and np.array_equal(seq.y, r.y)


class TestDriftEval:
    def test_requires_model_dir(self, tmp_path):
        with pytest.raises(ConfigError, match="model_dir"):
            experiments.run(tiny_config("drift-eval", tmp_path))

    def test_reports_both_phases(self, train_run, tmp_path):
        _, _, model_out = train_run
        config = tiny_config("drift-eval", tmp_path, model_dir=str(model_out))
        manifest = experiments.run(config)
        assert manifest.metrics["post_drift_mse"] > 0
        rows = (tmp_path / "drift_eval.csv").read_text().strip().split("\n")
        assert rows[0] == "phase,H2,xA2,xB2,T2,average"
        assert rows[1].startswith("before_drift") and rows[2].startswith("after_drift")


class TestAdapt:
    def test_end_to_end(self, train_run, tmp_path):
        _, _, model_out = train_run
        config = tiny_config("adapt", tmp_path, model_dir=str(model_out))
        manifest = experiments.run(config)
        assert manifest.status == "ok"
        # the set-up time is reported per build, outside what summary() hashes;
        # eval_set is the worker's build, eval_set_wait the time spent joining it
        assert {"drift_run", "eval_set", "eval_set_wait"} <= manifest.wall_times.keys()
        m = manifest.metrics
        assert m["n_updates"] >= 1
        assert m["peak_buffered"] == config.mhe.washout + config.mhe.N + 1
        for name in ("checkpoints.jsonl", "adapted_params.json",
                     "fig5.csv", "fig6.csv", "fig7.csv"):
            assert name in manifest.artifacts
        ckpts = mhe.load_checkpoints(tmp_path / "checkpoints.jsonl", config.model)
        assert len(ckpts) == m["n_updates"]
        # fig5 trace is flat before the ramp and flat after it
        rows = (tmp_path / "fig5.csv").read_text().strip().split("\n")[1:]
        kas = np.array([float(r.split(",")[1]) for r in rows])
        assert kas[0] == config.drift.start_value
        assert kas[-1] == config.drift.end_value

    def test_failed_run_leaves_failed_manifest(self, train_run, tmp_path):
        _, _, model_out = train_run
        config = tiny_config("adapt", tmp_path, model_dir=str(model_out),
                             drift=plant.DriftSchedule(t_start=0.5, t_end=1.0),
                             adapt_time=2.0)  # too short for any update
        with pytest.raises(RuntimeError, match="no checkpoints"):
            experiments.run(config)
        manifest = RunManifest.load(tmp_path / "manifest.json")
        assert manifest.status == "failed"


@pytest.fixture(scope="module")
def sweep_run(train_run, tmp_path_factory):
    _, _, model_out = train_run
    out = tmp_path_factory.mktemp("sweep_run")
    config = tiny_config("sweep", out, model_dir=str(model_out))
    return config, experiments.run(config), out


class TestSweep:
    def test_table_shape_and_best(self, sweep_run):
        config, manifest, out = sweep_run
        rows = (out / "sweep.csv").read_text().strip().split("\n")
        assert rows[0] == "mu,N,H2,xA2,xB2,T2,average"
        assert len(rows) == 1 + len(config.sweep_grid)
        averages = [r["average"] for r in manifest.metrics["rows"]]
        assert manifest.metrics["best_average"] == min(averages)
        assert {"drift_run", "eval_set", "eval_set_wait"} <= manifest.wall_times.keys()

    def test_process_pool_matches_serial(self, sweep_run, tmp_path):
        config, serial, _ = sweep_run
        assert config.jobs == 1
        pooled = experiments.run(
            dataclasses.replace(config, out_dir=str(tmp_path), jobs=2))
        assert pooled.status == "ok"
        assert pooled.summary() == serial.summary()
        assert len(pooled.wall_times["sweep_rows"]) == len(config.sweep_grid)

    def test_failed_run_leaves_failed_manifest(self, train_run, tmp_path):
        _, _, model_out = train_run
        config = tiny_config("sweep", tmp_path, model_dir=str(model_out),
                             drift=plant.DriftSchedule(t_start=0.5, t_end=1.0),
                             adapt_time=2.0)  # too short for any update
        with pytest.raises(RuntimeError, match="no checkpoints"):
            experiments.run(config)
        manifest = RunManifest.load(tmp_path / "manifest.json")
        assert manifest.status == "failed"


class Interrupted(Exception):
    """Raised by a test in the parent process, in the middle of a run."""


class TestEvalSetWorker:
    """adapt, sweep and drift-eval build the drifted evaluation set in a
    worker process while this one runs the drift run and the adaptation."""

    def test_worker_builds_the_same_set(self, train_run, sweep_run, tmp_path):
        _, _, model_out = train_run
        config = tiny_config("adapt", tmp_path, model_dir=str(model_out))
        manifest = experiments.run(config)
        params, scaler = experiments._load_model(config, {})

        def mse_in_process(config, p):
            eval_ds = experiments._eval_dataset(config)
            return training.evaluate_mse(config.model, p, eval_ds.test,
                                         config.train.washout, scaler)

        adapted = models.ParamVector.from_json(
            (tmp_path / "adapted_params.json").read_text())
        m = manifest.metrics
        for p, name in ((params, "unadapted"), (adapted, "adapted")):
            rep = mse_in_process(config, p)
            assert rep.average == m[f"{name}_mse"]
            assert [float(v) for v in rep.channel_mse] == m[f"channel_{name}"]
        # the sweep saves no weights: its rows are run again in this process
        sweep_config, sweep, _ = sweep_run
        _, scaled = experiments._drift_data(sweep_config, scaler, {})
        for row in sweep.metrics["rows"]:
            checkpoints, _, _ = experiments._adapt(sweep_config, params, scaled,
                                                   row["mu"], row["N"])
            rep = mse_in_process(sweep_config, checkpoints[-1].solution)
            assert rep.average == row["average"]
            assert [float(v) for v in rep.channel_mse] == row["channel_mse"]

    @pytest.mark.parametrize("tag,parent_collects", [("drift-eval", 1), ("adapt", 0),
                                                     ("sweep", 0)])
    def test_built_in_a_worker_and_no_child_left(self, train_run, tmp_path,
                                                 monkeypatch, tag, parent_collects):
        _, _, model_out = train_run
        collect, calls = plant.collect_dataset, []
        monkeypatch.setattr(plant, "collect_dataset",
                            lambda *a, **k: calls.append(1) or collect(*a, **k))
        experiments.run(tiny_config(tag, tmp_path, model_dir=str(model_out)))
        # the drifted set is built in the worker; drift-eval collects the
        # nominal set here
        assert len(calls) == parent_collects
        assert multiprocessing.active_children() == []

    def test_parent_failure_mid_adaptation(self, train_run, tmp_path, monkeypatch):
        _, _, model_out = train_run
        solve, calls = mhe.solve_update, []

        def failing_solve(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise Interrupted("third update")
            return solve(*args, **kwargs)

        monkeypatch.setattr(mhe, "solve_update", failing_solve)
        with pytest.raises(Interrupted, match="third update"):
            experiments.run(tiny_config("adapt", tmp_path, model_dir=str(model_out)))
        assert len(calls) == 3
        assert RunManifest.load(tmp_path / "manifest.json").status == "failed"
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("tag", ["drift-eval", "adapt", "sweep"])
    def test_worker_failure_reaches_the_caller(self, train_run, tmp_path, monkeypatch,
                                               tag):
        _, _, model_out = train_run
        # the plant at kA = 1e3 leaves its domain while it settles, so only the
        # evaluation set fails: the run itself stays on the nominal kA
        config = tiny_config(tag, tmp_path, model_dir=str(model_out),
                             drift=plant.DriftSchedule(end_value=1e3, t_start=4.0,
                                                       t_end=1e12),
                             sweep_grid=[(mu, 40) for mu in (0.05, 0.1, 0.2, 0.5, 1.0, 2.0)])
        # each update of this process takes 0.5 s more; the failure, seen
        # between updates and between sweep rows, stops the run before half
        # of its updates have run
        solve, calls = mhe.solve_update, []

        def slow_solve(*args):
            calls.append(1)
            time.sleep(0.5)
            return solve(*args)

        monkeypatch.setattr(mhe, "solve_update", slow_solve)
        with pytest.raises(ValueError, match="non-finite or non-positive"):
            experiments.run(config)
        manifest = RunManifest.load(tmp_path / "manifest.json")
        assert manifest.status == "failed"
        assert multiprocessing.active_children() == []
        T = round(config.adapt_time / config.dataset.tau)
        rows = config.sweep_grid if tag == "sweep" else [(config.mhe.mu, config.mhe.N)]
        n_updates = sum(len(range(config.mhe.washout + N, T, N)) for _, N in rows)
        assert n_updates >= 24 and len(calls) < n_updates / 2


_real_adapt = experiments._adapt


def _marked_row(config, params, scaled, mu, N, on_checkpoint=None):
    """A sweep row that first leaves a file named after its mu in the run's
    directory, then runs the real ``_adapt``; module-level, so that a
    worker process can run it."""
    (pathlib.Path(config.out_dir) / f"row_{mu}").touch()
    return _real_adapt(config, params, scaled, mu, N, on_checkpoint)


class TestFailedSweepCancels:
    def test_queued_rows_do_not_start(self, train_run, tmp_path, monkeypatch):
        _, _, model_out = train_run
        jobs, mus = 2, [0.01 * k for k in range(1, 25)]
        # as above, only the evaluation set fails, in the pool's first task
        config = tiny_config("sweep", tmp_path, model_dir=str(model_out), jobs=jobs,
                             drift=plant.DriftSchedule(end_value=1e3, t_start=4.0,
                                                       t_end=1e12),
                             sweep_grid=[(mu, 5) for mu in mus])
        monkeypatch.setattr(experiments, "_adapt", _marked_row)
        with pytest.raises(ValueError, match="non-finite or non-positive"):
            experiments.run(config)
        assert multiprocessing.active_children() == []
        # the pool holds at most jobs rows and hands out the next only once
        # the oldest has landed and the build has not failed: the first jobs
        # rows start, and one more if a row lands before the build fails
        started = len(list(tmp_path.glob("row_*")))
        assert 1 <= started <= jobs + 1 < len(mus)


class TestModelIdentity:
    def test_summary_follows_the_model_not_its_directory(self, train_run, tmp_path):
        _, _, model_out = train_run
        dirs = [tmp_path / name for name in ("copy_a", "copy_b", "changed")]
        for d in dirs:
            d.mkdir()
            for name in ("params.json", "scaler.json"):
                shutil.copy(model_out / name, d / name)
        params = models.ParamVector.from_json((dirs[2] / "params.json").read_text())
        vals = params.values.copy()
        vals[0] += 1e-3                   # the first trainable weight
        (dirs[2] / "params.json").write_text(params.replace_values(vals).to_json())
        a, b, changed = (experiments.run(tiny_config("adapt", tmp_path / f"run_{d.name}",
                                                     model_dir=str(d)))
                         for d in dirs)
        assert a.summary() == b.summary()
        assert a.metrics["model_sha256"] == {
            name: plant.file_sha256(model_out / name) for name in ("params.json", "scaler.json")}
        assert changed.config_hash == a.config_hash
        assert changed.summary() != a.summary()
        assert changed.metrics["model_sha256"] != a.metrics["model_sha256"]


@pytest.fixture
def plot_rollouts(monkeypatch):
    """Counts the models.simulate calls made inside experiments.emit_plotdata."""
    emit, simulate = experiments.emit_plotdata, models.simulate
    count = {"inside": False, "rollouts": 0}

    def counted_emit(*args, **kwargs):
        count["inside"] = True
        try:
            return emit(*args, **kwargs)
        finally:
            count["inside"] = False

    def counted_simulate(*args, **kwargs):
        count["rollouts"] += count["inside"]
        return simulate(*args, **kwargs)

    monkeypatch.setattr(experiments, "emit_plotdata", counted_emit)
    monkeypatch.setattr(models, "simulate", counted_simulate)
    return count


class TestPlotData:
    @pytest.mark.parametrize("tag,n_models", [("train", 1), ("adapt", 2)])
    def test_one_rollout_per_model(self, train_run, tmp_path, plot_rollouts,
                                   tag, n_models):
        _, _, model_out = train_run
        model = {"model_dir": str(model_out)} if tag == "adapt" else {}
        experiments.run(tiny_config(tag, tmp_path, **model))
        assert plot_rollouts["rollouts"] == n_models


class TestConverge:
    def test_matched_twin_contracts(self, tmp_path):
        config = tiny_config("converge", tmp_path,
                             model=ModelSpec("gru", 2, 3, 2))
        manifest = experiments.run(config)
        m = manifest.metrics
        assert m["delta_hat"] > 0
        assert m["rho_c"] < 1.0
        assert m["final_epsilon"] < m["eps0"]
        rows = (tmp_path / "convergence.csv").read_text().strip().split("\n")
        assert rows[0] == "k,epsilon,ratio,rho_c,violated"

    def test_nnarx_delta_windows_are_the_updates(self, tmp_path, monkeypatch):
        # an NNARX twin rebuilds its state from `order` samples, not the
        # washout, so its first update comes at order + N
        estimate, seen = experiments.convergence.estimate_delta, []

        def recorded(spec, theta, windows, *args, **kwargs):
            seen.extend(w.k for w in windows)
            return estimate(spec, theta, windows, *args, **kwargs)

        monkeypatch.setattr(experiments.convergence, "estimate_delta", recorded)
        config = tiny_config(
            "converge", tmp_path, model=ModelSpec("nnarx", 2, 0, 2, order=2, mlp_width=3),
            converge=experiments.ConvergeConfig(horizon=20, washout=10, n_updates=3,
                                                delta_samples=4, probe_smallest=1,
                                                max_iter=60))
        experiments.run(config)
        rows = (tmp_path / "convergence.csv").read_text().strip().split("\n")[1:]
        assert seen == [int(r.split(",")[0]) for r in rows] == [22, 42, 62]
        assert len(rows) == config.converge.n_updates


class TestReproducibility:
    def test_simulate_manifest_identical(self, tmp_path):
        m1 = experiments.run(tiny_config("simulate", tmp_path / "a"))
        m2 = experiments.run(tiny_config("simulate", tmp_path / "b"))
        assert m1.summary() == m2.summary()

    def test_seed_changes_summary(self, tmp_path):
        m1 = experiments.run(tiny_config("simulate", tmp_path / "a"))
        m2 = experiments.run(tiny_config("simulate", tmp_path / "b", seed=4))
        assert m1.summary() != m2.summary()


class TestNoScipy:
    def test_import_simulate_and_train_load_no_scipy(self, tmp_path):
        # criterion-10 sizes; the run goes through the CLI, as a user's would.
        # Only the stages that build the drifted evaluation set load the
        # process pool, and no stage loads scipy
        configs = []
        for tag in ("simulate", "train", "converge"):
            config = tiny_config(
                tag, tmp_path / tag, seed=5,
                dataset=plant.DatasetConfig(n_sequences=4, seq_len=120, n_train=3,
                                            n_test=1, substeps=4),
                train=training.TrainConfig(epochs=10, washout=20, patience=10),
                **({"model": ModelSpec("gru", 2, 3, 2)} if tag == "converge" else {}))
            configs += [tag, str(tmp_path / f"{tag}.json")]
            (tmp_path / f"{tag}.json").write_text(json.dumps(config.to_dict()))
        loaded = run_python("""if True:
            import json, sys
            import mhenet, mhenet.experiments, mhenet.cli
            def modules(*roots):
                return sorted(m for m in sys.modules if m.partition(".")[0] in roots)
            loaded = {"import": [modules("scipy"), modules("concurrent", "multiprocessing")]}
            for tag, path in zip(sys.argv[1::2], sys.argv[2::2]):
                rc = mhenet.cli.main([tag, "--config", path])
                loaded[tag] = [rc, modules("scipy"), modules("concurrent", "multiprocessing")]
            print(json.dumps(loaded))""", *configs)
        assert loaded == {"import": [[], []], "simulate": [0, [], []],
                          "train": [0, [], []], "converge": [0, [], []]}
        assert (tmp_path / "train" / "params.json").is_file()

    def test_lbfgs_adapt_and_sweep_load_no_scipy(self, tmp_path):
        # adapt and sweep run L-BFGS; no stage loads scipy
        configs = []
        for tag in ("train", "adapt", "sweep"):
            config = tiny_config(
                tag, tmp_path / tag, seed=5,
                dataset=plant.DatasetConfig(n_sequences=4, seq_len=120, n_train=3,
                                            n_test=1, substeps=4),
                train=training.TrainConfig(epochs=10, washout=20, patience=10),
                mhe=mhe.MheConfig(N=5, mu=0.1, washout=20, solver="lbfgs", max_iter=10),
                model_dir=None if tag == "train" else str(tmp_path / "train"))
            configs += [tag, str(tmp_path / f"{tag}.json")]
            (tmp_path / f"{tag}.json").write_text(json.dumps(config.to_dict()))
        loaded = run_python("""if True:
            import json, sys
            import mhenet.cli
            def scipy_modules():
                return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
            loaded = {}
            for tag, path in zip(sys.argv[1::2], sys.argv[2::2]):
                loaded[tag] = (mhenet.cli.main([tag, "--config", path]), scipy_modules())
            print(json.dumps(loaded))""", *configs)
        assert loaded == {"train": [0, []], "adapt": [0, []], "sweep": [0, []]}
        assert (tmp_path / "adapt" / "checkpoints.jsonl").is_file()
        assert (tmp_path / "sweep" / "sweep.csv").is_file()

    def test_six_tags_run_with_scipy_refused(self, tmp_path):
        # every tag at criterion-10 sizes, through the CLI, in an interpreter
        # that cannot import scipy at all: scipy is a test oracle only
        configs = []
        for tag in experiments.TAGS:
            config = tiny_config(
                tag, tmp_path / tag, seed=5,
                dataset=plant.DatasetConfig(n_sequences=4, seq_len=120, n_train=3,
                                            n_test=1, substeps=4),
                train=training.TrainConfig(epochs=10, washout=20, patience=10),
                mhe=mhe.MheConfig(N=5, mu=0.1, washout=20, solver="lbfgs", max_iter=10),
                model_dir=None if tag in ("simulate", "train", "converge")
                else str(tmp_path / "train"))
            configs += [tag, str(tmp_path / f"{tag}.json")]
            (tmp_path / f"{tag}.json").write_text(json.dumps(config.to_dict()))
        codes = run_python("""if True:
            import json, sys

            class RefuseScipy:
                def find_spec(self, name, path=None, target=None):
                    if name.partition(".")[0] == "scipy":
                        raise ImportError(f"scipy refused: {name}")

            sys.meta_path.insert(0, RefuseScipy())
            import mhenet.cli
            codes = {tag: mhenet.cli.main([tag, "--config", path])
                     for tag, path in zip(sys.argv[1::2], sys.argv[2::2])}
            codes["scipy"] = sorted(m for m in sys.modules if m.startswith("scipy"))
            print(json.dumps(codes))""", *configs)
        assert codes == dict.fromkeys(experiments.TAGS, 0) | {"scipy": []}
        assert (tmp_path / "converge" / "convergence.json").is_file()


class TestCli:
    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"tag": "train", "seed": "not-an-int"}))
        rc = cli.main(["train", "--config", str(bad)])
        assert rc == 1

    @pytest.mark.parametrize("bad", [{"epochs": -1}, {"patience": 0},
                                     {"learning_rate": float("nan")}, {"washout": -5}],
                             ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()))
    def test_nonsense_train_config_is_config_error(self, tmp_path, capsys, bad):
        d = tiny_config("train", tmp_path / "run").to_dict()
        d["train"].update(bad)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(d))
        assert cli.main(["train", "--config", str(p)]) == 1
        assert "config error: train: " in capsys.readouterr().err

    def test_dataset_and_excitation_tau_must_agree(self, tmp_path, capsys):
        d = tiny_config("simulate", tmp_path / "run").to_dict()
        d["dataset"]["tau"] = 0.2
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(d))
        assert cli.main(["simulate", "--config", str(p)]) == 1
        assert "config error: dataset: tau: " in capsys.readouterr().err

    @pytest.mark.parametrize("section,key,value,error", [
        ("drift", "end_value", -0.1, "drift: end_value: "),
        ("drift", "t_end", float("nan"), "drift: the ramp needs finite times"),
        (None, "adapt_time", float("nan"), "adapt_time: ")],
        ids=["negative-end-value", "nan-t-end", "nan-adapt-time"])
    def test_bad_drift_run_is_config_error(self, train_run, tmp_path, capsys,
                                           section, key, value, error):
        # each of these used to fail only inside the drift run, with exit 2
        _, _, model_out = train_run
        d = tiny_config("adapt", tmp_path / "run", model_dir=str(model_out)).to_dict()
        (d[section] if section else d)[key] = value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(d))
        assert cli.main(["adapt", "--config", str(p)]) == 1
        assert f"config error: {error}" in capsys.readouterr().err

    def test_negative_seed_is_config_error(self, capsys):
        # the stage seeds feed numpy generators, which refuse negative seeds
        assert cli.main(["simulate", "--seed", "-5"]) == 1
        assert "config error: seed: " in capsys.readouterr().err

    def test_jobs_below_one_is_config_error(self, capsys):
        assert cli.main(["sweep", "--jobs", "0"]) == 1
        assert "config error: jobs" in capsys.readouterr().err

    def test_tag_mismatch_is_config_error(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(tiny_config("train", tmp_path).to_dict()))
        assert cli.main(["adapt", "--config", str(p)]) == 1

    def test_missing_model_dir_is_config_error(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(tiny_config("adapt", tmp_path).to_dict()))
        assert cli.main(["adapt", "--config", str(p)]) == 1

    def test_simulate_success(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(tiny_config("simulate", tmp_path / "run").to_dict()))
        rc = cli.main(["simulate", "--config", str(p)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["tag"] == "simulate"
        assert (tmp_path / "run" / "manifest.json").exists()

    def test_out_and_seed_overrides(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(tiny_config("simulate", tmp_path / "ignored").to_dict()))
        rc = cli.main(["simulate", "--config", str(p),
                       "--out", str(tmp_path / "other"), "--seed", "11"])
        assert rc == 0
        manifest = RunManifest.load(tmp_path / "other" / "manifest.json")
        assert manifest.config["seed"] == 11
