import copy
import dataclasses
import json

import numpy as np
import pytest

from mhenet import cli, experiments, mhe, models, plant, training
from mhenet.experiments import ConfigError, ExperimentConfig, RunManifest
from mhenet.models import ModelSpec


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
]


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


class TestReproducibility:
    def test_simulate_manifest_identical(self, tmp_path):
        m1 = experiments.run(tiny_config("simulate", tmp_path / "a"))
        m2 = experiments.run(tiny_config("simulate", tmp_path / "b"))
        assert m1.summary() == m2.summary()

    def test_seed_changes_summary(self, tmp_path):
        m1 = experiments.run(tiny_config("simulate", tmp_path / "a"))
        m2 = experiments.run(tiny_config("simulate", tmp_path / "b", seed=4))
        assert m1.summary() != m2.summary()


class TestCsvStream:
    def test_stream_matches_sequence(self, tmp_path):
        cfg = plant.DatasetConfig(n_sequences=1, seq_len=15, n_train=1, n_test=0,
                                  substeps=2)
        ds = plant.collect_dataset(cfg, seed=0)
        path = tmp_path / "seq.csv"
        plant.save_sequence_csv(path, ds.sequences[0])
        samples = list(experiments.csv_stream(path))
        assert len(samples) == 15
        assert np.allclose(samples[3].u, ds.sequences[0].u[3])
        assert np.allclose(samples[3].y, ds.sequences[0].y[3])
        assert samples[3].t == 3


class TestCli:
    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"tag": "train", "seed": "not-an-int"}))
        rc = cli.main(["train", "--config", str(bad)])
        assert rc == 1

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
