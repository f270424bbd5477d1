"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line for its criterion.  The expensive
full-scale stages (offline training of the benchmark network) are cached
on disk keyed by the config fields that training reads
(``ExperimentConfig.train_key``), so re-runs of the suite skip straight
to the assertions.
"""

import dataclasses
import json
import pathlib
import shutil

import numpy as np
import pytest

from mhenet import convergence, experiments, mhe, models, plant, training
from mhenet.experiments import ExperimentConfig
from mhenet.models import ModelSpec

from conftest import fd_gradient

CACHE_DIR = pathlib.Path(__file__).resolve().parent.parent / ".acceptance_cache"

BENCH_SPEC = ModelSpec("lstm", 6, 10, 4)


def _report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def full_scale_config(tag, out_dir, **overrides):
    base = dict(
        tag=tag,
        out_dir=str(out_dir),
        seed=0,
        model=BENCH_SPEC,
        train=training.TrainConfig(epochs=4000, learning_rate=1e-2,
                                   lr_decay=0.9988, washout=100, patience=200),
        mhe=mhe.MheConfig(N=10, mu=0.1, washout=100, solver="lbfgs", max_iter=2),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="session")
def trained_model(tmp_path_factory):
    """Full-scale offline training, cached across suite runs by train key."""
    config = full_scale_config("train", "unused")
    cached = CACHE_DIR / f"train_{config.train_key()[:16]}"
    if not (cached / "manifest.json").exists():
        CACHE_DIR.mkdir(exist_ok=True)
        work = cached.with_suffix(".tmp")
        if work.exists():
            shutil.rmtree(work)
        experiments.run(dataclasses.replace(config, out_dir=str(work)))
        work.rename(cached)
    manifest = experiments.RunManifest.load(cached / "manifest.json")
    return config, manifest, cached


class TestAcceptanceCache:
    # Train key of the committed trained benchmark model.  A change to a
    # field in experiments.TRAIN_FIELDS moves it and makes the next run
    # retrain for 11-22 min; such a retrain is announced and the new cache
    # directory committed with this constant.
    TRAIN_KEY = "74e988f5bf4c2290"

    def test_config_json_and_key_pinned(self):
        config = full_scale_config("train", "unused")
        assert config.train_key()[:16] == self.TRAIN_KEY
        cached = CACHE_DIR / f"train_{self.TRAIN_KEY}"
        # checked here, so that a missing cache fails instead of retraining
        assert (cached / "manifest.json").exists(), f"{cached} is missing"
        # only the train-stage sections: the others may change freely
        expected = json.loads(json.dumps(config.to_dict()))
        committed = json.loads((cached / "config.json").read_text())
        manifest = experiments.RunManifest.load(cached / "manifest.json")
        for name in experiments.TRAIN_FIELDS:
            assert committed[name] == expected[name], name
            assert manifest.config[name] == expected[name], name

    def test_benchmark_model_is_the_cached_model(self):
        data = CACHE_DIR.parent / "perfbench" / "data"
        cached = CACHE_DIR / f"train_{self.TRAIN_KEY}"
        for name in ("manifest.json", "params.json", "scaler.json"):
            assert (data / name).read_bytes() == (cached / name).read_bytes(), name


class TestCriterion1Gradients:
    """BPTT gradients vs central finite differences, all architectures."""

    SPECS = {
        "nnarx": ModelSpec("nnarx", 2, 0, 1, order=2, mlp_width=3),
        "esn": ModelSpec("esn", 2, 5, 2, spectral_radius=0.9, leak_rate=0.8),
        "lstm": ModelSpec("lstm", 2, 3, 2),
        "gru": ModelSpec("gru", 2, 3, 2),
    }

    @pytest.mark.parametrize("kind", list(SPECS))
    def test_100_random_checks(self, kind):
        spec = self.SPECS[kind]
        rng = np.random.default_rng(314 + sorted(self.SPECS).index(kind))
        n = models.param_count(spec)
        worst = 0.0
        for _ in range(100):
            p = models.init_params(spec, int(rng.integers(1 << 31)), "uniform")
            vals = p.values.copy()
            vals[:n] += rng.normal(scale=0.3, size=n)
            p = p.replace_values(vals)
            x0 = rng.normal(scale=0.3, size=models.state_size(spec))
            u = rng.normal(size=(5, spec.n_u))
            targets = rng.normal(size=(5, spec.n_y))
            _, g = models.window_loss_and_gradient(spec, p, x0, u, targets)
            fd = fd_gradient(spec, p, x0, u, targets)
            assert g.shape == fd.shape == (n,)
            num = np.linalg.norm(g - fd)
            den = max(np.linalg.norm(g), np.linalg.norm(fd), 1e-12)
            worst = max(worst, num / den)
        _report(f"criterion 1 ({kind})", worst <= 1e-5,
                f"worst relative gradient error {worst:.2e} (tolerance 1e-5)")


class TestCriterion2SolverOracle:
    """solve_update vs the closed-form regularized least-squares solution."""

    def test_50_random_draws(self):
        spec = ModelSpec("linear", 1, 0, 1)
        rng = np.random.default_rng(2718)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(2, 9))
            u = rng.normal(size=n) + 0.1
            y = rng.normal() * u + rng.normal(scale=0.1, size=n)
            mu = float(rng.uniform(0.01, 5.0))
            prior_v = float(rng.normal())
            expected = (np.sum(u * y) + mu * prior_v) / (np.sum(u * u) + mu)
            window = mhe.HorizonWindow(inputs=u.reshape(-1, 1),
                                       outputs=y.reshape(-1, 1),
                                       x_init=np.zeros(0), k=n - 1)
            cfg = mhe.MheConfig(N=n - 1, mu=mu, solver="lm", max_iter=500)
            sol, _ = mhe.solve_update(spec, window,
                                      models.ParamVector(spec, [prior_v]), cfg)
            worst = max(worst, abs(sol.values[0] - expected))
        _report("criterion 2", worst <= 1e-8,
                f"worst |solution - closed form| {worst:.2e} (tolerance 1e-8)")


class TestCriterion3MatchedTwin:
    """Matched-twin contraction of the weight error on the benchmark LSTM."""

    def test_contraction_and_decay(self, tmp_path):
        config = full_scale_config(
            "converge", tmp_path,
            converge=experiments.ConvergeConfig(horizon=200, washout=50,
                                                n_updates=10, eps0=0.1,
                                                delta_samples=30,
                                                probe_smallest=2))
        manifest = experiments.run(config)
        m = manifest.metrics
        rows = (tmp_path / "convergence.csv").read_text().strip().split("\n")[1:]
        epsilons = [float(r.split(",")[1]) for r in rows]
        target = 1e-6 * m["eps0"]
        updates_to_target = next(
            (i + 1 for i, e in enumerate(epsilons) if e <= target), None)
        ok = (m["violations"] == []
              and m["rho_c"] < 1.0
              and updates_to_target is not None
              and updates_to_target <= 50)
        _report("criterion 3", ok,
                f"delta_hat={m['delta_hat']:.2e}, mu={m['mu']:.2e}, "
                f"rho_c={m['rho_c']:.3f}, violations={m['violations']}, "
                f"eps {m['eps0']:.2e} -> {m['final_epsilon']:.2e}, "
                f"below 1e-6*eps0 after {updates_to_target} updates (limit 50)")


class TestCriterion4NormInequality:
    def test_100k_random_triples(self):
        rng = np.random.default_rng(4242)
        za, zb, zbar = rng.normal(size=(3, 100000, 6))
        lhs = np.sum((za - zbar) ** 2, axis=1)
        rhs = 0.5 * np.sum((za - zb) ** 2, axis=1) - np.sum((zbar - zb) ** 2, axis=1)
        n_bad = int(np.sum(lhs < rhs))
        _report("criterion 4", n_bad == 0,
                f"{n_bad} violations of the norm inequality in 100000 triples")


class TestCriterion5DriftDegradation:
    def test_structure_of_degradation(self, trained_model, tmp_path):
        train_config, _, train_dir = trained_model
        config = full_scale_config("drift-eval", tmp_path,
                                   model_dir=str(train_dir))
        manifest = experiments.run(config)
        m = manifest.metrics
        ratios = dict(zip(plant.STATE_COLUMNS, m["channel_ratio"]))
        ok = (m["average_ratio"] >= 5.0
              and ratios["xA2"] >= 10.0 and ratios["xB2"] >= 10.0
              and ratios["H2"] < 2.0 and ratios["T2"] < 2.0)
        _report("criterion 5", ok,
                f"avg ratio {m['average_ratio']:.1f} (>=5), "
                + ", ".join(f"{k} {v:.2f}x" for k, v in ratios.items())
                + " (xA2,xB2>=10; H2,T2<2)")


class TestCriterion6AdaptationBenefit:
    def test_adapt_reduces_mse(self, trained_model, tmp_path):
        _, _, train_dir = trained_model
        config = full_scale_config("adapt", tmp_path, model_dir=str(train_dir))
        manifest = experiments.run(config)
        m = manifest.metrics
        ok = m["adapted_mse"] <= 0.5 * m["unadapted_mse"]
        _report("criterion 6 (adapt)", ok,
                f"mu=0.1 N=10: unadapted {m['unadapted_mse']:.3e} -> "
                f"adapted {m['adapted_mse']:.3e} "
                f"({100 * m['mse_reduction']:.0f}% reduction, need >=50%)")

    def test_sweep_reports_all_grid_rows(self, trained_model, tmp_path):
        _, _, train_dir = trained_model
        config = full_scale_config("sweep", tmp_path, model_dir=str(train_dir))
        manifest = experiments.run(config)
        rows = manifest.metrics["rows"]
        grid = {(r["mu"], r["N"]) for r in rows}
        expected = set(experiments.DEFAULT_SWEEP_GRID)
        ok = len(rows) == 5 and grid == expected
        _report("criterion 6 (sweep)", ok,
                f"{len(rows)} rows, grid {sorted(grid)}; best "
                f"(mu={manifest.metrics['best_mu']}, N={manifest.metrics['best_N']}) "
                f"avg {manifest.metrics['best_average']:.3e}")


class TestCriterion7IntegratorOrder:
    def test_rk4_observed_order(self):
        p = plant.PlantParams()
        x0 = np.array([1.2, 0.5, 0.2, 313.0])
        u = plant.NOMINAL_INPUT
        ref = plant.step(x0, u, p, 1.0, substeps=4096)
        subs = np.array([2, 4, 8, 16, 32])
        errs = np.array([np.max(np.abs(plant.step(x0, u, p, 1.0, substeps=int(s))
                                       - ref)) for s in subs])
        slope = float(np.polyfit(np.log2(1.0 / subs), np.log2(errs), 1)[0])
        _report("criterion 7", abs(slope - 4.0) <= 0.2,
                f"observed RK4 order {slope:.3f} (4.0 +- 0.2)")


class TestCriterion8WeightCount:
    def test_benchmark_param_count(self):
        n = models.param_count(BENCH_SPEC)
        _report("criterion 8", n == 724, f"benchmark LSTM has {n} weights (724)")


class TestCriterion9BoundedMemory:
    def test_million_step_stream(self):
        spec = ModelSpec("linear", 1, 0, 1)
        params = models.ParamVector(spec, [1.0])
        N, washout = 1000, 100
        rng = np.random.default_rng(9)

        def stream(n):
            for t in range(n):
                u = rng.normal()
                yield mhe.IOSample(u=np.array([u]), y=np.array([2.0 * u]), t=t)

        cfg = mhe.MheConfig(N=N, mu=0.1, washout=washout,
                            solver="lbfgs", max_iter=2)
        checkpoints, stats = mhe.run_adaptation(spec, params, stream(10 ** 6), cfg)
        ok = (stats["peak_buffered"] == washout + N + 1
              and len(checkpoints) >= 900)
        _report("criterion 9", ok,
                f"peak buffer {stats['peak_buffered']} samples over a 1e6-step "
                f"stream (limit {washout + N + 1}), {len(checkpoints)} updates")


def _criterion10_config(tag, out_dir, **overrides):
    return ExperimentConfig(
        tag=tag, out_dir=str(out_dir), seed=5,
        drift=plant.DriftSchedule(t_start=4.0, t_end=8.0),
        dataset=plant.DatasetConfig(n_sequences=4, seq_len=120, n_train=3,
                                    n_test=1, substeps=4),
        model=ModelSpec("lstm", 6, 3, 4),
        train=training.TrainConfig(epochs=10, washout=20, patience=10),
        mhe=mhe.MheConfig(N=5, mu=0.1, washout=20, solver="lbfgs",
                          max_iter=10),
        converge=experiments.ConvergeConfig(horizon=40, washout=10,
                                            n_updates=3, delta_samples=4,
                                            probe_smallest=1, max_iter=60),
        n_eval_sequences=2, adapt_time=20.0, **overrides)


@pytest.fixture(scope="class")
def criterion10_runs(tmp_path_factory):
    """Two runs of every tag at tiny sizes: {tag: [(manifest, out_dir)] * 2}."""
    root = tmp_path_factory.mktemp("criterion10")
    runs = {}
    for tag in experiments.TAGS:
        # the stages downstream of training read the first train run
        model = ({"model_dir": str(root / "train_a")}
                 if tag in ("drift-eval", "adapt", "sweep") else {})
        runs[tag] = [(experiments.run(_criterion10_config(tag, out, **model)), out)
                     for out in (root / f"{tag}_a", root / f"{tag}_b")]
    return runs


class TestCriterion10Reproducibility:
    def test_six_tags_rerun_identically(self, criterion10_runs):
        results = {tag: runs[0][0].summary() == runs[1][0].summary()
                   for tag, runs in criterion10_runs.items()}
        ok = all(results.values())
        _report("criterion 10", ok,
                "identical manifests (wall times excluded) for "
                + ", ".join(f"{t}={'yes' if v else 'NO'}" for t, v in results.items()))

    def test_every_written_file_is_a_recorded_artifact(self, criterion10_runs):
        # config.json embeds the output path and manifest.json is the record
        for tag, runs in criterion10_runs.items():
            for manifest, out in runs:
                written = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
                recorded = {rec["path"] for rec in manifest.artifacts.values()}
                assert written - {"config.json", "manifest.json"} == recorded, tag
                assert manifest.verify_artifacts(out), tag
