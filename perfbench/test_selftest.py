"""Fast self-test of the benchmark code on tiny configs.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.TAGS))
def test_every_named_metric_is_emitted(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"]
                for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    assert 1 <= result["attempted"] and 0 <= result["failed"] <= result["attempted"]
    assert result["correct"] == (result["failed"] == 0)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_counts_on_tiny_drift_adapt():
    proc = run_bench("drift-adapt", 1)
    m = {k: v["value"] for k, v in json.loads(proc.stdout.splitlines()[-1])["metrics"].items()}
    cfg = workloads.config("drift-adapt", 3, "unused", tiny=True)
    first = cfg.mhe.washout + cfg.mhe.N
    n_updates = len(range(first, round(cfg.adapt_time / cfg.dataset.tau), cfg.mhe.N))
    assert m["mhe.reconstruct_initial_state.calls"] == n_updates
    assert m["mhe.solve_update.calls"] == n_updates
    assert m["plant.collect_dataset.calls"] == 3
    assert m["models.output_jacobian.calls"] == 0
    assert m["plant.drift_run.calls"] == 1
    assert m["adapted_mse"] > 0 and m["train_mse"] == 0
    assert m["update_p50_ms"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("drift-adapt", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_per_layer_names_match_the_tracer():
    names = set(tracer.metric_names()) | {
        "update_p50_ms", "update_p95_ms", "adapted_mse", "train_mse",
        "trace.overhead_s"}
    assert {m["name"] for m in BENCH["per_layer"]} == names


def test_tracer_marks_missing_layers_absent(monkeypatch):
    from mhenet import models
    monkeypatch.delattr(models, "batch_param_outputs")
    spans = tracer.Tracer()
    try:
        assert spans.absent == ["models.batch_param_outputs"]
        summary = spans.summary()
    finally:
        spans.restore()
    assert summary["models.batch_param_outputs.calls"] == 0
    assert summary["models.batch_param_outputs.rollouts"] == 0


def test_tracer_self_time_excludes_children():
    import numpy as np
    from mhenet import mhe, models
    spec = models.ModelSpec("lstm", 2, 3, 1)
    params = models.init_params(spec, 0)
    spans = tracer.Tracer()
    try:
        mhe.reconstruct_initial_state(spec, params, np.zeros((30, 2)),
                                      np.zeros((30, 1)), 20)
    finally:
        spans.restore()
    assert mhe.reconstruct_initial_state.__name__ == "reconstruct_initial_state"
    s = spans.summary()
    assert s["mhe.reconstruct_initial_state.calls"] == 1
    assert s["models.simulate.calls"] == 1
    parent, child = s["mhe.reconstruct_initial_state.s"], s["models.simulate.s"]
    assert 0 < child <= parent
    assert s["mhe.reconstruct_initial_state.self_s"] == pytest.approx(parent - child)


def test_model_data_matches_the_acceptance_cache():
    cached = ROOT / ".acceptance_cache" / "train_da19a5be3ee606ad"
    if not cached.is_dir():
        pytest.skip("acceptance cache not present")
    for name in ("manifest.json", "params.json", "scaler.json"):
        assert (workloads.DATA_DIR / name).read_bytes() == (cached / name).read_bytes()
    cfg = workloads.config("drift-adapt", 0, "unused")
    params, _ = workloads.load_model(cfg)
    assert params.spec == workloads.BENCH_SPEC


def test_corrupt_model_fails_setup(tmp_path, monkeypatch):
    for name in ("manifest.json", "params.json", "scaler.json"):
        shutil.copy(workloads.DATA_DIR / name, tmp_path)
    with open(tmp_path / "params.json", "a") as fh:
        fh.write(" ")
    monkeypatch.setattr(workloads, "DATA_DIR", tmp_path)
    with pytest.raises(workloads.SetupError, match="sha256"):
        workloads.load_model(workloads.config("drift-adapt", 0, "unused"))
