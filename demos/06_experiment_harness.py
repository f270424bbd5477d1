"""The config-driven experiment harness and its command line.

Every study in this package is a tagged, seeded, JSON-configured run
that leaves a manifest behind:

    mhenet <tag> --config cfg.json [--out DIR] [--seed S]

tags:
    simulate    generate and store an excitation dataset
    train       offline training of the surrogate (+ prediction traces)
    drift-eval  before/after-drift MSE of a trained surrogate
    adapt       online MHE adaptation through a drift run
    sweep       (mu, N) grid of adaptation runs
    converge    matched-twin contraction diagnostic

Exit codes: 0 success, 1 configuration error (a bad command line too),
2 runtime failure.
The manifest records the config, a placement-independent config hash,
sha256-checksummed artifacts, and the headline metrics; re-running the
same config and seed reproduces the manifest summary bit for bit.

This demo drives the same entry point in-process with a miniature
configuration.
"""

import json
import pathlib
import tempfile

from mhenet import cli, experiments, mhe, plant, training
from mhenet.models import ModelSpec


def main():
    with tempfile.TemporaryDirectory(prefix="mhenet_demo_") as tmp:
        workdir = pathlib.Path(tmp)

        config = experiments.ExperimentConfig(
            tag="train",
            seed=3,
            out_dir=str(workdir / "train_run"),
            drift=plant.DriftSchedule(t_start=4.0, t_end=8.0),
            dataset=plant.DatasetConfig(n_sequences=5, seq_len=120, n_train=3,
                                        n_test=2, substeps=4),
            model=ModelSpec("lstm", 6, 3, 4),
            train=training.TrainConfig(epochs=25, washout=20),
            mhe=mhe.MheConfig(N=5, washout=20),
            n_eval_sequences=2,
            adapt_time=20.0,
        )
        cfg_path = workdir / "train.json"
        cfg_path.write_text(json.dumps(config.to_dict(), indent=1))
        print(f"config written to {cfg_path}")
        print(f"config hash: {config.config_hash()[:16]}...")

        print("\n$ mhenet train --config train.json")
        rc = cli.main(["train", "--config", str(cfg_path)])
        print(f"exit code: {rc}")

        manifest = experiments.RunManifest.load(workdir / "train_run" / "manifest.json")
        print("\nmanifest artifacts:")
        for name, info in manifest.artifacts.items():
            print(f"  {name:<14} {info['bytes']:>7} bytes  sha256 {info['sha256'][:12]}...")
        print("metrics:", {k: round(v, 6) if isinstance(v, float) else v
                           for k, v in manifest.metrics.items()
                           if not isinstance(v, list)})

        # A second stage picks up the first stage's artifacts via model_dir.
        eval_cfg = json.loads(cfg_path.read_text())
        eval_cfg.update(tag="drift-eval", model_dir=str(workdir / "train_run"),
                        out_dir=str(workdir / "eval_run"))
        eval_path = workdir / "eval.json"
        eval_path.write_text(json.dumps(eval_cfg))
        print("\n$ mhenet drift-eval --config eval.json")
        rc = cli.main(["drift-eval", "--config", str(eval_path)])
        print(f"exit code: {rc}")

        # Config errors are diagnosed up front and exit with code 1.
        bad = dict(eval_cfg, seed="not-an-int")
        bad_path = workdir / "bad.json"
        bad_path.write_text(json.dumps(bad))
        print("\n$ mhenet drift-eval --config bad.json   (seed is not an integer)")
        rc = cli.main(["drift-eval", "--config", str(bad_path)])
        print(f"exit code: {rc}")


# adapt, sweep and drift-eval build their evaluation set in a spawned
# worker process, which imports this file: run only when executed
if __name__ == "__main__":
    main()
