"""Offline training of an LSTM surrogate for the reactor.

A single-layer LSTM is trained to reproduce the reactor's open-loop
response: given the 6 plant inputs it predicts the 4 measured states
one step at a time, rolled out from its own internal state.  Training
minimizes the open-loop (simulation) MSE over whole sequences with the
initial transient excluded by a washout, using full-batch Adam on the
exact backpropagation-through-time gradient.

This demo uses a reduced dataset and network so it finishes in under a
minute; the full benchmark uses an LSTM with 10 hidden units trained
on 20 sequences of 1000 samples.
"""

import numpy as np

from mhenet import models, plant, training
from mhenet.models import ModelSpec

spec = ModelSpec("lstm", 6, 4, 4)
print(f"LSTM(6 inputs, 4 hidden, 4 outputs): "
      f"{models.param_count(spec)} trainable weights")

ds = plant.collect_dataset(
    plant.DatasetConfig(n_sequences=6, seq_len=400, n_train=4, n_test=2),
    seed=0)
scaler = training.fit_scaler(ds.train)   # per-channel zero-mean/unit-variance

cfg = training.TrainConfig(epochs=400, learning_rate=1e-2, washout=50, seed=1)
params, history = training.train_offline(spec, ds, cfg, scaler=scaler)

print("\nTraining history (best-so-far normalized train MSE):")
for epoch, train_mse in history[:: max(1, len(history) // 8)]:
    print(f"  epoch {epoch:4d}   {train_mse:.4e}")
print(f"  epoch {history[-1][0]:4d}   {history[-1][1]:.4e}  (final)")

report = training.evaluate_mse(spec, params, ds.test, cfg.washout, scaler)
print("\nHeld-out open-loop MSE per channel (normalized units):")
for name, mse in zip(plant.STATE_COLUMNS, report.channel_mse):
    print(f"  {name:>4}: {mse:.4e}")
print(f"  avg : {report.average:.4e}")

# Weights serialize to JSON and reload exactly.
back = models.ParamVector.from_json(params.to_json())
print("\nJSON round-trip exact:", np.array_equal(back.values, params.values))
