"""Offline identification of the nominal network and MSE evaluation.

The network is fit by minimizing the open-loop simulation MSE over the
training sequences, with an initial washout segment excluded from the
loss while the recurrent state synchronizes.  Channels are normalized
to zero mean / unit variance on the training split; all reported MSEs
are in normalized units.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
import json

import numpy as np

from . import models
from .models import ModelSpec, ParamVector
from .plant import check_fields


@dataclass
class Scaler:
    """Per-channel affine normalization fit on the training split; the
    shifts and scales are finite, the scales positive."""

    u_shift: np.ndarray
    u_scale: np.ndarray
    y_shift: np.ndarray
    y_scale: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            setattr(self, f.name, value := np.asarray(getattr(self, f.name), dtype=float))
            if not np.isfinite(value).all():
                raise ValueError(f"{f.name}: non-finite entry; cannot normalize")
        if not ((self.u_scale > 0).all() and (self.y_scale > 0).all()):
            raise ValueError("zero-variance channel: a scale <= 0 cannot normalize")

    def scale_u(self, u):
        return (np.asarray(u, dtype=float) - self.u_shift) / self.u_scale

    def scale_y(self, y):
        return (np.asarray(y, dtype=float) - self.y_shift) / self.y_scale

    def unscale_u(self, u):
        return np.asarray(u, dtype=float) * self.u_scale + self.u_shift

    def unscale_y(self, y):
        return np.asarray(y, dtype=float) * self.y_scale + self.y_shift

    def to_json(self):
        return json.dumps({k: list(getattr(self, k)) for k in
                           ("u_shift", "u_scale", "y_shift", "y_scale")})

    @classmethod
    def from_json(cls, text):
        return cls(**json.loads(text))


def fit_scaler(sequences) -> Scaler:
    """Mean/std normalization over all samples of the given sequences."""
    U = np.concatenate([s.u for s in sequences], axis=0)
    Y = np.concatenate([s.y for s in sequences], axis=0)
    if not (np.isfinite(U).all() and np.isfinite(Y).all()):
        raise ValueError("non-finite sample; cannot normalize")
    return Scaler(U.mean(axis=0), U.std(axis=0), Y.mean(axis=0), Y.std(axis=0))


@dataclass
class TrainConfig:
    epochs: int = 1500
    batch_size: None = None            # always None: an epoch is one full-batch step
    learning_rate: float = 1e-2
    lr_decay: float = 1.0              # multiplicative, per epoch
    washout: int = 100                 # steps excluded from the loss
    seed: int = 0
    patience: int = 50                 # early stop after this many stale epochs
    init_scheme: str = "uniform"

    def __post_init__(self):
        check_fields(self, ints=(("epochs", 1), ("patience", 1), ("washout", 0), ("seed", 0)),
                     positive=("learning_rate", "lr_decay"),
                     choices=(("init_scheme", models.INIT_SCHEMES), ("batch_size", (None,))))


@dataclass
class EvalReport:
    """Per-channel and average MSE in normalized units."""

    channel_mse: np.ndarray
    n_sequences: int
    washout: int

    @property
    def average(self):
        return float(np.mean(self.channel_mse))


def _stack(spec, sequences, scaler):
    """(T, B, n) normalized input/output tensors from a list of sequences,
    each scaled straight into its column of a preallocated array."""
    U = np.empty((len(sequences[0].u), len(sequences), spec.n_u))
    Y = np.empty(U.shape[:2] + (spec.n_y,))
    for b, s in enumerate(sequences):
        U[:, b], Y[:, b] = scaler.scale_u(s.u), scaler.scale_y(s.y)
    return U, Y


def train_offline(spec: ModelSpec, dataset, config: TrainConfig,
                  scaler: Scaler | None = None):
    """Full-batch Adam minimization of the washout-excluded open-loop MSE:
    one step per epoch on every training sequence.

    Rollouts start from the zero model state; the washout absorbs the
    transient.  Returns (best params, history) where history rows are
    (epoch, best-so-far train MSE), a non-increasing column.  An epoch's
    MSE is taken at the weights its Adam step starts from, but the best
    params are copied after that step, so they are one step past the
    weights whose MSE the history records.
    """
    if scaler is None:
        scaler = fit_scaler(dataset.train)
    U, Y = _stack(spec, dataset.train, scaler)
    T, B = U.shape[0], U.shape[1]
    if config.washout >= T:
        raise ValueError("washout must be shorter than the sequences")
    w = np.zeros(T)
    w[config.washout:] = 1.0
    x0 = models.zero_state(spec, batch=B)
    scale = 1.0 / ((T - config.washout) * spec.n_y * B)   # loss -> MSE

    params = models.init_params(spec, config.seed, config.init_scheme)
    theta = params.values.copy()
    n = models.param_count(spec)

    # Adam state over the trainable prefix
    m = np.zeros(n)
    v = np.zeros(n)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    lr = config.learning_rate

    best = theta.copy()
    best_mse = np.inf
    history = []
    stale = 0
    for epoch in range(config.epochs):
        # a non-finite loss or gradient raises NumericalBlowupError here
        loss, grad = models.window_loss_and_gradient(
            spec, params.replace_values(theta), x0, U, Y, step_weights=w)
        epoch_mse, g = loss * scale, grad * scale
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** (epoch + 1))
        vhat = v / (1 - beta2 ** (epoch + 1))
        theta[:n] -= lr * mhat / (np.sqrt(vhat) + eps)
        lr *= config.lr_decay
        if epoch_mse < best_mse * (1 - 1e-6):
            best_mse, best, stale = epoch_mse, theta.copy(), 0
        else:
            stale += 1
        history.append((epoch, best_mse))
        if stale >= config.patience:
            break
    return params.replace_values(best), history


def evaluate_mse(spec: ModelSpec, params: ParamVector, sequences, washout: int,
                 scaler: Scaler) -> EvalReport:
    """Open-loop prediction MSE per channel, post-washout, normalized units."""
    if not sequences:
        raise ValueError("no sequences to evaluate")
    U, Y = _stack(spec, sequences, scaler)
    if washout >= len(U):
        raise ValueError("washout must be shorter than the sequences")
    x = models.zero_state(spec, batch=U.shape[1])
    # blocks of BLOCK steps, each from the last state of the one before, so
    # no state history is kept; each block's errors overwrite its targets
    for t0 in range(0, len(U), models.BLOCK):
        try:
            pred, states = models.simulate(spec, params, x, U[t0:t0 + models.BLOCK])
        except models.NumericalBlowupError as exc:    # name the absolute step
            raise models.NumericalBlowupError(f"non-finite values at step {t0 + exc.step}",
                                              step=t0 + exc.step) from None
        x, y = states[-1], Y[t0:t0 + len(pred)]
        np.subtract(pred, y, out=y)
    err = Y[washout:]
    err *= err
    return EvalReport(np.mean(err, axis=(0, 1)), n_sequences=U.shape[1], washout=washout)
