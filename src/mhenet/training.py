"""Offline identification of the nominal network and MSE evaluation.

The network is fit by minimizing the open-loop simulation MSE over the
training sequences, with an initial washout segment excluded from the
loss while the recurrent state synchronizes.  Channels are normalized
to zero mean / unit variance on the training split; all reported MSEs
are in normalized units.
"""

from __future__ import annotations

from dataclasses import dataclass
import json

import numpy as np

from . import models
from .models import ModelSpec, ParamVector
from .plant import check_fields


@dataclass
class Scaler:
    """Per-channel affine normalization fit on the training split."""

    u_shift: np.ndarray
    u_scale: np.ndarray
    y_shift: np.ndarray
    y_scale: np.ndarray

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
        d = json.loads(text)
        return cls(**{k: np.array(v) for k, v in d.items()})


def fit_scaler(sequences) -> Scaler:
    """Mean/std normalization over all samples of the given sequences."""
    U = np.concatenate([s.u for s in sequences], axis=0)
    Y = np.concatenate([s.y for s in sequences], axis=0)
    if not (np.isfinite(U).all() and np.isfinite(Y).all()):
        raise ValueError("non-finite sample; cannot normalize")
    u_scale, y_scale = U.std(axis=0), Y.std(axis=0)
    if np.any(u_scale <= 0) or np.any(y_scale <= 0):
        raise ValueError("zero-variance channel; cannot normalize")
    return Scaler(U.mean(axis=0), u_scale, Y.mean(axis=0), y_scale)


@dataclass
class TrainConfig:
    epochs: int = 1500
    batch_size: int | None = None      # sequences per step; None = full batch
    learning_rate: float = 1e-2
    lr_decay: float = 1.0              # multiplicative, per epoch
    washout: int = 100                 # steps excluded from the loss
    seed: int = 0
    patience: int = 50                 # early stop after this many stale epochs
    init_scheme: str = "uniform"

    def __post_init__(self):
        check_fields(self, ints=(("epochs", 1), ("patience", 1), ("washout", 0), ("seed", 0)),
                     positive=("learning_rate", "lr_decay"),
                     choices=(("init_scheme", models.INIT_SCHEMES),))
        if self.batch_size is not None:
            check_fields(self, ints=(("batch_size", 1),))


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
    """Adam minimization of the washout-excluded open-loop MSE.

    Rollouts start from the zero model state; the washout absorbs the
    transient.  Returns (best params, history) where history rows are
    (epoch, best-so-far train MSE), a non-increasing column.  An epoch's
    MSE is taken at the weights its Adam steps start from, but the best
    params are copied after those steps, so they are one epoch of steps
    past the weights whose MSE the history records.
    """
    if scaler is None:
        scaler = fit_scaler(dataset.train)
    U, Y = _stack(spec, dataset.train, scaler)
    T, B = U.shape[0], U.shape[1]
    if config.washout >= T:
        raise ValueError("washout must be shorter than the sequences")
    w = np.zeros(T)
    w[config.washout:] = 1.0
    n_eff = (T - config.washout) * spec.n_y

    params = models.init_params(spec, config.seed, config.init_scheme)
    theta = params.values.copy()
    n = models.param_count(spec)

    # Adam state over the trainable prefix
    m = np.zeros(n)
    v = np.zeros(n)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    lr = config.learning_rate
    rng = np.random.default_rng(config.seed + 1)

    best = theta.copy()
    best_mse = np.inf
    history = []
    stale = 0
    batch = config.batch_size or B
    t_adam = 0
    for epoch in range(config.epochs):
        order = rng.permutation(B) if batch < B else None
        epoch_mse = 0.0
        for s in range(0, B, batch):
            idx = slice(None) if order is None else order[s:s + batch]  # no copy
            nb = min(batch, B - s)
            x0 = models.zero_state(spec, batch=nb)
            loss, grad = models.window_loss_and_gradient(
                spec, params.replace_values(theta), x0, U[:, idx], Y[:, idx], step_weights=w)
            scale = 1.0 / (n_eff * nb)
            epoch_mse += loss * scale * (nb / B)
            g = grad * scale
            t_adam += 1
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g * g
            mhat = m / (1 - beta1 ** t_adam)
            vhat = v / (1 - beta2 ** t_adam)
            theta[:n] -= lr * mhat / (np.sqrt(vhat) + eps)
        if not np.isfinite(epoch_mse):
            raise FloatingPointError(f"training diverged at epoch {epoch}")
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
