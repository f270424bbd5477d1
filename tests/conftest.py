import contextlib

import numpy as np
import pytest

from mhenet import models, plant


ALL_SPECS = {
    "lstm": models.ModelSpec("lstm", 3, 4, 2),
    "gru": models.ModelSpec("gru", 3, 4, 2),
    "esn": models.ModelSpec("esn", 3, 5, 2, spectral_radius=0.9, leak_rate=0.8),
    "nnarx": models.ModelSpec("nnarx", 2, 0, 1, order=2, mlp_width=3),
    "linear": models.ModelSpec("linear", 2, 0, 2),
}


def random_params(spec, rng, scale=0.3):
    """Random trainable weights around the seeded init (reservoir kept)."""
    p = models.init_params(spec, int(rng.integers(1 << 31)), "uniform")
    vals = p.values.copy()
    mask = models.trainable_mask(spec)
    vals[mask] += rng.normal(scale=scale, size=int(mask.sum()))
    return p.replace_values(vals)


def fd_gradient(spec, params, x0, inputs, targets, h=1e-6):
    """Central finite differences of the window loss, trainable coords only."""
    vals = params.values
    g = np.zeros_like(vals)
    mask = models.trainable_mask(spec)
    for j in np.flatnonzero(mask):
        vp, vm = vals.copy(), vals.copy()
        vp[j] += h
        vm[j] -= h
        lp, _ = models.window_loss_and_gradient(spec, params.replace_values(vp), x0, inputs, targets)
        lm, _ = models.window_loss_and_gradient(spec, params.replace_values(vm), x0, inputs, targets)
        g[j] = (lp - lm) / (2 * h)
    return g


# Reference plant kernel: the balances and RK4 as plain (..., 4) array
# expressions, checked per call.  The channel-row kernel of mhenet.plant
# must give the same bits on every path, so parity tests use np.array_equal.
def reference_rates(T2, params):
    T2 = np.asarray(T2, dtype=float)
    if np.any(T2 <= 0):
        raise ValueError("temperature must be positive")
    kA2 = params.kA * np.exp(-params.EA_over_R / T2)
    kB2 = params.kB * np.exp(-params.EB_over_R / T2)
    return kA2, kB2


def reference_derivatives(state, inp, params):
    state = np.asarray(state, dtype=float)
    inp = np.asarray(inp, dtype=float)
    H2, xA2, xB2, T2 = (state[..., i] for i in range(4))
    H1, xA1, xB1, T1, F20, Q2 = (inp[..., i] for i in range(6))
    if np.any(H2 <= 0):
        raise ValueError("H2 must be positive (level balance divides by H2)")
    kA2, kB2 = reference_rates(T2, params)
    F1 = params.kv1 * H1
    F2 = params.kv2 * H2
    rhoA = params.rho * params.A2
    hold = rhoA * H2
    dH2 = (F20 + F1 - F2) / rhoA
    dxA2 = (F20 * params.xA0 + F1 * xA1 - F2 * xA2) / hold - kA2 * xA2
    dxB2 = (F1 * xB1 - F2 * xB2) / hold + kA2 * xA2 - kB2 * xB2
    dT2 = ((F20 * params.T0 + F1 * T1 - F2 * T2) / hold
           - (kA2 * xA2 * params.dHA + kB2 * xB2 * params.dHB) / params.Cp
           + Q2 / (hold * params.Cp))
    return np.stack([dH2, dxA2, dxB2, dT2], axis=-1)


def reference_step(state, inp, params, dt, substeps=10):
    if dt <= 0 or substeps < 1:
        raise ValueError("dt must be positive and substeps >= 1")
    x = np.asarray(state, dtype=float)
    h = dt / substeps
    for _ in range(substeps):
        k1 = reference_derivatives(x, inp, params)
        k2 = reference_derivatives(x + 0.5 * h * k1, inp, params)
        k3 = reference_derivatives(x + 0.5 * h * k2, inp, params)
        k4 = reference_derivatives(x + h * k3, inp, params)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if np.any(x[..., 0] <= 0) or np.any(x[..., 3] <= 0):
        raise ValueError("state left the validity domain (H2 or T2 <= 0)")
    return x


@contextlib.contextmanager
def reference_plant():
    """Run plant.step, plant.derivatives and a fresh steady-state cache on
    the reference kernel, so drift_run, collect_dataset and steady_state
    go end to end through it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(plant, "step", reference_step)
        mp.setattr(plant, "derivatives", reference_derivatives)
        mp.setattr(plant, "_STEADY_STATE_CACHE", {})
        yield


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
