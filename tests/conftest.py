import contextlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import strategies as st

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
    n = models.param_count(spec)
    vals[:n] += rng.normal(scale=scale, size=n)
    return p.replace_values(vals)


@st.composite
def specs(draw, max_n_h=12):
    """Any kind with small random dimensions, at most ``max_n_h`` hidden units."""
    kind = draw(st.sampled_from(models.KINDS))
    n_u, n_y = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    if kind == "nnarx":
        return models.ModelSpec(kind, n_u, 0, n_y, order=draw(st.integers(1, 3)),
                                mlp_width=draw(st.integers(1, 6)))
    if kind == "linear":
        return models.ModelSpec(kind, n_u, 0, n_y)
    return models.ModelSpec(kind, n_u, draw(st.integers(1, max_n_h)), n_y)


def run_python(code, *args):
    """Run ``code`` in a fresh interpreter that imports this mhenet, for
    checks of what a process loads (pytest has imported scipy already);
    returns the JSON object that it prints on its last line."""
    src = pathlib.Path(models.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def fd_gradient(spec, params, x0, inputs, targets, h=1e-6):
    """Central finite differences of the window loss over the trainable
    prefix, (param_count,) like the exact gradient."""
    vals = params.values
    g = np.zeros(models.param_count(spec))
    for j in range(len(g)):
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


# Reference model kernel: one cell per step that returns its readout, its
# next state and its intermediates, and one reverse loop that accumulates
# every weight product per step.  The blocked kernel of mhenet.models must
# give the same bits, so parity tests use np.array_equal.  The reference
# clamps every pre-activation to [-CLIP, CLIP] and masks the clamped
# entries' derivatives; the kernel does neither, and the parity tests show
# that this changes no bit.
CLIP = 50.0


def _ref_mm(W, x):
    if W.ndim == 2:
        return x @ W.T
    return np.einsum("bij,...bj->...bi", W, x, optimize=True)


def _ref_sigmoid(a):
    return 0.5 * (1.0 + np.tanh(0.5 * a))


def _ref_lstm_cell(spec, P, x, u):
    n_h = spec.n_h
    c, h = x[:, :n_h], x[:, n_h:]
    y = _ref_mm(P["C"], h) + P["d"]
    z = np.concatenate([u, h], axis=1)
    a = _ref_mm(P["Wg"], z) + P["bg"]
    m = np.abs(a) < CLIP
    a = np.clip(a, -CLIP, CLIP)
    s = _ref_sigmoid(a[:, :3 * n_h])
    g = np.tanh(a[:, 3 * n_h:])
    c2 = s[:, :n_h] * c + s[:, n_h:2 * n_h] * g
    tc2 = np.tanh(c2)
    return y, np.concatenate([c2, s[:, 2 * n_h:] * tc2], axis=1), (z, s, g, tc2, m)


def _ref_gru_cell(spec, P, h, u):
    n_h = spec.n_h
    y = _ref_mm(P["C"], h) + P["d"]
    zin = np.concatenate([u, h], axis=1)
    a = _ref_mm(P["Wg"], zin) + P["bg"]
    m = np.abs(a) < CLIP
    s = _ref_sigmoid(np.clip(a, -CLIP, CLIP))
    zg, r = s[:, :n_h], s[:, n_h:]
    nin = np.concatenate([u, r * h], axis=1)
    an = _ref_mm(P["Wn"], nin) + P["bn"]
    mn = np.abs(an) < CLIP
    n = np.tanh(np.clip(an, -CLIP, CLIP))
    return y, (1.0 - zg) * h + zg * n, (zin, nin, s, n, m, mn)


def _ref_esn_cell(spec, P, h, u):
    y = _ref_mm(P["C"], h) + P["d"]
    pre = _ref_mm(P["Win"], u) + _ref_mm(P["W"], h) + P["bres"]
    a = spec.leak_rate
    return y, (1.0 - a) * h + a * np.tanh(np.clip(pre, -CLIP, CLIP)), ()


def _ref_nnarx_cell(spec, P, x, u):
    a1 = _ref_mm(P["W1"], x) + P["b1"]
    m1 = np.abs(a1) < CLIP
    h1 = np.tanh(np.clip(a1, -CLIP, CLIP))
    y = _ref_mm(P["W2"], h1) + P["b2"]
    return y, np.concatenate([x[:, spec.n_u + spec.n_y:], u, y], axis=1), (h1, m1)


def _ref_lstm_back(spec, P, x, saved, dx, dy):
    n_h = spec.n_h
    z, s, g, tc2, m = saved
    dc, dh = dx[:, :n_h], dx[:, n_h:]
    dc2 = dc + dh * s[:, 2 * n_h:] * (1.0 - tc2 * tc2)
    ds = np.concatenate([dc2 * x[:, :n_h], dc2 * g, dh * tc2], axis=1) * s * (1.0 - s)
    da = np.concatenate([ds, dc2 * s[:, n_h:2 * n_h] * (1.0 - g * g)], axis=1) * m
    dh = (da @ P["Wg"])[:, spec.n_u:] + dy @ P["C"]
    return np.concatenate([dc2 * s[:, :n_h], dh], axis=1), (("Wg", "bg", da, z),)


def _ref_gru_back(spec, P, h, saved, dx, dy):
    n_h, n_u = spec.n_h, spec.n_u
    zin, nin, s, n, m, mn = saved
    zg, r = s[:, :n_h], s[:, n_h:]
    dan = dx * zg * (1.0 - n * n) * mn
    drh = (dan @ P["Wn"])[:, n_u:]
    ds = np.concatenate([dx * (n - h), drh * h], axis=1) * s * (1.0 - s) * m
    dh = dx * (1.0 - zg) + drh * r + (ds @ P["Wg"])[:, n_u:] + dy @ P["C"]
    return dh, (("Wn", "bn", dan, nin), ("Wg", "bg", ds, zin))


def _ref_nnarx_back(spec, P, x, saved, dx, dy):
    h1, m1 = saved
    S, blk = dx.shape[1], spec.n_u + spec.n_y
    dy = dy + dx[:, S - spec.n_y:]
    da1 = (dy @ P["W2"]) * (1.0 - h1 * h1) * m1
    dx_t = da1 @ P["W1"]
    dx_t[:, blk:] += dx[:, :S - blk]
    return dx_t, (("W2", "b2", dy, h1), ("W1", "b1", da1, x))


_REF_CELLS = {"lstm": _ref_lstm_cell, "gru": _ref_gru_cell, "esn": _ref_esn_cell,
              "nnarx": _ref_nnarx_cell}
_REF_BACKS = {"lstm": _ref_lstm_back, "gru": _ref_gru_back, "nnarx": _ref_nnarx_back}


def reference_rollout(spec, P, x0, inputs, cache):
    T, B = inputs.shape[0], inputs.shape[1]
    states = np.empty((T + 1, B, x0.shape[1]))
    states[0] = x0
    saved = [] if cache else None
    if spec.kind == "linear":
        return _ref_mm(P["K"], inputs), states, saved
    outputs = np.empty((T, B, spec.n_y))
    x = x0
    for t in range(T):
        outputs[t], x, step = _REF_CELLS[spec.kind](spec, P, x, inputs[t])
        states[t + 1] = x
        if saved is not None:
            saved.append(step)
    return outputs, states, saved


def reference_backward(spec, P, inputs, states, cache, dy, rows):
    n_h, lead = spec.n_h, (dy.shape[1:2] if rows else ())
    grads = {name: np.zeros(lead + a.shape) for name, a in P.items()
             if name not in models._FROZEN}
    readout = "tbi,tcj->bij" if rows else "tbi,tbj->ij"
    if spec.kind == "linear":
        grads["K"] = np.einsum(readout, dy, inputs)
    elif spec.kind in ("lstm", "gru", "esn"):
        grads["C"] = np.einsum(readout, dy, states[:-1, :, -n_h:])
        grads["d"] = dy.sum(axis=0 if rows else (0, 1))
    back = _REF_BACKS.get(spec.kind)
    dx = np.zeros(dy.shape[1:2] + states.shape[2:])
    for t in range(len(dy) - 1, -1, -1) if back else ():
        lo = t * spec.n_y if rows else 0
        dx[lo:], maps = back(spec, P, states[t], cache[t], dx[lo:], dy[t, lo:])
        for W, b, a, z in maps:
            grads[W][lo:] += a[:, :, None] * z[:, None, :] if rows else a.T @ z
            grads[b][lo:] += a if rows else a.sum(0)
    for k, g in enumerate(models._STACKED.get(spec.kind, "")):
        rk = slice(k * n_h, (k + 1) * n_h)
        grads[f"W{g}"], grads[f"b{g}"] = grads["Wg"][..., rk, :], grads["bg"][..., rk]
    return np.concatenate([grads[name].reshape(lead + (-1,))
                           for name in models._layout(spec)[0] if name in grads], axis=-1)


@contextlib.contextmanager
def reference_kernel():
    """Run every rollout and reverse pass of mhenet.models on the reference
    kernel, so simulate, window_loss_and_gradient, output_jacobian and
    batch_param_outputs go end to end through it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(models, "_rollout", reference_rollout)
        mp.setattr(models, "_backward", reference_backward)
        yield


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
