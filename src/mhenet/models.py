"""Recurrent network architectures as discrete-time dynamical systems.

Every model is described by

    x_{k+1} = f(x_k, u_k; theta)
    y_k     = g(x_k; theta)

with all weights flattened into a single real vector, so that the whole
network can be treated as the decision variable of a nonlinear
least-squares problem.  Five kinds are supported:

* ``lstm``   -- single-layer LSTM (forget/input/output gates, tanh
  candidate), affine readout of the hidden state.
* ``gru``    -- single-layer GRU (update/reset gates), affine readout.
* ``esn``    -- leaky-integrator echo state network; the reservoir is
  generated once and frozen, only the affine readout is trainable.
* ``nnarx``  -- one-hidden-layer feedforward map over the last ``p``
  measured inputs and outputs; the state is the regressor itself.
* ``linear`` -- stateless map y = K u, mainly useful as an analytically
  solvable stand-in in tests and diagnostics.

Gradients of windowed squared-error losses are computed by exact
backward accumulation through the unrolled recursion (no truncation).
All functions are pure.  One forward kernel per kind serves both a batch
of sequences under one weight vector and a batch of weight vectors on
one sequence, so many rollouts share one vectorized pass.  The LSTM
gates and the GRU update/reset gates are stacked into one affine map
when the weights are unpacked; the stored parameter layout is unchanged.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
import functools
import json

import numpy as np

KINDS = ("lstm", "gru", "esn", "nnarx", "linear")

# Pre-activations are clamped here before sigmoids/tanh; a no-op in the
# benchmark's operating range, it only guards against overflow blow-ups.
CLIP = 50.0


class DimensionError(ValueError):
    """An argument's shape does not match the model spec."""


class NumericalBlowupError(FloatingPointError):
    """A rollout produced non-finite values."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class ModelSpec:
    """Architecture descriptor: which f/g family and its dimensions."""

    kind: str
    n_u: int
    n_h: int
    n_y: int
    # nnarx only
    order: int = 0
    mlp_width: int = 0
    # esn only
    spectral_radius: float = 0.9
    leak_rate: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.n_u < 1 or self.n_y < 1:
            raise ValueError("n_u and n_y must be >= 1")
        if self.kind in ("lstm", "gru", "esn") and self.n_h < 1:
            raise ValueError("n_h must be >= 1 for recurrent kinds")
        if self.kind == "nnarx" and (self.order < 1 or self.mlp_width < 1):
            raise ValueError("nnarx needs order >= 1 and mlp_width >= 1")
        if self.kind == "esn" and not (0.0 < self.spectral_radius < 1.0):
            raise ValueError("esn spectral radius target must lie in (0, 1)")


def state_size(spec: ModelSpec) -> int:
    """Length of the model state vector for this spec."""
    if spec.kind == "lstm":
        return 2 * spec.n_h          # [cell, hidden]
    if spec.kind in ("gru", "esn"):
        return spec.n_h
    if spec.kind == "nnarx":
        return spec.order * (spec.n_u + spec.n_y)
    return 0                          # linear


@functools.cache
def _layout(spec: ModelSpec):
    """Mapping name -> (slice, shape) into the flat parameter vector.

    Trainable blocks come first so that ``param_count`` is a prefix
    length; for the ESN the frozen reservoir blocks follow the readout.
    The result is cached per spec and shared: callers must not mutate it.
    """
    blocks = []
    if spec.kind == "lstm":
        nz = spec.n_u + spec.n_h
        for gate in ("f", "i", "o", "c"):
            blocks += [(f"W{gate}", (spec.n_h, nz)), (f"b{gate}", (spec.n_h,))]
        blocks += [("C", (spec.n_y, spec.n_h)), ("d", (spec.n_y,))]
    elif spec.kind == "gru":
        nz = spec.n_u + spec.n_h
        for gate in ("z", "r", "n"):
            blocks += [(f"W{gate}", (spec.n_h, nz)), (f"b{gate}", (spec.n_h,))]
        blocks += [("C", (spec.n_y, spec.n_h)), ("d", (spec.n_y,))]
    elif spec.kind == "esn":
        blocks += [("C", (spec.n_y, spec.n_h)), ("d", (spec.n_y,)),
                   ("Win", (spec.n_h, spec.n_u)), ("W", (spec.n_h, spec.n_h)),
                   ("bres", (spec.n_h,))]
    elif spec.kind == "nnarx":
        reg = spec.order * (spec.n_u + spec.n_y)
        blocks += [("W1", (spec.mlp_width, reg)), ("b1", (spec.mlp_width,)),
                   ("W2", (spec.n_y, spec.mlp_width)), ("b2", (spec.n_y,))]
    else:  # linear
        blocks += [("K", (spec.n_y, spec.n_u))]
    out, off = {}, 0
    for name, shape in blocks:
        n = int(np.prod(shape))
        out[name] = (slice(off, off + n), shape)
        off += n
    return out, off


def param_count(spec: ModelSpec) -> int:
    """Number of trainable scalars (ESN: readout only)."""
    if spec.kind == "esn":
        return spec.n_y * (spec.n_h + 1)
    return values_size(spec)


def values_size(spec: ModelSpec) -> int:
    """Length of the stored parameter vector, frozen entries included."""
    return _layout(spec)[1]


def trainable_mask(spec: ModelSpec) -> np.ndarray:
    """Boolean mask over the stored vector: True where a decision variable."""
    mask = np.zeros(values_size(spec), dtype=bool)
    mask[: param_count(spec)] = True
    return mask


@dataclass
class ParamVector:
    """Flat weight vector tied to its spec.  Immutable by convention."""

    spec: ModelSpec
    values: np.ndarray
    seed: int | None = None
    scheme: str | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (values_size(self.spec),):
            raise DimensionError(
                f"expected {values_size(self.spec)} values, got {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("parameter vector contains non-finite entries")

    def view(self, name):
        sl, shape = _layout(self.spec)[0][name]
        return self.values[sl].reshape(shape)

    def replace_values(self, values) -> "ParamVector":
        return ParamVector(self.spec, np.array(values, dtype=float),
                           seed=self.seed, scheme=self.scheme)

    def to_json(self, created_at=None) -> str:
        return json.dumps({
            "spec": asdict(self.spec),
            "values": [float(v) for v in self.values],
            "seed": self.seed,
            "scheme": self.scheme,
            "created_at": created_at,
        })

    @classmethod
    def from_json(cls, text) -> "ParamVector":
        d = json.loads(text)
        return cls(ModelSpec(**d["spec"]), np.array(d["values"]),
                   seed=d.get("seed"), scheme=d.get("scheme"))


def init_params(spec: ModelSpec, seed: int, scheme: str = "uniform") -> ParamVector:
    """Deterministic weight initialization.

    Schemes: ``zeros`` and ``uniform`` (U(-r, r) with r = 1/sqrt(fan_in)
    per matrix, biases zero).  For the ESN the reservoir is always drawn
    and rescaled so its spectral radius equals the spec target; the
    chosen scheme only affects the readout.
    """
    if scheme not in ("zeros", "uniform"):
        raise ValueError(f"unknown init scheme {scheme!r}")
    rng = np.random.default_rng(seed)
    layout, total = _layout(spec)
    values = np.zeros(total)
    for name, (sl, shape) in layout.items():
        if name in ("Win", "W", "bres"):
            continue  # reservoir handled below
        if scheme == "uniform" and len(shape) == 2:
            r = 1.0 / np.sqrt(shape[1])
            values[sl] = rng.uniform(-r, r, size=sl.stop - sl.start)
    if spec.kind == "esn":
        sl, shape = layout["Win"]
        values[sl] = rng.uniform(-0.5, 0.5, size=sl.stop - sl.start)
        sl, shape = layout["W"]
        W = rng.normal(size=shape)
        rho = np.max(np.abs(np.linalg.eigvals(W)))
        W *= spec.spectral_radius / rho
        values[sl] = W.ravel()
        sl, _ = layout["bres"]
        values[sl] = rng.uniform(-0.1, 0.1, size=sl.stop - sl.start)
    return ParamVector(spec, values, seed=seed, scheme=scheme)


def _sigmoid(a):
    return 0.5 * (1.0 + np.tanh(0.5 * a))


# Gates that share one input and are stacked into one affine map at
# unpack time, in stored-layout order.
_STACKED = {"lstm": "fioc", "gru": "zr"}


def _unpack(spec: ModelSpec, values):
    """Weight blocks by name, from (values_size,) or (B, values_size) values.

    A batch of vectors gives blocks with a leading (B,) axis.  The
    ``_STACKED`` gates become one matrix ``Wg`` and one bias ``bg``.
    """
    lead = values.shape[:-1]
    P = {name: values[..., sl].reshape(lead + shape)
         for name, (sl, shape) in _layout(spec)[0].items()}
    gates = _STACKED.get(spec.kind, "")
    if gates:
        P["Wg"] = np.concatenate([P.pop(f"W{g}") for g in gates], axis=-2)
        P["bg"] = np.concatenate([P.pop(f"b{g}") for g in gates], axis=-1)
    return P


def _mm(W, x):
    """x @ W.T, where W is (m, n) or a batch (B, m, n) and x is (..., B, n)."""
    if W.ndim == 2:
        return x @ W.T
    return np.einsum("bij,...bj->...bi", W, x, optimize=True)


def zero_state(spec: ModelSpec, batch: int | None = None) -> np.ndarray:
    n = state_size(spec)
    return np.zeros(n) if batch is None else np.zeros((batch, n))


def nnarx_state(spec: ModelSpec, us, ys) -> np.ndarray:
    """Regressor state from the last ``order`` measured (u, y) pairs.

    ``us``/``ys`` are sequences ordered oldest first, exactly ``order``
    entries each; the state is their concatenation [u, y, u, y, ...].
    """
    if spec.kind != "nnarx":
        raise ValueError("nnarx_state only applies to nnarx specs")
    us, ys = np.atleast_2d(us), np.atleast_2d(ys)
    if us.shape != (spec.order, spec.n_u) or ys.shape != (spec.order, spec.n_y):
        raise DimensionError("need exactly `order` past inputs and outputs")
    return np.concatenate([np.concatenate([u, y]) for u, y in zip(us, ys)])


# One step of each recurrent kind: (y_t, x_{t+1}, intermediates kept for
# the backward pass) from the state x_t (B, S) and the input u_t (B, n_u).

def _lstm_cell(spec, P, x, u):
    n_h = spec.n_h
    c, h = x[:, :n_h], x[:, n_h:]
    y = _mm(P["C"], h) + P["d"]
    z = np.concatenate([u, h], axis=1)
    a = _mm(P["Wg"], z) + P["bg"]
    m = np.abs(a) < CLIP
    a = np.clip(a, -CLIP, CLIP)
    s = _sigmoid(a[:, :3 * n_h])              # [f | i | o]
    g = np.tanh(a[:, 3 * n_h:])
    c2 = s[:, :n_h] * c + s[:, n_h:2 * n_h] * g
    tc2 = np.tanh(c2)
    return y, np.concatenate([c2, s[:, 2 * n_h:] * tc2], axis=1), (z, s, g, tc2, m)


def _gru_cell(spec, P, h, u):
    n_h = spec.n_h
    y = _mm(P["C"], h) + P["d"]
    zin = np.concatenate([u, h], axis=1)
    a = _mm(P["Wg"], zin) + P["bg"]
    m = np.abs(a) < CLIP
    s = _sigmoid(np.clip(a, -CLIP, CLIP))     # [z | r]
    zg, r = s[:, :n_h], s[:, n_h:]
    nin = np.concatenate([u, r * h], axis=1)
    an = _mm(P["Wn"], nin) + P["bn"]
    mn = np.abs(an) < CLIP
    n = np.tanh(np.clip(an, -CLIP, CLIP))
    return y, (1.0 - zg) * h + zg * n, (zin, nin, s, n, m, mn)


def _esn_cell(spec, P, h, u):
    y = _mm(P["C"], h) + P["d"]
    pre = _mm(P["Win"], u) + _mm(P["W"], h) + P["bres"]
    a = spec.leak_rate
    return y, (1.0 - a) * h + a * np.tanh(np.clip(pre, -CLIP, CLIP)), ()


def _nnarx_cell(spec, P, x, u):
    # the state is the regressor; the model output is fed back into it
    a1 = _mm(P["W1"], x) + P["b1"]
    m1 = np.abs(a1) < CLIP
    h1 = np.tanh(np.clip(a1, -CLIP, CLIP))
    y = _mm(P["W2"], h1) + P["b2"]
    return y, np.concatenate([x[:, spec.n_u + spec.n_y:], u, y], axis=1), (h1, m1)


_CELLS = {"lstm": _lstm_cell, "gru": _gru_cell, "esn": _esn_cell,
          "nnarx": _nnarx_cell}


def _rollout(spec, P, x0, inputs, keep):
    """The forward kernel behind every rollout.

    x0: (B, S), inputs: (T, B, n_u), P from ``_unpack``: either one
    weight vector for all B sequences or one per sequence.  ``keep`` is
    ``"outputs"``, ``"states"`` or ``"cache"``.  Returns outputs
    (T, B, n_y), states (T+1, B, S) unless only outputs are kept, and
    the per-step intermediates for the backward pass when ``keep`` is
    ``"cache"`` (None otherwise).
    """
    T, B = inputs.shape[0], inputs.shape[1]
    states = None
    if keep != "outputs":
        states = np.empty((T + 1, B, x0.shape[1]))
        states[0] = x0
    cache = [] if keep == "cache" else None
    if spec.kind == "linear":
        return _mm(P["K"], inputs), states, cache

    cell = _CELLS[spec.kind]
    outputs = np.empty((T, B, spec.n_y))
    x = x0
    for t in range(T):
        outputs[t], x, saved = cell(spec, P, x, inputs[t])
        if states is not None:
            states[t + 1] = x
        if cache is not None:
            cache.append(saved)
    return outputs, states, cache


def batch_param_outputs(spec: ModelSpec, values_batch, x0, inputs) -> np.ndarray:
    """Rollout outputs for a batch of parameter vectors on one window.

    ``values_batch`` is (B, values_size); all rollouts share ``x0``
    (state,) and ``inputs`` (T, n_u).  Returns (T, B, n_y); wrong shapes
    raise DimensionError.  This is the workhorse behind
    ``output_jacobian`` and ``convergence.estimate_delta``, which evaluate
    hundreds of nearby weight vectors on the same window.
    """
    vb = np.asarray(values_batch, dtype=float)
    if vb.ndim != 2 or vb.shape[1] != values_size(spec):
        raise DimensionError("values_batch must be (B, values_size)")
    x0, inputs = _check_io(spec, x0, inputs)
    if x0.ndim != 1 or inputs.ndim != 2:
        raise DimensionError("x0 must be (state,) and inputs (T, n_u)")
    B = vb.shape[0]
    outputs, _, _ = _rollout(spec, _unpack(spec, vb), np.tile(x0, (B, 1)),
                             np.broadcast_to(inputs[:, None, :], (len(inputs), B, spec.n_u)),
                             "outputs")
    return outputs


def output_jacobian(spec: ModelSpec, params: ParamVector, x0, inputs,
                    h: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference Jacobian of the stacked rollout outputs.

    Returns (outputs (T, n_y), J (T*n_y, param_count)) where column j is
    the sensitivity to trainable coordinate j, all columns evaluated in
    one batched pass.
    """
    n = param_count(spec)           # the trainable coordinates are a prefix
    cols = np.arange(n)
    batch = np.tile(params.values, (2 * n + 1, 1))
    batch[2 * cols, cols] += h
    batch[2 * cols + 1, cols] -= h
    outs = batch_param_outputs(spec, batch, x0, inputs)
    J = ((outs[:, 0:-1:2] - outs[:, 1:-1:2]) / (2 * h)).transpose(0, 2, 1)
    return outs[:, -1, :], J.reshape(-1, n)      # row t * n_y + i


def _check_io(spec, x0, inputs):
    x0 = np.asarray(x0, dtype=float)
    inputs = np.asarray(inputs, dtype=float)
    if x0.shape[-1] != state_size(spec):
        raise DimensionError(f"state length {x0.shape[-1]} != {state_size(spec)}")
    if inputs.shape[-1] != spec.n_u:
        raise DimensionError(f"input width {inputs.shape[-1]} != {spec.n_u}")
    return x0, inputs


def forward_step(spec: ModelSpec, params: ParamVector, state, u):
    """One step of (f, g): returns (next_state, y)."""
    state, u = _check_io(spec, np.atleast_1d(np.asarray(state, dtype=float)), u)
    outputs, states, _ = _rollout(spec, _unpack(spec, params.values), state[None, :],
                                  u[None, None, :], "states")
    next_state, y = states[1, 0], outputs[0, 0]
    if not (np.all(np.isfinite(next_state)) and np.all(np.isfinite(y))):
        raise NumericalBlowupError("non-finite result in forward_step", step=0)
    return next_state, y


def simulate(spec: ModelSpec, params: ParamVector, x0, inputs):
    """Open-loop rollout: outputs[i] = g(x_i), states[i+1] = f(x_i, u_i).

    ``inputs`` is (T, n_u) or batched (T, B, n_u); outputs/states match.
    Aborts with the failing step index if values go non-finite.
    """
    x0 = np.asarray(x0, dtype=float)
    inputs = np.asarray(inputs, dtype=float)
    if inputs.size == 0:
        raise ValueError("inputs must be nonempty")
    batched = inputs.ndim == 3
    if not batched:
        inputs = inputs[:, None, :]
        x0 = x0[None, :] if x0.ndim == 1 else x0
    x0, inputs = _check_io(spec, x0, inputs)
    outputs, states, _ = _rollout(spec, _unpack(spec, params.values), x0, inputs, "states")
    if not (np.all(np.isfinite(outputs)) and np.all(np.isfinite(states))):
        ok = (np.all(np.isfinite(outputs), axis=(1, 2))
              & np.all(np.isfinite(states[1:]), axis=(1, 2)))
        bad = int(np.argmax(~ok))
        raise NumericalBlowupError(f"non-finite values at step {bad}", step=bad)
    if batched:
        return outputs, states
    return outputs[:, 0, :], states[:, 0, :]


def window_loss_and_gradient(spec: ModelSpec, params: ParamVector, x0,
                             inputs, targets, step_weights=None):
    """Squared-error window loss and its exact reverse-mode gradient.

    loss = sum_t w_t * ||targets_t - y_t||^2, gradient w.r.t. every
    entry of the stored parameter vector (zeros on frozen reservoir
    coordinates).  Accepts single sequences (T, n) or batches (T, B, n).
    """
    x0 = np.asarray(x0, dtype=float)
    inputs = np.asarray(inputs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    batched = inputs.ndim == 3
    if not batched:
        inputs = inputs[:, None, :]
        targets = targets[:, None, :]
        x0 = x0[None, :] if x0.ndim == 1 else x0
    if len(inputs) != len(targets):
        raise DimensionError("inputs and targets must have equal length")
    if targets.shape[-1] != spec.n_y:
        raise DimensionError(f"target width {targets.shape[-1]} != {spec.n_y}")
    x0, inputs = _check_io(spec, x0, inputs)
    T, B = inputs.shape[0], inputs.shape[1]
    w = np.ones(T) if step_weights is None else np.asarray(step_weights, dtype=float)

    P = _unpack(spec, params.values)
    outputs, states, cache = _rollout(spec, P, x0, inputs, "cache")
    res = outputs - targets
    loss = float(np.sum(w[:, None, None] * res * res))
    dy = 2.0 * w[:, None, None] * res          # (T, B, n_y)
    n_h, n_u = spec.n_h, spec.n_u

    grads = {}
    if spec.kind in ("lstm", "gru", "esn"):
        # affine readout of the hidden state (the last n_h state entries);
        # for the ESN it is all that is trainable
        grads["C"] = np.einsum("tbi,tbj->ij", dy, states[:-1, :, -n_h:])
        grads["d"] = dy.sum(axis=(0, 1))
    if spec.kind == "linear":
        # y_t = K u_t
        grads["K"] = np.einsum("tbi,tbj->ij", dy, inputs)
    elif spec.kind == "lstm":
        C, Wg = P["C"], P["Wg"]
        gW, gb = np.zeros(Wg.shape), np.zeros(4 * n_h)
        dc_next = np.zeros((B, n_h))
        dh_next = np.zeros_like(dc_next)
        for t in range(T - 1, -1, -1):
            z, s, g, tc2, m = cache[t]
            f, i, o = s[:, :n_h], s[:, n_h:2 * n_h], s[:, 2 * n_h:]
            c_t = states[t][:, :n_h]
            do = dh_next * tc2
            dc2 = dc_next + dh_next * o * (1.0 - tc2 * tc2)
            ds = np.concatenate([dc2 * c_t, dc2 * g, do], axis=1) * s * (1.0 - s)
            da = np.concatenate([ds, dc2 * i * (1.0 - g * g)], axis=1) * m
            gW += da.T @ z
            gb += da.sum(0)
            dc_next = dc2 * f
            dh_next = (da @ Wg)[:, n_u:] + dy[t] @ C
    elif spec.kind == "gru":
        C, Wg, Wn = P["C"], P["Wg"], P["Wn"]
        gW, gb = np.zeros(Wg.shape), np.zeros(2 * n_h)
        gWn, gbn = np.zeros(Wn.shape), np.zeros(n_h)
        dh_next = np.zeros((B, n_h))
        for t in range(T - 1, -1, -1):
            zin, nin, s, n, m, mn = cache[t]
            zg, r = s[:, :n_h], s[:, n_h:]
            h_t = states[t]
            dan = dh_next * zg * (1.0 - n * n) * mn
            gWn += dan.T @ nin
            gbn += dan.sum(0)
            drh = (dan @ Wn)[:, n_u:]
            dh_t = dh_next * (1.0 - zg) + drh * r
            ds = np.concatenate([dh_next * (n - h_t), drh * h_t], axis=1) * s * (1.0 - s) * m
            gW += ds.T @ zin
            gb += ds.sum(0)
            dh_next = dh_t + (ds @ Wg)[:, n_u:] + dy[t] @ C
        grads.update(Wn=gWn, bn=gbn)
    elif spec.kind == "nnarx":
        W1, W2 = P["W1"], P["W2"]
        blk = n_u + spec.n_y
        S = state_size(spec)
        gW1, gb1 = np.zeros(W1.shape), np.zeros(spec.mlp_width)
        gW2, gb2 = np.zeros(W2.shape), np.zeros(spec.n_y)
        dx_next = np.zeros((B, S))
        for t in range(T - 1, -1, -1):
            h1, m1 = cache[t]
            # x_{t+1} = [x_t[blk:], u_t, y_t]
            dy_tot = dy[t] + dx_next[:, S - spec.n_y:]
            dx_t = np.zeros_like(dx_next)
            dx_t[:, blk:] = dx_next[:, :S - blk]
            gW2 += dy_tot.T @ h1
            gb2 += dy_tot.sum(0)
            da1 = (dy_tot @ W2) * (1.0 - h1 * h1) * m1
            gW1 += da1.T @ states[t]
            gb1 += da1.sum(0)
            dx_t += da1 @ W1
            dx_next = dx_t
        grads.update(W1=gW1, b1=gb1, W2=gW2, b2=gb2)
    for k, g in enumerate(_STACKED.get(spec.kind, "")):
        # the stacked gates' gradient, split back into the stored blocks
        grads[f"W{g}"], grads[f"b{g}"] = gW[k * n_h:(k + 1) * n_h], gb[k * n_h:(k + 1) * n_h]

    # grads holds the trainable blocks, which lead the stored layout
    flat = np.zeros(values_size(spec))
    flat[:param_count(spec)] = np.concatenate(
        [np.ravel(grads[name]) for name in _layout(spec)[0] if name in grads])
    if not (np.isfinite(loss) and np.all(np.isfinite(flat))):
        raise NumericalBlowupError("non-finite loss or gradient")
    return loss, flat
