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

All functions are pure.  One forward kernel per kind serves both a batch
of sequences under one weight vector and a batch of weight vectors on
one sequence, so many rollouts share one vectorized pass.  The LSTM
gates and the GRU update/reset gates are stacked into one affine map
when the weights are unpacked; the stored parameter layout is unchanged.

Derivatives are exact reverse-mode accumulation through the unrolled
recursion (no truncation).  Beside each forward cell is its backward
step; one reverse loop over them gives the window-loss gradient, seeded
with the residuals, and the output Jacobian, seeded with every output.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
import functools
import json

import numpy as np

KINDS = ("lstm", "gru", "esn", "nnarx", "linear")
INIT_SCHEMES = ("zeros", "uniform")

_FROZEN = ("Win", "W", "bres")    # the ESN reservoir: never trained

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
        from .plant import check_fields  # not at the top: plant loads scipy
        check_fields(self, ints=(("n_u", 1), ("n_h", 0), ("n_y", 1), ("order", 0),
                                 ("mlp_width", 0)))
        if self.kind in ("lstm", "gru", "esn") and self.n_h < 1:
            raise ValueError("n_h must be >= 1 for recurrent kinds")
        if self.kind == "nnarx" and (self.order < 1 or self.mlp_width < 1):
            raise ValueError("nnarx needs order >= 1 and mlp_width >= 1")
        if self.kind == "esn" and not (0.0 < self.spectral_radius < 1.0):
            raise ValueError("esn spectral radius target must lie in (0, 1)")
        if not 0.0 < self.leak_rate <= 1.0:  # NaN fails it too
            raise ValueError("leak_rate: must lie in (0, 1]")


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
    if scheme not in INIT_SCHEMES:
        raise ValueError(f"unknown init scheme {scheme!r}")
    rng = np.random.default_rng(seed)
    layout, total = _layout(spec)
    values = np.zeros(total)
    for name, (sl, shape) in layout.items():
        if name in _FROZEN:
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


# Backward steps: from the adjoints dx of x_{t+1} and dy of y_t (R, ...),
# the adjoint of x_t and, per affine map, (weight, bias, pre-activation
# adjoint, input).  Readouts, the ESN's only weights, are left to _backward.

def _lstm_back(spec, P, x, saved, dx, dy):
    n_h = spec.n_h
    z, s, g, tc2, m = saved
    dc, dh = dx[:, :n_h], dx[:, n_h:]
    dc2 = dc + dh * s[:, 2 * n_h:] * (1.0 - tc2 * tc2)
    ds = np.concatenate([dc2 * x[:, :n_h], dc2 * g, dh * tc2], axis=1) * s * (1.0 - s)
    da = np.concatenate([ds, dc2 * s[:, n_h:2 * n_h] * (1.0 - g * g)], axis=1) * m
    dh = (da @ P["Wg"])[:, spec.n_u:] + dy @ P["C"]
    return np.concatenate([dc2 * s[:, :n_h], dh], axis=1), (("Wg", "bg", da, z),)


def _gru_back(spec, P, h, saved, dx, dy):
    n_h, n_u = spec.n_h, spec.n_u
    zin, nin, s, n, m, mn = saved
    zg, r = s[:, :n_h], s[:, n_h:]
    dan = dx * zg * (1.0 - n * n) * mn
    drh = (dan @ P["Wn"])[:, n_u:]
    ds = np.concatenate([dx * (n - h), drh * h], axis=1) * s * (1.0 - s) * m
    dh = dx * (1.0 - zg) + drh * r + (ds @ P["Wg"])[:, n_u:] + dy @ P["C"]
    return dh, (("Wn", "bn", dan, nin), ("Wg", "bg", ds, zin))


def _nnarx_back(spec, P, x, saved, dx, dy):
    # x_{t+1} = [x_t[blk:], u_t, y_t]: y_t is also fed back into the state
    h1, m1 = saved
    S, blk = dx.shape[1], spec.n_u + spec.n_y
    dy = dy + dx[:, S - spec.n_y:]
    da1 = (dy @ P["W2"]) * (1.0 - h1 * h1) * m1
    dx_t = da1 @ P["W1"]
    dx_t[:, blk:] += dx[:, :S - blk]
    return dx_t, (("W2", "b2", dy, h1), ("W1", "b1", da1, x))


_BACKS = {"lstm": _lstm_back, "gru": _gru_back, "nnarx": _nnarx_back}


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


def _backward(spec, P, inputs, states, cache, dy, rows):
    """The reverse pass of a ``_rollout``, seeded with ``dy`` (T, R, n_y),
    the adjoint of every output.  Returns the gradient summed over the R
    rows, (param_count,), or with ``rows`` one gradient per row, (R,
    param_count); the R rows then seed one sequence with the T*n_y one-hot
    outputs in output order, so rows before t*n_y are still zero at step t
    and only the rows from there on are computed.
    """
    n_h, lead = spec.n_h, (dy.shape[1:2] if rows else ())
    grads = {name: np.zeros(lead + a.shape) for name, a in P.items()
             if name not in _FROZEN}
    # sum_t dy_t z_t^T, per row of one sequence (c) or summed over sequences
    readout = "tbi,tcj->bij" if rows else "tbi,tbj->ij"
    if spec.kind == "linear":
        grads["K"] = np.einsum(readout, dy, inputs)                 # y_t = K u_t
    elif spec.kind in ("lstm", "gru", "esn"):
        grads["C"] = np.einsum(readout, dy, states[:-1, :, -n_h:])  # h_t is last
        grads["d"] = dy.sum(axis=0 if rows else (0, 1))
    back = _BACKS.get(spec.kind)
    dx = np.zeros(dy.shape[1:2] + states.shape[2:])
    for t in range(len(dy) - 1, -1, -1) if back else ():
        lo = t * spec.n_y if rows else 0
        dx[lo:], maps = back(spec, P, states[t], cache[t], dx[lo:], dy[t, lo:])
        for W, b, a, z in maps:
            grads[W][lo:] += a[:, :, None] * z[:, None, :] if rows else a.T @ z
            grads[b][lo:] += a if rows else a.sum(0)
    for k, g in enumerate(_STACKED.get(spec.kind, "")):
        rk = slice(k * n_h, (k + 1) * n_h)      # stacked gate k: a stored block
        grads[f"W{g}"], grads[f"b{g}"] = grads["Wg"][..., rk, :], grads["bg"][..., rk]
    # the trainable blocks lead the stored layout
    return np.concatenate([grads[name].reshape(lead + (-1,))
                           for name in _layout(spec)[0] if name in grads], axis=-1)


def batch_param_outputs(spec: ModelSpec, values_batch, x0, inputs) -> np.ndarray:
    """Rollout outputs for a batch of parameter vectors on one window.

    ``values_batch`` is (B, values_size); all rollouts share ``x0``
    (state,) and ``inputs`` (T, n_u).  Returns (T, B, n_y); wrong shapes
    raise DimensionError.  ``convergence.estimate_delta`` evaluates
    hundreds of nearby weight vectors on the same window through it.
    """
    vb = np.asarray(values_batch, dtype=float)
    if vb.ndim != 2 or vb.shape[1] != values_size(spec):
        raise DimensionError("values_batch must be (B, values_size)")
    x0, inputs = _check_io(spec, x0, inputs, window=True)
    B = vb.shape[0]
    return _rollout(spec, _unpack(spec, vb), np.tile(x0, (B, 1)),
                    np.broadcast_to(inputs[:, None, :], (len(inputs), B, spec.n_u)),
                    "outputs")[0]


def output_jacobian(spec: ModelSpec, params: ParamVector, x0,
                    inputs) -> tuple[np.ndarray, np.ndarray]:
    """Exact Jacobian of the stacked rollout outputs: one rollout, then one
    reverse pass seeded with every output.

    Returns (outputs (T, n_y), J (T*n_y, param_count)); row t * n_y + i
    is the gradient of output i at step t w.r.t. the trainable prefix.
    """
    x0, inputs = _check_io(spec, x0, inputs, window=True)
    T, R = len(inputs), len(inputs) * spec.n_y
    P = _unpack(spec, params.values)
    inputs = inputs[:, None, :]                       # a batch of one sequence
    outputs, states, cache = _rollout(spec, P, x0[None, :], inputs, "cache")
    # row r = t * n_y + i seeds output i at step t; all rows share the rollout
    seeds = np.eye(R).reshape(T, spec.n_y, R).transpose(0, 2, 1)
    return outputs[:, 0], _backward(spec, P, inputs, states, cache, seeds, rows=True)


def _check_io(spec, x0, inputs, window=False):
    """x0 and inputs as float arrays; a window is x0 (state,), inputs (T, n_u)."""
    x0 = np.asarray(x0, dtype=float)
    inputs = np.asarray(inputs, dtype=float)
    if x0.shape[-1] != state_size(spec):
        raise DimensionError(f"state length {x0.shape[-1]} != {state_size(spec)}")
    if inputs.shape[-1] != spec.n_u:
        raise DimensionError(f"input width {inputs.shape[-1]} != {spec.n_u}")
    if window and (x0.ndim != 1 or inputs.ndim != 2):
        raise DimensionError("x0 must be (state,) and inputs (T, n_u)")
    return x0, inputs


def _as_batch(spec, x0, inputs):
    """(x0 (B, S), inputs (T, B, n_u), batched) from one sequence or a batch."""
    x0, inputs = _check_io(spec, x0, inputs)
    if inputs.ndim == 3:
        return x0, inputs, True
    return (x0[None, :] if x0.ndim == 1 else x0), inputs[:, None, :], False


def forward_step(spec: ModelSpec, params: ParamVector, state, u):
    """One step of (f, g): returns (next_state, y)."""
    outputs, states = simulate(spec, params, np.atleast_1d(np.asarray(state, dtype=float)),
                               np.asarray(u, dtype=float)[None, :])
    return states[1], outputs[0]


def simulate(spec: ModelSpec, params: ParamVector, x0, inputs):
    """Open-loop rollout: outputs[i] = g(x_i), states[i+1] = f(x_i, u_i).

    ``inputs`` is (T, n_u) or batched (T, B, n_u); outputs/states match.
    Aborts with the failing step index if values go non-finite.
    """
    x0, inputs, batched = _as_batch(spec, x0, inputs)
    if inputs.size == 0:
        raise ValueError("inputs must be nonempty")
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
    x0, inputs, batched = _as_batch(spec, x0, inputs)
    targets = np.asarray(targets, dtype=float)
    targets = targets if batched else targets[:, None, :]
    if len(inputs) != len(targets):
        raise DimensionError("inputs and targets must have equal length")
    if targets.shape[-1] != spec.n_y:
        raise DimensionError(f"target width {targets.shape[-1]} != {spec.n_y}")
    w = np.ones(len(inputs)) if step_weights is None else np.asarray(step_weights, dtype=float)

    P = _unpack(spec, params.values)
    outputs, states, cache = _rollout(spec, P, x0, inputs, "cache")
    res = outputs - targets
    loss = float(np.sum(w[:, None, None] * res * res))
    flat = np.zeros(values_size(spec))
    flat[:param_count(spec)] = _backward(spec, P, inputs, states, cache,
                                         2.0 * w[:, None, None] * res, rows=False)
    if not (np.isfinite(loss) and np.all(np.isfinite(flat))):
        raise NumericalBlowupError("non-finite loss or gradient")
    return loss, flat
