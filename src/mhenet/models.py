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

The time loops carry only the recurrence.  A forward step writes its
next state into the states buffer and, when a gradient will need them,
its activations into the cache; the readouts y_t = C h_t + d are one
product over the stored states after the loop.

Derivatives are exact reverse-mode accumulation through the unrolled
recursion (no truncation).  Beside each forward cell is its backward
step, in two parts: a block part computes, for a block of steps at once,
all that the adjoint does not enter (derivative factors, dy @ C, the
inputs of the affine maps), and a step part keeps only the recurrence.
One reverse loop over them gives the window-loss gradient, seeded with
the residuals, and the output Jacobian, seeded with every output.  For
the gradient, the weight products of a block are formed by one batched
matmul and added in reverse time, so the result has the bits of a plain
per-step loop, which tests/conftest.py keeps as the reference.  No
pre-activation is clamped: in float64, tanh(x) is exactly +-1 from |x| =
19 up to +-inf, and sigmoid(x) = (1 + tanh(x/2)) / 2 exactly 0 or 1 from
|x| = 38, so a saturated unit has a derivative of exactly 0.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
import functools
import json

import numpy as np

from .plant import check_fields

KINDS = ("lstm", "gru", "esn", "nnarx", "linear")
INIT_SCHEMES = ("zeros", "uniform")

_FROZEN = ("Win", "W", "bres")    # the ESN reservoir: never trained


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
    return np.matmul(W, x[..., None])[..., 0]


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


@functools.cache
def _lstm_gate_consts(n_h):
    """(half, shift) over [f | i | o | g]: half is 1/2 for the gates and 1
    for the candidate, shift is 1 and -0.0.  (tanh(a * half) + shift) *
    half is [sigmoid(a) for the gates | tanh(a)], as sigmoid(a) = (1 +
    tanh(a/2)) / 2, in the bits of separate sigmoid and tanh calls: the
    gates take the same operations, and multiplying by 1 or adding -0.0
    changes no bit of the candidate, not even a zero's sign.
    """
    half, shift = np.full(4 * n_h, 0.5), np.ones(4 * n_h)
    half[3 * n_h:], shift[3 * n_h:] = 1.0, -0.0
    half.flags.writeable = shift.flags.writeable = False
    return half, shift


# One step of each recurrent kind: writes x_{t+1} into ``x_next`` (B, S)
# from the state x_t (B, S) and the input u_t (B, n_u).  ``saved`` is None
# or this step's rows of the ``_new_cache`` arrays, which the step fills.

def _lstm_cell(spec, P, x, u, x_next, saved):
    n_h = spec.n_h
    sg, tc = saved or (None, None)
    half, shift = _lstm_gate_consts(n_h)
    a = _mm(P["Wg"], np.concatenate([u, x[:, n_h:]], axis=1))
    a += P["bg"]
    a *= half
    s = np.tanh(a, out=a if sg is None else sg)
    s += shift
    s *= half                                     # s = [f | i | o | g]
    c2 = s[:, :n_h] * x[:, :n_h]
    c2 += s[:, n_h:2 * n_h] * s[:, 3 * n_h:]
    h2 = s[:, 2 * n_h:3 * n_h] * np.tanh(c2, out=tc)
    np.concatenate([c2, h2], axis=1, out=x_next)


def _gru_cell(spec, P, h, u, h_next, saved):
    n_h = spec.n_h
    s, rh, n = saved or (None, None, None)
    a = _mm(P["Wg"], np.concatenate([u, h], axis=1))
    a += P["bg"]
    a *= 0.5
    s = np.tanh(a, out=a if s is None else s)
    s += 1.0
    s *= 0.5                                      # s = [z | r]
    rh = np.multiply(s[:, n_h:], h, out=rh)
    an = _mm(P["Wn"], np.concatenate([u, rh], axis=1))
    an += P["bn"]
    n = np.tanh(an, out=an if n is None else n)
    zg = s[:, :n_h]
    np.subtract(1.0, zg, out=h_next)
    h_next *= h
    h_next += zg * n


def _esn_cell(spec, P, h, u, h_next, saved):
    pre = _mm(P["Win"], u) + _mm(P["W"], h)
    pre += P["bres"]
    a = spec.leak_rate
    np.multiply(1.0 - a, h, out=h_next)
    h_next += a * np.tanh(pre, out=pre)


def _nnarx_cell(spec, P, x, u, x_next, saved):
    # the state is the regressor; the model output is fed back into it
    h1, = saved or (None,)
    a1 = _mm(P["W1"], x)
    a1 += P["b1"]
    h1 = np.tanh(a1, out=a1 if h1 is None else h1)
    S, blk, n_y = x.shape[1], spec.n_u + spec.n_y, spec.n_y
    x_next[:, :S - blk] = x[:, blk:]
    x_next[:, S - blk:S - n_y] = u
    x_next[:, S - n_y:] = _mm(P["W2"], h1) + P["b2"]


_CELLS = {"lstm": _lstm_cell, "gru": _gru_cell, "esn": _esn_cell,
          "nnarx": _nnarx_cell}


def _new_cache(spec, T, B):
    """What a rollout keeps for its reverse pass: one (T, B, width) array
    per intermediate.  LSTM: the activations [f | i | o | g] and
    tanh(c_{t+1}); GRU: [z | r], r * h and the candidate n; NNARX: the
    hidden layer.  The other inputs of the affine maps are rebuilt from
    ``inputs`` and the states."""
    n_h = spec.n_h
    widths = {"lstm": (4 * n_h, n_h), "gru": (2 * n_h, n_h, n_h),
              "nnarx": (spec.mlp_width,)}.get(spec.kind, ())
    return tuple(np.empty((T, B, width)) for width in widths)


def _rollout(spec, P, x0, inputs, cache):
    """The forward kernel behind every rollout.

    x0: (B, S), inputs: (T, B, n_u), P from ``_unpack``: either one
    weight vector for all B sequences or one per sequence.  Returns
    outputs (T, B, n_y), states (T+1, B, S) and, if ``cache`` is true,
    the ``_new_cache`` arrays for the backward pass (None otherwise).

    The time loop carries only the recurrence: each step writes its next
    state straight into ``states`` and, with a cache, its intermediates
    straight into the cache.  The readouts
    y_t = C h_t + d of the LSTM, GRU and ESN are one product over the
    stored states after the loop.  The NNARX output is fed back into the
    state, so it is computed in the step and read from the states.
    """
    T, B = inputs.shape[0], inputs.shape[1]
    states = np.empty((T + 1, B, x0.shape[1]))
    states[0] = x0
    saved = _new_cache(spec, T, B) if cache else None
    if spec.kind == "linear":
        return _mm(P["K"], inputs), states, saved
    cell = _CELLS[spec.kind]
    for t in range(T):
        cell(spec, P, states[t], inputs[t], states[t + 1],
             saved and [c[t] for c in saved])
    if spec.kind == "nnarx":                      # y_t is the tail of x_{t+1}
        return states[1:, :, -spec.n_y:].copy(), states, saved
    return _mm(P["C"], states[:-1, :, -spec.n_h:]) + P["d"], states, saved


# The reverse pass per kind, in two parts.  The block part takes the
# steps ``sl`` of one block, in reverse time, and returns what no step
# adjoint enters: factors f, the output adjoints mapped into the state
# (dy @ C, or dy itself for NNARX), and per affine map its inputs.  The
# step part maps the adjoints dx of x_{t+1} to those of x_t, given
# ``seed``, row k of the mapped output adjoints, and returns them with
# each affine map's pre-activation adjoint, written into ``out`` when
# given.  Products stay in the order of the plain chain rule, so a step
# gives the bits of a per-step reverse pass.  No mask of saturated
# pre-activations enters: their activation derivatives are exactly 0.

def _lstm_block(spec, P, inputs, states, cache, dy, sl):
    n_h = spec.n_h
    sg, tc = (c[sl] for c in cache)
    s, g = sg[..., :3 * n_h], sg[..., 3 * n_h:]
    # da = [dc2, dc2, dh, dc2] * r1 * r2 * r3, left to right: the gates'
    # [dc2 c_t, dc2 g, dh tanh(c_{t+1})] * s * (1 - s), the candidate's
    # dc2 s_i * 1 * (1 - g^2)
    r1 = np.concatenate([states[sl, :, :n_h], g, tc, sg[..., n_h:2 * n_h]], axis=-1)
    r2 = np.concatenate([s, np.ones_like(g)], axis=-1)
    r3 = np.concatenate([1.0 - s, 1.0 - g * g], axis=-1)
    # dc2 = dc + dh * s_o * (1 - tanh(c_{t+1})^2); dc_t = dc2 * s_f
    f = (P["Wg"], spec.n_u, sg[..., 2 * n_h:3 * n_h], 1.0 - tc * tc,
         sg[..., :n_h], r1, r2, r3)
    z = np.concatenate([inputs[sl], states[sl, :, n_h:]], axis=-1)
    return f, dy @ P["C"], (z,)


def _lstm_back(f, k, dx, seed, out):
    Wg, n_u, so, q, sf, r1, r2, r3 = f
    dc, dh = dx
    dc2 = dh * so[k]
    dc2 *= q[k]
    dc2 += dc
    da = np.concatenate([dc2, dc2, dh, dc2], axis=1, out=out[0])
    da *= r1[k]
    da *= r2[k]
    da *= r3[k]
    dh = (da @ Wg)[:, n_u:]
    dh += seed
    return (dc2 * sf[k], dh), (da,)


def _gru_block(spec, P, inputs, states, cache, dy, sl):
    n_h, n_u = spec.n_h, spec.n_u
    s, rh, n = (c[sl] for c in cache)
    h, u = states[sl], inputs[sl]
    # dan = dh * z * (1 - n^2); ds = [dh, drh] * [n - h, h] * s * (1 - s)
    f = (P["Wn"], P["Wg"], n_u, s[..., :n_h], 1.0 - n * n,
         np.concatenate([n - h, h], axis=-1), s, 1.0 - s, 1.0 - s[..., :n_h], s[..., n_h:])
    return f, dy @ P["C"], (np.concatenate([u, rh], axis=-1),
                            np.concatenate([u, h], axis=-1))


def _gru_back(f, k, dx, seed, out):
    Wn, Wg, n_u, zg, qn, f1, s, f3, omz, r = f
    dh, = dx
    dan = np.multiply(dh, zg[k], out=out[0])
    dan *= qn[k]
    drh = (dan @ Wn)[:, n_u:]
    ds = np.concatenate([dh, drh], axis=1, out=out[1])
    ds *= f1[k]
    ds *= s[k]
    ds *= f3[k]
    dh = dh * omz[k]
    dh += drh * r[k]
    dh += (ds @ Wg)[:, n_u:]
    dh += seed
    return (dh,), (dan, ds)


def _nnarx_block(spec, P, inputs, states, cache, dy, sl):
    h1, = (c[sl] for c in cache)
    f = (P["W2"], P["W1"], 1.0 - h1 * h1, spec.n_u + spec.n_y, spec.n_y)
    return f, dy, (np.ascontiguousarray(h1), np.ascontiguousarray(states[sl]))


def _nnarx_back(f, k, dx, seed, out):
    # x_{t+1} = [x_t[blk:], u_t, y_t]: y_t is also fed back into the state
    W2, W1, q, blk, n_y = f
    dx, = dx
    S = dx.shape[1]
    dy = np.add(seed, dx[:, S - n_y:], out=out[0])
    da1 = np.matmul(dy, W2, out=out[1])
    da1 *= q[k]
    dx_t = da1 @ W1
    dx_t[:, blk:] += dx[:, :S - blk]
    return (dx_t,), (dy, da1)


# per kind: block part, step part, and the (weight, bias) of each affine
# map in the order the step returns their adjoints
_BACKS = {"lstm": (_lstm_block, _lstm_back, (("Wg", "bg"),)),
          "gru": (_gru_block, _gru_back, (("Wn", "bn"), ("Wg", "bg"))),
          "nnarx": (_nnarx_block, _nnarx_back, (("W2", "b2"), ("W1", "b1")))}

# A block of the reverse pass spans at most BLOCK steps, and at most
# BLOCK_ROWS step rows of the rollout's batch (but at least one step), so
# that its buffers stay in cache.  On LSTM 6-10-4 a batch of 100 ran
# fastest at 5-8 steps a block, one sequence at about 32.
BLOCK, BLOCK_ROWS = 32, 512


def _backward(spec, P, inputs, states, cache, dy, rows):
    """The reverse pass of a ``_rollout``, seeded with ``dy`` (T, R, n_y),
    the adjoint of every output.  Returns the gradient summed over the R
    rows, (param_count,), or with ``rows`` one gradient per row, (R,
    param_count); the R rows then seed one sequence with the T*n_y one-hot
    outputs in output order, so rows before t*n_y are still zero at step t
    and only the rows from there on are computed.

    The readout gradients are one contraction over all steps.  The steps
    run in blocks (see ``BLOCK``), latest first.  Per block, everything that
    does not depend on the adjoint is computed at once: the derivative
    factors, dy @ C and the inputs of the affine maps.  Inside a step only
    the recurrence remains: the elementwise chain rule and the product with
    the recurrent weights.  Without ``rows`` each step writes its
    pre-activation adjoints into a block buffer; at the end of the block
    one batched matmul forms every step's weight product, and they are
    added to the running total in reverse time, as a per-step loop would
    add them, so the gradient keeps its bits.  With ``rows`` the per-row
    outer products are added at each step, as a block of them would take
    K times the memory of the gradient.
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
    if spec.kind in _BACKS:
        _reverse_steps(spec, P, inputs, states, cache, dy, rows, grads)
    for k, g in enumerate(_STACKED.get(spec.kind, "")):
        rk = slice(k * n_h, (k + 1) * n_h)      # stacked gate k: a stored block
        grads[f"W{g}"], grads[f"b{g}"] = grads["Wg"][..., rk, :], grads["bg"][..., rk]
    # the trainable blocks lead the stored layout
    return np.concatenate([grads[name].reshape(lead + (-1,))
                           for name in _layout(spec)[0] if name in grads], axis=-1)


def _reverse_steps(spec, P, inputs, states, cache, dy, rows, grads):
    """The blocked reverse loop of ``_backward``; adds into ``grads``."""
    block, back, maps = _BACKS[spec.kind]
    T, R = dy.shape[:2]
    widths = (spec.n_h, spec.n_h) if spec.kind == "lstm" else (states.shape[2],)
    dx = [np.zeros((R, w)) for w in widths]         # LSTM: [dc, dh]
    K = max(1, min(T, BLOCK, BLOCK_ROWS // states.shape[1]))
    if not rows:
        das = [np.empty((K, R, P[b].shape[-1])) for _, b in maps]
    for t1 in range(T, 0, -K):
        t0 = max(t1 - K, 0)
        sl = slice(t1 - 1, t0 - 1 if t0 else None, -1)
        f, seeds, zs = block(spec, P, inputs, states, cache, dy[sl], sl)
        n = t1 - t0
        for k in range(n):
            if not rows:
                dx, _ = back(f, k, dx, seeds[k], [a[k] for a in das])
                continue
            lo = (t1 - 1 - k) * spec.n_y
            new, adj = back(f, k, [d[lo:] for d in dx], seeds[k, lo:], (None,) * len(maps))
            for d, v in zip(dx, new):
                d[lo:] = v
            for (W, b), a, z in zip(maps, adj, zs):
                grads[W][lo:] += a[:, :, None] * z[k][:, None, :]
                grads[b][lo:] += a
        if rows:
            continue
        for (W, b), a, z in zip(maps, das, zs):
            for name, terms in ((W, np.matmul(a[:n].transpose(0, 2, 1), z)),
                                (b, a[:n].sum(axis=1))):
                for term in terms:
                    grads[name] += term


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
                    False)[0]


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
    outputs, states, cache = _rollout(spec, P, x0[None, :], inputs, True)
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
    outputs, states, _ = _rollout(spec, _unpack(spec, params.values), x0, inputs, False)
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
    outputs, states, cache = _rollout(spec, P, x0, inputs, True)
    res = np.subtract(outputs, targets, out=outputs)
    buf = w[:, None, None] * res         # the weighted square, then the adjoints
    buf *= res
    loss = float(np.sum(buf))
    flat = np.zeros(values_size(spec))
    flat[:param_count(spec)] = _backward(spec, P, inputs, states, cache,
                                         np.multiply(2.0 * w[:, None, None], res, out=buf),
                                         rows=False)
    if not (np.isfinite(loss) and np.all(np.isfinite(flat))):
        raise NumericalBlowupError("non-finite loss or gradient")
    return loss, flat
