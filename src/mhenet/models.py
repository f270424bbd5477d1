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
product over the stored states after the loop.  The kernels keep the
batch on the last axis (channel rows), so every slice of a step is one
contiguous block, and form each product as a batch-major kernel would.

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
        check_fields(self, ints=(("n_u", 1), ("n_h", 0), ("n_y", 1), ("order", 0),
                                 ("mlp_width", 0)),
                     positive=("leak_rate",), choices=(("kind", KINDS),))
        if self.kind in ("lstm", "gru", "esn") and self.n_h < 1:
            raise ValueError("n_h: must be >= 1 for recurrent kinds")
        if self.kind == "nnarx" and (self.order < 1 or self.mlp_width < 1):
            raise ValueError("order, mlp_width: nnarx needs both >= 1")
        if self.kind == "esn" and not (0.0 < self.spectral_radius < 1.0):
            raise ValueError("spectral_radius: esn needs it in (0, 1)")
        if self.leak_rate > 1.0:
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

    Trainable blocks come first: the decision variables are the prefix of
    length ``param_count``, and the ESN's frozen reservoir follows its readout.
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
    """Number of trainable scalars: the stored vector's prefix up to the
    first frozen block (ESN: the readout), else all of it."""
    layout, total = _layout(spec)
    return min((layout[name][0].start for name in _FROZEN if name in layout), default=total)


def values_size(spec: ModelSpec) -> int:
    """Length of the stored parameter vector, frozen entries included."""
    return _layout(spec)[1]


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

    def to_json(self) -> str:
        return json.dumps({
            "spec": asdict(self.spec),
            "values": [float(v) for v in self.values],
            "seed": self.seed,
            "scheme": self.scheme,
            "created_at": None,
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


def _c_order(x, m):
    """x, C-ordered if the other operand has one row (m = 1): only then do
    BLAS's matrix-vector and dot kernels and einsum's loops follow x's layout."""
    return np.ascontiguousarray(x) if m == 1 else x


def _mm(W, x):
    """x @ W.T, where W is (m, n) or a batch (B, m, n) and x is (..., B, n)."""
    x = _c_order(x, W.shape[-2])
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


@functools.lru_cache(maxsize=16)
def _lstm_gate_consts(n_h, B):
    """(half, shift), full (B, 4 n_h) arrays over [f | i | o | g], as an
    op on equal shapes is one contiguous loop: half is 1/2 for the gates
    and 1 for the candidate, shift is 1 and -0.0.  (tanh(a * half) + shift)
    * half is [sigmoid(a) = (1 + tanh(a/2)) / 2 | tanh(a)] in the bits of
    separate calls: multiplying by 1 or adding -0.0 changes no bit."""
    half, shift = np.full((B, 4 * n_h), 0.5), np.ones((B, 4 * n_h))
    half[:, 3 * n_h:], shift[:, 3 * n_h:] = 1.0, -0.0
    half.flags.writeable = shift.flags.writeable = False
    return half, shift


# One step of each recurrent kind, in channel rows: writes x_{t+1} into
# ``x_next`` (S, B) from x_t (S, B) and u_t (B, n_u), and fills ``saved``,
# its (width, B) rows of the ``_new_cache`` arrays.  An affine map is
# ``_mm`` on the transposed rows ``z`` of its input; the (B, m) product
# takes bias and activation in place, then is copied into rows (a product
# written into transposed rows would swap its operands and bits).

def _lstm_cell(spec, P, x, u, x_next, saved, z):
    n_h, n_u, (s,), z = spec.n_h, spec.n_u, saved, z[0]
    half, shift = _lstm_gate_consts(n_h, len(u))
    z[:n_u], z[n_u:] = u.T, x[n_h:]
    a = _mm(P["Wg"], z.T)
    a += P["bg"]
    a *= half
    np.tanh(a, out=a)
    a += shift
    a *= half
    s[...] = a.T                                  # s = [f | i | o | g]
    c2 = np.multiply(s[:n_h], x[:n_h], out=x_next[:n_h])
    c2 += s[n_h:2 * n_h] * s[3 * n_h:]
    np.multiply(s[2 * n_h:3 * n_h], np.tanh(c2), out=x_next[n_h:])


def _gru_cell(spec, P, h, u, h_next, saved, z):
    n_h, n_u, (s, n) = spec.n_h, spec.n_u, saved
    z[:, :n_u], z[0, n_u:] = u.T, h               # z = [u; h], [u; r * h]
    a = _mm(P["Wg"], z[0].T)
    a += P["bg"]
    a *= 0.5
    np.tanh(a, out=a)
    a += 1.0
    a *= 0.5
    s[...] = a.T                                  # s = [z | r]
    np.multiply(s[n_h:], h, out=z[1, n_u:])
    a = _mm(P["Wn"], z[1].T)
    a += P["bn"]
    n[...] = np.tanh(a, out=a).T
    np.subtract(1.0, s[:n_h], out=h_next)
    h_next *= h
    h_next += s[:n_h] * n


def _esn_cell(spec, P, h, u, h_next, saved, z):
    pre = _mm(P["Win"], u) + _mm(P["W"], h.T)
    pre += P["bres"]
    np.multiply(1.0 - spec.leak_rate, h, out=h_next)
    h_next += (spec.leak_rate * np.tanh(pre, out=pre)).T


def _nnarx_cell(spec, P, x, u, x_next, saved, z):
    # the state is the regressor; the model output is fed back into it
    (h1,), blk, n_y = saved, spec.n_u + spec.n_y, spec.n_y
    a = _mm(P["W1"], x.T)
    a += P["b1"]
    h1[...] = np.tanh(a, out=a).T
    x_next[:-blk], x_next[-blk:-n_y] = x[blk:], u.T
    x_next[-n_y:] = (_mm(P["W2"], h1.T) + P["b2"]).T


_CELLS = {"lstm": _lstm_cell, "gru": _gru_cell, "esn": _esn_cell,
          "nnarx": _nnarx_cell}


def _new_cache(spec, T, B):
    """What a rollout keeps for its reverse pass: one (T, width, B) array
    of channel rows per activation that only a matmul would rebuild.
    LSTM: [f | i | o | g], 4 n_h a row-step; GRU: [z | r] and the
    candidate n, 3 n_h; NNARX: the hidden layer."""
    n_h = spec.n_h
    widths = {"lstm": (4 * n_h,), "gru": (2 * n_h, n_h),
              "nnarx": (spec.mlp_width,)}.get(spec.kind, ())
    return tuple(np.empty((T, width, B)) for width in widths)


def _rollout(spec, P, x0, inputs, cache):
    """The forward kernel behind every rollout.

    x0: (B or 1, S), inputs: (T, B, n_u), P from ``_unpack``: either one
    weight vector for all B sequences or one per sequence.  Returns
    outputs (T, B, n_y), states (T+1, B, S) and, if ``cache`` is true,
    the ``_new_cache`` arrays for the backward pass (None otherwise).

    The states are a transposed view of a (T+1, S, B) buffer of channel
    rows, and every product takes transposed views of rows, in the order
    of a batch-major kernel (see the cells).  The time loop carries only
    the recurrence: a step writes its next state into the buffer and its
    matmul-fed activations into the cache (without one, into reused
    rows).  The readouts y_t = C h_t + d are one product over the states
    after the loop, but for the NNARX's, which a step computes."""
    T, B = inputs.shape[0], inputs.shape[1]
    rows = np.empty((T + 1, x0.shape[1], B))
    states = rows.transpose(0, 2, 1)
    states[0] = x0
    saved = _new_cache(spec, T, B) if cache else None
    if spec.kind == "linear":
        return _mm(P["K"], inputs), states, saved
    work, z = saved or _new_cache(spec, 1, B), np.empty((2, spec.n_u + spec.n_h, B))
    # biases tiled to the batch: an add of equal shapes is one contiguous loop
    cell, P = _CELLS[spec.kind], {k: np.broadcast_to(v, (B, v.shape[-1])).copy()
                                  if k[0] == "b" else v for k, v in P.items()}
    for t in range(T):
        cell(spec, P, rows[t], inputs[t], rows[t + 1], [c[t if cache else 0] for c in work], z)
    if spec.kind == "nnarx":                      # y_t is the tail of x_{t+1}
        return states[1:, :, -spec.n_y:].copy(), states, saved
    return _mm(P["C"], states[:-1, :, -spec.n_h:]) + P["d"], states, saved


# The reverse pass per kind, in two parts, on channel rows: ``x`` of the
# states, and the cache.  The block part takes the steps ``sl`` of one
# block, in reverse time, and returns what no step adjoint enters: factors
# f, the output adjoints mapped into the state (dy @ C, or dy for NNARX),
# and per affine map the rows of its inputs, rebuilt, with tanh(c_{t+1})
# and r * h_t, by the forward's own operations.  The step part maps the
# adjoints dx (width, R) of x_{t+1} to those of x_t in place, given row k
# of the mapped output adjoints, and writes each map's pre-activation
# adjoint into ``out`` (R, m), which its matmuls read.  Products keep the
# order of the plain chain rule, so a step has the bits of a per-step
# reverse pass; no mask of saturated pre-activations enters, as their
# activation derivatives are exactly 0.

def _lstm_block(spec, P, inputs, x, cache, dy, sl):
    n_h, (sg,) = spec.n_h, (c[sl] for c in cache)
    s, g = sg[:, :3 * n_h], sg[:, 3 * n_h:]
    tc = np.tanh(x[1:][sl, :n_h])              # tanh(c_{t+1}), as the forward's
    # da = [dc2, dc2, dh, dc2] * r1, its gate rows * s, then all * r3:
    # the gates' [dc2 c_t, dc2 g, dh tanh(c_{t+1})] * s * (1 - s), the
    # candidate's dc2 s_i * (1 - g^2)
    r1 = np.concatenate([x[sl, :n_h], g, tc, sg[:, n_h:2 * n_h]], axis=1)
    r3 = np.subtract(1.0, sg)
    np.subtract(1.0, g * g, out=r3[:, 3 * n_h:])
    # dc2 = dc + dh * s_o * (1 - tanh(c_{t+1})^2); dc_t = dc2 * s_f
    f = (P["Wg"], spec.n_u, sg[:, 2 * n_h:3 * n_h], 1.0 - tc * tc, sg[:, :n_h], r1, s, r3)
    z = np.concatenate([inputs[sl].transpose(0, 2, 1), x[sl, n_h:]], axis=1)
    return f, dy @ P["C"], (z,)


def _lstm_back(f, k, dx, seed, out):
    (Wg, n_u, so, q, sf, r1, s, r3), (dc, dh) = f, dx
    dc2 = dh * so[k]
    dc2 *= q[k]
    dc2 += dc
    da = np.concatenate([dc2, dc2, dh, dc2])
    da *= r1[k]
    da[:s.shape[1]] *= s[k]
    np.multiply(da, r3[k], out=out[0].T)
    np.multiply(dc2, sf[k], out=dc)
    np.add((out[0] @ Wg)[:, n_u:].T, seed.T, out=dh)


def _gru_block(spec, P, inputs, x, cache, dy, sl):
    n_h, n_u, (s, n) = spec.n_h, spec.n_u, (c[sl] for c in cache)
    h, u = x[sl], inputs[sl].transpose(0, 2, 1)
    # dan = dh * z * (1 - n^2); ds = [dh, drh] * [n - h, h] * s * (1 - s)
    f = (P["Wn"], P["Wg"], n_u, s[:, :n_h], 1.0 - n * n,
         np.concatenate([n - h, h], axis=1), s, 1.0 - s, 1.0 - s[:, :n_h], s[:, n_h:])
    return f, dy @ P["C"], (np.concatenate([u, s[:, n_h:] * h], axis=1),
                            np.concatenate([u, h], axis=1))


def _gru_back(f, k, dx, seed, out):
    (Wn, Wg, n_u, zg, qn, f1, s, f3, omz, r), (dh,) = f, dx
    np.multiply(dh * zg[k], qn[k], out=out[0].T)
    drh = (out[0] @ Wn)[:, n_u:].T
    ds = np.concatenate([dh, drh])
    ds *= f1[k]
    ds *= s[k]
    np.multiply(ds, f3[k], out=out[1].T)
    dh *= omz[k]
    dh += drh * r[k]
    dh += (out[1] @ Wg)[:, n_u:].T
    dh += seed.T


def _nnarx_block(spec, P, inputs, x, cache, dy, sl):
    h1, = (c[sl] for c in cache)
    f = (P["W2"], P["W1"], 1.0 - h1 * h1, spec.n_u + spec.n_y, spec.n_y)
    return f, dy, (h1, x[sl])


def _nnarx_back(f, k, dx, seed, out):
    # x_{t+1} = [x_t[blk:], u_t, y_t]: y_t is also fed back into the state
    (W2, W1, q, blk, n_y), (dx,) = f, dx
    dy = np.add(seed, dx[-n_y:].T, out=out[0])
    da1 = np.matmul(dy, W2, out=out[1])
    da1 *= q[k].T
    dx_t = (da1 @ W1).T
    dx_t[blk:] += dx[:-blk]
    dx[...] = dx_t


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

    ``states`` is the (T+1, B, S) view that ``_rollout`` returns.  The
    readout gradients are one contraction over all steps.  The steps run
    in blocks (see ``BLOCK``), latest first, each as a block part and its
    step parts (see above).  Without ``rows`` each step writes its
    pre-activation adjoints into a (K, R, m) block buffer; at the end of
    the block one batched matmul forms every step's weight product, and
    they and the bias sums are added in reverse time, as a per-step loop
    would add them, so the gradient keeps its bits.  With ``rows`` the
    per-row outer products are added at each step, as a block of them
    would take K times the memory of the gradient.
    """
    n_h, lead = spec.n_h, (dy.shape[1:2] if rows else ())
    grads = {name: np.zeros(lead + a.shape) for name, a in P.items()
             if name not in _FROZEN}
    # sum_t dy_t z_t^T, per row of one sequence (c) or summed over sequences
    readout = "tbi,tcj->bij" if rows else "tbi,tbj->ij"
    if spec.kind == "linear":
        grads["K"] = np.einsum(readout, dy, inputs)                 # y_t = K u_t
    elif spec.kind in ("lstm", "gru", "esn"):
        grads["C"] = np.einsum(readout, dy, _c_order(states, dy.shape[2])[:-1, :, -n_h:])
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
    x = states.transpose(0, 2, 1)                   # the rollout's channel rows
    widths = (spec.n_h, spec.n_h) if spec.kind == "lstm" else (x.shape[1],)
    dx = [np.zeros((w, R)) for w in widths]         # LSTM: [dc, dh]
    K = max(1, min(T, BLOCK, BLOCK_ROWS // x.shape[2]))
    das = [np.empty((1 if rows else K, R, P[b].shape[-1])) for _, b in maps]
    for t1 in range(T, 0, -K):
        t0 = max(t1 - K, 0)
        sl = slice(t1 - 1, t0 - 1 if t0 else None, -1)
        f, seeds, zs = block(spec, P, inputs, x, cache, dy[sl], sl)
        n = t1 - t0
        for k in range(n):
            if not rows:
                back(f, k, dx, seeds[k], [a[k] for a in das])
                continue
            lo = (t1 - 1 - k) * spec.n_y
            adj = [a[0, lo:] for a in das]
            back(f, k, [d[:, lo:] for d in dx], seeds[k, lo:], adj)
            for (W, b), a, z in zip(maps, adj, zs):
                grads[W][lo:] += a[:, :, None] * z[k].T[:, None, :]
                grads[b][lo:] += a
        if rows:
            continue
        for (W, b), a, z in zip(maps, das, zs):
            z = _c_order(z.transpose(0, 2, 1), a.shape[-1])
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
    x0, inputs, _ = _as_batch(spec, x0, inputs, window=True)
    u = np.broadcast_to(inputs, (len(inputs), len(vb), spec.n_u))
    return _rollout(spec, _unpack(spec, vb), np.tile(x0, (len(vb), 1)), u, False)[0]


def output_jacobian(spec: ModelSpec, params: ParamVector, x0,
                    inputs) -> tuple[np.ndarray, np.ndarray]:
    """Exact Jacobian of the stacked rollout outputs: one rollout, then one
    reverse pass seeded with every output.

    Returns (outputs (T, n_y), J (T*n_y, param_count)); row t * n_y + i
    is the gradient of output i at step t w.r.t. the trainable prefix.
    """
    x0, inputs, _ = _as_batch(spec, x0, inputs, window=True)   # a batch of one
    T, R = len(inputs), len(inputs) * spec.n_y
    P = _unpack(spec, params.values)
    outputs, states, cache = _rollout(spec, P, x0, inputs, True)
    # row r = t * n_y + i seeds output i at step t; all rows share the rollout
    seeds = np.eye(R).reshape(T, spec.n_y, R).transpose(0, 2, 1)
    return outputs[:, 0], _backward(spec, P, inputs, states, cache, seeds, rows=True)


def _as_batch(spec, x0, inputs, window=False):
    """(x0 (B or 1, S), inputs (T, B, n_u), batched) as float arrays, from
    inputs (T, n_u) or a batch (T, B, n_u) and x0 (S,), shared by every
    sequence, or (B or 1, S); a ``window`` takes (T, n_u) and (S,) only.
    Any other shape, a 0-d x0 among them, raises DimensionError."""
    x0 = np.asarray(x0, dtype=float)
    inputs = np.asarray(inputs, dtype=float)
    if (inputs.ndim not in (2, 3) or x0.ndim not in (1, 2)
            or window and (x0.ndim, inputs.ndim) != (1, 2)):
        raise DimensionError(f"x0 {x0.shape}, inputs {inputs.shape}: need inputs (T, n_u) "
                             + ("and x0 (S,)" if window else "or (T, B, n_u), x0 (S,) or (B, S)"))
    if x0.shape[-1] != state_size(spec):
        raise DimensionError(f"state length {x0.shape[-1]} != {state_size(spec)}")
    if inputs.shape[-1] != spec.n_u:
        raise DimensionError(f"input width {inputs.shape[-1]} != {spec.n_u}")
    batched = inputs.ndim == 3
    x0, inputs = np.atleast_2d(x0), inputs if batched else inputs[:, None, :]
    if len(x0) not in (1, inputs.shape[1]):
        raise DimensionError(f"x0 {x0.shape} fits no batch of {inputs.shape[1]} sequences")
    return x0, inputs, batched


def simulate(spec: ModelSpec, params: ParamVector, x0, inputs):
    """Open-loop rollout: outputs[i] = g(x_i), states[i+1] = f(x_i, u_i).

    ``inputs`` is (T, n_u) or batched (T, B, n_u); outputs/states match,
    the states a view of the kernel's (T+1, S, B) channel rows.  Aborts
    with the failing step index if values go non-finite.
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
                             inputs, targets, washout=0):
    """Squared-error window loss and its exact reverse-mode gradient.

    loss = sum_{t >= washout} ||targets_t - y_t||^2; the gradient,
    (param_count,), is w.r.t. the trainable prefix, as each row of
    ``output_jacobian`` is.  Accepts single sequences (T, n) or batches
    (T, B, n); the washout must leave at least one step.
    """
    x0, inputs, batched = _as_batch(spec, x0, inputs)
    targets = np.asarray(targets, dtype=float)
    want = inputs.shape[:2] + (spec.n_y,) if batched else (len(inputs), spec.n_y)
    if targets.shape != want:     # one target per step, sequence and output
        raise DimensionError(f"targets {targets.shape} != {want}, as the inputs fix")
    targets = targets if batched else targets[:, None, :]
    if not 0 <= washout < len(inputs):
        raise ValueError(f"washout {washout} must be in [0, {len(inputs)})")

    P = _unpack(spec, params.values)
    outputs, states, cache = _rollout(spec, P, x0, inputs, True)
    res = np.subtract(outputs, targets, out=outputs)
    res[:washout] = 0.0
    buf = res * res                      # the square, then the adjoints
    loss = float(np.sum(buf))
    grad = _backward(spec, P, inputs, states, cache, np.multiply(2.0, res, out=buf),
                     rows=False)
    if not (np.isfinite(loss) and np.all(np.isfinite(grad))):
        raise NumericalBlowupError("non-finite loss or gradient")
    return loss, grad
