"""Second reactor of the two-reactor/separator chemical benchmark.

Continuous-time mass and energy balances for the liquid level H2, the
concentrations xA2 and xB2, and the temperature T2, driven by the
upstream conditions (H1, xA1, xB1, T1), the feed flow F20 and the heat
input Q2.  Flows follow F_i = kv_i * H_i and the reaction rates are
Arrhenius-type in T2.

Integration uses classical fixed-step RK4 with the input held constant
over each sampling interval.  Dataset generation excites every input
channel with piecewise-constant multilevel pseudo-random signals around
a computed steady state.  A slow ramp of the rate constant kA models
plant drift.

``step`` and ``derivatives`` take a state (4,) or (..., 4) with an input
(6,) for every row or (..., 6) of the same leading shape, and refuse any
other pair before any arithmetic.  A numpy call on so few numbers costs
about its own overhead, so each form makes few, cheap calls.  One
trajectory runs on Python floats (``_rhs``).  A batch runs on contiguous
(B,) rows of the state, the input terms and the plant constants
(``_rhs_rows``): each of a stage's 32 ufuncs takes same-shape rows and
writes into a row buffer made once per ``step``, about 0.35 us a call on
a 2-core x86 host, where a broadcasting call costs 1.2-1.5 us.  Both forms
keep every product in Python's left-to-right order, so they give the bits
of the plain (..., 4) array form that the tests keep as a reference; the
exponential is ``np.exp`` on both, as ``math.exp`` can differ in the last
place.  ``step`` computes the input terms once per sample and refuses a
non-finite state or input on entry, every stage a non-finite or
non-positive H2 or T2, and ``step`` a result that leaves that domain.
"""

from __future__ import annotations

import csv
import hashlib
import json
import pathlib
import sys
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace

import numpy as np

TAU = 0.1  # sampling time [s]

STATE_COLUMNS = ("H2", "xA2", "xB2", "T2")
INPUT_COLUMNS = ("H1", "xA1", "xB1", "T1", "F20", "Q2")


def check_fields(config, ints=(), positive=(), nonneg=(), choices=(), error=ValueError):
    """Refuse an out-of-range field of a config dataclass with
    ``error("<field>: ...")``.  ``choices`` pairs a field with the tuple of
    its legal values, ``ints`` with its least value (the most is
    ``sys.maxsize``); ``positive`` and ``nonneg`` name fields that must be
    finite ints or floats, > 0 and >= 0; an int beyond the float range is
    not finite.  A bool passes none of the last three."""
    for name, legal in choices:
        if (value := getattr(config, name)) not in legal:
            raise error(f"{name}: expected one of {legal}, got {value!r}")
    for name, low in ints:
        value = getattr(config, name)
        if (not isinstance(value, int) or isinstance(value, bool)
                or not low <= value <= sys.maxsize):
            raise error(f"{name}: must be an integer from {low} to {sys.maxsize}")
    for name in (*positive, *nonneg):
        value, strict = getattr(config, name), name in positive
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not (value > 0 if strict else value >= 0) or value > sys.float_info.max):
            raise error(f"{name}: must be {'positive' if strict else 'nonnegative'} and finite")


@dataclass(frozen=True)
class PlantParams:
    """Physical constants of the benchmark (defaults: nominal values)."""

    rho: float = 0.15       # density [kg/m^3]
    A2: float = 3.0         # reactor area [m]
    kv1: float = 0.5        # flow coefficient [kg/(m s)]
    kv2: float = 0.5
    xA0: float = 1.0        # feed concentration [wt%]
    kA: float = 0.336       # rate constant [1/s]
    kB: float = 0.089
    EA_over_R: float = -100.0   # [kJ/kg]
    EB_over_R: float = -150.0
    dHA: float = -40.0      # reaction enthalpy [kJ/kg]
    dHB: float = -50.0
    Cp: float = 2.5         # heat capacity [kJ/(kg K)]
    T0: float = 313.0       # feed temperature [K]

    def __post_init__(self):
        check_fields(self, positive=("rho", "A2", "Cp", "kv1", "kv2", "kA", "kB"))


# Nominal operating input used to center excitation signals:
# [H1, xA1, xB1, T1, F20, Q2]
NOMINAL_INPUT = np.array([1.0, 0.8, 0.1, 313.0, 0.1, 0.0])


@dataclass(frozen=True)
class DriftSchedule:
    """Ramp of the plant's kA from its own value to ``end_value``, an
    absolute kA value, not an offset from the plant's."""

    end_value: float = 0.326
    t_start: float = 100.0
    t_end: float = 200.0

    def __post_init__(self):
        check_fields(self, positive=("end_value",))
        if not (np.isfinite([self.t_start, self.t_end]).all() and self.t_start < self.t_end):
            raise ValueError("the ramp needs finite times with t_start before t_end")


def drift_value(schedule: DriftSchedule, kA: float, t) -> float | np.ndarray:
    """kA at time t of a plant whose kA is ``kA``: flat / linear ramp / flat."""
    frac = np.clip((np.asarray(t, dtype=float) - schedule.t_start)
                   / (schedule.t_end - schedule.t_start), 0.0, 1.0)
    out = kA + frac * (schedule.end_value - kA)
    return out if out.ndim else float(out)


def rate_coefficients(T2, params: PlantParams):
    """Arrhenius rates (kA2, kB2) at temperature T2."""
    if not ((T2 := np.asarray(T2, dtype=float)) > 0).all():
        raise ValueError("temperature T2 is non-finite or non-positive")
    return (params.kA * np.exp(-params.EA_over_R / T2),
            params.kB * np.exp(-params.EB_over_R / T2))


def _terms(p: PlantParams, inp):
    """The input terms, constant over a sample, from six Python floats or
    rows, then the plant constants that the balances read."""
    H1, xA1, xB1, T1, F20, Q2 = inp
    F1 = p.kv1 * H1
    return (F20 + F1, F20 * p.xA0 + F1 * xA1, F1 * xB1, F20 * p.T0 + F1 * T1, Q2,
            -p.EA_over_R, -p.EB_over_R, p.kA, p.kB, p.kv2, p.rho * p.A2, p.dHA, p.dHB, p.Cp)


def _rhs(c, H2, xA2, xB2, T2):
    """The balances on Python floats; ``c = _terms(p, u.tolist())``."""
    inflow, feedA, feedB, feedT, Q2, negEA, negEB, kA, kB, kv2, rhoA, dHA, dHB, Cp = c
    F2, hold = kv2 * H2, rhoA * H2
    if not (hold > 0 and T2 > 0):  # H2 > 0 unless it underflows hold; NaN fails it too
        raise ValueError("H2 or temperature T2 is non-finite or non-positive")
    rA = kA * float(np.exp(negEA / T2)) * xA2
    rB = kB * float(np.exp(negEB / T2)) * xB2
    return ((inflow - F2) / rhoA,
            (feedA - F2 * xA2) / hold - rA,
            (feedB - F2 * xB2) / hold + rA - rB,
            (feedT - F2 * T2) / hold - (rA * dHA + rB * dHB) / Cp + Q2 / (hold * Cp))


def _rows(p: PlantParams, inp, shape):
    """``_terms`` of an input (6,) or (..., 6) for a state ``shape`` (..., 4),
    each a contiguous (B,) row."""
    u = np.broadcast_to(inp, shape[:-1] + (6,)).reshape(-1, 6).T.copy()
    terms = _terms(p, u)
    return (*terms[:5], *np.repeat(np.array(terms[5:])[:, None], u.shape[1], axis=1))


def _rhs_rows(c, x, out, w):
    """The balances on a (4, B) state into the four rows ``out``, through the
    six work rows ``w``; ``x = (state[::3], *state)``, its H2 and T2 rows and
    then each row, and ``c = _rows(p, u, shape)``.  Each ufunc call writes
    into its third argument."""
    ends, H2, xA2, xB2, T2 = x
    if not np.minimum.reduce(ends, axis=None) > 0:  # NaN fails it too
        raise ValueError("H2 or temperature T2 is non-finite or non-positive")
    inflow, feedA, feedB, feedT, Q2, negEA, negEB, kA, kB, kv2, rhoA, dHA, dHB, Cp = c
    dH2, dxA2, dxB2, dT2 = out
    rA, rB, F2, hold, a, b = w
    mul, div, add, sub = np.multiply, np.divide, np.add, np.subtract
    mul(mul(kA, np.exp(div(negEA, T2, rA), rA), rA), xA2, rA)
    mul(mul(kB, np.exp(div(negEB, T2, rB), rB), rB), xB2, rB)
    mul(kv2, H2, F2)
    mul(rhoA, H2, hold)
    div(sub(inflow, F2, dH2), rhoA, dH2)
    sub(div(sub(feedA, mul(F2, xA2, dxA2), dxA2), hold, dxA2), rA, dxA2)
    sub(add(div(sub(feedB, mul(F2, xB2, dxB2), dxB2), hold, dxB2), rA, dxB2), rB, dxB2)
    div(sub(feedT, mul(F2, T2, dT2), dT2), hold, dT2)
    sub(dT2, div(add(mul(rA, dHA, a), mul(rB, dHB, b), a), Cp, a), dT2)
    add(dT2, div(Q2, mul(hold, Cp, a), a), dT2)


def _check_shapes(state, inp):
    """Refuse a state that is not (..., 4) with an input (6,) or (..., 6)."""
    if state.ndim < 1 or state.shape[-1] != 4 or inp.shape not in ((6,), state.shape[:-1] + (6,)):
        raise ValueError(f"plant state {state.shape} and input {inp.shape} do not fit: expected "
                         "a state (..., 4) with an input (6,) or (..., 6) of its leading shape")


def derivatives(state, inp, params: PlantParams) -> np.ndarray:
    """Right-hand side of the balances per second; state (..., 4), inp (6,)
    or (..., 6)."""
    state, inp = np.asarray(state, float), np.asarray(inp, float)
    _check_shapes(state, inp)
    x, out = state.reshape(-1, 4).T.copy(), np.empty((4, state.size // 4))
    _rhs_rows(_rows(params, inp, state.shape), (x[::3], *x), out, np.empty((6, x.shape[1])))
    return out.T.reshape(state.shape)


def step(state, inp, params: PlantParams, dt: float, substeps: int = 10) -> np.ndarray:
    """Classical RK4 over dt/substeps with the input held constant."""
    if dt <= 0 or substeps < 1:
        raise ValueError("dt must be positive and substeps >= 1")
    state, inp = np.asarray(state, float), np.asarray(inp, float)
    _check_shapes(state, inp)
    # checked before any arithmetic: an inf would meet -inf in a stage first
    if not (np.isfinite(state).all() and np.isfinite(inp).all()):
        raise ValueError("non-finite or non-positive plant data: non-finite state or input")
    h = dt / substeps
    hh, h6 = 0.5 * h, h / 6.0
    if state.ndim == 1:  # one trajectory: four Python floats through every stage
        c = _terms(params, inp.tolist())
        H2, xA2, xB2, T2 = state.tolist()
        for _ in range(substeps):
            a1, b1, c1, d1 = _rhs(c, H2, xA2, xB2, T2)
            a2, b2, c2, d2 = _rhs(c, H2 + hh * a1, xA2 + hh * b1, xB2 + hh * c1, T2 + hh * d1)
            a3, b3, c3, d3 = _rhs(c, H2 + hh * a2, xA2 + hh * b2, xB2 + hh * c2, T2 + hh * d2)
            a4, b4, c4, d4 = _rhs(c, H2 + h * a3, xA2 + h * b3, xB2 + h * c3, T2 + h * d3)
            H2 += h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            xA2 += h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            xB2 += h6 * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
            T2 += h6 * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
        x = np.array([H2, xA2, xB2, T2])
    else:  # a batch: (4, B) state, stage state and slopes, their row views made once
        c, x = _rows(params, inp, state.shape), state.reshape(-1, 4).T.copy()
        s, w = np.empty_like(x), np.empty((6, x.shape[1]))
        k, k2 = np.empty((4,) + x.shape), np.empty((2,) + x.shape)
        X, S, K, W = (x[::3], *x), (s[::3], *s), [tuple(r) for r in k], tuple(w)
        for _ in range(substeps):
            _rhs_rows(c, X, K[0], W)
            for i, f in enumerate((hh, hh, h)):  # the stage state x + f k_i
                np.add(x, np.multiply(k[i], f, s), s)
                _rhs_rows(c, S, K[i + 1], W)
            np.multiply(k[1:3], 2.0, k2)  # k1 + 2 k2 + 2 k3 + k4, summed from the left
            x += np.multiply(np.add(np.add(np.add(k[0], k2[0], s), k2[1], s), k[3], s), h6, s)
    if not (np.isfinite(x).all() and np.minimum.reduce(x[::3], axis=None) > 0):
        raise ValueError("non-finite or non-positive plant data: the state left its domain")
    return x if state.ndim == 1 else x.T.reshape(state.shape)


_STEADY_STATE_CACHE = {}
NEWTON_STEPS = 12


def steady_state(params: PlantParams) -> np.ndarray:
    """Operating point with vanishing derivatives under the nominal input.

    A 60 s forward simulation settles near the attractor.  Then
    ``NEWTON_STEPS`` plain Newton steps on the 4 balances,
    x <- x - J(x)^-1 f(x) (Nocedal & Wright, Numerical Optimization,
    ch. 11), drive the residual to rounding level.  J is the central
    difference of ``derivatives`` with step eps^(1/3) * max(1, |x_j|),
    all 8 probes in one batched call.  For kA from 0.05 to 1 the settle
    leaves a residual near 1e-12 and one step reaches rounding level; the
    other steps are margin for a plant that settles more slowly, and move
    x by an ulp at most.  The result lands within an ulp of scipy's
    ``optimize.root`` from the same settle, which this replaces so that
    no run has to import scipy.  A residual above 1e-9 in any channel, or
    a step that leaves the plant's domain, raises ``RuntimeError``.
    Results are cached per parameter set.
    """
    if params not in _STEADY_STATE_CACHE:
        x = np.array([1.0, 0.5, 0.2, params.T0])
        for _ in range(int(60.0 / TAU)):
            x = step(x, NOMINAL_INPUT, params, TAU, substeps=5)
        try:
            for _ in range(NEWTON_STEPS):
                h = np.finfo(float).eps ** (1 / 3) * np.maximum(1.0, np.abs(x))
                probes = derivatives(x + np.concatenate([np.diag(h), -np.diag(h)]),
                                     NOMINAL_INPUT, params)
                jac = (probes[:4] - probes[4:]).T / (2.0 * h)
                x = x - np.linalg.solve(jac, derivatives(x, NOMINAL_INPUT, params))
            resid = derivatives(x, NOMINAL_INPUT, params)
        except (ValueError, np.linalg.LinAlgError) as exc:
            raise RuntimeError(f"steady state refinement failed: {exc}") from exc
        if not np.max(np.abs(resid)) <= 1e-9:  # NaN fails it too
            raise RuntimeError(f"steady state refinement failed, residual {resid}")
        _STEADY_STATE_CACHE[params] = x
    return _STEADY_STATE_CACHE[params].copy()


@dataclass(frozen=True)
class ExcitationConfig:
    """Piecewise-constant multilevel pseudo-random input design."""

    lo: tuple = ()
    hi: tuple = ()
    hold_time: float = 2.0   # seconds each level is held
    tau: float = TAU

    def __post_init__(self):
        if len(self.lo) != 6 or len(self.hi) != 6:
            raise ValueError("need bounds for all 6 input channels")
        if not np.all(np.isfinite([*self.lo, *self.hi])):
            raise ValueError("bounds must be finite")
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise ValueError("bounds must satisfy lo <= hi per channel")
        check_fields(self, positive=("hold_time", "tau"))
        hold_steps = self.hold_time / self.tau
        if abs(hold_steps - round(hold_steps)) > 1e-9:
            raise ValueError("hold_time must be a positive multiple of tau")

    @property
    def hold_steps(self):
        return int(round(self.hold_time / self.tau))


def default_excitation(q2_span: float = 0.6) -> ExcitationConfig:
    """Default bounds: +-10% on levels/flows, +-5 K on T1, +-q2_span/2 on Q2."""
    u = NOMINAL_INPUT
    lo = [u[0] * 0.9, u[1] * 0.9, u[2] * 0.9, u[3] - 5.0, u[4] * 0.9, -q2_span / 2]
    hi = [u[0] * 1.1, u[1] * 1.1, u[2] * 1.1, u[3] + 5.0, u[4] * 1.1, q2_span / 2]
    return ExcitationConfig(lo=tuple(lo), hi=tuple(hi))


def generate_excitation(config: ExcitationConfig, n_samples: int, seed) -> np.ndarray:
    """(n_samples, 6) piecewise-constant signal, uniform levels per channel."""
    rng = np.random.default_rng(seed)
    n_levels = -(-n_samples // config.hold_steps)  # ceil
    levels = rng.uniform(np.array(config.lo), np.array(config.hi), size=(n_levels, 6))
    return np.repeat(levels, config.hold_steps, axis=0)[:n_samples]


@dataclass
class Sequence:
    """Uniformly sampled I/O record: u[k] applied at t_k, y[k] = state at t_k."""

    u: np.ndarray   # (T, 6)
    y: np.ndarray   # (T, 4)
    tau: float = TAU

    def __len__(self):
        return len(self.u)

    @property
    def t(self):
        return np.arange(len(self.u)) * self.tau


@dataclass
class DatasetConfig:
    n_sequences: int = 136
    seq_len: int = 1000       # samples per sequence (T_s = 100 s at tau = 0.1 s)
    n_train: int = 100
    n_test: int = 36
    tau: float = TAU
    substeps: int = 10
    excitation: ExcitationConfig = field(default_factory=default_excitation)
    kA: None = None           # always None: the plant params give kA

    def __post_init__(self):
        check_fields(self, ints=(("n_sequences", 1), ("seq_len", 2), ("n_train", 0),
                                 ("n_test", 0), ("substeps", 1)), positive=("tau",),
                     choices=(("kA", (None,)),))
        if self.excitation.tau != self.tau:
            raise ValueError(f"tau: the excitation samples at {self.excitation.tau}, "
                             f"the dataset at {self.tau}; they must be equal")
        if self.n_train + self.n_test > self.n_sequences:
            raise ValueError("split sizes exceed n_sequences")


@dataclass
class Dataset:
    sequences: list
    train_idx: list
    test_idx: list
    config: DatasetConfig
    seed: int

    @property
    def train(self):
        return [self.sequences[i] for i in self.train_idx]

    @property
    def test(self):
        return [self.sequences[i] for i in self.test_idx]


def simulate_plant(x0, inputs, params: PlantParams, tau: float = TAU,
                   substeps: int = 10, kA=None) -> np.ndarray:
    """Roll the plant forward under an input sequence.

    Returns states y with y[k] the state at sample k (y[0] = x0), same
    length as ``inputs``.  Batched when x0 is (B, 4) and inputs
    (T, B, 6).  ``kA`` optionally gives the plant's kA at each sample, (T,).
    """
    inputs = np.asarray(inputs, dtype=float)
    x = np.asarray(x0, dtype=float)
    T = inputs.shape[0]
    ys = np.empty(inputs.shape[:-1] + (4,))
    p = params
    for k in range(T):
        ys[k] = x
        if kA is not None and kA[k] != p.kA:
            p = replace(params, kA=float(kA[k]))  # on the ramp only: replace re-runs the checks
        if k < T - 1:
            x = step(x, inputs[k], p, tau, substeps)
    return ys


def collect_dataset(config: DatasetConfig, seed: int,
                    params: PlantParams = PlantParams()) -> Dataset:
    """Excite the plant ``params`` from its steady state and record I/O
    sequences.

    Sequences are integrated in one batched pass; each sequence draws
    its excitation from a child seed of (seed, index) so the dataset is
    a pure function of (config, seed, params).
    """
    x_ss = steady_state(params)
    children = np.random.SeedSequence(seed).spawn(config.n_sequences)
    us = np.stack([generate_excitation(config.excitation, config.seq_len, s)
                   for s in children], axis=1)           # (T, B, 6)
    x0 = np.tile(x_ss, (config.n_sequences, 1))
    ys = simulate_plant(x0, us, params, config.tau, config.substeps)
    sequences = [Sequence(u=us[:, b], y=ys[:, b], tau=config.tau)
                 for b in range(config.n_sequences)]
    train_idx = list(range(config.n_train))
    test_idx = list(range(config.n_train, config.n_train + config.n_test))
    return Dataset(sequences, train_idx, test_idx, config, seed)


SEQUENCE_CSV_COLUMNS = ("t",) + INPUT_COLUMNS + STATE_COLUMNS


def write_csv(path, header, rows):
    """A CSV of ``header`` and ``rows``, floats at full precision (repr)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


def save_sequence_csv(path, sequence: Sequence):
    """One sequence as CSV: t, the 6 inputs, the 4 outputs; full precision."""
    write_csv(path, SEQUENCE_CSV_COLUMNS,
              np.column_stack([sequence.t, sequence.u, sequence.y]))


def load_sequence_csv(path) -> Sequence:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != SEQUENCE_CSV_COLUMNS:
            raise ValueError(f"unexpected sequence CSV header {header}")
        rows = np.array([[float(v) for v in row] for row in reader])
    if len(rows) == 0:
        raise ValueError(f"sequence CSV {path} has no samples")
    tau = rows[1, 0] - rows[0, 0] if len(rows) > 1 else TAU
    return Sequence(u=rows[:, 1:7], y=rows[:, 7:11], tau=float(tau))


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def config_from_dict(cls, data):
    """Rebuild config dataclass ``cls`` from its ``dataclasses.asdict`` form.

    Nested dataclass fields are rebuilt recursively and JSON lists become
    tuples again for fields annotated ``tuple``, so a JSON round trip
    gives an equal config.  An error inside a nested field is re-raised
    as ValueError prefixed with that field's name.
    """
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    hints = typing.get_type_hints(cls)
    kwargs = dict(data)
    for f in fields(cls):
        hint, value = hints[f.name], kwargs.get(f.name)
        if is_dataclass(hint) and f.name in kwargs:
            try:
                kwargs[f.name] = config_from_dict(hint, value)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{f.name}: {exc}") from exc
        elif hint is tuple and isinstance(value, list):
            kwargs[f.name] = tuple(value)
    return cls(**kwargs)


def save_dataset(directory, dataset: Dataset):
    """One CSV per sequence plus a JSON manifest with per-file checksums."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    files, checksums = [], {}
    for i, seq in enumerate(dataset.sequences):
        name = f"seq_{i:03d}.csv"
        save_sequence_csv(directory / name, seq)
        files.append(name)
        checksums[name] = file_sha256(directory / name)
    manifest = {"seed": dataset.seed, "config": asdict(dataset.config),
                "train_idx": list(dataset.train_idx),
                "test_idx": list(dataset.test_idx),
                "files": files, "checksums": checksums}
    with open(directory / "dataset.json", "w") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest


def load_dataset(directory) -> Dataset:
    directory = pathlib.Path(directory)
    with open(directory / "dataset.json") as fh:
        manifest = json.load(fh)
    sequences = []
    for name in manifest["files"]:
        if file_sha256(directory / name) != manifest["checksums"][name]:
            raise ValueError(f"checksum mismatch for {name}")
        sequences.append(load_sequence_csv(directory / name))
    return Dataset(sequences, manifest["train_idx"], manifest["test_idx"],
                   config_from_dict(DatasetConfig, manifest["config"]),
                   manifest["seed"])


def drift_run(total_time: float, schedule: DriftSchedule, excitation: ExcitationConfig,
              seed: int, params: PlantParams = PlantParams(), substeps: int = 10) -> Sequence:
    """One long trajectory whose kA ramps from ``params.kA`` by the schedule."""
    n = int(round(total_time / excitation.tau))
    u = generate_excitation(excitation, n, seed)
    x0 = steady_state(params)
    y = simulate_plant(x0, u, params, excitation.tau, substeps,
                       kA=drift_value(schedule, params.kA, np.arange(n) * excitation.tau))
    return Sequence(u=u, y=y, tau=excitation.tau)
