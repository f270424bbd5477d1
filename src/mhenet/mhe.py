"""Moving-horizon weight adaptation.

Every N steps the network weights are re-estimated from the last N+1
measured samples by solving

    min_theta  sum_{i=0..N} ||y_{k-i} - yhat_{k-i}||^2
               + mu * ||theta - theta_prev||^2

where yhat is the model rolled out from a fixed initial state at the
window start and theta_prev is the previous solution.  The mu-weighted
anchor trades tracking speed against forgetting of previously acquired
information.

The stream consumer is bounded-memory: it never buffers more than
washout + N + 1 samples regardless of stream length.

Each update yields one ``AdaptCheckpoint``: the time index k, the
solution, the fit/prior/total costs at it, the solver's iteration and
evaluation counts, and whether it reported convergence, with its
message.  The record holds no prior and no wall-clock time.  The prior
of update i is the solution of update i-1, and that of update 0 is the
run's initial parameters, so a run is rebuilt from its initial
parameters and its records: ``[initial] + [c.solution for c in
checkpoints[:-1]]`` are the priors.  Without wall times the JSONL file
is a deterministic function of the run's inputs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
import json
import warnings

import numpy as np
from scipy import optimize

from . import models
from .models import ModelSpec, ParamVector


@dataclass(frozen=True)
class MheConfig:
    N: int = 10                  # horizon length (window has N+1 samples)
    mu: float = 0.1              # prior anchoring weight
    max_iter: int = 500
    gtol: float = 1e-10
    ftol: float = 1e-15
    washout: int = 100           # history rollout length for state reconstruction
    observer: str = "washout"    # "washout" | "oracle" (stream supplies states)
    solver: str = "lm"           # "lm" (Levenberg-Marquardt) | "lbfgs"

    def __post_init__(self):
        for name, low in (("N", 1), ("washout", 0), ("max_iter", 1)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}")
        if not (np.isfinite(self.mu) and self.mu >= 0):
            raise ValueError("mu must be nonnegative and finite")
        if self.gtol <= 0 or self.ftol <= 0:
            raise ValueError("tolerances must be positive")
        if self.observer not in ("washout", "oracle"):
            raise ValueError(f"unknown observer {self.observer!r}")
        if self.solver not in ("lm", "lbfgs"):
            raise ValueError(f"unknown solver {self.solver!r}")


@dataclass
class IOSample:
    """One measured sample; ``x`` optionally carries the true model state."""

    u: np.ndarray
    y: np.ndarray
    t: int
    x: np.ndarray | None = None


@dataclass
class HorizonWindow:
    """N+1 contiguous samples plus the model state at the window start."""

    inputs: np.ndarray    # (N+1, n_u)
    outputs: np.ndarray   # (N+1, n_y)
    x_init: np.ndarray
    k: int                # time index of the last sample


@dataclass
class AdaptCheckpoint:
    """One update: its solution and how the solver reached it.

    ``prior_cost`` is ||solution - prior||^2 over the trainable weights;
    ``total_cost = fit_cost + mu * prior_cost``.  On fallback the solution
    is the prior itself and ``prior_cost`` is 0.
    """

    k: int
    solution: ParamVector
    fit_cost: float
    prior_cost: float
    total_cost: float
    iterations: int
    n_evals: int
    converged: bool
    message: str

    def to_json(self):
        return json.dumps({**vars(self), "solution": self.solution.values.tolist()})

    @classmethod
    def from_json(cls, text, spec: ModelSpec):
        d = json.loads(text)
        return cls(**{**d, "solution": ParamVector(spec, np.array(d["solution"]))})


def reconstruct_initial_state(spec: ModelSpec, params: ParamVector,
                              history_u, history_y, washout: int) -> np.ndarray:
    """Model state at the window start, from measured history before it.

    NNARX needs only the last ``order`` measured pairs (the state is the
    regressor itself).  Stateful kinds roll the model open-loop from the
    zero state over the last ``washout`` history inputs and return the
    terminal state.
    """
    history_u = np.asarray(history_u, dtype=float)
    history_y = np.asarray(history_y, dtype=float)
    if spec.kind == "linear":
        return models.zero_state(spec)
    if spec.kind == "nnarx":
        if len(history_u) < spec.order:
            raise ValueError(f"need at least {spec.order} history samples")
        return models.nnarx_state(spec, history_u[-spec.order:], history_y[-spec.order:])
    if len(history_u) < washout:
        raise ValueError(f"need at least {washout} history samples")
    if washout == 0:
        return models.zero_state(spec)
    _, states = models.simulate(spec, params, models.zero_state(spec),
                                history_u[-washout:])
    return states[-1]


def mhe_cost(spec: ModelSpec, candidate: ParamVector, window: HorizonWindow,
             prior: ParamVector, mu: float):
    """(total, fit, prior_term) of the horizon objective at ``candidate``."""
    pred, _ = models.simulate(spec, candidate, window.x_init, window.inputs)
    res = pred - window.outputs
    fit = float(np.sum(res * res))
    mask = models.trainable_mask(spec)
    dv = (candidate.values - prior.values)[mask]
    prior_term = float(dv @ dv)
    return fit + mu * prior_term, fit, prior_term


def solve_update(spec: ModelSpec, window: HorizonWindow, prior: ParamVector,
                 config: MheConfig):
    """Minimize the horizon objective from the prior; descent guaranteed.

    The objective is a nonlinear least-squares problem (output residuals
    over the window plus sqrt(mu)-scaled prior residuals), solved by
    Levenberg-Marquardt with a batched finite-difference Jacobian, or by
    L-BFGS-B with the analytic reverse-mode gradient.  Both warm-start
    at the prior; if the optimizer reports a point no better than the
    prior, the prior is returned unchanged.  Returns ``(solution,
    AdaptCheckpoint)``.
    """
    mask = models.trainable_mask(spec)
    base = prior.values.copy()
    theta_p = base[mask]
    mu = config.mu
    sqmu = np.sqrt(mu)

    def embed(theta_t):
        vals = base.copy()
        vals[mask] = theta_t
        return prior.replace_values(vals)

    if config.solver == "lm":
        n = len(theta_p)
        m = window.outputs.size + n

        def residuals(theta_t):
            # the trust-region solver may probe non-finite or blowing-up
            # points; report them as arbitrarily bad so the step is rejected
            if not np.all(np.isfinite(theta_t)):
                return np.full(m, 1e100)
            try:
                pred, _ = models.simulate(spec, embed(theta_t),
                                          window.x_init, window.inputs)
            except models.NumericalBlowupError:
                return np.full(m, 1e100)
            return np.concatenate([(pred - window.outputs).ravel(),
                                   sqmu * (theta_t - theta_p)])

        def jacobian(theta_t):
            _, J = models.output_jacobian(spec, embed(theta_t),
                                          window.x_init, window.inputs)
            return np.vstack([J, sqmu * np.eye(n)])

        with warnings.catch_warnings():
            # the 1e100 rejection residuals make the trust-region
            # subproblem arithmetic overflow internally by design
            warnings.simplefilter("ignore", RuntimeWarning)
            res = optimize.least_squares(residuals, theta_p, jac=jacobian,
                                         method="trf",
                                         xtol=None, ftol=config.ftol,
                                         gtol=config.gtol,
                                         max_nfev=config.max_iter)
        x_opt, nit, nfev = res.x, int(res.njev or 0), int(res.nfev)
        success, message = bool(res.status > 0), str(res.message)
    else:
        def objective(theta_t):
            fit, grad = models.window_loss_and_gradient(
                spec, embed(theta_t), window.x_init, window.inputs, window.outputs)
            dv = theta_t - theta_p
            total = fit + mu * float(dv @ dv)
            g = grad[mask] + 2.0 * mu * dv
            return total, g

        res = optimize.minimize(objective, theta_p, jac=True, method="L-BFGS-B",
                                options={"maxiter": config.max_iter,
                                         "gtol": config.gtol,
                                         "ftol": config.ftol,
                                         "maxcor": 20})
        x_opt, nit, nfev = res.x, int(res.nit), int(res.nfev)
        success, message = bool(res.success), str(res.message)

    total_prior, fit_prior, _ = mhe_cost(spec, prior, window, prior, mu)
    if np.all(np.isfinite(x_opt)):
        solution = embed(x_opt)
        total, fit, prior_term = mhe_cost(spec, solution, window, prior, mu)
    else:
        solution, total = prior, np.inf
    if not np.isfinite(total) or total > total_prior:
        solution = prior
        total, fit, prior_term = total_prior, fit_prior, 0.0
    return solution, AdaptCheckpoint(
        k=window.k, solution=solution, fit_cost=fit, prior_cost=prior_term,
        total_cost=total, iterations=nit, n_evals=nfev, converged=success,
        message=message)


def run_adaptation(spec: ModelSpec, initial_params: ParamVector, stream,
                   config: MheConfig, on_checkpoint=None):
    """Periodic MHE updates over a sample stream.

    The first update fires at k = washout + N (enough history for state
    reconstruction) and then every N steps, each solve anchored to the
    previous solution.  Yields nothing; returns (checkpoints, run_stats)
    where run_stats records the peak number of buffered samples.

    With ``config.observer == "oracle"`` the sample at the window start
    must carry the true model state in its ``x`` field.
    """
    N, washout = config.N, config.washout
    history_need = spec.order if spec.kind == "nnarx" else washout
    maxlen = history_need + N + 1
    buffer = deque(maxlen=maxlen)
    peak = 0
    prior = initial_params
    checkpoints = []
    last_t = None
    next_k = None
    for sample in stream:
        if last_t is not None and sample.t != last_t + 1:
            raise ValueError(f"stream gap at t={sample.t} (expected {last_t + 1})")
        if last_t is None:
            next_k = sample.t + history_need + N
        last_t = sample.t
        buffer.append(sample)
        peak = max(peak, len(buffer))
        if sample.t < next_k or len(buffer) < maxlen:
            continue
        window_samples = list(buffer)[-(N + 1):]
        history = list(buffer)[:-(N + 1)]
        if config.observer == "oracle":
            x_init = window_samples[0].x
            if x_init is None:
                raise ValueError("oracle observer requires samples carrying states")
        else:
            x_init = reconstruct_initial_state(
                spec, prior,
                [s.u for s in history], [s.y for s in history], history_need)
        window = HorizonWindow(
            inputs=np.array([s.u for s in window_samples], dtype=float),
            outputs=np.array([s.y for s in window_samples], dtype=float),
            x_init=np.asarray(x_init, dtype=float),
            k=sample.t)
        solution, ckpt = solve_update(spec, window, prior, config)
        checkpoints.append(ckpt)
        if on_checkpoint is not None:
            on_checkpoint(ckpt)
        prior = solution
        next_k = sample.t + N
    return checkpoints, {"peak_buffered": peak, "buffer_capacity": maxlen}


def sequence_stream(sequence, states=None):
    """IOSample stream over a recorded sequence.

    ``states`` (at least T rows), when given, attaches ``states[t]``, the
    model state before sample t, to sample t: the true twin state the
    oracle observer needs in matched-twin studies, e.g. the states a
    ``models.simulate`` of the twin already returned.
    """
    for t in range(len(sequence.u)):
        yield IOSample(u=sequence.u[t], y=sequence.y[t], t=t,
                       x=None if states is None else states[t])


def save_checkpoints(path, checkpoints):
    with open(path, "w") as fh:
        for c in checkpoints:
            fh.write(c.to_json() + "\n")


def load_checkpoints(path, spec: ModelSpec):
    out = []
    with open(path) as fh:
        for line in fh:
            if line.strip():
                out.append(AdaptCheckpoint.from_json(line, spec))
    return out
