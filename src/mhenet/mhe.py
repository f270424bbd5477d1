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
h + N + 1 samples regardless of stream length, where the history length
h (``history_length``) is the NNARX order, else the washout.

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

import numpy as np

from . import lbfgs, models
from .models import ModelSpec, ParamVector
from .plant import check_fields


GTOL = 1e-14    # both solvers stop at max|gradient| <= GTOL
FTOL = 3e-16    # or at a relative decrease of the objective <= FTOL


@dataclass(frozen=True)
class MheConfig:
    # A small per-update iteration budget is deliberate: each window has far
    # fewer residuals than the network has weights, so a fully converged
    # solve chases noise along weakly identified weight directions and the
    # drift in those directions accumulates across updates.  A few truncated
    # L-BFGS steps capture the well-identified correction and stop there.
    N: int = 10                  # horizon length (window has N+1 samples)
    mu: float = 0.1              # prior anchoring weight
    max_iter: int = 2            # LM: evaluations of the objective; L-BFGS: iterations
    washout: int = 100           # history rollout of the first update's start state
    solver: str = "lbfgs"        # "lm" (Levenberg-Marquardt) | "lbfgs"

    def __post_init__(self):
        check_fields(self, ints=(("N", 1), ("washout", 0), ("max_iter", 1)),
                     nonneg=("mu",), choices=(("solver", ("lm", "lbfgs")),))


@dataclass
class IOSample:
    """One measured sample: input ``u`` and output ``y`` at time ``t``."""

    u: np.ndarray
    y: np.ndarray
    t: int


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


def history_length(spec: ModelSpec, washout: int) -> int:
    """Samples before the first window that its initial state is rebuilt
    from: the NNARX regressor's ``order``, else ``washout``."""
    return spec.order if spec.kind == "nnarx" else washout


def reconstruct_initial_state(spec: ModelSpec, params: ParamVector,
                              history_u, history_y, washout: int) -> np.ndarray:
    """Model state at the window start, from measured history before it.

    NNARX needs only the last ``order`` measured pairs (the state is the
    regressor itself).  Every other kind rolls the model open-loop from the
    zero state over the last ``washout`` history inputs and returns the
    terminal state, which for a linear model is empty.
    """
    history_u = np.asarray(history_u, dtype=float)
    history_y = np.asarray(history_y, dtype=float)
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
    n = models.param_count(spec)
    dv = candidate.values[:n] - prior.values[:n]
    prior_term = float(dv @ dv)
    return fit + mu * prior_term, fit, prior_term


def _norm(v):
    """|v|, taken over v / max|v| where the plain sum of squares overflows."""
    with np.errstate(over="ignore"):
        n = np.linalg.norm(v)
    s = np.max(np.abs(v))
    return s * np.linalg.norm(v / s) if n == np.inf and np.isfinite(s) else n


def _levenberg_marquardt(fit, linearize, x0, mu, max_iter):
    """Minimize F(x) = |r(x)|^2 + mu |x - x0|^2 from x0 by damped Gauss-Newton
    (Madsen, Nielsen & Tingleff 2004, alg. 3.16).  ``fit(x)`` returns (F, r),
    with F = inf where the model blows up; ``linearize(x)`` is r's Jacobian J.

    A step solves (J'J + (mu + lam) I) h = -g, g = J'r + mu (x - x0), first
    with lam = 0.  A singular solve, a step longer than max(|x0|, 1) or one
    that does not lower F raises lam; an accepted one rescales it by its gain
    ratio rho, from 0 if rho < 1/4.  Stops at max|g| <= GTOL, a relative
    decrease of F <= FTOL, a step below every weight's resolution, max_i
    |h_i| / max(|x_i|, 1) <= eps (the relative step test of Dennis & Schnabel
    1983, sec. 7.2), so that one huge weight does not hide a step in the
    others, or at max_iter evaluations of ``fit``; returns (x, Jacobians,
    evaluations, success, message)."""
    x, (F, r) = x0, fit(x0)
    nfev, njev, lam, nu = 1, 0, 0.0, 2.0
    radius, eye = max(_norm(x0), 1.0), np.eye(len(x0))
    while np.isfinite(F):
        J, njev = linearize(x), njev + 1
        JtJ, g = J.T @ J, J.T @ r + mu * (x - x0)
        gmax, scale = np.max(np.abs(g)), np.max(np.diag(JtJ)) + mu
        if gmax <= GTOL:
            return x, njev, nfev, True, "CONVERGENCE: max|g| <= gtol"
        if not np.isfinite(gmax):
            break
        while True:
            try:
                h = np.linalg.solve(JtJ + (mu + lam) * eye, -g)
            except np.linalg.LinAlgError:      # mu = 0 and fewer residuals than weights
                h = np.full_like(g, np.inf)
            if np.max(np.abs(h) / np.maximum(np.abs(x), 1.0)) <= lbfgs.EPS:
                return x, njev, nfev, True, "CONVERGENCE: max|step| <= eps max(|x|, 1)"
            if np.linalg.norm(h) <= radius:
                if nfev >= max_iter:
                    return x, njev, nfev, False, "STOP: max_iter evaluations"
                F_new, r_new = fit(x + h)
                nfev += 1
                if F_new < F:
                    break
            lam, nu = (lam * nu if lam else 1e-3 * scale), 2.0 * nu
        rho = (F - F_new) / max(h @ (lam * h - g), F - F_new)   # gain ratio, cut at 1
        lam, nu = lam * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), 2.0
        if lam < 1e-16 * scale:         # a poor gain starts damping, a good one ends it
            lam = 1e-3 * scale if rho < 0.25 else 0.0
        x, F, F_old, r = x + h, F_new, F, r_new
        if F_old - F <= FTOL * F_old:
            return x, njev, nfev, True, "CONVERGENCE: relative decrease of F <= ftol"
    return x, njev, nfev, False, "ABNORMAL: non-finite objective or gradient"


def solve_update(spec: ModelSpec, window: HorizonWindow, prior: ParamVector,
                 config: MheConfig):
    """Minimize the horizon objective from the prior; descent guaranteed.

    The objective is a nonlinear least-squares problem (output residuals
    over the window plus sqrt(mu)-scaled prior residuals), solved by
    ``_levenberg_marquardt`` with the exact output Jacobian, or by
    ``lbfgs.minimize``, the evaluations of scipy's L-BFGS-B in numpy, with
    the exact window gradient; both derivatives come from the same reverse
    pass of ``models``.  Both warm-start at the prior and reject a trial
    point where the model blows up: LM as a step that does not lower the
    objective, L-BFGS as a failed line search, which falls back to the last
    accepted iterate.  If the optimizer reports a point no better than the
    prior, the prior is returned unchanged.  Returns ``(solution,
    AdaptCheckpoint)``; LM's ``iterations`` counts its Jacobians.

    The record's costs at the prior and at the solution are those of the
    optimizer's own evaluations there, in the same bits as ``mhe_cost``;
    ``mhe_cost`` rolls the model out only for a point it never evaluated.
    """
    n = models.param_count(spec)
    theta_p = prior.values[:n]       # a view of the prior: nothing writes through it
    mu = config.mu
    evaluated = {}        # theta bytes -> (total, fit, prior_term)

    def embed(theta_t):
        vals = prior.values.copy()
        vals[:n] = theta_t
        return prior.replace_values(vals)

    def record(theta_t, fit):
        dv = theta_t - theta_p
        prior_term = float(dv @ dv)
        total = fit + mu * prior_term
        evaluated[theta_t.tobytes()] = (total, fit, prior_term)
        return total, dv

    def costs(theta_t, params):
        hit = evaluated.get(theta_t.tobytes())
        return hit if hit is not None else mhe_cost(spec, params, window, prior, mu)

    if config.solver == "lm":
        def fit(theta_t):
            try:
                pred, _ = models.simulate(spec, embed(theta_t), window.x_init, window.inputs)
            except models.NumericalBlowupError:
                return np.inf, None
            res = pred - window.outputs
            return record(theta_t, float(np.sum(res * res)))[0], res.ravel()

        def linearize(theta):
            return models.output_jacobian(spec, embed(theta), window.x_init, window.inputs)[1]

        x_opt, nit, nfev, success, message = _levenberg_marquardt(
            fit, linearize, theta_p, mu, config.max_iter)
    else:
        def objective(theta_t):
            try:
                fit, grad = models.window_loss_and_gradient(
                    spec, embed(theta_t), window.x_init, window.inputs, window.outputs)
            except models.NumericalBlowupError:
                return np.inf, np.full_like(theta_t, np.nan)
            total, dv = record(theta_t, fit)
            return total, grad + 2.0 * mu * dv

        x_opt, nit, nfev, success, message = lbfgs.minimize(
            objective, theta_p, config.max_iter, GTOL, FTOL)

    try:
        total_prior, fit_prior, _ = costs(theta_p, prior)
    except models.NumericalBlowupError as exc:
        raise models.NumericalBlowupError(
            f"update at k={window.k}: the prior itself blows up on its window: {exc}",
            step=exc.step) from exc
    solution = embed(x_opt)
    total, fit, prior_term = costs(x_opt, solution)
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

    The first update fires at k = t0 + h + N, where t0 is the first
    sample's time and h = ``history_length(spec, config.washout)``, and
    then every N steps, each solve anchored to the previous solution; a
    gap raises ``ValueError``.  The first update needs h + N + 1 samples,
    each later one only its own N + 1.  Returns (checkpoints,
    ``{"peak_buffered": n}``), n the most samples held at once, h + N + 1
    from the first update on.  ``on_checkpoint`` is called with each
    checkpoint; what it raises ends the run there.

    One rule starts every window.  The first starts from
    ``reconstruct_initial_state`` on its h history samples, and each later
    one from its arrival state: the last solution's rollout from the last
    window's start, after N inputs.  An NNARX model's is its fed-back
    regressor, not measured pairs.
    """
    N = config.N
    history_need = history_length(spec, config.washout)
    buffer = deque(maxlen=history_need + N + 1)
    prior = initial_params
    checkpoints = []
    last_t = next_k = window = None
    for sample in stream:
        if last_t is not None and sample.t != last_t + 1:
            raise ValueError(f"stream gap at t={sample.t} (expected {last_t + 1})")
        if last_t is None:
            next_k = sample.t + history_need + N
        last_t = sample.t
        buffer.append(sample)
        if sample.t < next_k:
            continue
        buffered = list(buffer)
        history, window_samples = buffered[:-(N + 1)], buffered[-(N + 1):]
        if window is None:
            x_init = reconstruct_initial_state(spec, prior, [s.u for s in history],
                                               [s.y for s in history], history_need)
        else:  # window and prior are still the last update's
            x_init = models.simulate(spec, prior, window.x_init, window.inputs[:N])[1][-1]
        window = HorizonWindow(
            inputs=np.array([s.u for s in window_samples], dtype=float),
            outputs=np.array([s.y for s in window_samples], dtype=float),
            x_init=x_init,
            k=sample.t)
        solution, ckpt = solve_update(spec, window, prior, config)
        checkpoints.append(ckpt)
        if on_checkpoint is not None:
            on_checkpoint(ckpt)
        prior = solution
        next_k = sample.t + N
    # the deque never shrinks, so its final length is its peak
    return checkpoints, {"peak_buffered": len(buffer)}


def sequence_stream(sequence):
    """IOSample stream over a recorded sequence, one sample per step."""
    for t in range(len(sequence.u)):
        yield IOSample(u=sequence.u[t], y=sequence.y[t], t=t)


def save_checkpoints(path, checkpoints):
    with open(path, "w") as fh:
        for c in checkpoints:
            fh.write(c.to_json() + "\n")


def load_checkpoints(path, spec: ModelSpec):
    with open(path) as fh:
        return [AdaptCheckpoint.from_json(line, spec) for line in fh if line.strip()]
