"""Diagnostics for the contraction analysis of the horizon updates.

In the matched noiseless setting (plant = model with unknown true
weights theta_o), each update contracts the squared weight error

    eps_k = ||theta_o - theta_k||^2

by at least rho_c = 2*mu / (mu/2 + delta), provided mu < (2/3)*delta,
where delta lower-bounds the identifiability ratio

    ||Gamma(theta_o, theta)||^2 / ||theta_o - theta||^2

of windowed output-error energy to weight-error energy.  delta is not
computable globally; this module delivers a sampled surrogate (minimum
of the ratio over drawn perturbations and windows, which bounds delta
from above) and scopes all verdicts to that sample.

``twin_study`` runs the whole check on a matched twin and solves the windows
it samples delta on; ``converge`` and demo 05 only write or print its result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import mhe, models, plant
from .models import ModelSpec, ParamVector

# an update violates the contraction when eps_k > rho_c * eps_{k-N} * (1 + VIOLATION_TOL)
VIOLATION_TOL = 0.01
HOLD_STEPS = 5  # samples that each random input level of the twin is held


def epsilon(theta_true: ParamVector, theta: ParamVector) -> float:
    """Squared weight error over trainable coordinates."""
    if theta_true.spec != theta.spec:
        raise ValueError("parameter vectors belong to different specs")
    n = models.param_count(theta_true.spec)
    dv = theta_true.values[:n] - theta.values[:n]
    return float(dv @ dv)


@dataclass
class DeltaEstimate:
    delta_hat: float
    n_samples: int
    perturbations: np.ndarray    # (perturbation, weight): the drawn rows, then the probes
    ratios: np.ndarray           # (perturbation, window) output/weight error ratios


def estimate_delta(spec: ModelSpec, theta_true: ParamVector, windows,
                   cc: ConvergeConfig, radius: float, seed: int) -> DeltaEstimate:
    """Sampled upper-bound surrogate for the identifiability constant.

    Draws ``cc.delta_samples`` random weight perturbations of norm up to
    ``radius`` from ``seed``, adds the ``cc.probe_smallest`` least-sensitive
    directions of each window's output Jacobian, null directions included,
    and reports the minimum output-error/weight-error ratio over every
    perturbation and window (one batched rollout per window).
    ``twin_study`` passes radius 2*sqrt(eps0) and seed + 3.
    """
    if not windows:
        raise ValueError("need at least one window")
    n = models.param_count(spec)
    rng = np.random.default_rng(seed)
    perturbations = []
    for _ in range(cc.delta_samples):
        d = rng.normal(size=n)
        d *= rng.uniform(0.1, 1.0) * radius / np.linalg.norm(d)
        perturbations.append(d)
    if cc.probe_smallest > 0:
        # Random draws concentrate near the bulk of the sensitivity spectrum
        # and can miss sloppy (weakly identifiable) directions by many orders
        # of magnitude.  Propose the least-sensitive right singular vectors of
        # each window's output Jacobian as additional candidates, from the
        # full V: with fewer residuals than weights the thin V spans only the
        # row space and misses the null directions, of first-order ratio 0.
        for w in windows:
            _, J = models.output_jacobian(spec, theta_true, w.x_init, w.inputs)
            _, _, Vt = np.linalg.svd(J)
            for v in Vt[-cc.probe_smallest:]:
                # the ratio infimum is approached at small norms, so probe
                # down to a small fraction of the radius as well
                for frac in (1e-3, 1e-2, 0.1, 0.3, 1.0):
                    perturbations.append(frac * radius * v)

    # row 0 is theta_true, row 1 + p its p-th perturbation: one batched
    # rollout per window gives every ratio on that window
    D = np.array(perturbations)
    batch = np.tile(theta_true.values, (len(D) + 1, 1))
    batch[1:, :n] += D
    ratios = np.empty((len(D), len(windows)))
    for wi, w in enumerate(windows):
        outs = models.batch_param_outputs(spec, batch, w.x_init, w.inputs)
        ratios[:, wi] = np.sum((outs[:, 1:] - outs[:, :1]) ** 2, axis=(0, 2))
    ratios /= np.sum(D ** 2, axis=1)[:, None]
    return DeltaEstimate(delta_hat=float(ratios.min()), n_samples=ratios.size,
                         perturbations=D, ratios=ratios)


def contraction_coefficient(mu: float, delta: float):
    """(rho_c, satisfied): rho_c = 2mu/(mu/2 + delta), satisfied iff < 1."""
    if not 0 < delta < np.inf:           # NaN fails it too
        raise ValueError("delta must be positive and finite")
    if not 0 <= mu < np.inf:
        raise ValueError("mu must be nonnegative and finite")
    rho = 2.0 * mu / (0.5 * mu + delta)
    return rho, rho < 1.0


@dataclass
class ConvergenceReport:
    ks: list
    epsilons: list
    ratios: list                 # eps_k / eps_{k-N}, nan where undefined
    rho_c: float
    violations: list             # checkpoint indices of contraction violations

    def to_rows(self):
        return [{"k": k, "epsilon": e, "ratio": r, "rho_c": self.rho_c,
                 "violated": i in self.violations}
                for i, (k, e, r) in enumerate(zip(self.ks, self.epsilons, self.ratios))]


def track_error(checkpoints, initial: ParamVector, theta_true: ParamVector,
                delta_hat: float, mu: float) -> ConvergenceReport:
    """Per-update weight-error trajectory vs the theoretical contraction.

    ``initial`` is the run's starting weights, the prior of the first
    update; every later prior is the previous checkpoint's solution.
    """
    rho_c, _ = contraction_coefficient(mu, delta_hat)
    ks, eps, ratios, violations = [], [], [], []
    prev = epsilon(theta_true, initial)
    for i, c in enumerate(checkpoints):
        e = epsilon(theta_true, c.solution)
        ks.append(c.k)
        eps.append(e)
        if prev > 0:
            r = e / prev
            ratios.append(r)
            if e > rho_c * prev * (1.0 + VIOLATION_TOL):
                violations.append(i)
        else:
            ratios.append(float("nan"))
        prev = e
    return ConvergenceReport(ks=ks, epsilons=eps, ratios=ratios, rho_c=rho_c,
                             violations=violations)


@dataclass(frozen=True)
class ConvergeConfig:
    """Settings of the matched-twin contraction study."""

    horizon: int = 200        # window length N of the twin study
    washout: int = 50         # samples before the first window (NNARX: its order)
    n_updates: int = 10
    eps0: float = 0.1         # squared weight error of the perturbed prior
    delta_samples: int = 30   # random perturbations for delta estimation
    probe_smallest: int = 2   # least-identifiable directions probed per window
    max_iter: int = 400

    def __post_init__(self):
        plant.check_fields(self, ints=(("horizon", 1), ("washout", 0), ("n_updates", 1),
                                       ("delta_samples", 0), ("probe_smallest", 0),
                                       ("max_iter", 1)),
                           positive=("eps0",))
        if self.delta_samples == self.probe_smallest == 0:
            raise ValueError("delta_samples and probe_smallest cannot both be 0")


def twin_study(spec: ModelSpec, cc: ConvergeConfig, seed: int, walls: dict):
    """(summary, ConvergenceReport) of the matched-twin contraction study.

    The twin's weights come from ``seed``; its held random inputs, the
    prior's perturbation (squared norm ``cc.eps0``) and the delta sampler
    from ``seed + 1``, ``+ 2`` and ``+ 3``.  delta is estimated on the
    ``cc.n_updates`` windows the run solves, mu = delta_hat / 3 (so
    rho_c = 4/7); a tightly converged LM then solves each window in turn
    from the twin's true state at its start, the last solution its prior.
    ``walls`` gets the estimate's and the run's wall times.
    """
    theta_o = models.init_params(spec, seed, "uniform")
    N = cc.horizon
    history = mhe.history_length(spec, cc.washout)
    # first update at k = history + N, then every N steps: exactly n_updates
    T = history + cc.n_updates * N + 1
    rng = np.random.default_rng(seed + 1)
    u = rng.normal(size=(-(-T // HOLD_STEPS), spec.n_u)).repeat(HOLD_STEPS, axis=0)[:T]
    y, xs = models.simulate(spec, theta_o, models.zero_state(spec), u)

    n = models.param_count(spec)
    d = np.random.default_rng(seed + 2).normal(size=n)
    d *= np.sqrt(cc.eps0) / np.linalg.norm(d)
    vals = theta_o.values.copy()
    vals[:n] += d
    prior = theta_o.replace_values(vals)
    eps0 = epsilon(theta_o, prior)

    windows = [mhe.HorizonWindow(inputs=u[k - N:k + 1], outputs=y[k - N:k + 1],
                                 x_init=xs[k - N], k=k)
               for k in range(history + N, T, N)]
    t0 = time.perf_counter()
    estimate = estimate_delta(spec, theta_o, windows, cc, 2.0 * np.sqrt(eps0), seed + 3)
    walls["estimate_delta"] = time.perf_counter() - t0
    mu = 0.5 * (2.0 / 3.0) * estimate.delta_hat
    rho_c, satisfied = contraction_coefficient(mu, estimate.delta_hat)

    cfg = mhe.MheConfig(N=N, mu=mu, max_iter=cc.max_iter, solver="lm")
    t1 = time.perf_counter()
    checkpoints, theta = [], prior
    for w in windows:
        theta, ckpt = mhe.solve_update(spec, w, theta, cfg)
        checkpoints.append(ckpt)
    walls["adapt"] = time.perf_counter() - t1
    report = track_error(checkpoints, prior, theta_o, estimate.delta_hat, mu)
    summary = {"delta_hat": estimate.delta_hat, "mu": mu, "rho_c": rho_c,
               "contraction_satisfied": satisfied, "eps0": eps0,
               "final_epsilon": report.epsilons[-1], "n_updates": len(checkpoints),
               "violations": report.violations, "delta_samples": estimate.n_samples}
    return summary, report
