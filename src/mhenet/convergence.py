"""Diagnostics for the contraction analysis of the horizon updates.

In the matched noiseless setting (plant = model with unknown true
weights theta_o), each update contracts the squared weight error

    eps_k = ||theta_o - theta_k||^2

by at least rho_c = 2*mu / (mu/2 + delta), provided mu < (2/3)*delta,
where delta lower-bounds the identifiability ratio

    ||Gamma(theta_o, theta)||^2 / ||theta_o - theta||^2

of windowed output-error energy to weight-error energy.  delta is not
computable globally; this module delivers a sampled surrogate (minimum
of the ratio over drawn perturbations and windows) and scopes all
verdicts to that sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models
from .models import ModelSpec, ParamVector


def epsilon(theta_true: ParamVector, theta: ParamVector) -> float:
    """Squared weight error over trainable coordinates."""
    if theta_true.spec != theta.spec:
        raise ValueError("parameter vectors belong to different specs")
    n = models.param_count(theta_true.spec)
    dv = theta_true.values[:n] - theta.values[:n]
    return float(dv @ dv)


@dataclass(frozen=True)
class DeltaSamplerConfig:
    n_samples: int = 200
    radius: float = 1.0          # perturbation norm upper bound
    seed: int = 0
    probe_smallest: int = 0      # least-identifiable directions per window to probe

    def __post_init__(self):
        if not 0.0 < self.radius < np.inf or min(self.n_samples, self.probe_smallest) < 0:
            raise ValueError("need 0 < radius < inf, n_samples >= 0, probe_smallest >= 0")


@dataclass
class DeltaEstimate:
    delta_hat: float
    n_samples: int
    argmin_window: int           # index of the window attaining the minimum
    argmin_perturbation: np.ndarray
    ratios: np.ndarray           # (perturbation, window) output/weight error ratios


def estimate_delta(spec: ModelSpec, theta_true: ParamVector, windows,
                   config: DeltaSamplerConfig,
                   extra_perturbations=None) -> DeltaEstimate:
    """Sampled lower-bound surrogate for the identifiability constant.

    Draws random weight perturbations within the radius, evaluates the
    output-error/weight-error ratio of every perturbation on every window
    (one batched rollout per window), and reports the minimum; ties go to
    the first perturbation, then the first window.  Deterministic per seed.
    """
    if not windows:
        raise ValueError("need at least one window")
    n = models.param_count(spec)
    rng = np.random.default_rng(config.seed)
    perturbations = []
    for _ in range(config.n_samples):
        d = rng.normal(size=n)
        d *= rng.uniform(0.1, 1.0) * config.radius / np.linalg.norm(d)
        perturbations.append(d)
    extra = [np.asarray(d, dtype=float) for d in extra_perturbations or ()]
    perturbations += [d for d in extra if np.linalg.norm(d) > 0]
    if config.probe_smallest > 0:
        # Random draws concentrate near the bulk of the sensitivity spectrum
        # and can miss sloppy (weakly identifiable) directions by many orders
        # of magnitude.  Propose the least-sensitive right singular vectors of
        # each window's output Jacobian as additional candidates; they are
        # evaluated through the exact nonlinear ratio like any other sample.
        for w in windows:
            _, J = models.output_jacobian(spec, theta_true, w.x_init, w.inputs)
            _, _, Vt = np.linalg.svd(J, full_matrices=False)
            for v in Vt[-config.probe_smallest:]:
                # the ratio infimum is approached at small norms, so probe
                # down to a small fraction of the radius as well
                for frac in (1e-3, 1e-2, 0.1, 0.3, 1.0):
                    perturbations.append(frac * config.radius * v)
    if not perturbations:
        raise ValueError("no perturbations to evaluate")

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
    # row-major argmin: the first minimal (perturbation, window) pair
    best_p, best_wi = np.unravel_index(np.argmin(ratios), ratios.shape)
    return DeltaEstimate(delta_hat=float(ratios[best_p, best_wi]),
                         n_samples=ratios.size,
                         argmin_window=int(best_wi),
                         argmin_perturbation=perturbations[best_p],
                         ratios=ratios)


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
    violations: list             # checkpoint indices exceeding rho_c * (1 + tol)
    tol: float

    def to_rows(self):
        rows = []
        for i, (k, e, r) in enumerate(zip(self.ks, self.epsilons, self.ratios)):
            rows.append({"k": k, "epsilon": e, "ratio": r, "rho_c": self.rho_c,
                         "violated": i in self.violations})
        return rows


def track_error(checkpoints, initial: ParamVector, theta_true: ParamVector,
                delta_hat: float, mu: float, tol: float = 0.01) -> ConvergenceReport:
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
            if e > rho_c * prev * (1.0 + tol):
                violations.append(i)
        else:
            ratios.append(float("nan"))
        prev = e
    return ConvergenceReport(ks=ks, epsilons=eps, ratios=ratios, rho_c=rho_c,
                             violations=violations, tol=tol)
