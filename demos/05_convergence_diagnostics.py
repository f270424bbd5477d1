"""Convergence guarantees for moving-horizon weight adaptation.

When the data-generating system is itself a network of the assumed
architecture (a "matched twin" with true weights Theta°), the weight
error of the adapted model can be shown to contract geometrically:

    eps_k <= rho_c * eps_{k-N},    rho_c = 2 mu / (mu/2 + delta),

where eps_k = ||Theta° - Theta_k||^2 and delta is an identifiability
constant: a lower bound on how strongly a weight perturbation shows up
in the window outputs.  The guarantee holds whenever mu < (2/3) delta.

The catch is that delta must be estimated, and for recurrent networks
it is tiny: most weight directions are "sloppy" and barely move the
outputs, so random probing alone wildly overestimates delta.  The
estimator therefore also probes along the least-sensitive singular
directions of the window Jacobian.

This demo runs the full diagnostic on a small GRU twin: estimate
delta, choose mu = delta/3 (half the largest admissible value, giving
rho_c = 4/7), adapt, and check every update against the bound.
"""

import numpy as np

from mhenet import convergence, mhe, models, plant
from mhenet.models import ModelSpec

spec = ModelSpec("gru", 2, 3, 2)
theta_true = models.init_params(spec, seed=42, scheme="uniform")
print(f"matched twin: GRU with {models.param_count(spec)} weights")

# Excite the twin with piecewise-constant random inputs.
rng = np.random.default_rng(7)
N, washout, n_updates = 60, 20, 6
history = mhe.history_length(spec, washout)
T = history + n_updates * N + 1   # first update at k = history + N, then every N
u = rng.normal(size=(-(-T // 5), spec.n_u)).repeat(5, axis=0)[:T]
y, xs = models.simulate(spec, theta_true, models.zero_state(spec), u)

# Perturb the weights by eps0 = 0.04 (squared distance) to get the
# initial model, then list the windows the run will solve on.
eps0 = 0.04
n = models.param_count(spec)
d = rng.normal(size=n)
vals = theta_true.values.copy()
vals[:n] += np.sqrt(eps0) / np.linalg.norm(d) * d
prior = theta_true.replace_values(vals)

windows = [mhe.HorizonWindow(inputs=u[k - N:k + 1], outputs=y[k - N:k + 1],
                             x_init=xs[k - N], k=k)
           for k in range(history + N, T, N)]

sampler = convergence.DeltaSamplerConfig(n_samples=30,
                                         radius=2.0 * np.sqrt(eps0),
                                         seed=3, probe_smallest=2)
estimate = convergence.estimate_delta(spec, theta_true, windows, sampler)
mu = estimate.delta_hat / 3.0
rho_c, ok = convergence.contraction_coefficient(mu, estimate.delta_hat)
print(f"\ndelta_hat = {estimate.delta_hat:.3e} "
      f"({estimate.n_samples} probes over {len(windows)} windows)")
print(f"mu = delta_hat/3 = {mu:.3e}  ->  rho_c = {rho_c:.4f} "
      f"(contraction guaranteed: {ok})")

# Adapt with the oracle observer (the twin's state is known exactly).
seq = plant.Sequence(u=u, y=y, tau=0.1)
cfg = mhe.MheConfig(N=N, mu=mu, washout=washout, observer="oracle",
                    solver="lm", max_iter=400, gtol=1e-14, ftol=3e-16)
checkpoints, _ = mhe.run_adaptation(spec, prior, mhe.sequence_stream(seq, xs), cfg)
report = convergence.track_error(checkpoints, prior, theta_true,
                                 estimate.delta_hat, mu)

print(f"\n{'k':>5} {'eps_k':>12} {'ratio':>8}   bound rho_c = {rho_c:.4f}")
for k, e, r in zip(report.ks, report.epsilons, report.ratios):
    print(f"{k:5d} {e:12.3e} {r:8.4f}")
print(f"\nviolations of the bound: {report.violations or 'none'}")
print(f"eps fell from {eps0:.1e} to {report.epsilons[-1]:.1e} "
      f"({report.epsilons[-1] / eps0:.1e} of the initial error)")
