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

from mhenet import convergence, models
from mhenet.models import ModelSpec

spec = ModelSpec("gru", 2, 3, 2)
print(f"matched twin: GRU with {models.param_count(spec)} weights")

# The study draws the twin's weights (seed 42), excites it with random
# inputs held for 5 samples, perturbs the weights by eps0 = 0.04 (squared
# distance) to get the initial model, estimates delta on 6 windows and
# solves those same windows in turn, each from the twin's true state at
# its start (the state is known exactly) with the last solution as prior.
cc = convergence.ConvergeConfig(horizon=60, washout=20, n_updates=6, eps0=0.04,
                                delta_samples=30, probe_smallest=2, max_iter=400)
result, report = convergence.twin_study(spec, cc, seed=42, walls={})

print(f"\ndelta_hat = {result['delta_hat']:.3e} "
      f"({result['delta_samples']} probes over {result['n_updates']} windows)")
print(f"mu = delta_hat/3 = {result['mu']:.3e}  ->  rho_c = {result['rho_c']:.4f} "
      f"(contraction guaranteed: {result['contraction_satisfied']})")
print(f"\n{'k':>5} {'eps_k':>12} {'ratio':>8}   bound rho_c = {report.rho_c:.4f}")
for k, e, r in zip(report.ks, report.epsilons, report.ratios):
    print(f"{k:5d} {e:12.3e} {r:8.4f}")
print(f"\nviolations of the bound: {report.violations or 'none'}")
print(f"eps fell from {result['eps0']:.1e} to {result['final_epsilon']:.1e} "
      f"({result['final_epsilon'] / result['eps0']:.1e} of the initial error)")
