import numpy as np
import pytest
from scipy import optimize

from mhenet import lbfgs, models
from mhenet.models import ModelSpec

from conftest import random_params

MU = 0.1


def window_objective(spec, rng, T=11):
    """The horizon objective of ``mhe.solve_update`` on a random window."""
    prior = random_params(spec, rng)
    n = models.param_count(spec)
    theta_p = prior.values[:n]
    x_init = rng.normal(scale=0.2, size=len(models.zero_state(spec)))
    u, y = rng.normal(size=(T, spec.n_u)), rng.normal(size=(T, spec.n_y))

    def fun(theta):
        vals = prior.values.copy()
        vals[:n] = theta
        fit, grad = models.window_loss_and_gradient(
            spec, prior.replace_values(vals), x_init, u, y)
        dv = theta - theta_p
        return fit + MU * (dv @ dv), grad + 2.0 * MU * dv

    return fun, theta_p


class TestScipyParity:
    # iterates drift apart by rounding; near convergence a long run may then
    # take a different path, so parity is asserted for short budgets only
    @pytest.mark.parametrize("max_iter", [1, 2, 3, 10])
    def test_same_evaluations_as_lbfgsb_on_windows(self, max_iter):
        rng = np.random.default_rng(1234)
        for i in range(20):
            spec = ModelSpec("lstm" if i % 2 else "gru", 6, 10, 4)
            fun, x0 = window_objective(spec, rng)
            ref = optimize.minimize(fun, x0, jac=True, method="L-BFGS-B",
                                    options={"maxiter": max_iter, "gtol": 1e-10,
                                             "ftol": 1e-15, "maxcor": 20})
            x, nit, nfev, success, _ = lbfgs.minimize(fun, x0, max_iter, 1e-10, 1e-15)
            assert (nit, nfev, success) == (ref.nit, ref.nfev, ref.success), i
            step = np.linalg.norm(ref.x - x0)
            assert np.max(np.abs(x - ref.x)) <= 1e-12 * step, i

    def test_memory_update_rule_is_lbfgsb(self):
        # the gradient's second coordinate jumps to 1e10 after x0, so at the
        # first update s'y = 1 and y'y = 1e20: L-BFGS-B keeps the pair (it
        # skips only when s'y <= eps * -g's), and its next trial shows it
        def recorded(trials):
            def fun(x):
                trials.append(x.copy())
                g2 = 0.0 if len(trials) == 1 else 1e10
                return 0.5 * (x[0] - 3.0) ** 2, np.array([x[0] - 3.0, g2])
            return fun

        ref, ours = [], []
        optimize.minimize(recorded(ref), np.zeros(2), jac=True, method="L-BFGS-B",
                          options={"maxiter": 2, "gtol": 1e-10, "ftol": 1e-15, "maxcor": 20})
        lbfgs.minimize(recorded(ours), np.zeros(2), 2, 1e-10, 1e-15)
        assert len(ours) == len(ref) >= 3
        np.testing.assert_allclose(ours, ref, rtol=1e-12, atol=1e-20)

    def test_failed_search_with_memory_restarts_along_minus_g(self):
        # the first trial of the second iteration leaves the domain: the
        # solve drops its memory and tries x1 - g(x1), a unit step along -g
        trials = []

        def fun(x):
            trials.append(x.copy())
            if len(trials) == 3:
                return np.inf, np.full_like(x, np.nan)
            return 0.5 * (x[0] ** 2 + 10.0 * x[1] ** 2), np.array([x[0], 10.0 * x[1]])

        x, nit, nfev, success, _ = lbfgs.minimize(fun, np.ones(2), 10, 1e-10, 1e-15)
        x1 = trials[1]
        assert np.array_equal(trials[3], x1 - np.array([x1[0], 10.0 * x1[1]]))
        assert nit >= 2 and nfev == len(trials) > 4 and np.all(np.isfinite(x))

    def test_converged_start_makes_one_evaluation(self):
        x, nit, nfev, success, message = lbfgs.minimize(
            lambda x: (float(x @ x), 2.0 * x), np.zeros(3), 10, 1e-10, 1e-15)
        assert (nit, nfev, success) == (0, 1, True)
        assert message == "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL"


def _gamma(b):
    return np.sqrt(1.0 + b * b) - b


def _yanai(b1, b2):
    g1, g2 = _gamma(b1), _gamma(b2)
    return (lambda a: g1 * np.sqrt((1 - a) ** 2 + b2 ** 2) + g2 * np.sqrt(a * a + b1 ** 2),
            lambda a: g1 * (a - 1) / np.sqrt((1 - a) ** 2 + b2 ** 2)
            + g2 * a / np.sqrt(a * a + b1 ** 2))


def _wiggle(b=0.01, l=39):
    def phi0(a):
        return 1 - a if a <= 1 - b else a - 1 if a >= 1 + b else (a - 1) ** 2 / (2 * b) + b / 2

    def dphi0(a):
        return -1.0 if a <= 1 - b else 1.0 if a >= 1 + b else (a - 1) / b

    w = l * np.pi / 2
    return (lambda a: phi0(a) + 2 * (1 - b) / (l * np.pi) * np.sin(w * a),
            lambda a: dphi0(a) + (1 - b) * np.cos(w * a))


# Moré & Thuente (1994) §5: the six test functions and their derivatives
MORE_THUENTE = {
    "1": (lambda a: -a / (a * a + 2), lambda a: (a * a - 2) / (a * a + 2) ** 2),
    "2": (lambda a: (a + 0.004) ** 5 - 2 * (a + 0.004) ** 4,
          lambda a: 5 * (a + 0.004) ** 4 - 8 * (a + 0.004) ** 3),
    "3": _wiggle(),
    "4": _yanai(1e-3, 1e-3),
    "5": _yanai(1e-2, 1e-3),
    "6": _yanai(1e-3, 1e-2),
}


class TestLineSearchParity:
    # at L-BFGS-B's tolerances these searches reach the same lines of the
    # port as at the published ones
    @pytest.mark.parametrize("alpha0", [1e-3, 1e-1, 1e1, 1e3])
    @pytest.mark.parametrize("name", sorted(MORE_THUENTE))
    def test_same_trials_as_dcsrch(self, name, alpha0):
        DCSRCH = pytest.importorskip("scipy.optimize._dcsrch").DCSRCH
        phi, dphi = MORE_THUENTE[name]
        ref_trials, trials = [], []

        def counted(a):
            ref_trials.append(a)
            return phi(a)

        search = DCSRCH(counted, dphi, ftol=lbfgs.LS_FTOL, gtol=lbfgs.LS_GTOL,
                        xtol=lbfgs.XTOL, stpmin=0.0, stpmax=lbfgs.STPMAX)
        ref_stp, _, _, task = search(alpha0, phi(0.0), dphi(0.0), maxiter=lbfgs.MAX_EVALS)

        def both(a):
            trials.append(a)
            return phi(a), dphi(a)

        found = lbfgs.line_search(both, phi(0.0), dphi(0.0), alpha0)
        assert trials == ref_trials
        assert task.startswith(b"CONV") or task.startswith(b"WARN")
        if task.startswith(b"CONV"):
            assert found[0] == ref_stp
