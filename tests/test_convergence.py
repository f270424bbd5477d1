import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from mhenet import convergence as cv
from mhenet import mhe, models
from mhenet.models import ModelSpec

from conftest import ALL_SPECS, random_params

SCALAR = ModelSpec("linear", 1, 0, 1)


def output_error_stack(spec, theta_true, theta_cand, window):
    """Gamma: the stacked output differences of two single rollouts from
    the window's x_init, the oracle for estimate_delta's batched ratios."""
    y_true, _ = models.simulate(spec, theta_true, window.x_init, window.inputs)
    y_cand, _ = models.simulate(spec, theta_cand, window.x_init, window.inputs)
    return (y_true - y_cand).ravel()


def scalar_window(u, k=0):
    u = np.asarray(u, dtype=float).reshape(-1, 1)
    return mhe.HorizonWindow(inputs=u, outputs=np.zeros_like(u),
                             x_init=np.zeros(0), k=k)


class TestOutputErrorStack:
    def test_identical_params_zero(self, rng):
        spec = ModelSpec("gru", 2, 3, 2)
        p = random_params(spec, rng)
        w = mhe.HorizonWindow(inputs=rng.normal(size=(5, 2)),
                              outputs=np.zeros((5, 2)),
                              x_init=rng.normal(size=3), k=4)
        g = output_error_stack(spec, p, p, w)
        assert np.all(g == 0.0)
        assert g.shape == (10,)

    def test_scalar_hand_arithmetic(self):
        # y = theta*u, u=[1,2], theta_true=2, theta=1 -> Gamma = [1, 2]
        t2 = models.ParamVector(SCALAR, [2.0])
        t1 = models.ParamVector(SCALAR, [1.0])
        g = output_error_stack(SCALAR, t2, t1, scalar_window([1.0, 2.0]))
        assert np.allclose(g, [1.0, 2.0])
        assert float(g @ g) == pytest.approx(5.0)

    def test_norm_equals_fit_term_on_matched_window(self, rng):
        spec = ModelSpec("lstm", 2, 3, 2)
        theta_o = random_params(spec, rng, scale=0.2)
        theta = random_params(spec, rng, scale=0.2)
        x0 = rng.normal(scale=0.2, size=6)
        u = rng.normal(size=(7, 2))
        y, _ = models.simulate(spec, theta_o, x0, u)
        w = mhe.HorizonWindow(inputs=u, outputs=y, x_init=x0, k=6)
        g = output_error_stack(spec, theta_o, theta, w)
        _, fit, _ = mhe.mhe_cost(spec, theta, w, theta, mu=0.0)
        assert float(g @ g) == pytest.approx(fit, abs=1e-12)


class TestEpsilon:
    def test_zero_at_truth(self, rng):
        spec = ModelSpec("gru", 2, 3, 1)
        p = random_params(spec, rng)
        assert cv.epsilon(p, p) == 0.0

    def test_unit_differences(self):
        spec = ModelSpec("linear", 2, 0, 2)
        a = models.ParamVector(spec, np.zeros(4))
        b = models.ParamVector(spec, np.ones(4))
        assert cv.epsilon(a, b) == 4.0

    def test_spec_mismatch_rejected(self):
        a = models.ParamVector(SCALAR, [1.0])
        b = models.ParamVector(ModelSpec("linear", 2, 0, 1), [1.0, 1.0])
        with pytest.raises(ValueError):
            cv.epsilon(a, b)

    def test_esn_ignores_frozen_reservoir(self, rng):
        spec = ModelSpec("esn", 2, 6, 1, spectral_radius=0.9)
        a = models.init_params(spec, 1, "uniform")
        vals = a.values.copy()
        vals[models.param_count(spec):] += 10.0  # distance in frozen coords must not count
        b = a.replace_values(vals)
        assert cv.epsilon(a, b) == 0.0

    def test_matched_plant_cost_identity(self, rng):
        # on a window generated by theta_true, the horizon cost evaluated at
        # theta_true reduces to mu times the squared prior distance
        spec = ModelSpec("lstm", 2, 3, 2)
        theta_o = random_params(spec, rng, scale=0.2)
        prior = random_params(spec, rng, scale=0.2)
        x0 = rng.normal(scale=0.2, size=6)
        u = rng.normal(size=(6, 2))
        y, _ = models.simulate(spec, theta_o, x0, u)
        w = mhe.HorizonWindow(inputs=u, outputs=y, x_init=x0, k=5)
        mu = 0.7
        total, _, _ = mhe.mhe_cost(spec, theta_o, w, prior, mu)
        assert total == pytest.approx(mu * cv.epsilon(theta_o, prior), abs=1e-9)


class TestEstimateDelta:
    def test_scalar_closed_form(self):
        # ratio = sum(u^2) = 5 for every perturbation of y = theta*u
        theta_o = models.ParamVector(SCALAR, [2.0])
        cfg = cv.DeltaSamplerConfig(n_samples=20, radius=1.0, seed=0)
        est = cv.estimate_delta(SCALAR, theta_o, [scalar_window([1.0, 2.0])], cfg)
        assert est.delta_hat == pytest.approx(5.0, rel=1e-12)

    def test_zero_input_window_flags_nonidentifiability(self):
        theta_o = models.ParamVector(SCALAR, [2.0])
        cfg = cv.DeltaSamplerConfig(n_samples=5, radius=1.0, seed=0)
        est = cv.estimate_delta(SCALAR, theta_o, [scalar_window([0.0, 0.0])], cfg)
        assert est.delta_hat == 0.0

    def test_deterministic_per_seed(self, rng):
        spec = ModelSpec("gru", 2, 3, 1)
        theta_o = random_params(spec, rng, scale=0.2)
        w = mhe.HorizonWindow(inputs=rng.normal(size=(6, 2)),
                              outputs=np.zeros((6, 1)),
                              x_init=rng.normal(size=3), k=5)
        cfg = cv.DeltaSamplerConfig(n_samples=15, radius=0.5, seed=9)
        a = cv.estimate_delta(spec, theta_o, [w], cfg)
        b = cv.estimate_delta(spec, theta_o, [w], cfg)
        assert a.delta_hat == b.delta_hat
        assert np.array_equal(a.argmin_perturbation, b.argmin_perturbation)

    def test_min_over_windows(self):
        # a second, less exciting window must lower the estimate
        theta_o = models.ParamVector(SCALAR, [2.0])
        cfg = cv.DeltaSamplerConfig(n_samples=10, radius=1.0, seed=0)
        strong = scalar_window([1.0, 2.0])          # ratio 5
        weak = scalar_window([0.1, 0.0])            # ratio 0.01
        est = cv.estimate_delta(SCALAR, theta_o, [strong, weak], cfg)
        assert est.delta_hat == pytest.approx(0.01, rel=1e-12)
        assert est.argmin_window == 1

    def test_extra_perturbations_are_candidates(self, rng):
        spec = ModelSpec("linear", 2, 0, 1)
        theta_o = models.ParamVector(spec, [1.0, 1.0])
        # window exciting only the first input: d along coord 2 gives ratio 0
        u = np.array([[1.0, 0.0], [2.0, 0.0]])
        w = mhe.HorizonWindow(inputs=u, outputs=np.zeros((2, 1)),
                              x_init=np.zeros(0), k=1)
        cfg = cv.DeltaSamplerConfig(n_samples=3, radius=1.0, seed=1)
        blind = cv.estimate_delta(spec, theta_o, [w], cfg)
        seeded = cv.estimate_delta(spec, theta_o, [w], cfg,
                                   extra_perturbations=[np.array([0.0, 0.5])])
        assert seeded.delta_hat == pytest.approx(0.0, abs=1e-15)
        assert seeded.delta_hat <= blind.delta_hat

    def test_probe_finds_sloppy_direction(self, rng):
        # same blind-spot geometry, found without being handed the direction
        spec = ModelSpec("linear", 2, 0, 1)
        theta_o = models.ParamVector(spec, [1.0, 1.0])
        u = np.array([[1.0, 1e-4], [2.0, 2e-4]])
        w = mhe.HorizonWindow(inputs=u, outputs=np.zeros((2, 1)),
                              x_init=np.zeros(0), k=1)
        cfg = cv.DeltaSamplerConfig(n_samples=20, radius=1.0, seed=1)
        blind = cv.estimate_delta(spec, theta_o, [w], cfg)
        probed = cv.estimate_delta(spec, theta_o, [w],
                                   cv.DeltaSamplerConfig(n_samples=20, radius=1.0,
                                                         seed=1, probe_smallest=1))
        assert probed.delta_hat < 1e-3 * blind.delta_hat

    def test_no_windows_rejected(self):
        theta_o = models.ParamVector(SCALAR, [2.0])
        with pytest.raises(ValueError):
            cv.estimate_delta(SCALAR, theta_o, [], cv.DeltaSamplerConfig())

    def test_no_perturbations_rejected(self):
        theta_o = models.ParamVector(SCALAR, [2.0])
        with pytest.raises(ValueError, match="no perturbations to evaluate"):
            cv.estimate_delta(SCALAR, theta_o, [scalar_window([1.0])],
                              cv.DeltaSamplerConfig(n_samples=0),
                              extra_perturbations=[np.zeros(1)])

    @pytest.mark.parametrize("bad", [dict(radius=0.0), dict(radius=-1.0),
                                     dict(radius=np.nan), dict(radius=np.inf),
                                     dict(n_samples=-1), dict(probe_smallest=-1)],
                             ids=["zero-radius", "negative-radius", "nan-radius",
                                  "inf-radius", "negative-samples", "negative-probe"])
    def test_bad_sampler_config_rejected(self, bad):
        with pytest.raises(ValueError):
            cv.DeltaSamplerConfig(**bad)

    @pytest.mark.parametrize("kind", sorted(ALL_SPECS))
    def test_batched_ratios_match_per_pair_oracle(self, kind, rng):
        spec = ALL_SPECS[kind]
        theta_o = random_params(spec, rng, scale=0.2)
        n = models.param_count(spec)
        windows = [mhe.HorizonWindow(inputs=rng.normal(size=(8, spec.n_u)),
                                     outputs=np.zeros((8, spec.n_y)),
                                     x_init=rng.normal(scale=0.2,
                                                       size=models.state_size(spec)),
                                     k=7)
                   for _ in range(3)]
        ds = [s * rng.normal(size=n) for s in (0.01, 0.3, 0.05, 0.1, 0.5)]
        oracle = np.empty((len(ds), len(windows)))
        for p, d in enumerate(ds):
            vals = theta_o.values.copy()
            vals[:n] += d
            cand = theta_o.replace_values(vals)
            for wi, w in enumerate(windows):
                g = output_error_stack(spec, theta_o, cand, w)
                oracle[p, wi] = float(g @ g) / float(d @ d)
        est = cv.estimate_delta(spec, theta_o, windows,
                                cv.DeltaSamplerConfig(n_samples=0),
                                extra_perturbations=ds)
        np.testing.assert_allclose(est.ratios, oracle, rtol=1e-12)
        best_p, best_wi = np.unravel_index(np.argmin(oracle), oracle.shape)
        assert est.delta_hat == pytest.approx(oracle[best_p, best_wi], rel=1e-12)
        assert est.argmin_window == best_wi
        assert np.array_equal(est.argmin_perturbation, ds[best_p])
        assert est.n_samples == oracle.size


class TestContractionCoefficient:
    def test_zero_mu(self):
        rho, ok = cv.contraction_coefficient(0.0, 1.0)
        assert rho == 0.0 and ok

    def test_mu_equal_delta(self):
        rho, ok = cv.contraction_coefficient(1.0, 1.0)
        assert rho == pytest.approx(4.0 / 3.0)
        assert not ok

    def test_boundary_two_thirds(self):
        rho, ok = cv.contraction_coefficient(2.0 / 3.0, 1.0)
        assert rho == pytest.approx(1.0)
        assert not ok  # strict inequality

    def test_monotone_in_mu(self):
        rhos = [cv.contraction_coefficient(mu, 2.0)[0]
                for mu in np.linspace(0.01, 3.0, 25)]
        assert all(b > a for a, b in zip(rhos, rhos[1:]))

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            cv.contraction_coefficient(0.1, 0.0)

    @pytest.mark.parametrize("mu,delta", [
        (0.1, np.nan), (0.1, np.inf), (0.1, -np.inf), (np.nan, 1.0), (np.inf, 1.0),
    ], ids=["nan-delta", "inf-delta", "minus-inf-delta", "nan-mu", "inf-mu"])
    def test_non_finite_rejected(self, mu, delta):
        # NaN used to slip through as (nan, False), and delta = inf as a
        # contraction (0.0, True) claimed from nothing
        with pytest.raises(ValueError, match="finite"):
            cv.contraction_coefficient(mu, delta)


class TestNormInequality:
    def test_young_bound_on_random_triples(self, rng):
        # ||za - zbar||^2 >= 0.5*||za - zb||^2 - ||zbar - zb||^2
        za, zb, zbar = rng.normal(size=(3, 100000, 8))
        lhs = np.sum((za - zbar) ** 2, axis=1)
        rhs = 0.5 * np.sum((za - zb) ** 2, axis=1) - np.sum((zbar - zb) ** 2, axis=1)
        assert np.all(lhs >= rhs)


class TestTrackError:
    def _chain(self, initial, solutions, ks):
        """Records of a run from ``initial``; each prior is the previous
        solution, as in ``run_adaptation``."""
        ckpts, prior = [], initial
        for sol, k in zip(solutions, ks):
            dv = sol.values - prior.values
            ckpts.append(mhe.AdaptCheckpoint(
                k=k, solution=sol, fit_cost=0.0, prior_cost=float(dv @ dv),
                total_cost=0.0, iterations=1, n_evals=1, converged=True, message=""))
            prior = sol
        return ckpts

    def test_truth_throughout_gives_zero_epsilons(self, rng):
        spec = ModelSpec("linear", 2, 0, 1)
        t = models.ParamVector(spec, [1.0, 2.0])
        ckpts = self._chain(t, [t, t, t], (5, 10, 15))
        rep = cv.track_error(ckpts, t, t, delta_hat=1.0, mu=0.1)
        assert rep.epsilons == [0.0, 0.0, 0.0]
        assert all(np.isnan(r) for r in rep.ratios)
        assert rep.violations == []

    def test_scalar_closed_form_chain(self):
        # data u=[1,1], theta_o=2, prior=0, mu=2 -> theta*=1:
        # eps falls 4 -> 1, ratio 0.25 <= rho_c = 2/3 (delta = 5)
        theta_o = models.ParamVector(SCALAR, [2.0])
        prior = models.ParamVector(SCALAR, [0.0])
        w = mhe.HorizonWindow(inputs=np.ones((2, 1)), outputs=2.0 * np.ones((2, 1)),
                              x_init=np.zeros(0), k=1)
        sol, _ = mhe.solve_update(SCALAR, w, prior, mhe.MheConfig(N=1, mu=2.0))
        assert sol.values[0] == pytest.approx(1.0, abs=1e-8)
        rep = cv.track_error(self._chain(prior, [sol], [1]), prior, theta_o,
                             delta_hat=5.0, mu=2.0)
        assert rep.epsilons[0] == pytest.approx(1.0, abs=1e-7)
        assert rep.ratios[0] == pytest.approx(0.25, abs=1e-7)
        assert rep.rho_c == pytest.approx(2.0 / 3.0)
        assert rep.violations == []

    def test_later_ratios_use_previous_solution(self):
        # eps 4 (initial) -> 1 -> 0.25: both ratios 0.25
        theta_o = models.ParamVector(SCALAR, [2.0])
        initial = models.ParamVector(SCALAR, [0.0])
        sols = [models.ParamVector(SCALAR, [v]) for v in (1.0, 1.5)]
        rep = cv.track_error(self._chain(initial, sols, [1, 2]), initial, theta_o,
                             delta_hat=5.0, mu=2.0)
        assert rep.epsilons == [1.0, 0.25]
        assert rep.ratios == [0.25, 0.25]

    def test_violation_flagged(self):
        spec = ModelSpec("linear", 1, 0, 1)
        theta_o = models.ParamVector(spec, [2.0])
        prior = models.ParamVector(spec, [0.0])     # eps 4
        stuck = models.ParamVector(spec, [0.1])     # eps 3.61, ratio ~0.9
        rep = cv.track_error(self._chain(prior, [stuck], [1]), prior, theta_o,
                             delta_hat=10.0, mu=1.0)  # rho_c = 2/10.5 ~ 0.19
        assert rep.violations == [0]

    def test_rows_shape(self):
        spec = ModelSpec("linear", 1, 0, 1)
        t = models.ParamVector(spec, [1.0])
        p = models.ParamVector(spec, [0.0])
        rep = cv.track_error(self._chain(p, [t], [3]), p, t, delta_hat=1.0, mu=0.1)
        rows = rep.to_rows()
        assert rows[0]["k"] == 3
        assert set(rows[0]) == {"k", "epsilon", "ratio", "rho_c", "violated"}


def test_demo_05_solves_its_n_updates_windows(tmp_path):
    # the demo sets n_updates = 6: it must estimate delta over 6 windows and
    # print one table row per update, as converge does
    demo = pathlib.Path(__file__).resolve().parents[1] / "demos" / "05_convergence_diagnostics.py"
    src = pathlib.Path(models.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=300)
    assert done.returncode == 0, done.stderr
    assert re.search(r"probes over (\d+) windows", done.stdout).group(1) == "6"
    table = re.findall(r"^ *\d+ +\S+e[-+]\d+ +\d+\.\d{4}$", done.stdout, re.MULTILINE)
    assert len(table) == 6
