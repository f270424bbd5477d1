import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mhenet import lbfgs, mhe, models
from mhenet.models import ModelSpec
from mhenet.plant import Sequence

from conftest import ALL_SPECS, random_params, specs

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SCALAR = ModelSpec("linear", 1, 0, 1)


def scalar_window(u, y, k=0):
    u = np.asarray(u, dtype=float).reshape(-1, 1)
    y = np.asarray(y, dtype=float).reshape(-1, 1)
    return mhe.HorizonWindow(inputs=u, outputs=y, x_init=np.zeros(0), k=k)


def regularized_ls(u, y, mu, prior):
    """theta* = (sum(u*y) + mu*prior) / (sum(u^2) + mu) for y = theta*u."""
    u, y = np.asarray(u, dtype=float), np.asarray(y, dtype=float)
    return (np.sum(u * y) + mu * prior) / (np.sum(u * u) + mu)


class TestMheCost:
    def test_zero_at_prior_on_matched_window(self, rng):
        spec = ModelSpec("gru", 2, 3, 2)
        p = random_params(spec, rng)
        x0 = rng.normal(size=3)
        u = rng.normal(size=(6, 2))
        y, _ = models.simulate(spec, p, x0, u)
        w = mhe.HorizonWindow(inputs=u, outputs=y, x_init=x0, k=5)
        total, fit, prior_term = mhe.mhe_cost(spec, p, w, p, mu=0.3)
        assert total == 0.0 and fit == 0.0 and prior_term == 0.0

    def test_perfect_fit_prior_distance(self):
        # perfect fit, ||candidate - prior||^2 = 4, mu = 0.1 -> total 0.4
        cand = models.ParamVector(SCALAR, [2.0])
        prior = models.ParamVector(SCALAR, [4.0])
        w = scalar_window([1.0, 2.0], [2.0, 4.0])
        total, fit, prior_term = mhe.mhe_cost(SCALAR, cand, w, prior, mu=0.1)
        assert fit == pytest.approx(0.0, abs=1e-14)
        assert prior_term == pytest.approx(4.0)
        assert total == pytest.approx(0.4)

    def test_hand_arithmetic(self):
        # y = theta*u, u=[1,1], y=[2,2], theta=1, prior=0, mu=2:
        # fit = 1 + 1 = 2, prior term = 1, total = 4
        cand = models.ParamVector(SCALAR, [1.0])
        prior = models.ParamVector(SCALAR, [0.0])
        w = scalar_window([1.0, 1.0], [2.0, 2.0])
        total, fit, prior_term = mhe.mhe_cost(SCALAR, cand, w, prior, mu=2.0)
        assert (total, fit, prior_term) == (4.0, 2.0, 1.0)


class TestSolveUpdate:
    @pytest.mark.parametrize("solver", ["lm", "lbfgs"])
    def test_scalar_closed_form(self, solver):
        prior = models.ParamVector(SCALAR, [0.0])
        w = scalar_window([1.0, 1.0], [2.0, 2.0])
        cfg = mhe.MheConfig(N=1, mu=2.0, solver=solver, max_iter=500)
        sol, stats = mhe.solve_update(SCALAR, w, prior, cfg)
        assert sol.values[0] == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("solver", ["lm", "lbfgs"])
    def test_scalar_closed_form_random_draws(self, solver, rng):
        for _ in range(50):
            n = int(rng.integers(2, 8))
            u = rng.normal(size=n) + 0.1
            theta_true = rng.normal()
            y = theta_true * u + rng.normal(scale=0.1, size=n)
            mu = float(rng.uniform(0.01, 5.0))
            prior_v = float(rng.normal())
            expected = regularized_ls(u, y, mu, prior_v)
            cfg = mhe.MheConfig(N=n - 1, mu=mu, solver=solver, max_iter=500)
            sol, _ = mhe.solve_update(
                SCALAR, scalar_window(u, y), models.ParamVector(SCALAR, [prior_v]), cfg)
            assert sol.values[0] == pytest.approx(expected, abs=1e-8)

    def test_matched_prior_is_fixed_point(self, rng):
        spec = ModelSpec("lstm", 2, 3, 1)
        p = random_params(spec, rng)
        x0 = rng.normal(scale=0.2, size=6)
        u = rng.normal(size=(8, 2))
        y, _ = models.simulate(spec, p, x0, u)
        w = mhe.HorizonWindow(inputs=u, outputs=y, x_init=x0, k=7)
        cfg = mhe.MheConfig(N=7, mu=0.5, solver="lm", max_iter=500)
        sol, stats = mhe.solve_update(spec, w, p, cfg)
        assert np.allclose(sol.values, p.values, atol=1e-9)
        assert stats.total_cost <= 1e-18

    def test_dominant_prior_pins_solution(self, rng):
        prior = models.ParamVector(SCALAR, [0.5])
        u = rng.normal(size=6) + 0.2
        y = 3.0 * u
        cfg = mhe.MheConfig(N=5, mu=1e6, solver="lm", max_iter=500)
        sol, _ = mhe.solve_update(SCALAR, scalar_window(u, y), prior, cfg)
        assert abs(sol.values[0] - 0.5) < 1e-3

    def test_descent_guarantee(self, rng):
        spec = ModelSpec("gru", 2, 3, 2)
        prior = random_params(spec, rng)
        u = rng.normal(size=(6, 2))
        y = rng.normal(size=(6, 2))
        w = mhe.HorizonWindow(inputs=u, outputs=y, x_init=rng.normal(size=3), k=5)
        cfg = mhe.MheConfig(N=5, mu=0.1, solver="lm", max_iter=500)
        sol, stats = mhe.solve_update(spec, w, prior, cfg)
        total_prior, _, _ = mhe.mhe_cost(spec, prior, w, prior, 0.1)
        assert stats.total_cost <= total_prior
        # checkpoint arithmetic: total = fit + mu * prior_term
        assert stats.total_cost == pytest.approx(
            stats.fit_cost + 0.1 * stats.prior_cost, abs=1e-9)

    @staticmethod
    def _lstm_update(rng):
        spec = ModelSpec("lstm", 2, 3, 2)
        prior = random_params(spec, rng)
        w = mhe.HorizonWindow(inputs=rng.normal(size=(8, 2)), outputs=rng.normal(size=(8, 2)),
                              x_init=rng.normal(scale=0.2, size=6), k=7)
        return spec, w, prior

    @pytest.mark.parametrize("solver", ["lm", "lbfgs"])
    def test_recorded_costs_are_mhe_cost_at_solution(self, solver, rng):
        spec, w, prior = self._lstm_update(rng)
        cfg = mhe.MheConfig(N=7, mu=0.3, solver=solver, max_iter=20)
        sol, stats = mhe.solve_update(spec, w, prior, cfg)
        assert sol is not prior
        assert (stats.total_cost, stats.fit_cost, stats.prior_cost) == \
            mhe.mhe_cost(spec, sol, w, prior, cfg.mu)

    @pytest.mark.parametrize("solver", ["lm", "lbfgs"])
    def test_prior_blowup_names_the_update(self, solver):
        # y = 1e308 * 10 overflows on the prior's own window: no point is
        # ever evaluated, and the error says which update and why
        prior = models.ParamVector(SCALAR, [1e308])
        w = scalar_window(np.full(8, 10.0), np.zeros(8), k=7)
        with pytest.raises(models.NumericalBlowupError,
                           match="^update at k=7: the prior itself blows up"), \
                np.errstate(over="ignore"):
            mhe.solve_update(SCALAR, w, prior, mhe.MheConfig(N=7, solver=solver))

    def test_fallback_records_mhe_cost_at_prior(self, rng, monkeypatch):
        # the optimizer reports a point it never evaluated, and a far worse one
        spec, w, prior = self._lstm_update(rng)
        minimize = lbfgs.minimize

        def worse(fun, x0, *args):
            _, *rest = minimize(fun, x0, *args)
            return (x0 + 10.0, *rest)

        monkeypatch.setattr(lbfgs, "minimize", worse)
        cfg = mhe.MheConfig(N=7, mu=0.3, solver="lbfgs", max_iter=20)
        sol, stats = mhe.solve_update(spec, w, prior, cfg)
        assert sol is prior
        total, fit, _ = mhe.mhe_cost(spec, prior, w, prior, cfg.mu)
        assert (stats.total_cost, stats.fit_cost, stats.prior_cost) == (total, fit, 0.0)

    def test_lbfgs_blowup_fails_the_line_search(self, rng, monkeypatch):
        # every gradient from the third on meets a blow-up: the solve keeps
        # the last accepted iterate instead of aborting the run
        spec, w, prior = self._lstm_update(rng)
        gradient, calls = models.window_loss_and_gradient, []

        def blows_up(*args):
            calls.append(args)
            if len(calls) >= 3:
                raise models.NumericalBlowupError("non-finite loss or gradient")
            return gradient(*args)

        monkeypatch.setattr(models, "window_loss_and_gradient", blows_up)
        cfg = mhe.MheConfig(N=7, mu=0.3, solver="lbfgs", max_iter=20)
        sol, stats = mhe.solve_update(spec, w, prior, cfg)
        assert len(calls) >= 3 and not stats.converged
        assert stats.message == "ABNORMAL: "
        total_prior = mhe.mhe_cost(spec, prior, w, prior, cfg.mu)[0]
        assert stats.total_cost <= total_prior
        assert (stats.total_cost, stats.fit_cost, stats.prior_cost) == \
            mhe.mhe_cost(spec, sol, w, prior, cfg.mu)

    def test_lbfgs_update_rolls_out_only_for_its_gradients(self, rng, monkeypatch):
        spec, w, prior = self._lstm_update(rng)
        simulate, calls = models.simulate, []

        def counted(*args, **kwargs):
            calls.append(args)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(models, "simulate", counted)
        _, stats = mhe.solve_update(spec, w, prior, mhe.MheConfig(N=7, solver="lbfgs"))
        assert stats.n_evals > 0 and calls == []

    def test_mu_monotone_anchoring_scalar(self, rng):
        # closed form: |theta*(mu) - prior| is decreasing in mu
        u = rng.normal(size=5) + 0.3
        y = 2.0 * u
        prior = 0.0
        mus = [0.01, 0.1, 1.0, 10.0, 100.0]
        sols = []
        for mu in mus:
            cfg = mhe.MheConfig(N=4, mu=mu, solver="lm", max_iter=500)
            s, _ = mhe.solve_update(SCALAR, scalar_window(u, y),
                                    models.ParamVector(SCALAR, [prior]), cfg)
            sols.append(abs(s.values[0] - prior))
        for a, b in zip(sols, sols[1:]):
            assert b <= a + 1e-9


class TestLevenbergMarquardt:
    @settings(max_examples=40, deadline=None)
    @given(spec=specs(max_n_h=4), T=st.integers(1, 6), mu=st.floats(0.05, 2.0),
           seed=st.integers(0, 2**32 - 1))
    def test_cost_no_worse_than_scipy_trf(self, spec, T, mu, seed):
        # scipy's trust-region least squares is the oracle, on the stacked
        # residuals [y - yhat; sqrt(mu) (theta - prior)] with the same Jacobian.
        # The window comes from weights near the prior, so that both local
        # solvers start in the basin of one minimum
        from scipy.optimize import least_squares
        rng = np.random.default_rng(seed)
        prior = random_params(spec, rng)
        n = models.param_count(spec)
        theta_p = prior.values[:n]
        near = prior.values.copy()
        near[:n] += rng.normal(scale=0.1, size=n)
        x0 = rng.normal(scale=0.3, size=models.state_size(spec))
        u = rng.normal(size=(T, spec.n_u))
        y, _ = models.simulate(spec, prior.replace_values(near), x0, u)
        w = mhe.HorizonWindow(inputs=u, outputs=y, x_init=x0, k=T - 1)
        cfg = mhe.MheConfig(N=max(T - 1, 1), mu=mu, solver="lm", max_iter=500)
        _, stats = mhe.solve_update(spec, w, prior, cfg)

        def embed(theta):
            vals = prior.values.copy()
            vals[:n] = theta
            return prior.replace_values(vals)

        def residuals(theta):
            # trf probes non-finite points too; they count as arbitrarily bad
            if not np.all(np.isfinite(theta)):
                return np.full(y.size + len(theta), 1e100)
            pred, _ = models.simulate(spec, embed(theta), x0, u)
            return np.concatenate([(pred - y).ravel(), np.sqrt(mu) * (theta - theta_p)])

        def jacobian(theta):
            _, J = models.output_jacobian(spec, embed(theta), x0, u)
            return np.vstack([J, np.sqrt(mu) * np.eye(len(theta))])

        with np.errstate(all="ignore"):   # trf's subproblem may divide 0 by 0 here
            trf = least_squares(residuals, theta_p, jac=jacobian, method="trf", xtol=None,
                                ftol=mhe.FTOL, gtol=mhe.GTOL, max_nfev=cfg.max_iter)
        trf_total = mhe.mhe_cost(spec, embed(trf.x), w, prior, mu)[0]
        assert stats.n_evals <= cfg.max_iter
        assert stats.total_cost <= trf_total * (1 + 1e-9)

    def test_large_residual_window_converges(self):
        # outputs of unrelated weights leave a large residual, where undamped
        # Gauss-Newton steps gain little yet are accepted: a poor gain ratio
        # must start the damping, or the solve crawls to its evaluation limit
        spec = ModelSpec("gru", 3, 4, 3)
        rng = np.random.default_rng(645)
        prior = random_params(spec, rng)
        x0 = rng.normal(scale=0.3, size=models.state_size(spec))
        u = rng.normal(size=(5, 3))
        y, _ = models.simulate(spec, random_params(spec, rng), x0, u)
        w = mhe.HorizonWindow(inputs=u, outputs=y, x_init=x0, k=4)
        _, stats = mhe.solve_update(spec, w, prior,
                                    mhe.MheConfig(N=4, mu=0.05, solver="lm", max_iter=500))
        assert stats.converged and stats.n_evals < 100
        # scipy trf stops here at 0.12298195930949656, after 44 evaluations
        assert stats.total_cost <= 0.12298195930949656 * (1 + 1e-9)

    def test_blown_up_trial_is_rejected(self, rng, monkeypatch):
        # every trial farther than 0.05 from the prior blows up: the solve
        # shortens its step and still descends, with no overflow warning
        spec, w, prior = TestSolveUpdate._lstm_update(rng)
        simulate, blowups = models.simulate, []

        def far_blows_up(spec, params, *args):
            if np.linalg.norm(params.values - prior.values) > 0.05:
                blowups.append(params)
                raise models.NumericalBlowupError("non-finite values at step 0", step=0)
            return simulate(spec, params, *args)

        monkeypatch.setattr(models, "simulate", far_blows_up)
        cfg = mhe.MheConfig(N=7, mu=0.3, solver="lm", max_iter=60)
        sol, stats = mhe.solve_update(spec, w, prior, cfg)
        assert blowups and stats.n_evals <= cfg.max_iter
        assert 0.0 < np.linalg.norm(sol.values - prior.values) <= 0.05
        assert stats.total_cost < mhe.mhe_cost(spec, prior, w, prior, cfg.mu)[0]
        assert (stats.total_cost, stats.fit_cost, stats.prior_cost) == \
            mhe.mhe_cost(spec, sol, w, prior, cfg.mu)

    def test_mu_zero_with_fewer_residuals_than_weights(self, rng):
        # y = K u with u = (1, 0): J'J = [[1, 0], [0, 0]] is singular, and
        # the weight on the zero input stays at the prior
        spec = ModelSpec("linear", 2, 0, 1)
        w = mhe.HorizonWindow(inputs=np.array([[1.0, 0.0]]), outputs=np.array([[2.0]]),
                              x_init=np.zeros(0), k=0)
        cfg = mhe.MheConfig(N=1, mu=0.0, solver="lm", max_iter=500)
        sol, stats = mhe.solve_update(spec, w, models.ParamVector(spec, [0.5, -0.7]), cfg)
        assert sol.values[0] == pytest.approx(2.0, abs=1e-8) and sol.values[1] == -0.7
        assert stats.converged and stats.n_evals <= cfg.max_iter
        # a GRU: 6 residuals for its weights
        spec = ModelSpec("gru", 2, 3, 2)
        prior = random_params(spec, rng)
        w = mhe.HorizonWindow(inputs=rng.normal(size=(3, 2)), outputs=rng.normal(size=(3, 2)),
                              x_init=rng.normal(size=3), k=2)
        cfg = mhe.MheConfig(N=2, mu=0.0, solver="lm", max_iter=40)
        _, stats = mhe.solve_update(spec, w, prior, cfg)
        assert stats.n_evals <= cfg.max_iter and stats.prior_cost > 0.0
        assert stats.total_cost == stats.fit_cost < mhe.mhe_cost(spec, prior, w, prior, 0.0)[0]

    @pytest.mark.parametrize("solver", ["lm", "lbfgs"])
    def test_weights_whose_squares_overflow(self, solver):
        # |1e200|^2 overflows float64: the weight norms of the trust radius
        # and the step test must not, and both solvers return the prior,
        # where the gradient 8e-200 is below GTOL
        prior = models.ParamVector(SCALAR, [1e200])
        w = scalar_window(np.full(8, 1e-200), np.full(8, 2.0), k=7)
        sol, stats = mhe.solve_update(SCALAR, w, prior, mhe.MheConfig(N=7, solver=solver))
        assert sol.values[0] == 1e200 and stats.converged
        assert stats.total_cost == 8.0

    def test_huge_weight_does_not_hide_a_step_in_the_others(self):
        # y = w1 u1 + w2 u2 with w1 u1 = 1: the step in w2 is far below
        # eps |x| = 2e184, yet it is the whole solution.  The closed form
        # w2 = 32 / 16.2 gives 8 (w2 - 2)^2 + 0.1 w2^2; at the prior it is 32
        spec = ModelSpec("linear", 2, 0, 1)
        w = mhe.HorizonWindow(inputs=np.tile([1e-200, 1.0], (8, 1)),
                              outputs=np.full((8, 1), 3.0), x_init=np.zeros(0), k=7)
        prior = models.ParamVector(spec, [1e200, 0.0])
        cfg = mhe.MheConfig(N=7, mu=0.1, solver="lm", max_iter=500)
        sol, stats = mhe.solve_update(spec, w, prior, cfg)
        w2 = 32.0 / 16.2
        assert sol.values[0] == 1e200 and sol.values[1] == pytest.approx(w2, rel=1e-12)
        assert stats.converged
        assert stats.total_cost == pytest.approx(8.0 * (w2 - 2.0) ** 2 + 0.1 * w2 ** 2,
                                                 rel=1e-12)

    @pytest.mark.parametrize("max_iter", [1, 2, 3, 5, 8])
    def test_evaluations_capped_by_max_iter(self, max_iter, rng, monkeypatch):
        # every evaluation of the objective is one rollout, counted here
        spec, w, prior = TestSolveUpdate._lstm_update(rng)
        simulate, calls = models.simulate, []

        def counted(*args):
            calls.append(args)
            return simulate(*args)

        monkeypatch.setattr(models, "simulate", counted)
        cfg = mhe.MheConfig(N=7, mu=0.3, solver="lm", max_iter=max_iter)
        _, stats = mhe.solve_update(spec, w, prior, cfg)
        assert len(calls) == stats.n_evals == max_iter and not stats.converged


class TestReconstructInitialState:
    def test_nnarx_exact_regressor(self, rng):
        spec = ModelSpec("nnarx", 2, 0, 1, order=2, mlp_width=3)
        p = random_params(spec, rng)
        hu = rng.normal(size=(5, 2))
        hy = rng.normal(size=(5, 1))
        x = mhe.reconstruct_initial_state(spec, p, hu, hy, washout=4)
        assert np.array_equal(x, models.nnarx_state(spec, hu[-2:], hy[-2:]))

    def test_matched_model_washout_reconstruction(self, rng):
        # a linear model's state is empty: its rollout returns the zero state
        for spec in (ModelSpec("lstm", 2, 4, 2), ALL_SPECS["linear"]):
            p = random_params(spec, rng, scale=0.2)
            u = rng.normal(size=(160, 2))
            y, states = models.simulate(spec, p, models.zero_state(spec), u)
            # reconstruct the state at t=150 from history alone
            x_rec = mhe.reconstruct_initial_state(spec, p, u[:150], y[:150], washout=150)
            y_win, _ = models.simulate(spec, p, x_rec, u[150:])
            rms = np.sqrt(np.mean((y_win - y[150:]) ** 2))
            assert rms <= 1e-6
            assert spec.kind != "linear" or np.array_equal(x_rec, models.zero_state(spec))

    def test_insufficient_history_raises(self, rng):
        spec = ModelSpec("gru", 2, 3, 1)
        p = random_params(spec, rng)
        with pytest.raises(ValueError, match="history"):
            mhe.reconstruct_initial_state(spec, p, np.zeros((3, 2)), np.zeros((3, 1)), washout=10)
        linear = ALL_SPECS["linear"]
        with pytest.raises(ValueError, match="history"):
            mhe.reconstruct_initial_state(linear, random_params(linear, rng), np.zeros((3, 2)),
                                          np.zeros((3, 2)), washout=10)
        nnarx = ModelSpec("nnarx", 2, 0, 1, order=4, mlp_width=3)
        with pytest.raises(ValueError, match="history"):
            mhe.reconstruct_initial_state(nnarx, random_params(nnarx, rng), np.zeros((3, 2)),
                                          np.zeros((3, 1)), washout=0)

    def test_zero_washout_is_the_zero_state(self, rng):
        spec = ModelSpec("gru", 2, 3, 1)
        x = mhe.reconstruct_initial_state(spec, random_params(spec, rng),
                                          rng.normal(size=(5, 2)), rng.normal(size=(5, 1)),
                                          washout=0)
        assert np.array_equal(x, models.zero_state(spec))


class TestSequenceStream:
    @pytest.mark.parametrize("kind", sorted(ALL_SPECS))
    def test_samples_follow_the_sequence(self, kind, rng):
        # one sample per step, in order, with that step's input and output
        spec = ALL_SPECS[kind]
        u, y = rng.normal(size=(30, spec.n_u)), rng.normal(size=(30, spec.n_y))
        samples = list(mhe.sequence_stream(Sequence(u=u, y=y, tau=0.1)))
        assert [s.t for s in samples] == list(range(len(u)))
        for s in samples:
            assert np.array_equal(s.u, u[s.t]) and np.array_equal(s.y, y[s.t])


class TestRunAdaptation:
    def _matched_data(self, rng, n_samples=200, perturb=0.0):
        """A GRU twin's (spec, theta_o, start, sequence); ``start`` is
        theta_o moved by ``perturb`` in a random direction."""
        spec = ModelSpec("gru", 2, 3, 2)
        theta_o = random_params(spec, rng, scale=0.2)
        u = rng.normal(size=(n_samples, 2))
        y, _ = models.simulate(spec, theta_o, models.zero_state(spec), u)
        start = theta_o
        if perturb:
            d = rng.normal(size=len(theta_o.values))
            start = theta_o.replace_values(theta_o.values + perturb * d / np.linalg.norm(d))
        return spec, theta_o, start, Sequence(u=u, y=y, tau=0.1)

    def _matched_run(self, rng, mu=0.5, N=5, washout=20, n_samples=200, perturb=0.0):
        spec, theta_o, start, seq = self._matched_data(rng, n_samples, perturb)
        cfg = mhe.MheConfig(N=N, mu=mu, washout=washout)
        ckpts, stats = mhe.run_adaptation(spec, start, mhe.sequence_stream(seq), cfg)
        return spec, theta_o, ckpts, stats, cfg

    def test_stationary_matched_plant_keeps_prior(self, rng):
        spec, theta_o, ckpts, stats, cfg = self._matched_run(rng)
        assert len(ckpts) > 5
        for c in ckpts:
            assert np.allclose(c.solution.values, theta_o.values, atol=1e-9)
            assert c.fit_cost <= 1e-16

    def test_bounded_memory(self, rng):
        spec, theta_o, ckpts, stats, cfg = self._matched_run(rng, n_samples=400)
        assert stats["peak_buffered"] == cfg.washout + cfg.N + 1

    def test_descent_recorded_in_checkpoints(self, rng, monkeypatch):
        spec, _, start, seq = self._matched_data(rng, perturb=0.3)
        solve, windows = mhe.solve_update, []

        def recorded(spec, window, prior, config):
            windows.append(window)
            return solve(spec, window, prior, config)

        monkeypatch.setattr(mhe, "solve_update", recorded)
        cfg = mhe.MheConfig(N=5, mu=0.5, washout=20)
        ckpts, _ = mhe.run_adaptation(spec, start, mhe.sequence_stream(seq), cfg)
        assert [w.k for w in windows] == [c.k for c in ckpts]
        # each prior is the previous solution, the first the run's start
        priors = [start] + [c.solution for c in ckpts[:-1]]
        for c, prior, w in zip(ckpts, priors, windows):
            assert (c.total_cost, c.fit_cost, c.prior_cost) == \
                mhe.mhe_cost(spec, c.solution, w, prior, cfg.mu)
            assert c.total_cost <= mhe.mhe_cost(spec, prior, w, prior, cfg.mu)[0]

    def test_stream_gap_aborts(self, rng):
        spec = ModelSpec("linear", 1, 0, 1)
        p = models.ParamVector(spec, [1.0])
        samples = [mhe.IOSample(u=np.array([1.0]), y=np.array([1.0]), t=t)
                   for t in [0, 1, 2, 4]]
        with pytest.raises(ValueError, match="gap"):
            mhe.run_adaptation(spec, p, iter(samples), mhe.MheConfig(N=1, washout=0))

    def test_checkpoint_jsonl_roundtrip(self, rng, tmp_path):
        spec, theta_o, ckpts, stats, cfg = self._matched_run(rng, perturb=0.2)
        path = tmp_path / "ckpts.jsonl"
        mhe.save_checkpoints(path, ckpts)
        loaded = mhe.load_checkpoints(path, spec)
        assert len(loaded) == len(ckpts)
        names = [f.name for f in dataclasses.fields(mhe.AdaptCheckpoint)]
        assert list(json.loads(path.read_text().splitlines()[0])) == names
        for a, b in zip(loaded, ckpts):
            assert np.array_equal(a.solution.values, b.solution.values)
            for name in names:
                if name != "solution":
                    assert getattr(a, name) == getattr(b, name), name


class TestArrivalState:
    """Only the first window's start is reconstructed; each later window
    starts where the last solution's rollout from the last window's start
    is after N inputs."""

    def _run(self, rng, monkeypatch, spec, solver="lbfgs", N=4, washout=6):
        twin = random_params(spec, rng, scale=0.2)
        start = random_params(spec, rng, scale=0.2)   # another model: the updates move
        u = rng.normal(size=(40, spec.n_u))
        y, _ = models.simulate(spec, twin, models.zero_state(spec), u)
        solve, windows = mhe.solve_update, []

        def recorded(spec, window, prior, config):
            windows.append(window)
            return solve(spec, window, prior, config)

        monkeypatch.setattr(mhe, "solve_update", recorded)
        cfg = mhe.MheConfig(N=N, washout=washout, solver=solver, max_iter=3)
        ckpts, _ = mhe.run_adaptation(spec, start, mhe.sequence_stream(Sequence(u=u, y=y)), cfg)
        assert [w.k for w in windows] == [c.k for c in ckpts] and len(ckpts) >= 3
        return start, u, y, cfg, windows, ckpts

    def _assert_chain(self, spec, start, u, y, cfg, windows, ckpts):
        N, h = cfg.N, mhe.history_length(spec, cfg.washout)
        lo = windows[0].k - N
        first = mhe.reconstruct_initial_state(spec, start, u[lo - h:lo], y[lo - h:lo],
                                              cfg.washout)
        assert np.array_equal(windows[0].x_init, first)
        for prev, window, c in zip(windows, windows[1:], ckpts):
            lo = prev.k - N
            _, states = models.simulate(spec, c.solution, prev.x_init, u[lo:lo + N])
            assert np.array_equal(window.x_init, states[N])

    @pytest.mark.parametrize("solver", ["lm", "lbfgs"])
    def test_chain_bit_for_bit(self, solver, rng, monkeypatch):
        spec = ALL_SPECS["lstm"]
        run = self._run(rng, monkeypatch, spec, solver)
        assert all(c.prior_cost > 0 for c in run[-1])
        self._assert_chain(spec, *run)

    def test_chain_through_fallback(self, rng, monkeypatch):
        # every other update's optimizer reports a far worse point: that
        # update keeps its prior, and the next window starts from the prior's
        # rollout
        minimize, calls = lbfgs.minimize, []

        def worse_every_other(fun, x0, *args):
            calls.append(x0)
            x, *rest = minimize(fun, x0, *args)
            return (x0 + 10.0 if len(calls) % 2 else x, *rest)

        monkeypatch.setattr(lbfgs, "minimize", worse_every_other)
        spec = ALL_SPECS["lstm"]
        start, u, y, cfg, windows, ckpts = self._run(rng, monkeypatch, spec)
        priors = [start] + [c.solution for c in ckpts[:-1]]
        kept = [c.solution is prior for c, prior in zip(ckpts, priors)]
        assert kept == [i % 2 == 0 for i in range(len(ckpts))]
        self._assert_chain(spec, start, u, y, cfg, windows, ckpts)

    @pytest.mark.parametrize("kind", sorted(ALL_SPECS))
    def test_chain_on_every_kind(self, kind, rng, monkeypatch):
        spec = ALL_SPECS[kind]
        start, u, y, cfg, windows, ckpts = self._run(rng, monkeypatch, spec)
        assert all(np.isfinite(c.total_cost) for c in ckpts)
        self._assert_chain(spec, start, u, y, cfg, windows, ckpts)
        if kind == "nnarx":   # the regressor the model fed back, not the measured one
            lo, p = windows[1].k - cfg.N, spec.order
            measured = models.nnarx_state(spec, u[lo - p:lo], y[lo - p:lo])
            assert not np.array_equal(windows[1].x_init, measured)

    def test_reconstructs_once_per_run(self, rng, monkeypatch):
        reconstruct, calls = mhe.reconstruct_initial_state, []

        def counted(*args):
            calls.append(args)
            return reconstruct(*args)

        monkeypatch.setattr(mhe, "reconstruct_initial_state", counted)
        spec = ModelSpec("gru", 2, 3, 2)
        p = random_params(spec, rng, scale=0.2)
        u = rng.normal(size=(80, 2))
        y, _ = models.simulate(spec, p, models.zero_state(spec), u)
        seq, cfg = Sequence(u=u, y=y), mhe.MheConfig(N=5, washout=20)
        ckpts, _ = mhe.run_adaptation(spec, p, mhe.sequence_stream(seq), cfg)
        assert len(ckpts) == 11 and len(calls) == 1
