import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mhenet import models
from mhenet.models import ModelSpec

from conftest import (ALL_SPECS, fd_gradient, random_params, reference_kernel,
                      reference_rollout, specs)

# the kernels clamp no pre-activation: on the installed numpy, no overflow
# or invalid value may reach an activation unnoticed
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class TestModelSpec:
    @pytest.mark.parametrize("args,kwargs,name", [
        (("gru", 2.5, 3, 2), {}, "n_u"),
        (("lstm", True, 3, 2), {}, "n_u"),
        (("lstm", 2, 3.0, 2), {}, "n_h"),
        (("gru", 2, 3, 1.5), {}, "n_y"),
        (("nnarx", 2, 0, 1), {"order": 2.5, "mlp_width": 3}, "order"),
        (("nnarx", 2, 0, 1), {"order": 2, "mlp_width": True}, "mlp_width"),
        (("esn", 2, 5, 1), {"leak_rate": float("nan")}, "leak_rate"),
        (("esn", 2, 5, 1), {"leak_rate": 0.0}, "leak_rate"),
        (("esn", 2, 5, 1), {"leak_rate": 3.0}, "leak_rate"),
    ], ids=["n_u-fractional", "n_u-boolean", "n_h-float", "n_y-fractional",
            "order-fractional", "mlp_width-boolean", "leak_rate-nan", "leak_rate-zero",
            "leak_rate-three"])
    def test_nonsense_refused(self, args, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name}: "):
            ModelSpec(*args, **kwargs)

    def test_edges_accepted(self):
        assert ModelSpec("esn", 1, 1, 1, leak_rate=1.0).leak_rate == 1.0
        assert ModelSpec("esn", 1, 1, 1, leak_rate=1e-9).leak_rate == 1e-9
        assert models.param_count(ModelSpec("nnarx", 1, 0, 1, order=1, mlp_width=1)) == 5


class TestParamCount:
    def test_benchmark_lstm_is_724(self):
        assert models.param_count(ModelSpec("lstm", 6, 10, 4)) == 724

    def test_scalar_gru_hand_count(self):
        # 3 gates * (1*2 + 1) + output (1 + 1)
        assert models.param_count(ModelSpec("gru", 1, 1, 1)) == 11

    def test_small_nnarx_hand_count(self):
        # 3 hidden units * (4 regressors + 1 bias) + output (3 + 1)
        assert models.param_count(ModelSpec("nnarx", 1, 0, 1, order=2, mlp_width=3)) == 19

    def test_esn_counts_readout_only(self):
        spec = ModelSpec("esn", 3, 50, 2)
        assert models.param_count(spec) == 2 * 51
        assert models.values_size(spec) > models.param_count(spec)


class TestInitParams:
    def test_deterministic(self):
        spec = ALL_SPECS["lstm"]
        a = models.init_params(spec, 42, "uniform")
        b = models.init_params(spec, 42, "uniform")
        assert np.array_equal(a.values, b.values)

    def test_zero_scheme(self):
        spec = ALL_SPECS["gru"]
        p = models.init_params(spec, 0, "zeros")
        assert np.all(p.values == 0.0)
        assert len(p.values) == models.param_count(spec)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="scheme"):
            models.init_params(ALL_SPECS["lstm"], 0, "he_normal")

    def test_esn_spectral_radius(self):
        spec = ModelSpec("esn", 2, 20, 1, spectral_radius=0.9)
        p = models.init_params(spec, 3, "uniform")
        W = p.view("W")
        # power iteration oracle
        v = np.random.default_rng(0).normal(size=20)
        M = W @ W.T
        for _ in range(2000):
            v = M @ v
            v /= np.linalg.norm(v)
        sigma = np.sqrt(v @ M @ v)
        rho = np.max(np.abs(np.linalg.eigvals(W)))
        assert abs(rho - 0.9) < 1e-6
        assert sigma >= rho - 1e-8  # largest singular value dominates |eig|


class TestForwardStep:
    def test_lstm_zero_weights_zero_cell(self, rng):
        spec = ALL_SPECS["lstm"]
        p = models.init_params(spec, 0, "zeros")
        state = np.concatenate([np.zeros(spec.n_h), rng.normal(size=spec.n_h)])
        nxt, y = models.forward_step(spec, p, state, rng.normal(size=spec.n_u))
        assert np.allclose(y, 0.0)
        assert np.allclose(nxt[spec.n_h:], 0.0)  # sigmoid(0) gates a zero candidate

    def test_gru_hand_computed_cell(self):
        spec = ModelSpec("gru", 1, 1, 1)
        # layout: Wz, bz, Wr, br, Wn, bn, C, d; each W is (1, 2) over [u, h]
        vals = np.array([0.3, -0.2, 0.1, 0.5, 0.4, -0.3, -0.1, 0.7, 0.2, 1.5, 0.25])
        p = models.ParamVector(spec, vals)
        h, u = 0.6, -0.4
        sig = lambda a: 1 / (1 + np.exp(-a))
        z = sig(0.3 * u + -0.2 * h + 0.1)
        r = sig(0.5 * u + 0.4 * h + -0.3)
        n = np.tanh(-0.1 * u + 0.7 * (r * h) + 0.2)
        h2 = (1 - z) * h + z * n
        y = 1.5 * h + 0.25
        nxt, out = models.forward_step(spec, p, [h], [u])
        assert abs(nxt[0] - h2) < 1e-12
        assert abs(out[0] - y) < 1e-12

    def test_nnarx_hand_computed_readout(self):
        spec = ModelSpec("nnarx", 1, 0, 1, order=2, mlp_width=3)
        p = models.init_params(spec, 0, "zeros").values
        p[:12] = 0.1            # W1
        p[12:15] = 0.0          # b1
        p[15:18] = [1.0, -1.0, 2.0]   # W2
        p[18] = 0.5             # b2
        params = models.ParamVector(spec, p)
        state = models.nnarx_state(spec, [[1.0], [2.0]], [[0.5], [-0.5]])
        assert np.array_equal(state, [1.0, 0.5, 2.0, -0.5])
        h = np.tanh(0.1 * state.sum())
        y_hand = (1.0 - 1.0 + 2.0) * h + 0.5
        nxt, y = models.forward_step(spec, params, state, [3.0])
        assert abs(y[0] - y_hand) < 1e-12
        # shifted regressor with the new (u, y) appended
        assert np.allclose(nxt, [2.0, -0.5, 3.0, y[0]])

    def test_dimension_mismatch_raises(self, rng):
        spec = ALL_SPECS["lstm"]
        p = models.init_params(spec, 0, "uniform")
        with pytest.raises(models.DimensionError):
            models.forward_step(spec, p, np.zeros(3), np.zeros(spec.n_u))
        with pytest.raises(models.DimensionError):
            models.forward_step(spec, p, models.zero_state(spec), np.zeros(1))


class TestSimulate:
    @pytest.mark.parametrize("kind", list(ALL_SPECS))
    def test_length_one_matches_forward_step(self, kind, rng):
        spec = ALL_SPECS[kind]
        p = random_params(spec, rng)
        x0 = rng.normal(size=models.state_size(spec))
        u = rng.normal(size=(1, spec.n_u))
        ys, xs = models.simulate(spec, p, x0, u)
        nxt, y = models.forward_step(spec, p, x0, u[0])
        assert np.array_equal(ys[0], y)
        assert np.array_equal(xs[1], nxt)

    def test_esn_deterministic(self, rng):
        spec = ALL_SPECS["esn"]
        p = random_params(spec, rng)
        x0 = rng.normal(size=models.state_size(spec))
        u = rng.normal(size=(20, spec.n_u))
        a = models.simulate(spec, p, x0, u)
        b = models.simulate(spec, p, x0, u)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_blowup_reports_step(self):
        spec = ModelSpec("linear", 1, 0, 1)
        p = models.ParamVector(spec, [1e200])
        u = np.ones((5, 1))
        u[2] = 1e200  # y_2 = 1e400 overflows
        # numpy's error state, not a warning filter: pytestmark's filter
        # would take precedence over one on this test
        with np.errstate(all="ignore"), pytest.raises(models.NumericalBlowupError) as exc:
            models.simulate(spec, p, np.zeros(0), u)
        assert exc.value.step == 2

    @pytest.mark.parametrize("kind", list(ALL_SPECS))
    def test_batched_matches_single(self, kind, rng):
        spec = ALL_SPECS[kind]
        p = random_params(spec, rng)
        T, B = 7, 3
        x0 = rng.normal(size=(B, models.state_size(spec)))
        u = rng.normal(size=(T, B, spec.n_u))
        ys, xs = models.simulate(spec, p, x0, u)
        for b in range(B):
            y1, x1 = models.simulate(spec, p, x0[b], u[:, b])
            assert np.allclose(ys[:, b], y1, atol=1e-14)
            assert np.allclose(xs[:, b], x1, atol=1e-14)


class TestBatchParamOutputs:
    @settings(max_examples=60, deadline=None)
    @given(spec=specs(), B=st.integers(1, 6), T=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1))
    def test_rows_match_simulate(self, spec, B, T, seed):
        rng = np.random.default_rng(seed)
        vb = np.stack([random_params(spec, rng).values for _ in range(B)])
        x0 = rng.normal(scale=0.3, size=models.state_size(spec))
        u = rng.normal(size=(T, spec.n_u))
        outs = models.batch_param_outputs(spec, vb, x0, u)
        assert outs.shape == (T, B, spec.n_y)
        for b in range(B):
            y, _ = models.simulate(spec, models.ParamVector(spec, vb[b]), x0, u)
            np.testing.assert_allclose(outs[:, b], y, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("kind", list(ALL_SPECS))
    def test_wrong_state_or_input_width_raises(self, kind, rng):
        spec = ALL_SPECS[kind]
        vb = random_params(spec, rng).values[None, :]
        x0 = np.zeros(models.state_size(spec))
        u = rng.normal(size=(4, spec.n_u))
        with pytest.raises(models.DimensionError):
            models.batch_param_outputs(spec, vb, np.zeros(len(x0) + 1), u)
        with pytest.raises(models.DimensionError):
            models.batch_param_outputs(spec, vb, x0, u[:, :-1])


class TestOutputJacobian:
    @pytest.mark.parametrize("kind", list(ALL_SPECS))
    def test_matches_columnwise_differences_of_simulate(self, kind, rng):
        spec = ALL_SPECS[kind]
        p = random_params(spec, rng)
        x0 = rng.normal(scale=0.3, size=models.state_size(spec))
        u = rng.normal(size=(5, spec.n_u))
        h = 1e-6
        y0, J = models.output_jacobian(spec, p, x0, u)
        n = models.param_count(spec)
        assert J.shape == (5 * spec.n_y, n)
        np.testing.assert_allclose(y0, models.simulate(spec, p, x0, u)[0], rtol=0, atol=1e-14)
        for j in range(n):
            vp, vm = p.values.copy(), p.values.copy()
            vp[j] += h
            vm[j] -= h
            yp, _ = models.simulate(spec, p.replace_values(vp), x0, u)
            ym, _ = models.simulate(spec, p.replace_values(vm), x0, u)
            # outputs agree to round-off, which the 1/(2h) quotient scales up
            np.testing.assert_allclose(J[:, j], ((yp - ym) / (2 * h)).ravel(),
                                       rtol=0, atol=1e-8)

    @settings(max_examples=80, deadline=None)
    @given(spec=specs(), T=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_gradient_is_jacobian_transpose_of_weighted_residuals(self, spec, T, seed):
        # both come from one reverse pass: summed over the residual seed,
        # or kept per one-hot output seed
        rng = np.random.default_rng(seed)
        p = random_params(spec, rng)
        x0 = rng.normal(scale=0.3, size=models.state_size(spec))
        u = rng.normal(size=(T, spec.n_u))
        targets = rng.normal(size=(T, spec.n_y))
        w = rng.uniform(0.0, 2.0, size=T)
        _, grad = models.window_loss_and_gradient(spec, p, x0, u, targets, step_weights=w)
        y, J = models.output_jacobian(spec, p, x0, u)
        expected = 2.0 * J.T @ (w[:, None] * (y - targets)).ravel()
        n = models.param_count(spec)
        assert np.linalg.norm(grad[:n] - expected) <= 1e-12 * np.linalg.norm(expected)
        assert np.all(grad[n:] == 0.0)


PARITY_SPECS = {**ALL_SPECS, "lstm-6-10-4": ModelSpec("lstm", 6, 10, 4)}


def _kernel_results(spec, params, x0, u, targets, w):
    """Every single-weight path: simulate, loss and gradient, and for one
    sequence the output Jacobian."""
    out = [*models.simulate(spec, params, x0, u),
           *models.window_loss_and_gradient(spec, params, x0, u, targets, step_weights=w)]
    if u.ndim == 2:
        out += models.output_jacobian(spec, params, x0, u)
    return out


class TestKernelParity:
    """The blocked kernel against the per-step reference of conftest, which
    clamps every pre-activation to [-50, 50] and masks the clamped entries'
    derivatives where the kernel does neither.

    Single-weight paths must give the same bits.  The batch-of-weights path
    forms its products with np.matmul where the reference used np.einsum,
    two library routines, so it is held to 1e-15 of the largest output.
    """

    @pytest.mark.parametrize("kind", list(PARITY_SPECS))
    @pytest.mark.parametrize("T,B,weight_scale,input_scale", [
        (11, None, 0.3, 1.0), (70, None, 1.0, 1.0), (70, 3, 0.3, 1.0), (20, 3, 30.0, 100.0),
        (20, None, 30.0, 1e100),
    ], ids=["short-window", "long-sequence", "batch-of-sequences", "clipping", "saturation"])
    def test_single_weight_paths_bit_equal(self, kind, T, B, weight_scale, input_scale, rng):
        spec = PARITY_SPECS[kind]
        params = random_params(spec, rng, scale=weight_scale)
        lead = () if B is None else (B,)
        x0 = rng.normal(size=lead + (models.state_size(spec),))
        u = input_scale * rng.normal(size=(T,) + lead + (spec.n_u,))
        targets = rng.normal(size=(T,) + lead + (spec.n_y,))
        w = rng.uniform(0.5, 2.0, size=T)
        new = _kernel_results(spec, params, x0, u, targets, w)
        with reference_kernel():
            ref = _kernel_results(spec, params, x0, u, targets, w)
        for a, b in zip(new, ref, strict=True):
            assert np.array_equal(a, b)
        if weight_scale > 1 and spec.kind in ("lstm", "gru", "nnarx"):
            # the reference's clip masks show that its clamp was active: the
            # kernel has none, as tanh and sigmoid saturate exactly (see
            # TestSaturation), so a clamped entry's derivative is 0 either way
            x0b, ub, _ = models._as_batch(spec, x0, u)
            steps = reference_rollout(spec, models._unpack(spec, params.values), x0b, ub, True)[2]
            assert not all(a.all() for step in steps for a in step if a.dtype == bool)

    @settings(max_examples=40, deadline=None)
    @given(spec=specs(), T=st.integers(1, 70), B=st.sampled_from([None, 1, 4]),
           seed=st.integers(0, 2**32 - 1))
    def test_random_specs_bit_equal(self, spec, T, B, seed):
        # sizes of one (n_h, n_y, mlp_width = 1) give one-number weight
        # products, and long windows span several blocks
        rng = np.random.default_rng(seed)
        params = random_params(spec, rng)
        lead = () if B is None else (B,)
        x0 = rng.normal(scale=0.3, size=lead + (models.state_size(spec),))
        u = rng.normal(size=(T,) + lead + (spec.n_u,))
        targets = rng.normal(size=(T,) + lead + (spec.n_y,))
        new = _kernel_results(spec, params, x0, u, targets, None)
        with reference_kernel():
            ref = _kernel_results(spec, params, x0, u, targets, None)
        for a, b in zip(new, ref, strict=True):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind", list(PARITY_SPECS))
    def test_batch_of_weight_vectors(self, kind, rng):
        spec = PARITY_SPECS[kind]
        vb = np.stack([random_params(spec, rng, scale=s).values for s in (0.3, 1.0, 3.0, 30.0)])
        x0 = rng.normal(size=models.state_size(spec))
        u = rng.normal(size=(40, spec.n_u))
        new = models.batch_param_outputs(spec, vb, x0, u)
        with reference_kernel():
            ref = models.batch_param_outputs(spec, vb, x0, u)
        assert np.max(np.abs(new - ref)) <= 1e-15 * np.max(np.abs(ref))


class TestSaturation:
    """What the clamp-free kernels rest on: in float64, tanh(x) is exactly
    +-1 from |x| = 19.1 up to +-inf, and sigmoid(x) = (1 + tanh(x/2)) / 2
    exactly 0 or 1 from |x| = 38.2, so clamping a pre-activation to
    [-50, 50] changes no activation and no derivative.  Arrays from 1 to
    33 entries and one of 4001 reach numpy's vector loop and its tail."""

    @staticmethod
    def _parts(lo):
        x = np.concatenate([np.linspace(lo, 1e3, 2000), np.geomspace(1e3, 1e308, 2000),
                            [np.inf]])
        return [part for n in range(1, 34) for part in (x[:n], x[-n:])] + [x]

    def test_tanh_is_exactly_one(self):
        for x in self._parts(19.1):
            assert np.all(np.tanh(x) == 1.0) and np.all(np.tanh(-x) == -1.0)

    def test_sigmoid_is_exactly_zero_or_one(self):
        for x in self._parts(38.2):
            assert np.all((1.0 + np.tanh(x / 2)) / 2 == 1.0)
            assert np.all((1.0 + np.tanh(-x / 2)) / 2 == 0.0)


class TestWindowLossAndGradient:
    @pytest.mark.parametrize("kind", list(ALL_SPECS))
    def test_zero_loss_fixed_point(self, kind, rng):
        spec = ALL_SPECS[kind]
        p = random_params(spec, rng)
        x0 = rng.normal(scale=0.3, size=models.state_size(spec))
        u = rng.normal(size=(10, spec.n_u))
        targets, _ = models.simulate(spec, p, x0, u)
        loss, grad = models.window_loss_and_gradient(spec, p, x0, u, targets)
        assert loss == 0.0
        assert np.allclose(grad, 0.0)

    def test_scalar_linear_closed_form(self):
        # y = theta * u, window u=[1,2], targets [2,4], theta=1:
        # loss = 1 + 4 = 5, dloss/dtheta = -2*1*1 - 2*2*2 = -10
        spec = ModelSpec("linear", 1, 0, 1)
        p = models.ParamVector(spec, [1.0])
        loss, grad = models.window_loss_and_gradient(
            spec, p, np.zeros(0), [[1.0], [2.0]], [[2.0], [4.0]])
        assert loss == pytest.approx(5.0, abs=1e-12)
        assert grad[0] == pytest.approx(-10.0, abs=1e-12)

    @pytest.mark.parametrize("kind", list(ALL_SPECS))
    def test_gradient_matches_finite_differences(self, kind, rng):
        spec = ALL_SPECS[kind]
        for _ in range(3):
            p = random_params(spec, rng)
            x0 = rng.normal(scale=0.3, size=models.state_size(spec))
            u = rng.normal(size=(6, spec.n_u))
            targets = rng.normal(size=(6, spec.n_y))
            _, grad = models.window_loss_and_gradient(spec, p, x0, u, targets)
            fd = fd_gradient(spec, p, x0, u, targets)
            mask = models.trainable_mask(spec)
            assert np.all(np.abs(grad[mask] - fd[mask])
                          <= 1e-5 * np.maximum(np.abs(grad[mask]), np.abs(fd[mask])) + 1e-8)

    def test_esn_reservoir_gradient_is_zero(self, rng):
        spec = ALL_SPECS["esn"]
        p = random_params(spec, rng)
        u = rng.normal(size=(8, spec.n_u))
        targets = rng.normal(size=(8, spec.n_y))
        _, grad = models.window_loss_and_gradient(
            spec, p, rng.normal(size=spec.n_h), u, targets)
        frozen = ~models.trainable_mask(spec)
        assert np.all(grad[frozen] == 0.0)
        assert np.any(grad[~frozen] != 0.0)

    def test_mismatched_lengths_raise(self, rng):
        spec = ALL_SPECS["linear"]
        p = models.ParamVector(spec, np.zeros(4))
        with pytest.raises(models.DimensionError):
            models.window_loss_and_gradient(spec, p, np.zeros(0),
                                            rng.normal(size=(3, 2)),
                                            rng.normal(size=(4, 2)))


class TestNnarxStateTransparency:
    def test_state_is_the_measured_regressor(self, rng):
        spec = ModelSpec("nnarx", 2, 0, 1, order=3, mlp_width=2)
        p = random_params(spec, rng)
        us = rng.normal(size=(3, 2))
        ys = rng.normal(size=(3, 1))
        state = models.nnarx_state(spec, us, ys)
        nxt, y = models.forward_step(spec, p, state, us[0])
        rebuilt = models.nnarx_state(
            spec, np.vstack([us[1:], us[:1]]), np.vstack([ys[1:], y[None, :]]))
        assert np.array_equal(nxt, rebuilt)


class TestCheckpointJson:
    def test_roundtrip_full_precision(self, rng):
        spec = ALL_SPECS["lstm"]
        p = random_params(spec, rng)
        q = models.ParamVector.from_json(p.to_json(created_at="2026-01-01"))
        assert np.array_equal(p.values, q.values)
        assert q.spec == spec
