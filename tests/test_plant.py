import dataclasses

import numpy as np
import pytest

from conftest import reference_derivatives, reference_plant, reference_step
from mhenet import plant
from mhenet.plant import (DatasetConfig, DriftSchedule, ExcitationConfig,
                          PlantParams, NOMINAL_INPUT, TAU)


class TestPlantParams:
    def test_defaults_are_nominal(self):
        p = PlantParams()
        assert (p.kA, p.kB) == (0.336, 0.089)
        assert (p.rho, p.A2, p.Cp) == (0.15, 3.0, 2.5)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError, match="kA"):
            PlantParams(kA=-0.1)
        with pytest.raises(ValueError, match="kB"):
            PlantParams(kB=float("nan"))
        with pytest.raises(ValueError, match="^kA: must be positive and finite$"):
            PlantParams(kA=10**400)   # an int beyond the float range


class TestRateCoefficients:
    def test_hand_arithmetic_at_nominal_temperature(self):
        # kA2 = 0.336 * exp(100 / 313), kB2 = 0.089 * exp(150 / 313)
        kA2, kB2 = plant.rate_coefficients(313.0, PlantParams())
        assert kA2 == pytest.approx(0.336 * np.exp(100.0 / 313.0), rel=1e-12)
        assert kB2 == pytest.approx(0.089 * np.exp(150.0 / 313.0), rel=1e-12)
        assert kA2 == pytest.approx(0.46248, abs=5e-6)
        assert kB2 == pytest.approx(0.14372, abs=5e-6)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ValueError, match="temperature"):
            plant.rate_coefficients(0.0, PlantParams())


class TestDerivatives:
    def test_level_balance_hand_arithmetic(self):
        # dH2 = (F20 + kv1*H1 - kv2*H2) / (rho*A2) = (0.1 + 0.5 - 0.6) / 0.45
        p = PlantParams()
        d = plant.derivatives([1.2, 0.5, 0.2, 313.0], NOMINAL_INPUT, p)
        assert d[0] == pytest.approx((0.1 + 0.5 - 0.6) / 0.45, rel=1e-12)

    def test_batched_matches_scalar(self, rng):
        p = PlantParams()
        states = np.abs(rng.normal(loc=[1.2, 0.5, 0.2, 313.0],
                                   scale=[0.1, 0.05, 0.02, 2.0], size=(5, 4)))
        inps = NOMINAL_INPUT * (1 + 0.05 * rng.normal(size=(5, 6)))
        batched = plant.derivatives(states, inps, p)
        for b in range(5):
            assert np.allclose(batched[b], plant.derivatives(states[b], inps[b], p),
                               atol=1e-14)

    def test_zero_level_rejected(self):
        with pytest.raises(ValueError, match="H2"):
            plant.derivatives([0.0, 0.5, 0.2, 313.0], NOMINAL_INPUT, PlantParams())


class TestStep:
    def test_rk4_order_on_plant_field(self):
        # error vs step size on a log-log regression should have slope ~4
        p = PlantParams()
        x0 = np.array([1.2, 0.5, 0.2, 313.0])
        ref = plant.step(x0, NOMINAL_INPUT, p, 1.0, substeps=4096)
        subs = np.array([2, 4, 8, 16, 32])
        errs = np.array([np.max(np.abs(plant.step(x0, NOMINAL_INPUT, p, 1.0,
                                                  substeps=int(s)) - ref))
                         for s in subs])
        slope = np.polyfit(np.log2(1.0 / subs), np.log2(errs), 1)[0]
        assert abs(slope - 4.0) < 0.2

    def test_invalid_dt(self):
        with pytest.raises(ValueError):
            plant.step(np.ones(4), NOMINAL_INPUT, PlantParams(), -0.1)

    # refused on entry, before any arithmetic: an inf would otherwise meet
    # -inf in a stage and print a RuntimeWarning first
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("batch", [None, 3], ids=["single", "batched"])
    @pytest.mark.parametrize("where,channel,bad", [
        ("input", 3, np.nan), ("input", 5, np.inf), ("input", 1, -np.inf),
        ("state", 1, np.nan), ("state", slice(None), np.nan), ("state", 3, np.inf)],
        ids=["T1-nan", "Q2-inf", "xA1-neginf", "xA2-nan", "state-nan", "T2-inf"])
    def test_non_finite_data_raises(self, batch, where, channel, bad):
        # one bad row refuses the whole batch
        p = PlantParams()
        x = np.tile(plant.steady_state(p), (batch or 1, 1))
        u = np.tile(NOMINAL_INPUT, (batch or 1, 1))
        (u if where == "input" else x)[-1, channel] = bad
        if batch is None:
            x, u = x[0], u[0]
        with pytest.raises(ValueError, match="non-finite or non-positive"):
            plant.step(x, u, p, TAU)

    # the batched cases keep their plain ids
    @pytest.mark.parametrize("batch,channel,value", [
        (4, 0, -0.5), (4, 0, 0.0), (4, 3, 0.0), (None, 0, -0.5), (None, 0, 0.0),
        (None, 3, 0.0), (None, 0, 5e-324)],
        ids=["0--0.5", "0-0.0", "3-0.0", "single-0--0.5", "single-0-0.0",
             "single-3-0.0", "single-0-subnormal"])
    def test_one_out_of_domain_row_raises(self, batch, channel, value):
        p = PlantParams()
        x = np.tile(plant.steady_state(p), (batch or 1, 1))
        u = np.tile(NOMINAL_INPUT, (batch or 1, 1))
        x[len(x) // 2, channel] = value
        if batch is None:
            x, u = x[0], u[0]
        with pytest.raises(ValueError, match="non-finite or non-positive"):
            plant.step(x, u, p, TAU)

    @pytest.mark.parametrize("batch", [None, 3], ids=["single", "batched"])
    def test_step_ending_out_of_domain_raises(self, batch):
        # with a negative feed one long RK4 step ends at T2 < 0, although
        # all four stages stay inside the domain; in the batch only the
        # last row gets that feed, the others stay at the steady state
        p = PlantParams()
        x = np.tile(plant.steady_state(p), (batch or 1, 1))
        u = np.tile(NOMINAL_INPUT, (batch or 1, 1))
        x[-1], u[-1] = [1.4, 0.5, 0.2, 308.0], [0.0, 0.8, 0.1, 313.0, -0.4, 0.0]
        if batch is None:
            x, u = x[0], u[0]
        else:
            assert np.all(plant.step(x[:-1], u[:-1], p, 0.6, substeps=1) > 0)
        with pytest.raises(ValueError, match="left its domain"):
            plant.step(x, u, p, 0.6, substeps=1)


class TestKernelParity:
    """The channel-row kernel gives the bits of the reference array kernel."""

    def test_steady_state(self):
        p = PlantParams(kA=0.331)
        fast = plant.steady_state(p)
        with reference_plant():
            assert np.array_equal(fast, plant.steady_state(p))

    def test_drift_run_with_ramp_inside(self):
        exc = plant.default_excitation()
        sched = DriftSchedule(t_start=20.0, t_end=40.0)
        fast = plant.drift_run(60.0, sched, exc, seed=11)
        with reference_plant():
            ref = plant.drift_run(60.0, sched, exc, seed=11)
        assert np.array_equal(fast.u, ref.u)
        assert np.array_equal(fast.y, ref.y)

    def test_collect_dataset(self):
        cfg = DatasetConfig(n_sequences=6, seq_len=150, n_train=4, n_test=2)
        fast = plant.collect_dataset(cfg, seed=9)
        with reference_plant():
            ref = plant.collect_dataset(cfg, seed=9)
        for a, b in zip(fast.sequences, ref.sequences):
            assert np.array_equal(a.y, b.y)

    @pytest.mark.parametrize("shape", [(4,), (1, 4), (7, 4), (35, 4), (136, 4)],
                             ids=["4", "1x4", "7x4", "35x4", "136x4"])
    def test_random_steps_and_derivatives(self, rng, shape):
        exc = plant.default_excitation()
        for _ in range(10):
            p = PlantParams(kA=rng.uniform(0.3, 0.36))
            x = rng.uniform([0.8, 0.1, 0.05, 300.0], [1.6, 0.9, 0.5, 330.0],
                            size=shape)
            u = rng.uniform(exc.lo, exc.hi, size=shape[:-1] + (6,))
            dt, substeps = rng.uniform(0.01, 0.5), int(rng.integers(1, 12))
            fast = plant.step(x, u, p, dt, substeps)
            assert fast.shape == shape
            assert np.array_equal(fast, reference_step(x, u, p, dt, substeps))
            assert np.array_equal(plant.derivatives(x, u, p),
                                  reference_derivatives(x, u, p))


class TestSteadyState:
    def test_derivatives_vanish(self):
        p = PlantParams()
        x = plant.steady_state(p)
        assert np.max(np.abs(plant.derivatives(x, NOMINAL_INPUT, p))) <= 1e-9

    def test_is_a_fixed_point_of_step(self):
        p = PlantParams()
        x = plant.steady_state(p)
        x2 = plant.step(x, NOMINAL_INPUT, p, TAU, substeps=10)
        assert np.allclose(x2, x, atol=1e-9)

    def test_physically_plausible(self):
        x = plant.steady_state(PlantParams())
        H2, xA2, xB2, T2 = x
        assert 0 < H2 < 5
        assert 0 < xA2 < 1 and 0 < xB2 < 1
        assert 300 < T2 < 340

    @pytest.mark.parametrize("kw", [{"kA": 0.3}, {"kA": 0.326}, {"kA": 0.331},
                                    {"kA": 0.4}, {"kB": 0.12}],
                             ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
    def test_newton_matches_scipy_root(self, kw):
        from scipy.optimize import root
        p = PlantParams(**kw)
        x = plant.steady_state(p)
        settled = np.array([1.0, 0.5, 0.2, p.T0])
        for _ in range(int(60.0 / TAU)):
            settled = plant.step(settled, NOMINAL_INPUT, p, TAU, substeps=5)
        oracle = root(lambda s: plant.derivatives(s, NOMINAL_INPUT, p), settled,
                      tol=1e-13).x
        assert np.all(np.abs(x - oracle) <= 2 * np.spacing(np.abs(oracle)))
        assert np.max(np.abs(plant.derivatives(x, NOMINAL_INPUT, p))) <= 1e-9

    def test_no_root_raises(self, monkeypatch):
        # with dH2/dt lowered by 2 the level falls at every H2 > 0
        derivatives = plant.derivatives
        offset = np.array([-2.0, 0.0, 0.0, 0.0])
        monkeypatch.setattr(plant, "derivatives", lambda s, u, p: derivatives(s, u, p) + offset)
        monkeypatch.setattr(plant, "_STEADY_STATE_CACHE", {})
        with pytest.raises(RuntimeError, match="steady state refinement failed"):
            plant.steady_state(PlantParams())
        assert plant._STEADY_STATE_CACHE == {}


class TestDrift:
    def test_ramp_values(self):
        s, kA = DriftSchedule(), PlantParams().kA
        assert plant.drift_value(s, kA, 0.0) == 0.336
        assert plant.drift_value(s, kA, 100.0) == 0.336
        assert plant.drift_value(s, kA, 150.0) == pytest.approx(0.331)
        assert plant.drift_value(s, kA, 200.0) == 0.326
        assert plant.drift_value(s, kA, 500.0) == 0.326

    def test_vectorized(self):
        s = DriftSchedule()
        t = np.array([0.0, 150.0, 300.0])
        assert np.allclose(plant.drift_value(s, PlantParams().kA, t), [0.336, 0.331, 0.326])

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            DriftSchedule(t_start=200.0, t_end=100.0)

    @pytest.mark.parametrize("bad", [
        {"end_value": -0.1}, {"end_value": 0.0}, {"end_value": np.nan},
        {"t_start": np.nan}, {"t_end": np.inf}],
        ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()))
    def test_nonsense_refused(self, bad):
        # a non-positive kA would only fail at the first drifted plant step
        with pytest.raises(ValueError, match="finite|positive"):
            DriftSchedule(**bad)

    def test_drift_run_departs_from_nominal(self):
        exc = plant.default_excitation()
        sched = DriftSchedule(t_start=5.0, t_end=10.0)
        drifted = plant.drift_run(20.0, sched, exc, seed=4)
        frozen = plant.drift_run(
            20.0, DriftSchedule(end_value=0.336, t_start=5.0, t_end=10.0), exc, seed=4)
        # identical until the ramp starts, different afterwards
        k_on = int(5.0 / TAU) + 1
        assert np.allclose(drifted.y[:k_on], frozen.y[:k_on])
        assert np.max(np.abs(drifted.y[-1] - frozen.y[-1])) > 1e-4

    def test_drift_run_ramps_from_the_plant_ka(self):
        # the run starts at the steady state of its plant and keeps that
        # plant's kA until the ramp starts, so it matches an undrifted run
        p, sched = PlantParams(kA=0.3), DriftSchedule(t_start=5.0, t_end=10.0)
        run = plant.drift_run(12.0, sched, plant.default_excitation(), seed=4, params=p)
        flat = plant.simulate_plant(plant.steady_state(p), run.u, p)
        k_on = int(5.0 / TAU) + 1
        np.testing.assert_array_equal(run.y[:k_on], flat[:k_on])
        assert np.max(np.abs(run.y[-1] - flat[-1])) > 1e-4
        assert plant.drift_value(sched, 0.3, 0.0) == 0.3
        assert plant.drift_value(sched, 0.3, 10.0) == sched.end_value


class TestExcitation:
    def test_bounds_and_hold(self):
        cfg = plant.default_excitation()
        u = plant.generate_excitation(cfg, 200, seed=0)
        assert u.shape == (200, 6)
        assert np.all(u >= np.array(cfg.lo) - 1e-12)
        assert np.all(u <= np.array(cfg.hi) + 1e-12)
        # constant within each hold interval
        h = cfg.hold_steps
        for s in range(0, 200 - h, h):
            assert np.all(u[s:s + h] == u[s])

    def test_deterministic_per_seed(self):
        cfg = plant.default_excitation()
        a = plant.generate_excitation(cfg, 100, seed=7)
        b = plant.generate_excitation(cfg, 100, seed=7)
        c = plant.generate_excitation(cfg, 100, seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            ExcitationConfig(lo=(1,) * 6, hi=(0,) * 6)
        with pytest.raises(ValueError, match="hold_time"):
            ExcitationConfig(lo=(0,) * 6, hi=(1,) * 6, hold_time=0.05)
        with pytest.raises(ValueError, match="tau"):
            ExcitationConfig(lo=(0,) * 6, hi=(1,) * 6, tau=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_bounds_rejected(self, bad):
        # NaN passes the lo <= hi comparison, so finiteness needs its own check
        for lo, hi in [((bad,) + (0,) * 5, (1,) * 6), ((0,) * 6, (1,) * 5 + (bad,))]:
            with pytest.raises(ValueError, match="finite"):
                ExcitationConfig(lo=lo, hi=hi)


class TestSimulatePlant:
    def test_first_sample_is_initial_state(self):
        p = PlantParams()
        x0 = plant.steady_state(p)
        u = np.tile(NOMINAL_INPUT, (5, 1))
        y = plant.simulate_plant(x0, u, p)
        assert np.array_equal(y[0], x0)
        assert np.allclose(y[-1], x0, atol=1e-9)  # steady input holds the state

    def test_batched_matches_single(self, rng):
        p = PlantParams()
        x0 = plant.steady_state(p)
        cfg = plant.default_excitation()
        us = np.stack([plant.generate_excitation(cfg, 30, seed=i) for i in range(3)],
                      axis=1)
        ys = plant.simulate_plant(np.tile(x0, (3, 1)), us, p)
        for b in range(3):
            y1 = plant.simulate_plant(x0, us[:, b], p)
            assert np.allclose(ys[:, b], y1, atol=1e-12)


class TestCollectDataset:
    def test_shapes_and_split(self):
        cfg = DatasetConfig(n_sequences=6, seq_len=40, n_train=4, n_test=2)
        ds = plant.collect_dataset(cfg, seed=3)
        assert len(ds.sequences) == 6
        assert len(ds.train) == 4 and len(ds.test) == 2
        assert ds.sequences[0].u.shape == (40, 6)
        assert ds.sequences[0].y.shape == (40, 4)
        assert set(ds.train_idx).isdisjoint(ds.test_idx)

    def test_pure_function_of_config_and_seed(self):
        cfg = DatasetConfig(n_sequences=3, seq_len=25, n_train=2, n_test=1)
        a = plant.collect_dataset(cfg, seed=5)
        b = plant.collect_dataset(cfg, seed=5)
        for sa, sb in zip(a.sequences, b.sequences):
            assert np.array_equal(sa.u, sb.u)
            assert np.array_equal(sa.y, sb.y)

    def test_kA_override_changes_outputs_not_inputs(self):
        cfg = DatasetConfig(n_sequences=2, seq_len=30, n_train=1, n_test=1)
        a = plant.collect_dataset(cfg, seed=5)
        b = plant.collect_dataset(cfg, seed=5, params=PlantParams(kA=0.326))
        assert np.array_equal(a.sequences[0].u, b.sequences[0].u)
        assert not np.allclose(a.sequences[0].y, b.sequences[0].y)

    def test_one_sampling_period(self):
        with pytest.raises(ValueError, match="tau"):
            DatasetConfig(tau=0.2)
        exc = dataclasses.replace(plant.default_excitation(), tau=0.2)
        assert DatasetConfig(tau=0.2, excitation=exc).excitation.hold_steps == 10

    def test_split_overflow_rejected(self):
        with pytest.raises(ValueError, match="split"):
            DatasetConfig(n_sequences=3, n_train=3, n_test=1)

    @pytest.mark.parametrize("bad", [
        {"n_sequences": 0, "n_train": 0, "n_test": 0}, {"seq_len": 0},
        {"seq_len": 1}, {"substeps": 0}, {"substeps": 2.5}, {"substeps": True},
        {"tau": 0.0}, {"tau": np.nan}, {"tau": np.inf}, {"n_train": -1},
        {"n_test": -2}, {"kA": 0.326}],
        ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()))
    def test_bad_sizes_rejected(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            DatasetConfig(**bad)


class TestSequenceCsv:
    def test_bad_header_raises(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("t,H1\n0.0,1.0\n")
        with pytest.raises(ValueError, match="header"):
            plant.load_sequence_csv(path)

    def test_header_only_raises(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(plant.SEQUENCE_CSV_COLUMNS) + "\n")
        with pytest.raises(ValueError, match="no samples"):
            plant.load_sequence_csv(path)
