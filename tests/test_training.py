import tracemalloc

import numpy as np
import pytest

from conftest import ALL_SPECS, random_params
from mhenet import models, plant, training
from mhenet.models import ModelSpec
from mhenet.plant import Sequence


def toy_dataset(rng, n_train=4, n_test=2, T=60, n_u=2, n_y=1):
    """Sequences generated by a small known GRU (zero-noise teacher)."""
    spec = ModelSpec("gru", n_u, 3, n_y)
    teacher = models.init_params(spec, 99, "uniform")
    vals = teacher.values.copy()
    vals += 0.3 * rng.normal(size=len(vals))
    teacher = teacher.replace_values(vals)
    seqs = []
    for _ in range(n_train + n_test):
        u = rng.normal(size=(T, n_u))
        y, _ = models.simulate(spec, teacher, models.zero_state(spec), u)
        y = y + 0.5  # nonzero mean so the scaler has work to do
        seqs.append(Sequence(u=u, y=y, tau=0.1))
    cfg = plant.DatasetConfig(n_sequences=n_train + n_test, seq_len=T,
                              n_train=n_train, n_test=n_test)
    ds = plant.Dataset(seqs, list(range(n_train)),
                       list(range(n_train, n_train + n_test)), cfg, seed=0)
    return spec, teacher, ds


class TestScaler:
    def test_roundtrip(self, rng):
        s = training.Scaler(u_shift=np.array([1.0, -2.0]), u_scale=np.array([2.0, 0.5]),
                            y_shift=np.array([3.0]), y_scale=np.array([4.0]))
        u = rng.normal(size=(7, 2))
        y = rng.normal(size=(7, 1))
        assert np.allclose(s.unscale_u(s.scale_u(u)), u, atol=1e-12)
        assert np.allclose(s.unscale_y(s.scale_y(y)), y, atol=1e-12)

    def test_fit_normalizes_to_unit_moments(self, rng):
        seqs = [Sequence(u=rng.normal(loc=3.0, scale=2.0, size=(50, 2)),
                         y=rng.normal(loc=-1.0, scale=0.5, size=(50, 1)))
                for _ in range(3)]
        s = training.fit_scaler(seqs)
        U = np.concatenate([s_.u for s_ in seqs])
        Z = (U - s.u_shift) / s.u_scale
        assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(Z.std(axis=0), 1.0, atol=1e-12)

    def test_zero_variance_rejected(self):
        seqs = [Sequence(u=np.ones((10, 2)), y=np.random.default_rng(0).normal(size=(10, 1)))]
        with pytest.raises(ValueError, match="zero-variance"):
            training.fit_scaler(seqs)

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_non_finite_rejected(self, bad, rng):
        # refused before the moments, not as a blow-up of the model it trains
        u = rng.normal(size=(10, 2))
        u[3, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            training.fit_scaler([Sequence(u=u, y=rng.normal(size=(10, 1)))])

    def test_json_roundtrip(self):
        s = training.Scaler(np.array([1.0]), np.array([2.0]),
                            np.array([3.0]), np.array([4.0]))
        q = training.Scaler.from_json(s.to_json())
        assert np.array_equal(q.u_shift, s.u_shift)
        assert np.array_equal(q.y_scale, s.y_scale)


class TestTrainConfig:
    @pytest.mark.parametrize("bad", [
        {"epochs": -1}, {"epochs": 0}, {"epochs": 2.5}, {"epochs": True},
        {"patience": 0}, {"patience": 1.5}, {"washout": -5}, {"washout": 1.5},
        {"seed": -1}, {"seed": 0.5}, {"batch_size": 0}, {"batch_size": 2.5}, {"batch_size": 8},
        {"batch_size": True}, {"learning_rate": np.nan}, {"learning_rate": 0.0},
        {"learning_rate": -1e-2}, {"learning_rate": np.inf}, {"lr_decay": 0.0},
        {"lr_decay": np.nan}, {"init_scheme": "he_normal"}],
        ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()))
    def test_nonsense_refused(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            training.TrainConfig(**bad)

    def test_edge_values_accepted(self):
        training.TrainConfig(epochs=1, patience=1, washout=0, seed=0,
                             learning_rate=1, lr_decay=1, init_scheme="zeros")


class TestTrainOffline:
    def test_history_rows_are_epoch_and_best_mse(self, rng):
        spec, teacher, ds = toy_dataset(rng)
        cfg = training.TrainConfig(epochs=3, washout=10, seed=1)
        _, hist = training.train_offline(spec, ds, cfg)
        assert [len(row) for row in hist] == [2, 2, 2]
        assert [row[0] for row in hist] == [0, 1, 2]

    def test_loss_decreases_and_history_monotone(self, rng):
        spec, teacher, ds = toy_dataset(rng)
        cfg = training.TrainConfig(epochs=60, learning_rate=2e-2, washout=10,
                                   seed=2, patience=60)
        params, hist = training.train_offline(spec, ds, cfg)
        best = [h[1] for h in hist]
        assert best[-1] < best[0]
        assert all(b <= a + 1e-15 for a, b in zip(best, best[1:]))

    def test_deterministic_given_seed(self, rng):
        spec, teacher, ds = toy_dataset(rng)
        cfg = training.TrainConfig(epochs=10, washout=10, seed=5)
        a, _ = training.train_offline(spec, ds, cfg)
        b, _ = training.train_offline(spec, ds, cfg)
        assert np.array_equal(a.values, b.values)

    def test_recovers_teacher_predictions(self, rng):
        spec, teacher, ds = toy_dataset(rng, T=80)
        cfg = training.TrainConfig(epochs=800, learning_rate=2e-2, washout=10,
                                   seed=3, patience=800)
        params, hist = training.train_offline(spec, ds, cfg)
        scaler = training.fit_scaler(ds.train)
        rep = training.evaluate_mse(spec, params, ds.test, 10, scaler)
        assert rep.average < 1e-2

    def test_stops_after_patience_epochs_without_improvement(self, rng):
        # a learning rate of 1e-12 moves the loss by far less than the
        # relative 1e-6 that counts as an improvement: only epoch 0 improves
        spec, teacher, ds = toy_dataset(rng)
        cfg = training.TrainConfig(epochs=50, learning_rate=1e-12, washout=10,
                                   seed=1, patience=3)
        _, hist = training.train_offline(spec, ds, cfg)
        assert [row[0] for row in hist] == [0, 1, 2, 3]
        assert len({row[1] for row in hist}) == 1

    def test_washout_longer_than_sequence_rejected(self, rng):
        spec, teacher, ds = toy_dataset(rng, T=20)
        with pytest.raises(ValueError, match="washout"):
            training.train_offline(spec, ds, training.TrainConfig(epochs=1, washout=20))
        scaler = training.fit_scaler(ds.train)   # the same rule in evaluate_mse
        with pytest.raises(ValueError, match="washout"):
            training.evaluate_mse(spec, teacher, ds.test, 20, scaler)

    def test_esn_trains_readout_only(self, rng):
        spec = ModelSpec("esn", 2, 10, 1, spectral_radius=0.9, leak_rate=0.8)
        teacher_spec, teacher, ds = toy_dataset(rng)
        cfg = training.TrainConfig(epochs=30, learning_rate=5e-2, washout=10, seed=4)
        params, _ = training.train_offline(spec, ds, cfg)
        init = models.init_params(spec, cfg.seed, cfg.init_scheme)
        n = models.param_count(spec)
        assert np.array_equal(params.values[n:], init.values[n:])
        assert not np.array_equal(params.values[:n], init.values[:n])


class TestEvaluateMse:
    def test_washout_excluded(self, rng):
        spec = ModelSpec("linear", 1, 0, 1)
        p = models.ParamVector(spec, [2.0])
        # targets match the model except inside the washout
        u = np.ones((10, 1))
        y = 2.0 * u
        y[:3] = 99.0
        scaler = training.Scaler(np.zeros(1), np.ones(1), np.zeros(1), np.ones(1))
        rep = training.evaluate_mse(spec, p, [Sequence(u=u, y=y)], 3, scaler)
        assert rep.average == 0.0
        rep2 = training.evaluate_mse(spec, p, [Sequence(u=u, y=y)], 2, scaler)
        assert rep2.average > 0.0

    def test_channel_mse_hand_arithmetic(self):
        spec = ModelSpec("linear", 1, 0, 2)
        p = models.ParamVector(spec, [1.0, 0.0])  # y = [u, 0]
        u = np.array([[1.0], [1.0]])
        y = np.array([[2.0, 1.0], [2.0, 1.0]])  # errors: [-1, -1] per step
        scaler = training.Scaler(np.zeros(1), np.ones(1), np.zeros(2), np.ones(2))
        rep = training.evaluate_mse(spec, p, [Sequence(u=u, y=y)], 0, scaler)
        assert np.allclose(rep.channel_mse, [1.0, 1.0])
        assert rep.average == 1.0

    def test_empty_rejected(self):
        spec = ModelSpec("linear", 1, 0, 1)
        p = models.ParamVector(spec, [1.0])
        scaler = training.Scaler(np.zeros(1), np.ones(1), np.zeros(1), np.ones(1))
        with pytest.raises(ValueError):
            training.evaluate_mse(spec, p, [], 0, scaler)


def _whole_sequence_mse(spec, params, sequences, washout, scaler):
    """Per-channel MSE from one whole-sequence simulate, as evaluate_mse
    computed it before its rollout ran in blocks."""
    U = np.stack([scaler.scale_u(s.u) for s in sequences], axis=1)
    Y = np.stack([scaler.scale_y(s.y) for s in sequences], axis=1)
    pred, _ = models.simulate(spec, params, models.zero_state(spec, batch=U.shape[1]), U)
    err = (pred - Y)[washout:]
    return np.mean(err * err, axis=(0, 1))


def _random_sequences(spec, rng, T, B):
    return [Sequence(u=rng.normal(size=(T, spec.n_u)), y=rng.normal(size=(T, spec.n_y)))
            for _ in range(B)]


class TestBlockedEvaluation:
    """evaluate_mse rolls out in blocks of models.BLOCK steps; its floats must
    equal those of one whole-sequence rollout."""

    K = models.BLOCK

    @pytest.mark.parametrize("kind", list(ALL_SPECS))
    @pytest.mark.parametrize("T,washout", [
        (K // 2, 3), (K, 3), (K, K - 1), (K + 1, 3), (K + 1, K), (3 * K, 0), (3 * K, 3),
        (3 * K, K + 5),
    ], ids=["short", "one-block", "one-block-late-washout", "block-plus-one",
            "block-plus-one-washout-to-boundary", "multiple-no-washout", "multiple",
            "multiple-washout-across-boundary"])
    def test_equals_whole_sequence_rollout(self, kind, T, washout, rng):
        spec = ALL_SPECS[kind]
        params = random_params(spec, rng)
        sequences = _random_sequences(spec, rng, T, B=3)
        scaler = training.Scaler(rng.normal(size=spec.n_u), rng.uniform(0.5, 2, size=spec.n_u),
                                 rng.normal(size=spec.n_y), rng.uniform(0.5, 2, size=spec.n_y))
        rep = training.evaluate_mse(spec, params, sequences, washout, scaler)
        expected = _whole_sequence_mse(spec, params, sequences, washout, scaler)
        assert rep.channel_mse.tolist() == expected.tolist()
        assert rep.average == float(np.mean(expected))
        assert (rep.n_sequences, rep.washout) == (3, washout)

    def test_blowup_names_the_absolute_step(self, rng):
        # weights of order 1e300 give finite outputs of order 1e300 until
        # one large input past the first block overflows them
        spec = ALL_SPECS["linear"]
        params = random_params(spec, rng, scale=1e300)
        sequences = _random_sequences(spec, rng, 3 * self.K, B=2)
        bad = self.K + 7
        sequences[1].u[bad] = 1e10
        scaler = training.Scaler(np.zeros(spec.n_u), np.ones(spec.n_u),
                                 np.zeros(spec.n_y), np.ones(spec.n_y))
        with np.errstate(over="ignore"), pytest.raises(models.NumericalBlowupError) as whole:
            _whole_sequence_mse(spec, params, sequences, 3, scaler)
        assert whole.value.step == bad
        with np.errstate(over="ignore"), pytest.raises(
                models.NumericalBlowupError, match=f"step {bad}$") as blocked:
            training.evaluate_mse(spec, params, sequences, 3, scaler)
        assert blocked.value.step == bad

    def test_peak_memory_below_the_state_history(self, rng):
        # the drift-adapt evaluation set: 35 sequences x 1000 samples of the
        # benchmark LSTM; a whole-sequence rollout alone keeps (T+1) B S floats
        spec = ModelSpec("lstm", 6, 10, 4)
        T, B = 1000, 35
        params = models.init_params(spec, 0)
        sequences = _random_sequences(spec, rng, T, B)
        scaler = training.fit_scaler(sequences)
        history_bytes = (T + 1) * B * models.state_size(spec) * 8
        tracemalloc.start()
        try:
            training.evaluate_mse(spec, params, sequences, 100, scaler)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < history_bytes
