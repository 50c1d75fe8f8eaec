import tracemalloc

import numpy as np
import pytest

from choicerbm import oracle
from choicerbm.dataset import ChoiceDataset, NormStats, from_arrays
from choicerbm.model import CrbmParams
from choicerbm.trainer import (MOMENTUM_FINAL, MOMENTUM_INITIAL,
                               MOMENTUM_SWITCH_EPOCH, TrainConfig,
                               TrainingDivergedError, cd_step, train_crbm)
import enumeration
from conftest import miss_rate, random_params


class TestTrainConfig:
    def test_defaults_follow_reference_recipe(self):
        cfg = TrainConfig()
        assert cfg.batch_size == 64
        assert cfg.epochs == 400
        assert cfg.learning_rate == pytest.approx(1e-3)
        assert cfg.cd_k == 1
        assert (MOMENTUM_INITIAL, MOMENTUM_FINAL) == (0.5, 0.9)
        assert MOMENTUM_SWITCH_EPOCH == 5

    @pytest.mark.parametrize("kw", [
        dict(cd_k=0), dict(batch_size=0), dict(epochs=0),
        dict(learning_rate=0.0), dict(seed=-1),
        dict(early_stop_patience=-1), dict(weight_init_scale=0.0),
        dict(weight_decay=-0.1),
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            TrainConfig(**kw).validate()


class TestCdStep:
    def test_zero_gradient_when_reconstruction_matches_data(self):
        # saturated weights make the chain reproduce the data exactly
        big = 800.0
        p = CrbmParams(
            choice_hidden_w=np.array([[big], [-big]]),
            choice_context_w=np.zeros((2, 1)),
            hidden_context_w=np.zeros((1, 1)),
            choice_bias=np.array([-big, 0.0]),
            hidden_bias=np.array([-big / 2]))
        xb = np.zeros((8, 1))
        yb = np.eye(2)[[0, 1, 0, 1, 1, 0, 0, 1]]
        g = cd_step(p, (xb, yb), TrainConfig(), np.random.default_rng(0))
        for _, arr in g.blocks():
            assert np.all(arr == 0.0)

    def test_zero_learning_rate_leaves_params_unchanged(self, rng):
        p = random_params(rng, 3, 2, 2, scale=0.5)
        ds = from_arrays(rng.normal(0, 1, (32, 2)), rng.integers(0, 3, 32))
        g = cd_step(p, (ds.x, ds.y), TrainConfig(), rng)
        lr = 0.0
        stepped = {name: arr + lr * getattr(g, name) for name, arr in p.blocks()}
        for name, arr in p.blocks():
            np.testing.assert_array_equal(stepped[name], arr)

    def test_mean_over_seeds_approaches_exact_gradient(self, rng):
        # CD-k with a long chain is an unbiased draw from the conditional
        # model, so averaging over seeds recovers the exact gradient
        p = CrbmParams(
            choice_hidden_w=np.array([[0.8], [-0.5]]),
            choice_context_w=np.array([[0.6], [-0.2]]),
            hidden_context_w=np.array([[0.4]]),
            choice_bias=np.array([0.1, -0.3]),
            hidden_bias=np.array([0.2]))
        ds = from_arrays(rng.normal(0, 1, (16, 1)), rng.integers(0, 2, 16),
                         n_alternatives=2)
        exact = enumeration.exact_loglik_gradient(p, ds)
        cfg = TrainConfig(cd_k=25)
        reps = 1500
        acc = None
        for s in range(reps):
            g = cd_step(p, (ds.x, ds.y), cfg, np.random.default_rng(9000 + s))
            if acc is None:
                acc = {name: arr.copy() for name, arr in g.blocks()}
            else:
                for name, arr in g.blocks():
                    acc[name] += arr
        for name, target in exact.blocks():
            est = acc[name] / reps * ds.n_rows   # exact gradient sums rows
            assert np.abs(est - target).max() < 0.25

    def test_without_hidden_units_is_the_exact_mnl_gradient(self, rng):
        # J = 0: the chain's expectation replaces its sample, so the step
        # draws nothing and equals the enumerated gradient per row
        p = random_params(rng, 5, 0, 4)
        ds = from_arrays(rng.normal(0, 1, (40, 4)), rng.integers(0, 5, 40),
                         n_alternatives=5)
        g1, g2 = (cd_step(p, (ds.x, ds.y), TrainConfig(),
                          np.random.default_rng(seed)) for seed in (1, 2))
        exact = enumeration.exact_loglik_gradient(p, ds)
        for (name, a), (_, b), (_, target) in zip(g1.blocks(), g2.blocks(),
                                                  exact.blocks()):
            np.testing.assert_array_equal(a, b, err_msg=name)
            np.testing.assert_allclose(a, target / 40, rtol=0, atol=1e-12,
                                       err_msg=name)

    def test_rejects_empty_or_mismatched_batches(self, rng):
        p = random_params(rng, 3, 1, 2)
        with pytest.raises(ValueError):
            cd_step(p, (np.zeros((0, 2)), np.zeros((0, 3))), TrainConfig(), rng)
        with pytest.raises(ValueError):
            cd_step(p, (np.zeros((4, 1)), np.eye(3)[np.zeros(4, dtype=int)]),
                    TrainConfig(), rng)


class TestMnlAnalyticCases:
    def test_feature_free_recovers_empirical_shares(self, rng):
        n = 1500
        idx = rng.choice(3, size=n, p=[0.5, 0.3, 0.2])
        ds = from_arrays(np.zeros((n, 0)), idx, n_alternatives=3)
        cfg = TrainConfig(batch_size=n, epochs=60, learning_rate=0.1, seed=1,
                          early_stop_patience=60)
        params, _ = train_crbm(ds, ds, 0, cfg)
        probs = np.exp(params.choice_bias)
        probs /= probs.sum()
        np.testing.assert_allclose(probs, ds.y.mean(axis=0), atol=1e-6)

    def test_training_loss_non_increasing_full_batch(self, rng):
        # an absent alternative keeps the clipped share init off the optimum,
        # so the trajectory actually moves
        n = 900
        idx = rng.choice(2, size=n, p=[0.7, 0.3])
        ds = from_arrays(np.zeros((n, 0)), idx, n_alternatives=3)
        cfg = TrainConfig(batch_size=n, epochs=80, learning_rate=0.2, seed=0,
                          early_stop_patience=80)
        _, trace = train_crbm(ds, ds, 0, cfg)
        diffs = np.diff(trace.valid_nll[1:])   # the training rows
        assert np.all(diffs <= 1e-8)

    def test_separable_data_drives_error_to_zero(self, rng):
        x = np.concatenate([rng.uniform(1, 2, 60), rng.uniform(-2, -1, 60)])
        idx = np.array([0] * 60 + [1] * 60)
        ds = from_arrays(x[:, None], idx, n_alternatives=2)
        cfg = TrainConfig(batch_size=120, epochs=300, learning_rate=0.5,
                          seed=0, early_stop_patience=300)
        _, trace = train_crbm(ds, ds, 0, cfg)
        assert min(trace.valid_error) == 0.0


class TestDeterminismAndReduction:
    def test_same_seed_bit_identical(self, rng):
        ds = from_arrays(rng.normal(0, 1, (300, 3)), rng.integers(0, 4, 300))
        cfg = TrainConfig(batch_size=64, epochs=15, learning_rate=0.01, seed=3)
        a, ta = train_crbm(ds, ds, 2, cfg)
        b, tb = train_crbm(ds, ds, 2, cfg)
        for (_, x), (_, y) in zip(a.blocks(), b.blocks()):
            np.testing.assert_array_equal(x, y)
        assert ta.valid_nll == tb.valid_nll
        assert ta.valid_error == tb.valid_error

    @pytest.mark.parametrize("n_hidden", [0, 2])
    def test_validating_on_the_training_set_scores_once(self, rng, monkeypatch,
                                                         n_hidden):
        from choicerbm import trainer
        ds = from_arrays(rng.normal(0, 1, (300, 3)), rng.integers(0, 4, 300))
        cfg = TrainConfig(batch_size=64, epochs=6, learning_rate=0.05, seed=2,
                          early_stop_patience=2)
        snapshots = []
        hook = lambda epoch, p: snapshots.append(p)
        p_copy, t_copy = train_crbm(ds, ds.take(np.arange(ds.n_rows)),
                                    n_hidden, cfg, hook)
        calls = []
        scorer = trainer.score_choices
        monkeypatch.setattr(trainer, "score_choices",
                            lambda *args: calls.append(1) or scorer(*args))
        p_same, t_same = train_crbm(ds, ds, n_hidden, cfg, hook)
        assert len(calls) == len(t_same.valid_nll)
        assert t_same == t_copy
        for (_, a), (_, b) in zip(p_same.blocks(), p_copy.blocks()):
            np.testing.assert_array_equal(a, b)
        half = len(snapshots) // 2
        for a, b in zip(snapshots[:half], snapshots[half:]):
            for (_, u), (_, v) in zip(a.blocks(), b.blocks()):
                np.testing.assert_array_equal(u, v)
        # A separate validation set is scored alone: the training rows are
        # not scored at all.
        calls.clear()
        _, t_apart = train_crbm(ds, ds.take(np.arange(ds.n_rows)), n_hidden,
                                cfg)
        assert len(calls) == len(t_apart.valid_nll)


class TestMemory:
    def test_minibatches_copy_no_training_rows(self, rng, monkeypatch):
        # Each minibatch reads its rows from the training set by index, so
        # no epoch holds a permuted copy of the features or one-hot rows.
        from choicerbm import trainer
        n = 20_000
        ds = from_arrays(rng.normal(0, 1, (n, 20)), rng.integers(0, 13, n),
                         n_alternatives=13)
        cfg = TrainConfig(batch_size=512, epochs=2, learning_rate=0.01, seed=1)
        traced = []
        grads = trainer._cd_grads
        monkeypatch.setattr(
            trainer, "_cd_grads",
            lambda *args: traced.append(tracemalloc.get_traced_memory()[0])
            or grads(*args))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            train_crbm(ds, ds, 2, cfg)
        finally:
            tracemalloc.stop()
        assert len(traced) == 2 * 40
        assert max(traced) - before < ds.x.nbytes / 2, max(traced) - before


class TestEarlyStopping:
    def test_snapshot_is_minimum_of_trace(self, rng):
        ds = from_arrays(rng.normal(0, 1, (240, 2)), rng.integers(0, 3, 240))
        va = from_arrays(rng.normal(0, 1, (80, 2)), rng.integers(0, 3, 80))
        cfg = TrainConfig(batch_size=32, epochs=40, learning_rate=0.05, seed=2,
                          early_stop_patience=6)
        params, trace = train_crbm(ds, va, 1, cfg)
        assert trace.valid_error[trace.best_epoch] == min(trace.valid_error)
        assert miss_rate(params, va) == pytest.approx(
            trace.valid_error[trace.best_epoch])

    @pytest.mark.parametrize("n_hidden", [0, 2])
    def test_kept_error_is_the_reported_error(self, n_hidden):
        # Early stopping scores each epoch with the rule that `stats`
        # reports, so the kept snapshot's error reproduces bit for bit.
        ds = oracle.generate(oracle.band_planted_model(n_rows=900, seed=3))
        tr, va = ds.take(np.arange(600)), ds.take(np.arange(600, 900))
        cfg = TrainConfig(batch_size=64, epochs=12, learning_rate=0.05,
                          cd_k=3, seed=5, weight_init_scale=1.0)
        params, trace = train_crbm(tr, va, n_hidden, cfg)
        assert trace.valid_error[trace.best_epoch] == miss_rate(params, va)

    def test_patience_bounds_extra_epochs(self, rng):
        ds = from_arrays(rng.normal(0, 1, (240, 2)), rng.integers(0, 3, 240))
        cfg = TrainConfig(batch_size=64, epochs=200, learning_rate=1e-4,
                          seed=2, early_stop_patience=5)
        _, trace = train_crbm(ds, ds, 1, cfg)
        assert len(trace.valid_error) <= trace.best_epoch + cfg.early_stop_patience + 2


class TestDivergence:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_raises_with_epoch_number(self):
        # absurdly scaled features with conflicting labels overflow the
        # parameters within a couple of updates
        x = np.array([[1e200], [1e200], [-1e200], [-1e200]])
        ds = ChoiceDataset(
            x=x, choices=np.array([0, 1, 0, 1]),
            feature_names=("a",), alternative_names=("alt1", "alt2"),
            norm_stats=NormStats(means=np.zeros(1), stds=np.ones(1),
                                 constant=np.zeros(1, dtype=bool)))
        cfg = TrainConfig(batch_size=4, epochs=5, learning_rate=1e3, seed=0)
        with pytest.raises(TrainingDivergedError, match="epoch"):
            train_crbm(ds, ds, 0, cfg)


class TestGradientCheck:
    def test_exact_gradient_matches_finite_differences(self, rng):
        # the independent enumeration gradient agrees with central
        # differences coordinate by coordinate
        for _ in range(6):
            n_alt = int(rng.integers(2, 4))
            n_hid = int(rng.integers(0, 3))
            n_feat = int(rng.integers(1, 3))
            p = random_params(rng, n_alt, n_hid, n_feat, scale=0.5)
            ds = from_arrays(rng.normal(0, 1, (5, n_feat)),
                             rng.integers(0, n_alt, 5), n_alternatives=n_alt)
            exact = enumeration.exact_loglik_gradient(p, ds)
            fd = enumeration.finite_difference_gradient(p, ds, step=1e-5)
            for (_, ga), (_, fa) in zip(exact.blocks(), fd.blocks()):
                if ga.size == 0:
                    continue
                denom = np.maximum.reduce(
                    [np.abs(ga), np.abs(fa), np.full_like(ga, 1e-3)])
                assert (np.abs(ga - fa) / denom).max() < 1e-5
