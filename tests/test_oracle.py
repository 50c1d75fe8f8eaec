import numpy as np
import pytest

from choicerbm import oracle
from choicerbm.dataset import from_arrays
from choicerbm.model import CrbmParams, choice_logits, normalize
import enumeration
from conftest import random_params


class TestExactChoiceDistribution:
    def test_uniform_for_zero_params(self):
        p = CrbmParams(
            choice_hidden_w=np.zeros((6, 3)),
            choice_context_w=np.zeros((6, 2)),
            hidden_context_w=np.zeros((3, 2)),
            choice_bias=np.zeros(6),
            hidden_bias=np.zeros(3))
        probs = enumeration.exact_choice_distribution(p, np.array([0.3, -1.2]))
        np.testing.assert_allclose(probs, 1.0 / 6.0, atol=1e-14)

    def test_mnl_reduction(self, rng):
        p = random_params(rng, 5, 0, 3)
        x = rng.normal(0, 1, 3)
        logits = p.choice_bias + p.choice_context_w @ x
        expected = np.exp(logits - logits.max())
        expected /= expected.sum()
        np.testing.assert_allclose(
            enumeration.exact_choice_distribution(p, x), expected, atol=1e-14)

    def test_agrees_with_free_energy_path(self, rng):
        # The package's closed form, hidden units summed out, against
        # enumeration of every hidden state: J from 0 to 4, with context.
        for _ in range(50):
            p = random_params(rng, int(rng.integers(2, 6)),
                              int(rng.integers(0, 5)), int(rng.integers(1, 4)),
                              scale=1.2)
            x = rng.normal(0, 1, (3, p.n_features))
            got = enumeration.exact_choice_distribution(p, x)
            want = np.exp(normalize(choice_logits(p, x))[0])
            np.testing.assert_allclose(got, want, atol=1e-10)
            np.testing.assert_allclose(got.sum(axis=1), 1.0, atol=1e-12)

    def test_hidden_cap_enforced(self, rng):
        p = random_params(rng, 2, 13, 1)
        with pytest.raises(ValueError, match="capped"):
            enumeration.exact_choice_distribution(p, np.zeros(1))


class TestExactGradient:
    def test_zero_choice_bias_gradient_at_share_optimum(self, rng):
        # feature-free model whose bias equals log empirical shares: the
        # bias score must vanish
        n = 400
        idx = rng.choice(3, size=n, p=[0.6, 0.3, 0.1])
        ds = from_arrays(np.zeros((n, 0)), idx, n_alternatives=3)
        shares = ds.y.mean(axis=0)
        p = CrbmParams(
            choice_hidden_w=np.zeros((3, 0)),
            choice_context_w=np.zeros((3, 0)),
            hidden_context_w=np.zeros((0, 0)),
            choice_bias=np.log(shares),
            hidden_bias=np.zeros(0))
        g = enumeration.exact_loglik_gradient(p, ds)
        np.testing.assert_allclose(g.choice_bias, 0.0, atol=1e-10)

    def test_matches_finite_differences(self, rng):
        for _ in range(8):
            n_alt = int(rng.integers(2, 4))
            n_hid = int(rng.integers(0, 3))
            n_feat = int(rng.integers(1, 3))
            p = random_params(rng, n_alt, n_hid, n_feat, scale=0.6)
            ds = from_arrays(rng.normal(0, 1, (6, n_feat)),
                             rng.integers(0, n_alt, 6), n_alternatives=n_alt)
            exact = enumeration.exact_loglik_gradient(p, ds)
            fd = enumeration.finite_difference_gradient(p, ds)
            for (_, ga), (_, fa) in zip(exact.blocks(), fd.blocks()):
                if ga.size == 0:
                    continue
                denom = np.maximum.reduce(
                    [np.abs(ga), np.abs(fa), np.full_like(ga, 1e-3)])
                assert (np.abs(ga - fa) / denom).max() < 1e-5

    def test_mnl_score_equations(self, rng):
        # without hidden units the gradient is the standard multinomial score
        p = random_params(rng, 4, 0, 2, scale=0.7)
        ds = from_arrays(rng.normal(0, 1, (30, 2)), rng.integers(0, 4, 30),
                         n_alternatives=4)
        g = enumeration.exact_loglik_gradient(p, ds)
        logits = ds.x @ p.choice_context_w.T + p.choice_bias
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        resid = ds.y - probs
        np.testing.assert_allclose(g.choice_bias, resid.sum(axis=0), atol=1e-10)
        np.testing.assert_allclose(g.choice_context_w, resid.T @ ds.x, atol=1e-10)


class TestGenerate:
    def test_saturated_weights_follow_argmax(self, rng):
        n_feat = 3
        p = CrbmParams(
            choice_hidden_w=np.zeros((3, 0)),
            choice_context_w=rng.normal(0, 1, (3, n_feat)) * 400.0,
            hidden_context_w=np.zeros((0, n_feat)),
            choice_bias=np.zeros(3),
            hidden_bias=np.zeros(0))
        pm = oracle.PlantedModel(
            params=p,
            context=tuple(oracle.ContextSpec("normal") for _ in range(n_feat)),
            n_rows=4000, seed=3)
        x_raw, idx = oracle.draw_rows(pm)
        expected = (x_raw @ p.choice_context_w.T).argmax(axis=1)
        assert np.mean(idx == expected) > 0.99

    def test_zero_params_uniform_shares(self):
        p = CrbmParams(
            choice_hidden_w=np.zeros((4, 1)),
            choice_context_w=np.zeros((4, 2)),
            hidden_context_w=np.zeros((1, 2)),
            choice_bias=np.zeros(4),
            hidden_bias=np.zeros(1))
        pm = oracle.PlantedModel(
            params=p, context=(oracle.ContextSpec("normal"),
                               oracle.ContextSpec("bernoulli", rate=0.3)),
            n_rows=100_000, seed=9)
        ds = oracle.generate(pm)
        shares = ds.y.mean(axis=0)
        sigma = np.sqrt(0.25 * 0.75 / pm.n_rows)
        assert np.all(np.abs(shares - 0.25) < 3 * sigma)

    def test_same_seed_identical_dataset(self, rng):
        p = random_params(rng, 3, 1, 2)
        pm = oracle.PlantedModel(
            params=p, context=(oracle.ContextSpec("normal"),
                               oracle.ContextSpec("normal", mean=2.0, std=0.5)),
            n_rows=500, seed=77)
        a, b = oracle.generate(pm), oracle.generate(pm)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_one_hot_rows(self, rng):
        p = random_params(rng, 5, 2, 2)
        pm = oracle.PlantedModel(
            params=p, context=(oracle.ContextSpec("normal"),) * 2,
            n_rows=200, seed=1)
        ds = oracle.generate(pm)
        assert np.all(ds.y.sum(axis=1) == 1.0)


class TestConditionalKl:
    def test_zero_for_identical_models(self, rng):
        p = random_params(rng, 4, 2, 3)
        xs = rng.normal(0, 1, (50, 3))
        assert enumeration.conditional_kl(p, p, xs) == pytest.approx(0.0, abs=1e-14)

    def test_positive_for_different_models(self, rng):
        p = random_params(rng, 4, 2, 3)
        q = random_params(rng, 4, 2, 3)
        xs = rng.normal(0, 1, (50, 3))
        assert enumeration.conditional_kl(p, q, xs) > 0


class TestPlantedIo:
    def test_round_trip(self, rng, tmp_path):
        p = random_params(rng, 3, 2, 2)
        pm = oracle.PlantedModel(
            params=p, context=(oracle.ContextSpec("normal", mean=1.0, std=2.0),
                               oracle.ContextSpec("bernoulli", rate=0.2)),
            n_rows=123, seed=5)
        path = tmp_path / "planted.json"
        oracle.save_planted(pm, path)
        loaded = oracle.load_planted(path)
        for (_, a), (_, b) in zip(pm.params.blocks(), loaded.params.blocks()):
            np.testing.assert_array_equal(a, b)
        assert loaded.context == pm.context
        assert (loaded.n_rows, loaded.seed) == (123, 5)

    def test_overrides(self, rng, tmp_path):
        p = random_params(rng, 3, 1, 1)
        pm = oracle.PlantedModel(params=p, context=(oracle.ContextSpec("normal"),),
                                 n_rows=10, seed=1)
        path = tmp_path / "planted.json"
        oracle.save_planted(pm, path)
        loaded = oracle.load_planted(path, n_rows=99, seed=42)
        assert (loaded.n_rows, loaded.seed) == (99, 42)

    def test_failed_overwrite_keeps_old_file(self, rng, tmp_path):
        p = random_params(rng, 3, 1, 1)
        path = tmp_path / "planted.json"
        oracle.save_planted(oracle.PlantedModel(
            params=p, context=(oracle.ContextSpec("normal"),), n_rows=10,
            seed=1), path)
        before = path.read_bytes()
        # A numpy integer is not JSON: the dump fails after its first chunks.
        numpy_rows = oracle.PlantedModel(
            params=p, context=(oracle.ContextSpec("normal"),),
            n_rows=np.int64(10), seed=1)
        with pytest.raises(TypeError, match="JSON"):
            oracle.save_planted(numpy_rows, path)
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["planted.json"]

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="planted"):
            oracle.load_planted(path)

    def test_csv_output_loads_back(self, rng, tmp_path):
        p = random_params(rng, 3, 1, 2)
        pm = oracle.PlantedModel(params=p, context=(oracle.ContextSpec("normal"),) * 2,
                                 n_rows=50, seed=2)
        path = tmp_path / "data.csv"
        oracle.write_dataset_csv(pm, path)
        from choicerbm.dataset import load_csv
        ds = load_csv(path, "choice")
        assert ds.n_rows == 50
        assert ds.n_features == 2
