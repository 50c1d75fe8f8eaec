import numpy as np
import pytest

from choicerbm.dataset import from_arrays
from choicerbm.inference import predict_batch, write_predictions_csv
from choicerbm.model import CrbmParams
from choicerbm.stats import confusion_matrix
import enumeration
from conftest import memory_case, random_params, traced_peak


def zero_params(n_alt, n_hid, n_feat):
    return CrbmParams(
        choice_hidden_w=np.zeros((n_alt, n_hid)),
        choice_context_w=np.zeros((n_alt, n_feat)),
        hidden_context_w=np.zeros((n_hid, n_feat)),
        choice_bias=np.zeros(n_alt),
        hidden_bias=np.zeros(n_hid))


def enumerated_hidden_mean(p, x):
    """E[h | x] for one context row, by summing p(y = i, h | x) h over
    every alternative i and every binary hidden vector h."""
    eye = np.eye(p.n_alternatives)
    total, weighted = 0.0, np.zeros(p.n_hidden)
    for m in range(2 ** p.n_hidden):
        h = np.array([(m >> j) & 1 for j in range(p.n_hidden)], dtype=float)
        for i in range(p.n_alternatives):
            weight = np.exp(-enumeration.energy(p, eye[i], h)
                            + p.choice_context_w[i] @ x
                            + h @ (p.hidden_context_w @ x))
            total += weight
            weighted += weight * h
    return weighted / total


def predict_row(p, x):
    """`predict_batch` on one row: (probs (I,), argmax, activations (J,))."""
    probs, h_act = predict_batch(p, np.asarray(x, dtype=np.float64)[None, :])
    return probs[0], int(probs[0].argmax()), h_act[0]


class TestPredict:
    def test_zero_params_uniform_with_tie_break(self):
        p = zero_params(13, 2, 3)
        probs, predicted, _ = predict_row(p, np.zeros(3))
        np.testing.assert_allclose(probs, 1 / 13, atol=1e-15)
        assert predicted == 0

    def test_mnl_reduction(self, rng):
        p = random_params(rng, 4, 0, 3, scale=0.8)
        x = rng.normal(0, 1, 3)
        logits = p.choice_bias + p.choice_context_w @ x
        expected = np.exp(logits - logits.max())
        expected /= expected.sum()
        probs, predicted, _ = predict_row(p, x)
        np.testing.assert_allclose(probs, expected, atol=1e-14)
        assert predicted == int(expected.argmax())

    def test_dominant_planted_row_predicted(self, rng):
        # ground-truth probability of one alternative above 0.99 forces the
        # prediction
        p = random_params(rng, 5, 2, 3, scale=0.3)
        strong = CrbmParams(
            choice_hidden_w=p.choice_hidden_w,
            choice_context_w=p.choice_context_w + np.array(
                [[60.0, 0, 0]] + [[0.0, 0, 0]] * 4),
            hidden_context_w=p.hidden_context_w,
            choice_bias=p.choice_bias,
            hidden_bias=p.hidden_bias)
        x = np.array([2.0, 0.1, -0.3])
        truth = enumeration.exact_choice_distribution(strong, x)
        assert truth[0] > 0.99
        assert predict_row(strong, x)[1] == 0

    def test_invariant_to_common_bias_shift(self, rng):
        p = random_params(rng, 4, 2, 2, scale=0.7)
        shifted = CrbmParams(
            choice_hidden_w=p.choice_hidden_w,
            choice_context_w=p.choice_context_w,
            hidden_context_w=p.hidden_context_w,
            choice_bias=p.choice_bias + 11.5,
            hidden_bias=p.hidden_bias)
        x = rng.normal(0, 1, 2)
        a, b = predict_row(p, x), predict_row(shifted, x)
        np.testing.assert_allclose(a[0], b[0], atol=1e-12)
        assert a[1] == b[1]

    def test_activation_strictly_inside_unit_interval(self, rng):
        p = random_params(rng, 3, 4, 2, scale=5.0)
        *_, h_act = predict_row(p, rng.normal(0, 1, 2))
        assert np.all(h_act > 0.0)
        assert np.all(h_act < 1.0)

    def test_activation_is_the_enumerated_posterior_mean(self, rng):
        for n_hidden in range(5):
            p = random_params(rng, 4, n_hidden, 3, scale=1.5)
            x = rng.normal(0, 1, (6, 3))
            _, h_act = predict_batch(p, x)
            assert h_act.shape == (6, n_hidden)
            for r in range(6):
                np.testing.assert_allclose(
                    h_act[r], enumerated_hidden_mean(p, x[r]), rtol=0,
                    atol=1e-12)

    def test_pure_function(self, rng):
        p = random_params(rng, 3, 2, 2)
        x = rng.normal(0, 1, 2)
        a, b = predict_row(p, x), predict_row(p, x)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[2], b[2])

    def test_dimension_mismatch(self, rng):
        p = random_params(rng, 3, 1, 2)
        with pytest.raises(ValueError):
            predict_row(p, np.zeros(3))


def predicted_confusion(p, ds):
    """Confusion counts of `predict_batch`'s argmax against `ds`'s choices."""
    probs, _ = predict_batch(p, ds.x)
    return confusion_matrix(ds.choices, probs.argmax(axis=1),
                            p.n_alternatives)


class TestPredictBatch:
    def test_perfect_predictor_diagonal_confusion(self):
        x = np.array([[4.0], [-4.0]] * 25)
        idx = np.array([0, 1] * 25)
        ds = from_arrays(x, idx, n_alternatives=2)
        p = CrbmParams(
            choice_hidden_w=np.zeros((2, 0)),
            choice_context_w=np.array([[80.0], [-80.0]]),
            hidden_context_w=np.zeros((0, 1)),
            choice_bias=np.zeros(2),
            hidden_bias=np.zeros(0))
        confusion = predicted_confusion(p, ds)
        assert confusion[0, 1] == 0 and confusion[1, 0] == 0
        assert confusion.sum() == ds.n_rows

    def test_confusion_totals_and_row_sums(self, rng):
        p = random_params(rng, 4, 1, 2, scale=0.5)
        ds = from_arrays(rng.normal(0, 1, (321, 2)), rng.integers(0, 4, 321))
        probs, h_act = predict_batch(p, ds.x)
        confusion = predicted_confusion(p, ds)
        assert confusion.sum() == 321
        np.testing.assert_array_equal(confusion.sum(axis=1), ds.y.sum(axis=0))
        assert probs.shape == (321, 4) and h_act.shape == (321, 1)

    def test_uniform_model_balanced_two_class(self, rng):
        n = 10_000
        idx = (rng.random(n) < 0.5).astype(int)
        ds = from_arrays(rng.normal(0, 1, (n, 2)), idx, n_alternatives=2)
        p = zero_params(2, 0, 2)
        confusion = predicted_confusion(p, ds)
        off_diag = confusion.sum() - np.trace(confusion)
        sigma = np.sqrt(n * 0.25)
        assert abs(off_diag - 0.5 * n) < 3 * sigma

    def test_rows_match_single_row_predict(self, rng):
        p = random_params(rng, 4, 2, 3, scale=0.8)
        ds = from_arrays(rng.normal(0, 1, (25, 3)), rng.integers(0, 4, 25),
                         n_alternatives=4)
        probs, h_act = predict_batch(p, ds.x)
        predicted = []
        for r in range(ds.n_rows):
            row_probs, row_predicted, row_h = predict_row(p, ds.x[r])
            np.testing.assert_allclose(probs[r], row_probs, rtol=0, atol=1e-15)
            np.testing.assert_allclose(h_act[r], row_h, rtol=0, atol=1e-15)
            predicted.append(row_predicted)
        np.testing.assert_array_equal(probs.argmax(axis=1), predicted)
        expected = np.zeros((4, 4), dtype=np.int64)
        np.add.at(expected, (ds.choices, predicted), 1)
        np.testing.assert_array_equal(predicted_confusion(p, ds), expected)

    def test_feature_mismatch_rejected(self, rng):
        p = random_params(rng, 3, 1, 4)
        ds = from_arrays(rng.normal(0, 1, (10, 2)), rng.integers(0, 3, 10))
        with pytest.raises(ValueError, match="features"):
            predict_batch(p, ds.x)

    def test_holds_one_block_of_temporaries(self, rng):
        # No (N, I, J) array: beyond its outputs the call holds one block.
        p, x, _ = memory_case(rng)
        (probs, h_act), peak = traced_peak(predict_batch, p, x)
        assert peak - probs.nbytes - h_act.nbytes < probs.nbytes / 2, peak


class TestPredictionsCsv:
    def test_column_layout(self, tmp_path, rng):
        p = random_params(rng, 3, 2, 2, scale=0.4)
        ds = from_arrays(rng.normal(0, 1, (5, 2)), rng.integers(0, 3, 5),
                         n_alternatives=3)
        probs, h_act = predict_batch(p, ds.x)
        path = tmp_path / "preds.csv"
        write_predictions_csv(path, probs, h_act, ds.alternative_names)
        lines = path.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header == ["row", "p_alt1", "p_alt2", "p_alt3", "predicted",
                          "h1", "h2"]
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "1"
        probs = np.array([float(v) for v in first[1:4]])
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert first[4] in {"1", "2", "3"}

    def test_values_round_trip_exactly(self, tmp_path, rng):
        p = random_params(rng, 3, 2, 2, scale=0.4)
        ds = from_arrays(rng.normal(0, 1, (7, 2)), rng.integers(0, 3, 7),
                         n_alternatives=3)
        probs, h_act = predict_batch(p, ds.x)
        path = tmp_path / "preds.csv"
        write_predictions_csv(path, probs, h_act, ds.alternative_names)
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in path.read_text().strip().split("\n")[1:]])
        np.testing.assert_array_equal(rows[:, 0], np.arange(1, 8))
        np.testing.assert_array_equal(rows[:, 1:4], probs)
        np.testing.assert_array_equal(rows[:, 4], probs.argmax(axis=1) + 1)
        np.testing.assert_array_equal(rows[:, 5:], h_act)
