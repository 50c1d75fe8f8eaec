import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from choicerbm.dataset import NormStats, from_arrays
from choicerbm.model import (BLOCK_NAMES, BLOCK_ROWS, CrbmParams,
                             ParamBlocks, block_shapes, canonical,
                             choice_logits, choice_probs, hidden_given_choice,
                             normalize, param_count, row_blocks,
                             sample_categorical, score_choices, sigmoid)
from choicerbm.inference import predict_batch
from choicerbm.stats import evaluate
from conftest import memory_case, random_params, tied_case, traced_peak
from enumeration import energy, exact_choice_distribution


def zero_params(n_alt, n_hid, n_feat):
    return CrbmParams(
        choice_hidden_w=np.zeros((n_alt, n_hid)),
        choice_context_w=np.zeros((n_alt, n_feat)),
        hidden_context_w=np.zeros((n_hid, n_feat)),
        choice_bias=np.zeros(n_alt),
        hidden_bias=np.zeros(n_hid))


class TestEnergy:
    def test_zero_params_zero_energy(self):
        p = zero_params(3, 2, 1)
        y = np.array([0.0, 1.0, 0.0])
        for h in ([0.0, 0.0], [1.0, 0.0], [1.0, 1.0]):
            assert energy(p, y, np.array(h)) == 0.0

    def test_direct_evaluation(self):
        p = CrbmParams(
            choice_hidden_w=np.array([[1.0], [0.0]]),
            choice_context_w=np.zeros((2, 0)),
            hidden_context_w=np.zeros((1, 0)),
            choice_bias=np.array([0.5, 0.0]),
            hidden_bias=np.array([0.25]))
        val = energy(p, np.array([1.0, 0.0]), np.array([1.0]))
        assert val == pytest.approx(-1.75, abs=1e-15)

    def test_matches_triple_sum(self, rng):
        for _ in range(20):
            n_alt, n_hid, n_feat = rng.integers(2, 6), rng.integers(1, 5), 2
            p = random_params(rng, n_alt, n_hid, n_feat)
            y = np.zeros(n_alt)
            y[rng.integers(n_alt)] = 1.0
            h = (rng.random(n_hid) < 0.5).astype(float)
            brute = 0.0
            for i in range(n_alt):
                brute -= y[i] * p.choice_bias[i]
            for j in range(n_hid):
                brute -= h[j] * p.hidden_bias[j]
            for i in range(n_alt):
                for j in range(n_hid):
                    brute -= h[j] * p.choice_hidden_w[i, j] * y[i]
            assert energy(p, y, h) == pytest.approx(brute, rel=1e-12)

    def test_dimension_mismatch(self):
        p = zero_params(3, 2, 1)
        with pytest.raises(ValueError):
            energy(p, np.array([1.0, 0.0]), np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            energy(p, np.array([1.0, 0.0, 0.0]), np.array([0.0]))


class TestFreeEnergy:
    """The exact logits are the negative conditional free energies of the
    alternatives, -F(y = i | x), with the hidden units summed out."""

    def test_softplus_at_zero(self):
        p = CrbmParams(
            choice_hidden_w=np.zeros((2, 1)),
            choice_context_w=np.zeros((2, 0)),
            hidden_context_w=np.zeros((1, 0)),
            choice_bias=np.array([1.0, 0.0]),
            hidden_bias=np.zeros(1))
        val = choice_logits(p, np.zeros(0))
        assert val[0] == pytest.approx(1.0 + np.log(2.0), abs=1e-15)
        assert val[1] == pytest.approx(np.log(2.0), abs=1e-15)

    def test_symmetric_when_all_zero(self):
        p = zero_params(13, 3, 2)
        assert np.ptp(choice_logits(p, np.zeros(2))) == 0.0

    def test_matches_hidden_enumeration(self, rng):
        # softmax of the logits equals the energy-based marginal, brute
        # force over every hidden configuration
        for _ in range(30):
            n_alt = int(rng.integers(2, 6))
            n_hid = int(rng.integers(0, 5))
            p = random_params(rng, n_alt, n_hid, 0, scale=1.5)
            eye = np.eye(n_alt)
            table = np.zeros((n_alt, 2 ** n_hid))
            for m in range(2 ** n_hid):
                h = np.array([(m >> j) & 1 for j in range(n_hid)], dtype=float)
                for i in range(n_alt):
                    table[i, m] = np.exp(-energy(p, eye[i], h))
            direct = table.sum(axis=1) / table.sum()
            np.testing.assert_allclose(
                direct, np.exp(normalize(choice_logits(p, np.zeros(0)))[0]),
                atol=1e-10)

    def test_large_drive_does_not_overflow(self):
        x = np.array([[1.0], [-1.0], [0.0]])
        for drive in (800.0, -800.0):
            p = CrbmParams(
                choice_hidden_w=np.array([[drive], [0.0]]),
                choice_context_w=np.zeros((2, 1)),
                hidden_context_w=np.full((1, 1), drive),
                choice_bias=np.zeros(2),
                hidden_bias=np.zeros(1))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                log_probs = normalize(choice_logits(p, x))[0]
                probs = choice_probs(p, x)
            assert np.all(np.isfinite(log_probs)) and np.all(log_probs <= 0.0)
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-15)


class TestSigmoid:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([-800.0, 800.0, 0.0, -0.0]),
                              st.floats(-800, 800)), min_size=1, max_size=20))
    def test_within_four_ulp_of_expit(self, values):
        # For x in about [-60, -30] each formula can be about 2 ulp from
        # the exact value, in opposite directions; elsewhere they differ by
        # at most 2 ulp, and on about 2% of inputs at all.
        x = np.array(values)
        got, want = sigmoid(x), expit(x)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(want))

    def test_saturates_without_warnings(self):
        x = np.array([-1e308, -800.0, -745.0, 0.0, 745.0, 800.0, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sigmoid(x)
        assert got[0] == got[1] == 0.0 and got[-1] == got[-2] == 1.0
        assert got[3] == 0.5


class TestChoiceProbs:
    def test_uniform_for_zero_params(self):
        p = zero_params(13, 2, 3)
        probs = choice_probs(p, np.zeros(3))
        np.testing.assert_allclose(probs, 1.0 / 13.0, atol=1e-15)

    def test_bias_shift_invariance(self, rng):
        p = random_params(rng, 5, 2, 3)
        shifted = CrbmParams(
            choice_hidden_w=p.choice_hidden_w,
            choice_context_w=p.choice_context_w,
            hidden_context_w=p.hidden_context_w,
            choice_bias=p.choice_bias + 7.3,
            hidden_bias=p.hidden_bias)
        x = rng.normal(0, 1, 3)
        np.testing.assert_allclose(
            choice_probs(p, x), choice_probs(shifted, x), atol=1e-12)

    def test_matches_high_precision_softmax(self, rng):
        import mpmath
        mpmath.mp.dps = 50
        for _ in range(10):
            p = random_params(rng, 4, 2, 3, scale=2.0)
            x = rng.normal(0, 1, 3)
            drive = [mpmath.mpf(v) for v in p.hidden_bias]
            for j in range(2):
                for k in range(3):
                    drive[j] += mpmath.mpf(p.hidden_context_w[j, k]) * x[k]
            exps = []
            for i in range(4):
                logit = mpmath.mpf(p.choice_bias[i]) + sum(
                    mpmath.mpf(p.choice_context_w[i, k]) * x[k]
                    for k in range(3))
                logit += sum(mpmath.log(1 + mpmath.e ** (
                    drive[j] + mpmath.mpf(p.choice_hidden_w[i, j])))
                    for j in range(2))
                exps.append(mpmath.e ** logit)
            total = sum(exps)
            expected = np.array([float(e / total) for e in exps])
            np.testing.assert_allclose(choice_probs(p, x), expected, atol=1e-14)
            np.testing.assert_allclose(
                np.exp(normalize(choice_logits(p, x))[0]), expected,
                atol=1e-14)

    def test_sums_to_one_many_draws(self, rng):
        for _ in range(1000):
            p = random_params(rng, int(rng.integers(2, 8)), 2, 2, scale=3.0)
            probs = choice_probs(p, rng.normal(0, 1, 2))
            assert abs(probs.sum() - 1.0) < 1e-12
            assert np.all(probs > 0)

    def test_mnl_reduction_without_hidden(self, rng):
        p = random_params(rng, 4, 0, 3)
        x = rng.normal(0, 1, 3)
        logits = p.choice_bias + p.choice_context_w @ x
        expected = np.exp(logits - logits.max())
        expected /= expected.sum()
        np.testing.assert_allclose(choice_probs(p, x), expected, atol=1e-14)


class TestForwardPass:
    def test_hidden_given_choice_adds_the_choice_weights(self, rng):
        p = random_params(rng, 4, 3, 2)
        x = rng.normal(0, 1, (7, 2))
        got = hidden_given_choice(p, x)
        assert got.shape == (7, 4, 3)
        for i in range(4):
            np.testing.assert_array_equal(got[:, i], sigmoid(
                (x @ p.hidden_context_w.T + p.hidden_bias) + p.choice_hidden_w[i]))

    def test_choice_logits_add_the_three_drives(self, rng):
        p = random_params(rng, 4, 3, 2)
        x = rng.normal(0, 1, (5, 2))
        hidden = p.hidden_bias + x @ p.hidden_context_w.T
        softplus = np.logaddexp(0.0, hidden[:, None, :] + p.choice_hidden_w)
        np.testing.assert_allclose(
            choice_logits(p, x),
            p.choice_bias + x @ p.choice_context_w.T + softplus.sum(axis=2),
            atol=1e-14)
        np.testing.assert_array_equal(choice_logits(p, x[0]),
                                      choice_logits(p, x[:1])[0])
        with pytest.raises(ValueError, match="context vector length"):
            choice_logits(p, np.zeros(3))

    def test_log_softmax_is_log_of_softmax(self, rng):
        logits = rng.normal(0, 30, (50, 6))
        log_probs, probs = normalize(logits)
        np.testing.assert_allclose(np.exp(log_probs), probs, atol=1e-15)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)

    def test_log_softmax_finite_where_softmax_underflows(self):
        log_probs, probs = normalize(np.array([[0.0, -2000.0]]))
        assert probs[0, 1] == 0.0
        assert log_probs[0, 1] == -2000.0

    @pytest.mark.parametrize("shape", [(1024, 13), (64, 13), (12, 64, 13)])
    def test_normalize_keeps_the_bits_of_the_two_formulas(self, rng, shape):
        # The references: log-softmax and softmax, each with its own max
        # subtraction and `exp`.
        logits = rng.normal(0, 3, shape)
        shifted = logits - logits.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        softmax = e / e.sum(axis=-1, keepdims=True)
        log_softmax = shifted - np.log(
            np.exp(shifted).sum(axis=-1, keepdims=True))
        log_probs, probs = normalize(logits)
        assert np.array_equal(log_probs, log_softmax)
        assert np.array_equal(probs, softmax)


class TestSampling:
    def test_choice_frequencies_within_three_sigma(self, rng):
        p = random_params(rng, 4, 2, 2, scale=0.8)
        probs = choice_probs(p, rng.normal(0, 1, 2))
        n = 100_000
        idx = sample_categorical(np.tile(probs, (n, 1)), rng)
        assert idx.shape == (n,) and idx.min() >= 0 and idx.max() < 4
        freq = np.bincount(idx, minlength=4) / n
        sigma = np.sqrt(probs * (1 - probs) / n)
        assert np.all(np.abs(freq - probs) < 3 * sigma + 1e-12)

    def test_same_seed_same_stream(self, rng):
        # One uniform draw per row, inverted through the cumulative sum: the
        # draws and the generator state after them are fixed by the seed.
        probs = normalize(rng.normal(0, 1, (200, 5)))[1]
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        idx = sample_categorical(probs, a)
        u = b.random(200)
        np.testing.assert_array_equal(
            idx, [np.searchsorted(np.cumsum(row), v, side="right")
                  for row, v in zip(probs, u)])
        assert a.random() == b.random()

    def test_draw_above_a_sum_rounded_below_one_picks_the_last(self):
        # Ten shares of 0.1 sum to 0.9999999999999999, and `random` can
        # return a draw at or above that sum.
        class TopDraw:
            def random(self, n):
                return np.full(n, np.nextafter(1.0, 0.0))

        probs = np.full((1, 10), 0.1)
        assert probs.cumsum()[-1] == np.nextafter(1.0, 0.0)
        assert sample_categorical(probs, TopDraw()).tolist() == [9]

    def test_draws_below_the_sum_keep_their_index(self, rng):
        probs = normalize(rng.normal(0, 3, (3, 64, 13)))[1]
        u = np.random.default_rng(4).random(64)
        idx = sample_categorical(probs, np.random.default_rng(4))
        cumulative = probs.cumsum(axis=-1)
        below = cumulative[..., -1] > u
        np.testing.assert_array_equal(
            idx[below], (cumulative > u[:, None]).argmax(axis=-1)[below])
        assert (idx[~below] == 12).all()


class TestRowBlocks:
    @pytest.mark.parametrize("n", [0, 1, 2, BLOCK_ROWS, BLOCK_ROWS + 1,
                                   BLOCK_ROWS + 2, 2 * BLOCK_ROWS + 1, 2600])
    def test_blocks_cover_the_rows_in_order(self, n):
        # No block holds a single row unless all the rows are one.
        blocks = row_blocks(n)
        assert [s.start for s in blocks[1:]] == [s.stop for s in blocks[:-1]]
        sizes = [s.stop - s.start for s in blocks]
        assert sum(sizes) == n and all(1 < s <= BLOCK_ROWS + 1 or n == 1
                                       for s in sizes)

    @pytest.mark.parametrize("n_hidden", [0, 2])
    @pytest.mark.parametrize("shape", [(1025, 6), (2600, 6), (3, 1100, 6)])
    def test_blocked_passes_equal_one_pass(self, rng, n_hidden, shape):
        # The reference normalizes one `choice_logits` call over all rows,
        # takes E[h | x] from one `hidden_given_choice` call and scores the
        # choices by one gather and argmax; a stack is scored with batched
        # parameters, one set per fit.
        p = random_params(rng, 5, n_hidden, 6)
        if len(shape) == 3:
            flat = rng.normal(0, 1, (shape[0], param_count(5, n_hidden, 6)))
            p = ParamBlocks.from_flat(flat, 5, n_hidden, 6, batched=True)
        x, choices = rng.normal(0, 1, shape), rng.integers(0, 5, shape[:-1])
        log_probs, probs = normalize(choice_logits(p, x))
        observed, predicted = score_choices(p, x, choices)
        assert np.array_equal(observed, np.take_along_axis(
            log_probs, choices[..., None], axis=-1)[..., 0])
        assert np.array_equal(predicted, probs.argmax(axis=-1))
        assert np.array_equal(choice_probs(p, x), probs)
        h_act = (probs[..., None] * hidden_given_choice(p, x)).sum(axis=-2)
        for got, expected in zip(predict_batch(p, x), (probs, h_act)):
            assert np.array_equal(got, expected)

    def test_width_is_checked_for_any_row_count(self, rng):
        p = random_params(rng, 3, 1, 4)
        for rows in (0, 1, 3 * BLOCK_ROWS):
            with pytest.raises(ValueError, match="context vector length"):
                choice_probs(p, np.zeros((rows, 5)))
        assert choice_probs(p, np.zeros((0, 4))).shape == (0, 3)
        np.testing.assert_array_equal(choice_probs(p, np.zeros(4)),
                                      choice_probs(p, np.zeros((1, 4)))[0])

    def test_choice_probs_holds_one_block_of_temporaries(self, rng):
        p, x, _ = memory_case(rng)
        probs, peak = traced_peak(choice_probs, p, x)
        assert peak - probs.nbytes < probs.nbytes / 2, peak

    def test_rows_with_an_overflowing_logit_score_nan(self):
        # Alternative 3's logit overflows to -inf where x = 1 and is 0
        # where x = -1; the observed choices never pick it.
        weights = np.array([0.0, 0.0, -1.5e308])
        p = CrbmParams(np.zeros((3, 0)), weights[:, None], np.zeros((0, 1)),
                       weights, np.zeros(0))
        x = np.tile([1.0, -1.0], 1300)[:, None]
        choices = np.arange(2600) % 2
        with np.errstate(over="ignore"):
            observed, predicted = score_choices(p, x, choices)
        assert np.isnan(observed[::2]).all()
        assert np.array_equal(observed[1::2], np.full(1300, -np.log(3.0)))
        assert np.array_equal(predicted, np.zeros(2600))

    def test_score_choices_holds_one_block_of_log_probabilities(self, rng):
        p, x, choices = memory_case(rng)
        (observed, predicted), peak = traced_peak(score_choices, p, x, choices)
        assert peak < choices.size * p.n_alternatives * 8 / 2, peak
        rows = np.arange(len(x))
        assert np.array_equal(
            observed, normalize(choice_logits(p, x))[0][rows, choices])
        assert np.array_equal(predicted, choice_probs(p, x).argmax(axis=1))

    def test_every_prediction_is_the_argmax_of_the_printed_probabilities(self):
        # Where the top two probabilities tie in float64 but the
        # log-probabilities do not, the scorer, and with it the validation
        # error and the confusion matrix, still predict as `predict` prints.
        p, x, choices = tied_case()
        probs = predict_batch(p, x)[0]
        assert np.array_equal(score_choices(p, x, choices)[1],
                              choice_probs(p, x).argmax(axis=-1))
        ds = from_arrays(x, choices, 3, norm_stats=NormStats(
            np.zeros(1), np.ones(1), np.zeros(1, dtype=bool)))
        assert np.array_equal(ds.x, x)
        rep = evaluate(p, ds, ds)
        misses = probs.argmax(axis=-1) != choices
        assert np.trace(rep.confusion) == len(x) - misses.sum()
        assert rep.validation_error == np.mean(misses)


class TestParamCount:
    @pytest.mark.parametrize("i,j,k,expected", [
        (13, 4, 20, 409),
        (13, 0, 20, 273),
        (13, 16, 20, 817),
        (13, 2, 20, 341),
        (13, 8, 20, 545),
    ])
    def test_reference_counts(self, i, j, k, expected):
        assert param_count(i, j, k) == expected

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            param_count(1, 0, 0)
        with pytest.raises(ValueError):
            param_count(2, -1, 0)


class TestParamValidation:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            CrbmParams(
                choice_hidden_w=np.array([[np.nan], [0.0]]),
                choice_context_w=np.zeros((2, 0)),
                hidden_context_w=np.zeros((1, 0)),
                choice_bias=np.zeros(2),
                hidden_bias=np.zeros(1))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            CrbmParams(
                choice_hidden_w=np.zeros((2, 2)),
                choice_context_w=np.zeros((2, 1)),
                hidden_context_w=np.zeros((1, 1)),
                choice_bias=np.zeros(2),
                hidden_bias=np.zeros(1))

    @pytest.mark.parametrize("name,bad", [
        ("choice_bias", np.zeros((3, 4))),
        ("hidden_bias", np.zeros((1, 1))),
        ("choice_bias", np.zeros(())),
    ])
    def test_rejects_bias_of_wrong_shape(self, rng, name, bad):
        blocks = dict(random_params(rng, 3, 1, 2).blocks())
        blocks[name] = bad
        with pytest.raises(ValueError):
            CrbmParams(**blocks)

    def test_arrays_are_immutable(self, rng):
        p = random_params(rng, 3, 1, 1)
        with pytest.raises(ValueError):
            p.choice_bias[0] = 1.0


class TestLayout:
    def test_block_shapes_follow_block_names(self, rng):
        p = random_params(rng, 4, 3, 2)
        assert [name for name, _ in p.blocks()] == list(BLOCK_NAMES)
        assert [arr.shape for _, arr in p.blocks()] == list(block_shapes(4, 3, 2))
        assert sum(arr.size for _, arr in p.blocks()) == param_count(4, 3, 2)

    @pytest.mark.parametrize("dims", [(4, 3, 2), (3, 0, 5), (2, 1, 0)])
    def test_from_flat_views_the_vector_in_order(self, dims):
        flat = np.arange(param_count(*dims), dtype=np.float64)
        blocks = ParamBlocks.from_flat(flat, *dims)
        assert (blocks.n_alternatives, blocks.n_hidden, blocks.n_features) == dims
        np.testing.assert_array_equal(
            np.concatenate([arr.ravel() for _, arr in blocks.blocks()]), flat)
        flat[:] = -1.0
        assert all(np.all(arr == -1.0) for _, arr in blocks.blocks())
        params = CrbmParams.from_flat(np.zeros(param_count(*dims)), *dims)
        assert params.n_hidden == dims[1]


class TestCanonical:
    @pytest.mark.parametrize("n_hidden", [0, 1, 2, 4])
    def test_keeps_the_enumerated_choice_probabilities(self, rng, n_hidden):
        p = random_params(rng, 5, n_hidden, 3, scale=1.5)
        x = rng.normal(0, 1, (40, 3))
        c = canonical(p)
        for block in (c.choice_bias, c.choice_context_w, c.choice_hidden_w):
            np.testing.assert_array_equal(block[0], 0.0)
        log_probs = normalize(choice_logits(p, x))[0]
        np.testing.assert_allclose(np.log(exact_choice_distribution(c, x)),
                                   log_probs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(normalize(choice_logits(c, x))[0],
                                   log_probs, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_hidden", [0, 3])
    def test_is_idempotent(self, rng, n_hidden):
        c = canonical(random_params(rng, 4, n_hidden, 2, scale=2.0))
        for (_, once), (_, twice) in zip(c.blocks(), canonical(c).blocks()):
            np.testing.assert_array_equal(once, twice)

    def test_overflowing_shift_raises(self, rng):
        p = random_params(rng, 3, 2, 2)
        b = p.choice_context_w.copy()
        b[0, 0], b[1, 0] = 1e308, -1e308
        with pytest.raises(ValueError, match="^reference-gauge shift overflows"):
            canonical(CrbmParams(p.choice_hidden_w, b, p.hidden_context_w,
                                 p.choice_bias, p.hidden_bias))
