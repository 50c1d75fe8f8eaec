import csv
import io
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import expit

from choicerbm import oracle
from choicerbm.dataset import (NormStats, SplitSpec, from_arrays,
                               refit_normalization, split)
from choicerbm.model import (BLOCK_ROWS, CrbmParams, ParamBlocks, canonical,
                             choice_logits, choice_probs, normalize,
                             param_count, row_blocks, score_choices)
from choicerbm.stats import (TABLE_COLUMNS, _prediction_scores, bic,
                             evaluate, free_param_count, log_likelihood,
                             pinv_standard_errors, report_table_rows,
                             rho_squared, t_statistics)
from choicerbm.trainer import TrainConfig, train_crbm
import enumeration
from conftest import memory_case, miss_rate, random_params, traced_peak

FULL_TRAIN_ROWS = 177_662


def zero_params(n_alt, n_hid, n_feat):
    return CrbmParams(
        choice_hidden_w=np.zeros((n_alt, n_hid)),
        choice_context_w=np.zeros((n_alt, n_feat)),
        hidden_context_w=np.zeros((n_hid, n_feat)),
        choice_bias=np.zeros(n_alt),
        hidden_bias=np.zeros(n_hid))


class TestLogLikelihood:
    def test_uniform_model_closed_form(self, rng):
        ds = from_arrays(rng.normal(0, 1, (37, 2)), rng.integers(0, 5, 37))
        p = zero_params(5, 0, 2)
        assert log_likelihood(p, ds) == pytest.approx(37 * np.log(1 / 5),
                                                      abs=1e-10)

    def test_certain_prediction_gives_zero(self):
        ds = from_arrays(np.zeros((1, 1)), np.array([0]), n_alternatives=2)
        p = CrbmParams(
            choice_hidden_w=np.zeros((2, 0)),
            choice_context_w=np.zeros((2, 1)),
            hidden_context_w=np.zeros((0, 1)),
            choice_bias=np.array([2000.0, 0.0]),
            hidden_bias=np.zeros(0))
        assert log_likelihood(p, ds) == pytest.approx(0.0, abs=1e-12)

    def test_matches_enumeration_without_hidden(self, rng):
        p = random_params(rng, 4, 0, 3, scale=0.8)
        ds = from_arrays(rng.normal(0, 1, (25, 3)), rng.integers(0, 4, 25))
        assert log_likelihood(p, ds) == pytest.approx(
            enumeration.exact_conditional_loglik(p, ds), abs=1e-10)

    def test_matches_enumeration_with_inactive_hidden(self, rng):
        p = random_params(rng, 3, 2, 2, scale=0.8)
        p = CrbmParams(
            choice_hidden_w=np.zeros((3, 2)),
            choice_context_w=p.choice_context_w,
            hidden_context_w=p.hidden_context_w,
            choice_bias=p.choice_bias,
            hidden_bias=p.hidden_bias)
        ds = from_arrays(rng.normal(0, 1, (25, 2)), rng.integers(0, 3, 25))
        assert log_likelihood(p, ds) == pytest.approx(
            enumeration.exact_conditional_loglik(p, ds), abs=1e-10)

    def test_matches_enumeration_with_active_hidden(self, rng):
        for n_hidden in (1, 2, 4):
            p = random_params(rng, 4, n_hidden, 3, scale=1.5)
            ds = from_arrays(rng.normal(0, 1, (40, 3)), rng.integers(0, 4, 40),
                             n_alternatives=4)
            assert log_likelihood(p, ds) == pytest.approx(
                enumeration.exact_conditional_loglik(p, ds), abs=1e-10)

    def test_never_minus_infinity(self, rng):
        p = CrbmParams(
            choice_hidden_w=np.zeros((2, 0)),
            choice_context_w=np.array([[500.0], [-500.0]]),
            hidden_context_w=np.zeros((0, 1)),
            choice_bias=np.zeros(2),
            hidden_bias=np.zeros(0))
        ds = from_arrays(np.array([[5.0], [-5.0]]), np.array([1, 0]),
                         n_alternatives=2)
        val = log_likelihood(p, ds)
        assert np.isfinite(val)

    def test_overflowing_sum_raises(self):
        # each row's log-probability is finite, their sum is not
        p = CrbmParams(
            choice_hidden_w=np.zeros((2, 0)),
            choice_context_w=np.array([[1e307], [-1e307]]),
            hidden_context_w=np.zeros((0, 1)),
            choice_bias=np.zeros(2),
            hidden_bias=np.zeros(0))
        x = np.tile([1.0, -1.0], 20)[:, None]
        ds = from_arrays(x, (x[:, 0] > 0).astype(np.int64), n_alternatives=2)
        assert np.isfinite(normalize(choice_logits(p, ds.x))[0]).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                log_likelihood(p, ds)

    def test_overflowing_logits_raise(self):
        x = np.tile([1.0, -1.0], 20)[:, None]
        # First the chosen alternative's logit overflows to +inf where
        # x = 1.  Then alternative 3 of 3, never chosen, overflows to -inf
        # where x = 1, while every observed log-probability stays finite.
        cases = [((1.5e308, 0.0), np.zeros(40, dtype=np.int64)),
                 ((0.0, 0.0, -1.5e308), np.arange(40) % 2)]
        for weights, choices in cases:
            p = CrbmParams(
                choice_hidden_w=np.zeros((len(weights), 0)),
                choice_context_w=np.array(weights)[:, None],
                hidden_context_w=np.zeros((0, 1)),
                choice_bias=np.array(weights),
                hidden_bias=np.zeros(0))
            ds = from_arrays(x, choices, n_alternatives=len(weights))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for score in (log_likelihood, t_statistics):
                    with pytest.raises(ValueError, match="overflows"):
                        score(p, ds)
                with pytest.raises(ValueError, match="overflows"):
                    evaluate(p, ds, ds)


class TestRhoSquared:
    def test_null_model_gives_zero(self):
        n, i = 1000, 7
        assert rho_squared(n * np.log(1 / i), n, i) == pytest.approx(0.0)

    def test_reference_values(self):
        assert rho_squared(-206_808, FULL_TRAIN_ROWS, 13) == pytest.approx(
            0.546, abs=1e-3)
        assert rho_squared(-200_846, FULL_TRAIN_ROWS, 13) == pytest.approx(
            0.559, abs=1e-3)
        assert rho_squared(-203_558, FULL_TRAIN_ROWS, 13) == pytest.approx(
            0.553, abs=1e-3)

    def test_increasing_in_loglik(self):
        lls = np.linspace(-5000, -100, 17)
        vals = [rho_squared(ll, 500, 4) for ll in lls]
        assert np.all(np.diff(vals) > 0)


class TestBic:
    def test_reference_values(self):
        assert bic(-206_808, 273, FULL_TRAIN_ROWS) == pytest.approx(416_915, abs=2)
        assert bic(-203_558, 341, FULL_TRAIN_ROWS) == pytest.approx(411_237, abs=2)

    def test_zero_case(self):
        assert bic(0.0, 0, 10) == 0.0

    def test_linear_in_params_decreasing_in_loglik(self):
        base = bic(-1000, 10, 100)
        assert bic(-1000, 11, 100) == pytest.approx(base + np.log(100))
        assert bic(-999, 10, 100) < base

    def test_overflowing_value_raises(self):
        with pytest.raises(ValueError, match="^BIC overflows"):
            bic(-1.7e308, 35, 210)


class TestValidationError:
    def test_perfect_predictor(self, rng):
        x = np.array([[3.0], [-3.0]] * 10)
        idx = np.array([0, 1] * 10)
        ds = from_arrays(x, idx, n_alternatives=2)
        p = CrbmParams(
            choice_hidden_w=np.zeros((2, 0)),
            choice_context_w=np.array([[50.0], [-50.0]]),
            hidden_context_w=np.zeros((0, 1)),
            choice_bias=np.zeros(2),
            hidden_bias=np.zeros(0))
        assert miss_rate(p, ds) == 0.0
        assert np.exp(score_choices(p, ds.x, ds.choices)[0]).mean() == (
            pytest.approx(1.0, abs=1e-10))

    def test_uniform_model_with_tie_break(self, rng):
        n = 20_000
        idx = rng.integers(0, 13, n)
        ds = from_arrays(rng.normal(0, 1, (n, 2)), idx, n_alternatives=13)
        p = zero_params(13, 0, 2)
        err = miss_rate(p, ds)
        # argmax of uniform probabilities always picks alternative 1
        expected = 1.0 - np.mean(idx == 0)
        assert err == pytest.approx(expected, abs=1e-12)
        sigma = np.sqrt((1 / 13) * (12 / 13) / n)
        assert abs(err - 12 / 13) < 3 * sigma

    def test_error_plus_accuracy_is_one(self, rng):
        p = random_params(rng, 4, 1, 2, scale=0.5)
        ds = from_arrays(rng.normal(0, 1, (200, 2)), rng.integers(0, 4, 200))
        accuracy = np.trace(evaluate(p, ds, ds).confusion) / ds.n_rows
        assert miss_rate(p, ds) + accuracy == pytest.approx(1.0, abs=0)

    def test_empty_dataset_rejected(self, rng):
        # empty datasets cannot even be constructed, so scoring one is
        # impossible by construction
        ds = from_arrays(rng.normal(0, 1, (4, 1)), rng.integers(0, 3, 4))
        with pytest.raises(ValueError, match="no rows"):
            ds.take(np.array([], dtype=int))


class TestStandardErrors:
    @pytest.mark.parametrize("n_hidden", [0, 1, 3])
    def test_scores_sum_to_the_exact_gradient(self, rng, n_hidden):
        p = random_params(rng, 4, n_hidden, 3, scale=1.2)
        ds = from_arrays(rng.normal(0, 1, (30, 3)), rng.integers(0, 4, 30),
                         n_alternatives=4)
        scores = _prediction_scores(p, ds.x, ds.choices)
        free = ~reference_entries(p)
        assert scores.shape == (30, free.sum()) == (
            30, free_param_count(4, n_hidden, 3))
        exact = enumeration.exact_loglik_gradient(p, ds)
        np.testing.assert_allclose(
            scores.sum(axis=0),
            np.concatenate([g.ravel() for _, g in exact.blocks()])[free],
            rtol=0, atol=1e-12)

    def test_residual_is_the_choice_minus_the_printed_probabilities(self):
        # The score's residual y - p reads the probabilities that
        # `choice_probs` returns, bit for bit; the c block is that residual
        # over the free alternatives.
        rng = np.random.default_rng(0)
        p = random_params(rng, 13, 2, 20, scale=0.5)
        x, choices = rng.normal(0, 1, (3000, 20)), rng.integers(0, 13, 3000)
        scores = _prediction_scores(p, x, choices)
        resid = np.eye(13)[choices] - choice_probs(p, x)
        got = ParamBlocks.from_flat(scores, 12, 2, 20).choice_bias
        assert np.array_equal(got, resid[:, np.arange(13) != 0])

    def test_opg_matches_analytic_fisher_one_param_logistic(self, rng):
        n, beta = 20_000, 0.7
        x = rng.normal(0, 1, n)
        prob = expit(beta * x)
        y = (rng.random(n) < prob).astype(float)
        scores = ((y - prob) * x)[:, None]
        se = pinv_standard_errors(scores.T @ scores)[0]
        fisher_se = 1.0 / np.sqrt((x ** 2 * prob * (1 - prob)).sum())
        assert se == pytest.approx(fisher_se, rel=0.05)

    def test_zero_parameter_gives_zero_t(self, rng):
        ds = from_arrays(rng.normal(0, 1, (300, 2)), rng.integers(0, 3, 300))
        p = zero_params(3, 0, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # identified: no warning
            _, tstats = t_statistics(p, ds)
        assert np.all(tstats.choice_context_w == 0.0)
        assert np.all(tstats.choice_bias == 0.0)

    def test_zero_standard_error_gives_zero_t(self, rng):
        # A constant feature carries no information: some of its nonzero
        # coefficients get se = 0, and their t values must be 0, not +-inf.
        x = rng.normal(0, 1, (300, 2))
        x[:, 1] = 5.0
        with pytest.warns(UserWarning, match="constant"):
            ds = from_arrays(x, rng.integers(0, 3, 300),
                             norm_stats=NormStats.fit(x))
        p = random_params(rng, 3, 1, 2, scale=0.5)
        with pytest.warns(UserWarning, match="singular"):
            std_errs, tstats = t_statistics(p, ds)
        assert np.any(std_errs.choice_context_w[:, 1] == 0.0)
        for (_, se), (_, t), (_, theta) in zip(std_errs.blocks(),
                                               tstats.blocks(),
                                               canonical(p).blocks()):
            assert np.all(np.isfinite(t))
            np.testing.assert_array_equal(t[se == 0.0], 0.0)
            np.testing.assert_array_equal(t[se != 0.0], (theta / np.where(
                se == 0.0, 1.0, se))[se != 0.0])

    @pytest.mark.parametrize("n_hidden", [0, 1, 2])
    def test_constant_column_has_zero_se_and_t(self, rng, n_hidden):
        # Every coefficient of a constant column has a zero score column, so
        # no information: se = 0 exactly, not a rounding residue.
        x = rng.normal(0, 1, (300, 2))
        x[:, 1] = 5.0
        with pytest.warns(UserWarning, match="constant"):
            ds = from_arrays(x, rng.integers(0, 3, 300),
                             norm_stats=NormStats.fit(x))
        p = random_params(rng, 3, n_hidden, 2, scale=0.5)
        with pytest.warns(UserWarning, match="singular"):
            std_errs, tstats = t_statistics(p, ds)
        for block in ("choice_context_w", "hidden_context_w"):
            np.testing.assert_array_equal(getattr(std_errs, block)[:, 1], 0.0)
            np.testing.assert_array_equal(getattr(tstats, block)[:, 1], 0.0)
        # The reference alternative's row of B is fixed; every other entry
        # of the informative column has information.
        assert np.all(std_errs.choice_context_w[1:, 0] > 0.0)
        assert np.all(std_errs.hidden_context_w[:, 0] > 0.0)

    def test_t_sign_follows_parameter_sign(self, rng):
        p = random_params(rng, 3, 1, 2, scale=0.6)
        ds = from_arrays(rng.normal(0, 1, (500, 2)), rng.integers(0, 3, 500))
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # identified: no warning
            std_errs, tstats = t_statistics(p, ds)
        for (_, se), (_, t), (_, theta) in zip(std_errs.blocks(),
                                               tstats.blocks(),
                                               canonical(p).blocks()):
            mask = (se > 0) & (theta != 0)
            assert np.all(np.sign(t[mask]) == np.sign(theta[mask]))

    def test_warns_when_underdetermined(self, rng):
        p = random_params(rng, 3, 2, 4, scale=0.3)
        ds = from_arrays(rng.normal(0, 1, (10, 4)), rng.integers(0, 3, 10))
        with pytest.warns(UserWarning, match="fewer rows"):
            t_statistics(p, ds)

    def test_more_rows_than_free_parameters_do_not_warn(self, rng):
        # I = 3, J = 2, K = 4 has 31 parameters, 24 of them free; 28 rows
        # give their information matrix full rank.
        p = random_params(rng, 3, 2, 4, scale=0.3)
        ds = from_arrays(rng.normal(0, 1, (28, 4)), rng.integers(0, 3, 28))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t_statistics(p, ds)


class TestEvaluate:
    def test_report_fields_consistent(self, rng):
        tr = from_arrays(rng.normal(0, 1, (400, 3)), rng.integers(0, 4, 400))
        va = from_arrays(rng.normal(0, 1, (150, 3)), rng.integers(0, 4, 150))
        p = random_params(rng, 4, 2, 3, scale=0.4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # identified: no warning
            rep = evaluate(p, tr, va)
        assert rep.rho2 <= 1.0
        assert np.isfinite(rep.bic)
        assert 0.0 <= rep.validation_error <= 1.0
        assert rep.confusion.sum() == va.n_rows
        np.testing.assert_array_equal(rep.confusion.sum(axis=1),
                                      va.y.sum(axis=0))
        # The free parameters: D, B and c of three alternatives, A and d.
        assert rep.n_params == 3 * 2 + 3 * 3 + 2 * 3 + 3 + 2

    @pytest.mark.parametrize("same_split", [False, True])
    def test_one_forward_pass_per_split(self, rng, monkeypatch, same_split):
        from choicerbm import stats
        tr = from_arrays(rng.normal(0, 1, (300, 3)), rng.integers(0, 4, 300))
        va = tr if same_split else from_arrays(rng.normal(0, 1, (120, 3)),
                                               rng.integers(0, 4, 120))
        p = random_params(rng, 4, 2, 3, scale=0.4)
        calls = []
        scorer = stats.score_choices
        monkeypatch.setattr(stats, "score_choices",
                            lambda *args: calls.append(1) or scorer(*args))
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # identified: no warning
            rep = evaluate(p, tr, va)
        assert len(calls) == (1 if same_split else 2)
        # The derived figures equal the ones computed one by one.
        monkeypatch.undo()
        assert rep.loglik_train == log_likelihood(p, tr)
        assert rep.loglik_valid == log_likelihood(p, va)
        assert rep.validation_error == miss_rate(p, va)
        assert rep.mean_true_prob == float(
            np.exp(score_choices(p, va.x, va.choices)[0]).mean())
        assert np.trace(rep.confusion) == round(
            (1 - rep.validation_error) * va.n_rows)
        std_errs, tstats = t_statistics(p, tr)
        for (_, a), (_, b) in zip(rep.tstats.blocks(), tstats.blocks()):
            np.testing.assert_array_equal(a, b)

    def test_feature_mismatch_rejected(self, rng):
        p = random_params(rng, 3, 1, 4)
        ds = from_arrays(rng.normal(0, 1, (10, 2)), rng.integers(0, 3, 10))
        with pytest.raises(ValueError, match="features"):
            evaluate(p, ds, ds)

    def test_table_rows_format(self, rng):
        tr = from_arrays(rng.normal(0, 1, (200, 2)), rng.integers(0, 3, 200))
        p = zero_params(3, 0, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # identified: no warning
            rep = evaluate(p, tr, tr)
        text = report_table_rows([("MNL", rep)])
        lines = text.strip().split("\n")
        assert lines[0].startswith("model,validation_error,log_likelihood")
        assert lines[1].startswith("MNL,")
        assert len(lines[1].split(",")) == 6

    def test_table_label_with_a_comma_is_one_cell(self, rng):
        tr = from_arrays(rng.normal(0, 1, (200, 2)), rng.integers(0, 3, 200))
        rep = evaluate(zero_params(3, 0, 2), tr, tr)
        text = report_table_rows([("MNL", rep), ('CRBM, J="2"', rep)])
        rows = list(csv.reader(io.StringIO(text)))
        assert [row[0] for row in rows] == ["model", "MNL", 'CRBM, J="2"']
        assert {len(row) for row in rows} == {len(TABLE_COLUMNS)}
        # The command line's labels keep their bytes.
        assert text.split("\n")[1].startswith("MNL,")


def reference_entries(p):
    """Flat mask, in the parameter layout, of the entries the reference
    gauge fixes: the first alternative's c, B and D."""
    dims = (p.n_alternatives, p.n_hidden, p.n_features)
    fixed = np.zeros(param_count(*dims), dtype=bool)
    blocks = ParamBlocks.from_flat(fixed, *dims)
    for block in (blocks.choice_hidden_w, blocks.choice_context_w,
                  blocks.choice_bias):
        block[0] = True
    return fixed


def dense_standard_errors(p, ds):
    """Reference: the free parameters' score rows in one matrix and their
    information matrix inverted directly, written back into the parameter
    layout with zeros at the reference entries."""
    s = _prediction_scores(p, ds.x, ds.choices)
    free = ~reference_entries(p)
    se = np.zeros(len(free))
    se[free] = np.sqrt(np.diag(np.linalg.inv(s.T @ s)))
    return se


@pytest.fixture(scope="module")
def band_fits():
    """The band fits: J = 0 and J = 2 on 14,000 training rows, each larger
    than one block of the information sum."""
    pm = oracle.band_planted_model(20_000, seed=11)
    tr, va = refit_normalization(*split(oracle.generate(pm),
                                        SplitSpec(0.70, seed=5)))
    cfg = TrainConfig(batch_size=256, epochs=80, learning_rate=0.05, cd_k=3,
                      seed=0, early_stop_patience=40, weight_init_scale=1.0)
    return tr, {j: train_crbm(tr, va, j, cfg)[0] for j in (0, 2)}


class TestReferenceGauge:
    @pytest.mark.parametrize("n_hidden,rtol", [(0, 1e-12), (2, 1e-9)])
    def test_blocked_sum_matches_the_dense_reference(self, band_fits,
                                                     n_hidden, rtol):
        tr, fits = band_fits
        assert tr.n_rows > 10 * BLOCK_ROWS
        p = fits[n_hidden]
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # identified: no warning
            std_errs, tstats = t_statistics(p, tr)
        se = np.concatenate([arr.ravel() for _, arr in std_errs.blocks()])
        np.testing.assert_allclose(se, dense_standard_errors(p, tr),
                                   rtol=rtol, atol=0)
        for block in (tstats.choice_hidden_w, tstats.choice_context_w,
                      tstats.choice_bias):
            np.testing.assert_array_equal(block[0], 0.0)

    @pytest.mark.parametrize("n_hidden", [0, 1])
    def test_binary_choice_matches_the_dense_reference(self, rng, n_hidden):
        # With I = 2 the free parameters are those of one alternative.
        p = random_params(rng, 2, n_hidden, 3, scale=0.8)
        ds = from_arrays(rng.normal(0, 1, (3000, 3)), rng.integers(0, 2, 3000),
                         n_alternatives=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # identified: no warning
            std_errs, _ = t_statistics(p, ds)
        se = np.concatenate([arr.ravel() for _, arr in std_errs.blocks()])
        np.testing.assert_allclose(se, dense_standard_errors(p, ds),
                                   rtol=1e-9, atol=0)

    def test_standard_errors_do_not_depend_on_the_gauge(self, rng):
        p = random_params(rng, 4, 2, 3, scale=0.8)
        ds = from_arrays(rng.normal(0, 1, (3000, 3)), rng.integers(0, 4, 3000),
                         n_alternatives=4)
        for (_, a), (_, b) in zip(t_statistics(p, ds)[0].blocks(),
                                  t_statistics(canonical(p), ds)[0].blocks()):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=0)

    def test_duplicated_feature_column_still_warns(self, rng):
        x = rng.normal(0, 1, (400, 2))
        x[:, 1] = x[:, 0]
        ds = from_arrays(x, rng.integers(0, 3, 400))
        # Six free parameters (B and c of alternatives 2 and 3); each free
        # alternative's two B entries share one direction.
        with pytest.warns(UserWarning, match=r"singular \(rank 4 of 6 free "
                                             r"parameters\)"):
            std_errs, _ = t_statistics(random_params(rng, 3, 0, 2), ds)
        assert np.all(std_errs.choice_context_w[1:] > 0.0)

    def test_peak_memory_is_a_fraction_of_the_score_matrix(self, rng):
        n, dims = 20_000, (13, 2, 20)
        p = random_params(rng, *dims, scale=0.3)
        ds = from_arrays(rng.normal(0, 1, (n, 20)), rng.integers(0, 13, n),
                         n_alternatives=13)
        tracemalloc.start()
        try:
            t_statistics(p, ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * param_count(*dims) * 8 / 4, peak


def expression_t_statistics(p, ds):
    """Reference: `t_statistics` with its squares and scaling written as
    the expressions `eigvecs ** 2 * inv`, which build two temporaries that
    the library's in-place product does not."""
    dims = (p.n_alternatives, p.n_hidden, p.n_features)
    n_free = free_param_count(*dims)
    info = np.zeros((n_free, n_free))
    for rows in row_blocks(ds.n_rows):
        s = _prediction_scores(p, ds.x[rows], ds.choices[rows])
        info += s.T @ s
    live = np.flatnonzero(np.diag(info) != 0.0)
    eigvals, eigvecs = np.linalg.eigh(info[np.ix_(live, live)])
    cutoff = max(len(live) * np.finfo(np.float64).eps * eigvals.max(initial=0.0),
                 len(live) / np.finfo(np.float64).max)
    keep = eigvals > cutoff
    inv = np.where(keep, 1.0 / np.where(keep, eigvals, 1.0), 0.0)
    free_se = np.zeros(n_free)
    free_se[live] = np.sqrt(np.maximum((eigvecs ** 2 * inv).sum(axis=1), 0.0))
    se = np.zeros(param_count(*dims))
    se[~reference_entries(p)] = free_se
    theta = np.concatenate([arr.ravel() for _, arr in canonical(p).blocks()])
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where((theta != 0.0) & (se != 0.0), theta / se, 0.0)
    return se, t


class TestSameBits:
    @pytest.mark.parametrize("n_hidden", [0, 2])
    @pytest.mark.parametrize("full_rank", [True, False])
    def test_standard_errors_equal_the_expressions(self, rng, n_hidden,
                                                   full_rank):
        x = rng.normal(0, 1, (2500, 3))
        if not full_rank:
            x[:, 2] = x[:, 1]     # two B (and A) columns share one direction
        ds = from_arrays(x, rng.integers(0, 4, 2500), n_alternatives=4)
        p = random_params(rng, 4, n_hidden, 3, scale=0.5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            std_errs, tstats = t_statistics(p, ds)
        assert any("singular" in str(w.message) for w in caught) != full_rank
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            se, t = expression_t_statistics(p, ds)
        for got, expected in ((std_errs, se), (tstats, t)):
            assert np.array_equal(
                np.concatenate([arr.ravel() for _, arr in got.blocks()]),
                expected)

    def test_scaling_equals_the_expressions(self, rng):
        x = rng.normal(0, 3, (500, 4))
        stats = NormStats(means=rng.normal(0, 2, 4),
                          stds=np.array([0.3, 0.0, 7.0, 1.1]),
                          constant=np.array([False, True, False, False]))
        scale = np.where(stats.constant, 1.0, stats.stds)
        assert np.array_equal(stats.apply(x), (x - stats.means) / scale)


class TestMemory:
    def test_t_statistics_holds_at_most_two_blocks_of_scores(self, rng):
        # One block's scores at a time, and none while inverting.
        p, x, choices = memory_case(rng)
        ds = from_arrays(x, choices, 13, norm_stats=NormStats(
            np.zeros(20), np.ones(20), np.zeros(20, dtype=bool)))
        _, peak = traced_peak(t_statistics, p, ds)
        block = BLOCK_ROWS * free_param_count(13, 2, 20) * 8
        assert peak <= 2.0 * block, peak / block

    def test_inversion_holds_at_most_two_and_a_half_matrices(self, rng):
        # The eigenvectors are squared and scaled in place.
        s = rng.normal(0, 1, (2000, free_param_count(13, 2, 20)))
        info = s.T @ s
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # full rank: no warning
            _, peak = traced_peak(pinv_standard_errors, info)
        assert peak <= 2.5 * info.nbytes, peak / info.nbytes
