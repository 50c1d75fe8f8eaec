"""Fit statistics: log-likelihood, rho-squared, BIC, validation error,
standard errors and t values.

Every figure here scores the model's exact conditional p(y | x), with the
hidden units summed out, so with zero hidden units everything reduces to
exact multinomial-logit statistics.  A split's likelihood, error, mean
true probability and confusion matrix come from one pass of the trainer's
scorer, `model.score_choices`.  Standard errors come from the outer
product of per-row score vectors (the BHHH information estimator), whose
residual y - p reads the probabilities of `model.normalize`, over all
parameter blocks at once, in the reference-alternative gauge of
`model.canonical`: the likelihood has K + 1 + J exact null directions,
and fixing the reference alternative's entries of c, B and D removes
them.  The free parameters are scored in their own layout, that of I - 1
alternatives.
"""

import csv
import io
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import ChoiceDataset
from .model import (REFERENCE_ALTERNATIVE, CrbmParams, ParamBlocks,
                    canonical, choice_logits, hidden_given_choice, normalize,
                    param_count, row_blocks, score_choices)


@dataclass
class FitReport:
    loglik_train: float
    loglik_valid: float
    rho2: float
    bic: float
    validation_error: float
    mean_true_prob: float      # mean probability on the observed alternative
    n_params: int              # free parameters of the reference gauge
    confusion: np.ndarray      # I x I counts on the validation set
    std_errs: ParamBlocks
    tstats: ParamBlocks


OVERFLOW = "log-likelihood overflows: the parameters are too large"


def _finite(values):
    """`values`, which must all be finite: finite parameters whose logits
    or log-likelihood overflow float64 raise ValueError."""
    if not np.isfinite(values).all():
        raise ValueError(OVERFLOW)
    return values


def _scored(p: CrbmParams, ds: ChoiceDataset):
    """(total, per-row log-likelihoods, argmax) of `score_choices` over
    every row of `ds`.  A row that overflows scores NaN, which carries into
    the total, so one `_finite` check of the total covers every row."""
    with np.errstate(over="ignore", invalid="ignore"):
        observed, predicted = score_choices(p, ds.x, ds.choices)
        return float(_finite(observed.sum())), observed, predicted


def log_likelihood(p: CrbmParams, ds: ChoiceDataset) -> float:
    """Total log p(y_obs | x).

    Computed in log space end to end, so finite parameters can never
    produce -inf; logits or a sum that overflow float64 all the same
    raise ValueError.
    """
    return _scored(p, ds)[0]


def rho_squared(loglik: float, n: int, n_alternatives: int) -> float:
    """Fit against the equal-shares null: 1 - LL / (n * ln(1/I))."""
    if n <= 0:
        raise ValueError("n must be positive")
    if n_alternatives < 2:
        raise ValueError("need at least 2 alternatives")
    return 1.0 - loglik / (n * np.log(1.0 / n_alternatives))


def bic(loglik: float, n_params: int, n: int) -> float:
    """Bayesian information criterion: -2 LL + n_params ln(n); a value that
    overflows float64 raises ValueError."""
    if n <= 0:
        raise ValueError("n must be positive")
    value = -2.0 * float(loglik) + n_params * np.log(n)
    if not np.isfinite(value):
        raise ValueError("BIC overflows: the log-likelihood is too large")
    return value


def pinv_standard_errors(info: np.ndarray) -> np.ndarray:
    """Standard errors from an outer-product-of-scores information matrix.

    `info` is (params, params).  It is inverted through its
    eigendecomposition; directions with (numerically) zero information are
    projected out rather than inverted, and a warning names the rank left.
    Parameters with no information at all get a zero standard error, as
    do directions too weak for their inverse to be a finite float.
    """
    n_params = len(info)
    # A zero score column is a zero row and column of `info`; leaving them
    # out of the decomposition keeps that parameter's se exactly zero.
    live = np.flatnonzero(np.diag(info) != 0.0)
    eigvals, eigvecs = np.linalg.eigh(info[np.ix_(live, live)])
    cutoff = max(len(live) * np.finfo(np.float64).eps * eigvals.max(initial=0.0),
                 len(live) / np.finfo(np.float64).max)
    keep = eigvals > cutoff
    rank = int(keep.sum())
    inv = np.where(keep, 1.0 / np.where(keep, eigvals, 1.0), 0.0)
    # Squared and scaled in place: one matrix besides the decomposition's.
    eigvecs *= eigvecs
    eigvecs *= inv
    std_errs = np.zeros(n_params)
    std_errs[live] = np.sqrt(np.maximum(eigvecs.sum(axis=1), 0.0))
    if rank < n_params:
        warnings.warn(
            f"information matrix is singular (rank {rank} of {n_params} free "
            "parameters); standard errors use the identified subspace only")
    return std_errs


def free_param_count(i: int, j: int, k: int) -> int:
    """Parameters the reference gauge leaves free: all but K + 1 + J."""
    return param_count(i, j, k) - (1 + k + j)


def _prediction_scores(p: CrbmParams, x, choices):
    """Per-row score vectors of log p(y_obs | x) for context rows `x` and
    0-based `choices`, from their own forward pass, checked by `_finite`:
    (rows, free_param_count), laid out as `ParamBlocks.from_flat(scores,
    I - 1, J, K)` over the alternatives but REFERENCE_ALTERNATIVE.

    With r_i = y_i - p(i | x), p from `normalize` as `choice_probs` gives
    it, and w_ij = r_i p(h_j = 1 | i, x), the score is w for D, r x for B,
    (sum_i w_ij) x for A, r for c and sum_i w_ij for d; the sums run over
    every alternative, the reference included.
    """
    i, j, k = p.n_alternatives, p.n_hidden, p.n_features
    free = np.arange(i) != REFERENCE_ALTERNATIVE - 1
    with np.errstate(over="ignore", invalid="ignore"):
        log_probs, probs = normalize(choice_logits(p, x))
        _finite(log_probs)
    resid = np.negative(probs, out=probs)                          # (n, I)
    resid[np.arange(len(x)), choices] += 1.0
    w = hidden_given_choice(p, x)                                  # (n, I, J)
    w *= resid[:, :, None]
    scores = np.empty((len(x), free_param_count(i, j, k)))
    g = ParamBlocks.from_flat(scores, i - 1, j, k)
    g.choice_hidden_w[...] = w[:, free]
    np.multiply(resid[:, free, None], x[:, None, :], out=g.choice_context_w)
    w.sum(axis=1, out=g.hidden_bias)
    np.multiply(g.hidden_bias[:, :, None], x[:, None, :],
                out=g.hidden_context_w)
    g.choice_bias[...] = resid[:, free]
    return scores


def t_statistics(p: CrbmParams, ds_train: ChoiceDataset):
    """(standard errors, t values) in parameter-block layout, from one
    information matrix over every free parameter of the exact likelihood.

    The free parameters are those of the reference-alternative gauge
    (`model.canonical`); the reference entries of c, B and D are fixed, so
    they report se = 0 and t = 0.  Their scores are invariant under the
    gauge shift, so any `p` with the same likelihood gives the same
    standard errors.  t is the parameter of `canonical(p)` over its
    standard error, pinned to t = 0 where either is zero: a parameter with
    no information is not significant.  The information is S_b' S_b
    summed in row order over the scores S_b of each block of
    `model.row_blocks`, one block and its forward pass at a time, each
    block's scores freed before the next block's and the inversion; the
    fixed blocks fix the summation order.
    """
    i, j, k = dims = (p.n_alternatives, p.n_hidden, p.n_features)
    n_free = free_param_count(*dims)
    if ds_train.n_rows <= n_free:
        warnings.warn("fewer rows than parameters; standard errors are unreliable")
    info = np.zeros((n_free, n_free))
    for rows in row_blocks(ds_train.n_rows):
        s = _prediction_scores(p, ds_train.x[rows], ds_train.choices[rows])
        info += s.T @ s
        del s
    free_se = ParamBlocks.from_flat(pinv_standard_errors(info), i - 1, j, k)
    se = np.zeros(param_count(*dims))
    # c, B and D lose their reference row, whose se stays 0; A and d do not.
    free = np.arange(i) != REFERENCE_ALTERNATIVE - 1
    for (_, full), (_, part) in zip(ParamBlocks.from_flat(se, *dims).blocks(),
                                    free_se.blocks()):
        full[free if len(part) < len(full) else slice(None)] = part
    theta = np.concatenate([arr.ravel() for _, arr in canonical(p).blocks()])
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where((theta != 0.0) & (se != 0.0), theta / se, 0.0)
    return ParamBlocks.from_flat(se, *dims), ParamBlocks.from_flat(t, *dims)


def confusion_matrix(actual, predicted, n_alternatives):
    """I x I counts of (actual, predicted) 0-based index pairs."""
    confusion = np.zeros((n_alternatives,) * 2, dtype=np.int64)
    np.add.at(confusion, (actual, predicted), 1)
    return confusion


def evaluate(p: CrbmParams, ds_train: ChoiceDataset,
             ds_valid: ChoiceDataset) -> FitReport:
    """Assemble the full statistical report for a fitted model, from one
    `score_choices` pass per split (one in all when `ds_valid is ds_train`)
    and the blocked pass of `t_statistics` over the training rows."""
    ll_valid, observed, predicted = _scored(p, ds_valid)
    ll_train = (ll_valid if ds_valid is ds_train
                else log_likelihood(p, ds_train))
    n_params = free_param_count(p.n_alternatives, p.n_hidden, p.n_features)
    std_errs, tstats = t_statistics(p, ds_train)
    return FitReport(
        loglik_train=ll_train,
        loglik_valid=ll_valid,
        rho2=rho_squared(ll_train, ds_train.n_rows, p.n_alternatives),
        bic=bic(ll_train, n_params, ds_train.n_rows),
        validation_error=float(np.mean(predicted != ds_valid.choices)),
        mean_true_prob=float(np.exp(observed).mean()),
        n_params=n_params,
        confusion=confusion_matrix(ds_valid.choices, predicted,
                                   p.n_alternatives),
        std_errs=std_errs,
        tstats=tstats,
    )


TABLE_COLUMNS = ("model", "validation_error", "log_likelihood", "rho2",
                 "n_params", "bic")


def report_table_rows(labeled_reports) -> str:
    """CSV rows of (label, FitReport) pairs in result-table column order; a
    label is quoted as the `csv` module quotes it."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(TABLE_COLUMNS)
    writer.writerows(
        [label, f"{rep.validation_error:.4f}", f"{rep.loglik_train:.0f}",
         f"{rep.rho2:.3f}", rep.n_params, f"{rep.bic:.0f}"]
        for label, rep in labeled_reports)
    return out.getvalue()
