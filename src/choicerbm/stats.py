"""Fit statistics: log-likelihood, rho-squared, BIC, validation error,
standard errors and t values.

The likelihood surface evaluated here is the prediction model itself:
hidden activations are held at their context-driven mean-field values, so
with zero hidden units everything reduces to exact multinomial-logit
statistics.  Standard errors come from the outer product of per-row score
vectors (the BHHH information estimator); the softmax blocks are always
rank-deficient by one per feature, so the information matrix is inverted
on its identified subspace (minimum-norm gauge).
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import ChoiceDataset
from .model import (CrbmParams, ParamBlocks, choice_logits, context_hidden,
                    log_softmax, param_count, softmax)


@dataclass
class FitReport:
    loglik_train: float
    loglik_valid: float
    rho2: float
    bic: float
    validation_error: float
    mean_true_prob: float      # mean probability on the observed alternative
    n_params: int
    confusion: np.ndarray      # I x I counts on the validation set
    std_errs: ParamBlocks
    tstats: ParamBlocks


def _forward(p: CrbmParams, ds: ChoiceDataset):
    """The mean-field forward pass over every row of `ds`: (hidden
    activations, choice logits, log choice probabilities)."""
    h_bar = context_hidden(p, ds.x)
    logits = choice_logits(p, h_bar, ds.x)
    return h_bar, logits, log_softmax(logits)


def log_likelihood(p: CrbmParams, ds: ChoiceDataset, forward=None) -> float:
    """Total log P(y_obs | x) under the mean-field prediction model.

    Computed in log space end to end, so finite parameters can never
    produce -inf.  `forward` is `_forward(p, ds)` when already computed.
    """
    log_probs = (forward or _forward(p, ds))[2]
    return float(log_probs[np.arange(ds.n_rows), ds.choice_indices()].sum())


def rho_squared(loglik: float, n: int, n_alternatives: int) -> float:
    """Fit against the equal-shares null: 1 - LL / (n * ln(1/I))."""
    if n <= 0:
        raise ValueError("n must be positive")
    if n_alternatives < 2:
        raise ValueError("need at least 2 alternatives")
    return 1.0 - loglik / (n * np.log(1.0 / n_alternatives))


def bic(loglik: float, n_params: int, n: int) -> float:
    """Bayesian information criterion: -2 LL + n_params ln(n)."""
    if n <= 0:
        raise ValueError("n must be positive")
    return -2.0 * loglik + n_params * np.log(n)


def validation_error(p: CrbmParams, ds: ChoiceDataset, forward=None) -> float:
    """1 - share of rows whose argmax prediction matches the observed choice.
    `forward` is `_forward(p, ds)` when already computed."""
    if ds.n_rows == 0:
        raise ValueError("empty dataset")
    predicted = (forward or _forward(p, ds))[2].argmax(axis=1)
    return float(np.mean(predicted != ds.choice_indices()))


def mean_true_probability(p: CrbmParams, ds: ChoiceDataset,
                          forward=None) -> float:
    """Secondary accuracy figure: mean probability on the observed
    alternative.  `forward` is `_forward(p, ds)` when already computed."""
    log_probs = (forward or _forward(p, ds))[2]
    return float(np.exp(
        log_probs[np.arange(ds.n_rows), ds.choice_indices()]).mean())


def pinv_standard_errors(scores: np.ndarray) -> np.ndarray:
    """Standard errors from an outer-product-of-scores information matrix.

    `scores` is (rows, params).  The information matrix is inverted through
    its eigendecomposition; directions with (numerically) zero information
    are projected out rather than inverted, which is the minimum-norm gauge
    for overparameterized softmax blocks.  Emits a warning when that
    happens.  Parameters with no information at all get a zero standard
    error, as do directions too weak for their inverse to be a finite float.
    """
    n_params = scores.shape[1]
    info = scores.T @ scores
    # A zero score column is a zero row and column of `info`; leaving them
    # out of the decomposition keeps that parameter's se exactly zero.
    live = np.flatnonzero(np.diag(info) != 0.0)
    eigvals, eigvecs = np.linalg.eigh(info[np.ix_(live, live)])
    cutoff = max(len(live) * np.finfo(np.float64).eps * eigvals.max(initial=0.0),
                 len(live) / np.finfo(np.float64).max)
    keep = eigvals > cutoff
    rank = int(keep.sum())
    inv = np.where(keep, 1.0 / np.where(keep, eigvals, 1.0), 0.0)
    std_errs = np.zeros(n_params)
    std_errs[live] = np.sqrt(np.maximum((eigvecs ** 2 * inv).sum(axis=1), 0.0))
    if rank < n_params:
        warnings.warn(
            f"information matrix is singular (rank {rank} of {n_params}); "
            "standard errors use the identified subspace only")
    return std_errs


def _prediction_scores(p: CrbmParams, ds: ChoiceDataset, forward):
    """Per-row score vectors of the mean-field prediction log-likelihood,
    from `forward`, the forward pass over `ds`.

    Returns (scores for the choice blocks B/D/c, scores for the hidden
    blocks A/d).  The choice blocks see an exact multinomial score over the
    augmented features [x, h_bar, 1]; the hidden blocks receive the chain
    rule through h_bar and are therefore approximate.
    """
    x = ds.x
    n = x.shape[0]
    h_bar, logits, _ = forward                                     # (n, J), (n, I)
    resid = ds.y - softmax(logits)                                 # (n, I)

    feats = np.concatenate([x, h_bar, np.ones((n, 1))], axis=1)    # (n, K+J+1)
    choice_scores = np.einsum("ni,nf->nif", resid, feats).reshape(n, -1)

    # d(log lik)/d(h_bar_j) = sum_i resid_i D_ij, then through the sigmoid.
    dh = (resid @ p.choice_hidden_w) * h_bar * (1.0 - h_bar)       # (n, J)
    hidden_feats = np.concatenate([x, np.ones((n, 1))], axis=1)    # (n, K+1)
    hidden_scores = np.einsum("nj,nf->njf", dh, hidden_feats).reshape(n, -1)
    return choice_scores, hidden_scores


def t_statistics(p: CrbmParams, ds_train: ChoiceDataset, forward=None):
    """(standard errors, t values) in parameter-block layout.

    Blocks B, D and c are scored against the mean-field prediction
    likelihood; blocks A and d against the same likelihood through the
    hidden activations and should be read as approximate.  t is the
    parameter over its standard error, pinned to t = 0 where either is
    zero: a parameter with no information is not significant.  `forward`
    is `_forward(p, ds_train)` when already computed.
    """
    if ds_train.n_rows <= param_count(p.n_alternatives, p.n_hidden, p.n_features):
        warnings.warn("fewer rows than parameters; standard errors are unreliable")
    n_alt, n_hid, k = p.n_alternatives, p.n_hidden, p.n_features
    choice_scores, hidden_scores = _prediction_scores(
        p, ds_train, forward or _forward(p, ds_train))
    se_choice = pinv_standard_errors(choice_scores).reshape(n_alt, k + n_hid + 1)
    se_hidden = pinv_standard_errors(hidden_scores).reshape(n_hid, k + 1)

    std_errs = ParamBlocks(
        choice_hidden_w=se_choice[:, k:k + n_hid].copy(),
        choice_context_w=se_choice[:, :k].copy(),
        hidden_context_w=se_hidden[:, :k].copy(),
        choice_bias=se_choice[:, -1].copy(),
        hidden_bias=se_hidden[:, -1].copy(),
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        tstats = ParamBlocks(*(np.where((theta != 0.0) & (se != 0.0),
                                        theta / se, 0.0)
                               for (_, theta), (_, se)
                               in zip(p.blocks(), std_errs.blocks())))
    return std_errs, tstats


def confusion_matrix(actual, predicted, n_alternatives):
    """I x I counts of (actual, predicted) 0-based index pairs."""
    confusion = np.zeros((n_alternatives,) * 2, dtype=np.int64)
    np.add.at(confusion, (actual, predicted), 1)
    return confusion


def evaluate(p: CrbmParams, ds_train: ChoiceDataset,
             ds_valid: ChoiceDataset) -> FitReport:
    """Assemble the full statistical report for a fitted model, from one
    forward pass per split (one in all when `ds_valid is ds_train`)."""
    train = _forward(p, ds_train)
    valid = train if ds_valid is ds_train else _forward(p, ds_valid)
    ll_train = log_likelihood(p, ds_train, train)
    ll_valid = log_likelihood(p, ds_valid, valid)
    n_params = param_count(p.n_alternatives, p.n_hidden, p.n_features)
    std_errs, tstats = t_statistics(p, ds_train, train)
    return FitReport(
        loglik_train=ll_train,
        loglik_valid=ll_valid,
        rho2=rho_squared(ll_train, ds_train.n_rows, p.n_alternatives),
        bic=bic(ll_train, n_params, ds_train.n_rows),
        validation_error=validation_error(p, ds_valid, valid),
        mean_true_prob=mean_true_probability(p, ds_valid, valid),
        n_params=n_params,
        confusion=confusion_matrix(ds_valid.choice_indices(),
                                   valid[2].argmax(axis=1), p.n_alternatives),
        std_errs=std_errs,
        tstats=tstats,
    )


TABLE_COLUMNS = ("model", "validation_error", "log_likelihood", "rho2",
                 "n_params", "bic")


def report_table_rows(labeled_reports) -> str:
    """CSV rows of (label, FitReport) pairs in result-table column order."""
    lines = [",".join(TABLE_COLUMNS)]
    for label, rep in labeled_reports:
        lines.append(",".join([
            str(label),
            f"{rep.validation_error:.4f}",
            f"{rep.loglik_train:.0f}",
            f"{rep.rho2:.3f}",
            str(rep.n_params),
            f"{rep.bic:.0f}",
        ]))
    return "\n".join(lines) + "\n"
