"""Brute-force enumeration reference for the C-RBM conditional.

Every function here sums the hidden state space explicitly, so it is only
usable for small models (I <= 16, J <= 12) and carries that cap.  The
package computes p(y | x) in closed form, hidden units summed out
(`model.choice_logits`); these references check it and the trainer's
gradients independently.  Only the tests import this module.
"""

import numpy as np
from scipy.special import logsumexp

from choicerbm.dataset import ChoiceDataset
from choicerbm.model import CrbmParams, ParamBlocks
from conftest import zero_blocks

MAX_HIDDEN = 12
MAX_ALTERNATIVES = 16


def _checked(v, n: int, what: str, unit: str):
    """`v` as float64, after checking that its last axis has length n."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1] != n:
        raise ValueError(f"{what} vector length {v.shape[-1]} != {n} {unit}")
    return v


def energy(p: CrbmParams, y, h) -> float:
    """Joint energy of a (choice, hidden) configuration.

    Context terms are excluded by construction; they shift the conditionals
    only.  Supports batched inputs via leading axes.
    """
    y = _checked(y, p.n_alternatives, "choice", "alternatives")
    h = _checked(h, p.n_hidden, "hidden", "hidden units")
    interaction = np.einsum("...i,ij,...j->...", y, p.choice_hidden_w, h)
    val = -(y @ p.choice_bias) - (h @ p.hidden_bias) - interaction
    return float(val) if val.ndim == 0 else val


def _hidden_table(n_hidden: int) -> np.ndarray:
    """All 2^J binary hidden configurations, one per row."""
    bits = np.arange(2 ** n_hidden)[:, None] >> np.arange(n_hidden)[None, :]
    return (bits & 1).astype(np.float64)


def _check_enumerable(p: CrbmParams):
    if p.n_hidden > MAX_HIDDEN:
        raise ValueError(f"enumeration capped at {MAX_HIDDEN} hidden units")
    if p.n_alternatives > MAX_ALTERNATIVES:
        raise ValueError(f"enumeration capped at {MAX_ALTERNATIVES} alternatives")


def _joint_log_weights(p: CrbmParams, x) -> np.ndarray:
    """Unnormalized log p(y=i, h | x) over all (i, h) pairs.

    Returns an array of shape (..., I, 2^J); x may carry leading batch axes.
    """
    x = np.asarray(x, dtype=np.float64)
    h_tab = _hidden_table(p.n_hidden)                      # (H, J)
    choice_drive = p.choice_bias + x @ p.choice_context_w.T    # (..., I)
    hidden_drive = p.hidden_bias + x @ p.hidden_context_w.T    # (..., J)
    pair = p.choice_hidden_w @ h_tab.T                         # (I, H)
    return choice_drive[..., :, None] + pair + (hidden_drive @ h_tab.T)[..., None, :]


def exact_choice_distribution(p: CrbmParams, x) -> np.ndarray:
    """P(y = i | x) by summing the joint over every hidden configuration.

    Conditions on the clamped context; supports batched x via leading axes.
    """
    _check_enumerable(p)
    lw = _joint_log_weights(p, x)                # (..., I, H)
    log_marg = logsumexp(lw, axis=-1)            # (..., I)
    log_z = logsumexp(log_marg, axis=-1, keepdims=True)
    return np.exp(log_marg - log_z)


def exact_conditional_loglik(p: CrbmParams, ds: ChoiceDataset) -> float:
    """Sum over rows of log P(y_obs | x), hidden states enumerated."""
    probs = exact_choice_distribution(p, ds.x)
    return float(np.log(probs[np.arange(ds.n_rows), ds.choices]).sum())


def exact_loglik_gradient(p: CrbmParams, ds: ChoiceDataset) -> ParamBlocks:
    """Exact gradient of sum_rows log P(y_obs | x) over all five blocks.

    Positive phase averages over p(h | y_obs, x); negative phase averages
    over the full joint p(y, h | x).  Both by enumeration.
    """
    _check_enumerable(p)
    grads = zero_blocks(p)
    h_tab = _hidden_table(p.n_hidden)
    eye = np.eye(p.n_alternatives)
    obs_idx = ds.choices
    for row in range(ds.n_rows):
        x = ds.x[row]
        obs = int(obs_idx[row])
        lw = _joint_log_weights(p, x)            # (I, H)
        log_z = logsumexp(lw)
        joint = np.exp(lw - log_z)               # p(y, h | x)
        post = np.exp(lw[obs] - logsumexp(lw[obs]))  # p(h | y_obs, x)

        h_pos = post @ h_tab                     # E[h | y_obs, x]
        h_neg = joint @ h_tab                    # (I, J): sum_h p(y_i, h) h
        y_neg = joint.sum(axis=1)                # p(y_i | x)

        grads.choice_bias[...] += eye[obs] - y_neg
        grads.hidden_bias[...] += h_pos - h_neg.sum(axis=0)
        grads.choice_hidden_w[...] += np.outer(eye[obs], h_pos) - h_neg
        grads.choice_context_w[...] += np.outer(eye[obs] - y_neg, x)
        grads.hidden_context_w[...] += np.outer(h_pos - h_neg.sum(axis=0), x)
    return grads


def finite_difference_gradient(p: CrbmParams, ds: ChoiceDataset,
                               step: float = 1e-5) -> ParamBlocks:
    """Central finite differences of the exact conditional log-likelihood."""
    dims = (p.n_alternatives, p.n_hidden, p.n_features)
    theta = np.concatenate([arr.ravel() for _, arr in p.blocks()])
    grad = np.empty_like(theta)
    for idx in range(theta.size):
        loglik = []
        for delta in (step, -step):
            t = theta.copy()
            t[idx] += delta
            loglik.append(exact_conditional_loglik(
                CrbmParams.from_flat(t, *dims), ds))
        grad[idx] = (loglik[0] - loglik[1]) / (2 * step)
    return ParamBlocks.from_flat(grad, *dims)


def conditional_kl(truth: CrbmParams, fitted: CrbmParams, x_sample) -> float:
    """Mean over context rows of KL(true choice dist || fitted choice dist)."""
    p_true = exact_choice_distribution(truth, x_sample)
    p_fit = exact_choice_distribution(fitted, x_sample)
    return float(np.mean((p_true * (np.log(p_true) - np.log(p_fit))).sum(axis=1)))


def denormalized_params(p: CrbmParams, norm_stats) -> CrbmParams:
    """Fold z-scoring into the parameters so they act on raw context values.

    Lets a model fitted on normalized features be compared directly against
    ground truth expressed in raw units.
    """
    mu = norm_stats.means
    sd = np.where(norm_stats.constant, 1.0, norm_stats.stds)
    b_raw = p.choice_context_w / sd
    a_raw = p.hidden_context_w / sd
    return CrbmParams(
        choice_hidden_w=p.choice_hidden_w,
        choice_context_w=b_raw,
        hidden_context_w=a_raw,
        choice_bias=p.choice_bias - b_raw @ mu,
        hidden_bias=p.hidden_bias - a_raw @ mu)
