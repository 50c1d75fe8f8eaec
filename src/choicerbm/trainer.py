"""Contrastive-divergence estimation with minibatch SGD and momentum.

One loop drives both estimators.  With hidden units the per-batch gradient
is the CD estimate: hidden activation probabilities at the data against a
sampled reconstruction chain.  Without hidden units the reconstruction
chain mixes in a single step, so its expectation is available in closed
form and the loop becomes exact multinomial-logit gradient ascent: the MNL
baseline is `train_crbm` with zero hidden units.  Each epoch scores both
splits with `model.log_choice_probs`, the rule that `stats` reports, and
early stopping keeps the snapshot of lowest validation error.
"""

from dataclasses import dataclass, field

import numpy as np

from .dataset import ChoiceDataset
from .model import (CrbmParams, ParamBlocks, canonical, log_choice_probs,
                    param_count, sample_categorical, sigmoid, softmax)


class TrainingDivergedError(RuntimeError):
    """Raised when a parameter turns NaN or infinite during training."""


# The momentum schedule of the reference recipe, fixed for every fit.
MOMENTUM_INITIAL, MOMENTUM_FINAL, MOMENTUM_SWITCH_EPOCH = 0.5, 0.9, 5


@dataclass(frozen=True)
class TrainConfig:
    cd_k: int = 1
    batch_size: int = 64
    epochs: int = 400
    learning_rate: float = 1e-3
    seed: int = 0               # < 2**53: saved as a float split seed
    early_stop_patience: int = 20
    weight_init_scale: float = 0.01
    weight_decay: float = 0.0   # L2 on weight blocks only, off by default

    def validate(self):
        if self.cd_k < 1:
            raise ValueError("cd_k must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not 0 <= self.seed < 2 ** 53:
            raise ValueError("seed must lie in [0, 2**53)")
        if self.early_stop_patience < 0:
            raise ValueError("early_stop_patience must be non-negative")
        if not 0 < self.weight_init_scale < np.inf:
            raise ValueError("weight_init_scale must be positive and finite")
        if not 0 <= self.weight_decay < np.inf:
            raise ValueError("weight_decay must be non-negative and finite")


@dataclass
class TrainTrace:
    """Per-epoch diagnostics; `best_epoch` indexes the kept parameter snapshot."""

    train_nll: list = field(default_factory=list)   # mean per-row NLL
    valid_nll: list = field(default_factory=list)
    valid_error: list = field(default_factory=list)
    recon_error: list = field(default_factory=list)
    best_epoch: int = -1


def _init_params(i, j, k, class_counts, scale, rng) -> np.ndarray:
    """Flat parameters for I alternatives, J hidden units and K features:
    weights ~ Normal(0, scale^2); biases zero except the choice bias, which
    starts at log empirical shares (zero counts floored at one).  Counts
    with leading axes give one parameter vector per index, all sharing the
    one weight draw."""
    counts = np.maximum(np.asarray(class_counts, dtype=np.float64), 1.0)
    weights = rng.normal(0.0, scale, size=i * j + i * k + j * k)
    lead = counts.shape[:-1]
    return np.concatenate([np.broadcast_to(weights, lead + weights.shape),
                           np.log(counts / counts.sum(axis=-1, keepdims=True)),
                           np.zeros(lead + (j,))], axis=-1)


def _split_scores(b, x, choices):
    """Mean per-row NLL and error rate of the prediction rule
    `log_choice_probs`, one of each per leading index."""
    log_probs = log_choice_probs(b, x)
    nll = np.take_along_axis(-log_probs, choices[..., None], axis=-1)
    return (nll[..., 0].mean(axis=-1),
            np.mean(log_probs.argmax(axis=-1) != choices, axis=-1))


def _cd_grads(b, xb, yb, cb, cd_k, rng, eye, out: ParamBlocks):
    """One minibatch gradient, written into `out`; returns the share of
    rows whose reconstruction is not the observed choice `cb`.

    CD-k: hidden probabilities at the data against the final sampled pair
    of a cd_k-step hidden/choice chain started at the data, with the
    context clamped.  Without hidden units the chain mixes in one step, so
    its expectation `softmax(c + B x)` replaces the sample: the exact MNL
    gradient and the expected mismatch.  Arrays may carry a leading stack
    axis; `out` holds batched blocks.
    """
    n = xb.shape[-2]
    choice_drive = xb @ b.choice_context_w.mT + b.choice_bias
    if b.hidden_bias.shape[-1]:
        hidden_drive = xb @ b.hidden_context_w.mT + b.hidden_bias
        h_pos = h_probs = sigmoid(hidden_drive + yb @ b.choice_hidden_w)
        for step in range(cd_k):
            if step:   # step 0 starts the chain at the data, where it is h_pos
                h_probs = sigmoid(hidden_drive + y_neg @ b.choice_hidden_w)
            h_neg = (rng.random(h_probs.shape[-2:]) < h_probs).astype(np.float64)
            idx = sample_categorical(
                softmax(choice_drive + h_neg @ b.choice_hidden_w.mT), rng)
            y_neg = eye[idx]
        dh = h_pos - h_neg
        np.divide(yb.mT @ h_pos - y_neg.mT @ h_neg, n, out=out.choice_hidden_w)
        np.divide(dh.mT @ xb, n, out=out.hidden_context_w)
        np.divide(dh.sum(axis=-2, keepdims=True), n, out=out.hidden_bias)
        mismatch = (idx != cb).sum(axis=-1) / cb.shape[-1]
    else:
        y_neg = softmax(choice_drive)
        picked = y_neg.reshape(-1, y_neg.shape[-1])[np.arange(cb.size),
                                                    cb.ravel()]
        mismatch = 1.0 - picked.reshape(cb.shape).sum(axis=-1) / cb.shape[-1]
    dy = yb - y_neg
    np.divide(dy.mT @ xb, n, out=out.choice_context_w)
    np.divide(dy.sum(axis=-2, keepdims=True), n, out=out.choice_bias)
    return mismatch


def cd_step(p: CrbmParams, batch, cfg: TrainConfig, rng: np.random.Generator):
    """One gradient evaluation on (x rows, y rows); returns block gradients.

    The CD-k estimate, or without hidden units the exact MNL gradient: ascent
    directions on the conditional log-likelihood, before any learning rate
    or momentum is applied.
    """
    xb, yb = (np.asarray(a, dtype=np.float64) for a in batch)
    if xb.ndim != 2 or yb.ndim != 2 or xb.shape[0] != yb.shape[0]:
        raise ValueError("batch must be two aligned 2-d arrays")
    if xb.shape[0] == 0:
        raise ValueError("batch is empty")
    if xb.shape[1] != p.n_features or yb.shape[1] != p.n_alternatives:
        raise ValueError("batch dimensions do not match the parameters")
    dims = (p.n_alternatives, p.n_hidden, p.n_features)
    flat = np.empty(param_count(*dims))
    _cd_grads(p, xb, yb, yb.argmax(-1), cfg.cd_k, rng, np.eye(dims[0]),
              ParamBlocks.from_flat(flat, *dims, batched=True))
    return ParamBlocks.from_flat(flat, *dims)


# A diverging fit fails with TrainingDivergedError at the end of its epoch;
# the floating-point warnings on the way there would only repeat that.
@np.errstate(over="ignore", invalid="ignore")
def train_crbm(ds_train: ChoiceDataset, ds_valid: ChoiceDataset, n_hidden: int,
               cfg: TrainConfig, epoch_hook=None):
    """Estimate a conditional RBM; returns the best-validation snapshot, in
    the reference-alternative gauge (`model.canonical`), and the trace.

    `n_hidden=0` degenerates to the multinomial-logit estimator.  The
    optional `epoch_hook(epoch, params)` observes the end-of-epoch iterate,
    before any gauge shift, and must not touch any random state.

    `ds_train` may also be a stack of equal-size datasets validated on
    itself (`ChoiceDataset.take` of an (R, n) row index).  The fits then run
    together, as matrix products over the leading axis, and each returned
    (params, trace) pair is that of a fit of its dataset alone: the draws of
    a fit have shapes that do not depend on its rows, so one generator whose
    draws broadcast over the stack gives each fit its own stream.  The hook
    sees a dict from fit index to snapshot.  A fit leaves the stack when it
    stops; a divergence raises the error of the lowest fit that diverges.
    """
    cfg.validate()
    if n_hidden < 0:
        raise ValueError("n_hidden must be >= 0")
    if ds_train.n_features != ds_valid.n_features:
        raise ValueError("train and valid disagree on feature count")
    if ds_train.n_alternatives != ds_valid.n_alternatives:
        raise ValueError("train and valid disagree on alternative count")
    stacked = ds_train.x.ndim == 3
    if stacked and ds_valid is not ds_train:
        raise ValueError("a stack of datasets must be validated on itself")

    rng = np.random.default_rng(cfg.seed)
    n = ds_train.n_rows
    dims = (ds_train.n_alternatives, n_hidden, ds_train.n_features)
    x_all, train_choices = ds_train.x, ds_train.choices
    eye = np.eye(dims[0])
    # Parameters, gradient and velocity share one flat layout, with one
    # row per fit of a stack.
    theta = _init_params(*dims, eye[train_choices].sum(axis=-2),
                         cfg.weight_init_scale, rng)
    n_weights = theta.shape[-1] - dims[0] - n_hidden

    live = list(range(len(theta) if stacked else 1))   # fits in the stack
    traces = [TrainTrace() for _ in live]
    best_error, best_theta = [np.inf] * len(live), [None] * len(live)
    diverged = {}   # fit -> the error that a fit alone would raise
    grad, vel = np.zeros_like(theta), np.zeros_like(theta)
    b, g = (ParamBlocks.from_flat(a, *dims, batched=True) for a in (theta, grad))

    for epoch in range(cfg.epochs):
        momentum = (MOMENTUM_INITIAL if epoch < MOMENTUM_SWITCH_EPOCH
                    else MOMENTUM_FINAL)

        # `take` keeps each fit's rows contiguous, as matrix products need
        # for the bits of a fit alone; the one-hot rows live one epoch.
        perm = rng.permutation(n)
        x = np.take(x_all, perm, axis=-2)
        choices = np.take(train_choices, perm, axis=-1)
        y = eye[choices]
        mismatch_sum, n_batches = 0.0, 0   # becomes one sum per fit
        for start in range(0, n, cfg.batch_size):
            stop = start + cfg.batch_size
            xb, yb = x[..., start:stop, :], y[..., start:stop, :]
            mismatch_sum += _cd_grads(b, xb, yb, choices[..., start:stop],
                                      cfg.cd_k, rng, eye, g)
            if cfg.weight_decay:
                grad[..., :n_weights] -= cfg.weight_decay * theta[..., :n_weights]
            vel *= momentum
            grad *= cfg.learning_rate
            vel += grad
            theta += vel
            n_batches += 1

        rows = theta.reshape(len(live), -1)   # one per fit in the stack
        for pos in np.flatnonzero(~np.isfinite(rows).all(axis=-1)):
            name = next(name for name, arr in b.blocks() if not np.all(
                np.isfinite(arr.reshape(len(live), -1)[pos])))
            diverged[live[pos]] = f"non-finite values in {name} at epoch {epoch}"

        train_nll, train_error = _split_scores(b, x_all, train_choices)
        valid_nll, valid_error = (
            (train_nll, train_error) if ds_valid is ds_train
            else _split_scores(b, ds_valid.x, ds_valid.choices))
        scores = [np.ravel(v) for v in (train_nll, valid_nll, valid_error,
                                        mismatch_sum / n_batches)]
        stay, snapshots = [], {}
        for pos, fit in enumerate(live):
            if fit in diverged:
                continue
            trace = traces[fit]
            for series, values in zip((trace.train_nll, trace.valid_nll,
                                       trace.valid_error, trace.recon_error),
                                      scores):
                series.append(float(values[pos]))
            if epoch_hook is not None:
                snapshots[fit] = CrbmParams.from_flat(rows[pos].copy(), *dims)
            if trace.valid_error[-1] < best_error[fit]:
                best_error[fit] = trace.valid_error[-1]
                trace.best_epoch = epoch
                best_theta[fit] = rows[pos].copy()
            elif epoch - trace.best_epoch > cfg.early_stop_patience:
                continue
            stay.append(pos)
        if snapshots:
            epoch_hook(epoch, snapshots if stacked else snapshots[0])

        live = [live[pos] for pos in stay]
        # A diverged fit's error stands once every fit before it is done.
        if not live or (diverged and live[0] > min(diverged)):
            break
        if len(stay) < len(rows):
            theta, vel = theta[stay], vel[stay]
            grad = np.zeros_like(theta)
            x_all, train_choices = x_all[stay], train_choices[stay]
            b, g = (ParamBlocks.from_flat(a, *dims, batched=True)
                    for a in (theta, grad))

    if diverged:
        raise TrainingDivergedError(diverged[min(diverged)])
    fits = [(canonical(CrbmParams.from_flat(t, *dims)), trace)
            for t, trace in zip(best_theta, traces)]
    return fits if stacked else fits[0]

