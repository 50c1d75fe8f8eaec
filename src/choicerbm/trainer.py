"""Contrastive-divergence estimation with minibatch SGD and momentum.

One loop drives both estimators.  With hidden units the per-batch gradient
is the CD estimate: hidden activation probabilities at the data against a
sampled reconstruction chain.  Without hidden units the reconstruction
chain mixes in a single step, so its expectation is available in closed
form and the loop becomes exact multinomial-logit gradient ascent: the MNL
baseline is `train_crbm` with zero hidden units.  Each epoch scores the
validation rows alone with `model.score_choices`, as `stats` does, and
early stopping keeps the snapshot of lowest validation error.
"""

from dataclasses import dataclass, field

import numpy as np

from .dataset import ChoiceDataset
from .model import (CrbmParams, ParamBlocks, canonical, normalize,
                    param_count, sample_categorical, score_choices, sigmoid)


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
    """Per-epoch validation diagnostics; `best_epoch` is the kept snapshot's."""

    valid_nll: list = field(default_factory=list)   # mean per-row NLL
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


def _cd_grads(b, xb, cb, cd_k, rng, eye, out: ParamBlocks):
    """One minibatch gradient, written into `out`; returns the share of
    rows whose reconstruction is not the observed choice `cb`.

    CD-k: hidden probabilities at the data against the final sampled pair
    of a cd_k-step hidden/choice chain started at the data, with the
    context clamped.  Without hidden units the chain mixes in one step, so
    its expectation `softmax(c + B x)` replaces the sample: the exact MNL
    gradient and the expected mismatch.  Arrays may carry a leading stack
    axis.
    """
    n = xb.shape[-2]
    yb = eye.take(cb, axis=0)
    choice_drive = xb @ b.choice_context_w.mT + b.choice_bias[..., None, :]
    if b.hidden_bias.shape[-1]:
        hidden_drive = xb @ b.hidden_context_w.mT + b.hidden_bias[..., None, :]
        h_pos = h_probs = sigmoid(hidden_drive + yb @ b.choice_hidden_w)
        for step in range(cd_k):
            if step:   # step 0 starts the chain at the data, where it is h_pos
                h_probs = sigmoid(hidden_drive + y_neg @ b.choice_hidden_w)
            h_neg = (rng.random(h_probs.shape[-2:]) < h_probs).astype(np.float64)
            idx = sample_categorical(
                normalize(choice_drive + h_neg @ b.choice_hidden_w.mT)[1], rng)
            y_neg = eye[idx]
        dh = h_pos - h_neg
        np.divide(yb.mT @ h_pos - y_neg.mT @ h_neg, n, out=out.choice_hidden_w)
        np.divide(dh.mT @ xb, n, out=out.hidden_context_w)
        np.divide(dh.sum(axis=-2), n, out=out.hidden_bias)
        mismatch = (idx != cb).sum(axis=-1) / cb.shape[-1]
    else:
        y_neg = normalize(choice_drive)[1]
        rows = np.arange(0, y_neg.size, y_neg.shape[-1]).reshape(cb.shape)
        picked = y_neg.reshape(-1)[rows + cb]   # at the observed choices
        mismatch = 1.0 - picked.sum(axis=-1) / cb.shape[-1]
    dy = yb - y_neg
    np.divide(dy.mT @ xb, n, out=out.choice_context_w)
    np.divide(dy.sum(axis=-2), n, out=out.choice_bias)
    return mismatch


def cd_step(p: CrbmParams, batch, cfg: TrainConfig, rng: np.random.Generator):
    """One gradient evaluation on (x rows, one-hot y rows); returns gradients.

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
    grads = ParamBlocks.from_flat(np.empty(param_count(*dims)), *dims)
    _cd_grads(p, xb, yb.argmax(-1), cfg.cd_k, rng, np.eye(dims[0]), grads)
    return grads


# A diverging fit fails with TrainingDivergedError at the end of its epoch;
# the floating-point warnings on the way there would only repeat that.
@np.errstate(over="ignore", invalid="ignore")
def train_crbm(ds_train: ChoiceDataset, ds_valid: ChoiceDataset, n_hidden: int,
               cfg: TrainConfig, epoch_hook=None):
    """Estimate a conditional RBM; returns the best-validation snapshot, in
    the reference-alternative gauge (`model.canonical`), and the trace.

    `n_hidden=0` degenerates to the multinomial-logit estimator.  The
    optional `epoch_hook(epoch, params)` observes the end-of-epoch iterate,
    before any gauge shift, and must not touch any random state; scoring
    it on `ds_train` gives the training NLL, which the trace leaves out.

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
    batch_starts = range(0, ds_train.n_rows, cfg.batch_size)
    dims = (ds_train.n_alternatives, n_hidden, ds_train.n_features)
    x_all, train_choices = ds_train.x, ds_train.choices
    eye = np.eye(dims[0])
    # Parameters, gradient and velocity share one flat layout, with one
    # row per fit of a stack.
    counts = np.apply_along_axis(np.bincount, -1, train_choices,
                                 minlength=dims[0])
    theta = _init_params(*dims, counts, cfg.weight_init_scale, rng)
    n_weights = theta.shape[-1] - dims[0] - n_hidden

    live = list(range(len(theta) if stacked else 1))   # fits in the stack
    traces = [TrainTrace() for _ in live]
    best_theta = [None] * len(live)
    diverged = {}   # fit -> the error that a fit alone would raise
    grad, vel = np.zeros_like(theta), np.zeros_like(theta)
    b, g = (ParamBlocks.from_flat(a, *dims) for a in (theta, grad))

    for epoch in range(cfg.epochs):
        momentum = (MOMENTUM_INITIAL if epoch < MOMENTUM_SWITCH_EPOCH
                    else MOMENTUM_FINAL)
        perm = rng.permutation(ds_train.n_rows)
        mismatch_sum = 0.0   # becomes one sum per fit
        for start in batch_starts:
            # `take` gives each fit's batch contiguous rows, as matrix products
            # need for the bits of a fit alone, sooner than fancy indexing.
            batch = perm[start:start + cfg.batch_size]
            mismatch_sum += _cd_grads(b, x_all.take(batch, axis=-2),
                                      train_choices.take(batch, axis=-1),
                                      cfg.cd_k, rng, eye, g)
            if cfg.weight_decay:
                grad[..., :n_weights] -= cfg.weight_decay * theta[..., :n_weights]
            vel *= momentum
            grad *= cfg.learning_rate
            vel += grad
            theta += vel

        rows = theta.reshape(len(live), -1)   # one per fit in the stack
        for pos in np.flatnonzero(~np.isfinite(rows).all(axis=-1)):
            name = next(name for name, arr in b.blocks() if not np.all(
                np.isfinite(arr.reshape(len(live), -1)[pos])))
            diverged[live[pos]] = f"non-finite values in {name} at epoch {epoch}"

        valid_x, valid_choices = (
            (x_all, train_choices) if ds_valid is ds_train
            else (ds_valid.x, ds_valid.choices))
        log_p, predicted = score_choices(b, valid_x, valid_choices)
        scores = [np.ravel(v) for v in (
            -log_p.mean(axis=-1), (predicted != valid_choices).mean(axis=-1),
            mismatch_sum / len(batch_starts))]
        stay, snapshots = [], {}
        for pos, fit in enumerate(live):
            if fit in diverged:
                continue
            trace = traces[fit]
            for series, values in zip((trace.valid_nll, trace.valid_error,
                                       trace.recon_error), scores):
                series.append(float(values[pos]))
            if epoch_hook is not None:
                snapshots[fit] = CrbmParams.from_flat(rows[pos].copy(), *dims)
            if (trace.best_epoch < 0 or trace.valid_error[-1]
                    < trace.valid_error[trace.best_epoch]):
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
            b, g = (ParamBlocks.from_flat(a, *dims) for a in (theta, grad))

    if diverged:
        raise TrainingDivergedError(diverged[min(diverged)])
    fits = [(canonical(CrbmParams.from_flat(t, *dims)), trace)
            for t, trace in zip(best_theta, traces)]
    return fits if stacked else fits[0]

