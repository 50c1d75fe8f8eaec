"""The training loop against a dict-based reference implementation.

The reference below is the straightforward per-block loop: it fancy-indexes
every minibatch, keeps one dict entry per parameter block and scores each
split with separate passes.  The package loop keeps the blocks in one flat
vector and reuses work across those steps, but performs the same floating
point operations in the same order, so parameters and every trace entry
must agree exactly, not merely to a tolerance.
"""

import numpy as np
import pytest

from choicerbm import oracle
from choicerbm.dataset import from_arrays
from choicerbm.model import (BLOCK_NAMES, BLOCK_ROWS, CrbmParams, canonical,
                             sigmoid)
from choicerbm.trainer import (MOMENTUM_FINAL, MOMENTUM_INITIAL,
                               MOMENTUM_SWITCH_EPOCH, TrainConfig, TrainTrace,
                               cd_step, train_crbm)
from conftest import random_params

WEIGHT_BLOCKS = {"choice_hidden_w", "choice_context_w", "hidden_context_w"}


def init_param_arrays(n_alternatives, n_hidden, n_features, class_counts,
                      scale, rng):
    counts = np.maximum(np.asarray(class_counts, dtype=np.float64), 1.0)
    return {
        "choice_hidden_w": rng.normal(0.0, scale, size=(n_alternatives, n_hidden)),
        "choice_context_w": rng.normal(0.0, scale, size=(n_alternatives, n_features)),
        "hidden_context_w": rng.normal(0.0, scale, size=(n_hidden, n_features)),
        "choice_bias": np.log(counts / counts.sum()),
        "hidden_bias": np.zeros(n_hidden),
    }


def _softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _log_probs(b, x):
    """log p(y | x), the hidden units summed out, in the package's order of
    operations: the softplus of each hidden unit's drive joins the logits
    one unit at a time."""
    logits = x @ b["choice_context_w"].T + b["choice_bias"]
    hidden = x @ b["hidden_context_w"].T + b["hidden_bias"]
    for j in range(hidden.shape[1]):
        u = hidden[:, j, None] + b["choice_hidden_w"][:, j]
        logits = logits + (np.maximum(u, 0.0) + np.log1p(np.exp(-np.abs(u))))
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _mean_nll(b, ds):
    log_probs = _log_probs(b, ds.x)
    return float(-log_probs[np.arange(ds.n_rows), ds.choices].mean())


def _error_rate(b, ds):
    predicted = _log_probs(b, ds.x).argmax(axis=1)
    return float(np.mean(predicted != ds.choices))


def _cd_batch_grads(b, xb, yb, cd_k, rng):
    n = xb.shape[0]
    hidden_drive = xb @ b["hidden_context_w"].T + b["hidden_bias"]
    choice_drive = xb @ b["choice_context_w"].T + b["choice_bias"]
    h_pos = sigmoid(hidden_drive + yb @ b["choice_hidden_w"])
    y_neg = yb
    for _ in range(cd_k):
        h_probs = sigmoid(hidden_drive + y_neg @ b["choice_hidden_w"])
        h_neg = (rng.random(h_probs.shape) < h_probs).astype(np.float64)
        probs = _softmax(choice_drive + h_neg @ b["choice_hidden_w"].T)
        u = rng.random(n)
        idx = (probs.cumsum(axis=1) > u[:, None]).argmax(axis=1)
        y_neg = np.zeros_like(probs)
        y_neg[np.arange(n), idx] = 1.0
    grads = {
        "choice_hidden_w": (yb.T @ h_pos - y_neg.T @ h_neg) / n,
        "choice_context_w": (yb - y_neg).T @ xb / n,
        "hidden_context_w": (h_pos - h_neg).T @ xb / n,
        "choice_bias": (yb - y_neg).mean(axis=0),
        "hidden_bias": (h_pos - h_neg).mean(axis=0),
    }
    mismatch = float(np.mean(y_neg.argmax(axis=1) != yb.argmax(axis=1)))
    return grads, mismatch


def _mnl_batch_grads(b, xb, yb):
    n = xb.shape[0]
    probs = _softmax(xb @ b["choice_context_w"].T + b["choice_bias"])
    resid = yb - probs
    grads = {
        "choice_hidden_w": np.zeros_like(b["choice_hidden_w"]),
        "choice_context_w": resid.T @ xb / n,
        "hidden_context_w": np.zeros_like(b["hidden_context_w"]),
        "choice_bias": resid.mean(axis=0),
        "hidden_bias": np.zeros_like(b["hidden_bias"]),
    }
    mismatch = float(1.0 - probs[np.arange(n), yb.argmax(axis=1)].mean())
    return grads, mismatch


def reference_fit(ds_train, ds_valid, n_hidden, cfg, epoch_hook=None):
    rng = np.random.default_rng(cfg.seed)
    n = ds_train.n_rows
    b = init_param_arrays(
        ds_train.n_alternatives, n_hidden, ds_train.n_features,
        ds_train.y.sum(axis=0), cfg.weight_init_scale, rng)
    vel = {name: np.zeros_like(arr) for name, arr in b.items()}
    trace = TrainTrace()
    best_error, best_params = np.inf, None
    for epoch in range(cfg.epochs):
        momentum = (MOMENTUM_INITIAL if epoch < MOMENTUM_SWITCH_EPOCH
                    else MOMENTUM_FINAL)
        perm = rng.permutation(n)
        mismatch_sum, n_batches = 0.0, 0
        for start in range(0, n, cfg.batch_size):
            rows = perm[start:start + cfg.batch_size]
            xb, yb = ds_train.x[rows], ds_train.y[rows]
            if n_hidden > 0:
                grads, mismatch = _cd_batch_grads(b, xb, yb, cfg.cd_k, rng)
            else:
                grads, mismatch = _mnl_batch_grads(b, xb, yb)
            for name in BLOCK_NAMES:
                g = grads[name]
                if cfg.weight_decay and name in WEIGHT_BLOCKS:
                    g = g - cfg.weight_decay * b[name]
                vel[name] = momentum * vel[name] + cfg.learning_rate * g
                b[name] = b[name] + vel[name]
            mismatch_sum += mismatch
            n_batches += 1
        trace.train_nll.append(_mean_nll(b, ds_train))
        trace.valid_nll.append(_mean_nll(b, ds_valid))
        trace.valid_error.append(_error_rate(b, ds_valid))
        trace.recon_error.append(mismatch_sum / n_batches)
        if epoch_hook is not None:
            epoch_hook(epoch, {k: v.copy() for k, v in b.items()})
        if trace.valid_error[-1] < best_error:
            best_error = trace.valid_error[-1]
            trace.best_epoch = epoch
            best_params = {k: v.copy() for k, v in b.items()}
        elif epoch - trace.best_epoch > cfg.early_stop_patience:
            break
    return best_params, trace


@pytest.fixture(scope="module")
def band_split():
    pm = oracle.band_planted_model(n_rows=900, seed=5)
    x_raw, idx = oracle.draw_rows(pm)
    ds = from_arrays(x_raw, idx, n_alternatives=pm.params.n_alternatives)
    return ds.take(np.arange(700)), ds.take(np.arange(700, 900))


def assert_same_fit(params, trace, ref_params, ref_trace):
    # `train_crbm` returns the kept snapshot in the reference gauge.
    ref = canonical(CrbmParams(**ref_params))
    for (name, arr), (_, ref_arr) in zip(params.blocks(), ref.blocks()):
        assert np.array_equal(arr, ref_arr), name
    for name in ("train_nll", "valid_nll", "valid_error", "recon_error"):
        assert getattr(trace, name) == getattr(ref_trace, name), name
    assert trace.best_epoch == ref_trace.best_epoch


@pytest.mark.parametrize("n_hidden", [0, 2])
@pytest.mark.parametrize("cfg", [
    TrainConfig(epochs=6, batch_size=64, learning_rate=0.05, seed=3),
    TrainConfig(epochs=6, batch_size=50, learning_rate=0.05, cd_k=3, seed=4,
                weight_init_scale=0.5),
    TrainConfig(epochs=6, batch_size=64, learning_rate=0.2, cd_k=3, seed=8,
                weight_decay=0.01),
], ids=["cd1", "cd3-ragged-batch", "cd3-decay"])
def test_fit_matches_reference(band_split, n_hidden, cfg):
    train, valid = band_split
    params, trace = train_crbm(train, valid, n_hidden, cfg)
    assert_same_fit(params, trace, *reference_fit(train, valid, n_hidden, cfg))


@pytest.fixture(scope="module")
def long_split():
    """2,600 training and 1,100 validation rows: both splits are scored in
    more than one row block, the last one ragged."""
    pm = oracle.band_planted_model(n_rows=3_700, seed=9)
    x_raw, idx = oracle.draw_rows(pm)
    ds = from_arrays(x_raw, idx, n_alternatives=pm.params.n_alternatives)
    return ds.take(np.arange(2_600)), ds.take(np.arange(2_600, 3_700))


@pytest.mark.parametrize("n_hidden", [0, 2])
def test_fit_across_row_blocks_matches_reference(long_split, n_hidden):
    train, valid = long_split
    assert train.n_rows > 2 * BLOCK_ROWS and train.n_rows % BLOCK_ROWS
    assert valid.n_rows > BLOCK_ROWS
    cfg = TrainConfig(epochs=4, batch_size=64, learning_rate=0.05, cd_k=2,
                      seed=12)
    params, trace = train_crbm(train, valid, n_hidden, cfg)
    assert_same_fit(params, trace, *reference_fit(train, valid, n_hidden, cfg))


def test_early_stop_matches_reference(band_split):
    train, valid = band_split
    cfg = TrainConfig(epochs=60, learning_rate=0.3, early_stop_patience=1,
                      seed=2)
    params, trace = train_crbm(train, valid, 2, cfg)
    ref_params, ref_trace = reference_fit(train, valid, 2, cfg)
    assert len(trace.valid_error) < cfg.epochs
    assert_same_fit(params, trace, ref_params, ref_trace)


def test_mnl_matches_reference(band_split):
    train, valid = band_split
    cfg = TrainConfig(epochs=5, learning_rate=0.05, seed=6)
    params, trace = train_crbm(train, valid, 0, cfg)
    assert_same_fit(params, trace, *reference_fit(train, valid, 0, cfg))


def test_epoch_hook_snapshots_match_reference(band_split):
    train, valid = band_split
    cfg = TrainConfig(epochs=4, learning_rate=0.05, seed=7)
    seen, ref_seen = [], []
    train_crbm(train, valid, 2, cfg,
               epoch_hook=lambda epoch, p: seen.append((epoch, p)))
    reference_fit(train, valid, 2, cfg,
                  epoch_hook=lambda epoch, b: ref_seen.append((epoch, b)))
    assert [e for e, _ in seen] == [e for e, _ in ref_seen] == [0, 1, 2, 3]
    for (_, p), (_, ref) in zip(seen, ref_seen):
        for name, arr in p.blocks():
            assert np.array_equal(arr, ref[name]), name


@pytest.mark.parametrize("cd_k", [1, 3])
def test_cd_step_matches_reference(rng, cd_k):
    p = random_params(rng, 5, 3, 4, scale=0.7)
    ds = from_arrays(rng.normal(0, 1, (40, 4)), rng.integers(0, 5, 40),
                     n_alternatives=5)
    grads = cd_step(p, (ds.x, ds.y), TrainConfig(cd_k=cd_k),
                    np.random.default_rng(11))
    ref, _ = _cd_batch_grads(dict(p.blocks()), ds.x, ds.y, cd_k,
                             np.random.default_rng(11))
    for name, arr in grads.blocks():
        assert np.array_equal(arr, ref[name]), name
