"""A stack of fits in one training loop against the same fits one at a time.

`train_crbm` on `dataset.stack(subsets)` runs all fits together, drawing
each random array once for the whole stack.  Every fit of one config
draws arrays of the same shapes in the same order, so each fit in the
stack must return exactly what a fit of its subset alone returns: the
same parameter bits, best epoch and trace.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choicerbm.dataset import ChoiceDataset, NormStats, from_arrays, stack
from choicerbm.trainer import TrainConfig, TrainingDivergedError, train_crbm


def band_data(seed, n=240, k=3, n_alt=4):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, (n, k))
    logits = x @ rng.normal(0, 1.5, (k, n_alt))
    u = rng.random(n)[:, None]
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    idx = ((probs / probs.sum(axis=1, keepdims=True)).cumsum(axis=1) > u
           ).argmax(axis=1)
    return from_arrays(x, idx, n_alternatives=n_alt)


def subsets(ds, n_fits, n_rows, seed):
    rng = np.random.default_rng(seed)
    return [ds.take(np.sort(rng.choice(ds.n_rows, n_rows, replace=False)))
            for _ in range(n_fits)]


def one_at_a_time(parts, n_hidden, cfg, hooked):
    """Each subset fitted alone, with the snapshots its epoch hook saw."""
    fits = []
    for part in parts:
        seen = []
        params, trace = train_crbm(part, part, n_hidden, cfg,
                                   lambda epoch, p: seen.append((epoch, p)))
        fits.append((params, trace))
        hooked.append(seen)
    return fits


def assert_same_params(a, b):
    for (name, x), (_, y) in zip(a.blocks(), b.blocks()):
        assert x.tobytes() == y.tobytes(), name


@settings(max_examples=40, deadline=None)
@given(n_fits=st.integers(1, 4), n_hidden=st.sampled_from([0, 1, 2]),
       cd_k=st.sampled_from([1, 3]), batch=st.integers(7, 40),
       lr=st.sampled_from([0.05, 0.3, 1.0]),
       weight_decay=st.sampled_from([0.0, 0.01]), patience=st.integers(0, 2),
       epochs=st.integers(1, 12), seed=st.integers(0, 2 ** 16))
def test_each_fit_in_a_stack_equals_its_fit_alone(
        n_fits, n_hidden, cd_k, batch, lr, weight_decay, patience,
        epochs, seed):
    # 150 rows leave a ragged last batch for most batch sizes.
    parts = subsets(band_data(seed % 7), n_fits, 150, seed)
    cfg = TrainConfig(cd_k=cd_k, batch_size=batch, epochs=epochs,
                      learning_rate=lr,
                      weight_decay=weight_decay, early_stop_patience=patience,
                      seed=seed)
    alone_hooked = []
    alone = one_at_a_time(parts, n_hidden, cfg, alone_hooked)

    stacked_ds = stack(parts)
    seen = []
    stacked = train_crbm(stacked_ds, stacked_ds, n_hidden, cfg,
                         lambda epoch, snaps: seen.append((epoch, snaps)))

    assert len(stacked) == n_fits
    for (p, trace), (p_alone, trace_alone) in zip(stacked, alone):
        assert_same_params(p, p_alone)
        assert trace == trace_alone
    # One hook call per epoch of the stack, with the fits still in it.
    assert [epoch for epoch, _ in seen] == list(
        range(max(len(t.valid_error) for _, t in alone)))
    for fit, hooked in enumerate(alone_hooked):
        mine = [(epoch, snaps[fit]) for epoch, snaps in seen if fit in snaps]
        assert [e for e, _ in mine] == [e for e, _ in hooked]
        for (_, a), (_, b) in zip(mine, hooked):
            assert_same_params(a, b)


def test_fits_leave_the_stack_at_different_epochs():
    parts = subsets(band_data(3), 4, 150, seed=11)
    cfg = TrainConfig(batch_size=32, epochs=30, learning_rate=1.0,
                      early_stop_patience=1, seed=5)
    stacked_ds = stack(parts)
    stacked = train_crbm(stacked_ds, stacked_ds, 2, cfg)
    lengths = {len(trace.valid_error) for _, trace in stacked}
    assert len(lengths) > 1 and max(lengths) < cfg.epochs
    for (p, trace), part in zip(stacked, parts):
        p_alone, trace_alone = train_crbm(part, part, 2, cfg)
        assert_same_params(p, p_alone)
        assert trace == trace_alone


def raw_dataset(x, idx):
    """A dataset whose features are used as given, not z-scored."""
    k = x.shape[1]
    return ChoiceDataset(
        x=x, choices=idx, feature_names=tuple(f"f{j}" for j in range(k)),
        alternative_names=("alt1", "alt2"),
        norm_stats=NormStats(means=np.zeros(k), stds=np.ones(k),
                             constant=np.zeros(k, dtype=bool)))


def first_error(parts, n_hidden, cfg):
    """The message of the fits run one after another."""
    with pytest.raises(TrainingDivergedError) as alone:
        for part in parts:
            train_crbm(part, part, n_hidden, cfg)
    return str(alone.value)


# At learning rate 1e6 the MNL fit of these features overflows in the
# first epoch at scale 1e152, in the 16th at 1e151, and never at 1.
@pytest.mark.parametrize("scales, epoch", [
    ((1e152, 1e152), 0),          # every fit diverges in the first epoch
    ((1.0, 1e152, 1.0), 0),       # only the second one does
    ((1e151, 1e152, 1.0), 15),    # the second one first, the first later
])
def test_divergence_raises_the_error_of_the_fits_one_at_a_time(scales, epoch):
    rng = np.random.default_rng(0)
    x = rng.normal(0, 1, (80, 2))
    idx = (rng.random(80) < 0.5).astype(np.int64)
    parts = [raw_dataset(x * s, idx) for s in scales]
    cfg = TrainConfig(batch_size=16, epochs=20, learning_rate=1e6,
                      early_stop_patience=30, seed=2)
    want = first_error(parts, 0, cfg)
    assert want.endswith(f"at epoch {epoch}")
    stacked_ds = stack(parts)
    with pytest.raises(TrainingDivergedError) as got:
        train_crbm(stacked_ds, stacked_ds, 0, cfg)
    assert str(got.value) == want


def test_a_stack_is_validated_on_itself():
    parts = subsets(band_data(1), 2, 100, seed=0)
    stacked_ds = stack(parts)
    with pytest.raises(ValueError, match="validated on itself"):
        train_crbm(stacked_ds, stack(parts), 0, TrainConfig(epochs=1))


def test_stack_rejects_datasets_over_other_variables():
    a = band_data(1, n_alt=3)
    b = from_arrays(a.x, a.choices, n_alternatives=3,
                    feature_names=("p", "q", "r"))
    with pytest.raises(ValueError, match="variables"):
        stack([a, b])
