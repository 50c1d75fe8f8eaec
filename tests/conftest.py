import contextlib
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from choicerbm import sensitivity
from choicerbm.dataset import NormStats
from choicerbm.inference import predict_batch
from choicerbm.model import CrbmParams, ParamBlocks
from choicerbm.trainer import TrainConfig, TrainingDivergedError, train_crbm

# Hypothesis's pytest plugin imports `hypothesis.extra._patching` to report
# a failing example.  Where libcst is installed, that import reaches the
# deprecated `mypy_extensions.TypedDict`, and under
# `-W error::DeprecationWarning` its warning turns the failure report into an
# INTERNALERROR.  Imported once here, with deprecations ignored for that
# import alone, the module is already loaded when the plugin asks for it.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


def random_params(rng, n_alternatives, n_hidden, n_features, scale=1.0):
    return CrbmParams(
        choice_hidden_w=rng.normal(0, scale, (n_alternatives, n_hidden)),
        choice_context_w=rng.normal(0, scale, (n_alternatives, n_features)),
        hidden_context_w=rng.normal(0, scale, (n_hidden, n_features)),
        choice_bias=rng.normal(0, scale, n_alternatives),
        hidden_bias=rng.normal(0, scale, n_hidden))


def miss_rate(p, ds):
    """Share of the rows of `ds` whose choice is not the argmax of the
    probabilities that `predict_batch` prints: the validation error."""
    return float(np.mean(predict_batch(p, ds.x)[0].argmax(axis=1)
                         != ds.choices))


def traced_peak(fn, *args):
    """(fn(*args), the peak in bytes of the memory that the call held at
    once, as `tracemalloc` traces it)."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_compared_by_identity(one, other):
    """`one` equals itself and not `other`, and both hash: two distinct
    instances, even of equal arrays, are two members of a set."""
    assert one == one and one != other and not one == other
    assert len({one, other, one}) == 2


def memory_case(rng, n_rows=20_000):
    """Parameters with I = 13, J = 2 and K = 20, and `n_rows` context rows
    with a choice each: the shape of the memory tests."""
    return (random_params(rng, 13, 2, 20), rng.normal(0, 1, (n_rows, 20)),
            rng.integers(0, 13, n_rows))


def tied_case():
    """An MNL (I = 3, J = 0, K = 1) whose first two alternatives' weights
    are one ulp apart, and 4,000 rows near x = 3, each choosing the first:
    on a few rows the top two probabilities round to a tie in float64 while
    the log-probabilities do not."""
    weights = np.array([[1.0], [np.nextafter(1.0, 2.0)], [0.0]])
    p = CrbmParams(np.zeros((3, 0)), weights, np.zeros((0, 1)), np.zeros(3),
                   np.zeros(0))
    x = 3 + np.random.default_rng(0).normal(0, 1, (4000, 1))
    return p, x, np.zeros(4000, dtype=int)


def zero_blocks(p):
    """`ParamBlocks` of zeros in the shapes of the blocks of `p`."""
    return ParamBlocks(*(np.zeros_like(arr) for _, arr in p.blocks()))


def model_record(p, **fields):
    """`save_model`'s metadata arguments for `p`: a complete record of
    placeholder values, with `fields` in place of the defaults."""
    k = p.n_features
    record = dict(
        norm_stats=NormStats(means=np.zeros(k), stds=np.ones(k),
                             constant=np.zeros(k, dtype=bool)),
        feature_names=tuple(f"f{i + 1}" for i in range(k)),
        alternative_names=tuple(f"alt{i + 1}"
                                for i in range(p.n_alternatives)),
        train_config=TrainConfig(),
        metrics={"split_fraction": 0.7, "split_seed": 0},
        std_errs=zero_blocks(p), tstats=zero_blocks(p),
        choice_column="choice")
    return {**record, **fields}


@pytest.fixture
def rng():
    return np.random.default_rng(20240813)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def spy_by_half(monkeypatch, full=None, replicates=None):
    """Make `sensitivity_run`'s full-sample fit, which runs in a forked
    child, call `full` first, and its replicate stack, in this process,
    call `replicates`; either half runs the real fit alone when None."""
    parent = os.getpid()

    def spy(ds_train, ds_valid, n_hidden, cfg):
        action = full if os.getpid() != parent else replicates
        if action is not None:
            action()
        return train_crbm(ds_train, ds_valid, n_hidden, cfg)

    monkeypatch.setattr(sensitivity, "train_crbm", spy)


def diverging(where):
    """An action for `spy_by_half` that fails as a diverged fit would."""
    def action():
        raise TrainingDivergedError(f"non-finite values ({where})")
    return action
