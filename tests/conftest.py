import tracemalloc

import numpy as np
import pytest

from choicerbm.dataset import NormStats
from choicerbm.model import CrbmParams, ParamBlocks
from choicerbm.trainer import TrainConfig


def random_params(rng, n_alternatives, n_hidden, n_features, scale=1.0):
    return CrbmParams(
        choice_hidden_w=rng.normal(0, scale, (n_alternatives, n_hidden)),
        choice_context_w=rng.normal(0, scale, (n_alternatives, n_features)),
        hidden_context_w=rng.normal(0, scale, (n_hidden, n_features)),
        choice_bias=rng.normal(0, scale, n_alternatives),
        hidden_bias=rng.normal(0, scale, n_hidden))


def traced_peak(fn, *args):
    """(fn(*args), the peak in bytes of the memory that the call held at
    once, as `tracemalloc` traces it)."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def memory_case(rng, n_rows=20_000):
    """Parameters with I = 13, J = 2 and K = 20, and `n_rows` context rows
    with a choice each: the shape of the memory tests."""
    return (random_params(rng, 13, 2, 20), rng.normal(0, 1, (n_rows, 20)),
            rng.integers(0, 13, n_rows))


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
