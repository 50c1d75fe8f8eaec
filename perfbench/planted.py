"""Paper-shape planted model: I = 13 alternatives, K = 20 features, J = 2.

The structure follows `oracle.band_planted_model`: the first feature
drives two opposing hidden units, alternative 1 wins the middle band of
that feature and alternative 2 both tails, so no linear logit can express
the partition and J = 2 has something to find.  The other eleven
alternatives depend linearly on the remaining features, strongly enough
that the default recipe beats the majority class within a few epochs.

The parameters are fixed; the benchmark seed picks the drawn rows, so
every seed poses the same estimation problem on different data.
"""

import numpy as np

from choicerbm.model import CrbmParams
from choicerbm.oracle import ContextSpec, PlantedModel

N_ALTERNATIVES = 13
N_FEATURES = 20
N_HIDDEN = 2


def paper_planted_model(n_rows: int, seed: int) -> PlantedModel:
    strength, slope, left, right = 8.0, 8.0, -0.5, 1.1
    d_w = np.zeros((N_ALTERNATIVES, N_HIDDEN))
    d_w[0] = [strength, strength]
    a_w = np.zeros((N_HIDDEN, N_FEATURES))
    a_w[0, 0] = slope
    a_w[1, 0] = -slope
    hidden_bias = np.array([-slope * right - strength / 2,
                            slope * left - strength / 2])

    def gap(u):
        return np.logaddexp(0, strength + u) - np.logaddexp(0, u)

    def tail_lead(x1):
        return (gap(slope * (x1 - right) - strength / 2)
                + gap(-slope * (x1 - left) - strength / 2))

    bias = np.zeros(N_ALTERNATIVES)
    bias[0] = -0.5 * (tail_lead(left) + tail_lead(right))
    bias[2:] = -3.0
    b_w = np.zeros((N_ALTERNATIVES, N_FEATURES))
    b_w[2:, 1:] = np.random.default_rng(0).normal(
        0.0, 1.0, (N_ALTERNATIVES - 2, N_FEATURES - 1))
    params = CrbmParams(
        choice_hidden_w=d_w, choice_context_w=b_w, hidden_context_w=a_w,
        choice_bias=bias, hidden_bias=hidden_bias)
    context = tuple(ContextSpec("normal") for _ in range(N_FEATURES))
    return PlantedModel(params=params, context=context, n_rows=n_rows,
                        seed=seed)
