"""Choice probabilities, predicted alternatives and latent activations.

Predictions use the exact conditional p(y | x), the hidden units summed
out.  The latent output is their posterior mean given the context alone,
E[h_j | x] = sum_i p(i | x) p(h_j = 1 | i, x).
"""

import csv

import numpy as np

from .model import CrbmParams, choice_probs, hidden_given_choice, row_blocks
from .report import atomic_open


def predict_batch(p: CrbmParams, x):
    """(probs (rows, I), hidden activations E[h | x] (rows, J)) for the
    rows of `x`, already-normalized context values (rows, K); the
    prediction is the argmax of each row of probs, lowest index on ties.

    Scale raw inputs with the normalization statistics stored alongside the
    model before calling.  A width other than K raises ValueError.
    """
    probs = choice_probs(p, x)
    x = np.asarray(x, dtype=np.float64)
    h_act = np.empty(probs.shape[:-1] + (p.n_hidden,))
    for rows in row_blocks(x.shape[-2]):
        h_act[..., rows, :] = (probs[..., rows, :, None] * hidden_given_choice(
            p, x[..., rows, :])).sum(axis=-2)
    return probs, h_act


def write_predictions_csv(path, probs, h_act, alternative_names):
    """Export batch predictions: row id, per-alternative probs, predicted
    choice (1-based), hidden activations, under a `csv` header row.  A
    failed write leaves `path` as it was (`report.atomic_open`)."""
    header = (["row"]
              + [f"p_{name}" for name in alternative_names]
              + ["predicted"]
              + [f"h{j + 1}" for j in range(h_act.shape[1])])
    with atomic_open(path) as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for r, predicted in enumerate(probs.argmax(axis=1).tolist()):
            fh.write(",".join([str(r + 1), *map(repr, probs[r].tolist()),
                               str(predicted + 1),
                               *map(repr, h_act[r].tolist())]) + "\n")
