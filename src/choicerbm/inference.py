"""Choice probabilities, predicted alternatives and latent activations.

At prediction time the observed choice is unknown, so hidden units are
driven by context alone and held at their mean-field activation
h = sigmoid(d + A x).
"""

from dataclasses import dataclass

import numpy as np

from .dataset import ChoiceDataset
from .model import CrbmParams, choice_probs, context_hidden


@dataclass(frozen=True)
class Prediction:
    probs: np.ndarray          # length I, sums to 1
    predicted: int             # 0-based argmax, lowest index on ties
    h_activation: np.ndarray   # length J, in (0, 1)


def predict(p: CrbmParams, x) -> Prediction:
    """Predict one row of already-normalized context values.

    Scale raw inputs with the normalization statistics stored alongside the
    model before calling.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (p.n_features,):
        raise ValueError(f"expected context of length {p.n_features}, got {x.shape}")
    h_act = context_hidden(p, x)
    probs = choice_probs(p, h_act, x)
    return Prediction(probs=probs, predicted=int(probs.argmax()), h_activation=h_act)


def predict_batch(p: CrbmParams, ds: ChoiceDataset):
    """(probs (rows, I), hidden activations (rows, J), I x I confusion
    matrix of (actual, predicted) counts); the prediction is the argmax of
    each row of probs, lowest index on ties."""
    if ds.n_features != p.n_features:
        raise ValueError(
            f"dataset has {ds.n_features} features, model expects {p.n_features}")
    h_act = context_hidden(p, ds.x)
    probs = choice_probs(p, h_act, ds.x)
    confusion = confusion_matrix(ds.choice_indices(), probs.argmax(axis=1),
                                 p.n_alternatives)
    return probs, h_act, confusion


def confusion_matrix(actual, predicted, n_alternatives):
    """I x I counts of (actual, predicted) 0-based index pairs."""
    confusion = np.zeros((n_alternatives,) * 2, dtype=np.int64)
    np.add.at(confusion, (actual, predicted), 1)
    return confusion


def write_predictions_csv(path, probs, h_act, alternative_names):
    """Export batch predictions: row id, per-alternative probs, predicted
    choice (1-based), hidden activations."""
    header = (["row"]
              + [f"p_{name}" for name in alternative_names]
              + ["predicted"]
              + [f"h{j + 1}" for j in range(h_act.shape[1])])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for r, predicted in enumerate(probs.argmax(axis=1).tolist()):
            fh.write(",".join([str(r + 1), *map(repr, probs[r].tolist()),
                               str(predicted + 1),
                               *map(repr, h_act[r].tolist())]) + "\n")
