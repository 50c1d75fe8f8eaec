"""Choice probabilities, predicted alternatives and latent activations.

At prediction time the observed choice is unknown, so hidden units are
driven by context alone: h = sigmoid(d + A x).  The default path is the
deterministic mean-field activation; a Monte-Carlo path that averages
over sampled binary hidden vectors is available behind a flag.
"""

from dataclasses import dataclass

import numpy as np

from .dataset import ChoiceDataset
from .model import CrbmParams, choice_probs, sigmoid


@dataclass(frozen=True)
class Prediction:
    probs: np.ndarray          # length I, sums to 1
    predicted: int             # 0-based argmax, lowest index on ties
    h_activation: np.ndarray   # length J, in (0, 1)


def _context_hidden(p: CrbmParams, x):
    return sigmoid(p.hidden_bias + np.asarray(x, dtype=np.float64)
                   @ p.hidden_context_w.T)


def _batch_probs(p: CrbmParams, x, rng=None, mc_samples: int = 0):
    h_act = _context_hidden(p, x)
    if mc_samples > 0:
        if rng is None:
            raise ValueError("mc_samples > 0 requires an rng")
        acc = np.zeros(x.shape[:-1] + (p.n_alternatives,))
        for _ in range(mc_samples):
            h_draw = (rng.random(h_act.shape) < h_act).astype(np.float64)
            acc += choice_probs(p, h_draw, x)
        return acc / mc_samples, h_act
    return choice_probs(p, h_act, x), h_act


def predict(p: CrbmParams, x, rng=None, mc_samples: int = 0) -> Prediction:
    """Predict one row of already-normalized context values.

    Scale raw inputs with the normalization statistics stored alongside the
    model before calling.  With `mc_samples > 0` the probabilities average
    over that many sampled hidden vectors instead of the mean-field value.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (p.n_features,):
        raise ValueError(f"expected context of length {p.n_features}, got {x.shape}")
    probs, h_act = _batch_probs(p, x, rng, mc_samples)
    return Prediction(probs=probs, predicted=int(probs.argmax()), h_activation=h_act)


def predict_batch(p: CrbmParams, ds: ChoiceDataset, rng=None, mc_samples: int = 0):
    """Row-wise predictions plus an I x I confusion matrix (actual, predicted)."""
    if ds.n_features != p.n_features:
        raise ValueError(
            f"dataset has {ds.n_features} features, model expects {p.n_features}")
    probs, h_act = _batch_probs(p, ds.x, rng, mc_samples)
    predicted = probs.argmax(axis=1)
    actual = ds.choice_indices()
    n_alt = p.n_alternatives
    confusion = np.zeros((n_alt, n_alt), dtype=np.int64)
    np.add.at(confusion, (actual, predicted), 1)
    preds = [Prediction(probs=probs[r], predicted=int(predicted[r]),
                        h_activation=h_act[r]) for r in range(ds.n_rows)]
    return preds, confusion


def write_predictions_csv(path, preds, alternative_names):
    """Export batch predictions: row id, per-alternative probs, predicted
    choice (1-based), hidden activations."""
    n_hidden = len(preds[0].h_activation) if preds else 0
    header = (["row"]
              + [f"p_{name}" for name in alternative_names]
              + ["predicted"]
              + [f"h{j + 1}" for j in range(n_hidden)])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for r, pr in enumerate(preds):
            cells = [str(r + 1)]
            cells += [repr(float(v)) for v in pr.probs]
            cells.append(str(pr.predicted + 1))
            cells += [repr(float(v)) for v in pr.h_activation]
            fh.write(",".join(cells) + "\n")
