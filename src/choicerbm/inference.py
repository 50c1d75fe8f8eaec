"""Choice probabilities, predicted alternatives and latent activations.

At prediction time the observed choice is unknown, so hidden units are
driven by context alone and held at their mean-field activation
h = sigmoid(d + A x).
"""

from .model import CrbmParams, choice_probs, context_hidden


def predict_batch(p: CrbmParams, x):
    """(probs (rows, I), hidden activations (rows, J)) for the rows of `x`,
    already-normalized context values (rows, K); the prediction is the
    argmax of each row of probs, lowest index on ties.

    Scale raw inputs with the normalization statistics stored alongside the
    model before calling.  A width other than K raises ValueError.
    """
    h_act = context_hidden(p, x)
    return choice_probs(p, h_act, x), h_act


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
