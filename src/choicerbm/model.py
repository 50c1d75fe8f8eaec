"""Conditional RBM parameterization and elementary model operations.

The model couples a one-hot choice vector y (length I) with binary hidden
units h (length J), conditioned on a clamped context vector x (length K)
that is never reconstructed.  Energy over (y, h):

    energy(y, h) = -y.c - h.d - y' D h

with D the choice-hidden weight matrix.  Context enters only through the
conditionals: the hidden drive gains A x (hidden-context weights) and the
choice drive gains B x (choice-context weights).  The hidden units sum out
of p(y | x) in closed form, so `choice_probs` is the exact conditional
(Larochelle & Bengio, ICML 2008); its argmax is the one prediction rule.
The fields of `ParamBlocks` declare the five parameter blocks once, and
`CrbmParams` adds validation.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

# The alternative whose c, B and D entries `canonical` fixes at zero,
# 1-based as in choice columns and model files.
REFERENCE_ALTERNATIVE = 1

# Rows computed at once by each pass over all rows (`row_blocks`).
BLOCK_ROWS = 1024


def block_shapes(i: int, j: int, k: int) -> tuple:
    """Shapes of the blocks in BLOCK_NAMES order: D (I, J), B (I, K),
    A (J, K), c (I,) and d (J,)."""
    return (i, j), (i, k), (j, k), (i,), (j,)


@dataclass(frozen=True)
class ParamBlocks:
    """The blocks D, B, A, c and d, shaped as `block_shapes` says, of the
    parameters or of a per-parameter quantity (gradients, standard errors,
    t values).  Fields cannot be rebound; arrays can be written in place.
    """

    choice_hidden_w: np.ndarray
    choice_context_w: np.ndarray
    hidden_context_w: np.ndarray
    choice_bias: np.ndarray
    hidden_bias: np.ndarray

    @property
    def n_alternatives(self) -> int:
        return self.choice_bias.shape[-1]

    @property
    def n_hidden(self) -> int:
        return self.hidden_bias.shape[-1]

    @property
    def n_features(self) -> int:
        return self.choice_context_w.shape[-1]

    def blocks(self):
        """(name, array) pairs in BLOCK_NAMES order."""
        return [(name, getattr(self, name)) for name in BLOCK_NAMES]

    @classmethod
    def from_flat(cls, flat, i, j, k, batched=False):
        """Blocks as views of a flat vector laid out in BLOCK_NAMES order.

        Leading axes of `flat` carry over to every block, one parameter
        set per index.  With `batched`, each bias block gains a unit axis
        before its last, so that every block broadcasts against a batch of
        rows (..., rows, n).
        """
        shapes = block_shapes(i, j, k)
        parts = np.split(flat, np.cumsum([math.prod(s) for s in shapes[:-1]]),
                         axis=-1)
        return cls(*(part.reshape(flat.shape[:-1] + (
            (1, *s) if batched and len(s) == 1 else s), copy=False)
            for part, s in zip(parts, shapes)))


# Block names in canonical order, weights first: the layout of flat
# parameter vectors and model files.
BLOCK_NAMES = tuple(f.name for f in fields(ParamBlocks))


@dataclass(frozen=True)
class CrbmParams(ParamBlocks):
    """Immutable, validated snapshot of all estimated parameter blocks,
    with read-only arrays.  J = 0 collapses the model to a plain
    multinomial logit.
    """

    def __post_init__(self):
        for name in BLOCK_NAMES:
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        self.validate()

    def validate(self):
        try:
            i, j, k = self.n_alternatives, self.n_hidden, self.n_features
        except IndexError:
            raise ValueError("a parameter block has too few axes") from None
        if i < 2:
            raise ValueError(f"need at least 2 alternatives, got {i}")
        for (name, arr), shape in zip(self.blocks(), block_shapes(i, j, k)):
            if arr.shape != shape:
                raise ValueError(f"{name} shape {arr.shape} != {shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite entries in {name}")


def _check_context_dim(p: CrbmParams, x):
    """`x` as float64, after checking that its last axis has K entries."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != p.n_features:
        raise ValueError(f"context vector length {x.shape[-1]} != "
                         f"{p.n_features} features")
    return x


def sigmoid(x):
    """Logistic function 1 / (1 + exp(-x)); saturates to exactly 0 or 1."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def choice_logits(p: CrbmParams, x):
    """Unnormalized log p(y = i | x), the hidden units summed out:
    c_i + B_i x + sum_j softplus(d_j + A_j x + D_ij).

    Softplus is max(u, 0) + log1p(exp(-|u|)), so no drive overflows.  `p`
    may hold batched blocks (`from_flat(..., batched=True)`) whose leading
    axes match those of `x` before its rows.
    """
    x = _check_context_dim(p, x)
    if x.ndim == 1:
        return choice_logits(p, x[None])[0]
    logits = x @ p.choice_context_w.mT + p.choice_bias
    hidden = x @ p.hidden_context_w.mT + p.hidden_bias   # (..., rows, J)
    for j in range(p.n_hidden):   # in place: each temporary costs time
        u = hidden[..., j, None] + p.choice_hidden_w[..., None, :, j]
        tail = np.abs(u)
        np.exp(np.negative(tail, out=tail), out=tail)
        logits += np.maximum(u, 0.0, out=u) + np.log1p(tail, out=tail)
    return logits


def hidden_given_choice(p: CrbmParams, x):
    """p(h_j = 1 | y = i, x) = sigmoid(d_j + A_j x + D_ij), shaped
    (..., I, J), one row per alternative; `p` may be batched, as above."""
    x = _check_context_dim(p, x)
    hidden = x @ p.hidden_context_w.mT + p.hidden_bias
    return sigmoid(hidden[..., None, :] + p.choice_hidden_w[..., None, :, :])


def normalize(logits):
    """(log p, p) over the last axis of `logits`, from one max subtraction
    and one `exp`; finite logits never give a log-probability of -inf."""
    log_probs = logits - logits.max(axis=-1, keepdims=True)
    probs = np.exp(log_probs)
    total = probs.sum(axis=-1, keepdims=True)
    probs /= total
    log_probs -= np.log(total)
    return log_probs, probs


def row_blocks(n_rows):
    """Slices of BLOCK_ROWS rows, in order, that cover `n_rows` rows; a last
    single row joins the block before it, since numpy would multiply it as
    a matrix-vector product, whose sums can round otherwise."""
    starts = list(range(0, n_rows - (n_rows > 1), BLOCK_ROWS))
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [n_rows])]


def choice_probs(p: CrbmParams, x):
    """p(y = i | x), as `predict` prints it, with the bits of one pass,
    filled by `row_blocks`; a single block's result is returned as it is.
    Its argmax, lowest index on ties, is the model's one prediction rule."""
    x = _check_context_dim(p, x)
    blocks = row_blocks(x.shape[-2]) if x.ndim > 1 else []
    if len(blocks) <= 1:
        return normalize(choice_logits(p, x))[1]
    out = np.empty(np.broadcast_shapes(x.shape[:-1], p.choice_bias.shape[:-1])
                   + (p.n_alternatives,))
    for rows in blocks:
        out[..., rows, :] = normalize(choice_logits(p, x[..., rows, :]))[1]
    return out


def score_choices(p: CrbmParams, x, choices):
    """(log p(y_obs | x), argmax_i p(i | x)) per row of `x` for the 0-based
    observed `choices` (..., rows), from both outputs of `normalize`, the
    probabilities as `choice_probs` gives them, one block at a time
    (`row_blocks`); `p` may be batched, as in `choice_logits`.  A row whose
    log-probabilities are not all finite, as when a logit overflows
    float64, scores NaN."""
    x = _check_context_dim(p, x)
    observed, predicted = np.empty(choices.shape), np.empty(choices.shape, int)
    for rows in row_blocks(choices.shape[-1]):
        log_probs, probs = normalize(choice_logits(p, x[..., rows, :]))
        observed[..., rows] = np.take_along_axis(
            log_probs, choices[..., rows, None], axis=-1)[..., 0]
        if not np.isfinite(log_probs).all():   # rare: look row by row
            observed[..., rows][~np.isfinite(log_probs).all(axis=-1)] = np.nan
        predicted[..., rows] = probs.argmax(axis=-1)
        del log_probs, probs   # freed before the next block's forward pass
    return observed, predicted


def sample_categorical(probs, rng: np.random.Generator):
    """One 0-based index per row of `probs` (..., rows, I), drawn by
    inverting the row's cumulative sum at one `rng.random` draw per row.
    The draws are shared by all leading indices.  A draw at or above a
    row's sum, which can round below 1, picks the last alternative."""
    u = rng.random(probs.shape[-2])
    cumulative = probs.cumsum(axis=-1)
    cumulative[..., -1] = np.inf
    return (cumulative > u[:, None]).argmax(axis=-1)


def canonical(p: CrbmParams) -> CrbmParams:
    """`p` in the reference-alternative gauge: the reference alternative's
    entries of c, B and D (row r) are subtracted from every alternative, and
    D_rj is added to d_j.  p(y | x) is unchanged up to rounding, because the
    logits shift by one amount per row and every softplus(d_j + A_j x +
    D_ij) keeps its argument; the likelihood's K + 1 + J exact null
    directions are zeroed.  A shift that overflows float64 raises ValueError.
    """
    r = REFERENCE_ALTERNATIVE - 1
    with np.errstate(over="ignore"):
        blocks = (p.choice_hidden_w - p.choice_hidden_w[r],
                  p.choice_context_w - p.choice_context_w[r],
                  p.hidden_context_w, p.choice_bias - p.choice_bias[r],
                  p.hidden_bias + p.choice_hidden_w[r])
    if not all(np.isfinite(arr).all() for arr in blocks):
        raise ValueError("reference-gauge shift overflows: the parameters are "
                         "too large")
    return CrbmParams(*blocks)


def in_reference_gauge(p: CrbmParams) -> bool:
    """Whether the reference alternative's entries of c, B and D are zero,
    as `canonical` leaves them."""
    r = REFERENCE_ALTERNATIVE - 1
    return not (p.choice_bias[r] or p.choice_context_w[r].any()
                or p.choice_hidden_w[r].any())


def param_count(n_alternatives: int, n_hidden: int, n_features: int) -> int:
    """Total estimated parameters: three weight blocks plus both bias vectors."""
    i, j, k = n_alternatives, n_hidden, n_features
    if i < 2 or j < 0 or k < 0:
        raise ValueError("need n_alternatives >= 2, n_hidden >= 0, n_features >= 0")
    return sum(math.prod(s) for s in block_shapes(i, j, k))
