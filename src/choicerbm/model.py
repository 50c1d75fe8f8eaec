"""Conditional RBM parameterization and elementary model operations.

The model couples a one-hot choice vector y (length I) with binary hidden
units h (length J), conditioned on a clamped context vector x (length K)
that is never reconstructed.  Energy over (y, h):

    energy(y, h) = -y.c - h.d - y' D h

with D the choice-hidden weight matrix.  Context enters only through the
conditionals: the hidden drive gains A x (hidden-context weights) and the
choice drive gains B x (choice-context weights).
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CrbmParams:
    """Immutable snapshot of all estimated parameter blocks.

    Shapes: choice_hidden_w (I, J), choice_context_w (I, K),
    hidden_context_w (J, K), choice_bias (I,), hidden_bias (J,).
    J = 0 collapses the model to a plain multinomial logit.
    """

    choice_hidden_w: np.ndarray
    choice_context_w: np.ndarray
    hidden_context_w: np.ndarray
    choice_bias: np.ndarray
    hidden_bias: np.ndarray

    def __post_init__(self):
        for name in ("choice_hidden_w", "choice_context_w", "hidden_context_w",
                     "choice_bias", "hidden_bias"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        self.validate()

    @property
    def n_alternatives(self) -> int:
        return self.choice_bias.shape[0]

    @property
    def n_hidden(self) -> int:
        return self.hidden_bias.shape[0]

    @property
    def n_features(self) -> int:
        return self.choice_context_w.shape[1]

    def validate(self):
        i, j, k = self.n_alternatives, self.n_hidden, self.n_features
        if i < 2:
            raise ValueError(f"need at least 2 alternatives, got {i}")
        if self.choice_hidden_w.shape != (i, j):
            raise ValueError(
                f"choice_hidden_w shape {self.choice_hidden_w.shape} != ({i}, {j})")
        if self.choice_context_w.shape != (i, k):
            raise ValueError(
                f"choice_context_w shape {self.choice_context_w.shape} != ({i}, {k})")
        if self.hidden_context_w.shape != (j, k):
            raise ValueError(
                f"hidden_context_w shape {self.hidden_context_w.shape} != ({j}, {k})")
        for name in ("choice_hidden_w", "choice_context_w", "hidden_context_w",
                     "choice_bias", "hidden_bias"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"non-finite entries in {name}")

    def blocks(self):
        """(name, array) pairs in a fixed canonical order."""
        return [
            ("choice_hidden_w", self.choice_hidden_w),
            ("choice_context_w", self.choice_context_w),
            ("hidden_context_w", self.hidden_context_w),
            ("choice_bias", self.choice_bias),
            ("hidden_bias", self.hidden_bias),
        ]


@dataclass
class ParamBlocks:
    """Mutable companion to CrbmParams: gradients, standard errors, t values."""

    choice_hidden_w: np.ndarray
    choice_context_w: np.ndarray
    hidden_context_w: np.ndarray
    choice_bias: np.ndarray
    hidden_bias: np.ndarray

    @classmethod
    def zeros_like(cls, p: CrbmParams) -> "ParamBlocks":
        return cls(*(np.zeros_like(arr) for _, arr in p.blocks()))

    def blocks(self):
        return [
            ("choice_hidden_w", self.choice_hidden_w),
            ("choice_context_w", self.choice_context_w),
            ("hidden_context_w", self.hidden_context_w),
            ("choice_bias", self.choice_bias),
            ("hidden_bias", self.hidden_bias),
        ]


@dataclass
class GibbsState:
    """One step of the alternating chain: choice sample plus hidden state."""

    choice: np.ndarray        # one-hot, length I
    hidden_probs: np.ndarray  # length J, in [0, 1]
    hidden_sample: np.ndarray  # length J, in {0, 1}
    context: np.ndarray       # length K, clamped

    def validate(self):
        if not _is_one_hot(self.choice):
            raise ValueError("choice is not one-hot")
        if np.any((self.hidden_probs < 0) | (self.hidden_probs > 1)):
            raise ValueError("hidden_probs outside [0, 1]")
        if not np.all(np.isin(self.hidden_sample, (0.0, 1.0))):
            raise ValueError("hidden_sample not binary")


def _is_one_hot(y) -> bool:
    y = np.asarray(y)
    return bool(np.all((y == 0) | (y == 1)) and np.all(y.sum(axis=-1) == 1))


def _check_choice_dim(p: CrbmParams, y):
    y = np.asarray(y, dtype=np.float64)
    if y.shape[-1] != p.n_alternatives:
        raise ValueError(
            f"choice vector length {y.shape[-1]} != {p.n_alternatives} alternatives")
    return y


def _check_hidden_dim(p: CrbmParams, h):
    h = np.asarray(h, dtype=np.float64)
    if h.shape[-1] != p.n_hidden:
        raise ValueError(
            f"hidden vector length {h.shape[-1]} != {p.n_hidden} hidden units")
    return h


def _check_context_dim(p: CrbmParams, x):
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != p.n_features:
        raise ValueError(
            f"context vector length {x.shape[-1]} != {p.n_features} features")
    return x


def energy(p: CrbmParams, y, h) -> float:
    """Joint energy of a (choice, hidden) configuration.

    Context terms are excluded by construction; they shift the conditionals
    only.  Supports batched inputs via leading axes.
    """
    y = _check_choice_dim(p, y)
    h = _check_hidden_dim(p, h)
    interaction = np.einsum("...i,ij,...j->...", y, p.choice_hidden_w, h)
    val = -(y @ p.choice_bias) - (h @ p.hidden_bias) - interaction
    return float(val) if val.ndim == 0 else val


def free_energy(p: CrbmParams, y):
    """Free energy of a choice vector: -c.y - sum_j softplus((D'y)_j + d_j).

    Hidden units are summed out analytically; softplus is evaluated through
    logaddexp so large drives do not overflow.
    """
    y = _check_choice_dim(p, y)
    drive = y @ p.choice_hidden_w + p.hidden_bias  # (..., J)
    val = -(y @ p.choice_bias) - np.logaddexp(0.0, drive).sum(axis=-1)
    return float(val) if np.ndim(val) == 0 else val


def sigmoid(x):
    """Logistic function 1 / (1 + exp(-x)); saturates to exactly 0 or 1."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def hidden_activation_probs(p: CrbmParams, y, x):
    """P(h_j = 1 | y, x) = sigmoid(d_j + (D'y)_j + (A x)_j), independent per unit."""
    y = _check_choice_dim(p, y)
    x = _check_context_dim(p, x)
    return sigmoid(p.hidden_bias + y @ p.choice_hidden_w + x @ p.hidden_context_w.T)


def choice_logits(p: CrbmParams, h, x):
    h = _check_hidden_dim(p, h)
    x = _check_context_dim(p, x)
    return p.choice_bias + x @ p.choice_context_w.T + h @ p.choice_hidden_w.T


def choice_probs(p: CrbmParams, h, x):
    """P(y = i | h, x): softmax over alternatives of c + B x + D h.

    `h` may be a binary sample or a vector of activation probabilities.
    Computed with max subtraction; output sums to 1 to float precision.
    """
    logits = choice_logits(p, h, x)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def sample_hidden(p: CrbmParams, y, x, rng: np.random.Generator):
    """Draw each hidden unit independently from its activation probability."""
    probs = hidden_activation_probs(p, y, x)
    return (rng.random(probs.shape) < probs).astype(np.float64)


def sample_choice(p: CrbmParams, h, x, rng: np.random.Generator):
    """Draw one alternative from P(y | h, x) and one-hot encode it."""
    probs = choice_probs(p, h, x)
    flat = probs.reshape(-1, p.n_alternatives)
    u = rng.random(flat.shape[0])
    idx = (flat.cumsum(axis=1) > u[:, None]).argmax(axis=1)
    out = np.zeros_like(flat)
    out[np.arange(flat.shape[0]), idx] = 1.0
    return out.reshape(probs.shape)


def param_count(n_alternatives: int, n_hidden: int, n_features: int) -> int:
    """Total estimated parameters: three weight blocks plus both bias vectors."""
    i, j, k = n_alternatives, n_hidden, n_features
    if i < 2 or j < 0 or k < 0:
        raise ValueError("need n_alternatives >= 2, n_hidden >= 0, n_features >= 0")
    return i * j + k * i + k * j + j + i
