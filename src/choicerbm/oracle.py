"""Brute-force reference computations and synthetic data generation.

The reference computations enumerate the hidden state space explicitly,
so they are only usable for small models (I <= 16, J <= 12), and they
alone carry that cap.  Generation draws from the model's own closed-form
p(y | x), `model.choice_probs`, so a planted model of any size can be
sampled.  Of the rest of the package only the `generate` command calls
into this module; tests use it as an independent check.
"""

import json
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .dataset import ChoiceDataset, from_arrays
from .model import (BLOCK_NAMES, CrbmParams, ParamBlocks, _checked,
                    choice_probs, sample_categorical)
from .report import atomic_open

MAX_HIDDEN = 12
MAX_ALTERNATIVES = 16


def energy(p: CrbmParams, y, h) -> float:
    """Joint energy of a (choice, hidden) configuration.

    Context terms are excluded by construction; they shift the conditionals
    only.  Supports batched inputs via leading axes.
    """
    y = _checked(y, p.n_alternatives, "choice", "alternatives")
    h = _checked(h, p.n_hidden, "hidden", "hidden units")
    interaction = np.einsum("...i,ij,...j->...", y, p.choice_hidden_w, h)
    val = -(y @ p.choice_bias) - (h @ p.hidden_bias) - interaction
    return float(val) if val.ndim == 0 else val


def _hidden_table(n_hidden: int) -> np.ndarray:
    """All 2^J binary hidden configurations, one per row."""
    bits = np.arange(2 ** n_hidden)[:, None] >> np.arange(n_hidden)[None, :]
    return (bits & 1).astype(np.float64)


def _check_enumerable(p: CrbmParams):
    if p.n_hidden > MAX_HIDDEN:
        raise ValueError(f"enumeration capped at {MAX_HIDDEN} hidden units")
    if p.n_alternatives > MAX_ALTERNATIVES:
        raise ValueError(f"enumeration capped at {MAX_ALTERNATIVES} alternatives")


def _joint_log_weights(p: CrbmParams, x) -> np.ndarray:
    """Unnormalized log p(y=i, h | x) over all (i, h) pairs.

    Returns an array of shape (..., I, 2^J); x may carry leading batch axes.
    """
    x = np.asarray(x, dtype=np.float64)
    h_tab = _hidden_table(p.n_hidden)                      # (H, J)
    choice_drive = p.choice_bias + x @ p.choice_context_w.T    # (..., I)
    hidden_drive = p.hidden_bias + x @ p.hidden_context_w.T    # (..., J)
    pair = p.choice_hidden_w @ h_tab.T                         # (I, H)
    return choice_drive[..., :, None] + pair + (hidden_drive @ h_tab.T)[..., None, :]


def exact_choice_distribution(p: CrbmParams, x) -> np.ndarray:
    """P(y = i | x) by summing the joint over every hidden configuration.

    Conditions on the clamped context; supports batched x via leading axes.
    """
    _check_enumerable(p)
    lw = _joint_log_weights(p, x)                # (..., I, H)
    log_marg = logsumexp(lw, axis=-1)            # (..., I)
    log_z = logsumexp(log_marg, axis=-1, keepdims=True)
    return np.exp(log_marg - log_z)


def exact_conditional_loglik(p: CrbmParams, ds: ChoiceDataset) -> float:
    """Sum over rows of log P(y_obs | x), hidden states enumerated."""
    probs = exact_choice_distribution(p, ds.x)
    return float(np.log(probs[np.arange(ds.n_rows), ds.choice_indices()]).sum())


def exact_loglik_gradient(p: CrbmParams, ds: ChoiceDataset) -> ParamBlocks:
    """Exact gradient of sum_rows log P(y_obs | x) over all five blocks.

    Positive phase averages over p(h | y_obs, x); negative phase averages
    over the full joint p(y, h | x).  Both by enumeration.
    """
    _check_enumerable(p)
    grads = ParamBlocks.zeros_like(p)
    h_tab = _hidden_table(p.n_hidden)
    eye = np.eye(p.n_alternatives)
    obs_idx = ds.choice_indices()
    for row in range(ds.n_rows):
        x = ds.x[row]
        obs = int(obs_idx[row])
        lw = _joint_log_weights(p, x)            # (I, H)
        log_z = logsumexp(lw)
        joint = np.exp(lw - log_z)               # p(y, h | x)
        post = np.exp(lw[obs] - logsumexp(lw[obs]))  # p(h | y_obs, x)

        h_pos = post @ h_tab                     # E[h | y_obs, x]
        h_neg = joint @ h_tab                    # (I, J): sum_h p(y_i, h) h
        y_neg = joint.sum(axis=1)                # p(y_i | x)

        grads.choice_bias += eye[obs] - y_neg
        grads.hidden_bias += h_pos - h_neg.sum(axis=0)
        grads.choice_hidden_w += np.outer(eye[obs], h_pos) - h_neg
        grads.choice_context_w += np.outer(eye[obs] - y_neg, x)
        grads.hidden_context_w += np.outer(h_pos - h_neg.sum(axis=0), x)
    return grads


def finite_difference_gradient(p: CrbmParams, ds: ChoiceDataset,
                               step: float = 1e-5) -> ParamBlocks:
    """Central finite differences of the exact conditional log-likelihood."""
    dims = (p.n_alternatives, p.n_hidden, p.n_features)
    theta = np.concatenate([arr.ravel() for _, arr in p.blocks()])
    grad = np.empty_like(theta)
    for idx in range(theta.size):
        loglik = []
        for delta in (step, -step):
            t = theta.copy()
            t[idx] += delta
            loglik.append(exact_conditional_loglik(
                CrbmParams.from_flat(t, *dims), ds))
        grad[idx] = (loglik[0] - loglik[1]) / (2 * step)
    return ParamBlocks.from_flat(grad, *dims)


@dataclass(frozen=True)
class ContextSpec:
    """Distribution of one context feature: gaussian or bernoulli."""

    kind: str  # "normal" or "bernoulli"
    mean: float = 0.0
    std: float = 1.0
    rate: float = 0.5

    def validate(self):
        if self.kind not in ("normal", "bernoulli"):
            raise ValueError(f"unknown context kind {self.kind!r}")
        if self.kind == "normal" and self.std < 0:
            raise ValueError("std must be non-negative")
        if self.kind == "bernoulli" and not 0 <= self.rate <= 1:
            raise ValueError("rate must be in [0, 1]")


@dataclass(frozen=True)
class PlantedModel:
    """Ground-truth parameters plus a context distribution for data synthesis."""

    params: CrbmParams
    context: tuple  # one ContextSpec per feature
    n_rows: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "context", tuple(self.context))
        self.validate()

    def validate(self):
        if len(self.context) != self.params.n_features:
            raise ValueError("one context spec per feature required")
        for spec in self.context:
            spec.validate()
        if self.n_rows < 1:
            raise ValueError("n_rows must be positive")


def draw_context(pm: PlantedModel, rng: np.random.Generator) -> np.ndarray:
    cols = []
    for spec in pm.context:
        if spec.kind == "normal":
            cols.append(rng.normal(spec.mean, spec.std, size=pm.n_rows))
        else:
            cols.append((rng.random(pm.n_rows) < spec.rate).astype(np.float64))
    return np.column_stack(cols) if cols else np.zeros((pm.n_rows, 0))


def draw_rows(pm: PlantedModel):
    """(raw context matrix, 0-based choice indices) drawn from the planted model."""
    rng = np.random.default_rng(pm.seed)
    x_raw = draw_context(pm, rng)
    return x_raw, sample_categorical(choice_probs(pm.params, x_raw), rng)


def generate(pm: PlantedModel) -> ChoiceDataset:
    """Synthesize a normalized dataset from the planted model, seeded."""
    x_raw, idx = draw_rows(pm)
    return from_arrays(x_raw, idx, n_alternatives=pm.params.n_alternatives)


def write_dataset_csv(pm: PlantedModel, path, choice_column: str = "choice"):
    """Write raw draws as a standard dataset CSV (1-based choice column).
    A failed write leaves `path` as it was (`report.atomic_open`)."""
    x_raw, idx = draw_rows(pm)
    names = [f"f{j + 1}" for j in range(pm.params.n_features)]
    with atomic_open(path) as fh:
        fh.write(",".join([choice_column] + names) + "\n")
        for c, row in zip(idx.tolist(), x_raw):
            fh.write(",".join([str(c + 1), *map(repr, row.tolist())]) + "\n")


def conditional_kl(truth: CrbmParams, fitted: CrbmParams, x_sample) -> float:
    """Mean over context rows of KL(true choice dist || fitted choice dist)."""
    p_true = exact_choice_distribution(truth, x_sample)
    p_fit = exact_choice_distribution(fitted, x_sample)
    return float(np.mean((p_true * (np.log(p_true) - np.log(p_fit))).sum(axis=1)))


def denormalized_params(p: CrbmParams, norm_stats) -> CrbmParams:
    """Fold z-scoring into the parameters so they act on raw context values.

    Lets a model fitted on normalized features be compared directly against
    ground truth expressed in raw units.
    """
    mu = norm_stats.means
    sd = np.where(norm_stats.constant, 1.0, norm_stats.stds)
    b_raw = p.choice_context_w / sd
    a_raw = p.hidden_context_w / sd
    return CrbmParams(
        choice_hidden_w=p.choice_hidden_w,
        choice_context_w=b_raw,
        hidden_context_w=a_raw,
        choice_bias=p.choice_bias - b_raw @ mu,
        hidden_bias=p.hidden_bias - a_raw @ mu)


def band_planted_model(n_rows: int = 50_000, seed: int = 11) -> PlantedModel:
    """A 5-alternative, 2-hidden, 6-feature model with band structure.

    The first context feature drives two opposing hidden units whose
    transitions sit at -0.5 and 1.1.  One alternative dominates the middle
    band, another both tails, and the rest are low-probability noise with
    mild linear structure.  Because the same alternative wins on both
    tails, no linear-in-context logit model can represent the partition,
    while the latent-variable model can.  Used by tests and the demo
    experiment script.
    """
    n_alt, n_hid, n_feat = 5, 2, 6
    strength, slope, left, right = 8.0, 8.0, -0.5, 1.1
    d_w = np.zeros((n_alt, n_hid))
    d_w[0] = [strength, strength]
    a_w = np.zeros((n_hid, n_feat))
    a_w[0, 0] = slope
    a_w[1, 0] = -slope
    hidden_bias = np.array([-slope * right - strength / 2,
                            slope * left - strength / 2])

    def gap(u):
        return np.logaddexp(0, strength + u) - np.logaddexp(0, u)

    def tail_lead(x1):
        return (gap(slope * (x1 - right) - strength / 2)
                + gap(-slope * (x1 - left) - strength / 2))

    bias = np.zeros(n_alt)
    bias[0] = -0.5 * (tail_lead(left) + tail_lead(right))
    bias[2:] = -2.0
    b_w = np.zeros((n_alt, n_feat))
    b_w[2:, 1:] = np.random.default_rng(0).normal(0, 0.4, (3, n_feat - 1))
    params = CrbmParams(
        choice_hidden_w=d_w, choice_context_w=b_w, hidden_context_w=a_w,
        choice_bias=bias, hidden_bias=hidden_bias)
    context = tuple(ContextSpec("normal") for _ in range(n_feat))
    return PlantedModel(params=params, context=context, n_rows=n_rows, seed=seed)


PLANTED_FORMAT_VERSION = 1


def save_planted(pm: PlantedModel, path):
    """Persist a planted model as self-describing JSON."""
    doc = {
        "format": "choicerbm-planted",
        "version": PLANTED_FORMAT_VERSION,
        "n_rows": pm.n_rows,
        "seed": pm.seed,
        "params": {name: np.asarray(arr).tolist() for name, arr in pm.params.blocks()},
        "context": [
            {"kind": s.kind, "mean": s.mean, "std": s.std, "rate": s.rate}
            for s in pm.context
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1, allow_nan=False)
        fh.write("\n")


def load_planted(path, n_rows=None, seed=None) -> PlantedModel:
    """Read a `save_planted` file; `n_rows` and `seed` override its own.

    Malformed content raises a one-line ValueError naming the problem.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != "choicerbm-planted":
        raise ValueError(f"{path}: not a planted-model file")
    if doc.get("version") != PLANTED_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported version {doc.get('version')!r}")
    blocks, specs = doc.get("params"), doc.get("context")
    if not isinstance(blocks, dict) or sorted(blocks) != sorted(BLOCK_NAMES):
        raise ValueError(f"{path}: 'params' must hold exactly the blocks "
                         + ", ".join(BLOCK_NAMES))
    if not isinstance(specs, list) or not all(
            isinstance(c, dict) and all(isinstance(c.get(key, 0.0), (int, float))
                                        for key in ("mean", "std", "rate"))
            for c in specs):
        raise ValueError(f"{path}: 'context' must be a list of objects with "
                         "numeric mean, std and rate")
    counts = {"n_rows": doc.get("n_rows") if n_rows is None else n_rows,
              "seed": doc.get("seed") if seed is None else seed}
    for key, value in counts.items():
        if not isinstance(value, int):
            raise ValueError(f"{path}: {key!r} must be an integer, got {value!r}")
    try:
        arrays = {k: np.asarray(v, dtype=np.float64) for k, v in blocks.items()}
    except TypeError:
        raise ValueError(f"{path}: parameter blocks must be numeric arrays") from None
    context = tuple(
        ContextSpec(kind=c.get("kind"), mean=c.get("mean", 0.0),
                    std=c.get("std", 1.0), rate=c.get("rate", 0.5))
        for c in specs)
    return PlantedModel(params=CrbmParams(**arrays), context=context, **counts)
