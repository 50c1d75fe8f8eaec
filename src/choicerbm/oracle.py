"""Planted models and synthetic data generation.

A planted model is a ground-truth parameter set plus a distribution of
context features.  Generation draws from the model's own closed-form
p(y | x), `model.choice_probs`, so a planted model of any size can be
sampled.  Of the rest of the package only the `generate` command calls
into this module; tests and the benchmark use it to make data.  The
brute-force enumeration that checks the closed form lives with the
tests (`tests/enumeration.py`).
"""

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import ChoiceDataset, from_arrays
from .model import BLOCK_NAMES, CrbmParams, choice_probs, sample_categorical
from .report import atomic_open, json_numbers


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
        for name in ("mean", "std", "rate"):
            try:
                value = float(getattr(self, name))
            except OverflowError:
                raise ValueError(f"{name} is too large for a float") from None
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
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
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def draw_context(pm: PlantedModel, rng: np.random.Generator) -> np.ndarray:
    cols = [rng.normal(spec.mean, spec.std, size=pm.n_rows)
            if spec.kind == "normal"
            else (rng.random(pm.n_rows) < spec.rate).astype(np.float64)
            for spec in pm.context]
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


def write_dataset_csv(pm: PlantedModel, path):
    """Write raw draws as a standard dataset CSV (1-based choice column).
    A failed write leaves `path` as it was (`report.atomic_open`)."""
    x_raw, idx = draw_rows(pm)
    names = [f"f{j + 1}" for j in range(pm.params.n_features)]
    with atomic_open(path) as fh:
        fh.write(",".join(["choice"] + names) + "\n")
        for c, row in zip(idx.tolist(), x_raw):
            fh.write(",".join([str(c + 1), *map(repr, row.tolist())]) + "\n")


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
        "context": [asdict(spec) for spec in pm.context],
    }
    with atomic_open(path) as fh:
        json.dump(doc, fh, sort_keys=True, indent=1, allow_nan=False)
        fh.write("\n")


def load_planted(path, n_rows=None, seed=None) -> PlantedModel:
    """Read a `save_planted` file; `n_rows` and `seed` override its own.
    Malformed content raises a one-line ValueError that names the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return _planted_model(json.load(fh), n_rows, seed)
        except ValueError as exc:    # decoding errors are ValueErrors too
            raise ValueError(f"{path}: {exc}") from None


def _planted_model(doc, n_rows, seed) -> PlantedModel:
    if not isinstance(doc, dict) or doc.get("format") != "choicerbm-planted":
        raise ValueError("not a planted-model file")
    if doc.get("version") != PLANTED_FORMAT_VERSION:
        raise ValueError(f"unsupported version {doc.get('version')!r}")
    blocks, specs = doc.get("params"), doc.get("context")
    if not isinstance(blocks, dict) or sorted(blocks) != sorted(BLOCK_NAMES):
        raise ValueError("'params' must hold exactly the blocks "
                         + ", ".join(BLOCK_NAMES))
    if not isinstance(specs, list) or not all(
            isinstance(c, dict) and all(type(c.get(key, 0.0)) in (int, float)
                                        for key in ("mean", "std", "rate"))
            for c in specs):
        raise ValueError("'context' must be a list of objects with numeric "
                         "mean, std and rate")
    counts = {"n_rows": doc.get("n_rows") if n_rows is None else n_rows,
              "seed": doc.get("seed") if seed is None else seed}
    for key, value in counts.items():
        if type(value) is not int:
            raise ValueError(f"{key!r} must be an integer, got {value!r}")
    try:
        arrays = {k: json_numbers(v) for k, v in blocks.items()}
    except (TypeError, OverflowError):
        raise ValueError("parameter blocks must be numeric arrays") from None
    context = tuple(
        ContextSpec(kind=c.get("kind"), mean=c.get("mean", 0.0),
                    std=c.get("std", 1.0), rate=c.get("rate", 0.5))
        for c in specs)
    return PlantedModel(params=CrbmParams(**arrays), context=context, **counts)
