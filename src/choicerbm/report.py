"""Model persistence, Hinton-diagram rendering, and `atomic_open`, through
which every output file of the command line is written.

Model files are canonical JSON: a format/version header, the five
parameter blocks at full precision, normalization statistics, column
names, the training configuration, the headline fit metrics with the
split, and the standard errors and t statistics.  Writing
is canonical (sorted keys, fixed separators), so write -> read -> write
is byte-identical.

Hinton diagrams are standalone SVG 1.1 documents: one square per matrix
entry, area proportional to |value|, white fill for positive and black
for negative entries, and a blue outline wherever the aligned t value
clears the significance threshold.
"""

import contextlib
import dataclasses
import json
import math
import os

import numpy as np

from .dataset import NormStats, SplitSpec
from .model import (BLOCK_NAMES, REFERENCE_ALTERNATIVE, CrbmParams,
                    ParamBlocks, block_shapes, in_reference_gauge)
from .trainer import TrainConfig

MODEL_FORMAT = "choicerbm-model"
MODEL_FORMAT_VERSION = 1


class ModelFileError(ValueError):
    """Model file is unreadable, of the wrong version, or inconsistent."""


@contextlib.contextmanager
def atomic_open(path):
    """A text file to write in place of `path`: it is written beside `path`
    and renamed over it when the block ends, so a failed write leaves
    neither a partial file nor a changed one."""
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_model(p: CrbmParams, path, *, norm_stats: NormStats, feature_names,
               alternative_names, train_config: TrainConfig, metrics: dict,
               std_errs: ParamBlocks, tstats: ParamBlocks, choice_column: str):
    """Write a model file; every numeric value survives a round trip exactly.

    The file records `reference_alternative` exactly when `p` is in the
    reference-alternative gauge (`model.in_reference_gauge`).  It is
    written through `atomic_open`, so a failed save leaves neither a
    partial file nor a changed one.
    """
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_FORMAT_VERSION,
        "n_alternatives": p.n_alternatives,
        "n_hidden": p.n_hidden,
        "n_features": p.n_features,
        "params": {name: np.asarray(a).tolist() for name, a in p.blocks()},
        "choice_column": str(choice_column),
        "norm_stats": {
            "means": norm_stats.means.tolist(),
            "stds": norm_stats.stds.tolist(),
            "constant": [bool(v) for v in norm_stats.constant],
        },
        "feature_names": list(feature_names),
        "alternative_names": list(alternative_names),
        "train_config": dataclasses.asdict(train_config),
        "metrics": {k: float(v) for k, v in metrics.items()},
        **{key: {name: np.asarray(a).tolist() for name, a in blocks.blocks()}
           for key, blocks in (("std_errs", std_errs), ("tstats", tstats))},
    }
    if in_reference_gauge(p):
        doc["reference_alternative"] = REFERENCE_ALTERNATIVE
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"),
                         allow_nan=False)
    with atomic_open(path) as fh:
        fh.write(payload + "\n")


def fit_metrics(rep, best_epoch: int, spec: SplitSpec) -> dict:
    """The `metrics` record of a model file: the fit report's headline
    figures, the best epoch and the split that `evaluate` replays."""
    headline = ("loglik_train", "loglik_valid", "rho2", "bic",
                "validation_error", "mean_true_prob", "n_params")
    return {**{key: getattr(rep, key) for key in headline},
            "best_epoch": best_epoch, "split_fraction": spec.train_fraction,
            "split_seed": spec.seed}


def json_numbers(raw) -> np.ndarray:
    """A nest of JSON lists as a float64 array.  Each leaf must be an int
    or a float: float64 conversion alone would read true as 1.0, "0.5" as
    0.5 and null as NaN, so any other leaf raises TypeError."""
    pending = [raw]
    while pending:
        leaf = pending.pop()
        if isinstance(leaf, list):
            pending += leaf
        elif type(leaf) not in (int, float):
            raise TypeError(f"expected numbers, got {leaf!r}")
    return np.asarray(raw, dtype=np.float64)


def _names(raw, n):
    if not (isinstance(raw, list) and len(raw) == n
            and all(isinstance(v, str) for v in raw)):
        raise ValueError(f"expected {n} names")
    return tuple(raw)


def _norm_stats(raw, n):
    if not all(type(v) is bool for v in raw["constant"]):
        raise ValueError("expected booleans in constant")
    ns = NormStats(json_numbers(raw["means"]), json_numbers(raw["stds"]),
                   np.asarray(raw["constant"], dtype=bool))
    if not (all(a.shape == (n,) for a in (ns.means, ns.stds, ns.constant))
            and np.isfinite([ns.means, ns.stds]).all()):
        raise ValueError(f"expected {n} finite entries per statistic")
    if not np.array_equal(ns.constant, ns.stds == 0) or (ns.stds < 0).any():
        raise ValueError("expected stds >= 0, flagged constant exactly at 0")
    return ns


# Settings that older files carry and the fixed recipe no longer reads.
RETIRED_TRAIN_KEYS = ("lr_decay", "momentum_initial", "momentum_final",
                      "momentum_switch_epoch")


def _train_config(raw):
    """The `TrainConfig` of `raw`, which must hold every setting, its ints
    as JSON integers and its floats as JSON numbers."""
    cfg = TrainConfig(**{k: v for k, v in raw.items()
                         if k not in RETIRED_TRAIN_KEYS})
    for f in dataclasses.fields(cfg):
        if f.name not in raw:
            raise ValueError(f"missing {f.name}")
        value = getattr(cfg, f.name)
        if type(value) not in ((int,) if f.type is int else (int, float)):
            raise TypeError(f"{f.name} {value!r} is not a JSON {f.type.__name__}")
    cfg.validate()
    return cfg


def _metrics(raw):
    if not all(type(v) in (int, float) for v in raw.values()):
        raise ValueError("expected numbers")    # float() takes "0.7" and true
    metrics = {k: float(v) for k, v in raw.items()}
    for key in ("split_fraction", "split_seed"):
        if key not in metrics:
            raise ValueError(f"missing {key}")
    if not all(map(math.isfinite, metrics.values())):
        raise ValueError("expected finite values")
    fraction, seed = metrics["split_fraction"], metrics["split_seed"]
    if not 0 < fraction < 1:
        raise ValueError(f"split_fraction {fraction} not in (0, 1)")
    if not (seed.is_integer() and 0 <= seed < 2 ** 53):   # TrainConfig.seed
        raise ValueError(f"split_seed {seed} is not an integer in [0, 2**53)")
    return metrics


def _reference_alternative(raw, p: CrbmParams):
    """The reference alternative, which `save_model` writes only for
    parameters in its gauge."""
    if not (type(raw) is int and raw == REFERENCE_ALTERNATIVE):
        raise ValueError(f"expected {REFERENCE_ALTERNATIVE}")
    if not in_reference_gauge(p):
        raise ValueError(f"alternative {raw} has nonzero c, B or D entries")
    return raw


# Everything malformed metadata can raise while it is read.
_BAD_VALUE = (KeyError, TypeError, ValueError, AttributeError, OverflowError)


def load_model(path):
    """Read a model file back as (params, metadata dict).

    Metadata keys mirror the save arguments plus `reference_alternative`,
    the only optional one; dimension consistency is verified first.  A
    missing or malformed field raises a one-line ModelFileError naming it.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"{path}: truncated or malformed model file "
                             f"({exc})") from None
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ModelFileError(f"{path}: not a {MODEL_FORMAT} file")
    if doc.get("version") != MODEL_FORMAT_VERSION:
        raise ModelFileError(
            f"{path}: unsupported format version {doc.get('version')!r}")
    dims = [doc.get(key) for key in ("n_alternatives", "n_hidden", "n_features")]
    if not all(isinstance(v, int) and v >= 0 for v in dims):
        raise ModelFileError(f"{path}: missing or invalid dimension header")
    n_alt, _, n_feat = dims

    def read_blocks(raw, low=-np.inf):
        """The blocks of `raw`, each entry finite and at least `low`."""
        blocks = {name: json_numbers(raw[name]).reshape(shape)
                  for name, shape in zip(BLOCK_NAMES, block_shapes(*dims))}
        for name, arr in blocks.items():
            if not np.all(np.isfinite(arr) & (arr >= low)):
                sign = " or negative" if low == 0 else ""
                raise ValueError(f"non-finite{sign} entries in {name}")
        return blocks

    try:
        params = CrbmParams(**read_blocks(doc["params"]))
    except _BAD_VALUE as exc:
        raise ModelFileError(
            f"{path}: parameter blocks are not numbers of the declared "
            f"dimensions ({exc})") from None

    readers = {
        "norm_stats": lambda raw: _norm_stats(raw, n_feat),
        "feature_names": lambda raw: _names(raw, n_feat),
        "alternative_names": lambda raw: _names(raw, n_alt),
        "train_config": _train_config,
        "metrics": _metrics,
        "choice_column": lambda raw: _names([raw], 1)[0],
        "reference_alternative": lambda raw: _reference_alternative(raw,
                                                                    params),
        "std_errs": lambda raw: ParamBlocks(**read_blocks(raw, low=0.0)),
        "tstats": lambda raw: ParamBlocks(**read_blocks(raw)),
    }
    meta = {}
    for key, read in readers.items():
        if key in doc:
            try:
                meta[key] = read(doc[key])
            except _BAD_VALUE as exc:
                raise ModelFileError(f"{path}: bad {key} ({exc})") from None
        elif key != "reference_alternative":
            raise ModelFileError(f"{path}: missing {key}")
    return params, meta


# Side of one Hinton-diagram cell, in SVG pixels.
HINTON_CELL_PX = 24

# The Hinton diagrams of a model, in drawing order (see `hinton_block`).
HINTON_BLOCKS = ("B", "D", "A")


def hinton_block(block, p: CrbmParams, tstats: ParamBlocks,
                 alternative_names, feature_names):
    """`hinton_svg`'s values, row and column labels and t values for the
    diagram `block`, with hidden units named h1..hJ."""
    hidden = [f"h{j + 1}" for j in range(p.n_hidden)]
    attr, rows, cols = {
        "B": ("choice_context_w", alternative_names, feature_names),
        "D": ("choice_hidden_w", alternative_names, hidden),
        "A": ("hidden_context_w", hidden, feature_names),
    }[block]
    return getattr(p, attr), rows, cols, getattr(tstats, attr)


def _fmt(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".")


def hinton_svg(values, row_labels, col_labels, tstats,
               threshold: float = 1.96) -> str:
    """Render a Hinton diagram of the matrix `values` as a deterministic SVG
    document, outlining each entry whose aligned t value in `tstats` has
    magnitude at least `threshold`.

    Patch side length scales with sqrt(|value| / max|value|), so the area
    tracks the magnitude.  Zero entries produce zero-area patches.
    """
    values = np.asarray(values, dtype=np.float64)
    tstats = np.asarray(tstats, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("values must be a matrix")
    if tstats.shape != values.shape:
        raise ValueError("tstats shape does not match values")
    rows, cols = values.shape
    if len(row_labels) != rows:
        raise ValueError("row label count does not match")
    if len(col_labels) != cols:
        raise ValueError("column label count does not match")
    cell = HINTON_CELL_PX
    margin_left, margin_top, margin_bottom = 8 * cell, cell, 5 * cell
    width = margin_left + cols * cell + cell
    height = margin_top + rows * cell + margin_bottom
    vmax = float(np.abs(values).max())

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="{margin_left}" y="{margin_top}" width="{cols * cell}" '
        f'height="{rows * cell}" fill="#b0b0b0"/>']
    for r in range(rows):
        for c in range(cols):
            v = values[r, c]
            side = cell * np.sqrt(abs(v) / vmax) if vmax > 0 else 0.0
            cx = margin_left + c * cell + cell / 2
            cy = margin_top + r * cell + cell / 2
            fill = "#ffffff" if v > 0 else "#000000"
            stroke = ('stroke="#0050ff" stroke-width="2"'
                      if abs(tstats[r, c]) >= threshold
                      else 'stroke="none"')
            out.append(
                f'<rect x="{_fmt(cx - side / 2)}" y="{_fmt(cy - side / 2)}" '
                f'width="{_fmt(side)}" height="{_fmt(side)}" '
                f'fill="{fill}" {stroke}/>')
    for r, label in enumerate(row_labels):
        y = margin_top + r * cell + cell / 2
        out.append(
            f'<text x="{margin_left - 6}" y="{_fmt(y + 4)}" '
            f'text-anchor="end" font-family="monospace" '
            f'font-size="{cell // 2}">{_escape(label)}</text>')
    for c, label in enumerate(col_labels):
        x = margin_left + c * cell + cell / 2
        y = margin_top + rows * cell + 10
        out.append(
            f'<text x="{_fmt(x)}" y="{y}" text-anchor="end" '
            f'font-family="monospace" font-size="{cell // 2}" '
            f'transform="rotate(-60 {_fmt(x)} {y})">{_escape(label)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))
