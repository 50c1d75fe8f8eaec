"""Choice data ingestion: CSV loading, splits and z-scoring.

A dataset pairs a feature matrix with the 0-based index of the
alternative chosen in each row; one-hot rows are built only where a
product needs them.
Features stay raw until they are scaled once, with given statistics:
`refit_normalization` fits them on a split's training rows and scales
both partitions, and the statistics travel with the scaled datasets so
that a trained model can re-apply identical scaling to new data.
"""

import csv
import functools
import math
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np


class SchemaError(ValueError):
    """A required column is missing or the header is malformed."""


class RowParseError(ValueError):
    """A cell could not be parsed as a number; message carries the row index."""


class ChoiceDomainError(ValueError):
    """A choice value falls outside the valid 1..I range."""


@dataclass(frozen=True, eq=False)
class NormStats:
    """Per-column mean/std used for z-scoring; constant columns are flagged."""

    means: np.ndarray
    stds: np.ndarray
    constant: np.ndarray  # bool per column: pre-normalization std was zero

    def __post_init__(self):
        for name in ("means", "stds", "constant"):
            arr = np.asarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    # Values near the float limit overflow here; the non-finite result is
    # refused, in one line, by `ChoiceDataset.validate`.
    @classmethod
    @np.errstate(over="ignore", invalid="ignore")
    def fit(cls, x: np.ndarray) -> "NormStats":
        means = x.mean(axis=0)
        stds = x.std(axis=0)
        constant = stds == 0.0
        if np.any(constant):
            warnings.warn(
                f"{int(constant.sum())} constant feature column(s) map to zero "
                "after normalization")
        return cls(means=means, stds=stds, constant=constant)

    # Builds one output and finishes it in place: no second N x K array.
    @np.errstate(over="ignore", invalid="ignore")
    def apply(self, x: np.ndarray) -> np.ndarray:
        out = x - self.means
        out /= np.where(self.constant, 1.0, self.stds)
        return out


@dataclass(frozen=True, eq=False)
class ChoiceDataset:
    """N x K features plus the N 0-based indices of the observed choices
    among the I alternatives.  The features are raw where `norm_stats` is
    None, and otherwise z-scored with it."""

    x: np.ndarray
    choices: np.ndarray
    feature_names: tuple
    alternative_names: tuple
    norm_stats: NormStats | None

    def __post_init__(self):
        choices = np.asarray(self.choices)
        if choices.dtype.kind not in "iu":
            raise ValueError("choices must be integer indices")
        for name, arr in (("x", np.asarray(self.x, dtype=np.float64)),
                          ("choices", choices.astype(np.int64, copy=False))):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "alternative_names", tuple(self.alternative_names))
        self.validate()

    @property
    def n_rows(self) -> int:
        return self.x.shape[-2]

    @property
    def n_features(self) -> int:
        return self.x.shape[-1]

    @property
    def n_alternatives(self) -> int:
        return len(self.alternative_names)

    @functools.cached_property
    def y(self) -> np.ndarray:
        """The choices as read-only one-hot rows, (..., N, I), built on
        first access and kept."""
        y = np.eye(self.n_alternatives)[self.choices]
        y.flags.writeable = False
        return y

    def validate(self):
        if self.x.ndim not in (2, 3) or self.choices.shape != self.x.shape[:-1]:
            raise ValueError("x must be 2-d, or a 3-d stack (see `take`), "
                             "with one choice per row")
        n, k = self.x.shape[-2:]
        if n < 1:
            raise ValueError("dataset has no rows")
        if self.n_alternatives < 2:
            raise ValueError("need at least 2 alternatives")
        if len(self.feature_names) != k:
            raise ValueError("feature name count != feature columns")
        if not np.all(np.isfinite(self.x)):
            raise ValueError("non-finite feature values")
        if self.choices.min() < 0 or self.choices.max() >= self.n_alternatives:
            raise ChoiceDomainError(
                f"choice index outside 0..{self.n_alternatives - 1}")

    def take(self, rows) -> "ChoiceDataset":
        """The dataset of `rows`.  An (R, n) index array gives a stack of R
        datasets, x (R, n, K), that `train_crbm` fits as R fits; an int
        picks one dataset out of a stack."""
        return replace(self, x=self.x[rows], choices=self.choices[rows])


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.70
    seed: int = 0

    def validate(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction {self.train_fraction} not in (0, 1)")


def from_arrays(x_raw, choice_idx, n_alternatives=None, feature_names=None,
                *, norm_stats: NormStats | None = None) -> ChoiceDataset:
    """Build a dataset from a raw feature matrix and 0-based choice indices.

    Features are scaled only with a given `norm_stats`; otherwise a float64
    `x_raw` is held as it is and made read-only, as `ChoiceDataset` does.
    Unlike the CSV path, zero feature columns are allowed.  Choices must
    be integers, checked before I is read off them.
    """
    x_raw = np.asarray(x_raw, dtype=np.float64)
    choice_idx = np.asarray(choice_idx)
    if choice_idx.dtype.kind not in "iu":
        raise ValueError("choices must be integer indices")
    if x_raw.ndim != 2 or x_raw.shape[0] != len(choice_idx):
        raise ValueError("x_raw must be 2-d with one row per choice")
    if n_alternatives is None:   # no rows: I = 0, and `ChoiceDataset` says so
        n_alternatives = int(choice_idx.max(initial=-1)) + 1
    if feature_names is None:
        feature_names = tuple(f"f{j + 1}" for j in range(x_raw.shape[1]))
    return ChoiceDataset(
        x=x_raw if norm_stats is None else norm_stats.apply(x_raw),
        choices=choice_idx, feature_names=feature_names,
        alternative_names=tuple(f"alt{i + 1}" for i in range(n_alternatives)),
        norm_stats=norm_stats)


def _parsed_row(ridx, row, n_cells, choice_pos, feature_columns, feat_pos):
    """(choice, feature values) of data row `ridx`, the choice 0 where
    `choice_pos` is None, or the RowParseError of its first bad cell in
    column order: the one statement of the row rules of both loaders."""
    if len(row) != n_cells:
        raise RowParseError(f"row {ridx}: expected {n_cells} cells, got {len(row)}")
    try:
        choice = 0 if choice_pos is None else int(row[choice_pos])
    except ValueError:
        raise RowParseError(f"row {ridx}: choice cell {row[choice_pos]!r} "
                            "is not an integer") from None
    values = []
    for col, pos in zip(feature_columns, feat_pos):
        try:
            v = float(row[pos])
        except ValueError:
            raise RowParseError(f"row {ridx}: cell {row[pos]!r} in column "
                                f"{col!r} is not numeric") from None
        if not math.isfinite(v):
            raise RowParseError(
                f"row {ridx}: missing or non-finite value in column {col!r}")
        values.append(v)
    return choice, values


def _c_rows(path, n_cells, feat_pos, choice_pos=None):
    """(choices, raw feature matrix) of the data rows of `path`, parsed in
    one pass by numpy's C reader, or None where that parse might not equal
    the exact readers' below, which then read the file instead.

    Only a regular file named by a path is read here, as a pipe can be
    read only once.  Column `choice_pos` is converted by Python's `int`,
    as in the exact reader, and every other column as float64 by numpy, so
    any non-numeric cell, used or not, takes the exact path.  So does a
    file with a quote (csv and numpy split quoted fields differently), a
    carriage return outside a CRLF pair, a blank line (numpy skips it), a
    line longer than csv's field limit, no data line, a parsed row count
    other than the line count, or a non-finite feature value.
    """
    if not (isinstance(path, (str, os.PathLike)) and os.path.isfile(path)):
        return None
    with open(path, "rb") as fb:
        raw = fb.read()
    if (b'"' in raw or b"\n\n" in raw or b"\n\r\n" in raw
            or (b"\r" in raw and raw.count(b"\r") != raw.count(b"\r\n"))):
        return None
    # Byte length of every line, the one after the last newline included;
    # the newlines are found 1 MiB at a time, not by a file-size mask.
    buf, mib = np.frombuffer(raw, np.uint8), 1 << 20
    line_bytes = np.diff(np.concatenate(
        [[-1]] + [np.flatnonzero(buf[lo:lo + mib] == ord("\n")) + lo
                  for lo in range(0, len(buf), mib)] + [[len(raw)]])) - 1
    del raw, buf
    n_rows = len(line_bytes) - 1 - (line_bytes[-1] == 0)   # after the header
    if n_rows < 1 or line_bytes.max() > csv.field_size_limit():
        return None
    dtype = np.dtype([(f"c{pos}", np.int64 if pos == choice_pos else np.float64)
                      for pos in range(n_cells)])
    # A byte order mark can only sit in the header line, which is skipped.
    with open(path, newline="", encoding="utf-8") as fh:
        fh.readline()
        try:
            table = np.loadtxt(
                fh, dtype=dtype, delimiter=",", comments=None, ndmin=1,
                converters=None if choice_pos is None else {choice_pos: int})
        except ValueError:
            return None
    if len(table) != n_rows:
        return None
    x_raw = np.empty((n_rows, len(feat_pos)))
    for j, pos in enumerate(feat_pos):
        x_raw[:, j] = table[f"c{pos}"]
    if not np.all(np.isfinite(x_raw)):
        return None
    # A copy of the choices, so that the table is freed on return.
    return (None if choice_pos is None
            else table[f"c{choice_pos}"].copy()), x_raw


def _exact_rows(reader, n_cells, choice_pos, feature_columns, feat_pos):
    """(choices, raw feature matrix) of the data rows, each parsed by
    `_parsed_row`; choices are None where `choice_pos` is None.

    Only this loop rejects a data row, so it defines which files the
    loaders accept.  One flat list spares the collector a list per row.
    """
    values, choices = [], []
    for ridx, row in enumerate(reader, start=1):
        choice, vals = _parsed_row(ridx, row, n_cells, choice_pos,
                                   feature_columns, feat_pos)
        values += vals
        choices.append(choice)
    try:
        choices = np.asarray(choices, dtype=np.int64)
    except OverflowError:
        bad = next(c for c in choices if not -2 ** 63 <= c < 2 ** 63)
        raise ChoiceDomainError(
            f"choice value {bad} is beyond the 64-bit integer range") from None
    x_raw = np.asarray(values, dtype=np.float64).reshape(
        len(choices), len(feat_pos))
    return (None if choice_pos is None else choices), x_raw


def _read_rows(path, choice_column, feature_columns):
    """(choices, raw feature matrix, feature columns) of a UTF-8 CSV file
    with a header row, the one reader of both loaders.

    With `choice_column` None no choice is read and the choices are None,
    and an empty feature list is allowed (a bias-only model's input).
    `feature_columns` None means every column but the choice.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise SchemaError(f"{path}: empty file, no header row") from None
        if choice_column is not None and choice_column not in header:
            raise SchemaError(f"missing choice column {choice_column!r}")
        if feature_columns is None:
            feature_columns = [h for h in header if h != choice_column]
        for n, col in enumerate(feature_columns):
            if col not in header:
                raise SchemaError(f"missing feature column {col!r}")
            if col == choice_column or col in feature_columns[:n]:
                raise SchemaError(f"feature column {col!r} is the choice "
                                  "column or named twice")
        if choice_column is not None and not feature_columns:
            raise SchemaError("no feature columns")
        for col in [choice_column, *feature_columns]:
            if col is not None and header.count(col) > 1:
                raise SchemaError(f"column {col!r} is repeated in the header")
        choice_pos = (None if choice_column is None
                      else header.index(choice_column))
        feat_pos = [header.index(c) for c in feature_columns]
        choices, x_raw = (
            _c_rows(path, len(header), feat_pos, choice_pos)
            or _exact_rows(reader, len(header), choice_pos, feature_columns,
                           feat_pos))
    if not len(x_raw):
        raise SchemaError(f"{path}: no data rows")
    return choices, x_raw, feature_columns


def load_csv(path, choice_column: str, feature_columns=None, n_alternatives=None,
             norm_stats: NormStats | None = None) -> ChoiceDataset:
    """Load a UTF-8 comma-separated file with a header row.

    The choice column holds 1-based integer alternative indices; every other
    requested column must be numeric.  Features stay raw unless `norm_stats`
    (e.g. from a saved model) is given; `refit_normalization` scales a split.
    Rows with missing or non-numeric cells, or with the wrong number of
    cells, are rejected with the row index.
    """
    choices, x_raw, feature_columns = _read_rows(path, choice_column,
                                                 feature_columns)
    if n_alternatives is None:
        n_alternatives = int(choices.max())
        # The names, the parameters and training's one-hot rows all grow
        # with I; a file cannot name more alternatives than it has rows.
        if n_alternatives > len(choices):
            raise ChoiceDomainError(
                f"choice value {n_alternatives} is more than the "
                f"{len(choices)} data rows; the alternative count is "
                "inferred from the largest choice")
    if choices.min() < 1 or choices.max() > n_alternatives:
        bad = choices.min() if choices.min() < 1 else choices.max()
        raise ChoiceDomainError(
            f"choice value {bad} outside 1..{n_alternatives}")
    return from_arrays(x_raw, choices - 1, n_alternatives,
                       tuple(feature_columns), norm_stats=norm_stats)


def load_features_csv(path, feature_names, norm_stats: NormStats) -> np.ndarray:
    """Load only the named feature columns, scaled with the given statistics.

    Used at prediction time: the rows obey `load_csv`'s rules, but no
    choice column is read, so it may be absent.
    """
    x = norm_stats.apply(_read_rows(path, None, list(feature_names))[1])
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite feature values")
    return x


def split(ds: ChoiceDataset, spec: SplitSpec):
    """Seeded row-disjoint partition into (train, valid).

    Train receives floor(train_fraction * N) rows; the permutation depends
    only on the seed.
    """
    spec.validate()
    if ds.n_rows < 2:
        raise ValueError("need at least 2 rows to split")
    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(ds.n_rows)
    n_train = int(np.floor(spec.train_fraction * ds.n_rows))
    n_train = max(1, min(n_train, ds.n_rows - 1))
    return ds.take(perm[:n_train]), ds.take(perm[n_train:])


def refit_normalization(train: ChoiceDataset, valid: ChoiceDataset):
    """Scale both raw partitions with statistics fitted on the train rows.

    Call after `split` so held-out rows never leak into the scaling.  The
    returned validation set carries the train statistics, which makes
    prediction-time scaling identical to training.  A partition that is
    already scaled is refused, so the statistics are always of raw rows.
    """
    if train.norm_stats is not None or valid.norm_stats is not None:
        raise ValueError("refit_normalization takes raw partitions, "
                         "not scaled ones")
    stats = NormStats.fit(train.x)
    return tuple(replace(ds, x=stats.apply(ds.x), norm_stats=stats)
                 for ds in (train, valid))
