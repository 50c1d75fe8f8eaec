"""Sampling-based sensitivity analysis of parameter estimates.

The model is refit on random subsamples and each explanatory variable is
scored by the aggregate standard error of its alternative-specific
coefficients.  Rank disagreement between the full fit and the subsample
fits, plus the relative change in standard errors, measures how sensitive
the estimates are to input variability.

The full-sample fit runs in a forked child while the caller fits the
replicates; its result or exception and its warnings come back pickled
through a pipe, and outputs and warnings are those of the fits run in turn.
"""

import csv
import io
import os
import pickle
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import ChoiceDataset
from .model import REFERENCE_ALTERNATIVE
from .stats import t_statistics
from .trainer import TrainConfig, train_crbm


@dataclass
class SensitivityReport:
    variables: tuple           # K feature names plus "bias"
    full_rank: np.ndarray      # permutation of 1..K+1, descending sensitivity
    sub_rank: np.ndarray       # permutation of 1..K+1 from mean subsample sensitivity
    stderr_diff_pct: np.ndarray      # mean relative |difference| in percent
    n_hidden: int


def _variable_sensitivity(p, ds, fit: str) -> np.ndarray:
    """RMS standard error per explanatory variable, bias appended last,
    over the I - 1 alternatives left free by the reference gauge.  Each
    warning of `t_statistics` is issued again with the `fit` appended, so
    that every fit's warning is distinct."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        std_errs, _ = t_statistics(p, ds)
    for w in caught:
        warnings.warn(f"{w.message} ({fit})", w.category)
    free = np.arange(p.n_alternatives) != REFERENCE_ALTERNATIVE - 1
    per_feature = np.sqrt((std_errs.choice_context_w[free] ** 2).mean(axis=0))
    bias = np.sqrt((std_errs.choice_bias[free] ** 2).mean())
    return np.append(per_feature, bias)


def _ranks_descending(values: np.ndarray) -> np.ndarray:
    """1-based ranks, largest value first; ties keep variable order."""
    order = np.argsort(-values, kind="stable")
    ranks = np.empty(len(values), dtype=np.int64)
    ranks[order] = np.arange(1, len(values) + 1)
    return ranks


def _recorded(fn):
    """`fn()` or its exception, and its warnings as (message, category)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn()
        except Exception as exc:
            out = exc
    return out, [(str(w.message), w.category) for w in caught]


def _answer(writer, fn):
    """The forked child's run: `_recorded(fn)` pickled onto `writer`, an
    exception that pickling does not bring back as its builtin base class,
    then `os._exit`: no flush of stdio and no return into the caller."""
    try:
        out, caught = _recorded(fn)
        try:
            pickle.loads(pickle.dumps(out))
        except Exception:
            out = next(c for c in type(out).__mro__
                       if c.__module__ == "builtins")(str(out))
        writer.write(pickle.dumps((out, caught)))
        writer.flush()
        os._exit(0)
    finally:   # the reply failed
        os._exit(1)


def _replicates(ds, n_hidden, cfg, n_sub, replicates, seed) -> np.ndarray:
    rows = np.sort([   # (R, n_sub), each replicate's rows in file order
        np.random.default_rng(ss).choice(ds.n_rows, size=n_sub, replace=False)
        for ss in np.random.SeedSequence(seed).spawn(replicates)], axis=1)
    # One stacked fit gives each subset the parameters of a fit of it alone.
    refits = ds.take(rows)
    return np.stack([   # (R, K+1)
        _variable_sensitivity(p, refits.take(r),
                              f"J{n_hidden}, replicate {r + 1}")
        for r, (p, _) in enumerate(train_crbm(refits, refits, n_hidden, cfg))])


def sensitivity_run(ds: ChoiceDataset, n_hidden: int, cfg: TrainConfig,
                    fraction: float, replicates: int,
                    seed: int) -> SensitivityReport:
    """Refit on `replicates` random subsamples of size floor(fraction * N).

    Subsamples are simple random draws without replacement that preserve
    the original row order, so fraction 1.0 reproduces the full fit
    exactly.  The report is deterministic in (seed, fraction, replicates).
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction {fraction} not in (0, 1]")
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    n_sub = int(np.floor(fraction * ds.n_rows))
    if n_sub < cfg.batch_size:
        raise ValueError(
            f"subsample size {n_sub} is smaller than batch size {cfg.batch_size}")

    r, w = os.pipe()
    with os.fdopen(r, "rb") as reader, os.fdopen(w, "wb") as writer:
        if (pid := os.fork()) == 0:
            # Early stopping validates on the fitted rows themselves; the
            # point is a deterministic refit, not generalization measurement.
            _answer(writer, lambda: _variable_sensitivity(
                train_crbm(ds, ds, n_hidden, cfg)[0], ds,
                f"J{n_hidden}, full sample"))
        writer.close()
        try:
            sub = _recorded(lambda: _replicates(ds, n_hidden, cfg, n_sub,
                                                replicates, seed))
            reply = reader.read()
        except BaseException:
            os.kill(pid, 9)   # SIGKILL: nothing waits for its result now
            raise
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code:
        raise RuntimeError(f"full-sample fit ended with exit status {code}")
    # The full-sample fit's warnings come first, and its error wins.
    for out, caught in (full := pickle.loads(reply), sub):
        for message, category in caught:
            warnings.warn(message, category)
        if isinstance(out, Exception):
            raise out
    full_sens, sub_sens = full[0], sub[0]

    # Zero full-sample sensitivity only happens for parameters with no
    # information at all; report the absolute change there.
    denom = np.where(full_sens > 0, full_sens, 1.0)
    diffs = np.abs(sub_sens - full_sens) / denom * 100.0
    return SensitivityReport(
        variables=tuple(ds.feature_names) + ("bias",),
        full_rank=_ranks_descending(full_sens),
        sub_rank=_ranks_descending(sub_sens.mean(axis=0)),
        stderr_diff_pct=diffs.mean(axis=0),
        n_hidden=n_hidden)


def rank_agreement(full_ranks, sub_ranks) -> float:
    """Spearman correlation between two rank vectors (no ties assumed)."""
    a = np.asarray(full_ranks, dtype=np.float64)
    b = np.asarray(sub_ranks, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("rank vectors must share one dimension")
    m = len(a)
    if m < 2:
        raise ValueError("need at least 2 ranks")
    d2 = ((a - b) ** 2).sum()
    return float(1.0 - 6.0 * d2 / (m * (m * m - 1.0)))


def sensitivity_table_csv(reports) -> str:
    """Result-table CSV: variable column, then per report a group of
    (full rank, sample rank, std-err % difference) columns; a variable
    name is quoted as the `csv` module quotes it."""
    reports = list(reports)
    if not reports:
        raise ValueError("no reports to tabulate")
    variables = reports[0].variables
    for rep in reports:
        if rep.variables != variables:
            raise ValueError("reports disagree on variables")
    header = ["variable"] + [
        f"J{rep.n_hidden}_{column}" for rep in reports
        for column in ("full_rank", "sample_rank", "stderr_diff_pct")]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for v, name in enumerate(variables):
        writer.writerow([name] + [cell for rep in reports for cell in (
            int(rep.full_rank[v]), int(rep.sub_rank[v]),
            f"{rep.stderr_diff_pct[v]:.2f}")])
    return out.getvalue()
