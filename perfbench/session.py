"""Inputs, the CLI session and the output checks.

One operation is a closed-loop session of the five user commands, each a
fresh `python -m choicerbm.cli` process started after the previous one
exits: train J = 2, train J = 0 (the MNL), evaluate, predict and
sensitivity.  Workloads differ only in the shape of the input, which
moves the work between layers.
"""

import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from choicerbm import oracle, report
from choicerbm.dataset import SplitSpec, from_arrays, split
from planted import N_ALTERNATIVES, N_FEATURES, paper_planted_model

TRAIN_FRACTION = 0.7


@dataclass(frozen=True)
class Shape:
    rows: int              # rows in the generated CSV
    epochs: int            # train epochs; early stopping is off
    sens_fraction: float   # sensitivity subsample fraction
    sens_replicates: int
    sens_epochs: int


# Why each workload exists:
# fit: a mid-sized table trained for many epochs, so the minibatch loop of
#   both gradient codes (CD for J = 2, closed-form MNL for J = 0) dominates.
# score: a large table trained for three epochs (enough to beat the
#   majority class), so CSV parsing, the BHHH standard errors, the
#   prediction export and peak memory dominate.
# sensitivity: many short replicate refits on subsamples that fit in
#   cache, run concurrently, so per-fit fixed costs and the pool dominate.
WORKLOADS = {
    "fit": Shape(rows=6_000, epochs=120, sens_fraction=0.1,
                 sens_replicates=2, sens_epochs=5),
    "score": Shape(rows=25_000, epochs=3, sens_fraction=0.02,
                   sens_replicates=2, sens_epochs=1),
    "sensitivity": Shape(rows=10_000, epochs=10, sens_fraction=0.1,
                         sens_replicates=12, sens_epochs=30),
}
SMOKE_SHAPE = Shape(rows=2_000, epochs=15, sens_fraction=0.1,
                    sens_replicates=2, sens_epochs=2)


@dataclass
class Inputs:
    workdir: Path
    shape: Shape
    seed: int
    majority_error: float = float("nan")  # on the validation split

    def path(self, name: str) -> str:
        return str(self.workdir / name)


def set_up(inputs: Inputs) -> float:
    """Draw the planted data and write it as CSV; returns the seconds taken."""
    t0 = time.perf_counter()
    pm = paper_planted_model(inputs.shape.rows, inputs.seed)
    oracle.write_dataset_csv(pm, inputs.path("data.csv"))
    return time.perf_counter() - t0


def majority_error(inputs: Inputs) -> float:
    """Error of always predicting the most common alternative, on the
    validation rows that `train --seed <seed>` holds out."""
    x_raw, idx = oracle.draw_rows(paper_planted_model(inputs.shape.rows,
                                                      inputs.seed))
    _, valid = split(from_arrays(x_raw, idx, n_alternatives=N_ALTERNATIVES),
                     SplitSpec(train_fraction=TRAIN_FRACTION, seed=inputs.seed))
    counts = valid.y.sum(axis=0)
    return float(1.0 - counts.max() / valid.n_rows)


def session_argv(inputs: Inputs) -> dict:
    """CLI arguments of each step, keyed by step name."""
    s, seed = inputs.shape, str(inputs.seed)
    data = ["--data", inputs.path("data.csv")]
    fit = data + ["--epochs", str(s.epochs), "--patience", str(s.epochs),
                  "--seed", seed, "--split", str(TRAIN_FRACTION)]
    return {
        "train": ["train", "--hidden", "2", *fit,
                  "--out", inputs.path("crbm.model")],
        "train_mnl": ["train", "--hidden", "0", *fit,
                      "--out", inputs.path("mnl.model")],
        "evaluate": ["evaluate", "--model", inputs.path("crbm.model"), *data],
        "predict": ["predict", "--model", inputs.path("crbm.model"), *data,
                    "--out", inputs.path("predictions.csv")],
        "sensitivity": ["sensitivity", *data, "--hidden", "0,2",
                        "--fraction", str(s.sens_fraction),
                        "--replicates", str(s.sens_replicates),
                        "--epochs", str(s.sens_epochs),
                        "--patience", str(s.sens_epochs), "--seed", seed,
                        "--out", inputs.path("sensitivity.csv")],
    }


@dataclass
class Command:
    code: int
    stdout: str
    wall: float = 0.0
    cpu: float = 0.0      # user + sys of this child alone
    rss_mb: float = 0.0   # this child's peak resident set


def run_cli(argv, env, workdir: Path) -> Command:
    """Run one CLI command to completion, with its own rusage from wait4.

    RUSAGE_CHILDREN would be a high-water mark over every child so far, so
    one command's memory would carry into the next.
    """
    out_path = workdir / "cli.stdout"
    with open(out_path, "wb") as out, open(workdir / "cli.stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "choicerbm.cli", *argv],
                                stdout=out, stderr=err, env=env, cwd=workdir)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Command(code=proc.returncode,
                   stdout=out_path.read_text(encoding="utf-8"), wall=wall,
                   cpu=usage.ru_utime + usage.ru_stime,
                   rss_mb=usage.ru_maxrss / 1024.0)


def import_seconds(env, workdir, repeats=3) -> float:
    """Median wall time of a fresh interpreter importing the CLI module."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import choicerbm.cli"],
                       env=env, cwd=workdir, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_session(inputs: Inputs, env) -> dict:
    return {step: run_cli(argv, env, inputs.workdir)
            for step, argv in session_argv(inputs).items()}


def _table_error(stdout: str) -> float:
    """validation_error from the results row a train or evaluate prints."""
    lines = stdout.splitlines()
    if len(lines) < 2 or not lines[0].startswith("model,validation_error"):
        raise ValueError("no results row")
    return float(lines[1].split(",")[1])


def check_predictions(path, n_rows: int):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    n_alt = sum(h.startswith("p_") for h in header)
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if n_alt != N_ALTERNATIVES or table.shape[0] != n_rows:
        return f"predictions: {table.shape[0]} rows x {n_alt} alternatives"
    if not np.array_equal(table[:, 0], np.arange(1, n_rows + 1)):
        return "predictions: row ids are not 1..N"
    probs = table[:, 1:1 + n_alt]
    if np.max(np.abs(probs.sum(axis=1) - 1.0)) > 1e-9:
        return "predictions: probabilities do not sum to 1 within 1e-9"
    if not np.array_equal(table[:, 1 + n_alt], probs.argmax(axis=1) + 1):
        return "predictions: predicted is not the argmax"
    return None


def check_ranks(path):
    with open(path, encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()]
    header, body = rows[0], rows[1:]
    rank_cols = [c for c, name in enumerate(header) if name.endswith("_rank")]
    expected = {"J0_full_rank", "J0_sample_rank", "J2_full_rank",
                "J2_sample_rank"}
    if {header[c] for c in rank_cols} != expected:
        return f"sensitivity: rank columns {[header[c] for c in rank_cols]}"
    want = list(range(1, N_FEATURES + 2))
    for c in rank_cols:
        if sorted(int(r[c]) for r in body) != want:
            return f"sensitivity: {header[c]} is not a permutation of 1..K+1"
    return None


def check_session(inputs: Inputs, cmds: dict, reference_model):
    """Failures found in one session's outputs, and the validation error.

    `cmds` maps each step to its Command; `reference_model` holds the
    bytes an earlier session with the same seed wrote, or None.
    """
    failures = [f"{step} exited {c.code}" for step, c in cmds.items()
                if c.code != 0]
    if failures:
        return failures, float("nan")
    for name in ("crbm.model", "mnl.model"):
        try:
            report.load_model(inputs.path(name))
        except (OSError, ValueError) as exc:
            failures.append(f"{name} does not load: {exc}")
    model_bytes = (inputs.workdir / "crbm.model").read_bytes()
    if reference_model is not None and model_bytes != reference_model:
        failures.append("same seed wrote a different crbm.model")
    try:
        valid_error = _table_error(cmds["train"].stdout)
        if valid_error >= inputs.majority_error:
            failures.append(f"valid_error {valid_error} is not below the "
                            f"majority-class error {inputs.majority_error}")
        if _table_error(cmds["evaluate"].stdout) != valid_error:
            failures.append("evaluate does not reproduce the train report")
    except (ValueError, IndexError) as exc:
        failures.append(f"unreadable results row: {exc}")
        valid_error = float("nan")
    try:
        problems = [check_predictions(inputs.path("predictions.csv"),
                                      inputs.shape.rows),
                    check_ranks(inputs.path("sensitivity.csv"))]
    except (OSError, ValueError, IndexError) as exc:
        problems = [f"unreadable output: {exc}"]
    return failures + [p for p in problems if p], valid_error


def session_metrics(cmds: dict, valid_error: float) -> dict:
    """End-to-end metrics of one session, except set-up time, plus the
    wall time of each command as "cmd.<step>_s"."""
    out = {f"cmd.{step}_s": c.wall for step, c in cmds.items()}
    out["session_s"] = sum(c.wall for c in cmds.values())
    out["cpu_s"] = sum(c.cpu for c in cmds.values())
    out["peak_rss_mb"] = max(c.rss_mb for c in cmds.values())
    out["valid_error"] = valid_error
    return out


def median_metrics(per_op: list) -> dict:
    return {name: statistics.median(m[name] for m in per_op)
            for name in per_op[0]}
