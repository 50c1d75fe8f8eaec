#!/usr/bin/env python3
"""Run every CLI command on two planted models and checksum what they write.

Two checkouts whose `SHA256SUMS` files are equal wrote byte-identical
outputs: model files, train/evaluate/sensitivity stdout, sensitivity
stderr (its warnings, in their order), prediction and sensitivity CSVs,
Hinton SVGs, generated datasets and the `--help` text of each subcommand
at 80 columns, so a changed flag, help text or flag order shows too.
Each J = 2 model also scores, with `--whole-file`, a fresh draw of its
planted model (seed 13), so out-of-sample scoring is pinned as well.  A
second sensitivity run with patience 1 pins early stopping, which the
default patience of 20 never reaches in 10 epochs.  The commands run as
`python -m choicerbm.cli` subprocesses of the `choicerbm` package this
script imports, so PYTHONPATH picks the checkout under test.  The two
models run side by side, each command after the one before it.  A
command that fails stops the script with its stderr.

Each command's own peak RSS, `ru_maxrss` from `os.wait4` in MB, goes to
`peak_rss.txt`, one line per command named by its argv, which
`SHA256SUMS` leaves out.  A child starts as a copy of this script's
process, so a value can include the script's own high-water mark at
launch (numpy and the planted models are loaded by then).

Usage:
    PYTHONPATH=src python3 scripts/cli_outputs.py OUTDIR [--rows 3000] [--epochs 10]
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

import choicerbm
from choicerbm import oracle
from choicerbm.model import CrbmParams, block_shapes

SUBCOMMANDS = ("train", "evaluate", "predict", "sensitivity", "hinton",
               "generate")

# Each command's peak RSS; not checksummed, as it varies between runs.
RSS_FILE = "peak_rss.txt"

TRAIN = ["--batch", "32", "--lr", "0.05", "--cd-k", "2", "--seed", "0",
         "--init-scale", "0.5"]


def random_planted(n_rows: int, seed: int) -> oracle.PlantedModel:
    """A paper-shape model (I = 13, K = 20, J = 2) with N(0, 0.5) blocks."""
    rng = np.random.default_rng(20170)
    params = CrbmParams(*(rng.normal(0.0, 0.5, shape)
                          for shape in block_shapes(13, 2, 20)))
    return oracle.PlantedModel(
        params=params, context=(oracle.ContextSpec("normal"),) * 20,
        n_rows=n_rows, seed=seed)


def table_commands(name: str, epochs: int) -> list:
    """(argv, stdout file or None, stderr file or None) of every command on
    one planted model, in run order; output paths are relative to the
    output directory."""
    fit = TRAIN + ["--epochs", str(epochs)]
    data = ["--data", f"{name}.csv"]
    cmds = [(["generate", "--planted", f"{name}.planted.json",
              "--out", f"{name}.csv"], None)]
    cmds += [(["train", *data, "--hidden", str(j), *fit,
               "--out", f"{name}.J{j}.model"], f"{name}.J{j}.train.txt")
             for j in (0, 2)]
    model = ["--model", f"{name}.J2.model"]
    cmds += [(["evaluate", *model, *data], f"{name}.J2.evaluate.txt"),
             (["evaluate", *model, *data, "--whole-file"],
              f"{name}.J2.evaluate_whole.txt")]
    # Out-of-sample scoring: a fresh draw of the same planted model.
    cmds += [(["generate", "--planted", f"{name}.planted.json",
               "--seed", "13", "--out", f"{name}.fresh.csv"], None),
             (["evaluate", *model, "--data", f"{name}.fresh.csv",
               "--whole-file"], f"{name}.J2.evaluate_fresh.txt")]
    cmds.append((["predict", *model, *data, "--out", f"{name}.J2.preds.csv"],
                 None))
    cmds += [(["hinton", *model, "--block", block,
               "--out", f"{name}.J2.{block}.svg"], None)
             for block in ("A", "B", "D")]
    sensitivity = ["sensitivity", *data, "--hidden", "0,2", *fit,
                   "--fraction", "0.5", "--replicates", "3"]
    # Only the sensitivity runs keep their stderr, which holds the warnings
    # of every fit, in order.  Patience 1 stops the replicate fits early,
    # at different epochs, so fits leave the stack before the last epoch.
    cmds = [(argv, stdout_name, None) for argv, stdout_name in cmds]
    for run, flags in (("sensitivity", []),
                       ("sensitivity_stop", ["--patience", "1"])):
        cmds.append(([*sensitivity, *flags, "--out", f"{name}.{run}.csv"],
                     f"{name}.{run}.txt", f"{name}.{run}.err.txt"))
    return cmds


def run_cli(argv, stdout_name, out_dir: Path, env, stderr_name=None) -> str:
    """Run one command in `out_dir`, writing its stdout to `stdout_name`
    and its stderr to `stderr_name` unless they are None, and return its
    `peak_rss.txt` line.

    The child's own rusage comes from `os.wait4` on its pid, as the
    benchmark reads it; RUSAGE_CHILDREN would carry one command's peak
    into the next.
    """
    out = os.devnull if stdout_name is None else out_dir / stdout_name
    with open(out, "wb") as stdout, (
            tempfile.TemporaryFile() if stderr_name is None
            else open(out_dir / stderr_name, "w+b")) as err:
        proc = subprocess.Popen([sys.executable, "-m", "choicerbm.cli", *argv],
                                cwd=out_dir, env=env, stdout=stdout, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            sys.exit(f"error: choicerbm {' '.join(argv)} exited "
                     f"{proc.returncode}: "
                     f"{err.read().decode(errors='replace').strip()}")
    return f"{usage.ru_maxrss / 1024.0:.2f}  {' '.join(argv)}\n"


def run_table(name, pm, out_dir: Path, epochs: int, env) -> list:
    """Save `pm`, then run its commands one after another; their
    `peak_rss.txt` lines in run order."""
    oracle.save_planted(pm, out_dir / f"{name}.planted.json")
    return [run_cli(argv, stdout_name, out_dir, env, stderr_name)
            for argv, stdout_name, stderr_name
            in table_commands(name, epochs)]


def write_sums(out_dir: Path) -> Path:
    """`sha256sum`-format lines for every other file, sorted by name."""
    lines = [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}\n"
             for path in sorted(out_dir.iterdir())
             if path.is_file() and path.name not in ("SHA256SUMS", RSS_FILE)]
    sums = out_dir / "SHA256SUMS"
    sums.write_text("".join(lines), encoding="utf-8")
    return sums


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out_dir", type=Path)
    ap.add_argument("--rows", type=int, default=3000,
                    help="rows drawn from each planted model")
    ap.add_argument("--epochs", type=int, default=10,
                    help="epochs of every fit")
    args = ap.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)
    src = Path(choicerbm.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    print(f"choicerbm from {src}")

    planted = {"band": oracle.band_planted_model(n_rows=args.rows, seed=11),
               "random": random_planted(n_rows=args.rows, seed=12)}
    with ThreadPoolExecutor(len(planted)) as pool:
        rss = [line
               for done in [pool.submit(run_table, name, pm, args.out_dir,
                                        args.epochs, env)
                            for name, pm in planted.items()]
               for line in done.result()]
    for command in SUBCOMMANDS:
        rss.append(run_cli([command, "--help"], f"help.{command}.txt",
                           args.out_dir, {**env, "COLUMNS": "80"}))
    (args.out_dir / RSS_FILE).write_text("".join(rss), encoding="utf-8")
    print(write_sums(args.out_dir))


if __name__ == "__main__":
    main()
