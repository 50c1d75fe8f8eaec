#!/usr/bin/env python3
"""Run every CLI command on two planted models and checksum what they write.

Two checkouts whose `SHA256SUMS` files are equal wrote byte-identical
outputs: model files, train/evaluate/sensitivity stdout, prediction and
sensitivity CSVs, Hinton SVGs and generated datasets.  The commands run
as `python -m choicerbm.cli` subprocesses of the `choicerbm` package this
script imports, so PYTHONPATH picks the checkout under test.  The two
models run side by side, each command after the one before it.  A command
that fails stops the script with its stderr.

Usage:
    PYTHONPATH=src python3 scripts/cli_outputs.py OUTDIR [--rows 3000] [--epochs 10]
"""

import argparse
import hashlib
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

import choicerbm
from choicerbm import oracle
from choicerbm.model import CrbmParams, block_shapes

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
    """(argv, stdout file or None) of every command on one planted model,
    in run order; output paths are relative to the output directory."""
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
    cmds.append((["predict", *model, *data, "--out", f"{name}.J2.preds.csv"],
                 None))
    cmds += [(["hinton", *model, "--block", block,
               "--out", f"{name}.J2.{block}.svg"], None)
             for block in ("A", "B", "D")]
    cmds.append((["sensitivity", *data, "--hidden", "0,2", *fit,
                  "--fraction", "0.5", "--replicates", "3",
                  "--out", f"{name}.sensitivity.csv"],
                 f"{name}.sensitivity.txt"))
    return cmds


def run_table(name, pm, out_dir: Path, epochs: int, env):
    """Save `pm`, then run its commands one after another."""
    oracle.save_planted(pm, out_dir / f"{name}.planted.json")
    for argv, stdout_name in table_commands(name, epochs):
        proc = subprocess.run([sys.executable, "-m", "choicerbm.cli", *argv],
                              cwd=out_dir, env=env, capture_output=True,
                              text=True)
        if proc.returncode != 0:
            sys.exit(f"error: choicerbm {' '.join(argv)} exited "
                     f"{proc.returncode}: {proc.stderr.strip()}")
        if stdout_name is not None:
            (out_dir / stdout_name).write_text(proc.stdout, encoding="utf-8")


def write_sums(out_dir: Path) -> Path:
    """`sha256sum`-format lines for every other file, sorted by name."""
    lines = [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}\n"
             for path in sorted(out_dir.iterdir())
             if path.is_file() and path.name != "SHA256SUMS"]
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
        for done in [pool.submit(run_table, name, pm, args.out_dir,
                                 args.epochs, env)
                     for name, pm in planted.items()]:
            done.result()
    print(write_sums(args.out_dir))


if __name__ == "__main__":
    main()
