#!/usr/bin/env python3
"""Desk-scale replica of the full estimation workflow on synthetic data.

Draws a dataset from the band-structured planted model, fits the MNL
baseline and C-RBMs of increasing latent size, prints the comparison
table, and renders Hinton diagrams for the best latent model.

Usage:
    python3 scripts/run_planted_experiment.py [--rows 50000] [--out-dir results]
"""

import argparse
import time
import warnings
from pathlib import Path

import numpy as np

from choicerbm import oracle
from choicerbm.dataset import SplitSpec, refit_normalization, split
from choicerbm.report import (HINTON_BLOCKS, fit_metrics, hinton_block,
                              hinton_svg, save_model)
from choicerbm.stats import evaluate, report_table_rows
from choicerbm.trainer import TrainConfig, train_crbm

warnings.filterwarnings("ignore", message="information matrix")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--rows", type=int, default=50_000)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--hidden", default="0,2,4",
                    help="comma-separated latent sizes to fit")
    ap.add_argument("--out-dir", default="results")
    args = ap.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    pm = oracle.band_planted_model(n_rows=args.rows, seed=args.seed)
    ds = oracle.generate(pm)
    spec = SplitSpec(train_fraction=0.70, seed=5)
    train_ds, valid_ds = refit_normalization(*split(ds, spec))
    print(f"rows: {ds.n_rows} (train {train_ds.n_rows} / valid "
          f"{valid_ds.n_rows}), alternatives: {ds.n_alternatives}, "
          f"features: {ds.n_features}")

    cfg = TrainConfig(batch_size=256, epochs=150, learning_rate=0.05, cd_k=3,
                      seed=0, early_stop_patience=40, weight_init_scale=1.0)
    rows, fits = [], {}
    for n_hidden in (int(tok) for tok in args.hidden.split(",")):
        label = "MNL" if n_hidden == 0 else f"CRBM-J{n_hidden}"
        t0 = time.monotonic()
        params, trace = train_crbm(train_ds, valid_ds, n_hidden, cfg)
        rep = evaluate(params, train_ds, valid_ds)
        rows.append((label, rep))
        fits[n_hidden] = (params, rep)
        print(f"  {label}: best epoch {trace.best_epoch}, "
              f"{time.monotonic() - t0:.1f}s")
        save_model(params, out_dir / f"{label.lower()}.model",
                   norm_stats=train_ds.norm_stats,
                   feature_names=train_ds.feature_names,
                   alternative_names=train_ds.alternative_names,
                   train_config=cfg,
                   metrics=fit_metrics(rep, trace.best_epoch, spec),
                   std_errs=rep.std_errs, tstats=rep.tstats,
                   choice_column="choice")

    table = report_table_rows(rows)
    print("\n" + table)
    (out_dir / "model_comparison.csv").write_text(table)

    best_j = max(j for j in fits if j > 0) if any(j > 0 for j in fits) else None
    if best_j is not None:
        params, rep = fits[best_j]
        for block in HINTON_BLOCKS:
            path = out_dir / f"hinton_{block}_J{best_j}.svg"
            path.write_text(hinton_svg(*hinton_block(
                block, params, rep.tstats, train_ds.alternative_names,
                train_ds.feature_names)))
            print(f"wrote {path}")


if __name__ == "__main__":
    main()
