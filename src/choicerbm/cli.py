"""Command-line entry point wiring the estimation workflow together.

Subcommands: train, evaluate, predict, sensitivity, hinton, generate.
Each training flag takes its default from its `trainer.TrainConfig` field
and `--split` from `dataset.SplitSpec`, so `train` with no tuning flags
runs the reference recipe.  Exit codes: 0 success, 2 usage error, 1
runtime failure with a one-line diagnostic.  As a program, each
warning prints as one `warning: <message>` line.
"""

import argparse
import csv
import os
import sys
import warnings

import numpy as np

from . import dataset, report, sensitivity, stats, trainer
from .inference import predict_batch, write_predictions_csv


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """A parser whose errors are one line, like every other diagnostic."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="choicerbm",
        description="Latent-variable discrete choice estimation with a "
                    "conditional RBM")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_train_flags(sp, with_hidden=True):
        sp.add_argument("--data", required=True, help="dataset CSV path")
        sp.add_argument("--choice-col", default="choice",
                        help="name of the integer choice column")
        sp.add_argument("--features", default=None,
                        help="comma-separated feature columns "
                             "(default: all non-choice columns)")
        if with_hidden:
            sp.add_argument("--hidden", type=int, default=2,
                            help="latent variables J; 0 selects the MNL baseline")
        # A dataclass field's default is its class attribute.
        cfg, spec = trainer.TrainConfig, dataset.SplitSpec
        sp.add_argument("--epochs", type=int, default=cfg.epochs)
        sp.add_argument("--batch", type=int, default=cfg.batch_size)
        sp.add_argument("--lr", type=float, default=cfg.learning_rate)
        sp.add_argument("--cd-k", type=int, default=cfg.cd_k)
        sp.add_argument("--seed", type=int, default=cfg.seed)
        sp.add_argument("--split", type=float, default=spec.train_fraction,
                        help="training fraction of the data")
        sp.add_argument("--patience", type=int,
                        default=cfg.early_stop_patience,
                        help="early-stopping patience in epochs")
        sp.add_argument("--init-scale", type=float,
                        default=cfg.weight_init_scale,
                        help="std dev of the weight initialization")
        sp.add_argument("--weight-decay", type=float, default=cfg.weight_decay)

    sp = sub.add_parser("train", help="estimate a model and print a results row")
    add_train_flags(sp)
    sp.add_argument("--out", required=True, help="model file to write")

    sp = sub.add_parser("evaluate", help="print the fit report of a saved model")
    sp.add_argument("--model", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--whole-file", action="store_true",
                    help="score every row instead of replaying the saved "
                         "train/validation split")

    sp = sub.add_parser("predict", help="write batch predictions as CSV")
    sp.add_argument("--model", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("sensitivity",
                        help="subsample refits and the sensitivity rank table")
    add_train_flags(sp, with_hidden=False)
    sp.add_argument("--hidden", default="2",
                    help="comma-separated latent sizes, one column group each")
    sp.add_argument("--fraction", type=float, default=0.1)
    sp.add_argument("--replicates", type=int, default=5)
    sp.add_argument("--out", required=True, help="CSV table to write")

    sp = sub.add_parser("hinton", help="render a weight block as an SVG diagram")
    sp.add_argument("--model", required=True)
    sp.add_argument("--block", required=True, choices=report.HINTON_BLOCKS,
                    help="B: choice-context, D: choice-hidden, A: hidden-context")
    sp.add_argument("--out", required=True)
    sp.add_argument("--threshold", type=float, default=1.96)

    sp = sub.add_parser("generate", help="draw a synthetic dataset CSV")
    sp.add_argument("--planted", required=True,
                    help="planted-model JSON (see oracle.save_planted)")
    sp.add_argument("--n", type=int, default=None, help="rows to draw")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", required=True)
    return parser


def _feature_list(arg):
    if arg is None:
        return None
    cols = [c.strip() for c in arg.split(",") if c.strip()]
    if not cols:
        raise UsageError("--features given but empty")
    return cols


def _train_config(args) -> trainer.TrainConfig:
    cfg = trainer.TrainConfig(
        cd_k=args.cd_k, batch_size=args.batch, epochs=args.epochs,
        learning_rate=args.lr, seed=args.seed, weight_decay=args.weight_decay,
        early_stop_patience=args.patience, weight_init_scale=args.init_scale)
    try:
        cfg.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return cfg


def _load_split(args):
    if not 0.0 < args.split < 1.0:
        raise UsageError("--split must lie in (0, 1)")
    spec = dataset.SplitSpec(train_fraction=args.split, seed=args.seed)
    # No name holds the whole file's dataset while the split is rescaled.
    return spec, *dataset.refit_normalization(*dataset.split(
        dataset.load_csv(args.data, args.choice_col,
                         _feature_list(args.features)), spec))


def _cmd_train(args) -> int:
    cfg = _train_config(args)
    if args.hidden < 0:
        raise UsageError("--hidden must be >= 0")
    spec, train_ds, valid_ds = _load_split(args)
    params, trace = trainer.train_crbm(train_ds, valid_ds, args.hidden, cfg)
    rep = stats.evaluate(params, train_ds, valid_ds)
    report.save_model(
        params, args.out, norm_stats=train_ds.norm_stats,
        feature_names=train_ds.feature_names,
        alternative_names=train_ds.alternative_names,
        train_config=cfg,
        metrics=report.fit_metrics(rep, trace.best_epoch, spec),
        std_errs=rep.std_errs, tstats=rep.tstats,
        choice_column=args.choice_col)
    label = "MNL" if args.hidden == 0 else f"CRBM-J{args.hidden}"
    sys.stdout.write(stats.report_table_rows([(label, rep)]))
    return 0


def _cmd_evaluate(args) -> int:
    params, meta = report.load_model(args.model)
    read = dict(path=args.data, choice_column=meta["choice_column"],
                feature_columns=list(meta["feature_names"]),
                n_alternatives=params.n_alternatives)
    if args.whole_file:
        ds = dataset.load_csv(**read, norm_stats=meta["norm_stats"])
        rep = stats.evaluate(params, ds, ds)
    else:
        # Replay the exact split and scaling used when the model was
        # trained, so the printed metrics reproduce the training output.
        metrics = meta["metrics"]
        spec = dataset.SplitSpec(train_fraction=metrics["split_fraction"],
                                 seed=int(metrics["split_seed"]))
        rep = stats.evaluate(params, *dataset.refit_normalization(
            *dataset.split(dataset.load_csv(**read), spec)))
    label = "MNL" if params.n_hidden == 0 else f"CRBM-J{params.n_hidden}"
    sys.stdout.write(stats.report_table_rows([(label, rep)]))
    sys.stdout.write(f"valid_loglik,{rep.loglik_valid:.6f}\n")
    sys.stdout.write(f"mean_true_prob,{rep.mean_true_prob:.6f}\n")
    return 0


def _cmd_predict(args) -> int:
    params, meta = report.load_model(args.model)
    x = dataset.load_features_csv(args.data, list(meta["feature_names"]),
                                  meta["norm_stats"])
    probs, h_act = predict_batch(params, x)
    write_predictions_csv(args.out, probs, h_act, meta["alternative_names"])
    return 0


def _cmd_sensitivity(args) -> int:
    try:
        hidden_sizes = [int(tok) for tok in args.hidden.split(",") if tok != ""]
    except ValueError:
        hidden_sizes = []
    if (not hidden_sizes or any(j < 0 for j in hidden_sizes)
            or len(set(hidden_sizes)) < len(hidden_sizes)):
        raise UsageError("--hidden must list distinct non-negative integers")
    if not 0.0 < args.fraction <= 1.0:
        raise UsageError("--fraction must lie in (0, 1]")
    if args.replicates < 1:
        raise UsageError("--replicates must be >= 1")
    cfg = _train_config(args)
    _, train_ds, valid_ds = _load_split(args)
    reports = [
        sensitivity.sensitivity_run(train_ds, j, cfg, args.fraction,
                                    args.replicates, args.seed)
        for j in hidden_sizes
    ]
    table = sensitivity.sensitivity_table_csv(reports)
    with report.atomic_open(args.out) as fh:
        fh.write(table)
    sys.stdout.write(table)
    for rep in reports:
        rho = sensitivity.rank_agreement(rep.full_rank, rep.sub_rank)
        sys.stdout.write(f"J{rep.n_hidden}_spearman_rho,{rho:.6f}\n")
    return 0


def _cmd_hinton(args) -> int:
    if not 0.0 <= args.threshold < np.inf:
        raise UsageError("--threshold must be a non-negative number")
    params, meta = report.load_model(args.model)
    values, rows, cols, t = report.hinton_block(
        args.block, params, meta["tstats"], meta["alternative_names"],
        meta["feature_names"])
    if values.size == 0:
        raise UsageError(f"block {args.block} is empty for this model")
    with report.atomic_open(args.out) as fh:
        fh.write(report.hinton_svg(values, rows, cols, t, args.threshold))
    return 0


def _cmd_generate(args) -> int:
    if args.n is not None and args.n < 1:
        raise UsageError("--n must be >= 1")
    if args.seed is not None and args.seed < 0:
        raise UsageError("--seed must be >= 0")
    from . import oracle    # no other command needs it
    pm = oracle.load_planted(args.planted, n_rows=args.n, seed=args.seed)
    oracle.write_dataset_csv(pm, args.out)
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "predict": _cmd_predict,
    "sensitivity": _cmd_sensitivity,
    "hinton": _cmd_hinton,
    "generate": _cmd_generate,
}


def _check_out(args):
    """Refuse an `--out` that names the command's own input file."""
    out = getattr(args, "out", "")      # `evaluate` writes no file
    for flag in ("data", "model", "planted"):
        source = getattr(args, flag, "")
        if (os.path.exists(out) and os.path.exists(source)
                and os.path.samefile(out, source)):
            raise UsageError(f"--out names the same file as --{flag}")


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        _check_out(args)
        return _COMMANDS[args.command](args)
    except (OSError, ValueError, RuntimeError, MemoryError, csv.Error) as exc:
        text = " ".join(str(exc).splitlines())
        if isinstance(exc, MemoryError):
            text = "out of memory" + (f" ({text})" if text else "")
        sys.stderr.write(f"error: {text}\n")
        return 2 if isinstance(exc, (UsageError, FileNotFoundError)) else 1


def _one_line_warning(message, category, filename, lineno, line=None):
    return f"warning: {' '.join(str(message).splitlines())}\n"


def main():
    # Warnings print like every other diagnostic: one line, no source.
    # Set here, not in `run`, because the format is the whole process's.
    warnings.formatwarning = _one_line_warning
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
