"""Latent-variable discrete choice estimation with a conditional RBM."""

import os
import sys

# One BLAS thread unless the caller chose otherwise.  OpenBLAS reads this
# once, when numpy loads it, so it must be set before the first import of
# numpy below; a host that loaded numpy already keeps its own setting.  One
# thread keeps the BHHH information product's summation order, and with it
# the standard errors, independent of the core count, and leaves no idle
# worker spinning on a second core.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .dataset import (ChoiceDataset, NormStats, SplitSpec, from_arrays,
                      load_csv, refit_normalization, split)
from .inference import predict_batch
from .model import (BLOCK_NAMES, CrbmParams, ParamBlocks, block_shapes,
                    choice_probs, param_count, sample_categorical)
from .report import hinton_svg, load_model, save_model
from .sensitivity import SensitivityReport, rank_agreement, sensitivity_run
from .stats import (FitReport, bic, evaluate, log_likelihood, rho_squared,
                    t_statistics)
from .trainer import (TrainConfig, TrainTrace, TrainingDivergedError, cd_step,
                      train_crbm)

__all__ = [
    "ChoiceDataset", "NormStats", "SplitSpec", "from_arrays", "load_csv",
    "refit_normalization", "split",
    "predict_batch",
    "BLOCK_NAMES", "CrbmParams", "ParamBlocks", "block_shapes", "choice_probs",
    "param_count", "sample_categorical",
    "hinton_svg", "load_model", "save_model",
    "SensitivityReport", "rank_agreement", "sensitivity_run",
    "FitReport", "bic", "evaluate", "log_likelihood", "rho_squared",
    "t_statistics",
    "TrainConfig", "TrainTrace", "TrainingDivergedError", "cd_step",
    "train_crbm",
]

__version__ = "0.1.0"
