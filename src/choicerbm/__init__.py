"""Latent-variable discrete choice estimation with a conditional RBM."""

from .dataset import (ChoiceDataset, NormStats, SplitSpec, from_arrays, kfold,
                      load_csv, refit_normalization, split)
from .inference import Prediction, predict, predict_batch
from .model import (BLOCK_NAMES, CrbmParams, ParamBlocks, block_shapes,
                    choice_probs, free_energy, hidden_activation_probs,
                    param_count, sample_categorical)
from .report import HintonSpec, hinton_svg, load_model, save_model
from .sensitivity import SensitivityReport, rank_agreement, sensitivity_run
from .stats import (FitReport, bic, evaluate, log_likelihood, rho_squared,
                    t_statistics, validation_error)
from .trainer import (TrainConfig, TrainTrace, TrainingDivergedError, cd_step,
                      train_crbm, train_mnl)

__all__ = [
    "ChoiceDataset", "NormStats", "SplitSpec", "from_arrays", "kfold",
    "load_csv", "refit_normalization", "split",
    "Prediction", "predict", "predict_batch",
    "BLOCK_NAMES", "CrbmParams", "ParamBlocks", "block_shapes", "choice_probs",
    "free_energy", "hidden_activation_probs", "param_count",
    "sample_categorical",
    "HintonSpec", "hinton_svg", "load_model", "save_model",
    "SensitivityReport", "rank_agreement", "sensitivity_run",
    "FitReport", "bic", "evaluate", "log_likelihood", "rho_squared",
    "t_statistics", "validation_error",
    "TrainConfig", "TrainTrace", "TrainingDivergedError", "cd_step",
    "train_crbm", "train_mnl",
]

__version__ = "0.1.0"
