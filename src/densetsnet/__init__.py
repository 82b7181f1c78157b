"""Ultra-lightweight magnitude-masking speech enhancement, numpy only.

The package carries its own reverse-mode autodiff, a differentiable STFT
front-end, a dense two-stage masking network built from multi-view gaze
blocks, consistency and metric losses, an AdamW trainer, and an evaluator.
"""

from .autodiff import Tensor, backward, grad_check, no_grad
from .checkpoint import load_checkpoint, save_checkpoint
from .dsp import (AudioClip, ComplexSpec, StftConfig, consistency_project,
                  istft, istft_pair, stft, stft_pair)
from .errors import (ConfigError, DataError, GraphError, NumericalError,
                     ShapeError, ToolkitError)
from .evaluation import EvalReport, evaluate_dir, evaluate_pair, spectral_errors, ssnr
from .losses import (Discriminator, discriminator_loss, generator_loss,
                     metric_loss, proxy_quality)
from .model import ClassicTsNet, DenseTsNet, ModelConfig, build_model
from .params import ParamStore
from .training import (AdamW, DatasetSpec, PairedDataset, TrainConfig,
                       TrainResult, compare_variants, loss_study,
                       make_batch, synth_dataset, train)
from .wavio import wav_read, wav_write

__version__ = "0.1.0"

__all__ = [
    "AdamW", "AudioClip", "ClassicTsNet", "ComplexSpec", "ConfigError",
    "DataError", "DatasetSpec", "DenseTsNet", "Discriminator", "EvalReport",
    "GraphError", "ModelConfig", "NumericalError",
    "PairedDataset", "ParamStore", "ShapeError", "StftConfig", "Tensor",
    "ToolkitError", "TrainConfig", "TrainResult", "backward", "build_model",
    "compare_variants", "consistency_project", "discriminator_loss",
    "evaluate_dir", "evaluate_pair", "generator_loss", "grad_check", "istft",
    "istft_pair", "load_checkpoint", "loss_study", "make_batch", "metric_loss",
    "no_grad", "proxy_quality", "save_checkpoint", "spectral_errors", "ssnr",
    "stft", "stft_pair", "synth_dataset", "train", "wav_read", "wav_write",
]
