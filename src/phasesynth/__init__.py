"""Time-conditioned autoregressive multi-phase contrast MRI synthesis,
segmentation, and classification on synthetic phantom data."""

from . import autodiff
from .attention import DtamConfig, gaussian_decay, mmhsa_block
from .encoder import (ConditionalToken, build_conditional_token, encode_features,
                      phase_embedding, time_encoding)
from .losses import LossWeights, adam_step, cls_loss, lr_at, seg_loss, syn_loss, total_loss
from .model import (ABLATIONS, ModelConfig, PhaseOutput, PredictionBundle,
                    aggregate_segmentation, fuse_and_classify, init_params,
                    run_autoregressive, synthesize_phase)
from .phantom import (CaseRecord, LesionSpec, PhantomConfig, enhancement_curve,
                      generate_case, generate_dataset)
from .tcc import predict_signal, signal_label, tcc_loss
from .training import TrainConfig, run_ablation, train

__all__ = [
    "ABLATIONS", "CaseRecord", "ConditionalToken", "DtamConfig",
    "LesionSpec", "LossWeights", "ModelConfig", "PhantomConfig", "PhaseOutput",
    "PredictionBundle", "TrainConfig", "adam_step",
    "aggregate_segmentation", "autodiff", "build_conditional_token", "cls_loss",
    "encode_features", "enhancement_curve", "fuse_and_classify",
    "gaussian_decay", "generate_case", "generate_dataset", "init_params", "lr_at",
    "mmhsa_block", "phase_embedding", "predict_signal", "run_ablation",
    "run_autoregressive", "seg_loss", "signal_label", "syn_loss", "synthesize_phase",
    "tcc_loss", "time_encoding", "total_loss", "train",
]
