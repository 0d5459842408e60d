"""ufolab: intensity-controlled low-rank adapters for a toy diffusion video generator."""

from . import heap

heap.keep_freed_heap_pages()  # before the imports below: one policy for every module

from .adapter import (
    AdapterStack,
    UfoAdapter,
    compose,
    init_adapter,
    load_adapter,
    save_adapter,
    transfer,
)
from .config import ExperimentConfig, load_config
from .diffusion import sample, training_losses
from .errors import (
    ConfigError,
    ContractError,
    DimensionError,
    FingerprintError,
    FormatError,
    NumericError,
    UfolabError,
)
from .metrics import (
    MetricsReport,
    consistency_score,
    estimate_flow,
    evaluate_set,
    oft,
    temporal_flicker_score,
    write_metrics_csv,
)
from .model import DiffusionModel, ModelConfig, build_model, fingerprint, load_model, save_model
from .synthdata import clip_stream, gen_moving_scene, make_static_video, render_clip
from .tensor import Tensor, backward, recording
from .train import TrainConfig, train_base, train_ufo_consistency, train_ufo_style
from .video import Clip, load_clip, save_clip

__version__ = "0.1.0"
