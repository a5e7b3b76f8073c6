"""BaitRadar: a six-modality clickbait video classifier built on masked
element-wise average fusion, tolerant of missing inputs at inference time."""

from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import (
    DatasetSplit,
    SignalStrengths,
    StatsFeatures,
    SyntheticConfig,
    ThumbnailImage,
    VideoRecord,
    generate_synthetic,
    load_jsonl,
    load_ppm,
    split_dataset,
    write_corpus,
)
from .encoders import EncoderConfig, StatsNormalizer
from .fusion import Prediction
from .metrics import ConfusionMatrix, SweepResult, accuracy, evaluate, sweep_combinations
from .modalities import MODALITIES, ModalityMask
from .model import BaitRadarModel
from .textpipe import Vocabulary, build_vocab, encode, tokenize
from .training import TrainConfig, TrainReport, prepare_corpus, train, train_individual

__version__ = "0.1.0"

__all__ = [
    "BaitRadarModel",
    "ConfusionMatrix",
    "DatasetSplit",
    "EncoderConfig",
    "MODALITIES",
    "ModalityMask",
    "Prediction",
    "SignalStrengths",
    "StatsFeatures",
    "StatsNormalizer",
    "SweepResult",
    "SyntheticConfig",
    "ThumbnailImage",
    "TrainConfig",
    "TrainReport",
    "VideoRecord",
    "Vocabulary",
    "accuracy",
    "build_vocab",
    "encode",
    "evaluate",
    "generate_synthetic",
    "load_checkpoint",
    "load_jsonl",
    "load_ppm",
    "prepare_corpus",
    "save_checkpoint",
    "split_dataset",
    "sweep_combinations",
    "tokenize",
    "train",
    "train_individual",
    "write_corpus",
    "__version__",
]
