"""Label-guided multimodal fusion for emotion classification at desk scale.

The package pairs a tiny reverse-mode matrix autodiff core with a complete
label-enhanced fusion pipeline: per-class keyword extraction over discrete
token/frame sequences, label-aware attention encoders, label-guided
cross-attention fusion, a composite training objective, and a training /
evaluation CLI over synthetic paired corpora with a planted class signal.
"""

from .corpus import Corpus, CorpusSpec, Utterance, generate, load, save, split
from .diffcore import GradCheckReport, Matrix, Node, backward, grad_check
from .evalkit import EvalResult, evaluate, run_ablation, sweep_k
from .fusion import (
    AttentionBundle,
    ForwardResult,
    FusionMode,
    forward,
    score_fusion,
    unimodal_forward,
)
from .labelkit import LabelDescriptions, tfidf_topk
from .trainer import Checkpoint, TrainConfig, TrainLog, load_checkpoint, save_checkpoint, train

__version__ = "0.1.0"

__all__ = [
    "AttentionBundle",
    "Checkpoint",
    "Corpus",
    "CorpusSpec",
    "EvalResult",
    "ForwardResult",
    "FusionMode",
    "GradCheckReport",
    "LabelDescriptions",
    "Matrix",
    "Node",
    "TrainConfig",
    "TrainLog",
    "Utterance",
    "backward",
    "evaluate",
    "forward",
    "generate",
    "grad_check",
    "load",
    "load_checkpoint",
    "run_ablation",
    "save",
    "save_checkpoint",
    "score_fusion",
    "split",
    "sweep_k",
    "tfidf_topk",
    "train",
    "unimodal_forward",
    "__version__",
]
