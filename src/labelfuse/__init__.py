"""Label-guided multimodal fusion for emotion classification at desk scale.

README.md gives the user contract: the CLI, the file formats, the defaults,
the parameters and determinism. Each module's docstring describes how that
module works.
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
