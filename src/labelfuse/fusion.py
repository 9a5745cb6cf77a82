"""Label-guided attentive fusion head and its composite training objective.

The pieces, per utterance:

* label-token / label-frame attention: cosine similarity between every
  sequence row and every label-embedding row, giving per-position class
  profiles for each modality;
* guidance losses: cross entropy on the sequence-mean of a class profile,
  rewarding positions that agree with the true class;
* vanilla cross attention: softmax-normalised token-to-frame alignment
  from a trainable bilinear map;
* label-guided attention: token-to-frame alignment from the agreement of
  the two class profiles;
* an alignment-constraint penalty (mean squared error) pulling the vanilla
  alignment toward the label-guided one;
* a fused classifier over the concatenation of the text rows with the
  aligned speech rows, max-pooled into a fixed-length vector.

The total objective is the weighted sum of the fused classification loss,
the constraint penalty, and the two guidance losses.

Every matrix of the model is named once, in `PARAMETERS`, with its shape
and init rule. A model is a plain dict from those names to nodes, in table
order: `model_from_arrays` builds one from named matrices and holds the
freeze rule, and `init_model` is the only place a model is drawn: the
embedding table and the codebook come from `default_rng([seed, 3])`, every
weight from `default_rng([seed, 2])`, in table order; biases are zero and
the label rows come from the caller, built on the two drawn tables.
Checkpoints, the optimizer and the grad check loop over the dict.

`forward` (multimodal) and `unimodal_forward` (one tower) both return a
`ForwardResult`; `attention_maps` gives the four maps of the multimodal pass
without a label or a loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping

import numpy as np

from .corpus import Utterance
from .diffcore import (
    Matrix,
    Node,
    add,
    backward,
    concat_cols,
    constant,
    cross_entropy,
    grad_check,
    matmul,
    mse,
    parameter,
    pool,
    row_l2_normalize,
    row_softmax,
    scale,
    transpose,
)
from .encoders import speech_encode, text_encode
from .errors import DimensionError, NonFiniteError

DEFAULT_LOSS_WEIGHTS = (1.0, 0.5, 0.2, 0.2)
EMBED_INIT_STD = 0.02


class FusionMode(Enum):
    """How the token-to-frame alignment weights are chosen."""

    CONSTRAINT = "constraint"  # vanilla weights, penalised toward label-guided
    SUM = "sum"  # vanilla + label-guided, no penalty
    ONLY_LABEL = "only-label"  # label-guided weights alone
    ONLY_VANILLA = "only-vanilla"  # vanilla weights alone


@dataclass(frozen=True)
class LossBreakdown:
    """The component losses and their weighted total, in train-log column order.

    A single tower has no constraint and one guidance term; it reports 0.0
    for the terms it lacks.
    """

    main: float
    constraint: float
    guide_text: float
    guide_speech: float
    total: float


@dataclass(frozen=True)
class AttentionBundle:
    """The four attention maps of one utterance (`attention_maps`), as plain matrices."""

    label_token: Matrix  # seq_len_text x classes, cosine profile
    label_frame: Matrix  # seq_len_speech x classes
    vanilla: Matrix  # text x speech alignment, rows are distributions
    label_guided: Matrix  # text x speech alignment from class profiles

    def to_lines(self) -> list[str]:
        """Long-form table of every map: matrix,row,col,value."""
        lines = ["matrix,row,col,value"]
        for name, matrix in vars(self).items():  # the fields, in declaration order
            for r in range(matrix.rows):
                for c in range(matrix.cols):
                    lines.append(f"{name},{r},{c},{matrix.array[r, c]:.12g}")
        return lines


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

# Every matrix of the model: name -> (rows, cols, init rule), in draw order.
# "table" and "frozen table" draw from default_rng([seed, 3]) with std
# EMBED_INIT_STD; "weight" draws from default_rng([seed, 2]) with std
# 1/sqrt(rows); "zeros" draws nothing; "labels" come from init_model's
# `label_rows`. The unimodal heads come last, so the fused objective's
# matrices lead the grad check's single draw stream.
PARAMETERS = {
    "text.embedding": ("vocab_text", "text_dim", "table"),
    "speech.codebook": ("vocab_speech", "speech_dim", "frozen table"),
    "text.query_w": ("text_dim", "text_dim", "weight"),
    "text.key_w": ("text_dim", "text_dim", "weight"),
    "text.value_w": ("text_dim", "text_dim", "weight"),
    "speech.query_w": ("speech_dim", "speech_dim", "weight"),
    "speech.key_w": ("speech_dim", "speech_dim", "weight"),
    "speech.value_w": ("speech_dim", "speech_dim", "weight"),
    "speech.post_w": ("speech_dim", "speech_dim", "weight"),
    "fusion.cross_map": ("speech_dim", "text_dim", "weight"),
    "fusion.classifier_w": ("fused_dim", "classes", "weight"),
    "fusion.classifier_b": ("one", "classes", "zeros"),
    "labels.text": ("classes", "text_dim", "labels"),
    "labels.speech": ("classes", "speech_dim", "labels"),
    "fusion.text_head_w": ("text_dim", "classes", "weight"),
    "fusion.text_head_b": ("one", "classes", "zeros"),
    "fusion.speech_head_w": ("speech_dim", "classes", "weight"),
    "fusion.speech_head_b": ("one", "classes", "zeros"),
}


def _shapes(dims: Mapping[str, int]) -> dict[str, tuple[int, int]]:
    """Shape of every matrix, from vocab_text, vocab_speech, text_dim, speech_dim, classes."""
    sizes = {**dims, "fused_dim": dims["text_dim"] + dims["speech_dim"], "one": 1}
    return {name: (sizes[rows], sizes[cols]) for name, (rows, cols, _) in PARAMETERS.items()}


def model_from_arrays(arrays: Mapping[str, Matrix], labels_trainable: bool) -> dict[str, Node]:
    """The model: each matrix of `PARAMETERS`, in table order, as a parameter or a constant.

    The codebook is always frozen, the label rows unless labels_trainable.
    Raises KeyError naming the first matrix `arrays` lacks.
    """
    model = {}
    for name, (_, _, rule) in PARAMETERS.items():
        frozen = rule == "frozen table" or (rule == "labels" and not labels_trainable)
        model[name] = (constant if frozen else parameter)(arrays[name])
    return model


def init_model(
    dims: Mapping[str, int],
    seed: int,
    label_rows: Callable[[Matrix, Matrix], tuple[Matrix, Matrix]],
    labels_trainable: bool,
) -> dict[str, Node]:
    """The seeded model: every matrix of `PARAMETERS`, drawn in table order.

    dims gives vocab_text, vocab_speech, text_dim, speech_dim and classes.
    `label_rows(embedding, codebook)` returns the text and speech label rows,
    built on the two drawn tables, so label modes that average table rows see
    the very rows the encoders use; they train only when labels_trainable.
    """
    table_rng = np.random.default_rng([seed, 3])
    weight_rng = np.random.default_rng([seed, 2])
    arrays: dict[str, Matrix] = {}
    for name, shape in _shapes(dims).items():
        rule = PARAMETERS[name][2]
        if rule.endswith("table"):
            arrays[name] = Matrix(table_rng.normal(0.0, EMBED_INIT_STD, size=shape))
        elif rule == "weight":
            arrays[name] = Matrix(weight_rng.normal(0.0, 1.0 / np.sqrt(shape[0]), size=shape))
        elif rule == "zeros":
            arrays[name] = Matrix.zeros(*shape)
    arrays["labels.text"], arrays["labels.speech"] = label_rows(
        arrays["text.embedding"], arrays["speech.codebook"]
    )
    return model_from_arrays(arrays, labels_trainable)


# ---------------------------------------------------------------------------
# Attention building blocks
# ---------------------------------------------------------------------------


def label_attention(sequence: Node, labels: Node) -> Node:
    """Cosine similarity of every sequence row against every label row."""
    return matmul(row_l2_normalize(sequence), transpose(row_l2_normalize(labels)))


def guidance_loss(profile: Node, label: int) -> Node:
    """Cross entropy of the pooled profile against the true class.

    The pooled means act directly as logits; the softmax inside the cross
    entropy is the only normalisation applied.
    """
    return cross_entropy(pool(profile, "rows", "mean"), label)


def vanilla_cross_attention(h_text: Node, h_speech: Node, cross_map: Node) -> Node:
    """Softmax-normalised token-to-frame alignment from a bilinear score."""
    scores = matmul(h_text, transpose(matmul(h_speech, cross_map)))
    return row_softmax(scores)


def aligned_speech(weights: Node, h_speech: Node) -> Node:
    """Weigh frame rows into one aligned row per token."""
    return matmul(weights, h_speech)


def label_guided_attention(profile_text: Node, profile_speech: Node) -> Node:
    """Token-to-frame alignment from the agreement of class profiles."""
    if profile_text.value.cols != profile_speech.value.cols:
        raise DimensionError(
            f"class counts differ ({profile_text.value.cols} vs {profile_speech.value.cols})"
        )
    return matmul(profile_text, transpose(profile_speech))


def class_averaged_attention(profile: Matrix) -> tuple[float, ...]:
    """Per-position mean over the class dimension of a cosine profile."""
    return tuple(float(v) for v in profile.array.mean(axis=1))


def score_fusion(logits_text: Matrix, logits_speech: Matrix) -> int:
    """Predicted class from summed unimodal logits; ties pick the lowest id."""
    for name, logits in (("text", logits_text), ("speech", logits_speech)):
        if logits.rows != 1:
            raise DimensionError(f"{name} logits must be 1xc, got {logits.rows}x{logits.cols}")
    if logits_text.cols != logits_speech.cols:
        raise DimensionError(
            f"logit widths differ ({logits_text.cols} vs {logits_speech.cols})"
        )
    summed = logits_text.array[0] + logits_speech.array[0]
    return int(np.argmax(summed))


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------


def _finite_logits(logits: Node) -> Matrix:
    """The 1 x c logits of a prediction, which must be finite."""
    if not np.isfinite(logits.value.array).all():
        raise NonFiniteError("predicted logits are not finite")
    return logits.value


def _value(node: Node) -> float:
    return float(node.value.array[0, 0])


def _fused_pass(
    utterance: Utterance,
    params: dict[str, Node],
    mode: FusionMode,
    normalize_label_attention: bool,
    all_maps: bool,
) -> tuple[Node, tuple[Node, Node] | None, Node | None, Node | None]:
    """Encoders, alignment and fused logits: (logits, profiles, vanilla, guided).

    With all_maps (training and attention export) every map is built, because
    the guidance losses read the class profiles and the constraint reads both
    alignments. Prediction builds only what the mode's alignment uses and
    returns None for the rest.
    """
    h_text = text_encode(utterance.text_tokens, params)
    h_speech = speech_encode(utterance.frame_codes, params)
    profiles = vanilla = guided = None
    if all_maps or mode in (FusionMode.SUM, FusionMode.ONLY_LABEL):
        profiles = (
            label_attention(h_text, params["labels.text"]),
            label_attention(h_speech, params["labels.speech"]),
        )
        guided = label_guided_attention(*profiles)
        if normalize_label_attention:
            guided = row_softmax(guided)
    if all_maps or mode is not FusionMode.ONLY_LABEL:
        vanilla = vanilla_cross_attention(h_text, h_speech, params["fusion.cross_map"])

    if mode is FusionMode.SUM:
        align = add(vanilla, guided)
    elif mode is FusionMode.ONLY_LABEL:
        align = guided
    else:
        align = vanilla
    merged = concat_cols(h_text, aligned_speech(align, h_speech))
    pooled = pool(merged, "rows", "max")
    logits = add(matmul(pooled, params["fusion.classifier_w"]), params["fusion.classifier_b"])
    return logits, profiles, vanilla, guided


@dataclass
class ForwardResult:
    logits: Node  # 1 x classes
    loss: Node  # 1 x 1 weighted total, root for backward
    breakdown: LossBreakdown


def forward(
    utterance: Utterance,
    params: dict[str, Node],
    mode: FusionMode,
    weights: tuple[float, float, float, float] = DEFAULT_LOSS_WEIGHTS,
    normalize_label_attention: bool = False,
) -> ForwardResult:
    """Full multimodal pass: logits and the weighted loss with its breakdown.

    normalize_label_attention applies a row softmax to the label-guided
    alignment before use; off by default, documented as an extension.
    """
    logits, (profile_text, profile_speech), vanilla, guided = _fused_pass(
        utterance, params, mode, normalize_label_attention, all_maps=True
    )
    loss_guide_text = guidance_loss(profile_text, utterance.label)
    loss_guide_speech = guidance_loss(profile_speech, utterance.label)
    if mode is FusionMode.CONSTRAINT:
        loss_constraint = mse(guided, vanilla)
    else:
        loss_constraint = constant([[0.0]])
    loss_main = cross_entropy(logits, utterance.label)

    w_main, w_constraint, w_gt, w_gs = (float(w) for w in weights)
    total = add(
        add(
            add(scale(loss_main, w_main), scale(loss_constraint, w_constraint)),
            scale(loss_guide_text, w_gt),
        ),
        scale(loss_guide_speech, w_gs),
    )
    parts = (loss_main, loss_constraint, loss_guide_text, loss_guide_speech, total)
    return ForwardResult(logits, total, LossBreakdown(*(_value(node) for node in parts)))


def attention_maps(
    utterance: Utterance,
    params: dict[str, Node],
    mode: FusionMode,
    normalize_label_attention: bool = False,
) -> AttentionBundle:
    """The four attention maps of the pass `forward` makes; needs no label."""
    _, (profile_text, profile_speech), vanilla, guided = _fused_pass(
        utterance, params, mode, normalize_label_attention, all_maps=True
    )
    return AttentionBundle(profile_text.value, profile_speech.value, vanilla.value, guided.value)


def predict_logits(
    utterance: Utterance,
    params: dict[str, Node],
    mode: FusionMode,
    normalize_label_attention: bool = False,
) -> Matrix:
    """Label-free logits of the same pass as forward, for evaluation.

    Raises NonFiniteError when the logits are not finite.
    """
    return _finite_logits(
        _fused_pass(utterance, params, mode, normalize_label_attention, all_maps=False)[0]
    )


def _tower(utterance: Utterance, modality: str, params: dict[str, Node]) -> tuple[Node, Node, Node]:
    """One modality's sequence rows, its label rows and its pooled-head logits."""
    if modality == "text":
        h = text_encode(utterance.text_tokens, params)
    elif modality == "speech":
        h = speech_encode(utterance.frame_codes, params)
    else:
        raise ValueError(f"modality must be 'text' or 'speech', got {modality!r}")
    head = add(matmul(pool(h, "rows", "max"), params[f"fusion.{modality}_head_w"]),
               params[f"fusion.{modality}_head_b"])
    return h, params[f"labels.{modality}"], head


def unimodal_forward(
    utterance: Utterance,
    modality: str,
    params: dict[str, Node],
    weights: tuple[float, float, float, float] = DEFAULT_LOSS_WEIGHTS,
) -> ForwardResult:
    """Single-tower pass: pooled classifier loss plus the guidance term.

    The guidance weight is the text one for the text tower and the speech
    one for the speech tower; zero reduces to a plain encoder + classifier.
    The breakdown has 0.0 for the constraint and the other tower's guidance.
    """
    h, labels, logits = _tower(utterance, modality, params)
    guide_weight = float(weights[2] if modality == "text" else weights[3])
    loss_main = cross_entropy(logits, utterance.label)
    guide = guidance_loss(label_attention(h, labels), utterance.label)
    loss = add(loss_main, scale(guide, guide_weight))
    guides = (_value(guide), 0.0) if modality == "text" else (0.0, _value(guide))
    return ForwardResult(logits, loss, LossBreakdown(_value(loss_main), 0.0, *guides, _value(loss)))


def unimodal_logits(utterance: Utterance, modality: str, params: dict[str, Node]) -> Matrix:
    """Single-tower logits for evaluation; NonFiniteError when not finite."""
    return _finite_logits(_tower(utterance, modality, params)[2])


# ---------------------------------------------------------------------------
# Whole-objective gradient checking
# ---------------------------------------------------------------------------


def full_loss_grad_check(
    mode: FusionMode,
    seed: int = 0,
    step: float = 1e-5,
    weights: tuple[float, float, float, float] = DEFAULT_LOSS_WEIGHTS,
    normalize_label_attention: bool = False,
):
    """Finite-difference check of the complete objective on a tiny instance.

    3 tokens, 5 frames, 4 classes, width 8. Every matrix is drawn from one
    stream with std 0.5, the frozen codebook first and the rest in table
    order. Every entry of every trainable matrix the fused pass reads (all
    but the unimodal heads) is perturbed and compared against the backward
    pass.
    """
    rng = np.random.default_rng([seed, 9])
    dims = {"vocab_text": 12, "vocab_speech": 15, "text_dim": 8, "speech_dim": 8, "classes": 4}
    utt = Utterance(
        tuple(int(t) for t in rng.integers(0, dims["vocab_text"], size=3)),
        tuple(int(c) for c in rng.integers(0, dims["vocab_speech"], size=5)),
        int(rng.integers(0, dims["classes"])),
    )
    shapes = _shapes(dims)
    order = sorted(shapes, key=lambda name: PARAMETERS[name][2] != "frozen table")
    model = model_from_arrays(
        {name: Matrix(rng.normal(0.0, 0.5, size=shapes[name])) for name in order},
        labels_trainable=True,
    )
    # The constraint objective sends a gradient to every matrix any mode reads.
    backward(forward(utt, model, FusionMode.CONSTRAINT).loss)
    names = [name for name, node in model.items() if node.grad is not None]

    def builder(*leaves):
        params = {**model, **dict(zip(names, leaves))}
        return forward(utt, params, mode, weights, normalize_label_attention).loss

    inputs = [model[name].value for name in names]
    return grad_check(builder, inputs, step=step, op_name=f"total_loss[{mode.value}]")
