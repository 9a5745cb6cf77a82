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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .corpus import Utterance
from .diffcore import (
    Matrix,
    Node,
    add,
    concat_cols,
    constant,
    cross_entropy,
    matmul,
    mse,
    parameter,
    pool,
    row_l2_normalize,
    row_softmax,
    scale,
    transpose,
)
from .encoders import (
    SpeechEncoderParams,
    TextEncoderParams,
    init_speech_encoder,
    init_text_encoder,
    speech_encode,
    text_encode,
)
from .errors import DimensionError, NonFiniteError
from .labelkit import LabelBank

DEFAULT_LOSS_WEIGHTS = (1.0, 0.5, 0.2, 0.2)


class FusionMode(Enum):
    """How the token-to-frame alignment weights are chosen."""

    CONSTRAINT = "constraint"  # vanilla weights, penalised toward label-guided
    SUM = "sum"  # vanilla + label-guided, no penalty
    ONLY_LABEL = "only-label"  # label-guided weights alone
    ONLY_VANILLA = "only-vanilla"  # vanilla weights alone


@dataclass(frozen=True)
class LossBreakdown:
    """The four component losses and their weighted total."""

    main: float
    constraint: float
    guide_text: float
    guide_speech: float
    total: float
    weights: tuple[float, float, float, float]


@dataclass(frozen=True)
class AttentionBundle:
    """Attention maps of one forward pass, as plain matrices."""

    label_token: Matrix  # seq_len_text x classes, cosine profile
    label_frame: Matrix  # seq_len_speech x classes
    vanilla: Matrix  # text x speech alignment, rows are distributions
    label_guided: Matrix  # text x speech alignment from class profiles

    def to_lines(self) -> list[str]:
        """Long-form table of every map: matrix,row,col,value."""
        lines = ["matrix,row,col,value"]
        for name, matrix in (
            ("label_token", self.label_token),
            ("label_frame", self.label_frame),
            ("vanilla", self.vanilla),
            ("label_guided", self.label_guided),
        ):
            for r in range(matrix.rows):
                for c in range(matrix.cols):
                    lines.append(f"{name},{r},{c},{matrix.array[r, c]:.12g}")
        return lines


@dataclass
class FusionParams:
    cross_map: Node  # speech_dim x text_dim bilinear map
    classifier_w: Node  # (text_dim + speech_dim) x classes
    classifier_b: Node  # 1 x classes
    text_head_w: Node  # text_dim x classes, unimodal head
    text_head_b: Node
    speech_head_w: Node  # speech_dim x classes
    speech_head_b: Node


@dataclass
class ModelParams:
    text: TextEncoderParams
    speech: SpeechEncoderParams
    fusion: FusionParams
    text_labels: Node  # classes x text_dim
    speech_labels: Node  # classes x speech_dim
    labels_trainable: bool

    @property
    def classes(self) -> int:
        return self.text_labels.value.rows

    def named_trainable(self) -> list[tuple[str, Node]]:
        """Trainable parameters in a fixed, documented order."""
        pairs = [
            ("text.embedding", self.text.embedding),
            ("text.query_w", self.text.query_w),
            ("text.key_w", self.text.key_w),
            ("text.value_w", self.text.value_w),
            ("speech.query_w", self.speech.query_w),
            ("speech.key_w", self.speech.key_w),
            ("speech.value_w", self.speech.value_w),
            ("speech.post_w", self.speech.post_w),
            ("fusion.cross_map", self.fusion.cross_map),
            ("fusion.classifier_w", self.fusion.classifier_w),
            ("fusion.classifier_b", self.fusion.classifier_b),
            ("fusion.text_head_w", self.fusion.text_head_w),
            ("fusion.text_head_b", self.fusion.text_head_b),
            ("fusion.speech_head_w", self.fusion.speech_head_w),
            ("fusion.speech_head_b", self.fusion.speech_head_b),
        ]
        if self.labels_trainable:
            pairs.append(("labels.text", self.text_labels))
            pairs.append(("labels.speech", self.speech_labels))
        return pairs

    def named_arrays(self) -> list[tuple[str, Node]]:
        """Every matrix that defines the model, frozen ones included."""
        pairs = self.named_trainable()
        pairs.append(("speech.codebook", self.speech.codebook))
        if not self.labels_trainable:
            pairs.append(("labels.text", self.text_labels))
            pairs.append(("labels.speech", self.speech_labels))
        return pairs


def init_fusion_params(
    text_dim: int, speech_dim: int, classes: int, rng: np.random.Generator
) -> FusionParams:
    def weight(rows: int, cols: int) -> Node:
        return parameter(Matrix(rng.normal(0.0, 1.0 / np.sqrt(rows), size=(rows, cols))))

    return FusionParams(
        cross_map=weight(speech_dim, text_dim),
        classifier_w=weight(text_dim + speech_dim, classes),
        classifier_b=parameter(Matrix.zeros(1, classes)),
        text_head_w=weight(text_dim, classes),
        text_head_b=parameter(Matrix.zeros(1, classes)),
        speech_head_w=weight(speech_dim, classes),
        speech_head_b=parameter(Matrix.zeros(1, classes)),
    )


def init_model(
    vocab_text: int,
    vocab_speech: int,
    text_dim: int,
    speech_dim: int,
    label_bank: LabelBank,
    seed: int,
    codebook: Matrix | None = None,
    embedding_table: Matrix | None = None,
) -> ModelParams:
    """Seeded model; label rows come from the bank and may be frozen."""
    rng = np.random.default_rng([seed, 2])
    text = init_text_encoder(vocab_text, text_dim, rng, embedding=embedding_table)
    speech = init_speech_encoder(vocab_speech, speech_dim, rng, codebook=codebook)
    fusion = init_fusion_params(text_dim, speech_dim, label_bank.text_labels.rows, rng)
    wrap = parameter if label_bank.trainable else constant
    return ModelParams(
        text=text,
        speech=speech,
        fusion=fusion,
        text_labels=wrap(label_bank.text_labels),
        speech_labels=wrap(label_bank.speech_labels),
        labels_trainable=label_bank.trainable,
    )


# ---------------------------------------------------------------------------
# Attention building blocks
# ---------------------------------------------------------------------------


def label_attention(sequence: Node, labels: Node) -> Node:
    """Cosine similarity of every sequence row against every label row."""
    return matmul(row_l2_normalize(sequence), transpose(row_l2_normalize(labels)))


# The text and speech sides share one contract; the aliases keep call sites
# readable next to the shapes they carry.
label_token_attention = label_attention
label_frame_attention = label_attention


def guidance_logits(profile: Node) -> Node:
    """Class distribution from the sequence-mean of a cosine profile."""
    return row_softmax(pool(profile, "rows", "mean"))


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


@dataclass
class ForwardResult:
    logits: Node  # 1 x classes
    loss: Node  # 1 x 1 weighted total, root for backward
    breakdown: LossBreakdown
    attention: AttentionBundle


def forward(
    utterance: Utterance,
    params: ModelParams,
    mode: FusionMode,
    weights: tuple[float, float, float, float] = DEFAULT_LOSS_WEIGHTS,
    normalize_label_attention: bool = False,
) -> ForwardResult:
    """Full multimodal pass: logits, weighted loss, and attention maps.

    normalize_label_attention applies a row softmax to the label-guided
    alignment before use; off by default, documented as an extension.
    """
    h_text = text_encode(utterance.text_tokens, params.text)
    h_speech = speech_encode(utterance.frame_codes, params.speech)

    profile_text = label_attention(h_text, params.text_labels)
    profile_speech = label_attention(h_speech, params.speech_labels)
    loss_guide_text = guidance_loss(profile_text, utterance.label)
    loss_guide_speech = guidance_loss(profile_speech, utterance.label)

    vanilla = vanilla_cross_attention(h_text, h_speech, params.fusion.cross_map)
    guided = label_guided_attention(profile_text, profile_speech)
    if normalize_label_attention:
        guided = row_softmax(guided)

    zero = constant([[0.0]])
    if mode is FusionMode.CONSTRAINT:
        align, loss_constraint = vanilla, mse(guided, vanilla)
    elif mode is FusionMode.SUM:
        align, loss_constraint = add(vanilla, guided), zero
    elif mode is FusionMode.ONLY_LABEL:
        align, loss_constraint = guided, zero
    else:
        align, loss_constraint = vanilla, zero

    merged = concat_cols(h_text, aligned_speech(align, h_speech))
    pooled = pool(merged, "rows", "max")
    logits = add(matmul(pooled, params.fusion.classifier_w), params.fusion.classifier_b)
    loss_main = cross_entropy(logits, utterance.label)

    w_main, w_constraint, w_gt, w_gs = (float(w) for w in weights)
    total = add(
        add(
            add(scale(loss_main, w_main), scale(loss_constraint, w_constraint)),
            scale(loss_guide_text, w_gt),
        ),
        scale(loss_guide_speech, w_gs),
    )

    breakdown = LossBreakdown(
        main=float(loss_main.value.array[0, 0]),
        constraint=float(loss_constraint.value.array[0, 0]),
        guide_text=float(loss_guide_text.value.array[0, 0]),
        guide_speech=float(loss_guide_speech.value.array[0, 0]),
        total=float(total.value.array[0, 0]),
        weights=(w_main, w_constraint, w_gt, w_gs),
    )
    bundle = AttentionBundle(
        label_token=profile_text.value,
        label_frame=profile_speech.value,
        vanilla=vanilla.value,
        label_guided=guided.value,
    )
    return ForwardResult(logits=logits, loss=total, breakdown=breakdown, attention=bundle)


@dataclass
class UnimodalResult:
    logits: Node
    loss: Node
    main: float
    guidance: float


def unimodal_forward(
    utterance: Utterance,
    modality: str,
    params: ModelParams,
    weights: tuple[float, float, float, float] = DEFAULT_LOSS_WEIGHTS,
) -> UnimodalResult:
    """Single-tower pass: pooled classifier loss plus the guidance term.

    The guidance weight is the text one for the text tower and the speech
    one for the speech tower; zero reduces to a plain encoder + classifier.
    """
    if modality == "text":
        h = text_encode(utterance.text_tokens, params.text)
        labels, head_w, head_b = params.text_labels, params.fusion.text_head_w, params.fusion.text_head_b
        guide_weight = float(weights[2])
    elif modality == "speech":
        h = speech_encode(utterance.frame_codes, params.speech)
        labels, head_w, head_b = params.speech_labels, params.fusion.speech_head_w, params.fusion.speech_head_b
        guide_weight = float(weights[3])
    else:
        raise ValueError(f"modality must be 'text' or 'speech', got {modality!r}")

    logits = add(matmul(pool(h, "rows", "max"), head_w), head_b)
    loss_main = cross_entropy(logits, utterance.label)
    guide = guidance_loss(label_attention(h, labels), utterance.label)
    loss = add(loss_main, scale(guide, guide_weight))
    return UnimodalResult(
        logits=logits,
        loss=loss,
        main=float(loss_main.value.array[0, 0]),
        guidance=float(guide.value.array[0, 0]),
    )


def predict_logits(
    utterance: Utterance,
    params: ModelParams,
    mode: FusionMode,
    normalize_label_attention: bool = False,
) -> Matrix:
    """Label-free logits path for evaluation; mirrors forward exactly.

    Raises NonFiniteError when the logits are not finite.
    """
    h_text = text_encode(utterance.text_tokens, params.text)
    h_speech = speech_encode(utterance.frame_codes, params.speech)
    if mode is FusionMode.ONLY_VANILLA or mode is FusionMode.CONSTRAINT:
        align = vanilla_cross_attention(h_text, h_speech, params.fusion.cross_map)
    else:
        profile_text = label_attention(h_text, params.text_labels)
        profile_speech = label_attention(h_speech, params.speech_labels)
        guided = label_guided_attention(profile_text, profile_speech)
        if normalize_label_attention:
            guided = row_softmax(guided)
        if mode is FusionMode.SUM:
            vanilla = vanilla_cross_attention(h_text, h_speech, params.fusion.cross_map)
            align = add(vanilla, guided)
        else:
            align = guided
    merged = concat_cols(h_text, aligned_speech(align, h_speech))
    pooled = pool(merged, "rows", "max")
    logits = add(matmul(pooled, params.fusion.classifier_w), params.fusion.classifier_b)
    return _finite_logits(logits)


def unimodal_logits(utterance: Utterance, modality: str, params: ModelParams) -> Matrix:
    """Single-tower logits for evaluation; NonFiniteError when not finite."""
    if modality == "text":
        h = text_encode(utterance.text_tokens, params.text)
        head_w, head_b = params.fusion.text_head_w, params.fusion.text_head_b
    elif modality == "speech":
        h = speech_encode(utterance.frame_codes, params.speech)
        head_w, head_b = params.fusion.speech_head_w, params.fusion.speech_head_b
    else:
        raise ValueError(f"modality must be 'text' or 'speech', got {modality!r}")
    return _finite_logits(add(matmul(pool(h, "rows", "max"), head_w), head_b))


def predict(utterance: Utterance, params: ModelParams, mode: FusionMode, **kwargs) -> int:
    logits = predict_logits(utterance, params, mode, **kwargs)
    return int(np.argmax(logits.array[0]))


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

    Perturbs every entry of every trainable matrix (3 tokens, 5 frames,
    4 classes, width 8) and compares against the backward pass.
    """
    from .diffcore import grad_check

    rng = np.random.default_rng([seed, 9])
    vocab_text, vocab_speech, dim, classes = 12, 15, 8, 4
    utt = Utterance(
        tuple(int(t) for t in rng.integers(0, vocab_text, size=3)),
        tuple(int(c) for c in rng.integers(0, vocab_speech, size=5)),
        int(rng.integers(0, classes)),
    )
    codebook = Matrix(rng.normal(0.0, 0.5, size=(vocab_speech, dim)))
    shapes = [
        (vocab_text, dim),  # text embedding
        (dim, dim), (dim, dim), (dim, dim),  # text mix weights
        (dim, dim), (dim, dim), (dim, dim), (dim, dim),  # speech mix + post
        (dim, dim),  # cross map
        (2 * dim, classes), (1, classes),  # fused classifier
        (classes, dim), (classes, dim),  # label rows
    ]
    inputs = [Matrix(rng.normal(0.0, 0.5, size=shape)) for shape in shapes]
    frozen_head = Matrix.zeros(dim, classes)
    frozen_bias = Matrix.zeros(1, classes)

    def builder(emb, tq, tk, tv, sq, sk, sv, sp, cm, cw, cb, lt, ls):
        params = ModelParams(
            text=TextEncoderParams(embedding=emb, query_w=tq, key_w=tk, value_w=tv),
            speech=SpeechEncoderParams(
                codebook=constant(codebook), query_w=sq, key_w=sk, value_w=sv, post_w=sp
            ),
            fusion=FusionParams(
                cross_map=cm,
                classifier_w=cw,
                classifier_b=cb,
                text_head_w=constant(frozen_head),
                text_head_b=constant(frozen_bias),
                speech_head_w=constant(frozen_head),
                speech_head_b=constant(frozen_bias),
            ),
            text_labels=lt,
            speech_labels=ls,
            labels_trainable=True,
        )
        return forward(utt, params, mode, weights, normalize_label_attention).loss

    return grad_check(builder, inputs, step=step, op_name=f"total_loss[{mode.value}]")
