"""Toy sequence encoders: embedding lookup plus one self-attention mix layer.

Deliberately minimal stand-ins for large pretrained encoders. Each modality
embeds its discrete ids and applies a single-head scaled dot-product
self-attention layer with a residual connection; the speech side adds a
residual linear post-projection on top of a frozen codebook. There is no
positional encoding, so the encoders are permutation equivariant; the
attention machinery downstream is position-agnostic anyway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .diffcore import (
    Matrix,
    Node,
    add,
    constant,
    gather,
    matmul,
    parameter,
    row_softmax,
    scale,
    transpose,
)

EMBED_INIT_STD = 0.02
DEFAULT_DIM = 16


@dataclass
class TextEncoderParams:
    embedding: Node  # vocab x dim, trainable
    query_w: Node  # dim x dim
    key_w: Node
    value_w: Node

    @property
    def dim(self) -> int:
        return self.embedding.value.cols

    @property
    def vocab(self) -> int:
        return self.embedding.value.rows


@dataclass
class SpeechEncoderParams:
    codebook: Node  # vocab x dim, frozen
    query_w: Node  # dim x dim
    key_w: Node
    value_w: Node
    post_w: Node  # dim x dim, residual projection after mixing

    @property
    def dim(self) -> int:
        return self.codebook.value.cols

    @property
    def vocab(self) -> int:
        return self.codebook.value.rows


def _mix_weight(rng: np.random.Generator, dim: int) -> Matrix:
    return Matrix(rng.normal(0.0, 1.0 / math.sqrt(dim), size=(dim, dim)))


def init_text_encoder(
    vocab: int, dim: int, rng: np.random.Generator, embedding: Matrix | None = None
) -> TextEncoderParams:
    if embedding is None:
        embedding = Matrix(rng.normal(0.0, EMBED_INIT_STD, size=(vocab, dim)))
    return TextEncoderParams(
        embedding=parameter(embedding),
        query_w=parameter(_mix_weight(rng, dim)),
        key_w=parameter(_mix_weight(rng, dim)),
        value_w=parameter(_mix_weight(rng, dim)),
    )


def init_speech_encoder(
    vocab: int, dim: int, rng: np.random.Generator, codebook: Matrix | None = None
) -> SpeechEncoderParams:
    if codebook is None:
        codebook = Matrix(rng.normal(0.0, EMBED_INIT_STD, size=(vocab, dim)))
    return SpeechEncoderParams(
        codebook=constant(codebook),
        query_w=parameter(_mix_weight(rng, dim)),
        key_w=parameter(_mix_weight(rng, dim)),
        value_w=parameter(_mix_weight(rng, dim)),
        post_w=parameter(_mix_weight(rng, dim)),
    )


def init_params(
    vocab_text: int,
    vocab_speech: int,
    text_dim: int = DEFAULT_DIM,
    speech_dim: int = DEFAULT_DIM,
    seed: int = 0,
) -> tuple[TextEncoderParams, SpeechEncoderParams]:
    """Seeded initialisation of both encoders."""
    rng = np.random.default_rng([seed, 2])
    return (
        init_text_encoder(vocab_text, text_dim, rng),
        init_speech_encoder(vocab_speech, speech_dim, rng),
    )


def _self_mix(embedded: Node, query_w: Node, key_w: Node, value_w: Node) -> Node:
    dim = embedded.value.cols
    queries = matmul(embedded, query_w)
    keys = matmul(embedded, key_w)
    values = matmul(embedded, value_w)
    scores = scale(matmul(queries, transpose(keys)), 1.0 / math.sqrt(dim))
    return add(embedded, matmul(row_softmax(scores), values))


def text_encode(tokens: Sequence[int], params: TextEncoderParams) -> Node:
    """Sequence representation, one row per token."""
    embedded = gather(params.embedding, tokens, "token id")
    return _self_mix(embedded, params.query_w, params.key_w, params.value_w)


def speech_encode(codes: Sequence[int], params: SpeechEncoderParams) -> Node:
    """Frame representation, one row per code, from the frozen codebook."""
    embedded = gather(params.codebook, codes, "code id")
    mixed = _self_mix(embedded, params.query_w, params.key_w, params.value_w)
    return add(mixed, matmul(mixed, params.post_w))
