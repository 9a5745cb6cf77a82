"""Toy sequence encoders: embedding lookup plus one self-attention mix layer.

Deliberately minimal stand-ins for large pretrained encoders. Each modality
embeds its discrete ids and applies a single-head scaled dot-product
self-attention layer with a residual connection; the speech side adds a
residual linear post-projection on top of a frozen codebook. There is no
positional encoding, so the encoders are permutation equivariant; the
attention machinery downstream is position-agnostic anyway.

The encoders own no parameters: they read their matrices from the model, a
dict keyed by the names of `fusion.PARAMETERS` ("text.query_w", ...), which
`fusion.init_model` draws.
"""

from __future__ import annotations

import math
from typing import Sequence

from .diffcore import Node, add, gather, matmul, row_softmax, scale, transpose

DEFAULT_DIM = 16


def _self_mix(embedded: Node, query_w: Node, key_w: Node, value_w: Node) -> Node:
    dim = embedded.value.cols
    queries = matmul(embedded, query_w)
    keys = matmul(embedded, key_w)
    values = matmul(embedded, value_w)
    scores = scale(matmul(queries, transpose(keys)), 1.0 / math.sqrt(dim))
    return add(embedded, matmul(row_softmax(scores), values))


def text_encode(tokens: Sequence[int], params: dict[str, Node]) -> Node:
    """Sequence representation, one row per token."""
    embedded = gather(params["text.embedding"], tokens, "token id")
    return _self_mix(embedded, params["text.query_w"], params["text.key_w"], params["text.value_w"])


def speech_encode(codes: Sequence[int], params: dict[str, Node]) -> Node:
    """Frame representation, one row per code, from the frozen codebook."""
    embedded = gather(params["speech.codebook"], codes, "code id")
    mixed = _self_mix(
        embedded, params["speech.query_w"], params["speech.key_w"], params["speech.value_w"]
    )
    return add(mixed, matmul(mixed, params["speech.post_w"]))
