"""Toy sequence encoders: embedding lookup plus one self-attention mix layer.

Deliberately minimal stand-ins for large pretrained encoders. Each modality
embeds its discrete ids (`gather`) and applies a single-head scaled
dot-product self-attention layer with a residual connection
(`diffcore.self_attention`); the speech side adds a residual linear
post-projection, `add(x, matmul(x, speech.post_w))`, on top of a frozen
codebook, so an encoder is two or four graph nodes. There is no positional
encoding, so the encoders are permutation equivariant; the attention
machinery downstream is position-agnostic anyway.

An encoder takes a whole mini-batch at once: the ids of every sequence,
concatenated, and their `diffcore.Segments`. The lookup and the projections
are row-wise; only the attention needs the segments, so that a row attends
to its own sequence. The ids of one sequence of n ids are `Segments((n,))`.

An encoder takes its ops as an argument, `ops`: the `diffcore` module
(the default) builds graph nodes, and `diffcore.on_arrays` runs the same ops
on arrays and returns an array, as prediction does (it passes segments).

The encoders own no parameters: they read their matrices from the model, a
dict keyed by the names of `fusion.PARAMETERS` ("text.query_w", ...), which
`fusion.init_model` draws.
"""

from __future__ import annotations

from typing import Sequence

from . import diffcore
from .diffcore import Node, Segments

DEFAULT_DIM = 16


def text_encode(tokens: Sequence[int], params: dict[str, Node], segments: Segments, ops=diffcore):
    """Sequence representation, one row per token."""
    embedded = ops.gather(params["text.embedding"], tokens, "token id")
    return ops.self_attention(
        embedded, params["text.query_w"], params["text.key_w"], params["text.value_w"], segments
    )


def speech_encode(codes: Sequence[int], params: dict[str, Node], segments: Segments, ops=diffcore):
    """Frame representation, one row per code, from the frozen codebook."""
    embedded = ops.gather(params["speech.codebook"], codes, "code id")
    mixed = ops.self_attention(
        embedded, params["speech.query_w"], params["speech.key_w"], params["speech.value_w"],
        segments,
    )
    return ops.add(mixed, ops.matmul(mixed, params["speech.post_w"]))
