"""Tests for the toy text/speech encoders."""

import numpy as np
import pytest

from labelfuse import diffcore as dc
from labelfuse import encoders as enc
from labelfuse.diffcore import Matrix


def zeroed(params_list):
    for node in params_list:
        node.value = Matrix(np.zeros(node.value.shape))


class TestInit:
    def test_deterministic_in_seed(self):
        t1, s1 = enc.init_params(10, 12, 4, 4, seed=3)
        t2, s2 = enc.init_params(10, 12, 4, 4, seed=3)
        assert t1.embedding.value == t2.embedding.value
        assert t1.query_w.value == t2.query_w.value
        assert s1.codebook.value == s2.codebook.value
        assert s1.post_w.value == s2.post_w.value

    def test_distinct_seeds_distinct_tables(self):
        t1, _ = enc.init_params(10, 12, 4, 4, seed=1)
        t2, _ = enc.init_params(10, 12, 4, 4, seed=2)
        assert t1.embedding.value != t2.embedding.value

    def test_default_dim(self):
        text, speech = enc.init_params(10, 12, seed=0)
        assert text.dim == enc.DEFAULT_DIM == 16
        assert speech.dim == 16

    def test_codebook_is_frozen_constant(self):
        _, speech = enc.init_params(10, 12, 4, 4, seed=0)
        assert not speech.codebook.requires_grad


class TestTextEncode:
    def test_output_shape(self):
        text, _ = enc.init_params(10, 12, 4, 4, seed=0)
        for length in (1, 2, 7):
            out = enc.text_encode(list(range(length)), text)
            assert out.value.shape == (length, 4)

    def test_zero_mix_weights_reduce_to_embeddings(self):
        text, _ = enc.init_params(10, 12, 4, 4, seed=0)
        zeroed([text.query_w, text.key_w, text.value_w])
        out = enc.text_encode([3, 1, 4], text)
        assert out.value == Matrix(text.embedding.value.array[[3, 1, 4]])

    def test_single_token_hand_oracle(self):
        # With one token the attention weight is exactly 1, so the output is
        # e + (e @ value_w), independent of query/key weights.
        text, _ = enc.init_params(10, 12, 4, 4, seed=5)
        out = enc.text_encode([7], text)
        e = text.embedding.value.array[7]
        expected = e + e @ text.value_w.value.array
        assert np.allclose(out.value.array[0], expected, atol=1e-15)

    def test_out_of_vocabulary_token(self):
        text, _ = enc.init_params(10, 12, 4, 4, seed=0)
        with pytest.raises(IndexError, match="token id 10"):
            enc.text_encode([10], text)
        with pytest.raises(IndexError, match="token id -1 out of range"):
            enc.text_encode([3, -1], text)

    def test_deterministic(self):
        text, _ = enc.init_params(10, 12, 4, 4, seed=0)
        assert enc.text_encode([1, 2, 3], text).value == enc.text_encode([1, 2, 3], text).value

    def test_permutation_equivariant(self):
        text, _ = enc.init_params(10, 12, 4, 4, seed=4)
        out = enc.text_encode([2, 5, 9], text).value.array
        permuted = enc.text_encode([9, 2, 5], text).value.array
        assert np.allclose(permuted, out[[2, 0, 1]], atol=1e-12)


class TestSpeechEncode:
    def test_output_shape(self):
        _, speech = enc.init_params(10, 12, 4, 4, seed=0)
        out = enc.speech_encode([0, 5, 11, 3], speech)
        assert out.value.shape == (4, 4)

    def test_zero_weights_reduce_to_codebook_rows(self):
        _, speech = enc.init_params(10, 12, 4, 4, seed=0)
        zeroed([speech.query_w, speech.key_w, speech.value_w, speech.post_w])
        out = enc.speech_encode([2, 8], speech)
        assert out.value == Matrix(speech.codebook.value.array[[2, 8]])

    def test_out_of_vocabulary_code(self):
        _, speech = enc.init_params(10, 12, 4, 4, seed=0)
        with pytest.raises(IndexError, match="code id 12"):
            enc.speech_encode([12], speech)
        with pytest.raises(IndexError, match="code id -1 out of range"):
            enc.speech_encode([-1], speech)

    def test_codebook_gets_no_gradient(self):
        _, speech = enc.init_params(10, 12, 4, 4, seed=1)
        out = enc.speech_encode([1, 2, 3], speech)
        dc.backward(dc.sum_all(out))
        assert speech.codebook.grad is None
        assert speech.query_w.grad is not None

    def test_mix_weight_gradients_vs_fd(self):
        _, speech = enc.init_params(8, 10, 3, 3, seed=2)
        codes = [1, 4, 7]
        codebook = speech.codebook.value

        def builder(qw, kw, vw, pw):
            params = enc.SpeechEncoderParams(
                codebook=dc.constant(codebook), query_w=qw, key_w=kw, value_w=vw, post_w=pw
            )
            return dc.sum_all(enc.speech_encode(codes, params))

        rep = dc.grad_check(
            builder,
            [speech.query_w.value, speech.key_w.value, speech.value_w.value, speech.post_w.value],
            step=1e-5,
        )
        assert rep.max_relative_error <= 1e-4

    def test_embedding_gradient_vs_fd(self):
        text, _ = enc.init_params(6, 6, 3, 3, seed=6)
        tokens = [0, 2, 2, 5]

        def builder(table, qw, kw, vw):
            params = enc.TextEncoderParams(embedding=table, query_w=qw, key_w=kw, value_w=vw)
            return dc.sum_all(enc.text_encode(tokens, params))

        rep = dc.grad_check(
            builder,
            [text.embedding.value, text.query_w.value, text.key_w.value, text.value_w.value],
            step=1e-5,
        )
        assert rep.max_relative_error <= 1e-4
