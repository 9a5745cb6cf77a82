"""Tests for the toy text/speech encoders."""

import numpy as np
import pytest

from labelfuse import diffcore as dc
from labelfuse import encoders as enc
from labelfuse import fusion as fu
from labelfuse.diffcore import Matrix
from labelfuse.trainer import TrainConfig


def zeroed(params_list):
    for node in params_list:
        node.value = Matrix(np.zeros(node.value.shape))


def total(node):
    """The sum of node's entries, as a 1x1 readout node."""
    return dc._readout(node, np.ones(node.value.shape))


def make_model(vocab_text=10, vocab_speech=12, text_dim=4, speech_dim=4, seed=0):
    dims = {
        "vocab_text": vocab_text,
        "vocab_speech": vocab_speech,
        "text_dim": text_dim,
        "speech_dim": speech_dim,
        "classes": 2,
    }
    labels = (Matrix(np.ones((2, text_dim))), Matrix(np.ones((2, speech_dim))))
    return fu.init_model(dims, seed, lambda embedding, codebook: labels, False)


class TestInit:
    def test_deterministic_in_seed(self):
        m1, m2 = make_model(seed=3), make_model(seed=3)
        assert m1["text.embedding"].value == m2["text.embedding"].value
        assert m1["text.query_w"].value == m2["text.query_w"].value
        assert m1["speech.codebook"].value == m2["speech.codebook"].value
        assert m1["speech.post_w"].value == m2["speech.post_w"].value

    def test_distinct_seeds_distinct_tables(self):
        assert (make_model(seed=1)["text.embedding"].value
                != make_model(seed=2)["text.embedding"].value)

    def test_default_dim(self):
        config = TrainConfig()
        assert config.text_dim == config.speech_dim == enc.DEFAULT_DIM == 16
        model = make_model(text_dim=config.text_dim, speech_dim=config.speech_dim)
        assert model["text.embedding"].value.cols == 16
        assert model["speech.codebook"].value.cols == 16

    def test_codebook_is_frozen_constant(self):
        assert not make_model()["speech.codebook"].requires_grad


class TestTextEncode:
    def test_output_shape(self):
        model = make_model(seed=0)
        for length in (1, 2, 7):
            out = enc.text_encode(list(range(length)), model)
            assert out.value.shape == (length, 4)

    def test_zero_mix_weights_reduce_to_embeddings(self):
        model = make_model(seed=0)
        zeroed([model["text.query_w"], model["text.key_w"], model["text.value_w"]])
        out = enc.text_encode([3, 1, 4], model)
        assert out.value == Matrix(model["text.embedding"].value.array[[3, 1, 4]])

    def test_single_token_hand_oracle(self):
        # With one token the attention weight is exactly 1, so the output is
        # e + (e @ value_w), independent of query/key weights.
        model = make_model(seed=5)
        out = enc.text_encode([7], model)
        e = model["text.embedding"].value.array[7]
        expected = e + e @ model["text.value_w"].value.array
        assert np.allclose(out.value.array[0], expected, atol=1e-15)

    def test_out_of_vocabulary_token(self):
        model = make_model(seed=0)
        with pytest.raises(IndexError, match="token id 10"):
            enc.text_encode([10], model)
        with pytest.raises(IndexError, match="token id -1 out of range"):
            enc.text_encode([3, -1], model)

    def test_deterministic(self):
        model = make_model(seed=0)
        assert enc.text_encode([1, 2, 3], model).value == enc.text_encode([1, 2, 3], model).value

    def test_permutation_equivariant(self):
        model = make_model(seed=4)
        out = enc.text_encode([2, 5, 9], model).value.array
        permuted = enc.text_encode([9, 2, 5], model).value.array
        assert np.allclose(permuted, out[[2, 0, 1]], atol=1e-12)


class TestSpeechEncode:
    def test_output_shape(self):
        model = make_model(seed=0)
        out = enc.speech_encode([0, 5, 11, 3], model)
        assert out.value.shape == (4, 4)

    def test_zero_weights_reduce_to_codebook_rows(self):
        model = make_model(seed=0)
        zeroed([model["speech.query_w"], model["speech.key_w"], model["speech.value_w"],
                model["speech.post_w"]])
        out = enc.speech_encode([2, 8], model)
        assert out.value == Matrix(model["speech.codebook"].value.array[[2, 8]])

    def test_out_of_vocabulary_code(self):
        model = make_model(seed=0)
        with pytest.raises(IndexError, match="code id 12"):
            enc.speech_encode([12], model)
        with pytest.raises(IndexError, match="code id -1 out of range"):
            enc.speech_encode([-1], model)

    def test_codebook_gets_no_gradient(self):
        model = make_model(seed=1)
        out = enc.speech_encode([1, 2, 3], model)
        dc.backward(total(out))
        assert model["speech.codebook"].grad is None
        assert model["speech.query_w"].grad is not None

    def test_mix_weight_gradients_vs_fd(self):
        model = make_model(8, 10, 3, 3, seed=2)
        codes = [1, 4, 7]
        codebook = model["speech.codebook"].value

        def builder(qw, kw, vw, pw):
            params = {
                "speech.codebook": dc.constant(codebook),
                "speech.query_w": qw,
                "speech.key_w": kw,
                "speech.value_w": vw,
                "speech.post_w": pw,
            }
            return total(enc.speech_encode(codes, params))

        rep = dc.grad_check(
            builder,
            [model["speech.query_w"].value, model["speech.key_w"].value,
             model["speech.value_w"].value, model["speech.post_w"].value],
            step=1e-5,
        )
        assert rep.max_relative_error <= 1e-4

    def test_embedding_gradient_vs_fd(self):
        model = make_model(6, 6, 3, 3, seed=6)
        tokens = [0, 2, 2, 5]

        def builder(table, qw, kw, vw):
            params = {
                "text.embedding": table, "text.query_w": qw, "text.key_w": kw, "text.value_w": vw
            }
            return total(enc.text_encode(tokens, params))

        rep = dc.grad_check(
            builder,
            [model["text.embedding"].value, model["text.query_w"].value, model["text.key_w"].value,
             model["text.value_w"].value],
            step=1e-5,
        )
        assert rep.max_relative_error <= 1e-4
