"""Tests for Adam, the training loop, and checkpoint persistence."""

import json
import math
import struct
from dataclasses import replace

import numpy as np
import pytest

from labelfuse import corpus as cp
from labelfuse import evalkit as ev
from labelfuse import trainer as tr
from labelfuse.diffcore import Matrix, Segments, backward, checked, constant, mse, parameter
from labelfuse.errors import (
    CheckpointIntegrityError,
    ConfigError,
    DimensionError,
    DivergenceError,
    LabelFuseError,
    NonFiniteError,
    UnsupportedVersionError,
)
from labelfuse.fusion import (
    TOWERS, FusionMode, attention_maps, forward, predict_logits, unimodal_logits,
)
from labelfuse.valuetypes import field_types


def tiny_corpus(seed=5, n=40):
    spec = cp.CorpusSpec(
        classes=3, vocab_text=30, vocab_speech=40, text_len=(4, 8), speech_len=(6, 12),
        salient_per_class=3, salience_prob=0.4, seed=seed,
    )
    return cp.split(cp.generate(spec, n), 0.7, seed=seed)


def tiny_config(**overrides):
    base = tr.TrainConfig(
        epochs=2, batch_size=8, text_dim=8, speech_dim=8, top_k_text=3, top_k_speech=5, seed=1
    )
    return replace(base, **overrides)


def rewrite_manifest(path, mutate):
    """Apply `mutate` to a saved checkpoint's manifest; array bytes and CRCs stay valid."""
    raw = path.read_bytes()
    header_end = len(tr._CHECKPOINT_MAGIC) + 8
    (length,) = struct.unpack("<Q", raw[len(tr._CHECKPOINT_MAGIC) : header_end])
    manifest = json.loads(raw[header_end : header_end + length])
    mutate(manifest)
    payload = json.dumps(manifest, sort_keys=True).encode("utf-8")
    path.write_bytes(
        tr._CHECKPOINT_MAGIC + struct.pack("<Q", len(payload)) + payload
        + raw[header_end + length :]
    )


def zero_first_text_label(monkeypatch):
    """Make build_model hand out a zero text-label row, which cannot be normalised."""
    original = tr.label_rows

    def patched(corpus, modality, mode, table, **kwargs):
        rows = original(corpus, modality, mode, table, **kwargs).copy()
        if modality == "text":
            rows[0] = 0.0
        return rows

    monkeypatch.setattr(tr, "label_rows", patched)


class TestAdamUpdate:
    def test_zero_gradient_leaves_value(self):
        value = np.array([[1.0, -2.0]])
        new, m, v = tr.adam_update(
            value, np.zeros_like(value), np.zeros_like(value), np.zeros_like(value),
            t=1, learning_rate=0.1, beta1=0.9, beta2=0.999, epsilon=1e-8,
        )
        assert np.array_equal(new, value)

    def test_first_step_magnitude_is_lr_times_sign(self):
        value = np.zeros((1, 3))
        grad = np.array([[0.5, -2.0, 1e-3]])
        new, _, _ = tr.adam_update(
            value, grad, np.zeros_like(value), np.zeros_like(value),
            t=1, learning_rate=0.01, beta1=0.9, beta2=0.999, epsilon=1e-8,
        )
        assert np.allclose(new, -0.01 * np.sign(grad), rtol=1e-4)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            tr.adam_update(
                np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2)), np.zeros((2, 2)),
                t=1, learning_rate=0.1, beta1=0.9, beta2=0.999, epsilon=1e-8,
            )

    def test_ten_steps_match_scalar_oracle(self):
        # Independent scalar recomputation of the update recurrence on a
        # 2-entry quadratic objective f(x) = sum((x - target)^2).
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        target = np.array([[0.3, -0.7]])
        value = np.zeros((1, 2))
        m = np.zeros((1, 2))
        v = np.zeros((1, 2))
        for t in range(1, 11):
            grad = 2.0 * (value - target)
            value, m, v = tr.adam_update(value, grad, m, v, t, lr, b1, b2, eps)

        xs = [0.0, 0.0]
        ms = [0.0, 0.0]
        vs = [0.0, 0.0]
        for t in range(1, 11):
            for j in range(2):
                g = 2.0 * (xs[j] - target[0, j])
                ms[j] = b1 * ms[j] + (1 - b1) * g
                vs[j] = b2 * vs[j] + (1 - b2) * g * g
                m_hat = ms[j] / (1 - b1**t)
                v_hat = vs[j] / (1 - b2**t)
                xs[j] = xs[j] - lr * m_hat / (math.sqrt(v_hat) + eps)
        assert np.abs(value[0] - np.array(xs)).max() <= 1e-12

    def test_quadratic_converges_to_minimum(self):
        # Planted quadratic with known minimum at 1.25, reached within 1e-3
        # in 500 steps at lr 0.01.
        config = tr.TrainConfig(learning_rate=0.01)
        optimizer = tr.Adam(config)
        target = constant([[1.25]])
        x = parameter([[0.0]])
        for _ in range(500):
            x.zero_grad()
            backward(mse(x, target, Segments((1,)), Segments((1,))))
            optimizer.step([("x", x)])
        assert abs(x.value[0, 0] - 1.25) <= 1e-3

    def test_optimizer_skips_parameters_without_gradient(self):
        config = tr.TrainConfig(learning_rate=0.5)
        optimizer = tr.Adam(config)
        untouched = parameter([[3.0]])
        optimizer.step([("idle", untouched)])
        assert np.array_equal(untouched.value, [[3.0]])
        assert "idle" not in optimizer.m

    def test_a_non_finite_update_writes_nothing(self):
        # b's update overflows to -inf; a's alone would be finite, and it must not move either.
        optimizer = tr.Adam(tr.TrainConfig(learning_rate=1e308))
        a, b = parameter([[1.0]]), parameter([[-1.7e308]])
        for node in (a, b):
            node.grad = checked([[1.0]])
        with np.errstate(over="ignore"), pytest.raises(
            NonFiniteError, match="^matrix entries must be finite$"
        ):
            optimizer.step([("a", a), ("b", b)])
        assert np.array_equal(a.value, [[1.0]])
        assert np.array_equal(b.value, [[-1.7e308]])
        assert (optimizer.t, optimizer.m, optimizer.v) == (0, {}, {})


class TestReadOnlyValues:
    def test_values_handed_out_are_read_only_2d_float64(self):
        # Leaf gradients, Adam updates, predicted logits and attention maps, as op outputs are.
        train_c, held_c = tiny_corpus()
        config = tiny_config()
        model = tr.build_model(train_c, config)
        backward(tr._batch_loss(list(train_c.utterances[:3]), model, config).loss)
        trainable = [(name, node) for name, node in model.items() if node.grad is not None]
        values = {f"{name} grad": node.grad for name, node in trainable}
        tr.Adam(config).step(trainable)
        values.update({f"{name} after Adam": node.value for name, node in trainable})
        utt = held_c.utterances[0]
        mode = FusionMode(config.fusion_mode)
        values["predict_logits"] = predict_logits(utt, model, mode)
        for modality in TOWERS:
            values[f"unimodal_logits {modality}"] = unimodal_logits(utt, modality, model)
        (bundle,) = attention_maps([utt], model, mode)
        values.update(vars(bundle))
        for name, value in values.items():
            assert isinstance(value, np.ndarray) and value.ndim == 2, name
            assert value.dtype == np.float64, name
            assert not value.flags.writeable, name


class TestTrain:
    def test_zero_epochs_returns_initialization(self):
        train_c, held_c = tiny_corpus()
        config = tiny_config(epochs=0)
        model, log, _ = tr.train(train_c, held_c, config)
        fresh = tr.build_model(train_c, config)
        for (name_a, node_a), (name_b, node_b) in zip(model.items(), fresh.items()):
            assert name_a == name_b
            assert np.array_equal(node_a.value, node_b.value)
        assert log.records == []

    def test_same_seed_bitwise_identical_log(self):
        train_c, held_c = tiny_corpus()
        _, log_a, _ = tr.train(train_c, held_c, tiny_config())
        _, log_b, _ = tr.train(train_c, held_c, tiny_config())
        assert log_a.records == log_b.records

    def test_same_seed_bitwise_identical_params(self):
        train_c, held_c = tiny_corpus()
        model_a, _, _ = tr.train(train_c, held_c, tiny_config())
        model_b, _, _ = tr.train(train_c, held_c, tiny_config())
        for (_, node_a), (_, node_b) in zip(model_a.items(), model_b.items()):
            assert np.array_equal(node_a.value, node_b.value)

    def test_loss_components_finite_every_epoch(self):
        train_c, held_c = tiny_corpus()
        _, log, _ = tr.train(train_c, held_c, tiny_config(epochs=3))
        assert len(log.records) == 3
        for r in log.records:
            for v in (r.loss_main, r.loss_constraint, r.loss_guide_text,
                      r.loss_guide_speech, r.loss_total):
                assert math.isfinite(v)

    def test_frozen_labels_stay_constant(self):
        train_c, held_c = tiny_corpus()
        config = tiny_config(labels_trainable=False)
        model, _, _ = tr.train(train_c, held_c, config)
        fresh = tr.build_model(train_c, config)
        assert np.array_equal(model["labels.text"].value, fresh["labels.text"].value)
        assert np.array_equal(model["labels.speech"].value, fresh["labels.speech"].value)

    def test_codebook_stays_constant(self):
        train_c, held_c = tiny_corpus()
        model, _, _ = tr.train(train_c, held_c, tiny_config())
        fresh = tr.build_model(train_c, tiny_config())
        assert np.array_equal(model["speech.codebook"].value, fresh["speech.codebook"].value)

    def test_unimodal_modalities_train(self):
        train_c, held_c = tiny_corpus()
        for modality in ("text", "speech"):
            model, log, _ = tr.train(train_c, held_c, tiny_config(modality=modality, epochs=1))
            assert len(log.records) == 1
            assert math.isfinite(log.records[0].loss_total)

    @pytest.mark.parametrize("field, value", [
        ("labels_trainable", "false"), ("normalize_label_attention", 1), ("epochs", True),
        ("epochs", 3.0), ("learning_rate", "0.1"), ("learning_rate", None), ("fusion_mode", 1),
    ])
    def test_validate_rejects_wrong_type(self, field, value):
        with pytest.raises(ConfigError, match=field):
            tiny_config(**{field: value}).validate()

    @pytest.mark.parametrize("field, value", [
        ("adam_beta1", -0.5), ("adam_beta1", 1.0), ("adam_beta2", 1.0), ("adam_beta2", 1.5),
        ("adam_epsilon", 0.0), ("adam_epsilon", -1e-8), ("adam_beta1", math.nan),
        ("adam_epsilon", math.nan),
    ])
    def test_validate_rejects_adam_settings_out_of_range(self, field, value):
        with pytest.raises(ConfigError, match=field):
            tiny_config(**{field: value}).validate()

    @pytest.mark.parametrize("field", [
        name for name, kind in field_types(tr.TrainConfig).items() if kind is float
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400])
    def test_validate_rejects_non_finite_floats(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be finite, got"):
            tiny_config(**{field: value}).validate()

    def test_validate_accepts_adam_bounds(self):
        tiny_config(adam_beta1=0.0, adam_beta2=0.0, adam_epsilon=1e-300).validate()
        tiny_config(adam_beta1=0.999999, adam_beta2=0.999999).validate()

    def test_validate_accepts_int_in_float_field(self):
        tiny_config(mu_main=1, learning_rate=1).validate()

    @pytest.mark.parametrize("overrides, error, match", [
        ({"text_label_init": "centroid"}, ConfigError, "text_label_init 'centroid'"),
        ({"speech_label_init": "centroid"}, ConfigError, "speech_label_init 'centroid'"),
        ({"speech_label_init": "text-embedding", "speech_dim": 6}, DimensionError, "8 != 6"),
    ])
    def test_validate_rejects_label_init_inputs(self, overrides, error, match):
        # label_rows does not check its mode or the text-embedding width itself.
        with pytest.raises(error, match=match):
            tiny_config(**overrides).validate()

    def test_int_in_float_field_gives_float_checkpoint_bytes(self, tmp_path):
        train_c, held_c = tiny_corpus()
        paths = [tmp_path / "int.ckpt", tmp_path / "float.ckpt"]
        for path, mu_main in zip(paths, (1, 1.0)):
            _, _, ckpt = tr.train(train_c, held_c, tiny_config(epochs=0, mu_main=mu_main))
            tr.save_checkpoint(path, ckpt)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_validates_config(self):
        train_c, held_c = tiny_corpus()
        with pytest.raises(ConfigError):
            tr.train(train_c, held_c, tiny_config(batch_size=0))
        with pytest.raises(ConfigError):
            tr.train(train_c, held_c, tiny_config(fusion_mode="bogus"))
        with pytest.raises(ConfigError):
            tr.train(train_c, held_c, tiny_config(epochs=-1))


class TestDivergence:
    def blown_up_checkpoint(self, **overrides):
        """A 1-epoch checkpoint whose text embedding is scaled to about 1e200."""
        train_c, held_c = tiny_corpus()
        config = tiny_config(epochs=1, **overrides)
        _, _, ckpt = tr.train(train_c, held_c, config)
        ckpt.arrays["text.embedding"] = Matrix(ckpt.arrays["text.embedding"].array * 1e200)
        return train_c, held_c, config, ckpt

    def test_huge_parameter_makes_train_diverge(self):
        train_c, held_c, config, ckpt = self.blown_up_checkpoint()
        with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="epoch 1, batch 0"):
            tr.train(train_c, held_c, replace(config, epochs=2), resume_from=ckpt)

    def test_huge_parameter_makes_predict_raise(self):
        _, held_c, config, ckpt = self.blown_up_checkpoint()
        model = tr.model_from_checkpoint(ckpt)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteError):
            predict_logits(held_c.utterances[0], model, FusionMode(config.fusion_mode))

    def test_huge_parameter_makes_unimodal_logits_raise(self):
        _, held_c, _, ckpt = self.blown_up_checkpoint(modality="text")
        model = tr.model_from_checkpoint(ckpt)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteError):
            unimodal_logits(held_c.utterances[0], "text", model)

    def test_zero_norm_label_row_is_divergence(self, monkeypatch):
        zero_first_text_label(monkeypatch)
        train_c, held_c = tiny_corpus()
        with pytest.raises(DivergenceError, match="near-zero norm"):
            tr.train(train_c, held_c, tiny_config(epochs=1))


class TestRegistry:
    @pytest.mark.parametrize("labels_trainable", [False, True])
    def test_checkpoint_round_trip_matches_build_model(self, labels_trainable):
        train_c, _ = tiny_corpus()
        config = tiny_config(labels_trainable=labels_trainable)
        model = tr.build_model(train_c, config)
        optimizer = tr.Adam(config)
        trainable = [(name, node) for name, node in model.items() if node.requires_grad]
        for _, node in trainable:
            node.grad = checked(np.zeros(node.value.shape))
        optimizer.step(trainable)  # a zero-gradient step fills the moments, values stay
        ckpt = tr.make_checkpoint(model, optimizer, config, tr.TrainLog())

        names = [name for name, _ in model.items()]
        moments = [f"adam.{k}.{name}" for name, _ in trainable for k in ("m", "v")]
        assert sorted(ckpt.arrays) == sorted(names + moments)
        frozen = {name for name, node in model.items() if not node.requires_grad}
        expected_frozen = {"speech.codebook"}
        if not labels_trainable:
            expected_frozen |= {"labels.text", "labels.speech"}
        assert frozen == expected_frozen

        fresh = tr.build_model(train_c, config)
        restored = tr.model_from_checkpoint(ckpt)
        assert [name for name, _ in restored.items()] == names
        for (name, node), (_, want) in zip(restored.items(), fresh.items()):
            assert np.array_equal(node.value, want.value), name
            assert node.requires_grad == want.requires_grad, name

    def test_missing_array_is_integrity_error(self):
        train_c, held_c = tiny_corpus()
        _, _, ckpt = tr.train(train_c, held_c, tiny_config(epochs=0))
        del ckpt.arrays["fusion.cross_map"]
        with pytest.raises(CheckpointIntegrityError, match="fusion.cross_map"):
            tr.model_from_checkpoint(ckpt)


class TestCheckpointing:
    def test_roundtrip_probe_logits_bitwise(self, tmp_path):
        train_c, held_c = tiny_corpus()
        config = tiny_config()
        model, _, ckpt = tr.train(train_c, held_c, config)
        path = tmp_path / "model.ckpt"
        tr.save_checkpoint(path, ckpt)
        reloaded = tr.load_checkpoint(path)
        restored = tr.model_from_checkpoint(reloaded)
        probe = held_c.utterances[0]
        mode = FusionMode(config.fusion_mode)
        original = forward([probe], model, mode, config.loss_weights).logits.value
        recovered = forward([probe], restored, mode, config.loss_weights).logits.value
        assert np.array_equal(original, recovered)

    def test_checkpoint_bytes_deterministic(self, tmp_path):
        train_c, held_c = tiny_corpus()
        _, _, ckpt_a = tr.train(train_c, held_c, tiny_config())
        _, _, ckpt_b = tr.train(train_c, held_c, tiny_config())
        path_a, path_b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        tr.save_checkpoint(path_a, ckpt_a)
        tr.save_checkpoint(path_b, ckpt_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_corrupted_byte_detected(self, tmp_path):
        train_c, held_c = tiny_corpus()
        _, _, ckpt = tr.train(train_c, held_c, tiny_config(epochs=1))
        path = tmp_path / "model.ckpt"
        tr.save_checkpoint(path, ckpt)
        raw = bytearray(path.read_bytes())
        raw[-5] ^= 0xFF  # flip bits inside the last array
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointIntegrityError, match="checksum"):
            tr.load_checkpoint(path)

    def test_truncated_file_detected(self, tmp_path):
        train_c, held_c = tiny_corpus()
        _, _, ckpt = tr.train(train_c, held_c, tiny_config(epochs=1))
        path = tmp_path / "model.ckpt"
        tr.save_checkpoint(path, ckpt)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(CheckpointIntegrityError, match="truncated"):
            tr.load_checkpoint(path)

    def test_version_mismatch_detected(self, tmp_path, monkeypatch):
        train_c, held_c = tiny_corpus()
        _, _, ckpt = tr.train(train_c, held_c, tiny_config(epochs=1))
        path = tmp_path / "model.ckpt"
        with monkeypatch.context() as patch:
            patch.setattr(tr, "CHECKPOINT_VERSION", 99)
            tr.save_checkpoint(path, ckpt)
        with pytest.raises(UnsupportedVersionError, match="99"):
            tr.load_checkpoint(path)

    def test_invalid_utf8_in_manifest(self, tmp_path):
        train_c, held_c = tiny_corpus()
        _, _, ckpt = tr.train(train_c, held_c, tiny_config(epochs=0))
        path = tmp_path / "model.ckpt"
        tr.save_checkpoint(path, ckpt)
        raw = bytearray(path.read_bytes())
        raw[len(tr._CHECKPOINT_MAGIC) + 8 + 2] = 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointIntegrityError, match="not UTF-8"):
            tr.load_checkpoint(path)

    def test_manifest_nested_too_deeply(self, tmp_path):
        payload = ("[" * 100000 + "]" * 100000).encode("utf-8")
        path = tmp_path / "model.ckpt"
        path.write_bytes(tr._CHECKPOINT_MAGIC + struct.pack("<Q", len(payload)) + payload)
        with pytest.raises(CheckpointIntegrityError, match="corrupted manifest: nested too deeply"):
            tr.load_checkpoint(path)

    def test_byte_mutations_and_truncations_raise_only_typed_errors(self, tmp_path):
        train_c, held_c = tiny_corpus()
        _, _, ckpt = tr.train(train_c, held_c, tiny_config(epochs=1, text_dim=4, speech_dim=4))
        source = tmp_path / "model.ckpt"
        tr.save_checkpoint(source, ckpt)
        raw = source.read_bytes()
        rng = np.random.default_rng(21)
        variants = [raw[:n] for n in rng.integers(0, len(raw), size=60)]
        for pos, value in zip(rng.integers(0, len(raw), size=400), rng.integers(0, 256, size=400)):
            variants.append(raw[:pos] + bytes([value]) + raw[pos + 1 :])
        path = tmp_path / "mutated.ckpt"
        for data in variants:
            path.write_bytes(data)
            try:
                tr.load_checkpoint(path)
            except LabelFuseError:
                pass

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"hello world")
        with pytest.raises(CheckpointIntegrityError, match="magic"):
            tr.load_checkpoint(path)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda m: m["config"].update(no_such_option=1),
            lambda m: m.pop("epoch"),
            lambda m: m["config"].update(fusion_mode="nope"),
            lambda m: m["config"].update(labels_trainable="false"),
            lambda m: m["config"].update(epochs=True),
            lambda m: m["config"].update(top_k_text=9.0),
            lambda m: m.update(
                arrays=[e for e in m["arrays"] if e["name"] != "adam.v.fusion.cross_map"]
            ),
            lambda m: m.update(epoch=5),
            lambda m: m.update(split={"train_fraction": 0.8}),
            lambda m: m.update(split={"train_fraction": 0.8, "split_seed": "7"}),
            lambda m: m.update(split=[0.8, 7]),
            lambda m: m["config"].update(learning_rate=math.inf),
            lambda m: m.update(split={"train_fraction": math.nan, "split_seed": 7}),
            lambda m: m["log_records"][0].update(loss_main="x"),
            lambda m: m["log_records"][1].update(epoch=1.0),
            lambda m: m["log_records"].reverse(),
            lambda m: m.update(adam_step_count="x"),
            lambda m: m.update(adam_step_count=-1),
            lambda m: m["metrics"].update(heldout_wa=m["metrics"]["heldout_wa"] + 0.25),
            lambda m: m.update(split={"train_fraction": 0.0, "split_seed": 7}),
            lambda m: m.update(split={"train_fraction": 1.5, "split_seed": 7}),
            lambda m: m.update(split={"train_fraction": 0.8, "split_seed": -1}),
            lambda m: m["arrays"][0].update(name=5),
            lambda m: m["arrays"].append(dict(m["arrays"][0], name="fusion.nothing")),
            lambda m: m["arrays"].append(dict(m["arrays"][0])),
        ],
        ids=["unknown-config-key", "missing-epoch", "invalid-fusion-mode",
             "string-for-bool", "bool-for-int", "float-for-int", "unpaired-moment",
             "epoch-beyond-log", "split-missing-seed", "split-string-seed", "split-not-object",
             "infinite-float", "nan-split-fraction", "string-in-record", "float-record-epoch",
             "records-swapped", "string-step-count", "negative-step-count", "metrics-off-log",
             "split-fraction-zero", "split-fraction-above-one", "split-negative-seed",
             "array-name-not-string", "unknown-array", "array-listed-twice"],
    )
    def test_malformed_manifest_is_integrity_error(self, tmp_path, mutate):
        train_c, held_c = tiny_corpus()
        _, _, ckpt = tr.train(train_c, held_c, tiny_config(epochs=2))
        path = tmp_path / "model.ckpt"
        tr.save_checkpoint(path, ckpt)
        rewrite_manifest(path, mutate)
        with pytest.raises(CheckpointIntegrityError):
            tr.load_checkpoint(path)

    @pytest.mark.parametrize("name, shape, match", [
        ("adam.m.fusion.cross_map", (2, 2), "has shape"),
        ("adam.m.fusion.nothing", (1, 1), "no model array"),
    ])
    def test_moment_that_fits_no_array_is_integrity_error(self, tmp_path, name, shape, match):
        train_c, held_c = tiny_corpus()
        _, _, ckpt = tr.train(train_c, held_c, tiny_config(epochs=1))
        ckpt.arrays[name] = ckpt.arrays[name.replace(".m.", ".v.")] = Matrix(np.zeros(shape))
        path = tmp_path / "model.ckpt"
        tr.save_checkpoint(path, ckpt)
        with pytest.raises(CheckpointIntegrityError, match=match):
            tr.load_checkpoint(path)

    def test_written_checkpoints_pass_the_load_checks(self, tmp_path):
        # Every moment pairs with a model array, epoch counts the log's records, and
        # what a load reads saves to the same bytes, with and without a recorded split.
        train_c, held_c = tiny_corpus()
        path, again = tmp_path / "model.ckpt", tmp_path / "again.ckpt"
        for overrides in ({"epochs": 0}, {"epochs": 1}, {"epochs": 2, "labels_trainable": True},
                          {"epochs": 1, "modality": "speech"}):
            _, log, ckpt = tr.train(train_c, held_c, tiny_config(**overrides))
            for split in (None, {"train_fraction": 0.7, "split_seed": 5}):
                ckpt.split = split
                tr.save_checkpoint(path, ckpt)
                loaded = tr.load_checkpoint(path)
                assert loaded.epoch == len(log.records) == overrides["epochs"]
                assert (loaded.log_records, loaded.split) == (ckpt.log_records, split)
                tr.save_checkpoint(again, loaded)
                assert again.read_bytes() == path.read_bytes()

    def test_resume_equals_uninterrupted(self, tmp_path):
        train_c, held_c = tiny_corpus()
        full_config = tiny_config(epochs=4)
        model_full, log_full, ckpt_full = tr.train(train_c, held_c, full_config)

        half_config = tiny_config(epochs=2)
        _, _, ckpt_half = tr.train(train_c, held_c, half_config)
        path = tmp_path / "half.ckpt"
        tr.save_checkpoint(path, ckpt_half)
        resumed_from = tr.load_checkpoint(path)
        model_res, log_res, ckpt_res = tr.train(
            train_c, held_c, full_config, resume_from=resumed_from
        )

        assert log_res.records == log_full.records
        for (_, node_a), (_, node_b) in zip(model_full.items(), model_res.items()):
            assert np.array_equal(node_a.value, node_b.value)
        path_full, path_res = tmp_path / "full.ckpt", tmp_path / "res.ckpt"
        tr.save_checkpoint(path_full, ckpt_full)
        tr.save_checkpoint(path_res, ckpt_res)
        assert path_full.read_bytes() == path_res.read_bytes()

    def test_resume_builds_no_fresh_model(self, monkeypatch):
        train_c, held_c = tiny_corpus()
        _, log_full, _ = tr.train(train_c, held_c, tiny_config(epochs=2))
        _, _, ckpt = tr.train(train_c, held_c, tiny_config(epochs=1))
        monkeypatch.setattr(tr, "build_model", lambda *args: pytest.fail("built a fresh model"))
        _, log_res, _ = tr.train(train_c, held_c, tiny_config(epochs=2), resume_from=ckpt)
        assert log_res.records == log_full.records

    def test_resume_on_other_vocabulary_is_dimension_error(self):
        train_c, held_c = tiny_corpus()
        _, _, ckpt = tr.train(train_c, held_c, tiny_config(epochs=1))
        spec = replace(train_c.spec, vocab_text=train_c.spec.vocab_text + 5)
        other_train, other_held = cp.split(cp.generate(spec, 40), 0.7, seed=5)
        with pytest.raises(DimensionError, match="text.embedding"):
            tr.train(other_train, other_held, tiny_config(epochs=2), resume_from=ckpt)

    def test_resume_rejects_mismatched_config(self, tmp_path):
        train_c, held_c = tiny_corpus()
        _, _, ckpt = tr.train(train_c, held_c, tiny_config(epochs=1))
        with pytest.raises(ConfigError, match="differs"):
            tr.train(train_c, held_c, tiny_config(epochs=2, seed=99), resume_from=ckpt)
        with pytest.raises(ConfigError, match="covers"):
            tr.train(train_c, held_c, tiny_config(epochs=0), resume_from=ckpt)


def same_arrays(model, other):
    return model.keys() == other.keys() and all(
        model[name].value.tobytes() == other[name].value.tobytes() for name in model
    )


class TestFit:
    @pytest.mark.parametrize("overrides", [
        {"fusion_mode": "constraint"},
        {"fusion_mode": "sum"},
        {"modality": "text"},
        {"modality": "speech"},
    ], ids=["constraint", "sum", "text", "speech"])
    def test_final_arrays_bitwise_equal_train(self, overrides):
        train_c, held_c = tiny_corpus()
        config = tiny_config(**overrides)
        assert same_arrays(tr.fit(train_c, config), tr.train(train_c, held_c, config)[0])

    def test_short_last_batch_bitwise_equal_train(self):
        train_c, held_c = tiny_corpus()
        config = tiny_config(batch_size=3)
        assert len(train_c) % 3
        assert same_arrays(tr.fit(train_c, config), tr.train(train_c, held_c, config)[0])

    def test_empty_train_split_is_config_error(self):
        train_c, _ = tiny_corpus()
        with pytest.raises(ConfigError, match="non-empty"):
            tr.fit(replace(train_c, utterances=()), tiny_config())

    def test_failing_batch_is_train_divergence(self, monkeypatch):
        zero_first_text_label(monkeypatch)
        train_c, _ = tiny_corpus()
        with pytest.raises(DivergenceError, match="epoch 0, batch 0: .*near-zero norm"):
            tr.fit(train_c, tiny_config(epochs=1))


class TestTrainLogExport:
    def test_csv_lines_have_header_and_rows(self):
        train_c, held_c = tiny_corpus()
        _, log, _ = tr.train(train_c, held_c, tiny_config(epochs=2))
        lines = log.to_lines()
        assert lines[0] == ("epoch,loss_main,loss_constraint,loss_guide_text,loss_guide_speech,"
                            "loss_total,train_wa,train_ua,heldout_wa,heldout_ua")
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0"
        assert len(first) == 10
