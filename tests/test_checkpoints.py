"""Tensor containers and checkpoints: byte round trips and strict readers."""

import json
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hapticnet.errors import InvalidInputError, InvalidSpecError, UnsupportedFormatError
from hapticnet.io import (
    CHECKPOINT_MAGIC,
    Checkpoint,
    checkpoint_from_model,
    load_checkpoint,
    model_from_checkpoint,
    read_container,
    save_checkpoint,
    write_container,
)
from hapticnet.models import (
    build_haptic_cnn,
    build_haptic_lstm,
    build_linear_classifier,
    model_from_description,
)
from hapticnet.training import TrainSchedule, train

BUILDERS = {
    "haptic_cnn": lambda: build_haptic_cnn(seed=3),
    "haptic_lstm": lambda: build_haptic_lstm(seed=3),
    "fusion": lambda: build_linear_classifier(20, seed=3),
}


def trained_looking(kind):
    """A model with random weights."""
    model = BUILDERS[kind]()
    rng = np.random.default_rng(11)
    for _, value in model.named_params():
        value[:] = rng.standard_normal(value.shape)
    return model


def round_params_to_float32(model):
    for _, value in model.named_params():
        value[:] = value.astype(np.float32)


@st.composite
def float32_model(draw, kind):
    """A model whose parameters are float32 values drawn per tensor.

    Each tensor is a seeded normal draw at a drawn scale, from float32
    subnormals to 1e30, with a few entries overwritten by any finite float32.
    """
    model = BUILDERS[kind]()
    for _, value in model.named_params():
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        scale = 10.0 ** draw(st.integers(-45, 30))
        value[:] = (scale * rng.standard_normal(value.shape)).astype(np.float32)
        for i, v in draw(st.lists(st.tuples(
                st.integers(0, value.size - 1),
                st.floats(width=32, allow_nan=False, allow_infinity=False)), max_size=4)):
            value.flat[i] = v
    return model


# Every example overwrites the same files under tmp_path, so sharing it is
# safe.
round_trip_settings = settings(
    max_examples=20, suppress_health_check=[HealthCheck.function_scoped_fixture])


def container_bytes(blob):
    """A version-1 checkpoint container with header bytes ``blob`` and no tensor bytes."""
    return struct.pack("<4sIQ", CHECKPOINT_MAGIC, 1, len(blob)) + blob


@pytest.mark.parametrize("kind", sorted(BUILDERS))
class TestCheckpointRoundTrip:
    @round_trip_settings
    @given(data=st.data())
    def test_save_load_save_is_byte_identical(self, kind, tmp_path, data):
        model = data.draw(float32_model(kind))
        save_checkpoint(tmp_path / "a.ckpt", checkpoint_from_model(model, {"epochs": 4}))
        loaded_ckpt = load_checkpoint(tmp_path / "a.ckpt")
        assert loaded_ckpt.meta == {"epochs": 4}
        loaded = model_from_checkpoint(loaded_ckpt)
        save_checkpoint(tmp_path / "b.ckpt", checkpoint_from_model(loaded, loaded_ckpt.meta))
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    @round_trip_settings
    @given(data=st.data())
    def test_loaded_model_scores_like_the_float32_original(self, kind, tmp_path, data):
        model = data.draw(float32_model(kind))
        save_checkpoint(tmp_path / "m.ckpt", checkpoint_from_model(model, {}))
        loaded = model_from_checkpoint(load_checkpoint(tmp_path / "m.ckpt"))
        for (n1, v1), (n2, v2) in zip(model.named_params(), loaded.named_params()):
            assert n1 == n2
            assert np.array_equal(v1, v2)
        xs = np.random.default_rng(12).standard_normal((5,) + model.input_shape)
        assert np.array_equal(loaded.forward(xs[0]), model.forward(xs[0]))
        assert np.array_equal(loaded.forward(xs), model.forward(xs))

    def test_checkpoint_holds_one_tensor_per_parameter(self, kind):
        model = BUILDERS[kind]()
        ckpt = checkpoint_from_model(model, {})
        assert list(ckpt.tensors) == [name for name, _ in model.named_params()]

    def test_graph_with_empty_tap_aliases_still_loads(self, kind, tmp_path):
        # checkpoints written before tap aliases were removed carry an empty
        # map, and those written before every conv layer was conv+ReLU name
        # the conv layers' activation
        model = trained_looking(kind)
        ckpt = checkpoint_from_model(model, {})
        layers = [dict(d, activation="relu") if d["kind"] == "conv1d" else d
                  for d in ckpt.graph["layers"]]
        graph = dict(ckpt.graph, tap_aliases={}, layers=layers)
        save_checkpoint(tmp_path / "old.ckpt", Checkpoint(graph, ckpt.tensors, {}))
        loaded = model_from_checkpoint(load_checkpoint(tmp_path / "old.ckpt"))
        round_params_to_float32(model)
        x = np.random.default_rng(13).standard_normal((3,) + model.input_shape)
        assert np.array_equal(loaded.forward(x), model.forward(x))
        assert loaded.describe() == model.describe()


class TestContainerReader:
    def write_valid(self, path):
        tensors = {"w": np.arange(6.0).reshape(2, 3), "b": np.ones(2)}
        write_container(path, CHECKPOINT_MAGIC, tensors, {"note": "x"})
        return path.read_bytes()

    def test_valid_container_reads_back(self, tmp_path):
        self.write_valid(tmp_path / "c.bin")
        tensors, meta = read_container(tmp_path / "c.bin", CHECKPOINT_MAGIC)
        assert meta == {"note": "x"}
        assert np.array_equal(tensors["w"], np.arange(6.0).reshape(2, 3))

    @pytest.mark.parametrize("keep", [10, 30, -8, -1])  # in the head, header, tensors
    def test_truncation_rejected(self, tmp_path, keep):
        raw = self.write_valid(tmp_path / "c.bin")
        (tmp_path / "c.bin").write_bytes(raw[:keep])
        with pytest.raises(UnsupportedFormatError, match="truncated|shorter"):
            read_container(tmp_path / "c.bin", CHECKPOINT_MAGIC)

    def test_trailing_bytes_rejected(self, tmp_path):
        raw = self.write_valid(tmp_path / "c.bin")
        (tmp_path / "c.bin").write_bytes(raw + b"\0")
        with pytest.raises(UnsupportedFormatError, match="1 trailing bytes"):
            read_container(tmp_path / "c.bin", CHECKPOINT_MAGIC)

    def test_bad_magic_rejected(self, tmp_path):
        raw = self.write_valid(tmp_path / "c.bin")
        (tmp_path / "c.bin").write_bytes(b"HXXX" + raw[4:])
        with pytest.raises(UnsupportedFormatError, match="magic"):
            read_container(tmp_path / "c.bin", CHECKPOINT_MAGIC)

    def test_bad_version_rejected(self, tmp_path):
        raw = self.write_valid(tmp_path / "c.bin")
        (tmp_path / "c.bin").write_bytes(raw[:4] + struct.pack("<I", 2) + raw[8:])
        with pytest.raises(UnsupportedFormatError, match="version 2"):
            read_container(tmp_path / "c.bin", CHECKPOINT_MAGIC)

    @pytest.mark.parametrize("header, message", [
        ({"meta": {}}, "'tensors'"),
        ({"tensors": []}, "'meta'"),
        ([1, 2], "header is a JSON list"),
        ({"meta": {}, "tensors": [{"name": "w"}]}, "tensor 'w' has no valid shape"),
        ({"meta": {}, "tensors": [{"name": "w", "shape": [2, -1]}]}, "tensor 'w' has no valid shape"),
        ({"meta": {}, "tensors": [{"shape": [2]}]}, "tensor entry 0 has no name"),
        ({"meta": {}, "tensors": [{"name": "w", "shape": [1]}, {"name": "w", "shape": [1]}]},
         "tensor 'w' is listed twice"),
    ])
    def test_malformed_header_rejected(self, tmp_path, header, message):
        path = tmp_path / "c.bin"
        path.write_bytes(container_bytes(json.dumps(header).encode()))
        with pytest.raises(UnsupportedFormatError, match=message) as err:
            read_container(path, CHECKPOINT_MAGIC)
        assert str(path) in str(err.value)


    def test_header_that_is_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "c.bin"
        path.write_bytes(container_bytes(b'{"a\xff": 1}'))
        with pytest.raises(UnsupportedFormatError, match="bad header JSON"):
            read_container(path, CHECKPOINT_MAGIC)


@pytest.mark.parametrize("value", [1e39, -3.5e38, np.inf, np.nan])
def test_weight_that_float32_cannot_hold_rejected(tmp_path, value):
    model = trained_looking("fusion")
    model.layer("fc").params.weights[0, 7] = value
    path = tmp_path / "m.ckpt"
    with pytest.raises(InvalidInputError, match=r"tensor 'fc\.weights' holds .* index 7") as err:
        save_checkpoint(path, checkpoint_from_model(model, {}))
    assert str(path) in str(err.value)
    assert not path.exists()


def test_weight_at_the_float32_limit_is_kept(tmp_path):
    model = trained_looking("fusion")
    limit = float(np.finfo(np.float32).max)
    model.layer("fc").params.weights[0, :2] = [limit, -limit]
    save_checkpoint(tmp_path / "m.ckpt", checkpoint_from_model(model, {}))
    loaded = load_checkpoint(tmp_path / "m.ckpt").tensors["fc.weights"]
    assert loaded[0, :2].tolist() == [limit, -limit]


class TestCheckpointReader:
    def test_meta_without_graph_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_container(path, CHECKPOINT_MAGIC, {"fc.weights": np.zeros((1, 4))}, {})
        with pytest.raises(UnsupportedFormatError, match="'graph'") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_weight_of_wrong_shape_rejected(self):
        ckpt = checkpoint_from_model(build_linear_classifier(4), {})
        ckpt.tensors["fc.weights"] = np.zeros((1, 5))
        with pytest.raises(UnsupportedFormatError, match="'fc.weights' has shape"):
            model_from_checkpoint(ckpt)

    def test_missing_weight_rejected(self):
        ckpt = checkpoint_from_model(build_linear_classifier(4), {})
        del ckpt.tensors["fc.bias"]
        with pytest.raises(UnsupportedFormatError, match="missing tensor 'fc.bias'"):
            model_from_checkpoint(ckpt)

    @pytest.mark.parametrize("stray", ["fc2.weights", "fc.scale", "fc2.weights.vel"])
    def test_tensor_naming_no_parameter_rejected(self, stray):
        ckpt = checkpoint_from_model(build_linear_classifier(4), {})
        ckpt.tensors[stray] = np.zeros((1, 4))
        with pytest.raises(UnsupportedFormatError, match=re.escape(f"[{stray!r}] name no parameter")):
            model_from_checkpoint(ckpt)

    def test_momentum_tensors_of_old_checkpoints_are_ignored(self, tmp_path):
        # checkpoints once stored a "<param>.vel" momentum tensor per parameter
        model = build_linear_classifier(6, seed=2)
        fc = model.layer("fc").params
        fc.weights[:] = fc.weights.astype(np.float32)
        rng = np.random.default_rng(14)
        tensors = {"fc.weights": fc.weights, "fc.bias": fc.bias,
                   "fc.weights.vel": rng.standard_normal((1, 6)),
                   "fc.bias.vel": rng.standard_normal(1)}
        save_checkpoint(tmp_path / "old.ckpt", Checkpoint(model.describe(), tensors, {}))
        loaded = model_from_checkpoint(load_checkpoint(tmp_path / "old.ckpt"))

        # training starts its momentum from zero, so it cannot tell the two apart
        x = rng.standard_normal((40, 6))
        y = np.where(x @ rng.standard_normal(6) > 0, 1.0, -1.0)
        schedule = TrainSchedule(epochs=4, finetune_epochs=3, batch_size=16, seed=5)
        fresh = train(model, x, y, schedule)
        old = train(loaded, x, y, schedule)
        assert np.array_equal(old.loss_curve, fresh.loss_curve)
        for field in ("weights", "bias"):
            assert np.array_equal(getattr(loaded.layer("fc").params, field),
                                  getattr(model.layer("fc").params, field)), field

    def test_missing_layer_field_named(self):
        desc = build_linear_classifier(4).describe()
        del desc["layers"][0]["in_dim"]
        with pytest.raises(InvalidSpecError, match="graph layer 0 .*'fc'.* lacks field 'in_dim'"):
            model_from_description(desc)

    @pytest.mark.parametrize("build, field, value", [
        (lambda: build_linear_classifier(4), "in_dim", "4"),
        (build_haptic_cnn, "spec",
         {"in_channels": 32, "out_channels": 64, "kernel_len": 7, "dilation": 2}),
    ])
    def test_bad_layer_field_named(self, build, field, value):
        desc = build().describe()
        desc["layers"][0][field] = value
        with pytest.raises(InvalidSpecError, match="graph layer 0 .* has a bad field"):
            model_from_description(desc)

    def test_unknown_layer_kind_named(self):
        desc = build_linear_classifier(4).describe()
        desc["layers"][0]["kind"] = "attention"
        with pytest.raises(InvalidSpecError, match="unknown layer kind 'attention'"):
            model_from_description(desc)

    @pytest.mark.parametrize("build, field, value, layer", [
        (lambda: build_linear_classifier(4), "input_shape", [5], "layer 0 (dense 'fc')"),
        (build_haptic_cnn, "input_shape", [31, 150], "layer 0 (conv1d 'conv1')"),
        (build_haptic_cnn, "flatten", [32, 38], "layer 3 (flatten 'flatten')"),
        (build_haptic_cnn, "flatten", [64, 20], "layer 3 (flatten 'flatten')"),
    ])
    def test_input_shape_that_does_not_fit_named(self, build, field, value, layer):
        # [32, 38] has conv3's 64 x 19 values in another shape; [64, 20] has more
        desc = build().describe()
        if field == "flatten":
            desc["layers"][3]["in_shape"] = value
        else:
            desc["input_shape"] = value
        with pytest.raises(InvalidSpecError,
                           match=r"input_shape .* does not fit " + re.escape(layer)):
            model_from_description(desc)

    @pytest.mark.parametrize("value", [5, [32, -1], [32.0, 150], "32x150"])
    def test_input_shape_that_is_not_a_shape_named(self, value):
        desc = build_haptic_cnn().describe()
        desc["input_shape"] = value
        with pytest.raises(InvalidSpecError, match="input_shape .* not a list of positive"):
            model_from_description(desc)

    @pytest.mark.parametrize("build, index, activation, layer", [
        (lambda: build_haptic_lstm(seed=1), 2, "tanh", "layer 2 (dense 'fc1')"),
        (lambda: build_linear_classifier(4), 0, "sigmoid", "layer 0 (dense 'fc')"),
        (build_haptic_cnn, 0, None, "layer 0 (conv1d 'conv1')"),
        (build_haptic_cnn, 2, "tanh", "layer 2 (conv1d 'conv3')"),
    ])
    def test_activation_the_layer_does_not_run_named(self, build, index, activation, layer):
        desc = build().describe()
        desc["layers"][index]["activation"] = activation
        with pytest.raises(InvalidSpecError, match=re.escape(f"{layer} has activation")):
            model_from_description(desc)

    def test_missing_graph_field_named(self):
        desc = build_linear_classifier(4).describe()
        del desc["input_shape"]
        with pytest.raises(InvalidSpecError, match="'input_shape'"):
            model_from_description(desc)
