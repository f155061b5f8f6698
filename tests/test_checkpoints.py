"""Tensor containers and checkpoints: byte round trips and strict readers."""

import hashlib
import json
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hapticnet.errors import InvalidInputError, InvalidSpecError, UnsupportedFormatError
from hapticnet.io import (
    CHECKPOINT_MAGIC,
    load_model,
    read_container,
    save_model,
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


def write_checkpoint(path, graph, tensors):
    """A checkpoint of ``graph`` holding ``tensors``, as older or damaged
    files may."""
    write_container(path, CHECKPOINT_MAGIC, tensors, {"graph": graph})
    return path


def container_bytes(blob):
    """A version-1 checkpoint container with header bytes ``blob`` and no tensor bytes."""
    return struct.pack("<4sIQ", CHECKPOINT_MAGIC, 1, len(blob)) + blob


@pytest.mark.parametrize("kind", sorted(BUILDERS))
class TestCheckpointRoundTrip:
    @round_trip_settings
    @given(data=st.data())
    def test_save_load_save_is_byte_identical(self, kind, tmp_path, data):
        model = data.draw(float32_model(kind))
        save_model(tmp_path / "a.ckpt", model, {"epochs": 4})
        loaded, meta = load_model(tmp_path / "a.ckpt")
        assert meta == {"epochs": 4}
        save_model(tmp_path / "b.ckpt", loaded, meta)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    @round_trip_settings
    @given(data=st.data())
    def test_loaded_model_scores_like_the_float32_original(self, kind, tmp_path, data):
        model = data.draw(float32_model(kind))
        save_model(tmp_path / "m.ckpt", model, {})
        loaded, _ = load_model(tmp_path / "m.ckpt")
        for (n1, v1), (n2, v2) in zip(model.named_params(), loaded.named_params()):
            assert n1 == n2
            assert np.array_equal(v1, v2)
        xs = np.random.default_rng(12).standard_normal((5,) + model.input_shape)
        assert np.array_equal(loaded.forward(xs[0]), model.forward(xs[0]))
        assert np.array_equal(loaded.forward(xs), model.forward(xs))

    def test_checkpoint_holds_one_tensor_per_parameter(self, kind, tmp_path):
        # the container stores tensors sorted by name, and the graph in meta
        model = BUILDERS[kind]()
        save_model(tmp_path / "m.ckpt", model, {})
        tensors, meta = read_container(tmp_path / "m.ckpt", CHECKPOINT_MAGIC)
        assert list(tensors) == sorted(name for name, _ in model.named_params())
        assert meta == {"graph": model.describe()}

    def test_graph_with_empty_tap_aliases_still_loads(self, kind, tmp_path):
        # checkpoints written before tap aliases were removed carry an empty
        # map, and those written before every conv layer was conv+ReLU name
        # the conv layers' activation
        model = trained_looking(kind)
        desc = model.describe()
        layers = [dict(d, activation="relu") if d["kind"] == "conv1d" else d
                  for d in desc["layers"]]
        graph = dict(desc, tap_aliases={}, layers=layers)
        path = write_checkpoint(tmp_path / "old.ckpt", graph, dict(model.named_params()))
        loaded, _ = load_model(path)
        round_params_to_float32(model)
        x = np.random.default_rng(13).standard_normal((3,) + model.input_shape)
        assert np.array_equal(loaded.forward(x), model.forward(x))
        assert loaded.describe() == model.describe()


# sha256 of each builder's trained_looking checkpoint; they pin the format:
# container head, canonical JSON header with the graph in meta, then
# little-endian float32 tensors sorted by name
CHECKPOINT_SHA256 = {
    "fusion": "3c33fae82472a53320252e448babe458c52dd4ad29460644e9ca30f282e6bf7a",
    "haptic_cnn": "3bb5e0726f5b37b2d0a49c3d33a885f7777d8991bcf03d7210517d0d5f263b78",
    "haptic_lstm": "74efcbd9383d69148ec022ba52df91d15925b36f3b2bf4fc0cfb84d623db9eab",
}


@pytest.mark.parametrize("kind", sorted(CHECKPOINT_SHA256))
def test_checkpoint_bytes_are_pinned(tmp_path, kind):
    save_model(tmp_path / "m.ckpt", trained_looking(kind), {"epochs": 4, "note": "x"})
    digest = hashlib.sha256((tmp_path / "m.ckpt").read_bytes()).hexdigest()
    assert digest == CHECKPOINT_SHA256[kind]


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
        # 2**80 elements, which an int64 product wraps to 0
        ({"meta": {}, "tensors": [{"name": "w", "shape": [2**40, 2**40]}]},
         "truncated tensor 'w'"),
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
        save_model(path, model, {})
    assert str(path) in str(err.value)
    assert not path.exists()


def test_weight_at_the_float32_limit_is_kept(tmp_path):
    model = trained_looking("fusion")
    limit = float(np.finfo(np.float32).max)
    model.layer("fc").params.weights[0, :2] = [limit, -limit]
    save_model(tmp_path / "m.ckpt", model, {})
    loaded = load_model(tmp_path / "m.ckpt")[0].layer("fc").params.weights
    assert loaded[0, :2].tolist() == [limit, -limit]


class TestCheckpointReader:
    def test_meta_without_graph_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_container(path, CHECKPOINT_MAGIC, {"fc.weights": np.zeros((1, 4))}, {})
        with pytest.raises(UnsupportedFormatError, match="'graph'") as err:
            load_model(path)
        assert str(path) in str(err.value)

    def test_weight_of_wrong_shape_rejected(self, tmp_path):
        model = build_linear_classifier(4)
        tensors = dict(model.named_params(), **{"fc.weights": np.zeros((1, 5))})
        path = write_checkpoint(tmp_path / "m.ckpt", model.describe(), tensors)
        with pytest.raises(UnsupportedFormatError, match="'fc.weights' has shape") as err:
            load_model(path)
        assert str(path) in str(err.value)

    def test_missing_weight_rejected(self, tmp_path):
        model = build_linear_classifier(4)
        tensors = dict(model.named_params())
        del tensors["fc.bias"]
        path = write_checkpoint(tmp_path / "m.ckpt", model.describe(), tensors)
        with pytest.raises(UnsupportedFormatError, match="missing tensor 'fc.bias'") as err:
            load_model(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("stray", ["fc2.weights", "fc.scale", "fc2.weights.vel"])
    def test_tensor_naming_no_parameter_rejected(self, tmp_path, stray):
        model = build_linear_classifier(4)
        tensors = dict(model.named_params(), **{stray: np.zeros((1, 4))})
        path = write_checkpoint(tmp_path / "m.ckpt", model.describe(), tensors)
        with pytest.raises(UnsupportedFormatError,
                           match=re.escape(f"[{stray!r}] name no parameter")) as err:
            load_model(path)
        assert str(path) in str(err.value)

    def test_graph_whose_layers_are_not_a_list_names_the_file(self, tmp_path):
        model = build_linear_classifier(4)
        desc = dict(model.describe(), layers=5)
        path = write_checkpoint(tmp_path / "m.ckpt", desc, dict(model.named_params()))
        with pytest.raises(InvalidSpecError, match="'layers' is a int, not a list") as err:
            load_model(path)
        assert str(path) in str(err.value)

    def test_graph_the_package_cannot_build_names_the_file(self, tmp_path):
        model = build_linear_classifier(4)
        desc = model.describe()
        desc["layers"][0]["kind"] = "attention"
        path = write_checkpoint(tmp_path / "m.ckpt", desc, dict(model.named_params()))
        with pytest.raises(InvalidSpecError, match="unknown layer kind 'attention'") as err:
            load_model(path)
        assert str(path) in str(err.value)

    def test_momentum_tensors_of_old_checkpoints_are_ignored(self, tmp_path):
        # checkpoints once stored a "<param>.vel" momentum tensor per parameter
        model = build_linear_classifier(6, seed=2)
        fc = model.layer("fc").params
        fc.weights[:] = fc.weights.astype(np.float32)
        rng = np.random.default_rng(14)
        tensors = {"fc.weights": fc.weights, "fc.bias": fc.bias,
                   "fc.weights.vel": rng.standard_normal((1, 6)),
                   "fc.bias.vel": rng.standard_normal(1)}
        loaded, _ = load_model(write_checkpoint(tmp_path / "old.ckpt", model.describe(), tensors))

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

    @pytest.mark.parametrize("value, kind", [(5, "int"), (None, "NoneType"),
                                             ({"kind": "dense"}, "dict")])
    def test_layers_that_are_not_a_list_named(self, value, kind):
        desc = build_linear_classifier(4).describe()
        desc["layers"] = value
        with pytest.raises(InvalidSpecError,
                           match=re.escape(f"graph field 'layers' is a {kind}, not a list")):
            model_from_description(desc)

    @pytest.mark.parametrize("desc", [[], "graph", None])
    def test_description_that_is_not_an_object_named(self, desc):
        with pytest.raises(InvalidSpecError, match=re.escape(
                f"graph description is a {type(desc).__name__}, not an object")):
            model_from_description(desc)

    def test_missing_graph_field_named(self):
        desc = build_linear_classifier(4).describe()
        del desc["input_shape"]
        with pytest.raises(InvalidSpecError, match="'input_shape'"):
            model_from_description(desc)
