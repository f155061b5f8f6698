"""Tensor containers and checkpoints: byte round trips and strict readers."""

import hashlib
import json
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hapticnet.errors import InvalidInputError, UnsupportedFormatError
from hapticnet.io import (
    CHECKPOINT_MAGIC,
    load_model,
    read_container,
    save_model,
    write_container,
)
from hapticnet.models import BUILDERS, DenseLayer, Model, build_linear_classifier

# the arguments other than the seed that the pinned checkpoints are built with
PINNED_ARGS = {"haptic_cnn": {}, "haptic_lstm": {}, "fusion": {"feature_dim": 20}}


def trained_looking(kind):
    """A model with random weights."""
    model = BUILDERS[kind](seed=3, **PINNED_ARGS[kind])
    rng = np.random.default_rng(11)
    for _, value in model.named_params():
        value[:] = rng.standard_normal(value.shape)
    return model


def input_shape(model):
    """The shape of one input the model scores: a 32x150 instance or a feature vector."""
    return (model.builder_args["feature_dim"],) if model.kind == "fusion" else (32, 150)


@st.composite
def float32_model(draw, kind):
    """A model whose parameters are float32 values drawn per tensor.

    The fusion head's feature_dim is drawn from 1 to 64.  Each tensor is a
    seeded normal draw at a drawn scale, from float32 subnormals to 1e30,
    with a few entries overwritten by any finite float32.
    """
    args = {"feature_dim": draw(st.integers(1, 64))} if kind == "fusion" else {}
    model = BUILDERS[kind](seed=3, **args)
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


def write_checkpoint(path, meta, tensors):
    """A checkpoint with ``meta`` holding ``tensors``, as older or damaged
    files may."""
    write_container(path, CHECKPOINT_MAGIC, tensors, meta)
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
        assert (loaded.kind, loaded.builder_args) == (model.kind, model.builder_args)
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
        xs = np.random.default_rng(12).standard_normal((5,) + input_shape(model))
        assert np.array_equal(loaded.forward(xs[0]), model.forward(xs[0]))
        assert np.array_equal(loaded.forward(xs), model.forward(xs))

    def test_checkpoint_holds_one_tensor_per_parameter(self, kind, tmp_path):
        # the container stores tensors sorted by name, and the builder entry in meta
        model = trained_looking(kind)
        save_model(tmp_path / "m.ckpt", model, {})
        tensors, meta = read_container(tmp_path / "m.ckpt", CHECKPOINT_MAGIC)
        assert list(tensors) == sorted(name for name, _ in model.named_params())
        assert meta == {"model": dict(PINNED_ARGS[kind], builder=kind)}


# sha256 of each builder's trained_looking checkpoint; they pin the format:
# container head, canonical JSON header with the builder entry in meta, then
# little-endian float32 tensors sorted by name
CHECKPOINT_SHA256 = {
    "fusion": "abe156d334123dab295707a363549d58c1b34868796586a3efd6c8ad8d0816b0",
    "haptic_cnn": "22ae51dd75ad3e1db5ff430bd961478a552677a1f3c88c268ff9c3e7b0d23262",
    "haptic_lstm": "57de3364275e81f202dc4b7b3e9bf586435b633ac98d4cc3f58b8499b24bc3a5",
}


def test_every_builder_has_a_pinned_checkpoint():
    assert CHECKPOINT_SHA256.keys() == PINNED_ARGS.keys() == BUILDERS.keys()


@pytest.mark.parametrize("kind", sorted(BUILDERS))
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

    def test_tensors_of_every_rank_read_back(self, tmp_path):
        rng = np.random.default_rng(5)
        tensors = {"scalar": np.array(2.5), "empty": np.zeros(0), "none": np.zeros((2, 0, 3)),
                   "cube": rng.standard_normal((2, 3, 4)).astype("<f4").astype(np.float64),
                   "row": np.array([1.0, -0.0, 3.0])}
        write_container(tmp_path / "c.bin", CHECKPOINT_MAGIC, tensors, {})
        got, _ = read_container(tmp_path / "c.bin", CHECKPOINT_MAGIC)
        assert sorted(got) == sorted(tensors)
        for name, want in tensors.items():
            assert got[name].shape == want.shape, name
            assert got[name].dtype == np.float64, name
            assert np.array_equal(got[name].view(np.int64), want.view(np.int64)), name

    @pytest.mark.parametrize("stored, name", [(0, "a"), (1, "a"), (2, "b"), (4, "b")])
    def test_truncation_names_the_first_tensor_past_the_end(self, tmp_path, stored, name):
        blob = json.dumps({"meta": {}, "tensors": [
            {"name": "a", "shape": [2]}, {"name": "none", "shape": [0]},
            {"name": "b", "shape": [1, 3]}, {"name": "c", "shape": [2]}]}).encode()
        path = tmp_path / "c.bin"
        path.write_bytes(container_bytes(blob) + np.ones(stored, "<f4").tobytes())
        with pytest.raises(UnsupportedFormatError, match=f"truncated tensor '{name}'"):
            read_container(path, CHECKPOINT_MAGIC)

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
        ({"meta": {}, "tensors": [{"name": "w", "shape": [True]}]}, "tensor 'w' has no valid shape"),
        ({"meta": {}, "tensors": [{"name": "w", "shape": [2.0]}]}, "tensor 'w' has no valid shape"),
        ({"meta": {}, "tensors": [{"name": "w", "shape": 2}]}, "tensor 'w' has no valid shape"),
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


def fusion_tensors(feature_dim=4):
    return dict(build_linear_classifier(feature_dim).named_params())


class TestCheckpointReader:
    def load_rejects(self, path, message):
        with pytest.raises(UnsupportedFormatError, match=message) as err:
            load_model(path)
        assert str(path) in str(err.value)

    def test_meta_without_builder_entry_rejected(self, tmp_path):
        path = write_checkpoint(tmp_path / "m.ckpt", {"epochs": 2}, fusion_tensors())
        self.load_rejects(path, "meta has no 'model' builder entry")

    def test_graph_only_meta_predates_builder_entries(self, tmp_path):
        graph = {"kind": "fusion", "input_shape": [4], "layers": [
            {"kind": "dense", "name": "fc", "in_dim": 4, "out_dim": 1, "activation": None}]}
        path = write_checkpoint(tmp_path / "old.ckpt", {"graph": graph}, fusion_tensors())
        self.load_rejects(path, "predates builder-named checkpoints")

    @pytest.mark.parametrize("entry", [
        {"builder": "attention"}, {"builder": "model"}, {"feature_dim": 4}, "fusion", None])
    def test_unknown_builder_rejected(self, tmp_path, entry):
        path = write_checkpoint(tmp_path / "m.ckpt", {"model": entry}, fusion_tensors())
        self.load_rejects(path, re.escape(f"builder entry {entry!r} names no builder of "))

    @pytest.mark.parametrize("value", [True, 20.0, "20", 0, -1, None, [20]])
    def test_feature_dim_that_is_not_a_positive_int_rejected(self, tmp_path, value):
        path = write_checkpoint(tmp_path / "m.ckpt",
                                {"model": {"builder": "fusion", "feature_dim": value}},
                                fusion_tensors())
        self.load_rejects(path, re.escape(
            f"builder 'fusion' argument feature_dim={value!r} is not a positive int"))

    @pytest.mark.parametrize("value", [6, 10**9, 2**62])
    def test_feature_dim_beyond_the_stored_values_rejected(self, tmp_path, value):
        # 4 weights and a bias; a build of 2**62 inputs would raise numpy's ValueError
        path = write_checkpoint(tmp_path / "m.ckpt",
                                {"model": {"builder": "fusion", "feature_dim": value}},
                                fusion_tensors(4))
        self.load_rejects(path, re.escape(
            f"builder 'fusion' argument feature_dim={value} exceeds the 5 values"))

    @pytest.mark.parametrize("kind, entry, gives", [
        ("haptic_cnn", {"feature_dim": 20}, "['feature_dim']"),
        ("haptic_lstm", {"seed": 3}, "['seed']"),
        ("fusion", {}, "[]"),
        ("fusion", {"feature_dim": 4, "hidden": 2}, "['feature_dim', 'hidden']"),
    ])
    def test_missing_or_stray_argument_rejected(self, tmp_path, kind, entry, gives):
        tensors = dict(trained_looking(kind).named_params())
        path = write_checkpoint(tmp_path / "m.ckpt", {"model": dict(entry, builder=kind)},
                                tensors)
        takes = "['feature_dim']" if kind == "fusion" else "[]"
        self.load_rejects(path, re.escape(
            f"builder {kind!r} takes arguments {takes}, the checkpoint gives {gives}"))

    def test_weight_of_wrong_shape_rejected(self, tmp_path):
        tensors = dict(fusion_tensors(), **{"fc.weights": np.zeros((1, 5))})
        path = write_checkpoint(tmp_path / "m.ckpt",
                                {"model": {"builder": "fusion", "feature_dim": 4}}, tensors)
        self.load_rejects(path, "'fc.weights' has shape")

    def test_missing_weight_rejected(self, tmp_path):
        tensors = fusion_tensors()
        del tensors["fc.bias"]
        path = write_checkpoint(tmp_path / "m.ckpt",
                                {"model": {"builder": "fusion", "feature_dim": 4}}, tensors)
        self.load_rejects(path, "missing tensor 'fc.bias'")

    @pytest.mark.parametrize("stray", ["fc2.weights", "fc.scale", "fc2.weights.vel",
                                       "fc.weights.vel"])
    def test_tensor_naming_no_parameter_rejected(self, tmp_path, stray):
        # "<param>.vel" momentum tensors, which early checkpoints carried, too
        tensors = dict(fusion_tensors(), **{stray: np.zeros((1, 4))})
        path = write_checkpoint(tmp_path / "m.ckpt",
                                {"model": {"builder": "fusion", "feature_dim": 4}}, tensors)
        self.load_rejects(path, re.escape(f"[{stray!r}] name no parameter"))


    def test_weight_that_is_not_finite_rejected(self, tmp_path):
        # the writer refuses such a weight, so one is put into the bytes: the
        # last value of the last tensor by name
        path = tmp_path / "m.ckpt"
        save_model(path, trained_looking("fusion"), {})
        path.write_bytes(path.read_bytes()[:-4] + struct.pack("<f", np.nan))
        self.load_rejects(path, re.escape(
            "tensor 'fc.weights' holds nan at flat index 19, which is not finite"))


class TestCheckpointWriter:
    def test_caller_meta_key_graph_round_trips(self, tmp_path):
        save_model(tmp_path / "m.ckpt", trained_looking("fusion"), {"graph": "mine", "epochs": 2})
        assert load_model(tmp_path / "m.ckpt")[1] == {"graph": "mine", "epochs": 2}

    def test_meta_key_of_the_builder_entry_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        with pytest.raises(InvalidInputError, match="meta key 'model' is reserved") as err:
            save_model(path, trained_looking("fusion"), {"model": "mine", "epochs": 2})
        assert str(path) in str(err.value)
        assert not path.exists()

    @pytest.mark.parametrize("kind", ["reshape", "fusion"])
    def test_model_no_builder_made_rejected(self, tmp_path, kind):
        path = tmp_path / "m.ckpt"
        model = Model([DenseLayer("fc", (4,), 1, seed=0)], kind=kind)
        with pytest.raises(InvalidInputError,
                           match=f"model {kind!r} was not made by a builder") as err:
            save_model(path, model, {})
        assert str(path) in str(err.value)
        assert not path.exists()
