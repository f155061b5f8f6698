"""Trial files as tensor containers: the bytes the writer gives, the arrays
the reader gives back, and the files both refuse."""

import hashlib
import json
import re
import struct
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hapticnet import synth
from hapticnet.errors import InvalidInputError, UnsupportedFormatError
from hapticnet.haptic import CHANNELS, EPS
from hapticnet.io import formats
from hapticnet.io.formats import (
    CHECKPOINT_MAGIC,
    FEATUREMAP_MAGIC,
    TRIAL_MAGIC,
    load_model,
    read_container,
    read_feature_maps,
    read_trial_file,
    write_container,
    write_feature_maps,
    write_trial_file,
)
from hapticnet.io.manifest import load_manifest, validate

# Every example overwrites the same files under tmp_path, so sharing it is
# safe.
codec_settings = settings(
    max_examples=80, suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def channels(draw, max_len=40):
    """Channels of drawn lengths, in ``CHANNELS`` order.

    Each channel is a seeded normal draw at a drawn power-of-ten scale, from
    below the float32 subnormals to 1e30, with a few samples overwritten by
    any double that float32 holds as a finite value (zeros of both signs
    included, and values next to the largest float32).
    """
    out = {}
    for name in CHANNELS:
        n = draw(st.integers(0, max_len))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        values = 10.0 ** draw(st.integers(-50, 30)) * rng.standard_normal(n)
        if n:
            for i, v in draw(st.lists(st.tuples(
                    st.integers(0, n - 1), st.floats(min_value=-3.4e38, max_value=3.4e38)),
                    max_size=2)):
                values[i] = v
        out[name] = values
    return out


@codec_settings
@given(chans=channels())
def test_round_trip_is_bitwise_the_float32_rounding(tmp_path, chans):
    write_trial_file(tmp_path / "t.htr", chans)
    got = read_trial_file(tmp_path / "t.htr")
    assert list(got) == list(CHANNELS)
    for name in CHANNELS:
        expected = chans[name].astype(np.float32).astype(np.float64)
        assert got[name].dtype == np.float64 and got[name].shape == expected.shape, name
        assert np.array_equal(got[name].view(np.int64), expected.view(np.int64)), name


@codec_settings
@given(chans=channels(), data=st.data())
def test_bytes_do_not_depend_on_the_order_or_extra_keys_of_the_dict(tmp_path, chans, data):
    write_trial_file(tmp_path / "a.htr", chans)
    shuffled = dict(data.draw(st.permutations(list(chans.items()))), extra=np.ones(3))
    write_trial_file(tmp_path / "b.htr", shuffled)
    assert (tmp_path / "a.htr").read_bytes() == (tmp_path / "b.htr").read_bytes()


def pinned_channels():
    """A fixed trial: P_AC 22 times as long as the 100 Hz channels."""
    return {name: np.linspace(-1.0, 1.0, 44 if name == "P_AC" else 2) * (i + 1)
            for i, name in enumerate(CHANNELS)}


def test_trial_bytes_are_pinned(tmp_path):
    write_trial_file(tmp_path / "t.htr", pinned_channels())
    digest = hashlib.sha256((tmp_path / "t.htr").read_bytes()).hexdigest()
    assert digest == "dead15609bd3689a01fa7d006b25a3817f0a4b32290c4d47e8f8401c26e6f1c7"


def test_old_text_trial_file_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(",".join(CHANNELS) + "\n" + ",".join(["1.5"] * len(CHANNELS)) + "\n2.5\n")
    with pytest.raises(UnsupportedFormatError, match=re.escape("magic b'P_AC'")) as err:
        read_trial_file(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("edit, message", [
    (lambda chans: chans.pop("E_4"), r"trial holds tensors \[.*\], expected the channels"),
    (lambda chans: chans.update(E_20=np.ones(2)), r"'E_20'.*expected the channels"),
    (lambda chans: chans.clear(), r"trial holds tensors \[\]"),
    (lambda chans: chans.update(E_4=np.ones((2, 1))), r"channel E_4 has shape \(2, 1\), not \(samples,\)"),
])
def test_container_without_exactly_the_channels_rejected(tmp_path, edit, message):
    chans = pinned_channels()
    edit(chans)
    path = tmp_path / "t.htr"
    write_container(path, TRIAL_MAGIC, chans, {})
    with pytest.raises(UnsupportedFormatError, match=message) as err:
        read_trial_file(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("index", [0, 1])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_stored_value_that_is_not_finite_rejected(tmp_path, value, index):
    # the writer refuses such a value, so one is put into the bytes; E_3, the
    # tensor before E_4 by name, is empty, so the error must skip it
    chans = pinned_channels()
    chans["E_3"] = np.empty(0)
    chans["E_4"][index] = 1234.5
    path = tmp_path / "t.htr"
    write_trial_file(path, chans)
    raw = path.read_bytes()
    assert raw.count(struct.pack("<f", 1234.5)) == 1
    path.write_bytes(raw.replace(struct.pack("<f", 1234.5), struct.pack("<f", value)))
    with pytest.raises(UnsupportedFormatError, match=re.escape(
            f"{path}: tensor 'E_4' holds {value} at flat index {index}, which is not finite")):
        read_trial_file(path)


@pytest.mark.parametrize("value, message", [
    (np.nan, "tensor 'E_4' holds nan at flat index 2, which is not a finite float32"),
    (np.inf, "tensor 'E_4' holds inf at flat index 2, which is not a finite float32"),
    (-1e39, "tensor 'E_4' holds -1e+39 at flat index 2, which is not a finite float32"),
    (np.ones((3, 1)), "channel E_4 has shape (3, 1), not (samples,)"),
])
def test_writer_rejects_a_channel_that_is_not_a_finite_series(tmp_path, value, message):
    chans = {c: np.ones(5 if c == "P_AC" else 3) for c in CHANNELS}
    if np.ndim(value):
        chans["E_4"] = value
    else:
        chans["E_4"][2] = value
    path = tmp_path / "t.htr"
    with pytest.raises(InvalidInputError, match=re.escape(message)) as err:
        write_trial_file(path, chans)
    assert str(path) in str(err.value)
    assert not path.exists()


def test_writer_rejects_a_scalar_channel(tmp_path):
    chans = pinned_channels()
    chans["P_DC"] = np.float64(2.0)
    path = tmp_path / "t.htr"
    with pytest.raises(InvalidInputError, match=re.escape("channel P_DC has shape (), not (samples,)")):
        write_trial_file(path, chans)
    assert not path.exists()


def test_generated_trial_round_trips_to_its_float32_rounding(tmp_path):
    config = synth.separable_config(n_objects=2, n_trials=1, seed=5)
    ids, z, _ = synth.object_factors(config)
    chans = synth.make_trial(config, ids[0], z[0], 0).channels(0, EPS[0])
    write_trial_file(tmp_path / "t.htr", chans)
    got = read_trial_file(tmp_path / "t.htr")
    assert got["P_AC"].size > got["P_DC"].size > 0
    for name in CHANNELS:
        assert np.array_equal(got[name], np.asarray(chans[name], dtype=np.float32)), name


def test_rewrite_is_byte_identical(tmp_path):
    write_trial_file(tmp_path / "a.htr", pinned_channels())
    write_trial_file(tmp_path / "b.htr", read_trial_file(tmp_path / "a.htr"))
    assert (tmp_path / "a.htr").read_bytes() == (tmp_path / "b.htr").read_bytes()


def test_integer_samples_are_stored_as_floats(tmp_path):
    chans = {name: np.arange(3) - 1 for name in CHANNELS}
    write_trial_file(tmp_path / "t.htr", chans)
    got = read_trial_file(tmp_path / "t.htr")
    assert all(got[name].tolist() == [-1.0, 0.0, 1.0] for name in CHANNELS)


def test_file_is_the_container_layout_with_one_entry_per_channel(tmp_path):
    chans = pinned_channels()
    path = tmp_path / "t.htr"
    write_trial_file(path, chans)
    raw = path.read_bytes()
    magic, version, n = struct.unpack_from("<4sIQ", raw)
    assert (magic, version) == (TRIAL_MAGIC, 1)
    header = json.loads(raw[16:16 + n])
    assert header == {"meta": {}, "tensors": [
        {"name": name, "shape": [chans[name].size]} for name in sorted(CHANNELS)]}
    payload = b"".join(chans[name].astype("<f4").tobytes() for name in sorted(CHANNELS))
    assert raw[16 + n:] == payload
    tensors, meta = read_container(path, TRIAL_MAGIC)
    assert meta == {} and sorted(tensors) == sorted(CHANNELS)


def rewrite_header(raw: bytes, edit) -> bytes:
    """``raw`` with its JSON header replaced by ``edit(header)``, and the
    header length updated to match."""
    magic, version, n = struct.unpack_from("<4sIQ", raw)
    blob = json.dumps(edit(json.loads(raw[16:16 + n]))).encode()
    return struct.pack("<4sIQ", magic, version, len(blob)) + blob + raw[16 + n:]


def first_entry(**fields):
    """A header edit that updates the first tensor entry (E_1, by name)."""
    return lambda h: dict(h, tensors=[dict(h["tensors"][0], **fields)] + h["tensors"][1:])


@pytest.mark.parametrize("edit, message", [
    (lambda raw: b"", "file shorter than its header"),
    (lambda raw: raw[:15], "file shorter than its header"),
    (lambda raw: raw[:20], "truncated header"),
    (lambda raw: raw[:-1], "truncated tensor 'T_DC'"),
    (lambda raw: raw[:-9], "truncated tensor 'T_AC'"),
    (lambda raw: raw + b"\0" * 4, "4 trailing bytes"),
    (lambda raw: raw[:4] + struct.pack("<I", 2) + raw[8:], "unsupported version 2"),
    (lambda raw: raw.replace(b'"meta"', b'"m\xffta"', 1), "bad header JSON"),
    (lambda raw: rewrite_header(raw, lambda h: h["tensors"]),
     "header is a JSON list, not an object"),
    (lambda raw: rewrite_header(raw, lambda h: {"tensors": h["tensors"]}),
     "header field 'meta' is missing or not a dict"),
    (lambda raw: rewrite_header(raw, lambda h: dict(h, meta=[])),
     "header field 'meta' is missing or not a dict"),
    (lambda raw: rewrite_header(raw, lambda h: dict(h, tensors={})),
     "header field 'tensors' is missing or not a list"),
    (lambda raw: rewrite_header(raw, lambda h: dict(h, tensors=["E_1"] + h["tensors"][1:])),
     "tensor entry 0 has no name"),
    (lambda raw: rewrite_header(raw, first_entry(name=1)), "tensor entry 0 has no name"),
    (lambda raw: rewrite_header(raw, lambda h: dict(h, tensors=h["tensors"] + h["tensors"][:1])),
     "tensor 'E_1' is listed twice"),
    (lambda raw: rewrite_header(raw, first_entry(shape=[-1])),
     "tensor 'E_1' has no valid shape: [-1]"),
    (lambda raw: rewrite_header(raw, first_entry(shape=[2.0])),
     "tensor 'E_1' has no valid shape: [2.0]"),
    (lambda raw: rewrite_header(raw, first_entry(shape=[True, True])),
     "tensor 'E_1' has no valid shape: [True, True]"),
    (lambda raw: rewrite_header(raw, first_entry(shape=None)),
     "tensor 'E_1' has no valid shape: None"),
    (lambda raw: rewrite_header(raw, first_entry(shape=[3])), "truncated tensor 'T_DC'"),
    (lambda raw: rewrite_header(raw, first_entry(shape=[1])), "4 trailing bytes"),
    (lambda raw: rewrite_header(raw, first_entry(shape=[2**62])), "truncated tensor 'E_1'"),
])
def test_damaged_trial_file_rejected(tmp_path, edit, message):
    path = tmp_path / "t.htr"
    write_trial_file(path, pinned_channels())
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(UnsupportedFormatError, match=re.escape(f"{path}: {message}")):
        read_trial_file(path)


@pytest.mark.parametrize("channel, index", [("E_1", 0), ("T_DC", 1)])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_not_finite_value_in_the_first_or_last_tensor_rejected(tmp_path, value, channel, index):
    # the first value of the payload, and the last
    chans = pinned_channels()
    chans[channel][index] = 1234.5
    path = tmp_path / "t.htr"
    write_trial_file(path, chans)
    raw = path.read_bytes()
    assert raw.count(struct.pack("<f", 1234.5)) == 1
    path.write_bytes(raw.replace(struct.pack("<f", 1234.5), struct.pack("<f", value)))
    with pytest.raises(UnsupportedFormatError, match=re.escape(
            f"{path}: tensor '{channel}' holds {value} at flat index {index}, which is not finite")):
        read_trial_file(path)


def write_checkpoint_container(path):
    write_container(path, CHECKPOINT_MAGIC, pinned_channels(), {})


@pytest.mark.parametrize("write, read, message", [
    (lambda path: write_trial_file(path, pinned_channels()), read_feature_maps,
     "magic b'HTRL', expected b'HVFM'"),
    (lambda path: write_trial_file(path, pinned_channels()), load_model,
     "magic b'HTRL', expected b'HCKP'"),
    (lambda path: write_feature_maps(path, np.ones((1, 2, 2, 3))), read_trial_file,
     "magic b'HVFM', expected b'HTRL'"),
    (write_checkpoint_container, read_trial_file, "magic b'HCKP', expected b'HTRL'"),
])
def test_a_container_of_another_kind_is_rejected_by_its_magic(tmp_path, write, read, message):
    path = tmp_path / "f.bin"
    write(path)
    with pytest.raises(UnsupportedFormatError, match=re.escape(f"{path}: {message}")):
        read(path)


@pytest.fixture
def dataset(tmp_path):
    """(root, trial file paths) of a small generated dataset."""
    manifest = load_manifest(synth.synth_generate(
        synth.separable_config(n_objects=2, n_trials=1, seed=5), tmp_path))
    return manifest, [tmp_path / t["path"] for t in manifest.trials]


def assert_bitwise_equal(a: dict, b: dict):
    assert list(a) == list(b)
    for name in a:
        assert a[name].shape == b[name].shape, name
        assert np.array_equal(a[name].view(np.int64), b[name].view(np.int64)), name


def test_reads_after_validate_are_bitwise_the_reads_before(dataset, tmp_path):
    manifest, paths = dataset
    before = [read_trial_file(p) for p in paths]
    assert validate(manifest, tmp_path) == []
    for path, chans in zip(paths, before):
        assert_bitwise_equal(read_trial_file(path), chans)


def test_validate_reads_each_trial_file_once_through_the_public_reader(dataset, tmp_path, monkeypatch):
    manifest, paths = dataset
    seen = []
    read = formats.read_trial_file
    monkeypatch.setattr(formats, "read_trial_file", lambda path: seen.append(path) or read(path))
    assert validate(manifest, tmp_path) == []
    assert sorted(map(str, seen)) == sorted(map(str, paths))


def test_a_file_rewritten_after_validate_reads_its_new_bytes(dataset, tmp_path):
    manifest, paths = dataset
    assert validate(manifest, tmp_path) == []
    chans = read_trial_file(paths[0])
    assert chans["T_AC"].size > 2 and chans["T_AC"][2] != 2.0
    chans["T_AC"] = np.arange(chans["T_AC"].size, dtype=np.float64)  # float32 holds each exactly
    write_trial_file(paths[0], chans)
    assert_bitwise_equal(read_trial_file(paths[0]), chans)


def test_two_reads_share_no_memory(dataset):
    _, paths = dataset
    a, b = read_trial_file(paths[0]), read_trial_file(paths[0])
    for name in CHANNELS:
        assert a[name].flags.writeable and a[name].flags.c_contiguous, name
        assert not np.shares_memory(a[name], b[name]), name
    kept = b["P_AC"].copy()
    a["P_AC"][:] = 0.0
    assert np.array_equal(b["P_AC"], kept)


def test_threads_reading_the_same_files_at_once_get_the_same_arrays(dataset):
    _, paths = dataset
    expected = [read_trial_file(p) for p in paths]
    with ThreadPoolExecutor(max_workers=4) as pool:
        rounds = [pool.map(read_trial_file, paths) for _ in range(4)]
        for got in rounds:
            for chans, want in zip(got, expected):
                assert_bitwise_equal(chans, want)
