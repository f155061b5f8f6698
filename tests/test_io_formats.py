"""Label tables and feature maps: round trips, and rejection of what the
readers cannot place.  Trial files as ``validate`` sees them.  The trial
codec itself is tested in ``test_trial_codec``."""

import re
import struct

import numpy as np
import pytest

from hapticnet import synth
from hapticnet.errors import InvalidInputError, UnsupportedFormatError
from hapticnet.evaluation import ADJECTIVES
from hapticnet.haptic import EPS
from hapticnet.io.formats import (
    CHECKPOINT_MAGIC,
    FEATUREMAP_MAGIC,
    TRIAL_MAGIC,
    load_model,
    read_container,
    read_feature_maps,
    read_labels_csv,
    read_trial_file,
    write_container,
    write_feature_maps,
    write_labels_csv,
    write_trial_file,
)
from hapticnet.io.manifest import load_manifest, validate

def small_trial():
    config = synth.separable_config(n_objects=2, n_trials=1, seed=5)
    ids, z, _ = synth.object_factors(config)
    return synth.make_trial(config, ids[0], z[0], 0)


@pytest.mark.parametrize("read", [
    read_trial_file, read_labels_csv, read_feature_maps, load_model,
    lambda path: read_container(path, CHECKPOINT_MAGIC),
])
@pytest.mark.parametrize("name, reason", [
    ("gone.csv", "No such file or directory"), (".", "Is a directory"),
])
def test_a_path_that_cannot_be_read_is_named_in_a_package_error(tmp_path, read, name, reason):
    path = tmp_path / name
    with pytest.raises(InvalidInputError) as err:
        read(path)
    assert str(err.value) == f"cannot read {path}: {reason}"


def test_writer_rejects_a_missing_channel(tmp_path):
    chans = dict(small_trial().channels(0, EPS[0]))
    del chans["T_AC"]
    path = tmp_path / "t.csv"
    with pytest.raises(InvalidInputError, match=r"missing channels \['T_AC'\]") as err:
        write_trial_file(path, chans)
    assert str(path) in str(err.value)
    assert not path.exists()


def test_validate_reports_unreadable_trial_files(tmp_path):
    manifest_path = synth.synth_generate(
        synth.separable_config(n_objects=2, n_trials=1, seed=5), tmp_path)
    manifest = load_manifest(manifest_path)
    assert validate(manifest, tmp_path) == []

    truncated = tmp_path / manifest.trials[0]["path"]
    truncated.write_bytes(truncated.read_bytes()[:-1])
    no_t_ac = tmp_path / manifest.trials[1]["path"]
    chans = read_trial_file(no_t_ac)
    del chans["T_AC"]
    write_container(no_t_ac, TRIAL_MAGIC, chans, {})

    findings = validate(manifest, tmp_path)
    assert [(f.file, f.field) for f in findings] == [
        (str(truncated), "trial-file"), (str(no_t_ac), "trial-file")]
    assert "truncated tensor 'T_DC'" in findings[0].message
    assert "expected the channels" in findings[1].message


def test_validate_reports_a_trial_file_that_holds_feature_maps(tmp_path):
    manifest = load_manifest(synth.synth_generate(
        synth.separable_config(n_objects=2, n_trials=1, seed=5), tmp_path))
    path = tmp_path / manifest.trials[2]["path"]
    write_feature_maps(path, read_feature_maps(tmp_path / manifest.visual[0]["path"]))

    findings = validate(manifest, tmp_path)
    assert [(f.file, f.field) for f in findings] == [(str(path), "trial-file")]
    assert findings[0].message == f"{path}: magic b'HVFM', expected b'HTRL'"


@pytest.mark.parametrize("kind, field, tensor", [
    ("trials", "trial-file", "T_DC"), ("visual", "feature-file", "grids"),
])
def test_validate_reports_a_non_finite_stored_value(tmp_path, kind, field, tensor):
    manifest = load_manifest(synth.synth_generate(
        synth.separable_config(n_objects=2, n_trials=1, seed=5), tmp_path))
    path = tmp_path / getattr(manifest, kind)[1]["path"]
    # the last value of the payload, which is the last of the last tensor by name
    path.write_bytes(path.read_bytes()[:-4] + struct.pack("<f", np.nan))

    findings = validate(manifest, tmp_path)
    assert [(f.file, f.field) for f in findings] == [(str(path), field)]
    assert re.search(f"tensor '{tensor}' holds nan at flat index \\d+, which is not finite",
                     findings[0].message)


@pytest.mark.parametrize("edit, message", [
    (lambda lines: [lines[0].rsplit(",", 1)[0]] + lines[1:], "unexpected label table header"),
    (lambda lines: lines[:1] + [lines[1] + ",1"], r"labels\.csv:2: wrong column count"),
    (lambda lines: lines[:1] + [lines[1][:-1] + "2"], r"labels\.csv:2: label cell '2'"),
    (lambda lines: [], r"labels\.csv: empty label table"),
])
def test_label_table_without_24_binary_labels_rejected(tmp_path, edit, message):
    path = tmp_path / "labels.csv"
    write_labels_csv(path, [("o1", "mug", {a: i % 2 == 0 for i, a in enumerate(ADJECTIVES)})])
    assert read_labels_csv(path)[0][2]["absorbent"] is True
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(UnsupportedFormatError, match=message):
        read_labels_csv(path)


def test_label_table_that_is_not_text_names_the_line(tmp_path):
    path = tmp_path / "labels.csv"
    write_labels_csv(path, [(f"o{i}", "mug", {a: True for a in ADJECTIVES}) for i in range(3)])
    path.write_bytes(path.read_bytes().replace(b"o1,", b"o\xff1,"))
    with pytest.raises(UnsupportedFormatError, match=r"labels\.csv:3: .* is not UTF-8 text"):
        read_labels_csv(path)


def test_label_table_errors_name_the_line_in_the_file(tmp_path):
    path = tmp_path / "labels.csv"
    write_labels_csv(path, [(f"o{i}", "mug", {a: True for a in ADJECTIVES}) for i in range(3)])
    lines = path.read_text().split("\n")
    lines[2] = lines[2][:-1] + "2"
    path.write_text("\n".join(lines[:1] + ["", " "] + lines[1:]))
    with pytest.raises(UnsupportedFormatError, match=r"labels\.csv:5: label cell '2'"):
        read_labels_csv(path)


def test_label_table_with_a_repeated_object_id_rejected(tmp_path):
    # the repeat would otherwise overwrite the first row in any dict built from the rows
    path = tmp_path / "labels.csv"
    write_labels_csv(path, [(f"o{i}", "mug", {a: True for a in ADJECTIVES}) for i in range(3)])
    path.write_text(path.read_text() + ",".join(["o1", "mug"] + ["0"] * len(ADJECTIVES)) + "\n")
    with pytest.raises(UnsupportedFormatError, match=re.escape(
            f"{path}:5: object 'o1' already has a row, on line 3")):
        read_labels_csv(path)


def test_label_writer_rejects_a_repeated_object_id_before_opening_the_file(tmp_path):
    path = tmp_path / "labels.csv"
    rows = [(f"o{i}", "mug", {a: True for a in ADJECTIVES}) for i in range(3)]
    with pytest.raises(InvalidInputError, match=re.escape(
            f"{path}: object 'o1' has more than one row")):
        write_labels_csv(path, iter(rows + [("o1", "cup", rows[1][2])]))
    assert not path.exists()


@pytest.mark.parametrize("obj_id, name", [
    ("o1", "mug, large"), ("o,1", "mug"), ("o1", "mug\nlarge"), ("o1\r", "mug")])
def test_label_writer_rejects_an_id_or_name_that_would_split_its_row(tmp_path, obj_id, name):
    path = tmp_path / "labels.csv"
    with pytest.raises(InvalidInputError, match=re.escape(
            f"{path}: object {obj_id!r} named {name!r}: a comma or line break would split its row")):
        write_labels_csv(path, [(obj_id, name, {a: True for a in ADJECTIVES})])
    assert not path.exists()


def test_label_writer_rejects_labels_that_lack_an_adjective(tmp_path):
    path = tmp_path / "labels.csv"
    labels = {a: True for a in ADJECTIVES if a not in ("bumpy", "soft")}
    with pytest.raises(InvalidInputError, match=re.escape(
            f"{path}: object 'o1' has no label for ['bumpy', 'soft']")):
        write_labels_csv(path, [("o0", "cup", {a: True for a in ADJECTIVES}), ("o1", "mug", labels)])
    assert not path.exists()


def test_label_table_header_is_checked_before_later_lines_are_decoded(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_bytes(b"object_id,name\no1,mug\xff\n")
    with pytest.raises(UnsupportedFormatError, match="unexpected label table header"):
        read_labels_csv(path)


def test_label_table_with_crlf_line_endings_reads(tmp_path):
    path = tmp_path / "labels.csv"
    rows = [(f"o{i}", "mug", {a: i % 2 == 0 for a in ADJECTIVES}) for i in range(2)]
    write_labels_csv(path, rows)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert read_labels_csv(path) == rows


def float32_grids(shape=(3, 2, 4, 5), seed=8):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape).astype(np.float32)


class TestFeatureMaps:
    def test_float32_round_trip_is_exact(self, tmp_path):
        grids = float32_grids()
        write_feature_maps(tmp_path / "o.vfm", grids)
        back = read_feature_maps(tmp_path / "o.vfm")
        assert back.dtype == np.float64
        assert np.array_equal(back, grids)

    def test_rewrite_is_byte_identical(self, tmp_path):
        write_feature_maps(tmp_path / "a.vfm", float32_grids())
        write_feature_maps(tmp_path / "b.vfm", read_feature_maps(tmp_path / "a.vfm"))
        assert (tmp_path / "a.vfm").read_bytes() == (tmp_path / "b.vfm").read_bytes()

    def test_writer_rejects_grids_that_are_not_4d(self, tmp_path):
        with pytest.raises(InvalidInputError, match="views, H, W, C"):
            write_feature_maps(tmp_path / "o.vfm", np.zeros((2, 3, 4)))

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: raw[:-1], "truncated tensor 'grids'"),
        (lambda raw: raw[:20], "truncated header"),
        (lambda raw: raw + b"\0\0", "2 trailing bytes"),
    ])
    def test_damaged_file_rejected(self, tmp_path, edit, message):
        path = tmp_path / "o.vfm"
        write_feature_maps(path, float32_grids())
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(UnsupportedFormatError, match=message) as err:
            read_feature_maps(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("value", [1e39, -np.inf, np.nan])
    def test_writer_rejects_grids_that_float32_cannot_hold(self, tmp_path, value):
        # under the suite's RuntimeWarning filter, a cast that overflowed
        # would fail here before the error is raised
        grids = float32_grids().astype(np.float64)
        grids[1, 0, 2, 3] = value
        path = tmp_path / "o.vfm"
        with pytest.raises(InvalidInputError, match=r"tensor 'grids' holds .* index 53,") as err:
            write_feature_maps(path, grids)
        assert str(path) in str(err.value)
        assert not path.exists()

    def test_checkpoint_file_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_container(path, CHECKPOINT_MAGIC, {"grids": float32_grids()}, {})
        with pytest.raises(UnsupportedFormatError, match="magic b'HCKP'"):
            read_feature_maps(path)

    @pytest.mark.parametrize("tensors, message", [
        ({"maps": float32_grids()}, r"tensors \['maps'\], expected \['grids'\]"),
        ({"grids": float32_grids(), "extra": np.zeros(1)}, r"\['extra', 'grids'\]"),
        ({}, r"tensors \[\]"),
        ({"grids": np.zeros((2, 3, 4))}, r"shape \(2, 3, 4\)"),
    ])
    def test_wrong_tensors_rejected(self, tmp_path, tensors, message):
        path = tmp_path / "o.vfm"
        write_container(path, FEATUREMAP_MAGIC, tensors, {})
        with pytest.raises(UnsupportedFormatError, match=message):
            read_feature_maps(path)

    def test_old_layout_rejected(self, tmp_path):
        # magic, version, four uint32 dims, then float32 payload: the dims
        # read as a header length of at least 2**32 bytes
        grids = float32_grids()
        path = tmp_path / "old.vfm"
        path.write_bytes(FEATUREMAP_MAGIC + struct.pack("<I4I", 1, *grids.shape)
                         + grids.astype("<f4").tobytes())
        with pytest.raises(UnsupportedFormatError, match="truncated header"):
            read_feature_maps(path)
