"""Trial files, label tables and feature maps: round trips, and rejection of
what the readers cannot place."""

import re
import struct

import numpy as np
import pytest

from hapticnet import synth
from hapticnet.errors import InvalidInputError, UnsupportedFormatError
from hapticnet.evaluation import ADJECTIVES
from hapticnet.haptic import CHANNELS, EPS
from hapticnet.io import (
    CHECKPOINT_MAGIC,
    FEATUREMAP_MAGIC,
    load_manifest,
    load_model,
    read_container,
    read_feature_maps,
    read_labels_csv,
    read_trial_file,
    validate,
    write_container,
    write_feature_maps,
    write_labels_csv,
    write_trial_file,
)

HEADER = ",".join(CHANNELS)


def write_rows(path, *rows):
    path.write_text("\n".join((HEADER,) + rows) + "\n")
    return path


def small_trial():
    config = synth.separable_config(n_objects=2, n_trials=1, seed=5)
    ids, z, _ = synth.object_factors(config)
    return synth.make_trial(config, ids[0], z[0], 0)


class TestReadTrialFile:
    def test_round_trip_at_print_precision(self, tmp_path):
        chans = small_trial().channels(0, EPS[0])
        write_trial_file(tmp_path / "t.csv", chans)
        back = read_trial_file(tmp_path / "t.csv")
        assert list(back) == list(CHANNELS)
        for name in CHANNELS:
            expected = np.array([float("%.8g" % v) for v in chans[name]])
            assert np.array_equal(back[name], expected), name

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(UnsupportedFormatError, match="empty trial file") as err:
            read_trial_file(path)
        assert str(path) in str(err.value)

    def test_ragged_prefix_rows(self, tmp_path):
        # columns end from the right; trailing empty cells are ignored
        path = write_rows(tmp_path / "t.csv", "1.0,2.0,3.0", "4.0,5.0,", "6.0")
        back = read_trial_file(path)
        assert back["P_AC"].tolist() == [1.0, 4.0, 6.0]
        assert back["P_DC"].tolist() == [2.0, 5.0]
        assert back["T_AC"].tolist() == [3.0]
        assert back["E_19"].size == 0

    def test_non_numeric_cell_names_line_and_column(self, tmp_path):
        path = write_rows(tmp_path / "t.csv", "1.0,2.0,3.0", "4.0,5.0,x1")
        with pytest.raises(UnsupportedFormatError, match=r"t\.csv:3: column 3 \(T_AC\): 'x1'"):
            read_trial_file(path)

    def test_value_right_of_an_empty_cell_rejected(self, tmp_path):
        # P_DC would read [2.0] while T_AC read [3.0, 5.0]
        path = write_rows(tmp_path / "t.csv", "1.0,2.0,3.0", "4.0,,5.0")
        with pytest.raises(UnsupportedFormatError, match=r"t\.csv:3: column 2 \(P_DC\) is empty"):
            read_trial_file(path)

    def test_value_below_an_ended_column_rejected(self, tmp_path):
        path = write_rows(tmp_path / "t.csv", "1.0,2.0,3.0", "4.0", "6.0,7.0")
        with pytest.raises(UnsupportedFormatError,
                           match=r"t\.csv:4: column 2 \(P_DC\) has a value after it ended"):
            read_trial_file(path)

    def test_value_after_a_blank_line_rejected(self, tmp_path):
        path = write_rows(tmp_path / "t.csv", "1.0,2.0", "", "3.0")
        with pytest.raises(UnsupportedFormatError,
                           match=r"t\.csv:4: column 1 \(P_AC\) has a value after it ended"):
            read_trial_file(path)

    def test_trailing_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(HEADER + "\n1.0,2.0\n3.0\n\n\n")
        back = read_trial_file(path)
        assert back["P_AC"].tolist() == [1.0, 3.0] and back["P_DC"].tolist() == [2.0]

    def test_more_cells_than_header_rejected(self, tmp_path):
        path = write_rows(tmp_path / "t.csv", ",".join(["1.0"] * (len(CHANNELS) + 1)))
        with pytest.raises(UnsupportedFormatError, match="more cells than header columns"):
            read_trial_file(path)

    @pytest.mark.parametrize("rows, line", [
        ((b"1.0\xff",), 2),
        ((b"1.0,2.0", b"3.0,2.0", b"4.0\xc3\x28"), 4),
        ((b"1.0,2.0", b"3.0", b"4.0,\xff"), 4),  # a misplaced row that is not text
    ])
    def test_bytes_that_are_not_text_name_the_line(self, tmp_path, rows, line):
        path = tmp_path / "t.csv"
        path.write_bytes(b"\n".join((HEADER.encode(),) + rows) + b"\n")
        with pytest.raises(UnsupportedFormatError, match=rf"t\.csv:{line}: .* is not UTF-8 text"):
            read_trial_file(path)

    def test_header_that_is_not_text_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(HEADER.encode() + b"\xff\n1.0\n")
        with pytest.raises(UnsupportedFormatError, match=r"t\.csv:1: .* is not UTF-8 text"):
            read_trial_file(path)

    def test_bad_cell_before_undecodable_bytes_is_reported_first(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(HEADER.encode() + b"\n1.0\nx1\n2.0\xff\n")
        with pytest.raises(UnsupportedFormatError, match=r"t\.csv:3: column 1 \(P_AC\): 'x1'"):
            read_trial_file(path)

    def test_repeated_header_name_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(HEADER + ",P_AC\n1.0\n")
        with pytest.raises(UnsupportedFormatError, match="header"):
            read_trial_file(path)


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


def test_writer_rejects_lengths_rising_along_the_columns(tmp_path):
    chans = dict(small_trial().channels(0, EPS[0]))
    chans["P_DC"] = chans["P_DC"][:-1]
    with pytest.raises(InvalidInputError, match="T_AC"):
        write_trial_file(tmp_path / "t.csv", chans)
    assert not (tmp_path / "t.csv").exists()


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

    bad_cell = tmp_path / manifest.trials[0]["path"]
    gap = tmp_path / manifest.trials[1]["path"]
    lines = bad_cell.read_text().split("\n")
    lines[5] = lines[5].replace(",", ",nan?", 1)
    bad_cell.write_text("\n".join(lines))
    lines = gap.read_text().split("\n")
    cells = lines[7].split(",")
    cells[2] = ""
    lines[7] = ",".join(cells)
    gap.write_text("\n".join(lines))

    findings = validate(manifest, tmp_path)
    assert [(f.file, f.field) for f in findings] == [
        (str(bad_cell), "trial-file"), (str(gap), "trial-file")]
    assert ":6: column 2 (P_DC): 'nan?" in findings[0].message
    assert ":8: column 3 (T_AC) is empty" in findings[1].message


def test_validate_reports_a_non_finite_trial_cell(tmp_path):
    manifest_path = synth.synth_generate(
        synth.separable_config(n_objects=2, n_trials=1, seed=5), tmp_path)
    manifest = load_manifest(manifest_path)
    path = tmp_path / manifest.trials[3]["path"]
    lines = path.read_text().split("\n")
    lines[-3] = "nan"  # a row of P_AC alone, near the end
    path.write_text("\n".join(lines))

    findings = validate(manifest, tmp_path)
    assert [(f.file, f.field) for f in findings] == [(str(path), "trial-file")]
    assert f":{len(lines) - 2}: column 1 (P_AC): 'nan' is not finite" in findings[0].message


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
