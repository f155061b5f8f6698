"""The block-wise trial-file codec against the row-wise reference in
``oracles``: the same bytes written, the same arrays read back, and the same
error for every file the reference rejects."""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hapticnet.errors import InvalidInputError, UnsupportedFormatError
from hapticnet.haptic import CHANNELS
from hapticnet.io import formats, read_trial_file, write_trial_file
from oracles import rowwise_read_trial_file, rowwise_write_trial_file

# Every example overwrites the same files under tmp_path, so sharing it is
# safe.
codec_settings = settings(
    max_examples=80, suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def channels(draw, max_len=40, scales=(-300, 300), bound=None):
    """Finite channels whose lengths do not grow along ``CHANNELS``.

    Each channel is a seeded normal draw at a drawn power-of-ten scale, with
    a few samples overwritten by any finite float up to ``bound`` in
    magnitude (zeros of both signs and subnormals included, and by default
    the largest doubles).
    """
    lengths = sorted(draw(st.lists(st.integers(0, max_len), min_size=len(CHANNELS),
                                   max_size=len(CHANNELS))), reverse=True)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = {}
    for name, n in zip(CHANNELS, lengths):
        values = 10.0 ** draw(st.integers(*scales)) * rng.standard_normal(n)
        if n:
            for i, v in draw(st.lists(st.tuples(
                    st.integers(0, n - 1),
                    st.floats(min_value=-bound if bound else None, max_value=bound,
                              allow_nan=False, allow_infinity=False)), max_size=2)):
                values[i] = v
        out[name] = values
    return out


def assert_bitwise_equal(got, expected):
    assert list(got) == list(expected)
    for name in expected:
        assert got[name].dtype == np.float64 and got[name].shape == expected[name].shape, name
        assert np.array_equal(got[name].view(np.int64), expected[name].view(np.int64)), name


@codec_settings
@given(chans=channels())
def test_writer_bytes_and_reader_arrays_match_the_rowwise_codec(tmp_path, chans):
    write_trial_file(tmp_path / "new.csv", chans)
    rowwise_write_trial_file(tmp_path / "ref.csv", chans)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    got = read_trial_file(tmp_path / "new.csv")
    assert_bitwise_equal(got, rowwise_read_trial_file(tmp_path / "new.csv"))
    for name in CHANNELS:
        assert got[name].tolist() == [float("%.8g" % v) for v in chans[name]], name


@codec_settings
@given(chans=channels())
def test_rowwise_read_of_a_writer_file_is_bitwise_the_default_read(tmp_path, monkeypatch, chans):
    path = tmp_path / "t.csv"
    write_trial_file(path, chans)
    expected = read_trial_file(path)
    with monkeypatch.context() as m:
        m.setattr(formats, "_blocks", lambda data, n_names: None)
        assert_bitwise_equal(read_trial_file(path), expected)


@codec_settings
@given(chans=channels())
def test_writer_files_take_the_block_path(tmp_path, monkeypatch, chans):
    def rowwise(path, names, data):
        raise AssertionError(f"{path} was declined by the block path")

    monkeypatch.setattr(formats, "_rows", rowwise)
    write_trial_file(tmp_path / "t.csv", chans)
    read_trial_file(tmp_path / "t.csv")


@codec_settings
@given(chans=channels())
def test_rows_padded_with_trailing_commas_read_like_the_writer_file(tmp_path, chans):
    write_trial_file(tmp_path / "t.csv", chans)
    header, *rows = (tmp_path / "t.csv").read_text().split("\n")[:-1]
    padded = [header] + [row + "," * (len(CHANNELS) - 1 - row.count(",")) for row in rows]
    (tmp_path / "padded.csv").write_text("\n".join(padded) + "\n")
    assert_bitwise_equal(read_trial_file(tmp_path / "padded.csv"),
                         read_trial_file(tmp_path / "t.csv"))


# Tokens that Python's float rejects, or accepts although numpy's own parser
# may not.  None holds an "e" or the letters of "nan" and "inf", so no edit
# can make a cell that parses to a NaN or an infinity.
JUNK = ["x", "", " ", "-", "--1", "1..0", "0x10", "?", "1_000", " 2.5 ", "+.5", "١٢",
        "1,", "\t"]


@st.composite
def edited_file(draw):
    """The text of a valid trial file after one to three random edits of its
    rows.

    Values stay below 1e8 in magnitude, so their text holds no positive
    exponent and no edit that joins two cells can make an infinity.
    """
    chans = draw(channels(max_len=12, scales=(-8, 6), bound=1e7))
    lines = [",".join(CHANNELS)]
    for r in range(max(v.size for v in chans.values())):
        lines.append(",".join("%.8g" % chans[c][r] for c in CHANNELS if chans[c].size > r))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(min(1, len(lines) - 1), len(lines) - 1))  # the header is kept
        cells = lines[i].split(",")
        k = draw(st.integers(0, len(cells)))
        edit = draw(st.sampled_from(
            ["drop cell", "add cell", "drop comma", "add comma", "blank line",
             "junk", "trailing commas", "drop line", "repeat line"]))
        if edit == "drop cell" and k < len(cells):
            del cells[k]
        elif edit == "add cell":
            cells.insert(k, draw(st.sampled_from(JUNK + ["0.5", "-3"])))
        elif edit == "junk" and k < len(cells):
            cells[k] = draw(st.sampled_from(JUNK))
        elif edit == "drop comma" and 0 < k < len(cells):
            cells[k - 1:k + 1] = [cells[k - 1] + cells[k]]
        elif edit == "add comma" and k < len(cells):
            at = draw(st.integers(0, len(cells[k])))
            cells[k:k + 1] = [cells[k][:at], cells[k][at:]]
        elif edit == "trailing commas":
            cells += [""] * draw(st.integers(1, 3))
        lines[i] = ",".join(cells)
        if edit == "blank line":
            lines.insert(i + 1, "")
        elif edit == "drop line" and i > 0:
            del lines[i]
        elif edit == "repeat line":
            lines.insert(i, lines[i])
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from([newline, ""]))


def outcome(read, path):
    try:
        return read(path)
    except UnsupportedFormatError as e:
        return e


@codec_settings
@given(text=edited_file())
def test_edited_files_read_or_fail_like_the_rowwise_reader(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    expected = outcome(rowwise_read_trial_file, path)
    got = outcome(read_trial_file, path)
    if isinstance(expected, Exception):
        assert type(got) is type(expected)
        assert str(got) == str(expected)
    else:
        assert not isinstance(got, Exception), got
        assert_bitwise_equal(got, expected)


HEADER = ",".join(CHANNELS)


@pytest.mark.parametrize("body", [
    ",2,3\n",                 # an empty first cell
    "1,2,3\n,5\n",            # an empty first cell in a narrower row
    "1,2,,,\n3,4\n5,,\n6\n",  # trailing empty cells, some rows fully trimmed
    "1,2,,,\n,,,\n\n",          # a row of commas alone ends every column
    "1,2,,,\n,,,\n3\n",         # ... so a value after it is misplaced
    "1,,2,,\n",               # a gap, then trailing empty cells
    "1,2,,\n3,x\n",            # trailing empty cells, then junk in the same block
    "1,2,,\n3,4,,\n5,6,\n7,8,,9\n",
    ",\n",
    "1\n2\n,\n3\n",
])
def test_hand_written_rows_read_or_fail_like_the_rowwise_reader(tmp_path, body):
    path = tmp_path / "t.csv"
    path.write_text(f"{HEADER}\n{body}")
    expected = outcome(rowwise_read_trial_file, path)
    got = outcome(read_trial_file, path)
    if isinstance(expected, Exception):
        assert str(got) == str(expected)
    else:
        assert_bitwise_equal(got, expected)


@pytest.mark.parametrize("cell", ["nan", "-inf", "Infinity", "1e999", " NaN "])
@pytest.mark.parametrize("row, column", [(0, 0), (0, 4), (2, 0)])
def test_non_finite_cell_rejected_where_the_rowwise_reader_accepts_it(tmp_path, cell, row, column):
    rows = [",".join(["1.5"] * len(CHANNELS))] * 2 + ["2.5"] * 3
    cells = rows[row].split(",")
    cells[column] = cell
    rows[row] = ",".join(cells)
    path = tmp_path / "t.csv"
    path.write_text("\n".join([HEADER] + rows) + "\n")
    assert not np.isfinite(rowwise_read_trial_file(path)[CHANNELS[column]]).all()
    with pytest.raises(UnsupportedFormatError, match=re.escape(
            f"t.csv:{row + 2}: column {column + 1} ({CHANNELS[column]}): {cell!r} is not finite")):
        read_trial_file(path)


def test_first_problem_in_file_order_is_reported(tmp_path):
    # a NaN before a misplaced value, and junk left of a NaN in one row
    path = tmp_path / "t.csv"
    path.write_text(f"{HEADER}\n1,2\n3,nan\n4\n5,6\n")
    with pytest.raises(UnsupportedFormatError, match=r":3: column 2 \(P_DC\): 'nan'"):
        read_trial_file(path)
    path.write_text(f"{HEADER}\n1,2\nx,nan\n")
    with pytest.raises(UnsupportedFormatError, match=r":3: column 1 \(P_AC\): 'x' is not a number"):
        read_trial_file(path)


@pytest.mark.parametrize("value, message", [
    (np.nan, "channel E_4 sample 2 is nan, not a finite number"),
    (np.inf, "channel E_4 sample 2 is inf, not a finite number"),
    (-np.inf, "channel E_4 sample 2 is -inf, not a finite number"),
    (np.ones((3, 1)), "channel E_4 has shape (3, 1), not (samples,)"),
])
def test_writer_rejects_a_channel_that_is_not_a_finite_series(tmp_path, value, message):
    chans = {c: np.ones(5 if c == "P_AC" else 3) for c in CHANNELS}
    if np.ndim(value):
        chans["E_4"] = value
    else:
        chans["E_4"][2] = value
    path = tmp_path / "t.csv"
    with pytest.raises(InvalidInputError, match=re.escape(message)) as err:
        write_trial_file(path, chans)
    assert str(path) in str(err.value)
    assert not path.exists()
