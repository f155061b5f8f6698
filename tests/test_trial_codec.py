"""The block-wise trial-file codec against the row-wise reference in
``oracles``: the same bytes written, the same arrays read back, and the same
error for every file the reference rejects.  Then the hand-off of
``validate``'s parses to the next read of the same bytes."""

import hashlib
import os
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hapticnet import synth
from hapticnet.errors import InvalidInputError, UnsupportedFormatError
from hapticnet.haptic import CHANNELS
from hapticnet.io import formats, load_manifest, read_trial_file, validate, write_trial_file
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


def generated_trial_paths(tmp_path):
    """(manifest, trial-file paths) of a small generated dataset under ``tmp_path``."""
    manifest = load_manifest(synth.synth_generate(
        synth.separable_config(n_objects=2, n_trials=1, seed=5), tmp_path))
    return manifest, [tmp_path / entry["path"] for entry in manifest.trials]


def validated_trial_paths(tmp_path):
    """The trial-file paths of a small generated dataset that ``validate``
    has just found intact."""
    manifest, paths = generated_trial_paths(tmp_path)
    assert validate(manifest, tmp_path) == []
    return paths


def fresh_read(monkeypatch, path):
    """``read_trial_file`` with no parse held, so it parses ``path``."""
    with monkeypatch.context() as m:
        m.setattr(formats, "_HANDOFF", formats._Handoff())
        return read_trial_file(path)


def test_reads_after_validate_are_bitwise_fresh_parses(tmp_path, monkeypatch):
    paths = validated_trial_paths(tmp_path)
    for path in paths:
        assert_bitwise_equal(read_trial_file(path), fresh_read(monkeypatch, path))
    assert formats._HANDOFF._entries == {} and formats._HANDOFF.held == 0


def test_validate_then_read_parses_each_trial_file_once(tmp_path, monkeypatch):
    calls = []

    def counted(data, n_names):
        calls.append(data)
        return blocks(data, n_names)

    blocks = formats._blocks
    monkeypatch.setattr(formats, "_blocks", counted)
    paths = validated_trial_paths(tmp_path)
    for path in paths:
        read_trial_file(path)
    assert len(calls) == len(paths) == 16


def rewritten_in_place(path, edit):
    """Rewrite ``path`` as ``edit`` of its bytes, keeping its size and its
    access and modification times."""
    before = os.stat(path)
    raw = path.read_bytes()
    new = edit(raw)
    assert len(new) == len(raw) and new != raw
    path.write_bytes(new)
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)


def test_a_file_rewritten_after_validate_reads_its_new_bytes(tmp_path, monkeypatch):
    paths = validated_trial_paths(tmp_path)
    old = fresh_read(monkeypatch, paths[0])
    # the last line is one P_AC value: change its last digit
    rewritten_in_place(paths[0], lambda raw: raw[:-2] + (b"2" if raw[-2:-1] == b"1" else b"1") + b"\n")
    got = read_trial_file(paths[0])
    assert_bitwise_equal(got, fresh_read(monkeypatch, paths[0]))
    assert got["P_AC"][-1] != old["P_AC"][-1]

    rewritten_in_place(paths[1], lambda raw: raw[:-2] + b"x\n")
    with pytest.raises(UnsupportedFormatError, match="'.*x' is not a number"):
        read_trial_file(paths[1])


def test_two_reads_after_validate_share_no_memory(tmp_path):
    path = validated_trial_paths(tmp_path)[0]
    first, second = read_trial_file(path), read_trial_file(path)
    assert_bitwise_equal(first, second)
    for name in CHANNELS:
        assert not np.shares_memory(first[name], second[name]), name


def test_a_trial_file_that_fails_to_parse_leaves_nothing_held(tmp_path):
    manifest, paths = generated_trial_paths(tmp_path)
    bad = paths[3].read_bytes().replace(b"\n", b"\nx,", 1)
    paths[3].write_bytes(bad)
    findings = validate(manifest, tmp_path)
    assert [(f.file, f.field) for f in findings] == [(str(paths[3]), "trial-file")]
    held = formats._HANDOFF._entries
    assert len(held) == len(paths) - 1
    assert hashlib.sha256(bad).digest() not in held
    with pytest.raises(UnsupportedFormatError) as err:
        read_trial_file(paths[3])
    assert str(err.value) == findings[0].message


def test_parses_held_stay_within_the_bound(tmp_path, monkeypatch):
    manifest, paths = generated_trial_paths(tmp_path)
    sizes = [sum(v.nbytes for v in read_trial_file(p).values()) for p in paths]
    bound = sizes[-1] + sizes[-2] + sizes[-3] // 2  # the last two files fit, not three
    monkeypatch.setattr(formats, "_HANDOFF_BYTES", bound)
    put = formats._HANDOFF.put

    def checked_put(raw, chans):
        put(raw, chans)
        assert formats._HANDOFF.held <= bound

    monkeypatch.setattr(formats._HANDOFF, "put", checked_put)
    assert validate(manifest, tmp_path) == []
    held = formats._HANDOFF._entries
    # the oldest parses were dropped first
    assert list(held) == [hashlib.sha256(p.read_bytes()).digest() for p in paths[-2:]]
    assert formats._HANDOFF.held == sum(size for _, size in held.values()) == sum(sizes[-2:])


def test_a_parse_larger_than_the_bound_is_not_held_and_drops_nothing(monkeypatch):
    small = {"P_AC": np.zeros(8)}
    monkeypatch.setattr(formats, "_HANDOFF_BYTES", 100)
    formats._HANDOFF.put(b"small", small)
    formats._HANDOFF.put(b"large", {"P_AC": np.zeros(13)})
    assert formats._HANDOFF.held == 64
    assert formats._HANDOFF.take(b"large") is None
    assert formats._HANDOFF.take(b"small") is small


def test_threads_that_hold_and_take_at_once_keep_the_handoff_consistent(monkeypatch):
    # five parses fit, and eight threads each hold seven and take another
    # thread's, so parses are dropped and taken all the time
    monkeypatch.setattr(formats, "_HANDOFF_BYTES", 5 * 64)
    errors = []

    def work(k):
        chans = {"P_AC": np.zeros(8)}
        try:
            for i in range(3000):
                formats._HANDOFF.put(b"%d-%d" % (k, i % 7), chans)
                formats._HANDOFF.take(b"%d-%d" % ((k + 1) % 8, i % 7))
        except BaseException as e:  # noqa: BLE001 - reported by the main thread
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    held = formats._HANDOFF._entries
    assert formats._HANDOFF.held == sum(size for _, size in held.values()) <= 5 * 64
