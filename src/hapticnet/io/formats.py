"""On-disk formats: tensor containers, checkpoints, feature maps, trial files.

There is one binary layout, the tensor container: a magic naming what the
file holds, a version, a canonical JSON header and little-endian float32
tensors.  Checkpoints and visual feature maps are both containers, so
storage is 32-bit while all training math stays 64-bit.  ``read_container``
verifies magic, version, header and exact payload length and rejects
anything else instead of guessing; ``write_container`` refuses a tensor with
a value that is not finite in float32.  Trial files and the label table are
text.  Writers are deterministic: identical inputs produce identical bytes.

A checkpoint's meta holds, under ``"model"``, the builder entry: the name
of the builder in ``models.BUILDERS`` that made the model and that
builder's arguments other than the seed, for example
``{"builder": "fusion", "feature_dim": 20}``.  Loading calls that builder;
the file describes no graph of its own.

A trial file is a header naming the channels, then rows of comma-separated
cells.  Each cell is a finite number in the grammar of Python's ``float``,
and the writer prints it ``"%.8g" % value``.  Every row fills a prefix of the
columns, and that prefix never widens down the file, so a file is a few
blocks of rows of equal width: about 165 full rows at 100 Hz, then about
3,500 rows of P_AC alone.  The writer formats one block at a time.  A
row-wise reader, ``_rows``, defines the format; the fast path ``_blocks``
converts the writer's blocks and returns what ``_rows`` would, or declines.

``manifest.validate`` parses every trial file to check it, and a caller
that validates then loads would parse each file twice.  So ``validate``
hands each successful parse to the next ``read_trial_file`` of the same
bytes.  The key is the SHA-256 digest of the file's bytes, not its path or
``stat`` fields, so a hit returns exactly what parsing those bytes returns,
even for a file rewritten within one clock tick at the same size.  A hit
removes the entry, so the one reader that gets the arrays owns them and a
second read of the same bytes parses again.  A parse that fails keeps
nothing.  What is held is bounded by ``_HANDOFF_BYTES``; the oldest parse is
dropped first.
"""

import hashlib
import inspect
import json
import math
import struct
import threading

import numpy as np

from ..errors import InvalidInputError, UnsupportedFormatError
from ..evaluation import ADJECTIVES
from ..haptic import CHANNELS
from ..models import BUILDERS

CONTAINER_VERSION = 1
CHECKPOINT_MAGIC = b"HCKP"
FEATUREMAP_MAGIC = b"HVFM"

_HEAD = struct.Struct("<4sIQ")  # magic, version, header length


def _read_bytes(path) -> bytes:
    """The bytes of the file at ``path``; a file that cannot be opened or
    read raises InvalidInputError naming the path."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as e:
        raise InvalidInputError(f"cannot read {path}: {e.strerror or e}") from None


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def write_container(path, magic: bytes, tensors: dict, meta: dict) -> None:
    """Write named float32 tensors plus a JSON meta block.

    A tensor with a value that is not finite in float32 (NaN, an infinity,
    or a magnitude that rounds to one) raises InvalidInputError naming the
    file and the tensor, before the file is opened.
    """
    names = sorted(tensors)
    stored = []
    for n in names:
        with np.errstate(over="ignore"):  # overflow is reported below, by name
            values = np.asarray(tensors[n], dtype="<f4")
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise InvalidInputError(
                f"{path}: tensor {n!r} holds {np.asarray(tensors[n]).flat[bad[0]]} at flat "
                f"index {bad[0]}, which is not a finite float32")
        stored.append(values)
    header = {
        "meta": meta,
        "tensors": [{"name": n, "shape": list(tensors[n].shape)} for n in names],
    }
    blob = _canonical_json(header)
    with open(path, "wb") as fh:
        fh.write(_HEAD.pack(magic, CONTAINER_VERSION, len(blob)))
        fh.write(blob)
        for values in stored:
            fh.write(values.tobytes())


def read_container(path, magic: bytes):
    """Read back (tensors as float64, meta).  Strict about structure."""
    raw = _read_bytes(path)
    if len(raw) < _HEAD.size:
        raise UnsupportedFormatError(f"{path}: file shorter than its header")
    got_magic, version, header_len = _HEAD.unpack_from(raw)
    if got_magic != magic:
        raise UnsupportedFormatError(f"{path}: magic {got_magic!r}, expected {magic!r}")
    if version != CONTAINER_VERSION:
        raise UnsupportedFormatError(f"{path}: unsupported version {version}")
    start = _HEAD.size
    if len(raw) < start + header_len:
        raise UnsupportedFormatError(f"{path}: truncated header")
    try:
        header = json.loads(raw[start:start + header_len])
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise UnsupportedFormatError(f"{path}: bad header JSON: {e}") from None
    entries, meta = _container_header(path, header)
    offset = start + header_len
    tensors = {}
    for name, shape in entries:
        nbytes = math.prod(shape) * 4  # Python ints: a huge shape cannot wrap
        chunk = raw[offset:offset + nbytes]
        if len(chunk) != nbytes:
            raise UnsupportedFormatError(f"{path}: truncated tensor {name!r}")
        tensors[name] = np.frombuffer(chunk, dtype="<f4").reshape(shape).astype(np.float64)
        offset += nbytes
    if offset != len(raw):
        raise UnsupportedFormatError(f"{path}: {len(raw) - offset} trailing bytes")
    return tensors, meta


def _container_header(path, header):
    """[(name, shape)] and meta of a parsed container header, checked."""
    if not isinstance(header, dict):
        raise UnsupportedFormatError(
            f"{path}: header is a JSON {type(header).__name__}, not an object")
    for key, kind in (("tensors", list), ("meta", dict)):
        if not isinstance(header.get(key), kind):
            raise UnsupportedFormatError(
                f"{path}: header field {key!r} is missing or not a {kind.__name__}")
    entries = []
    for i, entry in enumerate(header["tensors"]):
        name = entry.get("name") if isinstance(entry, dict) else None
        if not isinstance(name, str):
            raise UnsupportedFormatError(f"{path}: tensor entry {i} has no name")
        if name in (n for n, _ in entries):
            raise UnsupportedFormatError(f"{path}: tensor {name!r} is listed twice")
        shape = entry.get("shape")
        if not (isinstance(shape, list) and all(type(s) is int and s >= 0 for s in shape)):
            raise UnsupportedFormatError(f"{path}: tensor {name!r} has no valid shape: {shape!r}")
        entries.append((name, tuple(shape)))
    return entries, header["meta"]


def save_model(path, model, meta: dict) -> None:
    """A checkpoint: ``model``'s parameters as float32 tensors, and ``meta``
    with the model's builder entry added as ``meta["model"]``.

    A model that no builder made, or a ``meta`` that already holds the key
    ``"model"``, raises InvalidInputError naming the file before the file
    is opened.
    """
    if "model" in meta:
        raise InvalidInputError(
            f"{path}: meta key 'model' is reserved for the checkpoint's builder entry")
    if model.builder_args is None:
        raise InvalidInputError(
            f"{path}: model {model.kind!r} was not made by a builder of {sorted(BUILDERS)}")
    entry = dict(model.builder_args, builder=model.kind)
    write_container(path, CHECKPOINT_MAGIC, dict(model.named_params()), dict(meta, model=entry))


def load_model(path):
    """(model, meta) of a checkpoint: the model its builder entry names,
    with its weights loaded, and the meta without that entry.

    The entry must name a builder of ``models.BUILDERS`` and give exactly
    that builder's arguments other than the seed.  Each is a positive int
    no larger than the number of values the checkpoint stores, so a damaged
    entry cannot make the builder allocate more than the file holds.
    Every tensor must name a parameter of the built model, and every
    parameter must have a tensor of its shape.  Every error is an
    UnsupportedFormatError naming the file.
    """
    tensors, meta = read_container(path, CHECKPOINT_MAGIC)
    model = _built_model(path, meta, sum(t.size for t in tensors.values()))
    params = dict(model.named_params())
    unknown = sorted(set(tensors) - set(params))
    if unknown:
        raise UnsupportedFormatError(
            f"{path}: checkpoint tensors {unknown} name no parameter of the model")
    for name, value in params.items():
        if name not in tensors:
            raise UnsupportedFormatError(f"{path}: checkpoint missing tensor {name!r}")
        if tensors[name].shape != value.shape:
            raise UnsupportedFormatError(
                f"{path}: tensor {name!r} has shape {tensors[name].shape}, "
                f"model expects {value.shape}")
        value[:] = tensors[name]
    return model, meta


def _built_model(path, meta, stored):
    """The model that ``meta``'s builder entry names, with the builder's
    initial weights; the entry is popped from ``meta``.  ``stored`` is the
    number of values the checkpoint's tensors hold."""
    if "model" not in meta:
        if "graph" in meta:
            raise UnsupportedFormatError(
                f"{path}: checkpoint predates builder-named checkpoints: its meta "
                f"holds a 'graph' and no 'model' builder entry")
        raise UnsupportedFormatError(f"{path}: checkpoint meta has no 'model' builder entry")
    entry = meta.pop("model")
    name = entry.get("builder") if isinstance(entry, dict) else None
    if name not in BUILDERS:
        raise UnsupportedFormatError(
            f"{path}: builder entry {entry!r} names no builder of {sorted(BUILDERS)}")
    args = {k: v for k, v in entry.items() if k != "builder"}
    takes = sorted(inspect.signature(BUILDERS[name]).parameters.keys() - {"seed"})
    if sorted(args) != takes:
        raise UnsupportedFormatError(
            f"{path}: builder {name!r} takes arguments {takes}, the checkpoint gives {sorted(args)}")
    for k, v in args.items():
        if type(v) is not int or v < 1:
            raise UnsupportedFormatError(
                f"{path}: builder {name!r} argument {k}={v!r} is not a positive int")
        if v > stored:
            raise UnsupportedFormatError(
                f"{path}: builder {name!r} argument {k}={v} exceeds the {stored} values "
                f"the checkpoint stores")
    return BUILDERS[name](**args)


def write_feature_maps(path, grids: np.ndarray) -> None:
    """Visual feature maps for one object: a container holding one
    (views, H, W, C) float32 tensor named ``grids``."""
    grids = np.asarray(grids)
    if grids.ndim != 4:
        raise InvalidInputError(f"expected (views, H, W, C), got shape {grids.shape}")
    write_container(path, FEATUREMAP_MAGIC, {"grids": grids}, {})


def read_feature_maps(path) -> np.ndarray:
    """The (views, H, W, C) grids of a feature-map container, as float64."""
    tensors, _ = read_container(path, FEATUREMAP_MAGIC)
    if list(tensors) != ["grids"]:
        raise UnsupportedFormatError(
            f"{path}: feature maps hold tensors {sorted(tensors)}, expected ['grids']")
    grids = tensors["grids"]
    if grids.ndim != 4:
        raise UnsupportedFormatError(f"{path}: grids have shape {grids.shape}, not (views, H, W, C)")
    return grids


def write_trial_file(path, channels: dict) -> None:
    """Columnar numeric text for one (object, trial, finger, EP).

    Channels are columns in the fixed order; columns shorter than the
    longest one (P_AC runs ~22x longer than the 100 Hz channels) simply end,
    with trailing empty cells trimmed from each row.  Lengths must not grow
    along that order, so every row fills a prefix of the columns.  Each
    channel is one series, and every sample must be finite; each is written
    as ``"%.8g" % value``.  The sample rates are fixed by the format
    (``haptic.PAC_RATE``, ``haptic.BASE_RATE``) and are not stored.

    The file is written block by block: the rows that fill the same number
    of columns form one block, formatted with one template.  Bad input
    raises InvalidInputError naming the file and channel before the file is
    opened.
    """
    missing = [c for c in CHANNELS if c not in channels]
    if missing:
        raise InvalidInputError(f"{path}: trial is missing channels {missing}")
    series = [np.asarray(channels[c], dtype=np.float64) for c in CHANNELS]
    for name, s in zip(CHANNELS, series):
        if s.ndim != 1:
            raise InvalidInputError(f"{path}: channel {name} has shape {s.shape}, not (samples,)")
        bad = np.flatnonzero(~np.isfinite(s))
        if bad.size:
            raise InvalidInputError(
                f"{path}: channel {name} sample {bad[0]} is {s[bad[0]]}, not a finite number")
    for j in range(1, len(CHANNELS)):
        if series[j].size > series[j - 1].size:
            raise InvalidInputError(
                f"{path}: channel {CHANNELS[j]} has {series[j].size} samples, more than "
                f"{CHANNELS[j - 1]} before it ({series[j - 1].size})")
    # rows sizes[w]..sizes[w - 1] fill exactly the first w columns
    sizes = [s.size for s in series] + [0]
    parts = [",".join(CHANNELS)]
    for w in range(len(series), 0, -1):
        a, b = sizes[w], sizes[w - 1]
        if a < b:
            block = np.stack([s[a:b] for s in series[:w]], axis=1)
            template = "\n".join([",".join(["%.8g"] * w)] * (b - a))
            parts.append(template % tuple(block.ravel().tolist()))
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def read_trial_file(path) -> dict:
    """Parse a trial file back into channel -> array.

    Each row fills a prefix of the columns: a column that has ended stays
    empty, and the columns to its left run at least as long.  A value below
    an ended column, or to the right of an empty cell, would sit at a
    different time step than its neighbours; it raises
    UnsupportedFormatError naming the line and column.  So does a cell that
    Python's ``float`` does not parse, or parses to a NaN or an infinity, and
    so do bytes that are not UTF-8 text.  Empty cells at the end of a row are
    ignored, and a blank line ends every column.  Line endings may be
    ``\n``, ``\r\n`` or ``\r``.  A file that cannot be read raises
    InvalidInputError naming it.

    ``_rows`` reads one line at a time and defines the format: the first line
    with a problem raises.  In front of it, ``_blocks`` converts a file in
    the writer's layout a block at a time, or declines and leaves it to
    ``_rows``.

    When ``validate`` parsed the same bytes and no read has taken that parse
    yet, it is returned without parsing again (see the module docstring).
    """
    raw = _read_bytes(path)
    chans = _HANDOFF.take(raw)
    return _parse_trial(path, raw) if chans is None else chans


def _read_trial_file_for_handoff(path) -> dict:
    """Parse a trial file as ``read_trial_file`` does, and hold the parse for
    the next read of the same bytes; ``validate`` reads trial files through
    this."""
    raw = _read_bytes(path)
    chans = _parse_trial(path, raw)
    _HANDOFF.put(raw, chans)
    return chans


def _parse_trial(path, raw) -> dict:
    """The channels of a trial file's bytes ``raw``; ``path`` only names the
    file in errors."""
    if not raw:
        raise UnsupportedFormatError(f"{path}: empty trial file")
    header, _, data = _lf_lines(raw).partition(b"\n")
    names = _text(path, 1, header).split(",")
    if len(names) != len(CHANNELS) or set(names) != set(CHANNELS):
        raise UnsupportedFormatError(f"{path}: header does not list the expected channels")
    if data and not data.endswith(b"\n"):
        data += b"\n"
    columns = _blocks(data, len(names))
    if columns is None:
        columns = _rows(path, names, data)
    return dict(zip(names, columns))


# The parses held for ``read_trial_file`` are bounded by the bytes of their
# arrays.  A trial file of the synthetic generator parses to about 60 KB
# (84 KB of text), and the 1,152 files of ``two_cue_config()``'s 48-object,
# 3-trial dataset to 69 MB, so at 96 MiB a caller that validates and then
# loads that dataset parses each file once.  A caller that only validates
# keeps at most this much alive.
_HANDOFF_BYTES = 96 << 20


class _Handoff:
    """Trial-file parses keyed by the SHA-256 digest of the file's bytes,
    each held until one read of the same bytes takes it."""

    def __init__(self):
        self._lock = threading.Lock()  # validate and reads may run in different threads
        self._entries = {}  # digest -> (channels, bytes of their arrays), oldest first
        self.held = 0  # bytes of the arrays in ``_entries``

    def put(self, raw, chans) -> None:
        """Hold ``chans``, parsed from the bytes ``raw``, dropping the oldest
        parses to stay within ``_HANDOFF_BYTES``; a larger parse is not held."""
        size = sum(v.nbytes for v in chans.values())
        digest = hashlib.sha256(raw).digest()
        with self._lock:
            self._pop(digest)
            if size > _HANDOFF_BYTES:
                return
            while self.held + size > _HANDOFF_BYTES:
                self._pop(next(iter(self._entries)))
            self._entries[digest] = (chans, size)
            self.held += size

    def take(self, raw):
        """The channels held for the bytes ``raw``, removed; None if none are."""
        if not self._entries:  # nothing to find: skip the hash
            return None
        digest = hashlib.sha256(raw).digest()
        with self._lock:
            return self._pop(digest)

    def _pop(self, digest):
        chans, size = self._entries.pop(digest, (None, 0))
        self.held -= size
        return chans


_HANDOFF = _Handoff()


def _rows(path, names, data) -> list:
    """The columns of the rows in ``data``, read one line at a time: the
    definition of the trial-file format.  The first problem in file order
    raises UnsupportedFormatError naming its line."""
    columns = [[] for _ in names]
    width = len(names)  # columns still running
    for ln, line in enumerate(data.splitlines(), start=2):
        cells = _text(path, ln, line).split(",")
        n = len(cells)
        while n and cells[n - 1] == "":  # trailing empty cells; a blank line keeps none
            n -= 1
        if "" in cells[:n]:
            j = cells.index("")
            raise UnsupportedFormatError(
                f"{path}:{ln}: column {j + 1} ({names[j]}) is empty but a column right of it is not")
        if n > len(names):
            raise UnsupportedFormatError(f"{path}:{ln}: more cells than header columns")
        if n > width:
            raise UnsupportedFormatError(
                f"{path}:{ln}: column {width + 1} ({names[width]}) has a value after it ended")
        width = n
        for j, cell in enumerate(cells[:n]):
            try:
                value = float(cell)
            except ValueError:
                raise UnsupportedFormatError(
                    f"{path}:{ln}: column {j + 1} ({names[j]}): {cell!r} is not a number") from None
            if not math.isfinite(value):
                raise UnsupportedFormatError(
                    f"{path}:{ln}: column {j + 1} ({names[j]}): {cell!r} is not finite")
            columns[j].append(value)
    return [np.asarray(c, dtype=np.float64) for c in columns]


def _blocks(data, n_names):
    """The columns ``_rows`` reads from ``data``, empty or ending in a line
    break, when it is in the writer's layout: no empty cell, and no row wider
    than the header or the row above.  Each block of rows of equal width is
    converted in one ``float`` pass.  None for any other layout or for a cell
    that is not a finite number."""
    raw = np.frombuffer(data, dtype=np.uint8)
    seps = np.flatnonzero((raw == ord(",")) | (raw == ord("\n")))
    if (np.diff(seps, prepend=-1) == 1).any():  # a separator first or after another: an empty cell
        return None
    breaks = np.flatnonzero(raw[seps] == ord("\n"))
    widths = np.diff(breaks, prepend=-1)  # a row's commas and its line break
    if (widths[:1] > n_names).any() or (np.diff(widths) > 0).any():
        return None
    starts = np.r_[0, seps[breaks] + 1]  # row i is data[starts[i]:starts[i + 1] - 1]
    columns = [[] for _ in range(n_names)]
    edges = np.flatnonzero(np.diff(widths, prepend=-1, append=-1))
    for a, b in zip(edges[:-1], edges[1:]):
        try:
            cells = data[starts[a]:starts[b] - 1].decode().replace("\n", ",").split(",")
            block = np.fromiter(map(float, cells), dtype=np.float64, count=len(cells))
        except ValueError:  # a UnicodeDecodeError too
            return None
        if not np.isfinite(block).all():
            return None
        for column, values in zip(columns, block.reshape(b - a, -1).T):
            column.append(values)
    return [np.concatenate(c) if c else np.empty(0) for c in columns]


def _lf_lines(raw: bytes) -> bytes:
    """``raw`` with ``\r\n`` and ``\r`` line endings made ``\n``, as text mode reads them."""
    return raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in raw else raw


def _text(path, ln, line: bytes) -> str:
    """One line of a text file, decoded; bytes that are not UTF-8 raise
    UnsupportedFormatError naming the file and line."""
    try:
        return line.decode()
    except UnicodeDecodeError as e:
        raise UnsupportedFormatError(
            f"{path}:{ln}: byte {e.start + 1} ({line[e.start]:#04x}) is not UTF-8 text") from None


def write_labels_csv(path, label_rows) -> None:
    """Label table: one row per object, 24 adjective columns in fixed order.

    An object id that repeats, an id or name that holds a comma or a line
    break, and labels that lack an adjective raise InvalidInputError naming
    the object before the file is opened, since ``read_labels_csv`` could
    not read such a table back.
    """
    label_rows = list(label_rows)
    seen = set()
    for obj_id, name, labels in label_rows:
        if obj_id in seen:
            raise InvalidInputError(f"{path}: object {obj_id!r} has more than one row")
        seen.add(obj_id)
        if any(c in f"{obj_id}{name}" for c in ",\n\r"):
            raise InvalidInputError(
                f"{path}: object {obj_id!r} named {name!r}: a comma or line break would split its row")
        missing = [a for a in ADJECTIVES if a not in labels]
        if missing:
            raise InvalidInputError(f"{path}: object {obj_id!r} has no label for {missing}")
    lines = ["object_id,name," + ",".join(ADJECTIVES)]
    for obj_id, name, labels in label_rows:
        bits = ",".join("1" if labels[a] else "0" for a in ADJECTIVES)
        lines.append(f"{obj_id},{name},{bits}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_labels_csv(path):
    """Returns [(object_id, name, {adjective: bool})] in file order.

    Blank lines are skipped.  Errors name the line as it is numbered in the
    file, and the first line with a problem raises.  An object id may have
    one row only; a repeated one names the line of its first row.
    """
    raw = _read_bytes(path)
    # decoded one line at a time, as the checks reach it
    lines = ((ln, _text(path, ln, line))
             for ln, line in enumerate(_lf_lines(raw).split(b"\n"), start=1))
    lines = ((ln, line) for ln, line in lines if line.strip())
    first = next(lines, None)
    if first is None:
        raise UnsupportedFormatError(f"{path}: empty label table")
    if first[1].split(",") != ["object_id", "name"] + list(ADJECTIVES):
        raise UnsupportedFormatError(f"{path}: unexpected label table header")
    rows = []
    first_lines = {}  # object id -> line of its row
    for ln, line in lines:
        cells = line.split(",")
        if len(cells) != 2 + len(ADJECTIVES):
            raise UnsupportedFormatError(f"{path}:{ln}: wrong column count")
        first = first_lines.setdefault(cells[0], ln)
        if first != ln:
            raise UnsupportedFormatError(
                f"{path}:{ln}: object {cells[0]!r} already has a row, on line {first}")
        labels = {}
        for adj, cell in zip(ADJECTIVES, cells[2:]):
            if cell not in ("0", "1"):
                raise UnsupportedFormatError(f"{path}:{ln}: label cell {cell!r} not 0/1")
            labels[adj] = cell == "1"
        rows.append((cells[0], cells[1], labels))
    return rows
