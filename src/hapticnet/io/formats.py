"""On-disk formats: tensor containers, checkpoints, feature maps, trial files.

There is one binary layout, the tensor container: a magic naming what the
file holds, a version, a canonical JSON header and little-endian float32
tensors.  Checkpoints and visual feature maps are both containers, so
storage is 32-bit while all training math stays 64-bit.  ``read_container``
verifies magic, version, header and exact payload length and rejects
anything else instead of guessing; ``write_container`` refuses a tensor with
a value that is not finite in float32.  Trial files and the label table are
text.  Writers are deterministic: identical inputs produce identical bytes.

A trial file is a header naming the channels, then rows of comma-separated
cells.  Each cell is a finite number in the grammar of Python's ``float``,
and the writer prints it ``"%.8g" % value``.  Every row fills a prefix of the
columns, and that prefix never widens down the file, so a file is a few
blocks of rows of equal width: about 165 full rows at 100 Hz, then about
3,500 rows of P_AC alone.  The trial writer formats, and the reader checks
and converts, one block at a time rather than one cell at a time.
"""

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError, UnsupportedFormatError
from ..haptic import CHANNELS

CONTAINER_VERSION = 1
CHECKPOINT_MAGIC = b"HCKP"
FEATUREMAP_MAGIC = b"HVFM"

_HEAD = struct.Struct("<4sIQ")  # magic, version, header length


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
    with open(path, "rb") as fh:
        raw = fh.read()
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
        nbytes = int(np.prod(shape)) * 4
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


@dataclass
class Checkpoint:
    """Serializable model state: graph, named tensors, training metadata."""

    graph: dict
    tensors: dict
    meta: dict


def checkpoint_from_model(model, meta: dict) -> Checkpoint:
    return Checkpoint(graph=model.describe(), tensors=dict(model.named_params()), meta=meta)


def save_checkpoint(path, checkpoint: Checkpoint) -> None:
    meta = dict(checkpoint.meta)
    meta["graph"] = checkpoint.graph
    write_container(path, CHECKPOINT_MAGIC, checkpoint.tensors, meta)


def load_checkpoint(path) -> Checkpoint:
    tensors, meta = read_container(path, CHECKPOINT_MAGIC)
    if "graph" not in meta:
        raise UnsupportedFormatError(f"{path}: checkpoint meta has no 'graph'")
    graph = meta.pop("graph")
    return Checkpoint(graph=graph, tensors=tensors, meta=meta)


def model_from_checkpoint(checkpoint: Checkpoint):
    """Rebuild the model graph and load its weights.

    Every tensor must name a parameter of the graph.  The one exception is
    the ``<param>.vel`` momentum tensor that checkpoints once carried: it
    is ignored, since training starts each phase's momentum from zero.
    """
    from ..models import model_from_description

    model = model_from_description(checkpoint.graph)
    params = dict(model.named_params())
    unknown = sorted(set(checkpoint.tensors) - set(params)
                     - {name + ".vel" for name in params})
    if unknown:
        raise UnsupportedFormatError(f"checkpoint tensors {unknown} name no parameter of the graph")
    for name, value in params.items():
        if name not in checkpoint.tensors:
            raise UnsupportedFormatError(f"checkpoint missing tensor {name!r}")
        stored = checkpoint.tensors[name]
        if stored.shape != value.shape:
            raise UnsupportedFormatError(
                f"tensor {name!r} has shape {stored.shape}, model expects {value.shape}")
        value[:] = stored
    return model


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
    Python's ``float`` does not parse, or parses to a NaN or an infinity.
    Empty cells at the end of a row are ignored, and a blank line ends every
    column.

    The file is read once.  One pass over its bytes finds each row's filled
    width and checks the prefix rule for all rows; then every block of rows
    of equal width is converted in one ``float`` pass.  Only a block that
    fails is scanned row by row, to name the first bad cell.  Errors are
    reported in file order: the first line with a problem raises.
    """
    with open(path) as fh:
        text = fh.read()
    if not text:
        raise UnsupportedFormatError(f"{path}: empty trial file")
    header, _, body = text.partition("\n")
    names = header.split(",")
    if len(names) != len(CHANNELS) or set(names) != set(CHANNELS):
        raise UnsupportedFormatError(f"{path}: header does not list the expected channels")
    data = body.encode()
    if data and not data.endswith(b"\n"):
        data += b"\n"
    raw = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))  # row i is data[starts[i]:ends[i]]
    starts = np.r_[0, ends + 1][:-1]
    widths, gaps = _row_shapes(raw, starts, ends)
    running = np.minimum.accumulate(np.r_[len(names), widths])[:-1]  # columns still running
    misplaced = gaps | (widths > running)
    stop = int(np.argmax(misplaced)) if misplaced.any() else widths.size

    columns = [[] for _ in names]
    edges = np.flatnonzero(np.diff(widths[:stop], prepend=-1, append=-1))
    for a, b in zip(edges[:-1], edges[1:]):
        w = int(widths[a])
        if w == 0:  # blank rows, after every column has ended
            continue
        cells = data[starts[a]:ends[b - 1]].decode().replace("\n", ",").split(",")
        if len(cells) != (b - a) * w:
            # rows ending in empty cells; no row before ``stop`` has another
            cells = [c for c in cells if c]
        try:
            block = np.fromiter(map(float, cells), dtype=np.float64, count=len(cells))
        except ValueError:
            raise _bad_cell(path, names, data, starts[a:b], ends[a:b], a + 2) from None
        if not np.isfinite(block).all():
            raise _bad_cell(path, names, data, starts[a:b], ends[a:b], a + 2)
        for column, values in zip(columns, block.reshape(b - a, w).T):
            column.append(values)
    if stop < widths.size:
        cells = data[starts[stop]:ends[stop]].decode().split(",")
        raise _misplaced_cell(path, stop + 2, names, cells, int(running[stop]))
    return {n: np.concatenate(c) if c else np.empty(0) for n, c in zip(names, columns)}


def _row_shapes(raw, starts, ends):
    """Each row's filled width, and whether an empty cell precedes its last
    filled cell.  A run of commas that ends a row holds only trailing empty
    cells, so the row is cut at that run's first comma."""
    commas = np.flatnonzero(raw == ord(","))
    first = np.diff(commas, prepend=-2) != 1
    runs = commas[first]  # first comma of each run of adjacent commas
    run_len = np.diff(np.r_[np.flatnonzero(first), commas.size])
    row = np.searchsorted(ends, runs)
    trailing = raw[runs + run_len] == ord("\n")
    cut = ends.copy()
    cut[row[trailing]] = runs[trailing]
    widths = np.where(cut > starts,
                      np.searchsorted(commas, cut) - np.searchsorted(commas, starts) + 1, 0)
    gaps = np.zeros(ends.size, dtype=bool)
    gaps[row[~trailing & ((run_len > 1) | (runs == starts[row]))]] = True
    return widths, gaps


def _misplaced_cell(path, ln, names, cells, width) -> UnsupportedFormatError:
    """The error for a row whose filled cells are not a prefix of the first
    ``width`` columns."""
    n = len(cells)
    while n and cells[n - 1] == "":
        n -= 1
    if "" in cells[:n]:
        j = cells.index("")
        return UnsupportedFormatError(
            f"{path}:{ln}: column {j + 1} ({names[j]}) is empty but a column right of it is not")
    if n > len(names):
        return UnsupportedFormatError(f"{path}:{ln}: more cells than header columns")
    return UnsupportedFormatError(
        f"{path}:{ln}: column {width + 1} ({names[width]}) has a value after it ended")


def _bad_cell(path, names, data, starts, ends, first_line) -> UnsupportedFormatError:
    """The error for the first cell of these rows that is not a finite number."""
    for ln, (a, b) in enumerate(zip(starts, ends), start=first_line):
        for j, cell in enumerate(data[a:b].decode().split(",")):
            try:
                value = float(cell)
            except ValueError:
                if not cell:  # the row's trailing empty cells
                    break
                return UnsupportedFormatError(
                    f"{path}:{ln}: column {j + 1} ({names[j]}): {cell!r} is not a number")
            if not math.isfinite(value):
                return UnsupportedFormatError(
                    f"{path}:{ln}: column {j + 1} ({names[j]}): {cell!r} is not finite")
    raise AssertionError("no bad cell in a block that failed to convert")


def write_labels_csv(path, label_rows) -> None:
    """Label table: one row per object, 24 adjective columns in fixed order."""
    from ..evaluation import ADJECTIVES

    lines = ["object_id,name," + ",".join(ADJECTIVES)]
    for obj_id, name, labels in label_rows:
        bits = ",".join("1" if labels[a] else "0" for a in ADJECTIVES)
        lines.append(f"{obj_id},{name},{bits}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_labels_csv(path):
    """Returns [(object_id, name, {adjective: bool})] in file order."""
    from ..evaluation import ADJECTIVES

    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines:
        raise UnsupportedFormatError(f"{path}: empty label table")
    header = lines[0].split(",")
    if header != ["object_id", "name"] + list(ADJECTIVES):
        raise UnsupportedFormatError(f"{path}: unexpected label table header")
    rows = []
    for ln, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != 2 + len(ADJECTIVES):
            raise UnsupportedFormatError(f"{path}:{ln}: wrong column count")
        labels = {}
        for adj, cell in zip(ADJECTIVES, cells[2:]):
            if cell not in ("0", "1"):
                raise UnsupportedFormatError(f"{path}:{ln}: label cell {cell!r} not 0/1")
            labels[adj] = cell == "1"
        rows.append((cells[0], cells[1], labels))
    return rows
