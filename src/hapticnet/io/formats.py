"""On-disk formats: tensor containers, checkpoints, feature maps, trial files.

There is one binary layout, the tensor container: a magic naming what the
file holds, a version, a canonical JSON header and little-endian float32
tensors.  Checkpoints and visual feature maps are both containers, so
storage is 32-bit while all training math stays 64-bit.  ``read_container``
verifies magic, version, header and exact payload length and rejects
anything else instead of guessing.  Trial files and the label table are
text.  Writers are deterministic: identical inputs produce identical bytes.
"""

import json
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
    """Write named float32 tensors plus a JSON meta block."""
    names = sorted(tensors)
    header = {
        "meta": meta,
        "tensors": [{"name": n, "shape": list(tensors[n].shape)} for n in names],
    }
    blob = _canonical_json(header)
    with open(path, "wb") as fh:
        fh.write(_HEAD.pack(magic, CONTAINER_VERSION, len(blob)))
        fh.write(blob)
        for n in names:
            fh.write(np.ascontiguousarray(tensors[n], dtype="<f4").tobytes())


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
    along that order, so every row fills a prefix of the columns.  The sample
    rates are fixed by the format (``haptic.PAC_RATE``, ``haptic.BASE_RATE``)
    and are not stored.
    """
    missing = [c for c in CHANNELS if c not in channels]
    if missing:
        raise InvalidInputError(f"{path}: trial is missing channels {missing}")
    series = [np.asarray(channels[c], dtype=np.float64) for c in CHANNELS]
    for j in range(1, len(CHANNELS)):
        if series[j].size > series[j - 1].size:
            raise InvalidInputError(
                f"{path}: channel {CHANNELS[j]} has {series[j].size} samples, more than "
                f"{CHANNELS[j - 1]} before it ({series[j - 1].size})")
    n_rows = max(s.size for s in series)
    cells = np.full((n_rows, len(CHANNELS)), "", dtype=object)
    for j, s in enumerate(series):
        cells[:s.size, j] = np.char.mod("%.8g", s)
    lines = [",".join(CHANNELS)]
    for row in cells:
        last = len(row)
        while last > 0 and row[last - 1] == "":
            last -= 1
        lines.append(",".join(row[:last]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trial_file(path) -> dict:
    """Parse a trial file back into channel -> array.

    Each row fills a prefix of the columns: a column that has ended stays
    empty, and the columns to its left run at least as long.  A value below
    an ended column, or to the right of an empty cell, would sit at a
    different time step than its neighbours; it raises
    UnsupportedFormatError naming the line and column, as does a cell that
    is not a number.  Empty cells at the end of a row are ignored, and a
    blank line ends every column.
    """
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh]
    if not lines:
        raise UnsupportedFormatError(f"{path}: empty trial file")
    names = lines[0].split(",")
    if len(names) != len(CHANNELS) or set(names) != set(CHANNELS):
        raise UnsupportedFormatError(f"{path}: header does not list the expected channels")
    columns = [[] for _ in names]
    width = len(names)  # columns still running
    for ln, line in enumerate(lines[1:], start=2):
        cells = line.split(",")  # a blank line is a row in which every column has ended
        if len(cells) != width or "" in cells:
            cells = _row_prefix(path, ln, names, cells, width)
            width = len(cells)
        try:
            for column, cell in zip(columns, cells):
                column.append(float(cell))
        except ValueError:
            j = cells.index(cell)  # an equal cell further left would have failed first
            raise UnsupportedFormatError(
                f"{path}:{ln}: column {j + 1} ({names[j]}): {cell!r} is not a number") from None
    return {n: np.asarray(v, dtype=np.float64) for n, v in zip(names, columns)}


def _row_prefix(path, ln, names, cells, width) -> list:
    """The filled cells of a row that is not a full row of ``width`` cells."""
    n = len(cells)
    while n and cells[n - 1] == "":
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
    return cells[:n]


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
