"""On-disk formats: tensor containers, checkpoints, feature maps, trial files.

There is one binary layout for every numeric file, the tensor container: a
magic naming what the file holds, a version, a canonical JSON header and
little-endian float32 tensors.  Checkpoints, visual feature maps and trial
files are all containers, so storage is 32-bit while all training math
stays 64-bit.  ``read_container`` verifies magic, version, header and exact
payload length, and that every stored value is finite, and rejects anything
else instead of guessing; ``write_container`` refuses a tensor with a value
that is not finite in float32.  The label table is text.  Writers are
deterministic: identical inputs produce identical bytes.

A checkpoint's meta holds, under ``"model"``, the builder entry: the name
of the builder in ``models.BUILDERS`` that made the model and that
builder's arguments other than the seed, for example
``{"builder": "fusion", "feature_dim": 20}``.  Loading calls that builder;
the file describes no graph of its own.

A trial file holds one 1-D tensor per channel of ``haptic.CHANNELS``, named
by the channel, and an empty meta.  The sample rates are fixed by the format
(``haptic.PAC_RATE``, ``haptic.BASE_RATE``) and are not stored.
"""

import inspect
import itertools
import json
import math
import struct

import numpy as np

from ..errors import InvalidInputError, UnsupportedFormatError
from ..evaluation import ADJECTIVES
from ..haptic import CHANNELS
from ..models import BUILDERS

CONTAINER_VERSION = 1
CHECKPOINT_MAGIC = b"HCKP"
FEATUREMAP_MAGIC = b"HVFM"
TRIAL_MAGIC = b"HTRL"

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
    """Read back (tensors as float64, meta).  Strict about structure, and a
    stored value that is not finite raises UnsupportedFormatError naming the
    tensor."""
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
    # tensor k is values bounds[k]:bounds[k + 1] of the payload; Python ints,
    # so a huge shape cannot wrap
    bounds = list(itertools.accumulate((math.prod(shape) for _, shape in entries), initial=0))
    if offset + 4 * bounds[-1] > len(raw):
        k = next(k for k, end in enumerate(bounds[1:]) if offset + 4 * end > len(raw))
        raise UnsupportedFormatError(f"{path}: truncated tensor {entries[k][0]!r}")
    if offset + 4 * bounds[-1] != len(raw):
        raise UnsupportedFormatError(f"{path}: {len(raw) - offset - 4 * bounds[-1]} trailing bytes")
    # the whole payload in one pass; each tensor is a view of it
    stored = np.frombuffer(raw, dtype="<f4", count=bounds[-1], offset=offset)
    if not np.isfinite(stored).all():
        i = int(np.flatnonzero(~np.isfinite(stored))[0])
        k = int(np.searchsorted(bounds, i, side="right")) - 1
        raise UnsupportedFormatError(
            f"{path}: tensor {entries[k][0]!r} holds {stored[i]} at flat index "
            f"{i - bounds[k]}, which is not finite")
    values = stored.astype(np.float64)
    # a 1-D tensor's slice is already its view
    tensors = {name: values[a:b] if len(shape) == 1 else values[a:b].reshape(shape)
               for (name, shape), a, b in zip(entries, bounds, bounds[1:])}
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
    entries = {}  # name -> shape, in file order
    for i, entry in enumerate(header["tensors"]):
        name = entry.get("name") if isinstance(entry, dict) else None
        if not isinstance(name, str):
            raise UnsupportedFormatError(f"{path}: tensor entry {i} has no name")
        if name in entries:
            raise UnsupportedFormatError(f"{path}: tensor {name!r} is listed twice")
        shape = entry.get("shape")
        valid = isinstance(shape, list)
        if valid:
            for s in shape:  # a plain loop: a generator per entry costs more than the checks
                if type(s) is not int or s < 0:  # a bool is not a dimension
                    valid = False
                    break
        if not valid:
            raise UnsupportedFormatError(f"{path}: tensor {name!r} has no valid shape: {shape!r}")
        entries[name] = tuple(shape)
    return list(entries.items()), header["meta"]


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
    """One (object, trial, finger, EP) as a trial container: one 1-D float32
    tensor per channel of ``CHANNELS``, named by the channel.

    A missing channel, a channel that is not one series, and a sample that
    is not finite in float32 raise InvalidInputError naming the file and
    channel before the file is opened.
    """
    missing = [c for c in CHANNELS if c not in channels]
    if missing:
        raise InvalidInputError(f"{path}: trial is missing channels {missing}")
    series = {c: np.asarray(channels[c]) for c in CHANNELS}
    for name, s in series.items():
        if s.ndim != 1:
            raise InvalidInputError(f"{path}: channel {name} has shape {s.shape}, not (samples,)")
    write_container(path, TRIAL_MAGIC, series, {})


def read_trial_file(path) -> dict:
    """The channels of a trial container, as float64 arrays in ``CHANNELS``
    order.

    The file must hold exactly the channels of ``CHANNELS``, each 1-D; any
    other content raises UnsupportedFormatError naming the file, and a file
    that cannot be read raises InvalidInputError naming it.
    """
    tensors, _ = read_container(path, TRIAL_MAGIC)
    if tensors.keys() != set(CHANNELS):
        raise UnsupportedFormatError(
            f"{path}: trial holds tensors {sorted(tensors)}, expected the channels {list(CHANNELS)}")
    for name in CHANNELS:
        if tensors[name].ndim != 1:
            raise UnsupportedFormatError(
                f"{path}: channel {name} has shape {tensors[name].shape}, not (samples,)")
    return {name: tensors[name] for name in CHANNELS}


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
