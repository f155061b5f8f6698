"""Dataset manifests: strict loading and total validation."""

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from ..errors import InvalidInputError
from ..haptic import EPS, FINGERS, block_problems
from ..visual import N_VIEWS
from . import formats

MANIFEST_VERSION = 1


@dataclass
class DatasetManifest:
    """Index of everything a dataset provides, all paths relative to root.

    It lists data only.  The preprocessing recipe (``haptic.RESAMPLE_LEN``,
    ``DECIMATION``, ``PCA_COMPONENTS``, ``OFFSETS``) and the number of views
    per object (``visual.N_VIEWS``) are package constants, so a manifest
    does not copy them.
    """

    name: str
    objects: list                 # [{"id", "name"}]
    labels_path: str
    trials: list                  # [{"object_id", "trial", "finger", "ep", "path"}]
    visual: list                  # [{"object_id", "path"}]
    trials_per_object: int = 10

    def object_ids(self):
        return [o["id"] for o in self.objects]

    def to_dict(self) -> dict:
        return {
            "version": MANIFEST_VERSION,
            "name": self.name,
            "objects": self.objects,
            "labels": self.labels_path,
            "trials": self.trials,
            "visual": self.visual,
            "trials_per_object": self.trials_per_object,
        }


def save_manifest(path, manifest: DatasetManifest) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(manifest.to_dict(), sort_keys=True, indent=1) + "\n")


# Type of every top-level field, and of the fields each list entry must hold.
_FIELD_TYPES = {
    "name": str, "labels": str, "objects": list, "trials": list, "visual": list,
    "trials_per_object": int,
}
_ENTRY_FIELDS = {
    "objects": {"id": str},
    "trials": {"object_id": str, "trial": int, "finger": int, "ep": str, "path": str},
    "visual": {"object_id": str, "path": str},
}
_TYPE_NAMES = {str: "a string", int: "an integer", list: "a list", dict: "an object"}


def _type_problem(value, kind):
    """Why ``value`` is not of ``kind``, or None."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        return f"must be {_TYPE_NAMES[kind]}, got {type(value).__name__}"
    return None


def _field_problems(fields):
    """[(field, message)] for each top-level field in ``fields`` that lacks
    its type, and for a ``trials_per_object`` below 1, which would expect
    no trials at all."""
    problems = [(key, problem) for key, kind in _FIELD_TYPES.items()
                if key in fields and (problem := _type_problem(fields[key], kind))]
    count = fields.get("trials_per_object", 1)
    if not _type_problem(count, int) and count < 1:
        problems.append(("trials_per_object", f"must be at least 1, got {count}"))
    return problems


def _entry_problem(key, i, entry):
    """(field, message) for the first way entry ``i`` of the ``key`` list is
    not an object holding its fields with their types, or None."""
    problem = _type_problem(entry, dict)
    if problem:
        return f"{key}[{i}]", problem
    for name, kind in _ENTRY_FIELDS[key].items():
        if name not in entry:
            return f"{key}[{i}]", f"lacks field {name!r}"
        problem = _type_problem(entry[name], kind)
        if problem:
            return f"{key}[{i}].{name}", problem
    return None


def load_manifest(path) -> DatasetManifest:
    """Strict parse; structural problems raise immediately.

    Every field must have its type, ``trials_per_object`` must be at least
    1, and every object, trial and visual entry must be an object holding
    its fields.  Problems raise InvalidInputError naming the manifest path
    and the field.  Keys the manifest does not use, such as the
    preprocessing blocks and the view count that older manifests carry, are
    ignored.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise InvalidInputError(f"cannot read manifest {path}: {e}") from None
    if not isinstance(data, dict):
        raise InvalidInputError(f"{path}: manifest must be a JSON object")
    if data.get("version") != MANIFEST_VERSION:
        raise InvalidInputError(f"{path}: unsupported manifest version {data.get('version')}")
    required = ("name", "objects", "labels", "trials", "visual")
    missing = [k for k in required if k not in data]
    if missing:
        raise InvalidInputError(f"{path}: manifest missing fields {missing}")
    problems = _field_problems(data)
    if problems:
        raise InvalidInputError(f"{path}: manifest field {problems[0][0]} {problems[0][1]}")
    for key in _ENTRY_FIELDS:
        for i, entry in enumerate(data[key]):
            problem = _entry_problem(key, i, entry)
            if problem:
                raise InvalidInputError(f"{path}: manifest field {problem[0]} {problem[1]}")
    return DatasetManifest(
        name=data["name"],
        objects=data["objects"],
        labels_path=data["labels"],
        trials=data["trials"],
        visual=data["visual"],
        trials_per_object=data.get("trials_per_object", 10),
    )


@dataclass(frozen=True)
class Finding:
    """One validation problem, pointing at the file and field involved."""

    file: str
    field: str
    message: str

    def __str__(self):
        return f"{self.file} [{self.field}]: {self.message}"


def validate(manifest: DatasetManifest, root) -> list:
    """Check counts, file integrity, trial blocks, label completeness.

    Total: malformed inputs become findings, never exceptions.  An intact
    dataset yields an empty list.  Every file is read through the public
    reader of its format, so a file that validates loads.
    """
    root = Path(root)
    findings = [Finding("manifest", *problem) for problem in _field_problems(manifest.to_dict())]
    if findings:
        return findings  # nothing below can be read without well-formed fields
    entries = {key: [] for key in _ENTRY_FIELDS}  # the well-formed ones
    for key, kept in entries.items():
        for i, entry in enumerate(getattr(manifest, key)):
            problem = _entry_problem(key, i, entry)
            if problem:
                findings.append(Finding("manifest", *problem))
            else:
                kept.append(entry)
    object_ids = [o["id"] for o in entries["objects"]]
    repeated = sorted(obj for obj, n in Counter(object_ids).items() if n > 1)
    if repeated:
        findings.append(Finding("manifest", "objects", f"duplicate object ids {repeated}"))

    # label table covers all objects
    labels_file = root / manifest.labels_path
    try:
        rows = formats.read_labels_csv(labels_file)
        labeled = {r[0] for r in rows}
        for obj in object_ids:
            if obj not in labeled:
                findings.append(Finding(str(labels_file), "object_id",
                                        f"object {obj} has no label row"))
        for obj in sorted(labeled - set(object_ids)):
            findings.append(Finding(str(labels_file), "object_id",
                                    f"label row for unknown object {obj}"))
    except Exception as e:  # noqa: BLE001 - validation must be total
        findings.append(Finding(str(labels_file), "labels", str(e)))

    # haptic trial index: per object, trials_per_object x fingers x EPs
    by_object = {obj: set() for obj in object_ids}
    for entry in entries["trials"]:
        key = (entry["trial"], entry["finger"], entry["ep"])
        obj = entry["object_id"]
        if obj not in by_object:
            findings.append(Finding("manifest", "trials",
                                    f"trial entry for unknown object {obj}"))
            continue
        if key in by_object[obj]:
            findings.append(Finding("manifest", "trials",
                                    f"duplicate trial entry {obj}/{key}"))
        by_object[obj].add(key)
    # the keys are the whole index when they are as many and all lie in it;
    # that costs time in the keys present, not in trials_per_object
    tpo = manifest.trials_per_object
    n_expected = tpo * len(FINGERS) * len(EPS)
    for obj, keys in by_object.items():
        if len(keys) != n_expected or not all(
                0 <= t < tpo and f in FINGERS and ep in EPS for t, f, ep in keys):
            findings.append(Finding(
                "manifest", "trials",
                f"object {obj}: has {len({k[0] for k in keys})} trials / {len(keys)} files, "
                f"expected {tpo} trials ({n_expected} files)"))

    for entry in entries["trials"]:
        path = root / entry["path"]
        try:
            chans = formats.read_trial_file(path)
        except Exception as e:  # noqa: BLE001
            findings.append(Finding(str(path), "trial-file", str(e)))
            continue
        findings.extend(Finding(str(path), field, message)
                        for field, message in block_problems(chans))

    # visual feature files: one per object, N_VIEWS maps each, no map with
    # an empty axis, and one channel count across objects (pooling removes
    # H and W, so only C must agree)
    visual_files = Counter(v["object_id"] for v in entries["visual"])
    for obj in object_ids:
        if visual_files[obj] != 1:
            findings.append(Finding("manifest", "visual",
                                    f"object {obj}: {visual_files[obj]} feature files, expected 1"))
    channels = {}  # feature file -> channel count, for files without an empty map
    for entry in entries["visual"]:
        path = root / entry["path"]
        try:
            grids = formats.read_feature_maps(path)
        except Exception as e:  # noqa: BLE001
            findings.append(Finding(str(path), "feature-file", str(e)))
            continue
        if grids.shape[0] != N_VIEWS:
            findings.append(Finding(str(path), "views",
                                    f"{grids.shape[0]} views, expected {N_VIEWS}"))
        if 0 in grids.shape[1:]:
            findings.append(Finding(str(path), "shape",
                                    f"maps of shape {grids.shape[1:]} have an empty axis"))
        else:
            channels[str(path)] = grids.shape[3]
    if channels:
        counts = Counter(channels.values()).most_common()
        n_common = counts[0][1]
        tied = sorted(c for c, n in counts if n == n_common)
        # on a tie no count is the common one, so every file is reported
        have = str(tied[0]) if len(tied) == 1 else f"each of {', '.join(map(str, tied))}"
        findings.extend(
            Finding(path, "channels", f"{c} channels, where {n_common} of "
                    f"{len(channels)} feature files have {have}")
            for path, c in channels.items() if len(tied) > 1 or c != tied[0])
    return findings
