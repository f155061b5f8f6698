"""Activation extraction, instance combination, and multimodal fusion."""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .models import Model, build_linear_classifier
from .training import TrainSchedule, TrainResult, train

EXTRACT_BATCH = 64  # instances per forward pass in extract_activations


@dataclass
class FeatureVector:
    """A flat feature with provenance: tap activations, or an object-level
    vector (combined activations or a fusion input)."""

    object_id: str
    index: tuple      # canonical ordering key: (trial, finger, offset), or () per object
    values: np.ndarray


def extract_activations(model: Model, instances, tap_layer="conv3") -> list:
    """Flattened tap-layer outputs for a list of InstanceMatrix.

    Pure function of (model parameters, instance values); taps on fused
    conv+ReLU layers are post-activation, so conv features are >= 0.
    """
    model.layer(tap_layer)  # fail fast on unknown taps
    out = []
    for start in range(0, len(instances), EXTRACT_BATCH):
        chunk = instances[start:start + EXTRACT_BATCH]
        x = np.stack([inst.values for inst in chunk])
        _, tapped = model.forward(x, tap=tap_layer)
        flat = tapped.reshape(len(chunk), -1)
        for inst, vec in zip(chunk, flat):
            out.append(FeatureVector(
                object_id=inst.object_id,
                index=(inst.trial_index, inst.finger, inst.offset),
                values=vec.copy(),
            ))
    return out


def combine_instances(features, expected_count) -> FeatureVector:
    """Concatenate one object's per-instance features in canonical index order."""
    if len(features) != expected_count:
        raise InvalidInputError(
            f"expected {expected_count} features to combine, got {len(features)}"
        )
    objects = {f.object_id for f in features}
    if len(objects) != 1:
        raise InvalidInputError(f"features from multiple objects: {sorted(objects)}")
    lengths = {f.values.shape[0] for f in features}
    if len(lengths) != 1:
        raise InvalidInputError(f"features have differing lengths: {sorted(lengths)}")
    indices = [f.index for f in features]
    if len(set(indices)) != len(indices):
        raise InvalidInputError(f"duplicate feature indices for object {features[0].object_id}")
    ordered = sorted(features, key=lambda f: f.index)
    return FeatureVector(
        object_id=features[0].object_id,
        index=(),
        values=np.concatenate([f.values for f in ordered]),
    )


def fuse_features(haptic, visual):
    """Concatenate per-object haptic and visual features, haptic first.

    ``haptic`` and ``visual`` each hold object-level FeatureVectors (with
    ``index=()``), one per object; the object sets must match exactly, and
    within a modality every object's vector has the same length.
    """
    hmap = {f.object_id: f for f in haptic}
    vmap = {f.object_id: f for f in visual}
    if len(hmap) != len(haptic) or len(vmap) != len(visual):
        raise InvalidInputError("duplicate object ids in feature lists")
    if set(hmap) != set(vmap):
        only_h = sorted(set(hmap) - set(vmap))
        only_v = sorted(set(vmap) - set(hmap))
        raise InvalidInputError(
            f"modality provenance mismatch: haptic-only={only_h}, visual-only={only_v}"
        )
    for modality, fmap in (("haptic", hmap), ("visual", vmap)):
        by_length = {}
        for obj in sorted(fmap):
            by_length.setdefault(fmap[obj].values.shape[0], []).append(obj)
        if len(by_length) > 1:
            raise InvalidInputError(
                f"{modality} feature lengths differ across objects: {by_length}")
    return [
        FeatureVector(object_id=obj, index=(),
                      values=np.concatenate([hmap[obj].values, vmap[obj].values]))
        for obj in sorted(hmap)
    ]


def fuse_and_train(haptic, visual, labels, schedule: TrainSchedule) -> TrainResult:
    """Train the late-fusion classifier: hinge loss over concatenated features.

    Upstream features are immutable inputs; only the single affine
    classification layer is learned.  That layer is the whole model, so
    ``train`` runs the hinge phase alone, for ``schedule.finetune_epochs``.
    """
    fused = fuse_features(haptic, visual)
    if not fused:
        raise InvalidInputError("no objects to fuse")
    missing = [f.object_id for f in fused if f.object_id not in labels]
    if missing:
        raise InvalidInputError(f"no labels for objects: {missing}")
    x = np.stack([f.values for f in fused])
    y = np.asarray([labels[f.object_id] for f in fused], dtype=np.float64)
    model = build_linear_classifier(x.shape[1], seed=schedule.seed)
    return train(model, x, y, schedule)
