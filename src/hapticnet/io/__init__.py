"""File formats, manifests, and checkpoint serialization."""

from .formats import (
    Checkpoint,
    checkpoint_from_model,
    load_checkpoint,
    model_from_checkpoint,
    read_container,
    read_feature_maps,
    read_labels_csv,
    read_trial_file,
    save_checkpoint,
    write_container,
    write_feature_maps,
    write_labels_csv,
    write_trial_file,
    CHECKPOINT_MAGIC,
    FEATUREMAP_MAGIC,
)
from .manifest import DatasetManifest, Finding, load_manifest, save_manifest, validate

__all__ = [
    "Checkpoint",
    "CHECKPOINT_MAGIC",
    "DatasetManifest",
    "FEATUREMAP_MAGIC",
    "Finding",
    "checkpoint_from_model",
    "load_checkpoint",
    "load_manifest",
    "model_from_checkpoint",
    "read_container",
    "read_feature_maps",
    "read_labels_csv",
    "read_trial_file",
    "save_checkpoint",
    "save_manifest",
    "validate",
    "write_container",
    "write_feature_maps",
    "write_labels_csv",
    "write_trial_file",
]
