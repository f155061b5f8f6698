"""File formats, manifests, and checkpoint serialization."""

from .formats import (
    load_model,
    read_container,
    read_feature_maps,
    read_labels_csv,
    read_trial_file,
    save_model,
    write_container,
    write_feature_maps,
    write_labels_csv,
    write_trial_file,
    CHECKPOINT_MAGIC,
    FEATUREMAP_MAGIC,
    TRIAL_MAGIC,
)
from .manifest import DatasetManifest, Finding, load_manifest, save_manifest, validate

__all__ = [
    "CHECKPOINT_MAGIC",
    "DatasetManifest",
    "FEATUREMAP_MAGIC",
    "Finding",
    "load_manifest",
    "load_model",
    "read_container",
    "read_feature_maps",
    "read_labels_csv",
    "read_trial_file",
    "save_manifest",
    "save_model",
    "TRIAL_MAGIC",
    "validate",
    "write_container",
    "write_feature_maps",
    "write_labels_csv",
    "write_trial_file",
]
