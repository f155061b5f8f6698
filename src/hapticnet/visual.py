"""Visual branch: the pooled-feature head over external trunk activations.

The pretrained image trunk is external, and a dataset provides its feature
maps.  This module applies the average-pool + L2-normalize head to each
view's map and concatenates the views of one object.
"""

from dataclasses import dataclass

import numpy as np

from .engine import avg_pool, l2_normalize
from .errors import InvalidInputError

N_VIEWS = 8


@dataclass
class VisualFeatureMap:
    """Ingested trunk activations for one view: H x W x C grid."""

    object_id: str
    view_index: int
    grid: np.ndarray

    def __post_init__(self):
        where = f"object {self.object_id} view {self.view_index}"
        if self.grid.ndim != 3 or min(self.grid.shape) < 1:
            raise InvalidInputError(f"{where}: feature map must be HxWxC, got {self.grid.shape}")
        if not np.all(np.isfinite(self.grid)):
            raise InvalidInputError(f"{where}: feature map contains non-finite values")


@dataclass
class VisualFeature:
    """Unit-norm pooled feature (or concatenation of per-view features)."""

    object_id: str
    vector: np.ndarray
    degenerate: bool = False
    view_index: int = None


def pool_normalize(featmap: VisualFeatureMap) -> VisualFeature:
    """Spatial average over HxW followed by L2 normalization."""
    pooled = avg_pool(featmap.grid)
    vec, degenerate = l2_normalize(pooled)
    return VisualFeature(
        object_id=featmap.object_id,
        vector=vec,
        degenerate=degenerate,
        view_index=featmap.view_index,
    )


def combine_views(features) -> VisualFeature:
    """Concatenate the 8 per-view features in view-index order."""
    by_index = {}
    for f in features:
        if f.view_index in by_index:
            raise InvalidInputError(f"duplicate view index {f.view_index}")
        by_index[f.view_index] = f
    missing = [v for v in range(N_VIEWS) if v not in by_index]
    if missing:
        raise InvalidInputError(f"missing views: {missing}")
    objects = {f.object_id for f in features}
    if len(objects) != 1:
        raise InvalidInputError(f"views belong to different objects: {sorted(objects)}")
    ordered = [by_index[v] for v in range(N_VIEWS)]
    lengths = {f.vector.shape[0] for f in ordered}
    if len(lengths) != 1:
        raise InvalidInputError(f"views have differing feature lengths: {sorted(lengths)}")
    return VisualFeature(
        object_id=ordered[0].object_id,
        vector=np.concatenate([f.vector for f in ordered]),
        degenerate=any(f.degenerate for f in ordered),
        view_index=None,
    )
