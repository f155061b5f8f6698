"""Visual branch: plate-crop geometry and the pooled-feature head.

The pretrained image trunk is external; this module owns the crop geometry
handed to it, the normalization constants it needs, and the average-pool +
L2-normalize head applied to the feature maps it produces.
"""

from dataclasses import dataclass

import numpy as np

from .engine import avg_pool, l2_normalize
from .errors import InvalidInputError, PlateNotFoundError

N_VIEWS = 8

# Per-channel RGB means subtracted before the external extractor, and its
# fixed input size.
DEFAULT_RGB_MEANS = (123.68, 116.78, 103.94)
EXTRACTOR_INPUT_SIZE = (224, 224)

# Default color band for the aluminum plate: near-neutral gray, moderately
# bright.  Inclusive per-channel bounds on 8-bit RGB.
DEFAULT_PLATE_BAND = ((140, 140, 140), (205, 205, 205))


@dataclass(frozen=True)
class PlateGeometry:
    """Detected circular plate: center (x, y) in pixels and radius."""

    center: tuple
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise InvalidInputError(f"plate radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class CropRect:
    """Axis-aligned crop, x0 <= x1 and y0 <= y1, plus a clamping flag."""

    x0: float
    y0: float
    x1: float
    y1: float
    clamped: bool = False

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0


@dataclass
class VisualFeatureMap:
    """Ingested trunk activations for one view: H x W x C grid."""

    object_id: str
    view_index: int
    grid: np.ndarray

    def __post_init__(self):
        if self.grid.ndim != 3 or min(self.grid.shape) < 1:
            raise InvalidInputError(f"feature map must be HxWxC, got {self.grid.shape}")
        if not np.all(np.isfinite(self.grid)):
            raise InvalidInputError("feature map contains non-finite values")


@dataclass
class VisualFeature:
    """Unit-norm pooled feature (or concatenation of per-view features)."""

    object_id: str
    vector: np.ndarray
    degenerate: bool = False
    view_index: int = None


def detect_plate(image: np.ndarray, band=DEFAULT_PLATE_BAND) -> PlateGeometry:
    """Find the plate by color: centroid of the in-band mask, area-based radius.

    The radius estimate sqrt(area/pi) underestimates the true radius when
    the plate is partially occluded by the object sitting on it.
    """
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[2] != 3:
        raise InvalidInputError(f"expected an HxWx3 image, got shape {img.shape}")
    lo, hi = band
    mask = np.ones(img.shape[:2], dtype=bool)
    for c in range(3):
        mask &= (img[:, :, c] >= lo[c]) & (img[:, :, c] <= hi[c])
    count = int(mask.sum())
    if count < 0.005 * mask.size:
        raise PlateNotFoundError(
            f"plate color mask covers {count} of {mask.size} pixels (< 0.5%)"
        )
    ys, xs = np.nonzero(mask)
    return PlateGeometry(
        center=(float(xs.mean()), float(ys.mean())),
        radius=float(np.sqrt(count / np.pi)),
    )


def crop_rect(geometry: PlateGeometry, image_extent) -> CropRect:
    """2R-wide, R-tall rectangle centered R above the plate center.

    ``image_extent`` is (width, height); the rectangle is clamped to the
    image bounds and the clamping recorded.
    """
    width, height = image_extent
    cx, cy = geometry.center
    r = geometry.radius
    x0, x1 = cx - r, cx + r
    y0, y1 = (cy - r) - r / 2.0, (cy - r) + r / 2.0
    cx0, cx1 = max(0.0, x0), min(float(width), x1)
    cy0, cy1 = max(0.0, y0), min(float(height), y1)
    clamped = (cx0, cy0, cx1, cy1) != (x0, y0, x1, y1)
    return CropRect(x0=cx0, y0=cy0, x1=cx1, y1=cy1, clamped=clamped)


def image_norm_params(rgb_means=DEFAULT_RGB_MEANS, size=EXTRACTOR_INPUT_SIZE) -> dict:
    """Normalization constants for the external feature extractor."""
    return {
        "rgb_means": tuple(float(m) for m in rgb_means),
        "input_size": (int(size[0]), int(size[1])),
    }


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
