"""Scalp topography: disc interpolation, angle similarity, raster export.

Per-electrode scalars are spread over an N x N grid covering the unit disc
by inverse-distance-squared weighting, which is exact at electrode sites
and never leaves the value range of its inputs. The weights depend only on
the electrode positions and the resolution, so they are built once per
montage and resolution (the last pair is kept) and each map is one
matrix-vector product; the maps are bit-identical to building them per
call. Cells outside the disc carry NaN and stay out of every statistic.
Rasters are written as binary PPM over a diverging blue-to-red palette,
byte-deterministic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import Montage
from .errors import DegenerateRange, InvalidConfig, LengthMismatch, ZeroVector
from .floattext import join_rows

_NODE_SNAP = 1e-9

# Diverging palette stops at t = 0, .25, .5, .75, 1.
_BLUE_RED = np.array(
    [
        [0, 0, 255],
        [0, 255, 255],
        [0, 255, 0],
        [255, 255, 0],
        [255, 0, 0],
    ],
    dtype=np.float64,
)


@dataclass(frozen=True)
class TopoVector:
    """Per-electrode scalars (band power, ratio, ...), montage order."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise LengthMismatch(f"values must be a non-empty 1-D array, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise LengthMismatch("values must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class TopoGrid:
    """Interpolated N x N field; NaN marks cells outside the disc."""

    resolution: int
    values: np.ndarray
    palette_range: tuple[float, float]

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64)
        if arr.shape != (self.resolution, self.resolution):
            raise InvalidConfig(
                f"grid shape {arr.shape} does not match resolution {self.resolution}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(
            self, "palette_range", (float(self.palette_range[0]), float(self.palette_range[1]))
        )

    @property
    def mask(self) -> np.ndarray:
        """True where a cell lies inside the disc."""
        return np.isfinite(self.values)


def grid_coordinates(resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell-center coordinates: x left to right, y top (+1, nose) down."""
    if resolution < 2:
        raise InvalidConfig(f"resolution must be >= 2, got {resolution}")
    x = np.linspace(-1.0, 1.0, resolution)
    y = np.linspace(1.0, -1.0, resolution)
    return np.meshgrid(x, y, indexing="xy")


@dataclass(frozen=True)
class _ScalpOperator:
    """Inverse-distance operator of one montage at one resolution.

    inside marks the disc cells; among them, snapped cells (hit) copy
    electrode site[k], and the others take (w @ v) / s.
    """

    inside: np.ndarray
    hit: np.ndarray
    site: np.ndarray
    w: np.ndarray
    s: np.ndarray


@functools.lru_cache(maxsize=1)
def _scalp_operator(positions: bytes, resolution: int) -> _ScalpOperator:
    pos = np.frombuffer(positions, dtype=np.float64).reshape(-1, 2)
    gx, gy = grid_coordinates(resolution)
    inside = gx * gx + gy * gy <= 1.0 + 1e-12
    # Squared cell-electrode distances as dx^2 + dy^2: the same sums as
    # reducing over the coordinate axis, without a (cells, sites, 2) temporary.
    d2 = (gx[inside][:, None] - pos[:, 0]) ** 2 + (gy[inside][:, None] - pos[:, 1]) ** 2
    near = d2 < _NODE_SNAP**2
    hit = near.any(axis=1)
    with np.errstate(divide="ignore"):
        w = 1.0 / d2[~hit]
    op = _ScalpOperator(
        inside=inside, hit=hit, site=np.argmax(near[hit], axis=1), w=w, s=w.sum(axis=1)
    )
    for arr in vars(op).values():
        arr.flags.writeable = False
    return op


def interpolate_scalp(vector: TopoVector, montage: Montage, resolution: int = 64) -> TopoGrid:
    """Inverse-distance-squared interpolation over the unit disc.

    A cell within snapping distance of an electrode takes that electrode's
    value exactly. palette_range records the vector's own span, padded by
    half a unit when the vector is constant so rendering stays defined.
    The weights are built once per montage and resolution; each map is one
    matrix-vector product.
    """
    pos = montage.positions()
    if len(vector) != len(pos):
        raise LengthMismatch(
            f"{len(vector)} values for {len(pos)} EEG electrodes in {montage.name!r}"
        )
    op = _scalp_operator(pos.tobytes(), resolution)
    vals = np.empty(op.hit.size)
    vals[op.hit] = vector.values[op.site]
    vals[~op.hit] = (op.w @ vector.values) / op.s
    grid = np.full(op.inside.shape, np.nan)
    grid[op.inside] = vals
    vmin = float(vector.values.min())
    vmax = float(vector.values.max())
    if vmin == vmax:
        vmin, vmax = vmin - 0.5, vmax + 0.5
    return TopoGrid(resolution=resolution, values=grid, palette_range=(vmin, vmax))


def topo_similarity(a: TopoVector, b: TopoVector) -> float:
    """Cosine of the angle between two topography vectors, in [-1, 1]."""
    if len(a) != len(b):
        raise LengthMismatch(f"vector lengths differ: {len(a)} vs {len(b)}")
    na = float(np.linalg.norm(a.values))
    nb = float(np.linalg.norm(b.values))
    if na == 0.0 or nb == 0.0:
        raise ZeroVector("similarity undefined for a zero vector")
    cos = float(np.dot(a.values, b.values) / (na * nb))
    return min(1.0, max(-1.0, cos))


def render_topomap(grid: TopoGrid) -> bytes:
    """P6 PPM of the grid over the diverging palette; masked cells are white.

    Values are normalized by palette_range and clipped.
    """
    vmin, vmax = grid.palette_range
    if not vmin < vmax:
        raise DegenerateRange(f"palette range [{vmin}, {vmax}] is empty")
    n = grid.resolution
    mask = grid.mask
    t = np.zeros(grid.values.shape)
    t[mask] = np.clip((grid.values[mask] - vmin) / (vmax - vmin), 0.0, 1.0)
    seg = t * (len(_BLUE_RED) - 1)
    idx = np.minimum(seg.astype(np.int64), len(_BLUE_RED) - 2)
    frac = seg - idx
    rgb = np.empty((n, n, 3), dtype=np.uint8)
    for ch in range(3):
        palette = _BLUE_RED[:, ch]
        rgb[..., ch] = np.rint(palette.take(idx) * (1.0 - frac) + palette.take(idx + 1) * frac)
    rgb[~mask] = 255
    return b"P6\n%d %d\n255\n" % (n, n) + rgb.tobytes()


def grid_to_csv(grid: TopoGrid) -> bytes:
    """Row-major ASCII CSV of the grid, each value as repr writes it;
    masked cells are empty fields."""
    return join_rows(grid.values, blank=~grid.mask)


def similarity_matrix(vectors: list[TopoVector]) -> np.ndarray:
    """Pairwise cosine similarity; diagonal is exactly 1."""
    m = len(vectors)
    out = np.eye(m)
    for i in range(m):
        for j in range(i + 1, m):
            out[i, j] = out[j, i] = topo_similarity(vectors[i], vectors[j])
    return out
