"""Boundary handling for fields on a regular latitude-longitude grid.

A global grid is periodic in longitude but not in latitude: walking off
a pole continues on the far side of the planet, half a revolution away
in longitude.  The geocyclic table encodes exactly that.  Padding is a
pure gather, so one int table per (H, W, p, mode) fully describes it
and the table doubles as the contract the tests check against.

Conventions: row 0 is the northernmost latitude band, rows increase
southward; column j holds longitude 360*j/W degrees east; position
(i, j) of the padded plane maps to interior coordinates r = i - p,
c = j - p.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from karina import engine


class PaddingError(Exception):
    """Invalid grid or padding request."""


class PaddingMode(enum.Enum):
    ZERO = "zero"
    CIRCULAR_ZERO_POLE = "circular_zero_pole"
    GEOCYCLIC = "geocyclic"

    @classmethod
    def parse(cls, text):
        for m in cls:
            if m.value == str(text):
                return m
        options = ", ".join(m.value for m in cls)
        raise PaddingError(f"unknown padding mode {text!r}, expected one of: {options}")


@dataclass(frozen=True)
class GridSpec:
    """Pole-free offset grid from from_shape, whose formulas keep its
    invariants: cell centers straddle the equator, none sit on a pole."""

    n_lat: int
    n_lon: int
    lat_centers: np.ndarray = field(repr=False)
    lon_centers: np.ndarray = field(repr=False)
    row_weights: np.ndarray = field(repr=False)

    @classmethod
    def from_shape(cls, n_lat, n_lon):
        if n_lat < 1:
            raise PaddingError(f"n_lat must be positive, got {n_lat}")
        if n_lon < 2 or n_lon % 2:
            raise PaddingError(f"n_lon must be even and at least 2, got {n_lon}")
        j = np.arange(n_lat, dtype=np.float64)
        lat = 90.0 - 180.0 * (j + 0.5) / n_lat
        lon = np.arange(n_lon, dtype=np.float64) * (360.0 / n_lon)
        cw = np.cos(np.deg2rad(lat))
        weights = cw / cw.mean()
        weights.setflags(write=False)
        return cls(int(n_lat), int(n_lon), lat, lon, weights)


def _build_table(h, w, p, mode):
    """Flat source index per padded cell, -1 for zero fill.

    Pole reflection: pad line k of the north edge (k = 1 at the first
    line above the grid) re-reads interior row k - 1 shifted by half a
    revolution; the south edge mirrors that with row h - k.  Longitude
    wraps everywhere, so the corner blocks follow from the same rule.
    """
    r = np.arange(h + 2 * p, dtype=np.int64)[:, None] - p
    j = np.arange(w + 2 * p, dtype=np.int64)
    pole = (r < 0) | (r >= h)
    if mode is PaddingMode.GEOCYCLIC:
        r = np.where(r < 0, -r - 1, np.where(r >= h, 2 * h - 1 - r, r))
        shift = np.where(pole, w // 2, 0)
        keep = True
    else:
        shift = 0
        keep = ~pole if mode is PaddingMode.CIRCULAR_ZERO_POLE else ~pole & (j >= p) & (j < p + w)
    return np.where(keep, r * w + (j - p + shift) % w, -1)


_TABLE_CACHE = {}


def index_map(p, shape, mode):
    """Gather table for padding an (H, W) = shape field by p cells on each
    side in a PaddingMode.  Entries hold the flat interior index feeding
    each padded cell, -1 where zeros go.  Tables are cached and read-only.
    """
    h, w = int(shape[0]), int(shape[1])
    p = int(p)
    if p < 1:
        raise PaddingError(f"pad width must be at least 1, got {p}")
    if h < 1 or w < 1:
        raise PaddingError(f"grid extents must be positive, got ({h}, {w})")
    if mode is PaddingMode.GEOCYCLIC:
        if w % 2:
            raise PaddingError(f"geocyclic padding needs an even longitude count, got {w}")
        if p > h:
            raise PaddingError(f"pad width {p} exceeds latitude extent {h}")
    key = (h, w, p, mode)
    if key not in _TABLE_CACHE:
        table = _build_table(h, w, p, mode)
        table.setflags(write=False)
        _TABLE_CACHE[key] = table
    return _TABLE_CACHE[key]


def pad(x, p, mode):
    """Pad the trailing (H, W) planes of a tensor by p cells per side."""
    return engine.pad2d(x, index_map(p, x.data.shape[-2:], mode))


def pad_geocyclic(x, p):
    """Pad with longitude wrap and antipodal pole reflection."""
    return pad(x, p, PaddingMode.GEOCYCLIC)
