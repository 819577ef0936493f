"""Zero-padded 2D prefix sums with constant-time window, ring, and band reductions.

A table built over an (H, W, ...) field answers "sum of the field over any
axis-aligned window clipped to the grid" with four lookups. Ring and band sums
are differences of two windows. Accumulation is always float64, even when the
field is float32, so cancellation error stays at the double rounding level.

The module keeps a running count of window evaluations so tests can assert
the sub-quadratic access pattern of the dynamic-programming attention paths.
"""
from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .vicinal import GridShape, Position

_fetch_count = 0
_row_shift = 0  # test-only fault injection, see sabotage_radius_offset()


def reset_fetch_count() -> None:
    global _fetch_count
    _fetch_count = 0


def fetch_count() -> int:
    return _fetch_count


@contextmanager
def sabotage_radius_offset(offset: int = 1):
    """Fault injection for harness self-tests: tables built inside the context
    are shifted down by ``offset`` rows, so their windows and totals are both
    wrong. Lookups read no fault state; tables built outside stay clean."""
    global _row_shift
    _row_shift = offset
    try:
        yield
    finally:
        _row_shift = 0


class SummedAreaTable:
    """table[i, j] = field[:i, :j].sum(axis=(0,1)); row 0 and column 0 are zero."""

    def __init__(self, field: np.ndarray):
        if field.ndim < 2:
            raise ValueError("field must be at least 2-dimensional (H, W, ...)")
        h, w = field.shape[:2]
        self.shape = GridShape(h, w)
        self.channels = field.shape[2:]
        table = np.zeros((h + 1, w + 1) + self.channels, dtype=np.float64)
        table[1:, 1:] = np.cumsum(np.cumsum(field, axis=0, dtype=np.float64), axis=1)
        if _row_shift:
            table = np.roll(table, _row_shift, axis=0)
            table[:_row_shift] = 0.0
        self.table = table

    def total(self) -> np.ndarray:
        """Sum of the whole field (the far corner of the table)."""
        return self.table[self.shape.height, self.shape.width]

    def window_sum(self, center: Position, radius: int) -> np.ndarray:
        """Sum over the (2r+1)-square around ``center``, clipped to the grid."""
        global _fetch_count
        if radius < 0:
            raise ValueError("radius must be >= 0")
        h, w = self.shape.height, self.shape.width
        i, j = center
        if not (1 <= i <= h and 1 <= j <= w):
            raise ValueError(f"center {center} outside {h}x{w} grid")
        _fetch_count += 1
        bot = min(i + radius, h)
        top = max(i - radius - 1, 0)
        right = min(j + radius, w)
        left = max(j - radius - 1, 0)
        t = self.table
        return t[bot, right] - t[top, right] - t[bot, left] + t[top, left]

    def ring_sum(self, center: Position, radius: int) -> np.ndarray:
        """Sum over cells at Chebyshev distance exactly ``radius`` from center."""
        if radius < 0:
            raise ValueError("radius must be >= 0")
        if radius == 0:
            return self.window_sum(center, 0)
        return self.window_sum(center, radius) - self.window_sum(center, radius - 1)

    def band_sum(self, center: Position, lo: int, hi: int) -> np.ndarray:
        """Sum over cells at Chebyshev distance in [lo, hi] from center."""
        if not 0 <= lo <= hi:
            raise ValueError(f"need 0 <= lo <= hi, got [{lo}, {hi}]")
        outer = self.window_sum(center, hi)
        if lo == 0:
            return outer
        return outer - self.window_sum(center, lo - 1)

    def window_sum_grid(self, radius) -> np.ndarray:
        """Clipped window sums for every grid position at once.

        ``radius`` is a scalar or an (H, W) integer array of per-position radii;
        negative entries produce an exact zero row (the empty window).
        """
        global _fetch_count
        h, w = self.shape.height, self.shape.width
        radius = np.asarray(radius, dtype=np.int64)
        _fetch_count += h * w
        rows = np.arange(1, h + 1, dtype=np.int64).reshape(h, 1)
        cols = np.arange(1, w + 1, dtype=np.int64).reshape(1, w)
        rr = np.broadcast_to(radius, (h, w))
        bot = np.clip(rows + rr, 0, h)
        top = np.clip(rows - rr - 1, 0, h)
        right = np.clip(cols + rr, 0, w)
        left = np.clip(cols - rr - 1, 0, w)
        t = self.table
        out = t[bot, right] - t[top, right] - t[bot, left] + t[top, left]
        if np.any(rr < 0):
            mask = (rr >= 0).reshape((h, w) + (1,) * len(self.channels))
            out = np.where(mask, out, 0.0)
        return out

