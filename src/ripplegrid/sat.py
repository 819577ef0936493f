"""Zero-padded 2D prefix sums with constant-time clipped window reductions.

A table built over an (H, W, ...) field answers "sum of the field over the
square window of radius r around every position, clipped to the grid" with
four lookups per position. Accumulation is always float64, even when the
field is float32, so cancellation error stays at the double rounding level.

The module keeps a running count of window evaluations so tests can assert
the sub-quadratic access pattern of the dynamic-programming attention paths.
"""
from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .vicinal import GridShape

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

    def window_sum_grid(self, radius: int) -> np.ndarray:
        """Sums over the (2r+1)-square around every grid position at once,
        each clipped to the grid; shape (H, W) + channels."""
        global _fetch_count
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        h, w = self.shape.height, self.shape.width
        _fetch_count += h * w
        rows = np.arange(1, h + 1, dtype=np.int64).reshape(h, 1)
        cols = np.arange(1, w + 1, dtype=np.int64).reshape(1, w)
        bot = np.minimum(rows + radius, h)
        top = np.maximum(rows - radius - 1, 0)
        right = np.minimum(cols + radius, w)
        left = np.maximum(cols - radius - 1, 0)
        t = self.table
        return t[bot, right] - t[top, right] - t[bot, left] + t[top, left]
