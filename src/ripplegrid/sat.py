"""Zero-padded 2D prefix sums with constant-time clipped window reductions.

A table built over an (H, W, ...) field answers "sum of the field over the
square window of radius r around every position, clipped to the grid" in
O(1) work per position. Accumulation is always float64, even when the field
is float32, so cancellation error stays at the double rounding level.

The table is built one row at a time (each row is the row above plus one
field row) and then one column at a time (each column is the column to its
left plus itself), which adds in the same order as two cumulative sums.

A window is separable: the clipped difference of table rows, then the
clipped difference of the result's columns. Along an axis of length n, the
clipped edges min(i + 1 + r, n) and max(i - r, 0) split the positions into
at most three runs (clamped low, interior, clamped high), and in each run
an edge is either a contiguous slice of the table or one fixed index that
broadcasts. Both passes are therefore whole-slice subtractions on views; a
clamped low edge is the zero row or column, so that run is a copy.

The module keeps a running count of window evaluations so tests can assert
the sub-quadratic access pattern of the dynamic-programming attention paths.
A fetch is one position of one window in one pass, so tables of a pass's
later channel blocks are marked uncounted.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from functools import lru_cache

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
    """Fault injection for harness self-tests: tables built or rebuilt inside
    the context are shifted down by ``offset`` rows, so their windows and
    totals are both wrong. Lookups read no fault state; tables built outside
    stay clean."""
    global _row_shift
    _row_shift = offset
    try:
        yield
    finally:
        _row_shift = 0


@lru_cache(maxsize=256)
def _axis_runs(n: int, radius: int) -> tuple:
    """Clipped window edges along one axis of length n, as slices.

    Returns (dst, hi, lo) runs covering positions 0..n-1 in order. Indices
    are into the table without its zero row and column (table index minus
    one): hi holds min(i + 1 + r, n) - 1 and lo holds max(i - r, 0) - 1, with
    lo None where the edge is the zero row or column. A clamped hi edge is a
    length-1 slice.
    """
    low_end = min(radius + 1, n)        # positions below it have lo clamped to 0
    high_start = max(n - 1 - radius, 0)  # positions from it on have hi clamped to n
    cuts = sorted({0, low_end, high_start, n})
    runs = []
    for start, stop in zip(cuts[:-1], cuts[1:]):
        if start >= high_start:
            hi = slice(n - 1, n)
        else:
            hi = slice(start + radius, stop + radius)
        lo = None if stop <= low_end else slice(start - radius - 1, stop - radius - 1)
        runs.append((slice(start, stop), hi, lo))
    return tuple(runs)


class SummedAreaTable:
    """table[i, j] = field[:i, :j].sum(axis=(0,1)); row 0 and column 0 are zero."""

    counted = True   # whether windows add to the fetch count

    def __init__(self, field: np.ndarray):
        self._field_shape, self._stores = None, (np.empty(0), np.empty(0))
        self.rebuild(field)

    def rebuild(self, field: np.ndarray) -> SummedAreaTable:
        """Refill the table in place from a field of any shape, and return it.
        The table and window rows view flat storage grown to the largest field
        seen; the zero row and column are rewritten when the shape changes."""
        if field.ndim < 2:
            raise ValueError("field must be at least 2-dimensional (H, W, ...)")
        h, w = field.shape[:2]
        if field.shape != self._field_shape:
            self._field_shape, self.shape = field.shape, GridShape(h, w)
            self.channels = field.shape[2:]
            shapes = ((h + 1, w + 1) + self.channels, field.shape)
            self._stores = tuple(s if s.size >= math.prod(f) else np.empty(math.prod(f))
                                 for s, f in zip(self._stores, shapes))
            self.table, self._rows = (s[:math.prod(f)].reshape(f)
                                      for s, f in zip(self._stores, shapes))
            self.table[0] = 0.0
            self.table[:, 0] = 0.0
        table = self.table
        for i in range(h):
            np.add(table[i, 1:], field[i], out=table[i + 1, 1:])
        for j in range(1, w):
            np.add(table[1:, j], table[1:, j + 1], out=table[1:, j + 1])
        if _row_shift:
            table[:] = np.roll(table, _row_shift, axis=0)
            table[:_row_shift] = 0.0
        return self

    def total(self) -> np.ndarray:
        """Sum of the whole field (the far corner of the table)."""
        return self.table[self.shape.height, self.shape.width]

    def window_sum_grid(self, radius: int, out: np.ndarray | None = None) -> np.ndarray:
        """Sums over the (2r+1)-square around every grid position at once,
        each clipped to the grid; shape (H, W) + channels.

        The result is written to ``out`` when given (a float64 array of that
        shape, which a caller can reuse across radii) and returned."""
        global _fetch_count
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        h, w = self.shape.height, self.shape.width
        full = (h, w) + self.channels
        if out is None:
            out = np.empty(full)
        elif out.shape != full:
            raise ValueError(f"out must have shape {full}, got {out.shape}")
        if self.counted:
            _fetch_count += h * w
        prefix = self.table[1:, 1:]
        rows = self._rows
        for dst, hi, lo in _axis_runs(h, radius):
            if lo is None:
                np.copyto(rows[dst], prefix[hi])
            else:
                np.subtract(prefix[hi], prefix[lo], out=rows[dst])
        for dst, hi, lo in _axis_runs(w, radius):
            if lo is None:
                np.copyto(out[:, dst], rows[:, hi])
            else:
                np.subtract(rows[:, hi], rows[:, lo], out=out[:, dst])
        return out
