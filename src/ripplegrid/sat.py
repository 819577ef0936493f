"""2D prefix sums and clipped window sums, with their exact adjoints.

Every array here is border-less, of one (H, W, ...) field's shape, f64.
The module is two adjoint pairs:

- prefix_sum builds the table in place: acc[i, j] becomes the sum of
  acc[:i+1, :j+1], one row at a time (each row plus the row above) and then
  one column at a time (each column plus the column to its left). Its
  transpose, suffix_sum, sums toward the far corner in the same two loops.
- window_sum reads the sums over the square window of radius r around
  every position, clipped to the grid, from a table in O(1) work per
  position: the clipped difference of table rows, then of the result's
  columns. Along an axis of length n, the clipped edges min(i + r, n - 1)
  and i - r - 1 (before the grid when negative) split the positions into
  at most three runs (clamped low, interior, clamped high), and in each
  run an edge is either a contiguous slice of the table or one fixed index
  that broadcasts, so both passes are whole-slice subtractions on views;
  where the low edge falls before the grid, the run is a copy. Its
  transpose, scatter_window, walks the same runs: a position's value goes
  to its hi edge and, negated, to its lo edge (a clamped hi edge collects
  its whole run; an edge before the grid drops its share).

The far corner table[-1, -1] is the field's total. Since a window is
W_r(F) = Diff_r(Prefix(F)), a sum of transposed windows over several radii
is sum_r W_r^T(Y_r) = Prefix^T(sum_r Diff_r^T(Y_r)): one scatter per radius
into a shared accumulator and one suffix sum, with no table built.

The module keeps a running count of window evaluations, transposed ones
included, so tests can assert the sub-quadratic access pattern of the
dynamic-programming attention paths. A fetch is one position of one window
in one pass, so callers pass counted=False for a pass's later channel
blocks.
"""
from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache

import numpy as np

_fetch_count = 0
_row_shift = 0  # test-only fault injection, see sabotage_radius_offset()


def reset_fetch_count() -> None:
    global _fetch_count
    _fetch_count = 0


def fetch_count() -> int:
    return _fetch_count


@contextmanager
def sabotage_radius_offset(offset: int = 1):
    """Fault injection for harness self-tests: prefix_sum inside the context
    shifts its table down by ``offset`` rows (zeros enter at the top), so
    the windows and the total read from it are both wrong. window_sum,
    scatter_window and suffix_sum read no fault state; tables built outside
    the context stay clean."""
    global _row_shift
    _row_shift = offset
    try:
        yield
    finally:
        _row_shift = 0


@lru_cache(maxsize=256)
def _axis_runs(n: int, radius: int) -> tuple:
    """Clipped window edges along one axis of length n, as slices.

    Returns (dst, hi, lo) runs covering positions 0..n-1 in order: hi holds
    min(i + r, n - 1) and lo holds i - r - 1, with lo None where that edge
    falls before the grid. A clamped hi edge is a length-1 slice.
    """
    low_end = min(radius + 1, n)        # positions below it have no lo edge
    high_start = max(n - 1 - radius, 0)  # positions from it on have hi clamped to n - 1
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


def prefix_sum(acc: np.ndarray) -> np.ndarray:
    """The table build, in place: acc[i, j] becomes the sum of
    acc[:i+1, :j+1], taken one row and then one column at a time. ``acc``
    must be float64, so the sums accumulate in double precision whatever
    the field was computed in. Returns acc."""
    if acc.ndim < 2:
        raise ValueError("field must be at least 2-dimensional (H, W, ...)")
    if acc.dtype != np.float64:
        raise ValueError(f"prefix_sum accumulates in place in float64, got {acc.dtype}")
    h, w = acc.shape[:2]
    for i in range(1, h):
        np.add(acc[i - 1], acc[i], out=acc[i])
    for j in range(1, w):
        np.add(acc[:, j - 1], acc[:, j], out=acc[:, j])
    if _row_shift:
        acc[:] = np.roll(acc, _row_shift, axis=0)
        acc[:_row_shift] = 0.0
    return acc


def _check_buffers(radius: int, field: np.ndarray, out: np.ndarray, rows: np.ndarray) -> None:
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if field.ndim < 2 or out.shape != field.shape or rows.shape != field.shape:
        raise ValueError("field, out and rows must share one (H, W, ...) shape")


def window_sum(table: np.ndarray, radius: int, out: np.ndarray, rows: np.ndarray,
               counted: bool = True) -> np.ndarray:
    """Sums over the (2r+1)-square around every grid position at once, each
    clipped to the grid, from a prefix_sum table; written into ``out`` (the
    table's shape) and returned. ``rows`` is scratch of the same shape.
    Counts one fetch per position when ``counted``."""
    global _fetch_count
    _check_buffers(radius, table, out, rows)
    h, w = table.shape[:2]
    if counted:
        _fetch_count += h * w
    for dst, hi, lo in _axis_runs(h, radius):
        if lo is None:
            np.copyto(rows[dst], table[hi])
        else:
            np.subtract(table[hi], table[lo], out=rows[dst])
    for dst, hi, lo in _axis_runs(w, radius):
        if lo is None:
            np.copyto(out[:, dst], rows[:, hi])
        else:
            np.subtract(rows[:, hi], rows[:, lo], out=out[:, dst])
    return out


def _axis_scatter(src: np.ndarray, dst: np.ndarray, axis: int, radius: int,
                  overwrite: bool) -> None:
    """Add to ``dst`` the transpose of one axis of a radius-r window
    difference of ``src``: each position goes to its hi edge and, negated,
    to its lo edge. With ``overwrite`` dst is written in full instead: the
    edges below ``radius`` that no hi edge reaches are zeroed, and every hi
    edge is written before a lo edge lands on it (a lo edge lies r + 1
    positions before its run's position, a hi edge r after it)."""
    n = src.shape[axis]
    lead = (slice(None),) * axis
    if overwrite:
        dst[lead + (slice(0, min(radius, n - 1)),)] = 0.0
    fresh_last = overwrite
    for run, hi, lo in _axis_runs(n, radius):
        part, edge = src[lead + (run,)], dst[lead + (hi,)]
        if hi.stop == n:    # the clamped hi edge collects its whole run
            if fresh_last:
                np.sum(part, axis=axis, keepdims=True, out=edge)
            else:
                edge += part.sum(axis=axis, keepdims=True)
            fresh_last = False
        elif overwrite:
            np.copyto(edge, part)
        else:
            edge += part
        if lo is not None:
            low = dst[lead + (lo,)]
            np.subtract(low, part, out=low)


def scatter_window(field: np.ndarray, radius: int, out: np.ndarray, rows: np.ndarray,
                   overwrite: bool = False, counted: bool = True) -> np.ndarray:
    """The transpose of window_sum's table differences: adds to ``out`` (the
    field's shape) the table cotangent of a radius-r window whose cotangent
    is ``field``; suffix_sum of the result is the transposed window.
    ``rows`` is scratch of the field's shape. With ``overwrite`` out is
    written instead, so it needs no zero fill. Counts one fetch per position
    when ``counted``, as a window does."""
    global _fetch_count
    _check_buffers(radius, field, out, rows)
    if counted:
        _fetch_count += field.shape[0] * field.shape[1]
    _axis_scatter(field, rows, 1, radius, overwrite=True)
    _axis_scatter(rows, out, 0, radius, overwrite)
    return out


def suffix_sum(acc: np.ndarray) -> np.ndarray:
    """The transpose of prefix_sum, in place: acc[i, j] becomes the sum of
    acc[i:, j:], taken one row and then one column at a time as prefix_sum
    takes its sums. Returns acc."""
    h, w = acc.shape[:2]
    for i in range(h - 2, -1, -1):
        np.add(acc[i], acc[i + 1], out=acc[i])
    for j in range(w - 2, -1, -1):
        np.add(acc[:, j], acc[:, j + 1], out=acc[:, j])
    return acc
