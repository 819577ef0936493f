"""2D prefix sums and the window sums read from them, with their exact adjoints.

Every array here is f64 with the grid on its first two axes.

- prefix_sum builds the table in place: acc[i, j] becomes the sum of
  acc[:i+1, :j+1], one column and then one row at a time. It can also
  continue a table: given a finished table row as a carry, it turns the
  field rows below it into the table rows that follow.
- table_rows continues a table the same way for a field keys (x) values
  that it never writes out: per block of COLUMN_BLOCK columns, one matmul
  of tril (.) keys against the values writes the block's column prefix.
- window_rows reads the square windows of radius r around every position
  of a strip, clipped to the grid, from two row views of a padded table:
  table entries before the grid are zero rows and columns, and entries
  past its last row or column repeat that row or column, so the clipped
  edges min(i + r, n - 1) and i - r - 1 are plain shifted slices. On each
  row a window's near and far corners sit d = 2r + 1 columns apart, and
  window_corners slices the four corner views out of the two rows: a
  window is hi-hi + lo-lo - hi-lo - lo-hi. Callers contract the views
  directly and never write a window out. The padded table may be a band
  of rows: the table rows one strip of grid rows reads.

The same views give the transpose in the suffix layout, where a window is
the same corner sum of the suffix table S[i, j] = sum of F[i:, j:] padded
with copies of its first row and column before the grid and zeros after
it: grid row i sits at padded row i + ph. Since W_r = Diff'_r(Suffix(F)),
its transpose is Prefix(Diff'_r^T(Y)): add a window's cotangent into the
hi-hi and lo-lo views of an accumulator padded as the table is, subtract
it from the others, and run prefix_sum from the first padded row and
column. That folds the shares before the grid onto it, the transpose of
repeating its edge; shares past it are never read. Transposed windows of
several radii share one accumulator and one prefix sum, which can run in
row chunks on a carry, since row p depends only on rows up to p.

The module keeps a running count of window evaluations, transposed ones
included, so tests can assert the sub-quadratic access pattern of the
dynamic-programming attention paths. A fetch is one position of one window
in one pass, so callers pass counted=False for a pass's later channel
blocks.
"""
from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

COLUMN_BLOCK = 8     # grid columns per masked matmul in table_rows

_fetch_count = 0
_row_shift = 0  # test-only fault injection, see sabotage_radius_offset()


def reset_fetch_count() -> None:
    global _fetch_count
    _fetch_count = 0


def fetch_count() -> int:
    return _fetch_count


@contextmanager
def sabotage_radius_offset(offset: int = 1):
    """Fault injection for harness self-tests: prefix_sum and table_rows
    inside the context shift the table rows they build down by ``offset``
    rows (zeros enter at the top), so the windows and the total read from
    them are both wrong. window_rows reads no fault state; tables built
    outside the context stay clean."""
    global _row_shift
    _row_shift = offset
    try:
        yield
    finally:
        _row_shift = 0


def prefix_sum(acc: np.ndarray, carry: bool = False) -> np.ndarray:
    """The table build, in place: acc[i, j] becomes the sum of
    acc[:i+1, :j+1], taken one column and then one row at a time. With
    ``carry``, acc[0] is a finished table row and is left as it is: the
    field rows below it become the table rows that continue it.
    ``acc`` must be float64, so the sums accumulate in double precision
    whatever the field was computed in. Returns acc."""
    if acc.ndim < 2:
        raise ValueError("field must be at least 2-dimensional (H, W, ...)")
    if acc.dtype != np.float64:
        raise ValueError(f"prefix_sum accumulates in place in float64, got {acc.dtype}")
    built = acc[1:] if carry else acc
    for j in range(1, acc.shape[1]):
        np.add(built[:, j - 1], built[:, j], out=built[:, j])
    return _rows_down(acc, built)


def table_rows(acc: np.ndarray, keys: np.ndarray, values: np.ndarray,
               mask: np.ndarray) -> np.ndarray:
    """Continue a table by the outer products of ``keys`` (n, W, ..., D)
    and ``values`` (n, W, ..., C), in place: acc (n + 1, W, ..., D, C)
    holds a finished table row in acc[0], and acc[1 + i, j] becomes
    acc[i, j] plus the sum over j' <= j of keys[i, j'] (x) values[i, j'].

    Per block of k columns, the buffer ``mask`` (n, ..., D, k * k) takes
    tril (.) keys, itself the keys' matmul with a 0/1 spread, and its
    matmul with the values writes the block's column prefix into acc; the
    block before's last column and the row above are then added. No field
    is written out and no column is copied. Returns acc."""
    rows, k, lanes = acc[1:], math.isqrt(mask.shape[-1]), mask.size // mask.shape[-1]
    inner = tuple(range(2, keys.ndim))      # the column axis moves past ..., D
    keys = keys.transpose((0,) + inner + (1,))
    values = values.transpose((0,) + inner[:-1] + (1, -1))[..., None, :, :]
    table = rows.transpose((0,) + inner + (1, -1))     # (n, ..., D, W, C)
    for lo in range(0, acc.shape[1], k):
        cols = slice(lo, min(lo + k, acc.shape[1]))
        width = cols.stop - lo
        masked = mask.reshape(-1)[:lanes * width * width].reshape(mask.shape[:-1] + (-1,))
        # spread[j', (j, j'')] is 1 where j'' == j' <= j
        spread = (np.eye(width)[:, None] * np.tri(width)).reshape(width, -1)
        np.matmul(keys[..., cols], spread, out=masked)
        np.matmul(masked.reshape(mask.shape[:-1] + (width, width)), values[..., cols, :],
                  out=table[..., cols, :])
        if lo:
            np.add(table[..., cols, :], table[..., lo - 1, None, :], out=table[..., cols, :])
    return _rows_down(acc, rows)


def _rows_down(acc: np.ndarray, built: np.ndarray) -> np.ndarray:
    """Adds each row of acc into the one below, top down, then applies the
    fault injection to the ``built`` rows."""
    for i in range(1, acc.shape[0]):
        np.add(acc[i - 1], acc[i], out=acc[i])
    if _row_shift:
        built[:] = np.roll(built, _row_shift, axis=0)
        built[:_row_shift] = 0.0
    return acc


def window_rows(band: np.ndarray, radius: int, pads: tuple, counted: bool = True):
    """The radius-r windows around every position of a strip, as the two
    band rows each reads, ((hi, lo), d): views of band columns [pw - rw,
    pw + rw + 1 + W), where a window's near corner is column j and its far
    corner column j + d, d = 2 rw + 1.

    With ``pads`` (ph, pw), the band holds the padded table rows that a
    strip of band.shape[0] - 2 ph - 1 grid rows reads: ph + 1 rows and
    pw + 1 columns of zeros stand for the table before the grid, ph rows
    and pw columns repeat its last row and column, and the grid's W =
    band.shape[1] - 2 pw - 1 columns lie between. ``radius`` may not exceed
    the radius the band was padded for, except that a pad smaller than it
    reaches across the whole grid axis and clips it (to rh, rw). Counts
    one fetch per strip position when ``counted``."""
    global _fetch_count
    ph, pw = pads
    h, w = band.shape[0] - 2 * ph - 1, band.shape[1] - 2 * pw - 1
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if min(ph, pw) < 0 or h < 1 or w < 1:
        raise ValueError(f"a {band.shape[:2]} band cannot hold pads {pads} around a strip")
    if counted:
        _fetch_count += h * w
    rh, rw = min(radius, ph), min(radius, pw)
    cols = slice(pw - rw, pw + rw + 1 + w)
    return (band[ph + 1 + rh:ph + 1 + rh + h, cols], band[ph - rh:ph - rh + h, cols]), 2 * rw + 1


def window_corners(band: np.ndarray, radius: int, pads: tuple, counted: bool = True):
    """The windows of window_rows as corner views of the band: ((hi-hi,
    lo-lo), (hi-lo, lo-hi)), so that each window sum is the first pair's
    sum minus the second's (adding into the first pair and subtracting
    from the second transposes it)."""
    (hi, lo), d = window_rows(band, radius, pads, counted)
    w = hi.shape[1] - d
    return (hi[:, d:], lo[:, :w]), (hi[:, :w], lo[:, d:])
