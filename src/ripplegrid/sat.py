"""2D prefix sums, the padded band of table rows both attention passes
stream, and the window reads of that band with their exact adjoints.

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
  row a window's corners sit at columns j and j + d, d = 2r + 1, so that
  it is hi[j + d] - hi[j] - lo[j + d] + lo[j].

The band. No pass holds the table of its (H, W, heads, Dp, C + 1) field
phi_k (x) [v, 1] whole: table_bands streams it over strips of grid rows
and blocks of channels, as band_plan sizes them within BLOCK_BYTES. With
pads (ph, pw), the widest radius clipped to each grid axis, the Band of
strip rows [a, b) holds the padded table rows [a - ph - 1, b + ph) that
window_rows reads; the last strip's far corner is the grid total.
Band.read contracts each of a window's two rows with one matmul against
a paired operand, coef * x of the queries whose far (x - d) and near (x)
corners sit at each of the W + d columns, so no window is written out.
The backward's read against the cotangent is the same routine on the
band's transposed view (Band.read_vjp).

The adjoint. A window is also the same corner sum of the suffix table
S[i, j] = sum of F[i:, j:] padded with copies of its first row and column
before the grid and zeros after it: grid row i sits at padded row i + ph.
Since W_r = Diff'_r(Suffix(F)), its transpose is Prefix(Diff'_r^T(Y)):
add Y(j - d) - Y(j) into column j of the hi row of an accumulator padded
as the table is (_scatter), subtract it from the lo row, and run
prefix_sum from the first padded row and column. That folds the shares
before the grid onto it, the transpose of repeating its edge; shares past
it are never read. A backward's Band carries such an accumulator after a
carry row, with the grid total's cotangent at padded (0, 0), and
Band.finish sums the rows no later strip writes, since row p depends
only on rows up to p.

The module counts window evaluations, transposed ones included, so tests
can assert the passes' sub-quadratic access pattern. A fetch is one
position of one window in one pass: later channel blocks count none.
"""
from __future__ import annotations

import math
import threading
from contextlib import contextmanager

import numpy as np

COLUMN_BLOCK = 8     # grid columns per masked matmul in table_rows

BLOCK_BYTES = 10 << 20
"""Bytes of the band of table rows a pass streams with the buffers it keeps
for the band's strip (see band_plan). At 10 MiB, with Dp = C = 32, a 48x48
unit-ring forward runs 13-row strips and a 32x32 dyadic backward three
blocks of 11 channels in 13-row strips; 8x8 toy grids run as one strip. A
larger budget leaves less margin under the one-field forward peak at
48x48, and at 32x32 a short-radius band would fall short of what a
long-radius one fills, against acceptance 5's flat peak over r_max."""

_fetch_count = 0
_row_shift = 0  # test-only fault injection, see sabotage_radius_offset()
_kept = threading.local()


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


# ---------- the band ----------

def band_plan(field_shape: tuple, radii: list[int], backward: bool = False):
    """How a pass streams the table of an (H, W, heads, Dp, C + 1) field whose
    windows have ``radii``: (channel blocks, strip height, pads). A pad is
    the largest radius clipped to its grid axis, since a window that long
    spans the axis anyway. A block's bytes are counted at its own width:
    its band holds a strip's rows plus 2 ph + 1 shared ones, and the table
    build's "mask" COLUMN_BLOCK^2 entries per channel for each row built
    (ph more on the first strip). A forward strip row also keeps "pairs"
    (block-wide, over W + 2 d columns) and "paired" (two C + 1 vectors over
    W + d), with d = 2 pw + 1. A ``backward`` one keeps the adjoint's band
    row (2 ph + 2 more shared), "z" (a block-wide vector per window and
    z_0), "pairs", "gpairs" (two C + 1 vectors over W + 2 d), "paired" (two
    block-wide vectors over W + d) and "scatter" (a band row). Channels
    split into the fewest equal blocks (but a narrower last one) whose
    shared rows and min(max(ph, 1), H) strip rows fit BLOCK_BYTES, so that
    strips fall below the radius only in blocks of one channel, and the
    strip grows to fill the budget."""
    h, w = field_shape[:2]
    heads, dp, values = math.prod(field_shape[2:-2]), field_shape[-2], field_shape[-1]
    radius = max(radii, default=0)
    pads = (min(radius, h - 1), min(radius, w - 1))
    margin, span = 2 * pads[0] + 1, 2 * pads[1] + 1
    floor = min(max(pads[0], 1), h)     # strip rows the blocks must fit
    for count in range(1, dp + 1):
        width = -(-dp // count)
        lanes = heads * width
        band_row = (w + span) * lanes * values * 8
        mask_row = lanes * min(COLUMN_BLOCK, w) ** 2 * 8
        if backward:
            shared = (2 * margin + 1) * band_row
            row = 3 * band_row + ((w * (len(radii) + 1) + w + 2 * span + 2 * (w + span)) * lanes
                                  + 2 * (w + 2 * span) * heads * values) * 8
        else:
            shared = margin * band_row
            row = band_row + ((w + 2 * span) * lanes + (w + span) * heads * 2 * values) * 8
        shared, row = shared + pads[0] * mask_row, row + mask_row
        if shared + floor * row <= BLOCK_BYTES:
            break
    return ([slice(lo, min(lo + width, dp)) for lo in range(0, dp, width)],
            min(max((BLOCK_BYTES - shared) // row, 1), h), pads)


def kept_array(name: str, shape: tuple) -> np.ndarray:
    """An array of ``shape`` over the thread's kept flat buffer ``name``,
    grown when short, so that passes do not fault in fresh pages on every
    call. Passes take turns with the buffers: none nests. A short buffer is
    freed before its successor is allocated."""
    size, kept = math.prod(shape), _kept.__dict__
    if name not in kept or kept[name].size < size:
        kept.pop(name, None)
        kept[name] = np.empty(size)
    return kept[name][:size].reshape(shape)


def release_kept_buffers() -> None:
    """Drop the thread's kept buffers, e.g. before measuring a cold pass."""
    _kept.__dict__.clear()


def _move_up(band: np.ndarray, rows: int, by: int) -> None:
    """Moves band rows [by, by + rows) up to [0, rows), ``by`` rows at a
    time: a copy that overlapped itself would go through a temporary."""
    for k in range(0, rows, by):
        band[k:min(k + by, rows)] = band[k + by:min(k + by, rows) + by]


def table_bands(pk, streams, radii: list[int], total_cot=None):
    """Yield a Band for every channel block and strip of grid rows of the
    table of phi_k (x) [v, 1], as band_plan plans the pass, over the kept
    buffer "band". With ``total_cot``, the cotangent of each head's grid
    total (heads, Dp, C + 1), the pass is a backward, and the buffer also
    holds the token adjoint: zero at each block's start but for total_cot
    at padded (0, 0); after each strip its carry and shared rows move up
    with the band's, and the rest is zeroed. Table rows are built by
    table_rows straight into the band's strided grid columns, with masked
    keys in the kept buffer "mask"; the pad columns then copy the last one
    a column at a time, since a broadcast copy within the band would go
    through a temporary of all pw columns."""
    h, w = pk.shape[:2]
    backward = total_cot is not None
    blocks, height, pads = band_plan(pk.shape + streams.shape[-1:], radii, backward)
    ph, pw = pads
    margin = 2 * ph + 1
    kept_rows = 2 * (height + margin) + 1 if backward else height + margin
    grid = slice(pw + 1, pw + 1 + w)
    for blk in blocks:
        channels = pk.shape[2:-1] + (blk.stop - blk.start,) + streams.shape[-1:]
        kept = kept_array("band", (kept_rows, w + 2 * pw + 1) + channels)
        band, adjoint = kept[:height + margin], kept[height + margin:]
        adjoint.fill(0.0)           # the forward's is empty
        if backward:
            adjoint[1, 0] = total_cot[..., blk, :]
        band[:ph + 1] = 0.0         # the table before the grid
        band[ph + 1:, :pw + 1] = 0.0
        ready = ph + 1              # band rows that hold table rows
        for a in range(0, h, height):
            b = min(a + height, h)
            top = a - ph - 1        # the table row in band row 0
            if a:
                _move_up(band, margin, height)
                ready = margin
                if backward:    # the carry and the shared rows
                    _move_up(adjoint, margin + 1, height)
                    adjoint[margin + 1:] = 0.0
            built, stop = min(b + ph, h) - top, b - a + margin
            if built > ready:
                new = slice(ready, built)
                mask = kept_array("mask", (built - ready,) + channels[:-1]
                                  + (min(COLUMN_BLOCK, w) ** 2,))
                table_rows(band[ready - 1:built, grid], pk[top + ready:top + built, ..., blk],
                           streams[top + ready:top + built], mask)
                for pad in range(grid.stop, band.shape[1]):
                    band[new, pad] = band[new, grid.stop - 1]
                ready = built
            band[ready:stop] = band[ready - 1]
            yield Band(blk, slice(a, b), band[:stop], pads,
                       adjoint[:stop + 1] if backward else None, b == h)


class Band:
    """The channel block ``blk`` of the table rows that the strip of grid
    rows ``rows`` reads, padded for ``pads`` (``table``), with the token
    adjoint's rows after a carry row in a backward (``adjoint``, else
    None). ``total`` is the block's grid total on the last strip and None
    before it. Only the first block counts fetches."""

    def __init__(self, blk: slice, rows: slice, table, pads: tuple, adjoint, last: bool):
        self.blk, self.rows, self.table, self.pads, self.adjoint = blk, rows, table, pads, adjoint
        self.total = table[-1, -1] if last else None

    def read(self, out, radius: int, coef, x) -> None:
        """out (strip, W, ..., C + 1) += the strip's radius-r windows of the
        table contracted with coef * x (strip, W, ..., block)."""
        rows, d = window_rows(self.table, radius, self.pads, self.blk.start == 0)
        _read(out, rows, d, _paired(coef, x, d))

    def read_vjp(self, z, radius: int, coef, x, cot) -> None:
        """The transpose of read(out, radius, coef, x) for the cotangent
        ``cot`` of out: z (strip, W, ..., block) += the windows contracted
        with cot, read as read reads on the band's transposed view, and the
        adjoint takes the transposed windows of (coef * x) (x) cot."""
        counted = self.blk.start == 0
        rows, d = window_rows(self.table, radius, self.pads, counted)
        pairs, signed = _paired(1.0, cot, d, name="gpairs", signed=True)
        _read(z, [np.swapaxes(row, -1, -2) for row in rows], d, pairs)
        _scatter(self.adjoint[1:], radius, self.pads, _paired(coef, x, d), signed, counted)

    def finish(self):
        """Finishes, by prefix_sum on the carry, the adjoint rows no later
        strip writes: padded rows up to b after strip [a, b), and every row
        after the last. Returns (their grid rows, their grid part): the
        cotangent of the block's field at those tokens."""
        (ph, pw), a = self.pads, self.rows.start
        done = self.rows.stop - a + (0 if self.total is None else ph)
        prefix_sum(self.adjoint[:1 + done, :-pw - 1], carry=True)   # up to the grid's last column
        final = slice(max(a - ph, 0), max(a + done - ph, 0))
        return final, self.adjoint[1 + final.start + ph - a:1 + done, pw:-pw - 1]


def _paired(coef, x, d: int, name: str = "pairs", signed: bool = False):
    """The (rows, W + d, ..., 2, K) paired operand of a window's row reads:
    at each of the W + d band columns of window_rows, coef * x of the
    queries whose far and near corners sit there, x - d in slot 0 and x in
    slot 1, over the kept buffer ``name`` with d zero columns on each side
    for queries off the grid. With ``signed``, returns it with a second
    operand whose slot 1 reads a negated copy: (paired, signed)."""
    h, w = x.shape[:2]
    pairs = kept_array(name, (1 + signed, h, w + 2 * d) + x.shape[2:])
    pairs[:, :, :d] = 0.0
    np.multiply(coef, x, out=pairs[0, :, d:d + w])
    np.negative(pairs[0, :, d:d + w], out=pairs[1:, :, d:d + w])    # the copy, if any
    pairs[:, :, d + w:] = 0.0
    strides = pairs.strides     # built directly: as_strided takes ~4 us a call
    views = [np.ndarray((h, w + d) + x.shape[2:-1] + (2, x.shape[-1]), pairs.dtype, pairs,
                        strides=strides[1:-1] + (copy * strides[0] + d * strides[2], strides[-1]))
             for copy in range(len(pairs))]
    return views if signed else views[0]


def _read(out, rows, d: int, pairs) -> None:
    """out (strip, W, ..., K) += the windows on ``rows``, the (hi, lo) of
    window_rows or their transposed views, contracted with ``pairs``: one
    matmul per row into the kept buffer "paired", whose far corners add on
    hi and subtract on lo, and near corners the reverse."""
    paired = kept_array("paired", rows[0].shape[:-2] + (2, rows[0].shape[-1]))
    for row, (far, near) in zip(rows, ((np.add, np.subtract), (np.subtract, np.add))):
        np.matmul(pairs, row, out=paired)
        far(out, paired[:, d:, ..., 0, :], out=out)
        near(out, paired[:, :out.shape[1], ..., 1, :], out=out)


def _scatter(adjoint, radius: int, pads: tuple, keys, values, counted: bool = True) -> None:
    """Adds the transposed radius-r windows of F = keys (x) values into
    ``adjoint``, padded as the table is: the K = 2 matmul of the paired keys
    and values (near slot negated) writes F(x - d) - F(x) into the kept
    buffer "scatter", which window_rows' hi row adds and its lo row subtracts."""
    (hi, lo), _ = window_rows(adjoint, radius, pads, counted)
    scatter = np.matmul(np.swapaxes(keys, -1, -2), values, out=kept_array("scatter", hi.shape))
    hi += scatter
    lo -= scatter
