"""2D prefix sums, streamed top down, and the grouped sum read from the
padded table, with its exact adjoint.

Every array here is f64 with the grid on its first two axes.

- prefix_sum builds the table in place, one column and then one row at a
  time, and can continue a table below a finished row (a carry).
- table_rows continues a table for a field keys (x) values that it never
  writes out, with one masked matmul per block of COLUMN_BLOCK columns.

The grouped sum. read_windows returns, per query, m (phi_q . T) + sum
over g of c_g (phi_q . W_g) over the field F = phi_k (x) [v, 1]: W_g is
its clipped radius-r_g window, T its grid total and m the merged tail
weight. Group 0 has radius 0, the token itself, so its term is
c_0 (phi_q . phi_k) [v, 1] and takes no table; the tail is one product
with T per head, in a kept buffer of its own outside BLOCK_BYTES. Only
the windows past radius 0 are read from the table, and no caller sees
its layout.

The padded table. With pads (ph, pw), the widest radius clipped to each
grid axis, padded entry (p, c) is table entry (p - ph - 1, c - pw - 1):
zero before the grid, and its last row or column past it. So the clipped
radius-r window of query (i, x) is four corners, each a slot at a fixed
offset (o, co) from the query: 4G slots for G windows (_slots).

The stream. No pass holds the table of its (H, W, heads, Dp, C + 1) field
phi_k (x) [v, 1] whole: both walk the padded rows top down once, in
chunks of every channel that stream_plan sizes within BLOCK_BYTES. Each
table row is built once, by table_rows on the carry of the row above, and
contracted once with a stacked operand that holds, in slot s at (p, c),
the c_g phi_q of the query (p - o_s, c - co_s), one product per slot:
one matmul per run of rows that the same slots read, then one strided
add or subtract per slot, by the corner's sign, into the output
(read_windows).

The adjoint. read_windows_vjp takes the cotangent cot of read_windows'
out and returns the cotangents of coefs, merged, pq, pk and streams.
Radius 0 and the tail take (H, W, heads, ...) arrays only: the tail's
T . cot, from the total the walk leaves, and T's own cotangent, the grid
sum of (m phi_q) (x) cot. Its z read, the signed stacked cotangent
against the table rows' transposed view in the same runs, adds up
z_g = W_g . cot in one (H, W, heads, G, Dp) array per call, contracted
with pq and coefs once after the walk and freed before the tail's
cotangents are taken. A window is also the same corner sum of the
suffix table S[i, j] = sum of F[i:, j:] padded with copies of its first
row and column before the grid and zeros after it (grid row i at padded
row i + ph). So the field's cotangent is one product per padded row, the stacked keys
against the signed stacked cotangent, summing every window in its K
reduction, and prefix_sum from padded (0, 0), where T's cotangent sits,
finishes it chunk by chunk on a carry: that folds the shares before the
grid onto it, and rows past the grid are never needed. Each chunk's
finished rows go straight into the pk and streams cotangents.

The module counts window evaluations, transposed ones included, so tests
can assert the passes' sub-quadratic access pattern. A fetch is one
position of one window past radius 0 in one pass: chunks count none.
"""
from __future__ import annotations

import bisect
import functools
import math
import threading
from contextlib import contextmanager

import numpy as np

from .heads import matmul, outer_sum

COLUMN_BLOCK = 8     # grid columns per masked matmul in table_rows
RUN_MACS = 1 << 17   # multiply-adds that cost about as much as one matmul call

BLOCK_BYTES = 10 << 20
"""Bytes a pass keeps for its chunks of table rows (see stream_plan): it
sizes the chunk rows only, and a pass keeps at least its carry rows and
one chunk row of every channel, past the budget if need be. At 10 MiB,
with Dp = C = 32, a 48x48 unit-ring forward runs 13-row chunks and a 32x32
dyadic forward and backward 17- and 9-row chunks; the toy's 8x8 passes
each run as one chunk. A larger budget leaves less margin under the
one-field forward peak at 48x48, and at 32x32 a short-radius forward
would fall short of what a long-radius one fills, against acceptance 5's
flat peak over r_max."""

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
    inside the context shift the rows they build down by ``offset`` (zeros
    enter at the top), so windows and totals read from them are wrong."""
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
        np.matmul(keys[..., cols], _spread(width), out=masked)
        np.matmul(masked.reshape(mask.shape[:-1] + (width, width)), values[..., cols, :],
                  out=table[..., cols, :])
        if lo:
            np.add(table[..., cols, :], table[..., lo - 1, None, :], out=table[..., cols, :])
    return _rows_down(acc, rows)


@functools.lru_cache(maxsize=COLUMN_BLOCK)
def _spread(width: int) -> np.ndarray:
    """The 0/1 (width, width * width) spread: [j', (j, j'')] is 1 where j'' == j' <= j."""
    spread = (np.eye(width)[:, None] * np.tri(width)).reshape(width, -1)
    spread.flags.writeable = False      # every caller shares it
    return spread


def _rows_down(acc: np.ndarray, built: np.ndarray) -> np.ndarray:
    """Adds each row of acc into the one below, top down, then applies the
    fault injection to the ``built`` rows."""
    for i in range(1, acc.shape[0]):
        np.add(acc[i - 1], acc[i], out=acc[i])
    if _row_shift:
        built[:] = np.roll(built, _row_shift, axis=0)
        built[:_row_shift] = 0.0
    return acc


# ---------- the stream ----------

def _chunk_shapes(field_shape: tuple, windows: int, pads: tuple, rows: int,
                  backward: bool) -> dict:
    """The buffers a pass keeps for chunks of ``rows`` padded rows, by
    name. The carry rows are kept whatever ``rows``."""
    w, heads, (dp, values), pw = field_shape[1], field_shape[2:-2], field_shape[-2:], pads[1]
    cols, slots = w + 2 * pw + 1, 4 * windows
    shapes = {"table": (rows + 1, w + pw) + heads + (dp, values),
              "mask": (rows * math.prod(heads) * dp * min(COLUMN_BLOCK, w) ** 2,),
              "stacked": (rows, cols if backward else w + pw) + heads + (slots, dp),
              "products": (rows, w + pw) + heads + (slots, dp if backward else values)}
    if backward:
        shapes.update(adjoint=(rows + 1, w + pw) + heads + (dp, values),
                      cotangents=(rows, cols) + heads + (slots, values))
    return shapes


def stream_plan(field_shape: tuple, radii: list[int], backward: bool = False):
    """How a pass streams the padded table of an (H, W, heads, Dp, C + 1)
    field whose windows have ``radii``: (chunk rows, pads). A pad is the
    largest radius clipped to its grid axis. Chunks are as tall as the
    buffers (_chunk_shapes) fit in BLOCK_BYTES, but at least one row and at
    most the rows the pass walks: H + ph from the first row inside the grid
    in a forward, all H + 2 ph + 1 in a backward."""
    return _plan(tuple(field_shape), tuple(radii), backward, BLOCK_BYTES)


@functools.lru_cache(maxsize=256)
def _plan(field_shape: tuple, radii: tuple, backward: bool, budget: int):
    (h, w), radius = field_shape[:2], max(radii, default=0)
    pads = (min(radius, h - 1), min(radius, w - 1))
    shared, one = (sum(math.prod(s) for s in _chunk_shapes(
        field_shape, len(radii), pads, rows, backward).values()) for rows in (0, 1))
    rows = (budget // 8 - shared) // (one - shared)
    return min(max(rows, 1), h + pads[0] * (1 + backward) + backward), pads


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


def _chunks(pk, streams, radii: list[int], backward: bool):
    """Yield (top, stop, past, pads, buffers) for every chunk of padded rows
    [top, stop) of the table of phi_k (x) [v, 1], as stream_plan plans the
    pass, with buffers carved out of the kept buffer "stream". From the
    first column inside the grid, table[0] holds the row above the chunk
    and table[1 + p - top] padded row p < past; rows from ``past`` on are
    past the grid, so they are table[past - top]. A forward starts inside
    the grid; a backward's rows before it are read only as the carry of the
    first built row. Pad columns are copied a column at a time: a broadcast
    copy would go through a temporary. A pass counts its fetches here:
    one per position and window in a forward, two in a backward."""
    global _fetch_count
    (h, w), field = pk.shape[:2], pk.shape + streams.shape[-1:]
    _fetch_count += (1 + backward) * len(radii) * h * w
    height, (ph, pw) = stream_plan(field, radii, backward)
    shapes = _chunk_shapes(field, len(radii), (ph, pw), height, backward)
    flat = kept_array("stream", (sum(math.prod(s) for s in shapes.values()),))
    bufs, at = {}, 0
    for name, shape in shapes.items():
        bufs[name], at = flat[at:at + math.prod(shape)].reshape(shape), at + math.prod(shape)
    table, last = bufs["table"], h + 2 * ph + 1
    table[0] = 0.0          # the row before the grid
    for name in ("stacked", "cotangents"):     # products only read what is written,
        bufs.get(name, table[:0]).fill(0.0)     # but an empty buffer may hold inf or nan
    for top in range(0 if backward else ph + 1, last, height):
        stop = min(top + height, last)
        inside = min(max(ph + 1, top), stop)        # rows [top, inside) are before the grid
        past = min(max(h + ph + 1, inside), stop)   # rows [inside, past) are built
        if inside > top:    # the carry of the first row inside the grid
            table[inside - top] = 0.0
        if past > inside:
            keys = pk[inside - ph - 1:past - ph - 1]
            mask = bufs["mask"][:keys.size // w * min(COLUMN_BLOCK, w) ** 2]
            table_rows(table[inside - top:past - top + 1, :w], keys,
                       streams[inside - ph - 1:past - ph - 1],
                       mask.reshape(keys.shape[:1] + keys.shape[2:] + (-1,)))
            built = table[1 + inside - top:1 + past - top]
            for pad in range(w, w + pw):
                built[:, pad] = built[:, w - 1]
        yield top, stop, past, (ph, pw), bufs
        if stop < last:
            table[0] = table[past - top]


@functools.lru_cache(maxsize=256)
def _slots(radii: tuple, pads: tuple):
    """The 4G corner slots of the windows of ``radii``, as (row offset o,
    column offset co, sign, window g), ordered by o: the slot's table entry
    for query (i, x) sits at padded (i + o, x + co)."""
    (ph, pw), slots = pads, []
    for g, radius in enumerate(radii):
        rh, rw = min(radius, ph), min(radius, pw)
        hi, lo, far, near = ph + 1 + rh, ph - rh, pw + rw + 1, pw - rw
        slots += [(hi, far, 1.0, g), (hi, near, -1.0, g), (lo, far, -1.0, g), (lo, near, 1.0, g)]
    return tuple(sorted(slots))


@functools.lru_cache(maxsize=1024)
def _corners(slots: tuple, rows: tuple, cols: tuple, shape: tuple):
    """For each slot, the queries whose corner falls in padded rows
    [rows) and columns [cols), as (slot, sign, g, query rows, query
    columns, rows and columns relative to the region's start)."""
    corners = []
    for s, (o, co, sign, g) in enumerate(slots):
        i0, i1 = max(rows[0] - o, 0), min(rows[1] - o, shape[0])
        x0, x1 = max(cols[0] - co, 0), min(cols[1] - co, shape[1])
        if i0 < i1 and x0 < x1:
            corners.append((s, sign, g, slice(i0, i1), slice(x0, x1), slice(i0 + o - rows[0],
                            i1 + o - rows[0]), slice(x0 + co - cols[0], x1 + co - cols[0])))
    return tuple(corners)


@functools.lru_cache(maxsize=1024)
def _runs(slots: tuple, top: int, stop: int, h: int, row_macs: int):
    """Split padded rows [top, stop) into runs (a, b, lo, hi), one matmul
    each over the slots[lo:hi] that read rows [a, b): row p is read by the
    slots with p - h < o <= p, a range of the slots ordered by o. Runs
    merge while that adds under RUN_MACS multiply-adds, ``row_macs`` a row
    and slot."""
    offsets, runs = [o for o, *_ in slots], []
    cuts = sorted({top, stop} | {c for o in offsets for c in (o, o + h) if top < c < stop})
    for a, b in zip(cuts, cuts[1:]) if top < stop else ():
        lo, hi = bisect.bisect_right(offsets, a - h), bisect.bisect_right(offsets, a)
        if runs:
            start, end, lo0, hi0 = runs[-1]
            added = (b - start) * (max(hi, hi0) - min(lo, lo0)) - (b - a) * (hi - lo)
            if (added - (end - start) * (hi0 - lo0)) * row_macs <= RUN_MACS:
                runs[-1] = (start, b, min(lo, lo0), max(hi, hi0))
                continue
        runs.append((a, b, lo, hi))
    return tuple(runs)


def _stack_keys(stacked, corners: tuple, coefs, pq) -> None:
    """Write c_g phi_q into each slot of the stacked keys: one product per
    slot, over the queries whose corner falls in the chunk."""
    for s, _, g, qi, qx, oi, ox in corners:
        np.multiply(coefs[qi, qx, ..., g, None], pq[qi, qx], out=stacked[oi, ox, ..., s, :])


def _contract(left, table, rows: tuple, top: int, past: int, slots: tuple, h: int, out) -> None:
    """out[p - rows[0], ..., lo:hi, :] = left[p - top, ..., lo:hi, :] @ table
    row p for p in [rows), a matmul per run; rows from ``past`` on read the
    grid's last row, broadcast."""
    for start, stop in ((rows[0], min(rows[1], past)), (max(rows[0], past), rows[1])):
        for a, b, lo, hi in _runs(slots, start, stop, h, table[0].size):
            right = table[past - top, None] if a >= past else table[1 + a - top:1 + b - top]
            if lo < hi:
                np.matmul(left[a - top:b - top, ..., lo:hi, :], right,
                          out=out[a - rows[0]:b - rows[0], ..., lo:hi, :])


def read_windows(pk, streams, radii: list[int], coefs, merged, pq) -> np.ndarray:
    """The grouped sum of the field F = phi_k (x) [v, 1], (H, W, heads,
    C + 1): m (pq . T) + sum over g of coefs[..., g] (pq . W_g), with W_g
    the radius radii[g] window of F, T its grid total and m ``merged``.
    radii[0] is 0, the token itself, read from the field with no table."""
    (h, w), c_0 = pk.shape[:2], coefs[..., 0] if radii else 0.0
    out = (c_0 * np.einsum("...d,...d->...", pq, pk))[..., None] * streams
    part = kept_array("part", out.shape)    # the tail's, outside BLOCK_BYTES
    for top, stop, past, (ph, pw), bufs in _chunks(pk, streams, radii[1:], False):
        slots = _slots(tuple(radii[1:]), (ph, pw))
        corners = _corners(slots, (top, stop), (pw + 1, w + 2 * pw + 1), (h, w))
        _stack_keys(bufs["stacked"], corners, coefs[..., 1:], pq)
        products = bufs["products"]
        _contract(bufs["stacked"], bufs["table"], (top, stop), top, past, slots, h, products)
        for s, sign, _, qi, qx, oi, ox in corners:
            acc = out[qi, qx]
            (np.add if sign > 0 else np.subtract)(acc, products[oi, ox, ..., s, :], out=acc)
    matmul(pq, bufs["table"][past - top, -1], out=part)
    part *= merged[..., None]
    out += part
    return out


def read_windows_vjp(pk, streams, radii: list[int], coefs, merged, pq, cot):
    """The transpose of read_windows for the cotangent ``cot`` of its out:
    (gcoefs, gmerged, gpq, gpk, gstreams), the cotangents of coefs,
    merged, pq, pk and streams."""
    (h, w), c_0 = cot.shape[:2], coefs[..., 0] if radii else 0.0
    sg, qk = np.einsum("...c,...c->...", streams, cot), np.einsum("...d,...d->...", pq, pk)
    total_cot = outer_sum(merged[..., None] * pq, cot, heads=True)     # the tail's, on T
    z = np.zeros(pq.shape[:-1] + (len(radii[1:]),) + pq.shape[-1:])   # W_g . cot per query
    gpk, gstreams = np.empty(pk.shape), np.empty(streams.shape)
    for top, stop, past, (ph, pw), bufs in _chunks(pk, streams, radii[1:], True):
        slots = _slots(tuple(radii[1:]), (ph, pw))
        stacked, cotangents, table = bufs["stacked"], bufs["cotangents"], bufs["table"]
        products, adjoint = bufs["products"], bufs["adjoint"]
        corners = _corners(slots, (top, stop), (0, w + 2 * pw + 1), (h, w))
        if top:     # carry over the adjoint's last finished row
            adjoint[0] = adjoint[done]
            stacked.fill(0.0)   # the adjoint's K reduction sums every slot of a run
        else:
            adjoint[0] = 0.0
        _stack_keys(stacked, corners, coefs[..., 1:], pq)
        for s, sign, _, qi, qx, oi, ox in corners:
            np.multiply(cot[qi, qx], sign, out=cotangents[oi, ox, ..., s, :])
        # the z read, from the first row inside the grid
        first = min(max(top, ph + 1), stop)
        _contract(cotangents[:, pw + 1:], np.swapaxes(table, -1, -2), (first, stop), top, past,
                  slots, h, products)
        for s, _, g, qi, qx, oi, ox in _corners(slots, (first, stop), (pw + 1, w + 2 * pw + 1),
                                                (h, w)):
            np.add(z[qi, qx, ..., g, :], products[oi, ox, ..., s, :], out=z[qi, qx, ..., g, :])
        # the token adjoint, up to the last row the grid reads
        end = max(min(stop, h + ph), top)
        for a, b, lo, hi in _runs(slots, top, end, h, table[0].size):
            np.matmul(np.swapaxes(stacked[a - top:b - top, :w + pw, ..., lo:hi, :], -1, -2),
                      cotangents[a - top:b - top, :w + pw, ..., lo:hi, :],
                      out=adjoint[1 + a - top:1 + b - top])
        if top == 0:
            adjoint[1, 0] += total_cot
        prefix_sum(adjoint[:1 + end - top], carry=True)
        rows, done = slice(max(top - ph, 0), max(end - ph, 0)), end - top
        gx = adjoint[1 + rows.start + ph - top:1 + done, pw:]   # the field's, at grid rows
        np.einsum("...dc,...c->...d", gx, streams[rows], out=gpk[rows])
        np.einsum("...dc,...d->...c", gx, pk[rows], out=gstreams[rows])
    gwindows = np.einsum("...d,...gd->...g", pq, z)
    gpq = np.einsum("...gd,...g->...d", z, coefs[..., 1:])
    del z
    zt = matmul(cot, np.swapaxes(table[past - top, -1], -1, -2))      # T . cot
    gcoefs = np.concatenate(((sg * qk)[..., None][..., :len(radii)], gwindows), axis=-1)
    gpq = (c_0 * sg)[..., None] * pk + gpq + merged[..., None] * zt
    gpk += (c_0 * sg)[..., None] * pq
    gstreams += (c_0 * qk)[..., None] * cot
    return gcoefs, np.einsum("...d,...d->...", pq, zt), gpq, gpk, gstreams
