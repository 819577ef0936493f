import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ripplegrid.sat import (
    COLUMN_BLOCK,
    fetch_count,
    prefix_sum,
    reset_fetch_count,
    sabotage_radius_offset,
    table_rows,
    window_corners,
)
from ripplegrid.vicinal import (GridShape, PartitionKind, PartitionScheme, group_members,
                                group_span)

FIELD_2X3 = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


def brute_window(field, center, radius):
    """Direct summation over the clipped window, one position at a time; the
    oracle for the corner read."""
    h, w = field.shape[:2]
    i, j = center
    acc = np.zeros(field.shape[2:])
    for m in range(max(1, i - radius), min(h, i + radius) + 1):
        for n in range(max(1, j - radius), min(w, j + radius) + 1):
            acc = acc + field[m - 1, n - 1]
    return acc


def table_of(field):
    """The prefix table of a field, on a float64 copy."""
    return prefix_sum(np.array(field, dtype=np.float64))


def pads_for(shape, radius):
    """The pads a whole-grid band of ``shape`` takes for ``radius``."""
    return min(radius, shape[0] - 1), min(radius, shape[1] - 1)


def padded(table, radius):
    """A whole table as one band, padded as window_corners reads it for
    ``radius``: zeros before the grid, its last row and column repeated
    after it. Returns (band, pads)."""
    pads = pads_for(table.shape, radius)
    rest = ((0, 0),) * (table.ndim - 2)
    edged = np.pad(table, ((0, pads[0]), (0, pads[1])) + rest, mode="edge")
    return np.pad(edged, ((pads[0] + 1, 0), (pads[1] + 1, 0)) + rest), pads


def window(table, radius, pad_radius=None, **kwargs):
    """The radius-r window sums of a table, read at the four corners of its
    band padded for ``pad_radius`` (``radius`` when None)."""
    band, pads = padded(table, radius if pad_radius is None else pad_radius)
    (hi_hi, lo_lo), (hi_lo, lo_hi) = window_corners(band, radius, pads, **kwargs)
    return hi_hi + lo_lo - hi_lo - lo_hi


def inner(a, b):
    return float(np.vdot(a, b))


def scatter(acc, cot, radius, pads, **kwargs):
    """Adds the transpose of a window's corner differences into ``acc``:
    ``cot`` into the views a window adds, negated into those it subtracts."""
    added, subtracted = window_corners(acc, radius, pads, **kwargs)
    for corner in added:
        corner += cot
    for corner in subtracted:
        corner -= cot
    return acc


def transposed(acc, pads, shape):
    """The grid part of the prefix sum over ``acc`` from its first padded
    row and column, in the suffix layout (grid row i at padded row i + ph):
    shares before the grid fold onto it, shares past it are never read."""
    return prefix_sum(acc)[pads[0]:pads[0] + shape[0], pads[1]:pads[1] + shape[1]]


def test_prefix_table_values():
    table = table_of(FIELD_2X3)
    assert table[1, 2] == 21.0
    assert table[0, 1] == 3.0
    np.testing.assert_array_equal(table[0], [1.0, 3.0, 6.0])      # running sums of row 0
    np.testing.assert_array_equal(table[:, 0], [1.0, 5.0])        # and of column 0


def test_prefix_table_matches_brute_force():
    rng = np.random.default_rng(0)
    field = rng.standard_normal((7, 5, 4))
    acc = field.copy()
    assert prefix_sum(acc) is acc                  # built in place
    for i in range(1, 8):
        for j in range(1, 6):
            np.testing.assert_allclose(
                acc[i - 1, j - 1], field[:i, :j].sum(axis=(0, 1)), atol=1e-12)


def test_prefix_sum_continues_a_table_from_a_carry_row():
    """Built in row chunks, each on the finished row above it, the table is
    the one built whole."""
    rng = np.random.default_rng(3)
    field = rng.standard_normal((9, 5, 2))
    acc = field.copy()
    prefix_sum(acc[:4])
    assert prefix_sum(acc[3:7], carry=True).base is acc
    prefix_sum(acc[6:], carry=True)
    np.testing.assert_allclose(acc, table_of(field), rtol=1e-13, atol=1e-13)
    # a lone carry row is left as it is
    np.testing.assert_array_equal(prefix_sum(acc[-1:].copy(), carry=True), acc[-1:])


def outer_rows(rows, w, heads, features, values, seed, wider=3):
    """Keys and values for ``rows`` table rows, as channel slices of wider
    arrays (as a block of phi_k is), with their field keys (x) values, and
    a target table (carry row first) that is a column slice of a wider
    one, as the grid's columns of a band are."""
    rng = np.random.default_rng(seed)
    keys = rng.standard_normal((rows, w, heads, features + wider))[..., 1:1 + features]
    vals = rng.standard_normal((rows, w, heads, values))
    field = np.einsum("...d,...c->...dc", keys, vals)
    band = rng.standard_normal((rows + 1, w + wider, heads, features, values))
    return keys, vals, field, band[:, wider:]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rows=st.integers(1, 5), w=st.integers(1, 20), heads=st.integers(1, 3),
       features=st.integers(1, 4), values=st.integers(1, 4),
       block=st.integers(1, COLUMN_BLOCK), seed=st.integers(0, 2**32 - 1))
def test_table_rows_equal_prefix_sum_of_the_outer_products(rows, w, heads, features, values,
                                                           block, seed):
    """Built on a carry row by masked matmuls of ``block`` columns, over
    widths that are and are not multiples of it, the table rows are
    prefix_sum's of the materialized field, whatever the mask and the rows
    below the carry held before."""
    keys, vals, field, acc = outer_rows(rows, w, heads, features, values, seed)
    want = prefix_sum(np.concatenate((acc[:1], field)), carry=True)
    mask = np.full((rows, heads, features, block * block), np.nan)
    assert table_rows(acc, keys, vals, mask) is acc
    scale = np.abs(field).sum() + np.abs(acc[0]).max()
    np.testing.assert_allclose(acc, want, rtol=1e-12, atol=1e-12 * scale)


def test_window_values():
    table = table_of(FIELD_2X3)
    assert window(table, 0)[1, 1] == 5.0
    assert window(table, 1)[0, 0] == 12.0   # cells (1,1),(1,2),(2,1),(2,2)
    assert np.all(window(table, 50) == 21.0)  # window swallows the grid


def test_window_matches_brute_force():
    rng = np.random.default_rng(1)
    field = rng.standard_normal((6, 9, 2))
    table = table_of(field)
    for r in range(0, 10):
        grid = window(table, r)
        for i in range(1, 7):
            for j in range(1, 10):
                np.testing.assert_allclose(
                    grid[i - 1, j - 1], brute_window(field, (i, j), r),
                    rtol=1e-12, atol=1e-12)


def test_window_matches_pointwise():
    """Every radius up to past the grid's side, read from a band padded for
    that radius and from one padded for the largest: a band serves every
    radius up to its own, and a pad clipped to the grid serves all."""
    rng = np.random.default_rng(5)
    for shape in ((6, 7, 3), (1, 7), (9, 1), (1, 1)):
        field = rng.standard_normal(shape)
        table = table_of(field)
        h, w = shape[:2]
        widest = max(h, w) + 2
        for r in range(0, widest + 1):
            grid = window(table, r)
            assert grid.shape == shape
            np.testing.assert_array_equal(window(table, r, pad_radius=widest), grid)
            for i in range(1, h + 1):
                for j in range(1, w + 1):
                    np.testing.assert_allclose(
                        grid[i - 1, j - 1], brute_window(field, (i, j), r),
                        rtol=1e-12, atol=1e-12)


def test_corners_are_views_of_the_band():
    """No window is written out: the corners are shifted slices of the band,
    each the strip's shape."""
    table = table_of(np.arange(24.0).reshape(4, 6))
    band, pads = padded(table, 2)
    corners = window_corners(band, 1, pads)
    for corner in (*corners[0], *corners[1]):
        assert corner.base is band or corner.base is band.base
        assert corner.shape == (4, 6)


def test_window_differences_match_group_members():
    """Group r of a query is the window out to its outer radius minus the
    window just inside its inner radius; rings past the grid edge are empty."""
    rng = np.random.default_rng(2)
    field = rng.standard_normal((9, 9, 3))
    table = table_of(field)
    shape = GridShape(9, 9)
    for kind, groups in ((PartitionKind.UNIT_RING, 11), (PartitionKind.DYADIC, 5)):
        scheme = PartitionScheme(kind=kind, r_max=3, tau=0.05)
        for r in range(groups):
            lo, hi = group_span(kind, r)
            band = window(table, hi)
            if lo > 0:
                band = band - window(table, lo - 1)
            for i in range(1, 10):
                for j in range(1, 10):
                    members = group_members(scheme, shape, (i, j), r)
                    want = sum((field[m - 1, n - 1] for m, n in members),
                               np.zeros(3))
                    np.testing.assert_allclose(band[i - 1, j - 1], want,
                                               rtol=1e-10, atol=1e-10)


def test_rings_telescope_to_total():
    rng = np.random.default_rng(4)
    field = rng.standard_normal((7, 11, 2))
    table = table_of(field)
    acc = np.zeros(field.shape)
    prev = np.zeros(field.shape)
    for r in range(11):
        cur = window(table, r)
        acc = acc + (cur - prev)
        prev = cur
    # the far corner is the total
    np.testing.assert_allclose(acc, np.broadcast_to(table[-1, -1], acc.shape),
                               rtol=1e-9)


def test_prefix_sum_accumulates_in_f64_only():
    field = np.full((50, 50), 0.1, dtype=np.float32)
    # building in place in a narrower dtype would accumulate in it
    for narrow in (field, field.astype(np.float16), np.ones((4, 4), dtype=np.int64)):
        with pytest.raises(ValueError, match="float64"):
            prefix_sum(narrow)
    # an f32 field copied into an f64 buffer sums in double precision; f32
    # accumulation of 2500 terms would drift far beyond this tolerance
    table = table_of(field)
    assert table.dtype == np.float64
    np.testing.assert_allclose(table[-1, -1], np.float64(np.float32(0.1)) * 2500,
                               rtol=1e-12)


def test_fetch_counting():
    table = table_of(np.ones((4, 5)))
    band, pads = padded(table, 2)
    reset_fetch_count()
    window_corners(band, 1, pads)      # one fetch per strip position
    assert fetch_count() == 20
    window_corners(band, 0, pads)
    prefix_sum(np.ones((4, 5)))        # the build is not a window
    assert fetch_count() == 40
    window_corners(band, 2, pads)
    window_corners(band[1:-1], 2, pads)  # a strip of two rows
    assert fetch_count() == 70
    # a transposed window reads the same corners of an accumulator padded
    # as the band is, and fetches what a window does; a pass's later
    # channel blocks count nothing, forward or transposed
    acc = np.zeros_like(band)
    scatter(acc, np.ones((4, 5)), 1, pads)
    assert fetch_count() == 90
    scatter(acc, np.ones((4, 5)), 2, pads)
    prefix_sum(acc)                    # finishing the adjoint is not a window
    assert fetch_count() == 110
    window_corners(band, 1, pads, counted=False)
    scatter(acc, np.ones((4, 5)), 1, pads, counted=False)
    assert fetch_count() == 110
    reset_fetch_count()
    assert fetch_count() == 0


def transposed_case(h, w, extra, wider, channels, seed):
    """A random field and <W_r F, Y> for two radii, up to past the grid's
    side, plus the grid total's cotangent, with the accumulator that the
    transposed windows and the total's cotangent scatter into: the corner
    views of a window padded ``wider`` past the radius, and padded (0, 0),
    which the prefix sum spreads over every token."""
    rng = np.random.default_rng(seed)
    shape = (h, w) + tuple(channels)
    radius = extra % (max(h, w) + 3)
    second = int(rng.integers(0, radius + 1))
    pads = pads_for(shape, radius + wider)
    field, cot, cot2 = (rng.standard_normal(shape) for _ in range(3))
    total_cot = rng.standard_normal(shape[2:])
    table = table_of(field)
    want = (inner(window(table, radius, radius + wider), cot)
            + inner(window(table, second, radius + wider), cot2)
            + inner(table[-1, -1], total_cot))
    scale = np.abs(field).sum() * (np.abs(cot).sum() + np.abs(cot2).sum()
                                   + np.abs(total_cot).sum())
    acc = np.zeros((h + 2 * pads[0] + 1, w + 2 * pads[1] + 1) + shape[2:])
    scatter(acc, cot, radius, pads)
    scatter(acc, cot2, second, pads)
    acc[0, 0] += total_cot
    return field, want, scale, acc, pads


FUZZ = dict(h=st.integers(1, 12), w=st.integers(1, 12), extra=st.integers(0, 14),
            wider=st.integers(0, 4), channels=st.lists(st.integers(1, 3), min_size=1, max_size=3),
            seed=st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(**FUZZ)
def test_scatter_and_prefix_sum_are_exact_adjoints(h, w, extra, wider, channels, seed):
    """<W_r F, Y> = <F, grid part of the prefix sum of Y scattered through
    the corner views, in the suffix layout>, with W_r F read at the same
    corners of the table, for every radius up to past the grid's side and
    pads up to ``wider`` past the radius. A second radius and the grid
    total's cotangent, added at padded (0, 0), share the accumulator, as
    the token adjoint's groups and tail do."""
    field, want, scale, acc, pads = transposed_case(h, w, extra, wider, channels, seed)
    got = inner(field, transposed(acc, pads, field.shape))
    assert abs(got - want) <= 1e-12 * scale, (field.shape, pads)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(chunk=st.integers(1, 5), **FUZZ)
def test_adjoint_prefix_sum_in_row_chunks(chunk, h, w, extra, wider, channels, seed):
    """Finished in row chunks of ``chunk`` rows, each on a carry row that
    holds the finished row above it, as the backward finishes its adjoint
    band strip by strip, the accumulator is the one finished whole."""
    _, _, _, acc, _ = transposed_case(h, w, extra, wider, channels, seed)
    whole = prefix_sum(acc.copy())
    carried = np.concatenate((np.zeros((1,) + acc.shape[1:]), acc))
    for top in range(0, len(acc), chunk):
        prefix_sum(carried[top:top + chunk + 1], carry=True)
    np.testing.assert_allclose(carried[1:], whole, rtol=1e-12, atol=1e-12 * np.abs(acc).sum())


def test_sabotage_radius_offset():
    rng = np.random.default_rng(7)
    field = rng.standard_normal((6, 6))
    clean = table_of(field)
    with sabotage_radius_offset(1):
        broken = table_of(field)
    # a table built inside the context corrupts windows and the total alike
    assert window(broken, 1)[2, 2] != pytest.approx(float(window(clean, 1)[2, 2]))
    assert broken[-1, -1] != pytest.approx(float(clean[-1, -1]))
    # the fault does not leak out of the context
    after = table_of(field)
    np.testing.assert_array_equal(window(after, 1), window(clean, 1))
    np.testing.assert_array_equal(after[-1, -1], clean[-1, -1])


def test_sabotage_shifts_table_rows_too():
    keys, vals, _, acc = outer_rows(4, 6, 1, 2, 3, seed=8)
    clean = table_rows(acc.copy(), keys, vals, np.empty((4, 1, 2, 36)))
    with sabotage_radius_offset(1):
        broken = table_rows(acc.copy(), keys, vals, np.empty((4, 1, 2, 36)))
    np.testing.assert_array_equal(broken[0], clean[0])      # the carry is kept
    assert not broken[1].any()
    np.testing.assert_array_equal(broken[2:], clean[1:-1])


def test_validation():
    with pytest.raises(ValueError, match="2-dimensional"):
        prefix_sum(np.ones(5))
    table = table_of(np.ones((3, 3)))
    band, pads = padded(table, 1)
    with pytest.raises(ValueError, match="radius"):
        window_corners(band, -1, pads)
    with pytest.raises(ValueError, match="pads"):
        window_corners(band, 1, (3, 1))      # no strip row left between the pads
    with pytest.raises(ValueError, match="pads"):
        window_corners(band, 1, (1, -1))
