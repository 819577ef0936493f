import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ripplegrid.sat import (
    SummedAreaTable,
    _axis_runs,
    fetch_count,
    reset_fetch_count,
    sabotage_radius_offset,
    scatter_window,
    suffix_sum,
)
from ripplegrid.vicinal import (GridShape, PartitionKind, PartitionScheme, group_members,
                                group_span)

FIELD_2X3 = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


def brute_window(field, center, radius):
    """Direct summation over the clipped window, one position at a time; the
    oracle for window_sum_grid."""
    h, w = field.shape[:2]
    i, j = center
    acc = np.zeros(field.shape[2:])
    for m in range(max(1, i - radius), min(h, i + radius) + 1):
        for n in range(max(1, j - radius), min(w, j + radius) + 1):
            acc = acc + field[m - 1, n - 1]
    return acc


def test_prefix_table_values():
    sat = SummedAreaTable(FIELD_2X3)
    assert sat.table[2, 3] == 21.0
    assert sat.table[1, 2] == 3.0
    assert np.all(sat.table[0, :] == 0.0)
    assert np.all(sat.table[:, 0] == 0.0)


def test_prefix_table_matches_brute_force():
    rng = np.random.default_rng(0)
    field = rng.standard_normal((7, 5, 4))
    sat = SummedAreaTable(field)
    for i in range(1, 8):
        for j in range(1, 6):
            np.testing.assert_allclose(
                sat.table[i, j], field[:i, :j].sum(axis=(0, 1)), atol=1e-12)


def test_window_sum_values():
    sat = SummedAreaTable(FIELD_2X3)
    assert sat.window_sum_grid(0)[1, 1] == 5.0
    assert sat.window_sum_grid(1)[0, 0] == 12.0   # cells (1,1),(1,2),(2,1),(2,2)
    assert np.all(sat.window_sum_grid(50) == 21.0)  # window swallows the grid


def test_window_sum_matches_brute_force():
    rng = np.random.default_rng(1)
    field = rng.standard_normal((6, 9, 2))
    sat = SummedAreaTable(field)
    for r in range(0, 10):
        grid = sat.window_sum_grid(r)
        for i in range(1, 7):
            for j in range(1, 10):
                np.testing.assert_allclose(
                    grid[i - 1, j - 1], brute_window(field, (i, j), r),
                    rtol=1e-12, atol=1e-12)


def test_window_sum_grid_matches_pointwise():
    rng = np.random.default_rng(5)
    for shape in ((6, 7, 3), (1, 7), (9, 1), (1, 1)):
        field = rng.standard_normal(shape)
        sat = SummedAreaTable(field)
        h, w = shape[:2]
        buf = np.full(shape, np.nan)   # one buffer reused across radii
        for r in range(0, max(h, w) + 3):
            grid = sat.window_sum_grid(r)
            assert grid.shape == shape
            assert sat.window_sum_grid(r, out=buf) is buf
            np.testing.assert_array_equal(buf, grid)
            for i in range(1, h + 1):
                for j in range(1, w + 1):
                    np.testing.assert_allclose(
                        grid[i - 1, j - 1], brute_window(field, (i, j), r),
                        rtol=1e-12, atol=1e-12)


def test_axis_runs_match_clipped_edges():
    """The runs expand to the clipped edge vectors min(i + 1 + r, n) and
    max(i - r, 0), in table indices, including r >= n where every window
    spans the whole axis."""
    for n in range(1, 14):
        pos = np.arange(n)
        for r in range(20):
            runs = _axis_runs(n, r)
            assert len(runs) <= 3
            hi = np.full(n, -1)
            lo = np.full(n, -1)
            covered = []
            for dst, hi_sl, lo_sl in runs:
                span = np.arange(n)[dst]
                assert span.size > 0
                covered.extend(span)
                # table without its zero row: index + 1 is the table index
                hi[dst] = np.broadcast_to(np.arange(n)[hi_sl] + 1, span.shape)
                if lo_sl is None:
                    lo[dst] = 0
                else:
                    lo[dst] = np.broadcast_to(np.arange(n)[lo_sl] + 1, span.shape)
                    assert lo_sl.stop - lo_sl.start == span.size
                assert hi_sl.stop - hi_sl.start in (1, span.size)
            assert covered == list(pos), (n, r)
            np.testing.assert_array_equal(hi, np.minimum(pos + 1 + r, n))
            np.testing.assert_array_equal(lo, np.maximum(pos - r, 0))


def test_window_differences_match_group_members():
    """Group r of a query is the window out to its outer radius minus the
    window just inside its inner radius; rings past the grid edge are empty."""
    rng = np.random.default_rng(2)
    field = rng.standard_normal((9, 9, 3))
    sat = SummedAreaTable(field)
    shape = GridShape(9, 9)
    for kind, groups in ((PartitionKind.UNIT_RING, 11), (PartitionKind.DYADIC, 5)):
        scheme = PartitionScheme(kind=kind, r_max=3, tau=0.05)
        for r in range(groups):
            lo, hi = group_span(kind, r)
            band = sat.window_sum_grid(hi)
            if lo > 0:
                band = band - sat.window_sum_grid(lo - 1)
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
    sat = SummedAreaTable(field)
    acc = np.zeros(field.shape)
    prev = np.zeros(field.shape)
    for r in range(11):
        cur = sat.window_sum_grid(r)
        acc = acc + (cur - prev)
        prev = cur
    np.testing.assert_allclose(acc, np.broadcast_to(sat.total(), acc.shape),
                               rtol=1e-9)


def test_f32_field_accumulates_f64():
    field = np.full((50, 50), 0.1, dtype=np.float32)
    sat = SummedAreaTable(field)
    assert sat.table.dtype == np.float64
    # f32 accumulation of 2500 terms would drift far beyond this tolerance
    np.testing.assert_allclose(sat.total(), np.float64(np.float32(0.1)) * 2500,
                               rtol=1e-12)
    mixed = np.random.default_rng(8).standard_normal((9, 6, 3)).astype(np.float32)
    np.testing.assert_array_equal(SummedAreaTable(mixed).table,
                                  SummedAreaTable(mixed.astype(np.float64)).table)


def test_fetch_counting():
    sat = SummedAreaTable(np.ones((4, 5)))
    reset_fetch_count()
    sat.window_sum_grid(1)         # one fetch per grid position
    assert fetch_count() == 20
    sat.window_sum_grid(0)
    sat.total()                    # the corner read is not a window
    assert fetch_count() == 40
    sat.window_sum_grid(2, out=np.empty((4, 5)))
    assert fetch_count() == 60
    # a transposed window fetches what a window does; a pass's later
    # channel blocks count nothing, forward or transposed
    acc, rows = np.empty((4, 5)), np.empty((4, 5))
    scatter_window(np.ones((4, 5)), 1, acc, rows, overwrite=True)
    assert fetch_count() == 80
    scatter_window(np.ones((4, 5)), 3, acc, rows)
    suffix_sum(acc)                # the suffix sum is not a window
    assert fetch_count() == 100
    sat.counted = False
    sat.window_sum_grid(1)
    scatter_window(np.ones((4, 5)), 1, acc, rows, counted=False)
    assert fetch_count() == 100
    reset_fetch_count()
    assert fetch_count() == 0


def inner(a, b):
    return float(np.vdot(a, b))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(h=st.integers(1, 12), w=st.integers(1, 12), extra=st.integers(0, 14),
       channels=st.lists(st.integers(1, 3), min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_scatter_and_suffix_sum_are_exact_adjoints(h, w, extra, channels, seed):
    """<W_r(F), Y> = <F, suffix_sum(scatter_window(Y))> for every radius up
    to past the grid's side, overwriting or adding into the accumulator, and
    suffix_sum alone is the transpose of the table build."""
    rng = np.random.default_rng(seed)
    shape = (h, w) + tuple(channels)
    radius = extra % (max(h, w) + 3)
    field, cot = rng.standard_normal(shape), rng.standard_normal(shape)
    sat = SummedAreaTable(field)
    want = inner(sat.window_sum_grid(radius), cot)
    scale = np.abs(field).sum() * np.abs(cot).sum()
    rows = np.full(shape, np.nan)     # scratch is written before it is read
    acc = np.full(shape, np.nan)      # overwrite needs no zero fill
    got = inner(field, suffix_sum(scatter_window(cot, radius, acc, rows, overwrite=True)))
    assert abs(got - want) <= 1e-12 * scale, (shape, radius)
    start = rng.standard_normal(shape)
    added = scatter_window(cot, radius, start.copy(), rows)
    np.testing.assert_allclose(added - start,
                               scatter_window(cot, radius, np.empty(shape), rows,
                                              overwrite=True), rtol=0, atol=1e-12 * scale)
    prefix = sat.table[1:, 1:]
    assert abs(inner(prefix, cot) - inner(field, suffix_sum(cot.copy()))) <= 1e-12 * scale


def test_sabotage_radius_offset():
    rng = np.random.default_rng(7)
    field = rng.standard_normal((6, 6))
    clean = SummedAreaTable(field)
    with sabotage_radius_offset(1):
        broken = SummedAreaTable(field)
    # a table built inside the context corrupts windows and the total alike
    assert broken.window_sum_grid(1)[2, 2] != pytest.approx(float(clean.window_sum_grid(1)[2, 2]))
    assert broken.total() != pytest.approx(float(clean.total()))
    # the fault does not leak out of the context
    after = SummedAreaTable(field)
    np.testing.assert_array_equal(after.window_sum_grid(1), clean.window_sum_grid(1))
    np.testing.assert_array_equal(after.total(), clean.total())


def test_validation():
    with pytest.raises(ValueError):
        SummedAreaTable(np.ones(5))
    sat = SummedAreaTable(np.ones((3, 3)))
    with pytest.raises(ValueError):
        sat.window_sum_grid(-1)
    with pytest.raises(ValueError):
        sat.window_sum_grid(1, out=np.empty((3, 4)))
    with pytest.raises(ValueError):
        scatter_window(np.ones((3, 3)), -1, np.empty((3, 3)), np.empty((3, 3)))
    with pytest.raises(ValueError):
        scatter_window(np.ones((3, 3)), 1, np.empty((3, 4)), np.empty((3, 3)))


def test_rebuild_takes_any_field():
    """A table refilled from fields of other channel and grid shapes, smaller
    and larger, equals a table built afresh each time, zero row and column
    included."""
    rng = np.random.default_rng(9)
    wide, narrow, taller = (rng.standard_normal(shape) for shape in
                            ((5, 7, 4, 3), (5, 7, 2, 3), (9, 7, 4, 3)))
    sat = SummedAreaTable(wide)
    for field in (narrow, wide, taller, narrow, FIELD_2X3):
        fresh = SummedAreaTable(field)
        assert sat.rebuild(field) is sat
        assert sat.shape == fresh.shape and sat.channels == fresh.channels
        np.testing.assert_array_equal(sat.table, fresh.table)
        for r in (0, 1, 3):
            np.testing.assert_array_equal(sat.window_sum_grid(r), fresh.window_sum_grid(r))
    with pytest.raises(ValueError, match="2-dimensional"):
        sat.rebuild(np.zeros(4))
