import numpy as np
import pytest

from ripplegrid.sat import (
    SummedAreaTable,
    band_sum,
    build_sat,
    fetch_count,
    reset_fetch_count,
    ring_sum,
    sabotage_radius_offset,
    window_sum,
)
from ripplegrid.vicinal import GridShape, PartitionKind, PartitionScheme, group_members

FIELD_2X3 = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


def brute_window(field, center, radius):
    """Direct summation over the clipped window; the oracle for window_sum."""
    h, w = field.shape[:2]
    i, j = center
    acc = np.zeros(field.shape[2:])
    for m in range(max(1, i - radius), min(h, i + radius) + 1):
        for n in range(max(1, j - radius), min(w, j + radius) + 1):
            acc = acc + field[m - 1, n - 1]
    return acc


def test_prefix_table_values():
    sat = build_sat(FIELD_2X3)
    assert sat.table[2, 3] == 21.0
    assert sat.table[1, 2] == 3.0
    assert np.all(sat.table[0, :] == 0.0)
    assert np.all(sat.table[:, 0] == 0.0)


def test_prefix_table_matches_brute_force():
    rng = np.random.default_rng(0)
    field = rng.standard_normal((7, 5, 4))
    sat = build_sat(field)
    for i in range(1, 8):
        for j in range(1, 6):
            np.testing.assert_allclose(
                sat.table[i, j], field[:i, :j].sum(axis=(0, 1)), atol=1e-12)


def test_window_sum_values():
    sat = build_sat(FIELD_2X3)
    assert window_sum(sat, (2, 2), 0) == 5.0
    assert window_sum(sat, (1, 1), 1) == 12.0   # cells (1,1),(1,2),(2,1),(2,2)
    assert window_sum(sat, (1, 3), 50) == 21.0  # window swallows the grid


def test_window_sum_matches_brute_force():
    rng = np.random.default_rng(1)
    field = rng.standard_normal((6, 9, 2))
    sat = build_sat(field)
    for i in range(1, 7):
        for j in range(1, 10):
            for r in range(0, 10):
                np.testing.assert_allclose(
                    sat.window_sum((i, j), r), brute_window(field, (i, j), r),
                    rtol=1e-12, atol=1e-12)


def test_ring_sum_matches_group_members():
    rng = np.random.default_rng(2)
    field = rng.standard_normal((9, 9, 3))
    sat = build_sat(field)
    scheme = PartitionScheme(kind=PartitionKind.UNIT_RING, r_max=3, tau=0.05)
    shape = GridShape(9, 9)
    for i in range(1, 10):
        for j in range(1, 10):
            for r in range(0, 9):
                members = group_members(scheme, shape, (i, j), r)
                want = sum((field[m - 1, n - 1] for m, n in members),
                           np.zeros(3))
                np.testing.assert_allclose(ring_sum(sat, (i, j), r), want,
                                           rtol=1e-10, atol=1e-10)


def test_ring_sum_degenerate_cases():
    sat = build_sat(FIELD_2X3)
    assert ring_sum(sat, (2, 2), 0) == 5.0
    # ring fully outside the grid is an empty sum
    assert ring_sum(sat, (1, 1), 40) == 0.0


def test_band_sum():
    rng = np.random.default_rng(3)
    field = rng.standard_normal((8, 8))
    sat = build_sat(field)
    np.testing.assert_allclose(band_sum(sat, (3, 5), 0, 100), field.sum())
    for r in range(5):
        np.testing.assert_allclose(band_sum(sat, (3, 5), r, r),
                                   ring_sum(sat, (3, 5), r), atol=1e-12)
    want = sum(ring_sum(sat, (4, 4), r) for r in (2, 3))
    np.testing.assert_allclose(band_sum(sat, (4, 4), 2, 3), want, atol=1e-12)
    with pytest.raises(ValueError):
        band_sum(sat, (1, 1), 3, 2)


def test_rings_telescope_to_total():
    rng = np.random.default_rng(4)
    field = rng.standard_normal((7, 11, 2))
    sat = build_sat(field)
    total = sat.total()
    for i in range(1, 8):
        for j in range(1, 12):
            acc = np.zeros(2)
            for r in range(11):
                acc = acc + ring_sum(sat, (i, j), r)
            np.testing.assert_allclose(acc, total, rtol=1e-9)


def test_window_sum_grid_matches_pointwise():
    rng = np.random.default_rng(5)
    field = rng.standard_normal((6, 7, 3))
    sat = build_sat(field)
    for r in range(0, 8):
        grid = sat.window_sum_grid(r)
        for i in range(1, 7):
            for j in range(1, 8):
                np.testing.assert_array_equal(grid[i - 1, j - 1],
                                              sat.window_sum((i, j), r))


def test_window_sum_grid_per_position_radii():
    rng = np.random.default_rng(6)
    field = rng.standard_normal((5, 5))
    sat = build_sat(field)
    radii = rng.integers(-1, 4, size=(5, 5))
    grid = sat.window_sum_grid(radii)
    for i in range(1, 6):
        for j in range(1, 6):
            r = int(radii[i - 1, j - 1])
            if r < 0:
                assert grid[i - 1, j - 1] == 0.0  # empty window, exact zero
            else:
                np.testing.assert_array_equal(grid[i - 1, j - 1],
                                              sat.window_sum((i, j), r))


def test_f32_field_accumulates_f64():
    field = np.full((50, 50), 0.1, dtype=np.float32)
    sat = build_sat(field)
    assert sat.table.dtype == np.float64
    # f32 accumulation of 2500 terms would drift far beyond this tolerance
    np.testing.assert_allclose(sat.total(), np.float64(np.float32(0.1)) * 2500,
                               rtol=1e-12)


def test_fetch_counting():
    field = np.ones((4, 4))
    sat = build_sat(field)
    reset_fetch_count()
    sat.window_sum((2, 2), 1)
    assert fetch_count() == 1
    sat.ring_sum((2, 2), 2)        # two windows
    assert fetch_count() == 3
    sat.window_sum_grid(1)         # one fetch per grid position
    assert fetch_count() == 3 + 16
    reset_fetch_count()
    assert fetch_count() == 0


def test_sabotage_radius_offset():
    rng = np.random.default_rng(7)
    field = rng.standard_normal((6, 6))
    clean = build_sat(field)
    with sabotage_radius_offset(1):
        broken = build_sat(field)
    # a table built inside the context corrupts windows and the total alike
    assert broken.window_sum((3, 3), 1) != pytest.approx(float(clean.window_sum((3, 3), 1)))
    assert broken.total() != pytest.approx(float(clean.total()))
    # the fault does not leak out of the context
    after = build_sat(field)
    np.testing.assert_array_equal(after.window_sum((3, 3), 1), clean.window_sum((3, 3), 1))
    np.testing.assert_array_equal(after.total(), clean.total())


def test_validation():
    with pytest.raises(ValueError):
        SummedAreaTable(np.ones(5))
    sat = build_sat(np.ones((3, 3)))
    with pytest.raises(ValueError):
        sat.window_sum((0, 1), 1)
    with pytest.raises(ValueError):
        sat.window_sum((1, 1), -1)
