import numpy as np
import pytest

from ripplegrid.reference import chebyshev, group_of_distance, max_chebyshev, num_groups
from ripplegrid.vicinal import (
    GridShape,
    PartitionKind,
    PartitionScheme,
    group_members,
    group_span,
    num_groups_grid,
)

UNIT = PartitionScheme(kind=PartitionKind.UNIT_RING, r_max=3, tau=0.05)
DYADIC = PartitionScheme(kind=PartitionKind.DYADIC, r_max=3, tau=0.05)


def test_chebyshev_values():
    assert chebyshev((2, 3), (2, 3)) == 0
    assert chebyshev((1, 1), (4, 3)) == 3


def test_chebyshev_symmetry():
    rng = np.random.default_rng(0)
    shape = GridShape(10, 10)
    for _ in range(100):
        a = tuple(rng.integers(1, 11, size=2))
        b = tuple(rng.integers(1, 11, size=2))
        assert chebyshev(a, b, shape) == chebyshev(b, a, shape)


def test_chebyshev_rejects_out_of_grid():
    with pytest.raises(ValueError):
        chebyshev((0, 1), (1, 1), GridShape(3, 3))
    with pytest.raises(ValueError):
        chebyshev((1, 1), (4, 1), GridShape(3, 3))


def test_group_index_values():
    assert group_of_distance(UNIT.kind, chebyshev((5, 5), (3, 7))) == 2
    # distance 5 lands in the dyadic band 4 <= d < 8
    assert group_of_distance(DYADIC.kind, chebyshev((1, 1), (1, 6))) == 3
    assert group_of_distance(DYADIC.kind, chebyshev((4, 4), (4, 4))) == 0


def test_group_of_distance_dyadic_bands():
    expected = [0, 1, 2, 2, 3, 3, 3, 3, 4]
    assert [group_of_distance(PartitionKind.DYADIC, d) for d in range(9)] == expected


def test_group_span_inverts_group_of_distance():
    assert group_span(PartitionKind.UNIT_RING, 2) == (2, 2)
    assert group_span(PartitionKind.DYADIC, 0) == (0, 0)
    assert group_span(PartitionKind.DYADIC, 1) == (1, 1)
    assert group_span(PartitionKind.DYADIC, 2) == (2, 3)
    assert group_span(PartitionKind.DYADIC, 3) == (4, 7)
    for kind in PartitionKind:
        for r in range(6):
            lo, hi = group_span(kind, r)
            for d in range(lo, hi + 1):
                assert group_of_distance(kind, d) == r


def test_group_members_ring_sizes():
    shape = GridShape(9, 9)
    ring1 = group_members(UNIT, shape, (5, 5), 1)
    assert len(ring1) == 8
    assert set(ring1) == {(i, j) for i in range(4, 7) for j in range(4, 7)} - {(5, 5)}
    assert len(group_members(UNIT, shape, (5, 5), 2)) == 16
    assert len(group_members(UNIT, shape, (1, 1), 1)) == 3


def test_group_members_clipping_can_empty():
    # ring 5 around the center of a 9x9 grid falls fully outside
    assert group_members(UNIT, GridShape(9, 9), (5, 5), 5) == []


def test_num_groups_examples():
    shape = GridShape(9, 9)
    assert num_groups(UNIT, shape, (5, 5)) == 5
    assert num_groups(UNIT, shape, (1, 1)) == 9
    # dyadic corner: groups {0}, {1}, {2,3}, {4..7}, {8} -> 5
    assert num_groups(DYADIC, shape, (1, 1)) == 5
    assert num_groups(UNIT, GridShape(1, 1), (1, 1)) == 1
    assert num_groups(DYADIC, GridShape(1, 1), (1, 1)) == 1


def test_max_chebyshev():
    shape = GridShape(9, 9)
    assert max_chebyshev(shape, (5, 5)) == 4
    assert max_chebyshev(shape, (1, 1)) == 8
    assert max_chebyshev(GridShape(3, 7), (2, 2)) == 5


def test_partition_property_disjoint_cover():
    """Groups of one query are pairwise disjoint and cover the full grid."""
    for h, w in [(1, 1), (2, 5), (7, 7), (12, 12)]:
        shape = GridShape(h, w)
        for scheme in (UNIT, DYADIC):
            for query in [(1, 1), (h, w), ((h + 1) // 2, (w + 1) // 2)]:
                seen = set()
                for r in range(num_groups(scheme, shape, query)):
                    members = group_members(scheme, shape, query, r)
                    assert seen.isdisjoint(members)
                    seen.update(members)
                assert len(seen) == h * w


def test_membership_symmetry():
    # (m,n) in N_r(i,j) iff (i,j) in N_r(m,n); bands depend only on distance
    rng = np.random.default_rng(3)
    shape = GridShape(8, 6)
    for scheme in (UNIT, DYADIC):
        for _ in range(50):
            a = (int(rng.integers(1, 9)), int(rng.integers(1, 7)))
            b = (int(rng.integers(1, 9)), int(rng.integers(1, 7)))
            r = group_of_distance(scheme.kind, chebyshev(a, b))
            assert b in group_members(scheme, shape, a, r)
            assert a in group_members(scheme, shape, b, r)


def test_num_groups_grid_matches_scalar():
    for h, w in [(1, 1), (4, 9), (9, 9), (5, 12)]:
        shape = GridShape(h, w)
        for scheme in (UNIT, DYADIC):
            grid = num_groups_grid(scheme.kind, shape)
            assert grid.shape == (h, w)
            for i in range(1, h + 1):
                for j in range(1, w + 1):
                    assert grid[i - 1, j - 1] == num_groups(scheme, shape, (i, j))


def test_dyadic_group_count_is_logarithmic():
    # 1 + ceil(log2(maxdist+1)) groups; bit_length(m) == ceil(log2(m+1))
    for side in (4, 9, 16, 31):
        shape = GridShape(side, side)
        grid = num_groups_grid(PartitionKind.DYADIC, shape)
        for i in range(1, side + 1):
            for j in range(1, side + 1):
                far = max_chebyshev(shape, (i, j))
                assert grid[i - 1, j - 1] <= 1 + int(far).bit_length()


def test_scheme_validation():
    with pytest.raises(ValueError):
        PartitionScheme(kind=PartitionKind.UNIT_RING, r_max=0, tau=0.05)
    with pytest.raises(ValueError):
        PartitionScheme(kind=PartitionKind.UNIT_RING, r_max=2, tau=0.0)
    with pytest.raises(ValueError):
        PartitionScheme(kind=PartitionKind.UNIT_RING, r_max=2, tau=1.0)
    with pytest.raises(ValueError):
        GridShape(0, 3)
