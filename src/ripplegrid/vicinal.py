"""Chebyshev-distance neighborhoods over 2D token grids.

A query position partitions the grid into concentric groups by Chebyshev
distance: either one group per exact distance (unit rings) or one group per
power-of-two distance band (dyadic). Group membership is symmetric in the
two positions, which is what lets gradients reuse the forward machinery.

group_members lists one group's 1-based (row, col) positions, and
query_groups walks every query's groups for the quadratic oracles.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

Position = tuple[int, int]


@dataclass(frozen=True)
class GridShape:
    height: int
    width: int

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise ValueError(f"grid sides must be >= 1, got {self.height}x{self.width}")


class PartitionKind(Enum):
    UNIT_RING = "unit-ring"
    DYADIC = "dyadic"


@dataclass(frozen=True)
class PartitionScheme:
    """How the grid is grouped around each query, plus weighting bounds.

    r_max caps how many group indices carry individually generated weights;
    tau is the halting threshold for adaptive truncation of learned weights.
    """

    kind: PartitionKind
    r_max: int
    tau: float

    def __post_init__(self):
        if self.r_max < 1:
            raise ValueError(f"r_max must be >= 1, got {self.r_max}")
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {self.tau}")


def _check_position(pos: Position, shape: GridShape | None, name: str) -> None:
    i, j = pos
    if i < 1 or j < 1:
        raise ValueError(f"{name} {pos} is outside the grid (positions are 1-based)")
    if shape is not None and (i > shape.height or j > shape.width):
        raise ValueError(f"{name} {pos} is outside the {shape.height}x{shape.width} grid")


def group_span(kind: PartitionKind, r: int) -> tuple[int, int]:
    """Inclusive distance band [lo, hi] covered by group r."""
    if r < 0:
        raise ValueError("group index must be >= 0")
    if kind is PartitionKind.UNIT_RING:
        return r, r
    if r == 0:
        return 0, 0
    return 2 ** (r - 1), 2 ** r - 1


def group_members(scheme: PartitionScheme, shape: GridShape, query: Position,
                  r: int) -> list[Position]:
    """All grid positions in group r of the query. Clipping at the boundary can
    leave a group empty; an empty list is a legal result."""
    _check_position(query, shape, "query")
    if r < 0:
        raise ValueError("group index must be >= 0")
    lo, hi = group_span(scheme.kind, r)
    i, j = query
    h, w = shape.height, shape.width
    if lo == hi:  # thin ring: walk the perimeter in O(r)
        rr = lo
        if rr == 0:
            return [(i, j)]
        members = []
        top, bot = i - rr, i + rr
        left, right = j - rr, j + rr
        if top >= 1:
            members.extend((top, c) for c in range(max(1, left), min(w, right) + 1))
        for row in range(max(1, top + 1), min(h, bot - 1) + 1):
            if left >= 1:
                members.append((row, left))
            if right <= w:
                members.append((row, right))
        if bot <= h:
            members.extend((bot, c) for c in range(max(1, left), min(w, right) + 1))
        return members
    # thick band: scan the bounding box and filter by distance
    members = []
    for row in range(max(1, i - hi), min(h, i + hi) + 1):
        for col in range(max(1, j - hi), min(w, j + hi) + 1):
            if lo <= max(abs(row - i), abs(col - j)) <= hi:
                members.append((row, col))
    return members


def query_groups(scheme: PartitionScheme, groups: np.ndarray):
    """Every query's non-empty groups, queries in row-major order: yields
    (i, j, r, rows, cols) for each group r below groups[i, j] that has
    members, with 0-based query (i, j) and the members' 0-based rows and
    columns as int64 arrays in group_members' order. ``groups`` is (H, W)."""
    shape = GridShape(*groups.shape)
    for i, j in np.ndindex(groups.shape):
        for r in range(int(groups[i, j])):
            members = group_members(scheme, shape, (i + 1, j + 1), r)
            if members:
                rows, cols = (np.array(members, dtype=np.int64) - 1).T
                yield i, j, r, rows, cols


def num_groups_grid(kind: PartitionKind, shape: GridShape) -> np.ndarray:
    """Every query's group count, the groups whose distance band meets the
    grid, shape (H, W) int64; reference.num_groups is its one-query oracle."""
    h, w = shape.height, shape.width
    rows = np.arange(1, h + 1)[:, None]
    cols = np.arange(1, w + 1)[None, :]
    far = np.maximum(np.maximum(rows - 1, h - rows), np.maximum(cols - 1, w - cols))
    if kind is PartitionKind.UNIT_RING:
        return far + 1
    out = np.ones_like(far)
    pos = far >= 1
    # bit_length of the distance, elementwise
    out[pos] = 1 + np.ceil(np.log2(far[pos] + 1)).astype(np.int64)
    return out
