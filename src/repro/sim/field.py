"""2-D field geometry and neighbor queries.

The paper's evaluation places 2000 nodes uniformly in a 5000 x 5000 m
field with a 300 m transmission range.  :class:`RectangularField` answers
range queries over square cells one range wide, so building the
physical-neighbor graph takes time linear in the node count.

:func:`lens_overlap_fraction` is the geometric constant of Theorem 3:
two circles of radius ``a`` whose centers are at most ``a`` apart overlap
in expectation over the distance by ``(pi - 3*sqrt(3)/4) a^2``, i.e. a
fraction ``1 - 3*sqrt(3) / (4 pi)`` of one disc's area.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.validation import check_positive

__all__ = ["RectangularField", "lens_overlap_fraction"]

Position = Tuple[float, float]


def lens_overlap_fraction() -> float:
    """Expected overlap fraction ``1 - 3*sqrt(3)/(4*pi)`` of Theorem 3."""
    return 1.0 - 3.0 * math.sqrt(3.0) / (4.0 * math.pi)


class RectangularField:
    """A ``width x height`` field with a fixed transmission range.

    Parameters
    ----------
    width, height:
        Field dimensions in meters.
    tx_range:
        Radio range ``a``; two nodes are physical neighbors iff their
        distance is at most ``tx_range``.
    """

    def __init__(self, width: float, height: float, tx_range: float) -> None:
        check_positive("width", width)
        check_positive("height", height)
        check_positive("tx_range", tx_range)
        self._width = float(width)
        self._height = float(height)
        self._range = float(tx_range)

    @property
    def width(self) -> float:
        """Field width in meters."""
        return self._width

    @property
    def height(self) -> float:
        """Field height in meters."""
        return self._height

    @property
    def tx_range(self) -> float:
        """Transmission range in meters."""
        return self._range

    @property
    def area(self) -> float:
        """Field area in square meters."""
        return self._width * self._height

    def contains(self, position: Position) -> bool:
        """Whether a position lies inside the field."""
        x, y = position
        return 0 <= x <= self._width and 0 <= y <= self._height

    def require_inside(self, position: Position) -> Position:
        """Validate a position; return it."""
        if not self.contains(position):
            raise ConfigurationError(
                f"position {position} outside {self._width}x{self._height} "
                "field"
            )
        return position

    @staticmethod
    def distance(a: Position, b: Position) -> float:
        """Euclidean distance."""
        return math.hypot(a[0] - b[0], a[1] - b[1])

    def in_range(self, a: Position, b: Position) -> bool:
        """Physical-neighbor test."""
        return self.distance(a, b) <= self._range

    def expected_neighbors(self, n_nodes: int) -> float:
        """Mean physical degree ``g`` for uniform placement (ignoring
        border effects): ``(n - 1) * pi a^2 / area``."""
        check_positive("n_nodes", n_nodes)
        return (n_nodes - 1) * math.pi * self._range**2 / self.area

    def neighbor_pairs(self, positions: Sequence[Position]) -> np.ndarray:
        """All index pairs ``(i, j), i < j`` within transmission range,
        as a ``(k, 2)`` int64 array in lexicographic order (``(0, 2)``
        when there are none).  ``positions`` may be the ``(n, 2)``
        float64 array :func:`~repro.sim.mobility.uniform_positions`
        returns, which is read without a copy.

        Nodes are bucketed into square cells of side ``tx_range`` (any
        in-range pair sits in the same or adjacent cells) and sorted by
        cell key.  Each node is joined with the later nodes of its own
        cell and with every node of the four half-neighbor cells
        ``(0, +1), (+1, -1), (+1, 0), (+1, +1)``, so each adjacent cell
        pair is visited once; a cell's node range comes from one
        ``searchsorted`` over the sorted cell keys.  Candidates pass a
        squared-distance screen and are confirmed with ``np.hypot``, the
        correctly-rounded double :meth:`in_range`'s ``math.hypot``
        computes, so the boundary decision matches it bit for bit.
        Survivors become pair keys ``i * n + j``; one sort of the keys
        gives the lexicographic order.  Time and memory are linear in
        the node count at fixed density.
        """
        n = len(positions)
        if n < 2:
            return np.empty((0, 2), dtype=np.int64)
        pos = np.asarray(positions, dtype=np.float64)
        radius = self._range
        screen = radius * radius * (1.0 + 1e-9)
        cell_x = np.floor_divide(pos[:, 0], radius).astype(np.int64)
        cell_y = np.floor_divide(pos[:, 1], radius).astype(np.int64)
        cell_y -= cell_y.min()
        # One always-empty row per column: a step off the top or bottom
        # of a column lands in it, never in a neighboring column's cell.
        stride = int(cell_y.max()) + 2
        cell_key = cell_x * stride + cell_y
        order = np.argsort(cell_key, kind="stable")
        sorted_key = cell_key[order]
        x = pos[order, 0]
        y = pos[order, 1]
        first = np.flatnonzero(sorted_key[1:] != sorted_key[:-1]) + 1
        cell_start = np.concatenate([[0], first])
        cell_size = np.diff(np.concatenate([cell_start, [n]]))
        cells = sorted_key[cell_start]
        cell_of = np.repeat(np.arange(cells.size), cell_size)
        slot = np.arange(n)
        keys: List[np.ndarray] = []

        def join(starts: np.ndarray, counts: np.ndarray) -> None:
            # Sorted slot ``slot[owner]`` against each slot of its range.
            owner = np.repeat(slot, counts)
            shift = starts - (np.cumsum(counts) - counts)
            other = np.arange(owner.size) + shift[owner]
            dx = x[owner] - x[other]
            dy = y[owner] - y[other]
            near = dx * dx + dy * dy <= screen
            owner, other = owner[near], other[near]
            exact = np.hypot(x[owner] - x[other], y[owner] - y[other])
            keep = exact <= radius
            low, high = order[owner[keep]], order[other[keep]]
            keys.append(np.minimum(low, high) * n + np.maximum(low, high))

        join(slot + 1, (cell_start + cell_size)[cell_of] - slot - 1)
        for offset in (1, stride - 1, stride, stride + 1):
            target = cells + offset
            index = np.searchsorted(cells, target)
            index[index == cells.size] = 0
            found = cells[index] == target
            join(
                cell_start[index][cell_of],
                np.where(found, cell_size[index], 0)[cell_of],
            )
        return np.stack(np.divmod(np.sort(np.concatenate(keys)), n), axis=1)

    def adjacency(
        self, positions: Sequence[Position]
    ) -> Dict[int, Set[int]]:
        """Physical-neighbor sets keyed by node index."""
        neighbors: Dict[int, Set[int]] = {
            i: set() for i in range(len(positions))
        }
        for i, j in self.neighbor_pairs(positions).tolist():
            neighbors[i].add(j)
            neighbors[j].add(i)
        return neighbors

    def common_neighbors(
        self, adjacency: Dict[int, Set[int]], a: int, b: int
    ) -> Set[int]:
        """Nodes adjacent to both ``a`` and ``b`` (excluding the pair)."""
        return (adjacency[a] & adjacency[b]) - {a, b}
