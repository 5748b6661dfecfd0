"""Neighbor-pair search against the grid-bucketed oracle."""

import numpy as np
import pytest

from repro.sim.field import RectangularField
from tests import oracles


def _assert_pair_array(pairs):
    """A ``(k, 2)`` int64 array of ``i < j`` rows in lexicographic
    order."""
    assert isinstance(pairs, np.ndarray)
    assert pairs.dtype == np.int64
    assert pairs.ndim == 2 and pairs.shape[1] == 2
    assert (pairs[:, 0] < pairs[:, 1]).all()
    rows = pairs.tolist()
    assert rows == sorted(rows)


def _oracle_rows(field, positions):
    return [list(pair) for pair in oracles.neighbor_pairs(field, positions)]


class TestNeighborPairBackends:
    def test_identical_pairs_random_fields(self):
        rng = np.random.default_rng(11)
        for trial in range(15):
            width = float(rng.uniform(50, 1500))
            height = float(rng.uniform(50, 1500))
            tx_range = float(rng.uniform(10, max(width, height)))
            field = RectangularField(width, height, tx_range)
            n = int(rng.integers(0, 250))
            positions = [
                (float(x), float(y))
                for x, y in zip(
                    rng.uniform(0, width, n), rng.uniform(0, height, n)
                )
            ]
            got = field.neighbor_pairs(positions)
            _assert_pair_array(got)
            assert got.tolist() == _oracle_rows(field, positions)

    def test_boundary_distance_agrees(self):
        # Two nodes exactly tx_range apart: the search and the oracle
        # use the same correctly-rounded hypot, so the boundary
        # decision matches.
        field = RectangularField(100.0, 100.0, 5.0)
        positions = [(0.0, 0.0), (3.0, 4.0), (0.0, 5.0), (0.0, 5.0001)]
        got = field.neighbor_pairs(positions)
        _assert_pair_array(got)
        rows = got.tolist()
        assert rows == _oracle_rows(field, positions)
        assert [0, 1] in rows and [0, 2] in rows and [0, 3] not in rows

    def test_returns_lexicographic_int64_array(self):
        field = RectangularField(10.0, 10.0, 20.0)
        pairs = field.neighbor_pairs([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)])
        _assert_pair_array(pairs)
        assert pairs.tolist() == [[0, 1], [0, 2], [1, 2]]

    def test_small_inputs(self):
        field = RectangularField(10.0, 10.0, 5.0)
        for positions in ([], [(1.0, 1.0)], [(1.0, 1.0), (9.0, 9.0)]):
            pairs = field.neighbor_pairs(positions)
            assert pairs.dtype == np.int64 and pairs.shape == (0, 2)

    def test_unknown_backend_rejected(self):
        # There is one search; a caller still naming a backend fails
        # loudly instead of having the choice ignored.
        field = RectangularField(10.0, 10.0, 5.0)
        with pytest.raises(TypeError):
            field.neighbor_pairs([(0.0, 0.0)], backend="kdtree")
