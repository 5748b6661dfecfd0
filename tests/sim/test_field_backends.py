"""Neighbor-pair search against the grid-bucketed oracle."""

import numpy as np
import pytest

from repro.sim.field import RectangularField
from tests import oracles


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
            want = oracles.neighbor_pairs(field, positions)
            got = field.neighbor_pairs(positions)
            assert want == got

    def test_boundary_distance_agrees(self):
        # Two nodes exactly tx_range apart: the search and the oracle
        # use the same correctly-rounded hypot, so the boundary
        # decision matches.
        field = RectangularField(100.0, 100.0, 5.0)
        positions = [(0.0, 0.0), (3.0, 4.0), (0.0, 5.0), (0.0, 5.0001)]
        want = oracles.neighbor_pairs(field, positions)
        got = field.neighbor_pairs(positions)
        assert want == got
        assert (0, 1) in got and (0, 2) in got and (0, 3) not in got

    def test_returns_sorted_python_int_tuples(self):
        field = RectangularField(10.0, 10.0, 20.0)
        pairs = field.neighbor_pairs([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)])
        assert pairs == sorted(pairs)
        assert all(
            type(i) is int and type(j) is int for i, j in pairs
        )

    def test_small_inputs(self):
        field = RectangularField(10.0, 10.0, 5.0)
        assert field.neighbor_pairs([]) == []
        assert field.neighbor_pairs([(1.0, 1.0)]) == []

    def test_unknown_backend_rejected(self):
        # There is one search; a caller still naming a backend fails
        # loudly instead of having the choice ignored.
        field = RectangularField(10.0, 10.0, 5.0)
        with pytest.raises(TypeError):
            field.neighbor_pairs([(0.0, 0.0)], backend="kdtree")
