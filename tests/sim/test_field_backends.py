"""Neighbor-pair search against the grid-bucketed oracle."""

import numpy as np
import pytest

from repro.sim.field import RectangularField
from tests import oracles


def _oracle_rows(field, positions):
    return oracles.neighbor_pairs(field, positions).tolist()


def _assert_matches_oracle(field, positions):
    """The search's pair array, after checking its contract
    (:func:`oracles.pair_set`) and its rows against the oracle's."""
    got = field.neighbor_pairs(positions)
    oracles.pair_set(got)
    assert got.tolist() == _oracle_rows(field, positions)
    return got


def _uniform(rng, n, width, height):
    return [
        (float(x), float(y))
        for x, y in zip(rng.uniform(0, width, n), rng.uniform(0, height, n))
    ]


class TestNeighborPairBackends:
    def test_identical_pairs_random_fields(self):
        rng = np.random.default_rng(11)
        for trial in range(15):
            width = float(rng.uniform(50, 1500))
            height = float(rng.uniform(50, 1500))
            tx_range = float(rng.uniform(10, max(width, height)))
            field = RectangularField(width, height, tx_range)
            n = int(rng.integers(0, 250))
            _assert_matches_oracle(field, _uniform(rng, n, width, height))

    def test_boundary_distance_agrees(self):
        # Two nodes exactly tx_range apart: the search and the oracle
        # use the same correctly-rounded hypot, so the boundary
        # decision matches.
        field = RectangularField(100.0, 100.0, 5.0)
        positions = [(0.0, 0.0), (3.0, 4.0), (0.0, 5.0), (0.0, 5.0001)]
        got = field.neighbor_pairs(positions)
        oracles.pair_set(got)
        rows = got.tolist()
        assert rows == _oracle_rows(field, positions)
        assert [0, 1] in rows and [0, 2] in rows and [0, 3] not in rows

    def test_returns_lexicographic_int64_array(self):
        field = RectangularField(10.0, 10.0, 20.0)
        pairs = field.neighbor_pairs([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)])
        oracles.pair_set(pairs)
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


class TestCellGridEdges:
    def test_nodes_on_cell_edges(self):
        # Coordinates at multiples of tx_range sit on cell boundaries,
        # including the far edge x = width / y = height; pairs exactly
        # one range apart straddle two cells.
        rng = np.random.default_rng(3)
        for width, height, tx_range in [
            (500.0, 400.0, 100.0),
            (450.0, 330.0, 100.0),
            # 0.1 * 3 is not 0.3: multiples of it round near cell edges.
            (3.0, 2.1, 0.1 * 3),
        ]:
            field = RectangularField(width, height, tx_range)
            xs = np.arange(0.0, width + tx_range / 2, tx_range)
            ys = np.arange(0.0, height + tx_range / 2, tx_range)
            xs = np.minimum(np.append(xs, width), width)
            ys = np.minimum(np.append(ys, height), height)
            lattice = [(float(x), float(y)) for x in xs for y in ys]
            edges = [(float(x), float(rng.uniform(0, height))) for x in xs]
            edges += [(float(rng.uniform(0, width)), float(y)) for y in ys]
            positions = lattice + edges + _uniform(rng, 60, width, height)
            got = _assert_matches_oracle(field, positions)
            assert len(got) > 0

    def test_every_node_in_one_cell(self):
        rng = np.random.default_rng(4)
        field = RectangularField(1000.0, 1000.0, 100.0)
        positions = [
            (float(x), float(y))
            for x, y in rng.uniform(200.0, 299.0, size=(80, 2))
        ]
        got = _assert_matches_oracle(field, positions)
        assert 0 < len(got) < 80 * 79 // 2

    @pytest.mark.parametrize("scale", [1.0, 1.5, 10.0])
    def test_range_at_least_field_size(self, scale):
        # At scale 1.0 nodes on the far edges fall in a second cell.
        rng = np.random.default_rng(5)
        width, height = 120.0, 90.0
        field = RectangularField(width, height, scale * width)
        positions = _uniform(rng, 70, width, height)
        positions += [(width, height), (width, 0.0), (0.0, height)]
        got = _assert_matches_oracle(field, positions)
        if scale > 1.0:
            # Every pair is within range: the field's diagonal is 150.
            assert len(got) == 73 * 72 // 2

    @pytest.mark.parametrize("shape", [(3000.0, 60.0), (60.0, 3000.0)])
    def test_single_row_or_column_of_cells(self, shape):
        rng = np.random.default_rng(6)
        width, height = shape
        field = RectangularField(width, height, 100.0)
        got = _assert_matches_oracle(
            field, _uniform(rng, 400, width, height)
        )
        assert len(got) > 0

    def test_paper_density_10k_nodes(self):
        rng = np.random.default_rng(7)
        side = 5000.0 * np.sqrt(10_000 / 2000)
        field = RectangularField(side, side, 300.0)
        got = _assert_matches_oracle(
            field, _uniform(rng, 10_000, side, side)
        )
        assert len(got) > 100_000
