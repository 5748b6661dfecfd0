"""Pre-distribution assignment against the per-subset loop oracle."""

import numpy as np
import pytest

from repro.predistribution.authority import PreDistributor
from tests import oracles


class TestAssignBackends:
    @pytest.mark.parametrize(
        "n,m,l",
        [
            (10, 3, 2),       # no virtual nodes
            (11, 3, 4),       # virtual padding
            (40, 10, 40),     # one subset per round
            (97, 7, 13),      # awkward arithmetic
        ],
    )
    def test_identical_assignments(self, n, m, l):
        distributor = PreDistributor(n, m, l)
        for seed in (0, 1, 99):
            want = oracles.assign(distributor, np.random.default_rng(seed))
            got = distributor.assign(np.random.default_rng(seed))
            assert want.node_codes == got.node_codes
            assert want.code_holders == got.code_holders
            # Key insertion order matters for deterministic iteration.
            assert list(want.code_holders) == list(got.code_holders)
            assert want.pool_size == got.pool_size

    def test_same_rng_stream_consumption(self):
        # Both draw exactly one permutation per round, so a draw made
        # *after* assign must agree between them.
        distributor = PreDistributor(23, 5, 4)
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        oracles.assign(distributor, rng_a)
        distributor.assign(rng_b)
        assert rng_a.integers(0, 1 << 30) == rng_b.integers(0, 1 << 30)

    def test_node_codes_are_python_ints(self):
        assignment = PreDistributor(9, 2, 3).assign(
            np.random.default_rng(3)
        )
        for codes in assignment.node_codes:
            assert all(type(code) is int for code in codes)
        for holders in assignment.code_holders.values():
            assert all(type(node) is int for node in holders)

    def test_unknown_backend_rejected(self):
        # There is one assignment; a caller still naming a backend
        # fails loudly instead of having the choice ignored.
        with pytest.raises(TypeError):
            PreDistributor(9, 2, 3).assign(
                np.random.default_rng(0), backend="fast"
            )
