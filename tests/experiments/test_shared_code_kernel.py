"""The shared-code-count kernel against the dense boolean sweep.

The runner counts each pair's shared codes from the assignment's
``n x m`` code array; the oracle in :mod:`tests.oracles` ANDs rows of a
dense node-by-code membership matrix.  These tests check the two pair
by pair, the sampled outcomes they lead to, the round invariant the
kernel relies on, and that the kernel's memory grows linearly in ``n``
rather than quadratically.
"""

import contextlib
import math
import tracemalloc

import numpy as np
import pytest

from repro.adversary.compromise import CompromiseModel
from repro.adversary.jammer import JammerStrategy, JammingModel
from repro.core.config import JRSNDConfig
from repro.experiments.runner import (
    NetworkExperiment,
    compromised_mask,
    shared_code_counts,
)
from repro.predistribution.authority import PreDistributor
from repro.sim.field import RectangularField
from repro.sim.mobility import uniform_positions
from tests import oracles

#: 250 nodes with l = 12: w = 21 subsets, so 2 virtual nodes pad each
#: round.
PADDED = JRSNDConfig(
    n_nodes=250,
    codes_per_node=20,
    share_count=12,
    n_compromised=15,
    field_width=1500.0,
    field_height=1500.0,
    tx_range=300.0,
)


def _assignment(config, seed, extra_nodes=0):
    distributor = PreDistributor(
        config.n_nodes, config.codes_per_node, config.share_count
    )
    rng = np.random.default_rng(seed)
    assignment = distributor.assign(rng)
    if extra_nodes:
        assignment, _ = distributor.admit_new_nodes(
            assignment, extra_nodes, rng
        )
    return assignment


def _pairs(n_nodes, seed, count=9000):
    """Random distinct-endpoint pairs, more than two sweep chunks."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, n_nodes, size=count)
    b = rng.integers(0, n_nodes, size=count)
    keep = a != b
    return np.stack([a[keep], b[keep]], axis=1).astype(np.int64)


def _oracle_counts(assignment, compromised, pairs):
    """Per-pair counts straight from the code sets."""
    safe, comp = [], []
    for a, b in pairs.tolist():
        shared = set(assignment.node_codes[a]) & set(
            assignment.node_codes[b]
        )
        hit = sum(1 for code in shared if compromised[code])
        comp.append(hit)
        safe.append(len(shared) - hit)
    return np.array(safe), np.array(comp)


CASES = {
    "virtual-padding": dict(q=15, extra_nodes=0),
    "no-compromise": dict(q=0, extra_nodes=0),
    # 60 joiners exhaust the 2 virtual slots and force extra rounds,
    # so codes gain holders beyond l.
    "late-joiners": dict(q=15, extra_nodes=60),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    spec = CASES[request.param]
    assignment = _assignment(PADDED, seed=4, extra_nodes=spec["extra_nodes"])
    if spec["extra_nodes"]:
        assert assignment.max_share_count() > PADDED.share_count
    config = PADDED.replace(n_compromised=spec["q"])
    compromise = CompromiseModel(assignment).compromise_random(
        spec["q"], np.random.default_rng(5)
    )
    pairs = _pairs(assignment.n_nodes, seed=6)
    return config, assignment, compromise, pairs


def _jamming(config, compromise, strategy):
    return JammingModel.from_compromise(
        strategy, compromise, config.z_jamming_signals, config.mu
    )


#: Pairs per D-NDP sweep chunk, part of the runner's rng contract.
CHUNK = 4096


class TestRoundInvariant:
    @pytest.mark.parametrize("extra_nodes", [0, 3, 60])
    def test_column_r_holds_round_r_codes(self, extra_nodes):
        assignment = _assignment(PADDED, seed=2, extra_nodes=extra_nodes)
        w = math.ceil(PADDED.n_nodes / PADDED.share_count)
        rounds = np.arange(PADDED.codes_per_node)
        assert (assignment.codes // w == rounds[None, :]).all()


class TestPairExactCounts:
    @pytest.mark.parametrize(
        "strategy", [JammerStrategy.REACTIVE, JammerStrategy.RANDOM]
    )
    def test_kernel_matches_boolean_sweep(self, case, strategy):
        config, assignment, compromise, pairs = case
        jamming = _jamming(config, compromise, strategy)
        experiment = NetworkExperiment(config, seed=0, strategy=strategy)
        held = compromised_mask(assignment.pool_size, jamming)[
            assignment.codes
        ]
        want = [
            (start, *oracles.shared_code_counts(
                assignment.codes, held, pairs[start : start + CHUNK]
            ))
            for start in range(0, len(pairs), CHUNK)
        ]
        got = list(
            experiment._shared_code_counts(pairs, assignment, jamming)
        )
        assert len(want) == len(got) == 3
        for (start_w, safe_w, comp_w), (start_g, safe_g, comp_g) in zip(
            want, got
        ):
            assert start_w == start_g
            np.testing.assert_array_equal(safe_w, safe_g)
            np.testing.assert_array_equal(comp_w, comp_g)

    def test_kernel_matches_code_sets(self, case):
        _, assignment, compromise, pairs = case
        compromised = np.zeros(assignment.pool_size, dtype=bool)
        compromised[sorted(compromise.codes)] = True
        jamming = JammingModel(
            JammerStrategy.REACTIVE, compromise.codes, 1, 1.0
        )
        np.testing.assert_array_equal(
            compromised_mask(assignment.pool_size, jamming), compromised
        )
        # The runner's prepared arrays: an int32 copy of the code array
        # and the node x round mask of codes the jammer holds.
        safe, comp = shared_code_counts(
            assignment.codes.astype(np.int32),
            compromised[assignment.codes],
            pairs[:500],
        )
        want_safe, want_comp = _oracle_counts(
            assignment, compromised, pairs[:500]
        )
        np.testing.assert_array_equal(safe, want_safe)
        np.testing.assert_array_equal(comp, want_comp)
        assert safe.sum() > 0
        assert (comp.sum() > 0) == bool(compromise.codes)


class TestPairExactOutcomes:
    @pytest.mark.parametrize("phy", ["message", "chipless"])
    @pytest.mark.parametrize(
        "strategy", [JammerStrategy.REACTIVE, JammerStrategy.RANDOM]
    )
    def test_outcomes_identical_across_backends(self, case, phy, strategy):
        config, assignment, compromise, pairs = case
        config = config.replace(phy_backend=phy)
        jamming = _jamming(config, compromise, strategy)
        experiment = NetworkExperiment(config, seed=0, strategy=strategy)
        sample = (
            experiment._sample_dndp_chipless if phy == "chipless"
            else experiment._sample_dndp
        )
        outcomes = []
        for pipeline in (oracles.reference_pipeline, contextlib.nullcontext):
            rng = np.random.default_rng(11)
            with pipeline():
                outcomes.append(sample(pairs, assignment, jamming, rng))
            # Same rng consumption, too.
            outcomes.append(rng.integers(0, 1 << 30, size=4))
        np.testing.assert_array_equal(outcomes[0], outcomes[2])
        np.testing.assert_array_equal(outcomes[1], outcomes[3])
        assert 0 < outcomes[0].sum() < len(pairs)


def _dndp_alloc_peak(n_nodes):
    """Traced allocation peak of one chipless D-NDP sweep on a
    paper-density field of ``n_nodes`` nodes."""
    base = JRSNDConfig(phy_backend="chipless")
    scale = math.sqrt(n_nodes / base.n_nodes)
    config = base.replace(
        n_nodes=n_nodes,
        field_width=base.field_width * scale,
        field_height=base.field_height * scale,
    )
    rng = np.random.default_rng(3)
    field = RectangularField(
        config.field_width, config.field_height, config.tx_range
    )
    pairs = np.asarray(
        field.neighbor_pairs(uniform_positions(field, n_nodes, rng)),
        dtype=np.int64,
    )
    assignment = _assignment(config, seed=3)
    compromise = CompromiseModel(assignment).compromise_random(
        config.n_compromised, rng
    )
    jamming = _jamming(config, compromise, JammerStrategy.RANDOM)
    experiment = NetworkExperiment(
        config, seed=0, strategy=JammerStrategy.RANDOM
    )
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        experiment._sample_dndp_chipless(pairs, assignment, jamming, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - before


class TestMemoryScaling:
    def test_dndp_peak_linear_in_nodes(self):
        # A dense node x code matrix has n * s = n^2 m / l cells, so 4x
        # the nodes at equal density tends to 16x the peak (8x at these
        # sizes, where the per-chunk row gathers still weigh in); the
        # kernel's peak is its fixed chunk temporaries plus O(n) state.
        small = _dndp_alloc_peak(800)
        large = _dndp_alloc_peak(3200)
        assert large < 6 * small, (small, large)
