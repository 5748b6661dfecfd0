"""The M-NDP closure against the networkx shortest-path oracle."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from repro.core.config import JRSNDConfig
from repro.core.mndp import LogicalGraph, MNDPSampler
from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry, installed
from repro.sim.field import RectangularField
from repro.sim.mobility import uniform_positions
from tests import oracles


def _random_instance(rnd):
    n = rnd.randrange(5, 35)
    graph = LogicalGraph(n)
    for _ in range(rnd.randrange(0, 3 * n)):
        a, b = rnd.sample(range(n), 2)
        graph.add_link(a, b)
    pairs = sorted(
        {
            tuple(sorted(rnd.sample(range(n), 2)))
            for _ in range(rnd.randrange(1, 25))
        }
    )
    return n, graph, pairs


def _recorded(discover, sampler, pairs, graph, rounds):
    """``(discovered pair set, metrics snapshot)`` of one closure
    call."""
    registry = MetricsRegistry()
    with installed(registry):
        discovered = discover(sampler, pairs, graph, rounds=rounds)
    return _as_set(discovered), registry.snapshot()


def _as_set(discovered):
    """The oracle's set as is; the production array via
    :func:`oracles.pair_set`, which checks its contract."""
    if isinstance(discovered, set):
        return discovered
    return oracles.pair_set(discovered)


def _edges(graph):
    return {tuple(sorted(edge)) for edge in graph.edge_array().tolist()}


#: ``(n, logical edges, physical pairs, excluded nodes)``: a path
#: 0-1-2-3-4-5 with a spur 2-6, and node 7 isolated.
_PATH = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)]
_EDGE_CASES = {
    "empty-logical-graph": (6, [], [(0, 1), (2, 5), (1, 4)], ()),
    "no-physical-pairs": (8, _PATH, [], ()),
    "isolated-nodes": (8, _PATH, [(0, 7), (7, 5), (0, 2), (1, 6)], ()),
    "excluded-endpoints": (
        8, _PATH, [(0, 2), (1, 3), (3, 5), (0, 6), (4, 6)], (3,)
    ),
    "excluded-relay": (8, _PATH, [(0, 2), (1, 4), (0, 5), (6, 4)], (2,)),
    "reversed-and-duplicates": (
        8,
        _PATH,
        [(2, 0), (0, 2), (5, 0), (0, 3), (3, 0), (6, 5), (5, 6), (0, 3)],
        (),
    ),
}


class TestBackendEquivalence:
    @pytest.mark.parametrize("nu", [1, 2, 3, 5, 8])
    def test_one_round_identical_dicts(self, nu):
        # One round's outcome is a pair -> hop-count map in pending
        # order: the discovered set carries the pairs, and the
        # mndp.recovery_hops histogram the hop counts in that order.
        rnd = random.Random(500 + nu)
        for _ in range(40):
            n, graph, pairs = _random_instance(rnd)
            exclude = rnd.sample(range(n), rnd.randrange(0, 3))
            sampler = MNDPSampler(nu, exclude=exclude)
            want, want_metrics = _recorded(
                oracles.discover, sampler, pairs, graph, 1
            )
            got, got_metrics = _recorded(
                MNDPSampler.discover, sampler, pairs, graph, 1
            )
            assert want == got
            assert want_metrics.histograms == got_metrics.histograms

    def test_discover_identical_over_rounds(self):
        rnd = random.Random(900)
        for _ in range(30):
            n, graph, pairs = _random_instance(rnd)
            rounds = rnd.randrange(1, 4)
            sampler = MNDPSampler(2)
            want = oracles.discover(sampler, pairs, graph, rounds=rounds)
            got = sampler.discover(pairs, graph, rounds=rounds)
            assert want == oracles.pair_set(got)

    def test_discover_leaves_caller_graph_untouched(self):
        graph = LogicalGraph(4)
        graph.add_link(0, 1)
        graph.add_link(1, 2)
        edges_before = _edges(graph)
        recovered = MNDPSampler(2).discover(
            [(0, 2), (0, 3)], graph, rounds=3
        )
        assert oracles.pair_set(recovered) == {(0, 2)}
        assert _edges(graph) == edges_before

    def test_discover_with_excludes_and_duplicates(self):
        # Duplicate and reversed pairs must resolve once, and excluded
        # nodes must neither relay nor discover.
        rnd = random.Random(77)
        for _ in range(25):
            n, graph, pairs = _random_instance(rnd)
            noisy = pairs + [(b, a) for a, b in pairs[::2]] + pairs[:3]
            sampler = MNDPSampler(
                3, exclude=rnd.sample(range(n), rnd.randrange(0, 4))
            )
            want = oracles.discover(sampler, noisy, graph, rounds=2)
            got = sampler.discover(noisy, graph, rounds=2)
            assert want == oracles.pair_set(got)

    def test_discover_metrics_identical(self):
        rnd = random.Random(4242)
        for _ in range(10):
            n, graph, pairs = _random_instance(rnd)
            sampler = MNDPSampler(
                3, exclude=rnd.sample(range(n), rnd.randrange(0, 3))
            )
            _, want = _recorded(oracles.discover, sampler, pairs, graph, 3)
            _, got = _recorded(
                MNDPSampler.discover, sampler, pairs, graph, 3
            )
            assert want.counters == got.counters
            assert want.histograms == got.histograms

    @pytest.mark.parametrize("rounds", [1, 3])
    @pytest.mark.parametrize("nu", [2, 3, 8])
    @pytest.mark.parametrize("case", sorted(_EDGE_CASES))
    def test_edge_cases_identical(self, case, nu, rounds):
        n, edges, pairs, exclude = _EDGE_CASES[case]
        graph = LogicalGraph(n)
        graph.add_links(edges)
        sampler = MNDPSampler(nu, exclude=exclude)
        want, want_metrics = _recorded(
            oracles.discover, sampler, pairs, graph, rounds
        )
        got, got_metrics = _recorded(
            MNDPSampler.discover, sampler, pairs, graph, rounds
        )
        assert want == got
        assert want_metrics.counters == got_metrics.counters
        assert want_metrics.histograms == got_metrics.histograms

    def test_unknown_backend_rejected(self):
        # There is one closure; a caller still naming a backend fails
        # loudly instead of having the choice ignored.
        with pytest.raises(TypeError):
            MNDPSampler(2, backend="gpu")


class TestLogicalGraphBulk:
    def test_add_links_matches_add_link(self):
        one = LogicalGraph(6)
        for a, b in [(0, 1), (1, 2), (4, 5)]:
            one.add_link(a, b)
        bulk = LogicalGraph(6)
        bulk.add_links(np.array([[0, 1], [1, 2], [4, 5]]))
        np.testing.assert_array_equal(bulk.edge_array(), one.edge_array())
        assert _edges(bulk) == {(0, 1), (1, 2), (4, 5)}

    def test_add_links_accepts_iterables_and_empty(self):
        graph = LogicalGraph(4)
        graph.add_links([(0, 1), (2, 3)])
        graph.add_links([])
        assert _edges(graph) == {(0, 1), (2, 3)}

    def test_add_links_rejects_self_loops(self):
        graph = LogicalGraph(4)
        with pytest.raises(ConfigurationError):
            graph.add_links([(0, 1), (2, 2)])
        # The rejected batch left no partial state behind.
        assert _edges(graph) == set()

    def test_edge_array_covers_both_insert_paths(self):
        graph = LogicalGraph(5)
        graph.add_link(0, 1)
        graph.add_links(np.array([[1, 2], [3, 4]]))
        assert _edges(graph) == {(0, 1), (1, 2), (3, 4)}


def _discover_alloc_peak(n_nodes):
    """Traced allocation peak of one M-NDP closure on a paper-density
    field of ``n_nodes`` nodes whose pairs linked directly with
    probability 0.6."""
    base = JRSNDConfig()
    scale = math.sqrt(n_nodes / base.n_nodes)
    field = RectangularField(
        base.field_width * scale, base.field_height * scale, base.tx_range
    )
    rng = np.random.default_rng(5)
    pairs = field.neighbor_pairs(uniform_positions(field, n_nodes, rng))
    graph = LogicalGraph(n_nodes)
    graph.add_links(pairs[rng.random(len(pairs)) < 0.6])
    sampler = MNDPSampler(3)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sampler.discover(pairs, graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - before


class TestMemoryScaling:
    def test_discover_peak_linear_in_nodes(self):
        # An n x n link matrix grows 16x at 4x the nodes; the closure's
        # edge keys, CSR relay adjacency and per-pair frontiers grow
        # with the edge and pair counts, i.e. 4x at equal density.
        small = _discover_alloc_peak(800)
        large = _discover_alloc_peak(3200)
        assert large < 6 * small, (small, large)
