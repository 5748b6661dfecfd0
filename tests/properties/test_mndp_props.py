"""Property-based tests for the M-NDP closure model."""

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.core.mndp import LogicalGraph, MNDPSampler
from tests.oracles import pair_set


@st.composite
def random_graph_case(draw):
    n = draw(st.integers(min_value=3, max_value=25))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=60,
        )
    )
    edges = [(a, b) for a, b in edges if a != b]
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=1,
            max_size=20,
        )
    )
    pairs = [(min(a, b), max(a, b)) for a, b in pairs if a != b]
    nu = draw(st.integers(min_value=1, max_value=5))
    return n, edges, pairs, nu


class TestClosureProperties:
    @given(random_graph_case())
    @settings(max_examples=80, deadline=None)
    def test_matches_networkx_shortest_paths(self, case):
        n, edges, pairs, nu = case
        logical = LogicalGraph(n)
        reference = nx.Graph()
        reference.add_nodes_from(range(n))
        for a, b in edges:
            logical.add_link(a, b)
            reference.add_edge(a, b)
        discovered = pair_set(
            MNDPSampler(nu).discover(pairs, logical, rounds=1)
        )
        linked = {
            tuple(sorted(edge)) for edge in logical.edge_array().tolist()
        }
        for a, b in set(pairs):
            if (a, b) in linked:
                assert (a, b) not in discovered
                continue
            try:
                reachable = (
                    nx.shortest_path_length(reference, a, b) <= nu
                )
            except nx.NetworkXNoPath:
                reachable = False
            assert ((a, b) in discovered) == reachable

    @given(random_graph_case())
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_nu(self, case):
        n, edges, pairs, nu = case
        logical = LogicalGraph(n)
        for a, b in edges:
            logical.add_link(a, b)
        smaller = pair_set(MNDPSampler(nu).discover(pairs, logical, rounds=1))
        larger = pair_set(
            MNDPSampler(nu + 1).discover(pairs, logical, rounds=1)
        )
        assert smaller <= larger

    @given(random_graph_case())
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_rounds(self, case):
        n, edges, pairs, nu = case
        logical = LogicalGraph(n)
        for a, b in edges:
            logical.add_link(a, b)
        one = pair_set(MNDPSampler(nu).discover(pairs, logical, rounds=1))
        three = pair_set(MNDPSampler(nu).discover(pairs, logical, rounds=3))
        assert one <= three
