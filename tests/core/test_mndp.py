"""Unit tests for the M-NDP graph model and chain validation."""

import numpy as np
import pytest

from repro.core.messages import MNDPExtension, MNDPRequest, MNDPResponse
from repro.core.mndp import (
    LogicalGraph,
    MNDPSampler,
    validate_request_chain,
    validate_response_chain,
)
from repro.crypto.identity import TrustedAuthority
from repro.crypto.signatures import SignatureScheme
from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry, installed
from repro.obs import names as _names
from tests.oracles import pair_set


def _edges(graph):
    return {tuple(sorted(edge)) for edge in graph.edge_array().tolist()}


def _recovery_hops(sampler, pairs, logical):
    """Hop counts the closure recorded, in pending-pair order."""
    registry = MetricsRegistry()
    with installed(registry):
        sampler.discover(pairs, logical)
    return registry.snapshot().histograms[_names.MNDP_RECOVERY_HOPS].values


class TestLogicalGraph:
    def test_links(self):
        graph = LogicalGraph(5)
        graph.add_link(0, 1)
        assert graph.n_nodes == 5
        assert _edges(graph) == {(0, 1)}
        assert graph.edge_array().shape == (1, 2)

    def test_self_link_rejected(self):
        with pytest.raises(ConfigurationError):
            LogicalGraph(3).add_link(1, 1)

    def test_within_hops(self):
        # Chain 0-1-2-3-4: with nu = 2 only node 2 is newly within
        # reach of node 0 (1 already is a logical neighbor).
        graph = LogicalGraph(5)
        for a, b in [(0, 1), (1, 2), (2, 3), (3, 4)]:
            graph.add_link(a, b)
        pairs = [(0, j) for j in range(1, 5)]
        assert pair_set(MNDPSampler(nu=2).discover(pairs, graph)) == {(0, 2)}

    def test_hop_distance(self):
        graph = LogicalGraph(4)
        graph.add_link(0, 1)
        graph.add_link(1, 2)
        sampler = MNDPSampler(nu=3)
        assert _recovery_hops(sampler, [(0, 2), (0, 3)], graph) == (2,)

    def test_isolated_nodes_answer_queries(self):
        graph = LogicalGraph(6)
        graph.add_links([(0, 1), (1, 2)])
        graph.add_link(3, 4)
        assert _edges(graph) == {(0, 1), (1, 2), (3, 4)}
        empty = LogicalGraph(4).edge_array()
        assert empty.shape == (0, 2) and empty.dtype == np.int64

    def test_links_added_after_first_query(self):
        graph = LogicalGraph(5)
        graph.add_link(0, 1)
        assert _edges(graph) == {(0, 1)}
        graph.add_links([(1, 2)])
        graph.add_link(2, 3)
        assert _edges(graph) == {(0, 1), (1, 2), (2, 3)}


class TestMNDPSampler:
    def test_two_hop_recovery(self):
        """A-B fail D-NDP but share logical neighbor C."""
        logical = LogicalGraph(3)
        logical.add_link(0, 2)
        logical.add_link(1, 2)
        sampler = MNDPSampler(nu=2)
        discovered = sampler.discover([(0, 1)], logical)
        assert pair_set(discovered) == {(0, 1)}

    def test_respects_hop_budget(self):
        logical = LogicalGraph(4)
        # path 0-2-3-1 has 3 hops
        for a, b in [(0, 2), (2, 3), (3, 1)]:
            logical.add_link(a, b)
        assert pair_set(MNDPSampler(nu=2).discover([(0, 1)], logical)) == set()
        assert pair_set(MNDPSampler(nu=3).discover([(0, 1)], logical)) == {
            (0, 1)
        }

    def test_already_logical_pairs_skipped(self):
        logical = LogicalGraph(2)
        logical.add_link(0, 1)
        assert pair_set(MNDPSampler(nu=2).discover([(0, 1)], logical)) == set()

    def test_single_round_uses_initial_graph(self):
        """rounds=1 matches Theorem 3: new links don't cascade."""
        logical = LogicalGraph(4)
        logical.add_link(0, 2)
        logical.add_link(1, 2)
        logical.add_link(3, 1)
        # (0,1) is 2-hop recoverable now; (0,3) becomes 2-hop only
        # after (0,1) exists.
        pairs = [(0, 1), (0, 3)]
        one_round = MNDPSampler(nu=2).discover(pairs, logical, rounds=1)
        assert pair_set(one_round) == {(0, 1)}

    def test_multi_round_cascades(self):
        logical = LogicalGraph(4)
        logical.add_link(0, 2)
        logical.add_link(1, 2)
        logical.add_link(3, 1)
        pairs = [(0, 1), (0, 3)]
        two_rounds = MNDPSampler(nu=2).discover(pairs, logical, rounds=2)
        assert pair_set(two_rounds) == {(0, 1), (0, 3)}

    def test_excluded_relays(self):
        logical = LogicalGraph(3)
        logical.add_link(0, 2)
        logical.add_link(1, 2)
        sampler = MNDPSampler(nu=2, exclude=[2])
        assert pair_set(sampler.discover([(0, 1)], logical)) == set()

    def test_excluded_endpoint(self):
        logical = LogicalGraph(3)
        logical.add_link(0, 2)
        logical.add_link(1, 2)
        sampler = MNDPSampler(nu=2, exclude=[1])
        assert pair_set(sampler.discover([(0, 1)], logical)) == set()

    def test_returns_lexicographic_int64_array(self):
        # Pairs come back as (low, high) rows in key order, whatever
        # order and orientation the physical pairs were listed in.
        logical = LogicalGraph(5)
        for a, b in [(0, 4), (1, 4), (2, 4), (3, 4)]:
            logical.add_link(a, b)
        pairs = [(3, 2), (0, 3), (1, 0), (2, 1), (2, 0)]
        got = MNDPSampler(nu=2).discover(pairs, logical)
        assert got.tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [2, 3]]
        assert pair_set(got) == {(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)}
        empty = MNDPSampler(nu=2).discover([], logical)
        assert empty.dtype == np.int64 and empty.shape == (0, 2)

    def test_rejects_bad_nu(self):
        with pytest.raises(ConfigurationError):
            MNDPSampler(nu=0)


@pytest.fixture
def chain_setup():
    authority = TrustedAuthority(b"m")
    scheme = SignatureScheme(authority.public_parameters())
    ids = [authority.make_id(i) for i in range(1, 5)]
    keys = [authority.issue_private_key(node) for node in ids]
    return authority, scheme, ids, keys


def _build_request(scheme, ids, keys, tamper=None):
    a, c, b, d = ids
    request = MNDPRequest(
        source=a,
        source_neighbors=(c, d),
        nonce=5,
        hop_budget=3,
        source_signature=None,
    )
    sig_a = scheme.sign(keys[0], request.source_signed_bytes())
    request = MNDPRequest(
        source=a, source_neighbors=(c, d), nonce=5, hop_budget=3,
        source_signature=sig_a,
    )
    unsigned = MNDPExtension(c, (a, b), None)
    sig_c = scheme.sign(
        keys[1], unsigned.signed_bytes(request.source_signed_bytes())
    )
    return request.extended(MNDPExtension(c, (a, b), sig_c))


class TestRequestChainValidation:
    def test_valid_chain(self, chain_setup):
        _, scheme, ids, keys = chain_setup
        request = _build_request(scheme, ids, keys)
        assert validate_request_chain(request, scheme)

    def test_bad_source_signature(self, chain_setup):
        _, scheme, ids, keys = chain_setup
        request = _build_request(scheme, ids, keys)
        forged = MNDPRequest(
            source=request.source,
            source_neighbors=request.source_neighbors,
            nonce=request.nonce + 1,  # signature no longer matches
            hop_budget=request.hop_budget,
            source_signature=request.source_signature,
            extensions=request.extensions,
        )
        assert not validate_request_chain(forged, scheme)

    def test_extension_not_in_previous_neighbors(self, chain_setup):
        """A relay that is not the previous hop's neighbor is rejected."""
        _, scheme, ids, keys = chain_setup
        a, c, b, d = ids
        request = MNDPRequest(
            source=a,
            source_neighbors=(d,),  # c NOT a neighbor of a
            nonce=5,
            hop_budget=3,
            source_signature=None,
        )
        sig_a = scheme.sign(keys[0], request.source_signed_bytes())
        request = MNDPRequest(
            source=a, source_neighbors=(d,), nonce=5, hop_budget=3,
            source_signature=sig_a,
        )
        unsigned = MNDPExtension(c, (a, b), None)
        sig_c = scheme.sign(
            keys[1], unsigned.signed_bytes(request.source_signed_bytes())
        )
        bad = request.extended(MNDPExtension(c, (a, b), sig_c))
        assert not validate_request_chain(bad, scheme)

    def test_tampered_extension_neighbors(self, chain_setup):
        _, scheme, ids, keys = chain_setup
        request = _build_request(scheme, ids, keys)
        original = request.extensions[0]
        tampered = MNDPRequest(
            source=request.source,
            source_neighbors=request.source_neighbors,
            nonce=request.nonce,
            hop_budget=request.hop_budget,
            source_signature=request.source_signature,
            extensions=(
                MNDPExtension(
                    original.node,
                    original.neighbors + (ids[3],),
                    original.signature,
                ),
            ),
        )
        assert not validate_request_chain(tampered, scheme)


class TestResponseChainValidation:
    def test_valid_response(self, chain_setup):
        _, scheme, ids, keys = chain_setup
        a, c, b, _ = ids
        response = MNDPResponse(
            source=a, via=c, responder=b,
            responder_neighbors=(c,), nonce=8, hop_budget=2,
            responder_signature=None,
        )
        sig = scheme.sign(keys[2], response.responder_signed_bytes())
        response = MNDPResponse(
            source=a, via=c, responder=b,
            responder_neighbors=(c,), nonce=8, hop_budget=2,
            responder_signature=sig,
        )
        assert validate_response_chain(response, scheme)

    def test_forged_responder(self, chain_setup):
        _, scheme, ids, keys = chain_setup
        a, c, b, d = ids
        response = MNDPResponse(
            source=a, via=c, responder=b,
            responder_neighbors=(c,), nonce=8, hop_budget=2,
            responder_signature=None,
        )
        # d signs but claims to be b.
        sig = scheme.sign(keys[3], response.responder_signed_bytes())
        from repro.crypto.signatures import IdentitySignature
        forged = MNDPResponse(
            source=a, via=c, responder=b,
            responder_neighbors=(c,), nonce=8, hop_budget=2,
            responder_signature=IdentitySignature(b, sig.tag),
        )
        assert not validate_response_chain(forged, scheme)
