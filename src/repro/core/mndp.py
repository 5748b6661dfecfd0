"""M-NDP: the multi-hop neighbor discovery protocol (Section V-C).

Layers:

- :class:`LogicalGraph` — the network's logical-neighbor relation, kept
  as an edge log.
- :class:`MNDPSampler` — the Monte Carlo model: two physical neighbors
  that failed D-NDP discover each other iff a jamming-resilient logical
  path of at most ``nu`` hops connects them (M-NDP messages travel over
  session spread codes the jammer cannot know).
- Chain validation helpers for the event-driven implementation: every
  signature in a request/response chain must verify, and consecutive
  path nodes must be mutual logical neighbors per the embedded lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

import numpy as np

from repro.core.messages import MNDPRequest, MNDPResponse
from repro.crypto.signatures import SignatureScheme
from repro.errors import ConfigurationError
from repro.obs import current as _metrics
from repro.obs import names as _names
from repro.utils.validation import check_positive

__all__ = [
    "LogicalGraph",
    "MNDPSampler",
    "PendingFrame",
    "PendingRequestQueue",
    "validate_request_chain",
    "validate_response_chain",
]

Pair = Tuple[int, int]


class LogicalGraph:
    """The logical-neighbor relation over node indices, kept as an edge
    log: the M-NDP closure scatters :meth:`edge_array` into its own
    adjacency structure."""

    def __init__(self, n_nodes: int) -> None:
        check_positive("n_nodes", n_nodes)
        self._n_nodes = int(n_nodes)
        # Every edge ever recorded: (k, 2) chunks from add_links plus a
        # list of single pairs from add_link (duplicates are harmless).
        self._chunks: List[np.ndarray] = []
        self._singles: List[Pair] = []

    @property
    def n_nodes(self) -> int:
        """Number of nodes in the graph."""
        return self._n_nodes

    def add_link(self, a: int, b: int) -> None:
        """Record that ``a`` and ``b`` are logical neighbors."""
        if a == b:
            raise ConfigurationError("a node is not its own neighbor")
        self._singles.append((int(a), int(b)))

    def add_links(self, pairs: Iterable[Pair]) -> None:
        """Record many logical links in one pass.

        Equivalent to calling :meth:`add_link` per pair, minus the
        per-call overhead — the hot path for building a snapshot's
        initial graph from thousands of D-NDP outcomes.  Accepts any
        iterable of pairs, including a ``(k, 2)`` integer array.
        """
        if isinstance(pairs, np.ndarray):
            arr = np.asarray(pairs, dtype=np.int64)
        else:
            arr = np.asarray(list(pairs), dtype=np.int64)
        if arr.size == 0:
            return
        arr = arr.reshape(-1, 2)
        if bool((arr[:, 0] == arr[:, 1]).any()):
            raise ConfigurationError("a node is not its own neighbor")
        self._chunks.append(arr)

    def edge_array(self) -> np.ndarray:
        """Every recorded link as a ``(k, 2)`` int array.

        May contain duplicates (re-adding a link is a no-op on the
        relation but stays in the log); consumers scatter it into an
        adjacency structure, where duplicates are harmless.
        """
        parts = list(self._chunks)
        if self._singles:
            parts.append(np.array(self._singles, dtype=np.int64))
        if not parts:
            return np.empty((0, 2), dtype=np.int64)
        return np.concatenate(parts, axis=0)


class MNDPSampler:
    """Monte Carlo M-NDP: bounded-hop closure of the logical graph.

    Parameters
    ----------
    nu:
        Maximum hops an M-NDP request may traverse.
    exclude:
        Node indices that do not relay (e.g. when modelling compromised
        nodes refusing to cooperate — the paper keeps them in, so the
        default is empty).
    """

    def __init__(self, nu: int, exclude: Iterable[int] = ()) -> None:
        check_positive("nu", nu)
        self._nu = int(nu)
        self._exclude = frozenset(int(x) for x in exclude)

    @property
    def nu(self) -> int:
        """The hop budget."""
        return self._nu

    @property
    def excluded(self) -> FrozenSet[int]:
        """Nodes that refuse to relay."""
        return self._exclude

    def discover(
        self,
        physical_pairs: Sequence[Pair],
        logical: LogicalGraph,
        rounds: int = 1,
    ) -> Set[Pair]:
        """Run M-NDP over all not-yet-logical physical pairs.

        One round checks every remaining pair against the *current*
        logical graph and then commits all new links at once (matching
        Theorem 3's "no nodes have performed M-NDP yet" assumption for
        ``rounds=1``).  More rounds model the periodic re-initiation the
        paper describes: links formed by M-NDP enable further pairs.
        Returns all pairs newly discovered across the rounds, as
        ``(low, high)`` index tuples; the caller's graph is not changed.

        The logical graph is scattered once into a link matrix (and,
        when relays are excluded, a separate relay matrix); each round
        screens the still-unlinked pairs, resolves their closure
        distances, and commits new links in place.  A pair listed more
        than once (in either orientation) resolves, and observes
        metrics, once, at its first occurrence.
        """
        check_positive("rounds", rounds)
        registry = _metrics()
        n = logical.n_nodes
        raw = np.asarray(physical_pairs, dtype=np.int64).reshape(-1, 2)
        a_all = np.minimum(raw[:, 0], raw[:, 1])
        b_all = np.maximum(raw[:, 0], raw[:, 1])
        link = np.zeros((n, n), dtype=bool)
        edges = logical.edge_array()
        if edges.size:
            link[edges[:, 0], edges[:, 1]] = True
            link[edges[:, 1], edges[:, 0]] = True
        if self._exclude:
            relay = link.copy()
            self._zero_excluded(relay)
        else:
            relay = link
        valid_all = self._endpoint_valid(a_all, b_all, n)
        discovered: Set[Pair] = set()
        for round_index in range(rounds):
            pend = np.flatnonzero(~link[a_all, b_all])
            # Duplicates in physical_pairs resolve only once.
            keys = a_all[pend] * n + b_all[pend]
            first = np.unique(keys, return_index=True)[1]
            if first.size != pend.size:
                first.sort()
                pend_unique = pend[first]
            else:
                pend_unique = pend
            dist = self._closure_distances(
                a_all[pend_unique],
                b_all[pend_unique],
                relay,
                valid_all[pend_unique],
            )
            found = dist > 0
            new_idx = pend_unique[found]
            if registry.enabled:
                registry.inc(_names.MNDP_ROUNDS)
                registry.inc(_names.MNDP_PAIRS_ATTEMPTED, int(pend.size))
                for hops in dist[found].tolist():
                    registry.observe(_names.MNDP_RECOVERY_HOPS, hops)
            if new_idx.size == 0:
                break
            new_a = a_all[new_idx]
            new_b = b_all[new_idx]
            discovered.update(zip(new_a.tolist(), new_b.tolist()))
            if round_index == rounds - 1:
                break
            link[new_a, new_b] = True
            link[new_b, new_a] = True
            if relay is not link:
                relay[new_a, new_b] = True
                relay[new_b, new_a] = True
        if registry.enabled:
            registry.inc(_names.MNDP_PAIRS_RECOVERED, len(discovered))
        return discovered

    def _zero_excluded(self, adj: np.ndarray) -> None:
        """Remove excluded nodes' rows/columns from a relay adjacency."""
        n = adj.shape[0]
        excluded = np.fromiter(self._exclude, dtype=np.int64)
        excluded = excluded[(excluded >= 0) & (excluded < n)]
        adj[excluded, :] = False
        adj[:, excluded] = False

    def _endpoint_valid(
        self, a_arr: np.ndarray, b_arr: np.ndarray, n: int
    ) -> np.ndarray:
        """Mask of pairs whose endpoints are both non-excluded."""
        if not self._exclude:
            return np.ones(a_arr.size, dtype=bool)
        excluded = np.fromiter(self._exclude, dtype=np.int64)
        excluded = excluded[(excluded >= 0) & (excluded < n)]
        in_excl = np.zeros(n, dtype=bool)
        in_excl[excluded] = True
        return ~(in_excl[a_arr] | in_excl[b_arr])

    def _closure_distances(
        self,
        a_arr: np.ndarray,
        b_arr: np.ndarray,
        adj: np.ndarray,
        valid: np.ndarray,
    ) -> np.ndarray:
        """Hop distances (0 = unreachable) for pairs over a relay
        adjacency, by the packed-bitset level sweep."""
        dist = np.zeros(a_arr.size, dtype=np.int64)
        if a_arr.size == 0:
            return dist
        n = adj.shape[0]
        dist[adj[a_arr, b_arr] & valid] = 1
        remaining = np.flatnonzero(valid & (dist == 0))
        if self._nu >= 2 and remaining.size:
            packed = np.packbits(adj, axis=1)
            hit = _any_common_bit(
                packed, a_arr[remaining], packed, b_arr[remaining]
            )
            dist[remaining[hit]] = 2
            remaining = remaining[~hit]
            if self._nu >= 3 and remaining.size:
                self._deep_levels(
                    a_arr, b_arr, dist, remaining, adj, packed, n
                )
        return dist

    def _deep_levels(
        self,
        a_arr: np.ndarray,
        b_arr: np.ndarray,
        dist: np.ndarray,
        remaining: np.ndarray,
        adj: np.ndarray,
        packed: np.ndarray,
        n: int,
    ) -> None:
        """Resolve hops ``3..nu`` by expanding per-source frontiers."""
        frontiers: Dict[int, np.ndarray] = {}
        visiteds: Dict[int, np.ndarray] = {}
        depths: Dict[int, int] = {}
        for level in range(3, self._nu + 1):
            if remaining.size == 0:
                return
            for src in set(a_arr[remaining].tolist()):
                if src not in frontiers:
                    visited = packed[src].copy()
                    visited[src >> 3] |= np.uint8(0x80 >> (src & 7))
                    frontiers[src] = packed[src]
                    visiteds[src] = visited
                    depths[src] = 1
                while depths[src] < level - 1:
                    members = np.flatnonzero(
                        np.unpackbits(frontiers[src], count=n)
                    )
                    if members.size == 0:
                        depths[src] = level - 1
                        break
                    grown = np.bitwise_or.reduce(packed[members], axis=0)
                    grown &= ~visiteds[src]
                    visiteds[src] |= grown
                    frontiers[src] = grown
                    depths[src] += 1
            sources = np.unique(a_arr[remaining])
            table = np.stack([frontiers[src] for src in sources.tolist()])
            hit = _any_common_bit(
                table, np.searchsorted(sources, a_arr[remaining]),
                packed, b_arr[remaining],
            )
            dist[remaining[hit]] = level
            remaining = remaining[~hit]


#: Pairs per chunk of the packed-row AND/any tests: bounds the gathered
#: temporaries to ``_CHUNK * n / 8`` bytes whatever the pending count.
_CHUNK = 4096


def _any_common_bit(
    table_a: np.ndarray,
    rows_a: np.ndarray,
    table_b: np.ndarray,
    rows_b: np.ndarray,
) -> np.ndarray:
    """``(table_a[rows_a] & table_b[rows_b]).any(axis=1)`` over packed
    bitset rows, evaluated ``_CHUNK`` pairs at a time."""
    hit = np.zeros(rows_a.size, dtype=bool)
    for start in range(0, rows_a.size, _CHUNK):
        stop = start + _CHUNK
        hit[start:stop] = (
            table_a[rows_a[start:stop]] & table_b[rows_b[start:stop]]
        ).any(axis=1)
    return hit


def validate_request_chain(
    request: MNDPRequest, scheme: SignatureScheme
) -> bool:
    """Verify every signature and the path consistency of a request.

    Checks (per Section V-C's receiver procedure):

    1. the source signature verifies under ``ID_A``;
    2. each extension's signature verifies under its relay's ID;
    3. each relay appears in the *previous* hop's neighbor list — i.e.
       the embedded lists witness a legitimate logical path.
    """
    if not scheme.verify(
        request.source,
        request.source_signed_bytes(),
        request.source_signature,
    ):
        return False
    previous_neighbors = set(request.source_neighbors)
    for index, extension in enumerate(request.extensions):
        if not scheme.verify(
            extension.node,
            request.extension_signed_bytes(index),
            extension.signature,
        ):
            return False
        if extension.node not in previous_neighbors:
            return False
        previous_neighbors = set(extension.neighbors)
    return True


def validate_response_chain(
    response: MNDPResponse, scheme: SignatureScheme
) -> bool:
    """Verify every signature in an M-NDP response chain."""
    if not scheme.verify(
        response.responder,
        response.responder_signed_bytes(),
        response.responder_signature,
    ):
        return False
    for index, extension in enumerate(response.extensions):
        if not scheme.verify(
            extension.node,
            response.extension_signed_bytes(index),
            extension.signature,
        ):
            return False
    return True


@dataclass
class PendingFrame:
    """One M-NDP frame waiting for a session route to (re)appear."""

    peer: object
    frame: object
    enqueued_at: float
    requeues: int = 0


class PendingRequestQueue:
    """A bounded TTL queue for M-NDP frames without a live route.

    The event-driven M-NDP silently discarded any frame whose target
    session had expired or not yet confirmed; under churn that loses
    whole discovery rounds.  Nodes now park such frames here: entries
    are drained when the peer's session (re)establishes, expire after
    ``ttl`` simulated seconds, may be requeued at most ``max_requeues``
    times, and the queue never exceeds ``capacity`` entries.
    """

    def __init__(
        self, ttl: float, max_requeues: int, capacity: int
    ) -> None:
        check_positive("ttl", ttl)
        if max_requeues < 0:
            raise ConfigurationError(
                f"max_requeues must be non-negative: {max_requeues}"
            )
        check_positive("capacity", capacity)
        self._ttl = float(ttl)
        self._max_requeues = int(max_requeues)
        self._capacity = int(capacity)
        self._entries: List[PendingFrame] = []

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def ttl(self) -> float:
        """Entry lifetime in simulated seconds."""
        return self._ttl

    def push(self, peer: object, frame: object, now: float) -> bool:
        """Queue a frame; False (dropped) when the queue is full."""
        if len(self._entries) >= self._capacity:
            return False
        self._entries.append(PendingFrame(peer, frame, float(now)))
        return True

    def requeue(self, entry: PendingFrame, now: float) -> bool:
        """Put a popped entry back after its route vanished again.

        False (dropped) once the entry exhausted its requeue budget,
        outlived its TTL, or the queue is full.
        """
        if entry.requeues >= self._max_requeues:
            return False
        if now - entry.enqueued_at > self._ttl:
            return False
        if len(self._entries) >= self._capacity:
            return False
        entry.requeues += 1
        self._entries.append(entry)
        return True

    def pop_for(self, peer: object, now: float) -> List[PendingFrame]:
        """Remove and return the live entries addressed to ``peer``.

        Entries already past their TTL are not returned (they die on
        the next :meth:`expire` sweep).
        """
        matched: List[PendingFrame] = []
        kept: List[PendingFrame] = []
        for entry in self._entries:
            if (
                entry.peer == peer
                and now - entry.enqueued_at <= self._ttl
            ):
                matched.append(entry)
            else:
                kept.append(entry)
        self._entries = kept
        return matched

    def expire(self, now: float) -> int:
        """Drop entries older than the TTL; returns how many died."""
        kept = [
            entry
            for entry in self._entries
            if now - entry.enqueued_at <= self._ttl
        ]
        expired = len(self._entries) - len(kept)
        self._entries = kept
        return expired
