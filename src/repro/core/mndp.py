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
from typing import FrozenSet, Iterable, List, Sequence, Tuple

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
    log: the M-NDP closure reads :meth:`edge_array` into its own sorted
    edge keys."""

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
        relation but stays in the log); consumers deduplicate it into
        their own adjacency structure.
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
    ) -> np.ndarray:
        """Run M-NDP over all not-yet-logical physical pairs.

        One round checks every remaining pair against the *current*
        logical graph and then commits all new links at once (matching
        Theorem 3's "no nodes have performed M-NDP yet" assumption for
        ``rounds=1``).  More rounds model the periodic re-initiation the
        paper describes: links formed by M-NDP enable further pairs.
        Returns all pairs newly discovered across the rounds as a
        ``(k, 2)`` int64 array of ``(low, high)`` rows in lexicographic
        order (``(0, 2)`` when none); the caller's graph is not changed.

        The logical graph is kept as the sorted undirected edge keys
        ``low * n + high``; each round screens the still-unlinked pairs
        against them, resolves their closure distances over a CSR relay
        adjacency, and merges the new links into the keys.  Memory is
        linear in the edge and pair counts.  A pair listed more than
        once (in either orientation) resolves, and observes metrics,
        once, at its first occurrence.
        """
        check_positive("rounds", rounds)
        registry = _metrics()
        n = logical.n_nodes
        raw = np.asarray(physical_pairs, dtype=np.int64).reshape(-1, 2)
        a_all = np.minimum(raw[:, 0], raw[:, 1])
        b_all = np.maximum(raw[:, 0], raw[:, 1])
        pair_keys = a_all * n + b_all
        edges = logical.edge_array()
        links = _sorted_unique(
            np.minimum(edges[:, 0], edges[:, 1]) * n
            + np.maximum(edges[:, 0], edges[:, 1])
        )
        relays = np.ones(n, dtype=bool)
        excluded = np.fromiter(self._exclude, dtype=np.int64)
        relays[excluded[(excluded >= 0) & (excluded < n)]] = False
        # Keys of the pairs each round recovers; a recovered pair is
        # linked from the next round on, so no key repeats.
        discovered: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
        for round_index in range(rounds):
            pend = np.flatnonzero(~_contains(links, pair_keys))
            # Duplicates in physical_pairs resolve only once.
            first = np.unique(pair_keys[pend], return_index=True)[1]
            pend_unique = pend[np.sort(first)]
            dist = self._closure_distances(
                a_all[pend_unique],
                b_all[pend_unique],
                links,
                relays,
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
            discovered.append(pair_keys[new_idx])
            if round_index == rounds - 1:
                break
            links = _sorted_unique(
                np.concatenate([links, pair_keys[new_idx]])
            )
        keys = np.sort(np.concatenate(discovered))
        if registry.enabled:
            registry.inc(_names.MNDP_PAIRS_RECOVERED, int(keys.size))
        return np.stack(np.divmod(keys, n), axis=1)

    def _closure_distances(
        self,
        a_arr: np.ndarray,
        b_arr: np.ndarray,
        links: np.ndarray,
        relays: np.ndarray,
    ) -> np.ndarray:
        """Relay-hop distances (0 = farther than ``nu`` or unreachable)
        for pairs that are not linked, over the undirected edge keys
        ``links`` with non-``relays`` nodes' edges dropped; a pair with
        a non-relay endpoint discovers nothing."""
        dist = np.zeros(a_arr.size, dtype=np.int64)
        remaining = np.flatnonzero(relays[a_arr] & relays[b_arr])
        if self._nu < 2 or remaining.size == 0:
            return dist
        n = relays.size
        low, high = np.divmod(links, n)
        keep = relays[low] & relays[high]
        low, high = low[keep], high[keep]
        # Directed relay keys, sorted: row-major CSR order.
        arcs = np.sort(np.concatenate([low * n + high, high * n + low]))
        indptr = np.searchsorted(arcs, np.arange(n + 1) * n)
        indices = arcs % n
        # Hop 2 from b's side: some u in N(b) with a-u a relay arc.
        a_rem = a_arr[remaining]
        owner, hub = _expand(indptr, indices, b_arr[remaining])
        hit = np.zeros(remaining.size, dtype=bool)
        hit[owner[_contains(arcs, a_rem[owner] * n + hub)]] = True
        dist[remaining[hit]] = 2
        remaining = remaining[~hit]
        if self._nu < 3 or remaining.size == 0:
            return dist
        # Hops 3..nu: per-pair BFS frontiers from a, as keys j * n + node
        # for the j-th still-unresolved pair.
        a_rem = a_arr[remaining]
        b_rem = b_arr[remaining]
        owner, node = _expand(indptr, indices, a_rem)
        frontier = owner * n + node
        visited = np.sort(
            np.concatenate([frontier, np.arange(a_rem.size) * n + a_rem])
        )
        for level in range(3, self._nu + 1):
            owner, node = np.divmod(frontier, n)
            step, node = _expand(indptr, indices, node)
            grown = _sorted_unique(owner[step] * n + node)
            frontier = grown[~_contains(visited, grown)]
            owner, node = np.divmod(frontier, n)
            found = owner[_contains(arcs, node * n + b_rem[owner])]
            dist[remaining[found]] = level
            if level == self._nu:
                break
            alive = np.ones(remaining.size, dtype=bool)
            alive[found] = False
            frontier = frontier[alive[owner]]
            if frontier.size == 0:
                break
            visited = _sorted_unique(np.concatenate([visited, frontier]))
        return dist


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)`` by one sort and an adjacent-difference mask."""
    keys = np.sort(keys)
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _contains(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Membership of each of ``keys`` in the sorted array ``sorted_keys``."""
    if sorted_keys.size == 0:
        return np.zeros(keys.shape, dtype=bool)
    slot = np.searchsorted(sorted_keys, keys)
    slot[slot == sorted_keys.size] = 0
    return sorted_keys[slot] == keys


def _expand(
    indptr: np.ndarray, indices: np.ndarray, nodes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(owner, neighbor)`` for every CSR neighbor of every entry of
    ``nodes``; ``owner`` indexes ``nodes`` and is non-decreasing."""
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    owner = np.repeat(np.arange(nodes.size), counts)
    shift = starts - (np.cumsum(counts) - counts)
    return owner, indices[np.arange(owner.size) + shift[owner]]


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
