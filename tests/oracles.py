"""Reference forms of the snapshot pipeline's hot layers.

Each function here is the plain-loop statement of one paper stage, kept
only to check the production implementation against:

- :func:`neighbor_pairs` — grid-bucketed range search (field layer);
- :func:`assign` — Sec. V-A's per-subset partition loops;
- :func:`shared_code_counts` — Sec. V-B's shared-code counts from a
  dense node-by-code membership matrix;
- :func:`discover` — Sec. V-C's ``nu``-hop M-NDP closure as per-source
  networkx shortest-path queries.

Every oracle takes the same arguments, consumes the same rng draws and
returns the same values (and, for :func:`discover`, emits the same
metrics in the same order) as the production entry point it mirrors.
:func:`reference_pipeline` swaps all four into a running
:class:`~repro.experiments.runner.NetworkExperiment`.
"""

from collections import defaultdict
from contextlib import ExitStack, contextmanager
from typing import Dict, Iterator, List, Set, Tuple
from unittest import mock

import networkx as nx
import numpy as np

from repro.core.mndp import MNDPSampler
from repro.obs import current
from repro.obs import names as _names
from repro.predistribution.authority import CodeAssignment, PreDistributor
from repro.sim.field import RectangularField
from repro.utils.validation import check_positive

Pair = Tuple[int, int]


def neighbor_pairs(field, positions) -> List[Pair]:
    """Grid-bucketed search: cells one range wide, each node checked
    against the 3 x 3 block of cells around its own."""
    cell = field.tx_range
    buckets: Dict[Tuple[int, int], List[int]] = defaultdict(list)
    for index, position in enumerate(positions):
        key = (int(position[0] // cell), int(position[1] // cell))
        buckets[key].append(index)
    pairs: List[Pair] = []
    for (cx, cy), members in buckets.items():
        candidates: List[int] = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                candidates.extend(buckets.get((cx + dx, cy + dy), ()))
        for i in members:
            for j in candidates:
                if j > i and field.in_range(positions[i], positions[j]):
                    pairs.append((i, j))
    return sorted(set(pairs))


def assign(distributor, rng: np.random.Generator) -> CodeAssignment:
    """``m`` rounds of random equal partition: one permutation per
    round, cut into ``w`` subsets of ``l`` slots; virtual slots (index
    ``>= n``) take no code."""
    n = distributor.n_nodes
    m = distributor.codes_per_node
    w = distributor.subsets_per_round
    size = distributor.share_count
    total = n + distributor.n_virtual
    codes = np.empty((n, m), dtype=np.int64)
    for round_index in range(m):
        order = rng.permutation(total)
        for subset_index in range(w):
            members = order[subset_index * size : (subset_index + 1) * size]
            codes[members[members < n], round_index] = (
                w * round_index + subset_index
            )
    return CodeAssignment(codes, distributor.pool_size)


def shared_code_counts(
    codes: np.ndarray, compromised: np.ndarray, pairs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(safe_count, comp_count)`` per pair from the AND of the two
    endpoints' rows of the dense node-by-code membership matrix."""
    membership = np.zeros((codes.shape[0], compromised.size), dtype=bool)
    membership[np.arange(codes.shape[0])[:, None], codes] = True
    shared = membership[pairs[:, 0]] & membership[pairs[:, 1]]
    return (
        (shared & ~compromised).sum(axis=1),
        (shared & compromised).sum(axis=1),
    )


def discover(sampler, physical_pairs, logical, rounds: int = 1) -> Set[Pair]:
    """The M-NDP closure over a networkx copy of ``logical``: each round
    collects the not-yet-linked pairs, finds those within ``nu`` relay
    hops, then commits them all at once."""
    check_positive("rounds", rounds)
    registry = current()
    graph = nx.Graph()
    graph.add_nodes_from(range(logical.n_nodes))
    graph.add_edges_from(map(tuple, logical.edge_array().tolist()))
    pairs = np.asarray(physical_pairs, dtype=np.int64).reshape(-1, 2)
    discovered: Set[Pair] = set()
    for round_index in range(rounds):
        pending = [
            (min(a, b), max(a, b))
            for a, b in pairs.tolist()
            if not graph.has_edge(a, b)
        ]
        new_links = _one_round(sampler, pending, graph)
        if registry.enabled:
            registry.inc(_names.MNDP_ROUNDS)
            registry.inc(_names.MNDP_PAIRS_ATTEMPTED, len(pending))
            for hops in new_links.values():
                registry.observe(_names.MNDP_RECOVERY_HOPS, hops)
        if not new_links:
            break
        discovered.update(new_links)
        if round_index == rounds - 1:
            break
        graph.add_edges_from(new_links)
    if registry.enabled:
        registry.inc(_names.MNDP_PAIRS_RECOVERED, len(discovered))
    return discovered


def _one_round(sampler, pending: List[Pair], graph) -> Dict[Pair, int]:
    """Pending pairs joined by a ``<= nu``-hop relay path, mapped to its
    length, in ``pending`` order.  Excluded nodes relay nothing and
    discover nobody."""
    exclude = sampler.excluded
    relay = graph
    if exclude:
        relay = nx.Graph()
        relay.add_nodes_from(graph)
        relay.add_edges_from(
            (a, b)
            for a, b in graph.edges()
            if a not in exclude and b not in exclude
        )
    reach: Dict[int, Dict[int, int]] = {}
    for source in {a for a, _ in pending}:
        reach[source] = (
            {} if source in exclude
            else nx.single_source_shortest_path_length(
                relay, source, cutoff=sampler.nu
            )
        )
    return {
        (a, b): reach[a][b]
        for a, b in pending
        if b not in exclude and reach[a].get(b, 0) > 0
    }


@contextmanager
def reference_pipeline() -> Iterator[None]:
    """Run every snapshot inside the block on the four oracles above."""
    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(
            RectangularField, "neighbor_pairs", neighbor_pairs
        ))
        stack.enter_context(mock.patch.object(
            PreDistributor, "assign", assign
        ))
        stack.enter_context(mock.patch(
            "repro.experiments.runner.shared_code_counts",
            shared_code_counts,
        ))
        stack.enter_context(mock.patch.object(
            MNDPSampler, "discover", discover
        ))
        yield
