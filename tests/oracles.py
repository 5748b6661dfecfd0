"""Reference forms of the hot layers.

Each function here is the plain-loop statement of one paper stage, kept
only to check the production implementation against:

- :func:`neighbor_pairs` — grid-bucketed range search (field layer),
  and :func:`pair_set`, which checks a production pair array and turns
  it into the set of tuples the oracles reason in;
- :func:`assign` — Sec. V-A's per-subset partition loops;
- :func:`shared_code_counts` — Sec. V-B's shared-code counts from a
  dense node-by-code membership matrix;
- :func:`discover` — Sec. V-C's ``nu``-hop M-NDP closure as per-source
  networkx shortest-path queries;
- :func:`correlate_many` / :class:`PerPositionCorrelationEngine` —
  Sec. V-B's sliding-window correlation, one window position at a time;
- :func:`rs_encode` / :func:`rs_decode` (and their ``_batch`` loops) —
  the ``(1 + mu)`` Reed-Solomon code, one word at a time through the
  scalar polynomial-division encoder and the syndrome / Berlekamp-Massey
  / Chien / Forney decoder.

Every oracle takes the same arguments, consumes the same rng draws and
returns the same values (and, for :func:`discover`, emits the same
metrics in the same order) as the production entry point it mirrors;
:func:`discover` returns its pairs as a set, which equals
:func:`pair_set` of the production array.
:func:`reference_pipeline` swaps the first four into a running
:class:`~repro.experiments.runner.NetworkExperiment`;
:func:`scalar_reed_solomon` swaps the per-word codec into every
:class:`~repro.ecc.reed_solomon.ReedSolomonCodec`.
"""

from collections import defaultdict
from contextlib import ExitStack, contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple
from unittest import mock

import networkx as nx
import numpy as np

from repro.core.mndp import MNDPSampler
from repro.dsss.correlator import code_matrix
from repro.dsss.engine import CorrelationEngine
from repro.dsss.spread_code import SpreadCode
from repro.ecc.reed_solomon import ReedSolomonCodec
from repro.errors import SpreadCodeError
from repro.obs import current
from repro.obs import names as _names
from repro.predistribution.authority import CodeAssignment, PreDistributor
from repro.sim.field import RectangularField
from repro.utils.validation import check_positive

Pair = Tuple[int, int]


def neighbor_pairs(field, positions) -> np.ndarray:
    """Grid-bucketed search: cells one range wide, each node checked
    against the 3 x 3 block of cells around its own; the pairs come
    back as the production ``(k, 2)`` int64 array."""
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
    return np.array(sorted(set(pairs)), dtype=np.int64).reshape(-1, 2)


def pair_set(pairs: np.ndarray) -> Set[Pair]:
    """The rows of a production pair array as the oracles' set of
    ``(low, high)`` tuples, after checking the array contract: ``(k, 2)``
    int64, ``low < high`` in every row, rows strictly increasing in
    lexicographic order (so no duplicates)."""
    assert isinstance(pairs, np.ndarray)
    assert pairs.dtype == np.int64
    assert pairs.ndim == 2 and pairs.shape[1] == 2
    assert bool((pairs[:, 0] < pairs[:, 1]).all())
    rows = [tuple(row) for row in pairs.tolist()]
    assert all(a < b for a, b in zip(rows, rows[1:]))
    return set(rows)


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
    codes: np.ndarray, held: np.ndarray, pairs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(safe_count, comp_count)`` per pair from the AND of the two
    endpoints' rows of the dense node-by-code membership matrix; a code
    is compromised iff some node holds it under ``held``."""
    width = int(codes.max()) + 1
    membership = np.zeros((codes.shape[0], width), dtype=bool)
    membership[np.arange(codes.shape[0])[:, None], codes] = True
    compromised = np.zeros(width, dtype=bool)
    compromised[codes[held]] = True
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
    """Run every snapshot inside the block on the four snapshot-stage
    oracles above."""
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


def correlate_many(
    buffer: np.ndarray, codes: Sequence[SpreadCode], position: int
) -> np.ndarray:
    """Correlate the window starting at ``position`` against several codes.

    Returns one correlation per code, re-stacking the code matrix on
    every call.  All codes must share one length, and the window must
    fit inside ``buffer``.
    """
    if not codes:
        return np.zeros(0, dtype=np.float64)
    matrix = code_matrix(codes)
    n = matrix.shape[1]
    buffer = np.asarray(buffer, dtype=np.float64)
    if position < 0 or position + n > buffer.size:
        raise SpreadCodeError(
            f"window [{position}, {position + n}) out of buffer "
            f"of {buffer.size} chips"
        )
    window = buffer[position : position + n]
    return matrix @ window / n


class PerPositionCorrelationEngine(CorrelationEngine):
    """One :func:`correlate_many` call per window position.

    A drop-in ``engine=`` for
    :class:`~repro.dsss.synchronizer.SlidingWindowSynchronizer`.  Its
    block size is 1, so a scan that locks early evaluates no position
    past the lock.
    """

    @property
    def block_size(self) -> int:
        return 1

    def correlate_block(
        self, buffer: np.ndarray, start: int, stop: int
    ) -> np.ndarray:
        self._check_range(buffer, start, stop)
        out = np.empty((stop - start, self.n_codes), dtype=np.float64)
        for i, position in enumerate(range(start, stop)):
            out[i] = correlate_many(buffer, self.codes, position)
        return out


#: Engine names the correlation tests run under: the per-position
#: oracle (``naive``), then the production engine forced onto its
#: block-matmul path (``batched``) and onto its FFT path (``fft``).
ENGINE_NAMES = ("naive", "batched", "fft")

#: An ``fft_min_length`` beyond any chip length: forces the matmul path.
MATMUL_ONLY = 1 << 30


def correlation_engine(
    name: str, codes: Sequence[SpreadCode]
) -> CorrelationEngine:
    """The engine ``name`` (one of :data:`ENGINE_NAMES`) over ``codes``."""
    if name == "naive":
        return PerPositionCorrelationEngine(codes)
    fft_min_length = {"batched": MATMUL_ONLY, "fft": 1}[name]
    return CorrelationEngine(codes, fft_min_length=fft_min_length)


def rs_encode(codec: ReedSolomonCodec, message: Sequence[int]) -> List[int]:
    """``message`` plus its parity, by scalar polynomial division."""
    message = list(message)
    codec._check_encodable(message)
    return codec._encode_scalar(message)


def rs_encode_batch(
    codec: ReedSolomonCodec, messages: Sequence[Sequence[int]]
) -> List[List[int]]:
    """:func:`rs_encode` on each message in turn."""
    return [rs_encode(codec, message) for message in messages]


def rs_decode(
    codec: ReedSolomonCodec,
    received: Sequence[int],
    erasure_positions: Sequence[int] = (),
) -> List[int]:
    """The data symbols of one word, by the scalar errors-and-erasures
    pipeline (raises :class:`~repro.errors.EccDecodeError` past the
    ``2e + f <= n - k`` budget)."""
    received = list(received)
    codec._check_decodable(received, erasure_positions)
    return codec._decode_scalar(received, erasure_positions)


def rs_decode_batch(
    codec: ReedSolomonCodec,
    words: Sequence[Sequence[int]],
    erasure_lists: Optional[Sequence[Sequence[int]]] = None,
) -> List[List[int]]:
    """Check every word, then decode each through the scalar pipeline:
    an invalid word (bad symbol, erasure position or erasure count)
    raises before any decode failure, else the first unrecoverable
    word raises."""
    words = [list(word) for word in words]
    if erasure_lists is None:
        erasure_lists = [()] * len(words)
    for word, erasures in zip(words, erasure_lists):
        codec._check_decodable(word, erasures)
    return [
        codec._decode_scalar(word, erasures)
        for word, erasures in zip(words, erasure_lists)
    ]


@contextmanager
def scalar_reed_solomon() -> Iterator[None]:
    """Encode and decode every Reed-Solomon word inside the block on the
    per-word oracles above."""
    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(
            ReedSolomonCodec, "encode", rs_encode
        ))
        stack.enter_context(mock.patch.object(
            ReedSolomonCodec, "decode", rs_decode
        ))
        yield
