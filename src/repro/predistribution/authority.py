"""The authority's code-assignment procedure (Section V-A).

``m`` rounds of random equal partition: in round ``i`` the authority
splits the ``n`` nodes into ``w`` subsets of cardinality ``l`` and
assigns code ``C_{w(i-1)+j}`` to subset ``j``.  When ``l`` does not
divide ``n``, virtual nodes pad the last subsets; their assignments are
banked and handed to late joiners.  If more than the banked number of new
nodes arrive, a whole extra distribution round re-runs over the existing
pool, raising each code's share count by one.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.validation import check_positive

__all__ = ["CodeAssignment", "PreDistributor"]


class CodeAssignment:
    """The result of pre-distribution.

    The canonical form is :attr:`codes`, an ``n x m`` integer array whose
    row ``i`` lists node ``i``'s pool indices in round order.  Every
    round hands each node exactly one code and round ``r`` owns the ids
    ``w*r .. w*r + w - 1``, so ``codes[:, r] // w == r`` and two nodes
    share round ``r``'s code iff their column-``r`` entries are equal.
    The list/set views are derived on first access.

    Attributes
    ----------
    codes:
        Read-only ``(n, m)`` int64 array of pool indices.
    pool_size:
        Total number of pool codes ``s = w * m`` used by the assignment.
    """

    def __init__(self, codes: np.ndarray, pool_size: int) -> None:
        codes = np.asarray(codes, dtype=np.int64)
        codes.flags.writeable = False
        self.codes = codes
        self.pool_size = int(pool_size)
        self._node_codes: Optional[List[List[int]]] = None
        self._code_holders: Optional[Dict[int, Set[int]]] = None

    @property
    def node_codes(self) -> List[List[int]]:
        """``node_codes[i]`` is the ordered list of pool indices assigned
        to node ``i`` (length ``m``)."""
        if self._node_codes is None:
            self._node_codes = self.codes.tolist()
        return self._node_codes

    @property
    def code_holders(self) -> Dict[int, Set[int]]:
        """``code_holders[c]`` is the set of node indices holding pool
        code ``c``, keyed in code order."""
        if self._code_holders is None:
            flat = self.codes.ravel()
            by_code = np.argsort(flat, kind="stable")
            holders = (by_code // self.codes_per_node).tolist()
            stops = np.cumsum(
                np.bincount(flat, minlength=self.pool_size)
            ).tolist()
            self._code_holders = {}
            begin = 0
            for code, stop in enumerate(stops):
                self._code_holders[code] = set(holders[begin:stop])
                begin = stop
        return self._code_holders

    @property
    def n_nodes(self) -> int:
        """Number of (real) nodes covered by the assignment."""
        return int(self.codes.shape[0])

    @property
    def codes_per_node(self) -> int:
        """The paper's ``m``."""
        return int(self.codes.shape[1])

    def shared_codes(self, a: int, b: int) -> List[int]:
        """Pool indices shared by nodes ``a`` and ``b`` (the paper's
        ``C_A ∩ C_B``), ascending."""
        row_a = self.codes[a]
        return row_a[row_a == self.codes[b]].tolist()

    def holders_of(self, code_index: int) -> Set[int]:
        """Nodes holding pool code ``code_index``."""
        return set(self.code_holders.get(code_index, set()))

    def max_share_count(self) -> int:
        """Largest number of nodes sharing any one code (``<= l`` plus
        any late-join increments)."""
        return int(np.bincount(self.codes.ravel()).max())

    def compromised_codes(self, compromised_nodes: Sequence[int]) -> Set[int]:
        """Union of pool indices held by the given nodes."""
        nodes = np.fromiter(compromised_nodes, dtype=np.int64)
        bad = nodes[(nodes < 0) | (nodes >= self.n_nodes)]
        if bad.size:
            raise ConfigurationError(
                f"node index {bad[0]} out of range [0, {self.n_nodes})"
            )
        return set(np.unique(self.codes[nodes]).tolist())


class PreDistributor:
    """Runs the ``m``-round partition assignment.

    Parameters
    ----------
    n_nodes:
        Number of nodes ``n``.
    codes_per_node:
        Codes per node ``m``.
    share_count:
        Nodes per code ``l``.
    """

    def __init__(
        self, n_nodes: int, codes_per_node: int, share_count: int
    ) -> None:
        check_positive("n_nodes", n_nodes)
        check_positive("codes_per_node", codes_per_node)
        check_positive("share_count", share_count)
        if share_count < 2:
            raise ConfigurationError(
                f"share_count (l) must be >= 2 for any code to be shared, "
                f"got {share_count}"
            )
        if share_count > n_nodes:
            raise ConfigurationError(
                f"share_count l={share_count} cannot exceed n={n_nodes}"
            )
        self._n = int(n_nodes)
        self._m = int(codes_per_node)
        self._l = int(share_count)
        # Virtual nodes pad n up to a multiple of l (Section V-A).
        self._w = math.ceil(self._n / self._l)
        self._n_virtual = self._w * self._l - self._n

    @property
    def n_nodes(self) -> int:
        """Real node count ``n``."""
        return self._n

    @property
    def codes_per_node(self) -> int:
        """Codes per node ``m``."""
        return self._m

    @property
    def share_count(self) -> int:
        """Target share count ``l``."""
        return self._l

    @property
    def subsets_per_round(self) -> int:
        """The paper's ``w = ceil(n / l)``."""
        return self._w

    @property
    def n_virtual(self) -> int:
        """Virtual nodes introduced to pad the partition (``l'``)."""
        return self._n_virtual

    @property
    def pool_size(self) -> int:
        """Pool codes consumed: ``s = w * m``."""
        return self._w * self._m

    def assign(self, rng: np.random.Generator) -> CodeAssignment:
        """Run the ``m`` rounds and return the assignment.

        Virtual node slots participate in the partition but their codes
        are simply not recorded against any real node, so some codes end
        up shared by fewer than ``l`` real nodes — the behaviour the
        paper describes as "not affect the performance very much".

        Each round consumes exactly one ``rng.permutation``; a node
        landing at position ``p`` of it joins subset ``p // l``, so one
        scatter through the inverse permutation yields every node's
        code for the round.
        """
        total = self._n + self._n_virtual
        codes = np.empty((self._n, self._m), dtype=np.int64)
        position_of = np.empty(total, dtype=np.int64)
        slots = np.arange(total, dtype=np.int64)
        for round_index in range(self._m):
            order = rng.permutation(total)
            position_of[order] = slots
            codes[:, round_index] = (
                self._w * round_index + position_of[: self._n] // self._l
            )
        return CodeAssignment(codes, self.pool_size)

    def admit_new_nodes(
        self,
        assignment: CodeAssignment,
        n_new: int,
        rng: np.random.Generator,
    ) -> Tuple[CodeAssignment, List[int]]:
        """Admit ``n_new`` late joiners (Section V-A's join procedure).

        Virtual-node slots are consumed first: each new node inherits a
        random unused code from each round's short subsets.  Once the
        virtual budget is exhausted, a full extra pass re-partitions
        ``w`` new nodes over the existing pool, raising share counts by
        one.  Returns the extended assignment and the indices of the new
        nodes.
        """
        check_positive("n_new", n_new)
        n_old = assignment.n_nodes
        holders = np.bincount(
            assignment.codes.ravel(), minlength=assignment.pool_size
        )
        rows: List[np.ndarray] = []
        remaining = int(n_new)
        virtual_budget = self._n_virtual - (n_old - self._n)
        while remaining > 0 and virtual_budget > 0:
            row = self._codes_for_virtual_slot(holders, rng)
            holders[row] += 1
            rows.append(row)
            remaining -= 1
            virtual_budget -= 1
        while remaining > 0:
            batch = min(remaining, self._w)
            # One extra distribution round-set over the existing s codes.
            block = np.empty((batch, self._m), dtype=np.int64)
            for round_index in range(self._m):
                order = rng.permutation(self._w)
                block[:, round_index] = self._w * round_index + order[:batch]
            rows.extend(block)
            remaining -= batch
        codes = np.concatenate(
            [assignment.codes, np.array(rows, dtype=np.int64)]
        )
        extended = CodeAssignment(codes, assignment.pool_size)
        return extended, list(range(n_old, codes.shape[0]))

    def _codes_for_virtual_slot(
        self, holders: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Pick one under-subscribed code per round for a late joiner;
        ``holders`` counts each code's current holders."""
        codes = np.empty(self._m, dtype=np.int64)
        for round_index in range(self._m):
            base = self._w * round_index
            short = np.flatnonzero(holders[base : base + self._w] < self._l)
            pool = short if short.size else np.arange(self._w)
            codes[round_index] = base + pool[int(rng.integers(0, len(pool)))]
        return codes
