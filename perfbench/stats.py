"""Summary statistics and failure accounting for the benchmark.

Pure functions over plain numbers, so the harness tests can pin them
without running a workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, TypeVar

T = TypeVar("T")

#: Candidate tail percentiles, highest first.  A fixed ladder keeps the
#: reported tail comparable between runs of different sample counts.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile is reported only if at least this many samples lie
#: beyond it; fewer would make the "tail" one or two outliers.
MIN_BEYOND = 10


def tail(values: Sequence[float]) -> Optional[dict]:
    """The highest ladder percentile that leaves at least
    :data:`MIN_BEYOND` samples beyond it, as ``{"value", "percentile",
    "samples"}``; ``None`` when the run has too few samples."""
    n = len(values)
    for percentile in TAIL_PERCENTILES:
        rank = max(1, math.ceil(percentile / 100.0 * n))
        if n - rank >= MIN_BEYOND:
            return {
                "value": sorted(values)[rank - 1],
                "percentile": percentile,
                "samples": n,
            }
    return None


@dataclass
class Tally:
    """Attempted and failed operations, with the reason for each failure.

    An operation fails if it raises, is quarantined, degrades the
    campaign engine or fails a correctness check.
    """

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def record(self, attempted: int, failed: int = 0,
               reason: Optional[str] = None) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and reason:
            self.reasons.append(reason)

    def fail(self, failed: int, reason: str) -> None:
        """Mark ``failed`` already-attempted operations as failed."""
        self.failed += failed
        self.reasons.append(reason)

    @property
    def failed_total(self) -> int:
        """Failed operations, never more than attempted (an operation
        can break more than one check)."""
        return min(self.failed, self.attempted)

    @property
    def failed_frac(self) -> float:
        return self.failed_total / self.attempted if self.attempted else 1.0


def attempt(tally: Tally, operation: Callable[[], T], weight: int = 1,
            label: str = "operation") -> Optional[T]:
    """Run ``operation``; a raise counts ``weight`` failed operations
    and returns ``None``.  Success leaves the counting to the caller,
    who knows how many of the ``weight`` operations it checked."""
    try:
        return operation()
    except Exception as error:  # the benchmark reports, never crashes
        tally.record(weight, weight,
                     f"{label} raised {type(error).__name__}: {error}")
        return None


def campaign_failed_runs(status, expected_runs: int) -> int:
    """Runs of one campaign that count as failed.

    A degraded engine or an incomplete campaign fails every run; a
    complete one fails exactly its quarantined runs.
    """
    if status.degraded or not status.complete:
        return expected_runs
    return int(status.runs_quarantined)
