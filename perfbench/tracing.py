"""Outside-in spans around the public functions of each layer.

The benchmark does not edit the program: :func:`install_layers` swaps
each function listed in :data:`LAYER_SPANS` for a wrapper that records
a span (name, start, end, parent) into an in-memory :class:`Tracer`.
Spans are written out only when the run ends.

Campaign workers are forked from the traced process and inherit the
wrappers; a wrapper called in another process passes straight through,
so only the traced process's own layers are recorded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

#: ``(module, attribute path, span name)`` for every wrapped function.
#: Two functions may share a span name; their calls add up.
LAYER_SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.sim.mobility", "uniform_positions", "sim.placement"),
    ("repro.sim.field", "RectangularField.neighbor_pairs",
     "sim.neighbor_pairs"),
    ("repro.predistribution.authority", "PreDistributor.assign",
     "predistribution.assign"),
    ("repro.adversary.compromise", "CompromiseModel.compromise_random",
     "adversary.compromise"),
    ("repro.adversary.jammer", "JammingModel.from_compromise",
     "adversary.compromise"),
    ("repro.dsss.phy", "ChiplessModel.pair_success_probability",
     "dsss.phy.pair_probability"),
    ("repro.experiments.runner", "NetworkExperiment.run_once",
     "runner.run_once"),
    ("repro.core.mndp", "LogicalGraph.__init__", "mndp.graph_init"),
    ("repro.core.mndp", "LogicalGraph.add_links", "mndp.add_links"),
    ("repro.core.mndp", "MNDPSampler.discover", "mndp.discover"),
    ("repro.experiments.pool", "WorkerPool.__init__", "pool.spinup"),
    ("repro.experiments.pool", "WorkerPool.submit", "pool.submit"),
    ("repro.experiments.pool", "PendingRun.wait", "pool.wait"),
    ("repro.experiments.pool", "WorkerPool.close", "pool.close"),
    ("repro.obs.snapshot", "MetricsSnapshot.merge_all",
     "obs.merged_metrics"),
    ("repro.campaigns.store", "CampaignStore.__init__", "store.open"),
    ("repro.campaigns.store", "CampaignStore.write_shard",
     "store.write_shard"),
    ("repro.campaigns.store", "CampaignStore.export_canonical",
     "store.export_canonical"),
    ("repro.campaigns.store", "CampaignStore.canonical_digest",
     "store.canonical_digest"),
    ("repro.campaigns.store", "CampaignStore.point_results",
     "store.point_results"),
    ("repro.campaigns.executor", "run_campaign", "campaign.run_campaign"),
)

#: Spans that also record the size of their return value.
COUNTED_SPANS = ("sim.neighbor_pairs", "mndp.discover")


@dataclass(frozen=True)
class Span:
    """One timed call; ``parent`` indexes the enclosing span or is -1."""

    name: str
    start: float
    end: float
    parent: int
    count: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._pid = os.getpid()
        self._paused = False
        self._restore: List[Callable[[], None]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        """Record the enclosed block; set ``box["count"]`` to attach a
        count to the span."""
        stack = self._stack()
        # Reserve the slot so children opened inside can point at it.
        with self._lock:
            index = len(self.spans)
            self.spans.append(Span(name, 0.0, 0.0, -1))
        parent = stack[-1] if stack else -1
        stack.append(index)
        box: dict = {}
        start = time.perf_counter()
        try:
            yield box
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[index] = Span(name, start, end, parent,
                                     box.get("count"))

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Calls inside the block record no spans."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def wrap(self, function: Callable[..., Any], name: str) -> Callable:
        counted = name in COUNTED_SPANS

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if self._paused or os.getpid() != self._pid:
                return function(*args, **kwargs)
            with self.span(name) as box:
                result = function(*args, **kwargs)
                if counted:
                    box["count"] = len(result)
                return result

        return traced

    def install(self, module_name: str, path: str, name: str) -> None:
        """Replace ``module_name.path`` by a traced wrapper.

        A module-level function is also replaced wherever another
        ``repro`` module imported it by name.
        """
        module = importlib.import_module(module_name)
        if "." not in path:
            original = getattr(module, path)
            wrapper = self.wrap(original, name)
            for other in list(sys.modules.values()):
                if (getattr(other, "__name__", "").startswith("repro")
                        and getattr(other, path, None) is original):
                    setattr(other, path, wrapper)
                    self._restore.append(
                        functools.partial(setattr, other, path, original)
                    )
            return
        class_name, attribute = path.split(".")
        owner = getattr(module, class_name)
        raw = inspect.getattr_static(owner, attribute)
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(self.wrap(raw.__func__, name))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(self.wrap(raw.__func__, name))
        else:
            replacement = self.wrap(raw, name)
        setattr(owner, attribute, replacement)
        self._restore.append(
            functools.partial(setattr, owner, attribute, raw)
        )

    def uninstall(self) -> None:
        """Put every wrapped function back."""
        while self._restore:
            self._restore.pop()()


def install_layers(tracer: Tracer) -> None:
    """Wrap every function of :data:`LAYER_SPANS`."""
    for module_name, path, name in LAYER_SPANS:
        tracer.install(module_name, path, name)


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            parent = spans[span.parent]
            start = max(span.start, parent.start)
            end = min(span.end, parent.end)
            if end > start:
                children.setdefault(span.parent, []).append((start, end))
    return [
        span.duration - _covered(children.get(index, []))
        for index, span in enumerate(spans)
    ]


def summarize(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: total seconds, self seconds, calls and the summed
    recorded count."""
    summary: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = summary.setdefault(
            span.name,
            {"seconds": 0.0, "self_seconds": 0.0, "calls": 0, "count": 0},
        )
        entry["seconds"] += span.duration
        entry["self_seconds"] += own
        entry["calls"] += 1
        entry["count"] += span.count or 0
    return summary
