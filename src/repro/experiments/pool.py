"""The supervised, persistent warm worker pool: the one execution engine.

Every Monte Carlo sweep — a single ``run_parallel`` call or a whole
campaign — runs on a :class:`WorkerPool`.  ``WorkerPool(processes=0)``
is the *inline* pool: it spawns nothing, and each submitted job runs
lazily in the caller's thread when its :class:`PendingRun` is waited
on.  ``processes >= 1`` spawns that many worker processes.  Both go
through :func:`run_chunk`, so every path builds experiments, caches
them and traps run failures the same way.

:class:`WorkerPool` amortizes setup across a whole campaign:

- **Processes are spawned once** and reused for every shard.  Sizing
  respects the scheduler's CPU affinity mask
  (:func:`available_cpu_count`), not the raw machine core count.
- **Constructed experiments are cached** in a small LRU keyed by a
  content hash of the experiment parameters
  (:meth:`ExperimentSpec.content_key`) — per worker process, or in the
  caller for the inline pool — so consecutive shards of the same sweep
  point, and revisits of a point anywhere in the grid, skip the
  rebuild entirely.  A new point reaches each worker as one cheap
  ``configure`` message carrying the spec, sent ahead of that
  worker's first chunk of it; the per-process artifact cache (codecs,
  correlation matrices, waveforms) stays warm for the pool's whole
  lifetime.
- **Submission is asynchronous.**  :meth:`WorkerPool.submit` returns a
  :class:`PendingRun` immediately.  A dispatcher thread keeps the
  chunks of every submitted job in one FIFO and hands the oldest to
  whichever worker goes idle, so consecutive jobs stream through the
  workers without a barrier between them; the campaign executor keeps
  a window of shards submitted so its SQLite commits overlap worker
  compute.

**Supervision.**  An overnight campaign is only as reliable as its
least reliable process, so the dispatcher does not treat a worker
death as fatal.  Under a :class:`SupervisionPolicy`:

- a dead worker (EOF mid-chunk, broken pipe, ``fatal`` report) is
  **respawned** and its in-flight runs are **retried** as singleton
  chunks under bounded exponential backoff — runs are seed-pure, so a
  retried run is bit-identical to an undisturbed one;
- a run that keeps killing its worker past ``max_run_retries`` is
  **quarantined**: it comes back as a tagged failure outcome carrying
  :data:`~repro.errors.QUARANTINE_MARKER` (surfacing through
  ``ParallelExecutionError``) instead of sinking the pool;
- an optional per-chunk soft timeout (``run_timeout``) classifies a
  **hung** worker, which is killed, counted, and respawned like a
  crash;
- only *infrastructure* failures — the respawn budget of one job
  exhausted (each death is charged to the job owning the chunk the
  worker held), a spawn failure, the pool closed mid-job — raise
  :class:`~repro.errors.WorkerPoolError` and break the pool.

The inline pool has no workers to supervise: a run failure is trapped
as data exactly as in a worker, and anything else propagates from
:meth:`PendingRun.wait`.

An :class:`~repro.faults.execution.ExecutionFaultPlan` can be attached
at construction (test-only hook): workers call its ``before_run`` hook
ahead of every run attempt, which is how the seeded ``WorkerKiller`` /
``RunHang`` / ``SlowWorker`` injectors drive the supervisor
deterministically in tests and chaos CI.  The inline pool ignores it:
there is no worker process to kill.

Determinism is untouched: a run's randomness depends only on
``(seed, run_index)`` and every pool executes ``run_once`` through
:func:`run_chunk`, so inline and multiprocess pools produce
bit-identical :class:`~repro.experiments.runner.RunResult` streams
(pinned by ``tests/experiments/test_pool.py``) — with or without
respawns in between.

Pool activity is observable through the ``pool.*`` counters in
:mod:`repro.obs.names`: workers spawned/respawned/timed-out/
force-killed, configure messages, warm cache hits/misses, tasks
dispatched, dispatcher wake-ups, runs retried, and runs quarantined.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import multiprocessing
import os
import threading
import time
import traceback
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _wait_ready
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.adversary.jammer import JammerStrategy
from repro.core.config import JRSNDConfig
from repro.errors import (
    WORKER_TRAPPED_ERRORS,
    ConfigurationError,
    WorkerPoolError,
    quarantine_failure,
)
from repro.experiments.runner import NetworkExperiment, RunResult
from repro.obs import current
from repro.obs import names as _names
from repro.utils.validation import check_non_negative, check_positive

__all__ = [
    "DEFAULT_CACHE_SIZE",
    "ExperimentSpec",
    "PendingRun",
    "SupervisionPolicy",
    "WorkerPool",
    "adaptive_chunksize",
    "available_cpu_count",
    "run_chunk",
]

#: Constructed experiments a worker process keeps warm; beyond this the
#: least recently used one is dropped (its spec is retained, so a
#: revisit rebuilds locally without any IPC).
DEFAULT_CACHE_SIZE = 8

#: Hard cap on run indices shipped per task message, bounding both the
#: request payload and the ``RunResult`` batch coming back.
MAX_CHUNKSIZE = 32

_Outcome = Tuple[int, Optional[RunResult], Optional[str]]

_CANCELLED_BEFORE_START = "pool job was cancelled before it started"


def available_cpu_count() -> int:
    """CPUs actually available to this process.

    ``multiprocessing.cpu_count()`` reports the machine, not the
    process: in a cgroup-limited container or under ``taskset`` it
    over-spawns workers that then fight for the same few cores.  Where
    the platform exposes a scheduler affinity mask
    (``os.sched_getaffinity``), its size is the honest worker budget;
    elsewhere the machine count remains the best available answer.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            affinity = getaffinity(0)
        except OSError:
            affinity = None
        if affinity:
            return len(affinity)
    return multiprocessing.cpu_count()


def adaptive_chunksize(
    n_tasks: int, workers: int, chunksize: Optional[int] = None
) -> int:
    """Run indices per task message.

    ``multiprocessing``'s implicit chunksize of 1 costs one IPC round
    trip per run — pure overhead on many-run shards of cheap runs.
    Mirroring ``Pool.map``'s heuristic, aim for about four chunks per
    worker (keeping the tail balanced), capped at :data:`MAX_CHUNKSIZE`
    so a single reply can never carry an unbounded result batch.  An
    explicit ``chunksize`` overrides the heuristic.
    """
    if chunksize is not None:
        check_positive("chunksize", chunksize)
        return int(chunksize)
    check_positive("workers", workers)
    if n_tasks <= 0:
        return 1
    per_worker = -(-int(n_tasks) // (int(workers) * 4))
    return max(1, min(MAX_CHUNKSIZE, per_worker))


@dataclass(frozen=True)
class SupervisionPolicy:
    """How the pool reacts when workers die, hang, or wedge.

    Parameters
    ----------
    max_run_retries:
        How many times one run may kill (or hang) its worker and still
        be re-dispatched.  A run failing attempt ``max_run_retries``
        (i.e. on its ``max_run_retries + 1``-th try) is quarantined as
        a tagged failure outcome.
    max_respawns:
        Per-job respawn budget.  Every worker death is charged to the
        job that owned the chunk the worker held (or was being handed
        when its pipe turned out dead), however many jobs are in
        flight; more deaths than this charged to one job is an
        infrastructure failure: the pool breaks with
        ``WorkerPoolError`` (the campaign executor then degrades to a
        simpler engine).
    backoff_base / backoff_factor / backoff_max:
        Bounded exponential backoff slept by the dispatcher after each
        *consecutive* worker death — ``base * factor**(n-1)`` capped at
        ``backoff_max`` — so a crash-looping machine is not hammered
        with respawn storms.  The counter resets on any completed
        chunk.
    run_timeout:
        Optional per-chunk soft timeout (seconds).  A worker holding a
        chunk longer than this is classified as hung, killed, and
        respawned; its runs are retried/quarantined exactly like a
        crash.  ``None`` (default) disables the timeout and the
        dispatcher blocks without polling.
    close_grace:
        Per-escalation-step grace (seconds) used when reaping worker
        processes: join → ``terminate()`` → ``kill()``.
    """

    max_run_retries: int = 2
    max_respawns: int = 16
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 1.0
    run_timeout: Optional[float] = None
    close_grace: float = 10.0

    def __post_init__(self) -> None:
        if self.max_run_retries < 0:
            raise ConfigurationError(
                f"max_run_retries must be >= 0, got {self.max_run_retries}"
            )
        if self.max_respawns < 0:
            raise ConfigurationError(
                f"max_respawns must be >= 0, got {self.max_respawns}"
            )
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ConfigurationError("backoff bounds must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.run_timeout is not None:
            check_positive("run_timeout", self.run_timeout)
        check_positive("close_grace", self.close_grace)

    def retry_delay(self, consecutive_deaths: int) -> float:
        """Backoff before the dispatch following the n-th straight death."""
        if consecutive_deaths <= 0 or self.backoff_base == 0:
            return 0.0
        exponent = self.backoff_factor ** (consecutive_deaths - 1)
        return float(min(self.backoff_max, self.backoff_base * exponent))


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything a worker needs to construct one experiment.

    This is the pool's unit of configuration: a picklable value object
    whose :meth:`content_key` is a content hash over every field that
    influences results, used to key the per-worker LRU of constructed
    experiments.  Two shards of the same sweep point produce equal
    keys, so the second one reuses the first one's warm experiment.
    """

    config: JRSNDConfig
    seed: int
    strategy_value: Any = JammerStrategy.REACTIVE.value
    mndp_rounds: int = 1
    link_model: str = "codes"
    collect_metrics: bool = False
    phy_backend: Optional[str] = None

    def content_key(self) -> str:
        """Stable hash of ``(config, seed, strategy, ...)`` (16 hex)."""
        material = repr((
            sorted(dataclasses.asdict(self.config).items()),
            int(self.seed),
            self.strategy_value,
            int(self.mndp_rounds),
            self.link_model,
            bool(self.collect_metrics),
            self.phy_backend,
        ))
        return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]

    def build(self) -> NetworkExperiment:
        """Construct the experiment these parameters describe."""
        return NetworkExperiment(
            self.config,
            seed=self.seed,
            strategy=JammerStrategy(self.strategy_value),
            mndp_rounds=self.mndp_rounds,
            link_model=self.link_model,
            collect_metrics=self.collect_metrics,
            phy_backend=self.phy_backend,
        )


def run_chunk(
    experiments: "OrderedDict[str, NetworkExperiment]",
    cache_size: int,
    key: str,
    spec: ExperimentSpec,
    index_attempts: Sequence[Tuple[int, int]],
    faults: Any = None,
) -> List[_Outcome]:
    """Execute ``run_once`` over one chunk of ``(index, attempt)`` pairs.

    The experiment for ``key`` comes from the ``experiments`` LRU
    (built from ``spec`` on a miss; beyond ``cache_size`` entries the
    least recently used one is dropped).  Every failure family a run
    can realistically produce —
    :data:`~repro.errors.WORKER_TRAPPED_ERRORS` — travels back as a
    tagged outcome instead of aborting the chunk.  Exceptions outside
    those families (``KeyboardInterrupt``, ``SystemExit``,
    non-``ReproError`` customs) propagate: they signal cancellation or
    a plugged-in component misusing the error taxonomy, not a failed
    run.

    ``faults`` is the execution-plane chaos hook: when set, its
    ``before_run(index, attempt)`` runs ahead of every run attempt —
    the seeded injectors use it to kill, hang, or slow a worker at
    deterministic points.
    """
    experiment = experiments.pop(key, None)
    if experiment is None:
        experiment = spec.build()
    experiments[key] = experiment  # most recently used last
    while len(experiments) > cache_size:
        experiments.popitem(last=False)
    outcomes: List[_Outcome] = []
    for index, attempt in index_attempts:
        if faults is not None:
            faults.before_run(index, attempt)
        try:
            outcomes.append((index, experiment.run_once(index), None))
        except WORKER_TRAPPED_ERRORS:
            outcomes.append((index, None, traceback.format_exc()))
    return outcomes


def _worker_main(
    conn: Any,
    close_conns: List[Any],
    cache_size: int,
    faults: Any = None,
) -> None:
    """Worker process loop: configure specs, run index chunks.

    Specs are retained for the process lifetime (they are tiny);
    constructed experiments live in :func:`run_chunk`'s LRU of
    ``cache_size`` so a pool cycling through many points bounds its
    memory while revisited points stay warm.  Per-run failures travel
    back as tagged outcome data; anything else is a pool fault
    reported as ``fatal``.

    ``close_conns`` carries every *parent-side* pipe end this process
    inherited (its own and those of already-running siblings) and is
    closed immediately.  If those ends stayed open, a worker whose
    parent was SIGKILLed would never observe EOF (a sibling — or the
    worker itself — still holds a live write end) and the orphaned
    pool would survive the crash forever.  Closing them makes "parent
    died" indistinguishable from a clean shutdown: ``recv`` raises
    ``EOFError`` and the worker exits.  The same argument covers
    respawned workers: each new worker closes every older sibling's
    parent end, so its own parent end is held by the parent alone.
    """
    for foreign in close_conns:
        foreign.close()
    specs: Dict[str, ExperimentSpec] = {}
    experiments: "OrderedDict[str, NetworkExperiment]" = OrderedDict()
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break
            tag = message[0]
            if tag == "stop":
                break
            if tag == "configure":
                specs[message[1]] = message[2]
                continue
            if tag != "run":
                raise WorkerPoolError(
                    f"unknown pool message tag {tag!r}"
                )
            _, key, index_attempts = message
            if key not in specs:
                raise WorkerPoolError(
                    f"run task for unconfigured spec key {key!r}"
                )
            conn.send(("done", run_chunk(
                experiments, cache_size, key, specs[key],
                index_attempts, faults,
            )))
    except BaseException:  # jrsnd: noqa(JRS003) -- worker crash containment: every failure must reach the parent as a 'fatal' report before this process exits
        try:
            conn.send(("fatal", traceback.format_exc()))
        except (OSError, ValueError):
            pass
    finally:
        conn.close()


class PendingRun:
    """Handle for one submitted job.

    A multiprocess pool's dispatcher resolves it; an inline pool's
    handle carries the job itself and runs it in :meth:`wait`.
    """

    def __init__(
        self, job: Optional[Callable[[], List[_Outcome]]] = None
    ) -> None:
        self._event = threading.Event()
        self._outcomes: Optional[List[_Outcome]] = None
        self._error: Optional[BaseException] = None
        self._cancelled = False
        self._job = job

    def done(self) -> bool:
        """True once the job has finished (successfully or not)."""
        return self._event.is_set()

    @property
    def cancelled(self) -> bool:
        """True once the job has been cancelled by a timed-out wait."""
        return self._cancelled

    def cancel(self) -> None:
        """Withdraw the job: the dispatcher skips it if not yet started.

        A job counts as started once its first chunk is dispatched to
        a worker.  A started job runs to completion (its results are
        simply discarded with this handle); a cancelled job that has
        not started — or an inline job not yet waited on — is resolved
        with ``WorkerPoolError`` and never dispatched.  This is what
        :meth:`wait` does on timeout, so a timed-out job can neither
        occupy a worker nor race the caller's next job.
        """
        self._cancelled = True

    def wait(self, timeout: Optional[float] = None) -> List[_Outcome]:
        """Block until the job resolves; return its tagged outcomes.

        Outcomes are ``(run_index, RunResult | None, traceback | None)``
        triples in completion order — callers sort by index, exactly as
        ``run_parallel`` does for ``imap_unordered``.

        On timeout the job is cancelled (see :meth:`cancel`) before
        ``WorkerPoolError`` is raised, so it cannot fire late into a
        worker the caller has mentally reclaimed.  An inline job runs
        here, in the caller's thread, so it never times out; whatever
        it raises propagates, and waiting again re-runs it.
        """
        if self._job is not None and not self._event.is_set():
            if self._cancelled:
                self._fail(WorkerPoolError(_CANCELLED_BEFORE_START))
            else:
                self._finish(self._job())
        if not self._event.wait(timeout):
            self.cancel()
            raise WorkerPoolError(
                f"pool job did not finish within {timeout} s; the job "
                f"was cancelled (skipped unless already started)"
            )
        if self._error is not None:
            raise self._error
        assert self._outcomes is not None
        return self._outcomes

    def _finish(self, outcomes: List[_Outcome]) -> None:
        self._outcomes = outcomes
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()


@dataclass
class _Job:
    """One submitted job as the dispatcher tracks it.

    ``chunks`` counts the job's chunks that are queued or in flight;
    the handle resolves when it reaches zero.  ``respawns`` is the
    worker deaths charged to this job (see
    :attr:`SupervisionPolicy.max_respawns`).
    """

    spec: ExperimentSpec
    key: str
    indices: List[int]
    chunksize: Optional[int]
    handle: PendingRun
    attempts: Dict[int, int] = field(default_factory=dict)
    outcomes: List[_Outcome] = field(default_factory=list)
    chunks: int = 0
    respawns: int = 0
    started: bool = False


#: One dispatch unit: the owning job and the run indices it carries.
_Chunk = Tuple[_Job, List[int]]


@dataclass
class _Worker:
    """One live worker process and its parent-side pipe end."""

    slot: int
    process: Any
    conn: Any
    delivered: Set[str] = field(default_factory=set)


class WorkerPool:
    """A supervised pool of long-lived workers with warm experiments.

    Create one per campaign (or once per caller of ``run_parallel``)
    and reuse it across every shard::

        with WorkerPool(processes=4) as pool:
            for shard in shards:
                result = run_parallel(..., pool=pool)

    A dispatcher thread splits every submitted job into index chunks
    and keeps them in one FIFO: an idle worker takes the oldest
    pending chunk, whichever job it belongs to, and a job's
    :class:`PendingRun` resolves when its last chunk returns.  So a
    slow worker never stalls the fast ones, and the tail of one job
    overlaps the head of the next instead of idling a worker at a
    per-job barrier.  Worker deaths and hangs are absorbed by the
    :class:`SupervisionPolicy` (respawn + retry + quarantine, charged
    to the job that owned the failed chunk); the pool only becomes
    *broken* — refusing further submissions — on an infrastructure
    failure such as an exhausted respawn budget.  Per-run failures
    never break it.

    ``processes=0`` makes an *inline* pool: no processes, no
    dispatcher thread; each job runs in the caller's thread when its
    handle is waited on, and the experiment cache lives in the caller
    until :meth:`close`.

    Parameters
    ----------
    processes:
        Worker process count (``0`` for inline); defaults to
        :func:`available_cpu_count`.
    cache_size:
        Constructed experiments each worker (or the inline pool)
        keeps warm (LRU).
    policy:
        Supervision knobs; defaults to ``SupervisionPolicy()``.
    execution_faults:
        Test-only :class:`~repro.faults.execution.ExecutionFaultPlan`
        delivered to every worker (original and respawned alike);
        ignored by the inline pool.
    """

    def __init__(
        self,
        processes: Optional[int] = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
        policy: Optional[SupervisionPolicy] = None,
        execution_faults: Any = None,
    ) -> None:
        if processes is None:
            processes = available_cpu_count()
        check_non_negative("processes", processes)
        check_positive("cache_size", cache_size)
        self._policy = policy or SupervisionPolicy()
        self._cache_size = int(cache_size)
        if execution_faults is not None and not getattr(
            execution_faults, "enabled", True
        ):
            execution_faults = None  # inert plan == no plan (bit-identical)
        self._faults = execution_faults
        self._context = multiprocessing.get_context()
        # Submissions and close() wake the dispatcher through this pipe,
        # so it can block on worker replies and new work at once.
        self._wake_recv: Any = None
        self._wake_send: Any = None
        if processes:
            self._wake_recv, self._wake_send = self._context.Pipe(
                duplex=False
            )
        self._workers: List[_Worker] = []
        for slot in range(int(processes)):
            self._workers.append(self._spawn_worker(slot))
        self._known_keys: Set[str] = set()
        self._experiments: "OrderedDict[str, NetworkExperiment]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self._closed = False
        self._broken = False
        # Submitted jobs the dispatcher has not admitted yet, and
        # whether a wake-up is already on its way (both under _lock).
        self._inbox: Deque[_Job] = deque()
        self._wake_pending = False
        # Dispatcher-owned state: the cross-job chunk FIFO, the chunk
        # each busy worker slot holds (with its dispatch time), and
        # every admitted, unresolved job in admission order.
        self._pending: Deque[_Chunk] = deque()
        self._in_flight: Dict[int, Tuple[_Job, List[int], float]] = {}
        self._live: Dict[int, _Job] = {}
        self._consecutive_deaths = 0
        self._dispatcher: Optional[threading.Thread] = None
        if self._workers:
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop,
                name="repro-pool-dispatcher",
                daemon=True,
            )
            self._dispatcher.start()

    # -- lifecycle -----------------------------------------------------

    @property
    def processes(self) -> int:
        """Worker process count (0 for an inline pool)."""
        return len(self._workers)

    @property
    def _processes(self) -> List[Any]:
        """The live worker ``Process`` objects (testing/debug aid)."""
        return [worker.process for worker in self._workers]

    @property
    def broken(self) -> bool:
        """True once an infrastructure failure has disabled the pool."""
        with self._lock:
            return self._broken

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Stop the dispatcher and workers; idempotent.

        Jobs already submitted are given ``close_grace`` seconds to
        finish; after that shutdown escalates per worker — join, then
        ``terminate()``, then ``kill()`` — so a wedged or
        SIGTERM-ignoring worker can not leak past close.  Workers that
        needed ``kill()`` are surfaced on the
        ``pool.workers_force_killed`` counter.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._wake()
        self._experiments.clear()
        if self._dispatcher is None:
            return
        grace = self._policy.close_grace
        self._dispatcher.join(timeout=grace)
        for worker in self._workers:
            try:
                worker.conn.send(("stop",))
            except (OSError, ValueError):
                pass  # worker already gone
        force_killed = 0
        for worker in self._workers:
            if self._stop_process(worker.process, grace):
                force_killed += 1
        if force_killed:
            current().inc(
                _names.POOL_WORKERS_FORCE_KILLED, force_killed
            )
        if self._dispatcher.is_alive():
            # The workers are gone now, so a dispatcher that was stuck
            # waiting on one unwinds via EOF and exits promptly.
            self._dispatcher.join(timeout=grace)
        for conn in [worker.conn for worker in self._workers] + [
            self._wake_recv, self._wake_send,
        ]:
            try:
                conn.close()
            except OSError:
                pass

    @staticmethod
    def _stop_process(
        process: Any, grace: float, suspect: bool = False
    ) -> bool:
        """Reap ``process``: join → terminate → kill escalation.

        Returns True if SIGKILL was required.  ``suspect`` skips the
        polite join — used for workers already classified as hung.
        """
        if not suspect:
            process.join(timeout=grace)
            if not process.is_alive():
                return False
        process.terminate()
        process.join(timeout=grace)
        if not process.is_alive():
            return False
        process.kill()
        process.join(timeout=grace)
        return True

    # -- submission ----------------------------------------------------

    def submit(
        self,
        spec: ExperimentSpec,
        run_indices: Sequence[int],
        chunksize: Optional[int] = None,
    ) -> PendingRun:
        """Queue ``run_indices`` of ``spec``; returns immediately.

        The caller may keep several jobs submitted before waiting on
        the first — the campaign executor keeps a window of shards in
        flight so its SQLite commits overlap worker compute.
        """
        indices = [int(index) for index in run_indices]
        if not indices:
            raise ConfigurationError("run_indices must be non-empty")
        if any(index < 0 for index in indices):
            raise ConfigurationError("run_indices must be non-negative")
        if chunksize is not None:
            check_positive("chunksize", chunksize)
        with self._lock:
            if self._broken:
                raise WorkerPoolError(
                    "worker pool is broken (respawn budget exhausted "
                    "or the dispatch protocol failed); create a new "
                    "pool"
                )
            if self._closed:
                raise ConfigurationError(
                    "worker pool is closed; create a new pool"
                )
            key = self._register(spec)
            if self._dispatcher is None:
                return PendingRun(
                    functools.partial(self._run_inline, spec, key, indices)
                )
            handle = PendingRun()
            self._inbox.append(
                _Job(
                    spec=spec,
                    key=key,
                    indices=indices,
                    chunksize=chunksize,
                    handle=handle,
                )
            )
            self._wake()
        return handle

    def run(
        self,
        spec: ExperimentSpec,
        run_indices: Sequence[int],
        chunksize: Optional[int] = None,
    ) -> List[_Outcome]:
        """Synchronous convenience: ``submit(...).wait()``."""
        return self.submit(spec, run_indices, chunksize).wait()

    def _register(self, spec: ExperimentSpec) -> str:
        """Count a warm hit or miss for ``spec``; return its key."""
        key = spec.content_key()
        if key in self._known_keys:
            current().inc(_names.POOL_WARM_HITS)
        else:
            self._known_keys.add(key)
            current().inc(_names.POOL_WARM_MISSES)
        return key

    def _run_inline(
        self, spec: ExperimentSpec, key: str, indices: List[int]
    ) -> List[_Outcome]:
        """An inline job: the whole index list as one chunk, here."""
        return run_chunk(
            self._experiments, self._cache_size, key, spec,
            [(index, 0) for index in indices],
        )

    def _wake(self) -> None:
        """Wake the dispatcher (caller holds ``_lock``); at most one
        wake-up message is ever waiting in the pipe."""
        if self._wake_send is not None and not self._wake_pending:
            self._wake_pending = True
            self._wake_send.send_bytes(b"")

    # -- worker management ---------------------------------------------

    def _spawn_worker(self, slot: int) -> _Worker:
        """Start one worker process wired for orphan-free shutdown."""
        parent_end, child_end = self._context.Pipe(duplex=True)
        close_conns = [worker.conn for worker in self._workers]
        close_conns += [parent_end, self._wake_recv, self._wake_send]
        process = self._context.Process(
            target=_worker_main,
            args=(
                child_end,
                close_conns,
                self._cache_size,
                self._faults,
            ),
            daemon=True,
        )
        process.start()
        child_end.close()
        current().inc(_names.POOL_WORKERS_SPAWNED)
        return _Worker(slot=slot, process=process, conn=parent_end)

    def _respawn(
        self, slot: int, job: _Job, reason: str, hung: bool = False
    ) -> None:
        """Replace the worker in ``slot`` after a death or hang,
        charging the death to ``job``.

        Raises ``WorkerPoolError`` (infrastructure) when the pool is
        closing, ``job``'s respawn budget is exhausted, or the
        replacement itself cannot be spawned.
        """
        with self._lock:
            closing = self._closed
        worker = self._workers[slot]
        self._stop_process(worker.process, self._policy.close_grace,
                           suspect=hung)
        try:
            worker.conn.close()
        except OSError:
            pass
        if closing:
            raise WorkerPoolError(
                "worker pool closed while a job was in flight"
            )
        job.respawns += 1
        if job.respawns > self._policy.max_respawns:
            raise WorkerPoolError(
                f"respawn budget exhausted ({self._policy.max_respawns}"
                f" worker deaths charged to one job); last failure: "
                f"{reason}"
            )
        try:
            self._workers[slot] = self._spawn_worker(slot)
        except (OSError, ValueError) as error:
            raise WorkerPoolError(
                f"could not respawn pool worker {slot}: {error}"
            ) from error
        current().inc(_names.POOL_WORKERS_RESPAWNED)

    def _deliver(
        self, worker: _Worker, job: _Job, indices: List[int]
    ) -> bool:
        """Send (configure if needed +) a run chunk; False if the pipe
        is dead — the caller respawns and the chunk stays queued."""
        try:
            if job.key not in worker.delivered:
                worker.conn.send(("configure", job.key, job.spec))
                worker.delivered.add(job.key)
                current().inc(_names.POOL_RECONFIGURES)
            worker.conn.send(
                ("run", job.key,
                 [(index, job.attempts[index]) for index in indices])
            )
        except (OSError, ValueError):
            return False
        return True

    # -- dispatcher ----------------------------------------------------

    def _dispatch_loop(self) -> None:
        try:
            while not self._admit() or self._pending or self._in_flight:
                self._dispatch()
                self._await_replies()
        except BaseException as error:  # jrsnd: noqa(JRS003) -- dispatcher thread boundary: any failure must resolve the pending handles, not die silently in a daemon thread
            with self._lock:
                self._broken = True
                unresolved = list(self._live.values()) + list(self._inbox)
                self._inbox.clear()
            for position, job in enumerate(unresolved):
                job.handle._fail(
                    error if position == 0 else WorkerPoolError(
                        f"worker pool broken by an earlier failure: "
                        f"{error}"
                    )
                )

    def _admit(self) -> bool:
        """Split newly submitted jobs into chunks at the back of the
        FIFO; True once the pool is closing."""
        with self._lock:
            self._wake_pending = False
            jobs = list(self._inbox)
            self._inbox.clear()
            closing = self._closed
        for job in jobs:
            size = adaptive_chunksize(
                len(job.indices), len(self._workers), job.chunksize
            )
            job.attempts = {index: 0 for index in job.indices}
            for start in range(0, len(job.indices), size):
                self._pending.append(
                    (job, job.indices[start : start + size])
                )
                job.chunks += 1
            self._live[id(job)] = job
        return closing

    def _dispatch(self) -> None:
        """Hand the oldest pending chunks to idle workers."""
        for slot in range(len(self._workers)):
            while self._pending and slot not in self._in_flight:
                job, indices = self._pending[0]
                if not job.started and job.handle.cancelled:
                    # Never dispatched: drop the job's chunks as they
                    # reach the head, resolving its handle once.
                    self._pending.popleft()
                    if self._live.pop(id(job), None) is not None:
                        job.handle._fail(
                            WorkerPoolError(_CANCELLED_BEFORE_START)
                        )
                    continue
                if self._deliver(self._workers[slot], job, indices):
                    self._pending.popleft()
                    job.started = True
                    self._in_flight[slot] = (
                        job, indices, time.monotonic()
                    )
                    current().inc(_names.POOL_TASKS_DISPATCHED)
                else:
                    # Dead before the chunk was even dispatched: the
                    # chunk carries no blame (stays queued as-is); the
                    # respawn budget of its job still bounds this.
                    self._consecutive_deaths += 1
                    self._respawn(slot, job, "worker gone before dispatch")

    def _await_replies(self) -> None:
        """Block until a worker replies, a job is submitted, the pool
        closes, or the soft timeout of an in-flight chunk expires."""
        policy = self._policy
        conn_to_slot = {
            self._workers[slot].conn: slot for slot in self._in_flight
        }
        timeout: Optional[float] = None
        if policy.run_timeout is not None and self._in_flight:
            deadline = policy.run_timeout + min(
                started for _, _, started in self._in_flight.values()
            )
            timeout = max(0.001, deadline - time.monotonic())
        ready = _wait_ready([self._wake_recv, *conn_to_slot], timeout)
        current().inc(_names.POOL_DISPATCHER_WAKEUPS)
        for conn in ready:
            if conn is self._wake_recv:
                while conn.poll():
                    conn.recv_bytes()
                continue
            slot = conn_to_slot[conn]
            try:
                message: Optional[Tuple[Any, ...]] = conn.recv()
            except (EOFError, OSError):
                message = None
            job, indices, _ = self._in_flight.pop(slot)
            if message is not None and message[0] == "done":
                job.outcomes.extend(message[1])
                self._consecutive_deaths = 0
                self._settle(job, 0)
                continue
            # EOF (killed / crashed) or a 'fatal' report: either way
            # this worker is done for — respawn it and put the blame
            # on the runs it was holding.
            self._fail_chunk(
                slot, job, indices,
                "worker died mid-chunk (killed or crashed before "
                "replying)"
                if message is None
                else f"worker fault:\n{message[1]}",
            )
        if policy.run_timeout is None:
            return
        now = time.monotonic()
        for slot, (job, indices, started) in list(self._in_flight.items()):
            if now - started < policy.run_timeout:
                continue
            current().inc(_names.POOL_WORKERS_TIMED_OUT)
            del self._in_flight[slot]
            self._fail_chunk(
                slot, job, indices,
                f"chunk exceeded the {policy.run_timeout} s soft "
                f"timeout (hung worker killed)",
                hung=True,
            )

    def _fail_chunk(
        self,
        slot: int,
        job: _Job,
        indices: List[int],
        reason: str,
        hung: bool = False,
    ) -> None:
        """Respawn the worker that lost ``indices``, then retry or
        quarantine every run of the chunk.

        Retried runs go back as *singleton* chunks at the head of the
        FIFO (their job is the oldest work outstanding): a run sharing
        a chunk with a poison run must not inherit its blame, and
        after one isolation round the killer is unambiguous.
        """
        self._consecutive_deaths += 1
        self._respawn(slot, job, reason, hung=hung)
        registry = current()
        retried: List[int] = []
        for index in indices:
            job.attempts[index] += 1
            if job.attempts[index] > self._policy.max_run_retries:
                job.outcomes.append((
                    index,
                    None,
                    quarantine_failure(index, job.attempts[index], reason),
                ))
                registry.inc(_names.POOL_RUNS_QUARANTINED)
            else:
                retried.append(index)
                registry.inc(_names.POOL_RUNS_RETRIED)
        self._pending.extendleft((job, [index]) for index in reversed(retried))
        self._settle(job, len(retried))
        delay = self._policy.retry_delay(self._consecutive_deaths)
        if delay > 0:
            time.sleep(delay)

    def _settle(self, job: _Job, requeued: int) -> None:
        """Account one returned or failed chunk of ``job`` (``requeued``
        singleton retries replace it); resolve the job at zero."""
        job.chunks += requeued - 1
        if job.chunks == 0:
            del self._live[id(job)]
            job.handle._finish(job.outcomes)
