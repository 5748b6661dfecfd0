"""Multiprocess Monte Carlo execution.

The paper averages every point over 100 runs; runs are embarrassingly
parallel (each derives its own seed stream), so
:func:`run_parallel` fans them out over worker processes and returns the
same :class:`~repro.experiments.runner.ExperimentResult` a serial
``NetworkExperiment.run`` would.  Results are bit-identical to the
serial path because each run's randomness depends only on
``(seed, run_index)``.

Robustness and efficiency:

- the experiment parameters (including the full ``JRSNDConfig``) are
  shipped to each worker **once** via a configure broadcast instead of
  being re-pickled with every task — a task is just a run index;
- workers never let a run exception escape the dispatch protocol:
  failures come back tagged with their run index, and after all tasks
  drain the completed runs are preserved on the raised
  :class:`~repro.errors.ParallelExecutionError` instead of being lost
  to a bare mid-map traceback;
- outcomes arrive in completion order (fastest drain) and are
  reordered deterministically by run index before aggregation, so the
  returned result is independent of worker scheduling;
- tasks are batched with an adaptive ``chunksize``
  (:func:`~repro.experiments.pool.adaptive_chunksize`) instead of the
  implicit 1, cutting per-task IPC on many-run sweeps;
- both multiprocess paths run on the supervised
  :class:`~repro.experiments.pool.WorkerPool` — a worker death is
  respawned and its runs retried (seed-pure, so bit-identical) rather
  than aborting the sweep;
- a persistent :class:`~repro.experiments.pool.WorkerPool` can be
  passed as ``pool=`` to reuse warm worker processes (and their cached
  experiments) across many calls — the campaign executor does this for
  every shard of a grid.  ``pool=None`` keeps the self-contained
  behavior (a fresh per-call pool); all three paths (serial, fresh
  pool, persistent pool) are bit-identical.

With ``collect_metrics=True`` each worker attaches a per-run
:class:`~repro.obs.MetricsSnapshot` to its ``RunResult`` (the
process-global registry of the *parent* is not shared with workers);
``ExperimentResult.merged_metrics()`` then yields counter totals
identical to a serial instrumented run of the same seed.
"""

from __future__ import annotations

import traceback
from typing import Any, List, Optional, Sequence, Tuple

from repro.adversary.jammer import JammerStrategy
from repro.core.config import JRSNDConfig
from repro.errors import (
    WORKER_TRAPPED_ERRORS,
    ConfigurationError,
    ParallelExecutionError,
)
from repro.experiments.pool import (
    ExperimentSpec,
    SupervisionPolicy,
    WorkerPool,
    available_cpu_count,
)
from repro.experiments.runner import (
    ExperimentResult,
    NetworkExperiment,
    RunResult,
)
from repro.utils.validation import check_positive

__all__ = ["collect_outcomes", "run_parallel"]

# Per-worker-process experiment, built once by _init_worker so that the
# configuration is pickled once per worker instead of once per task.
_worker_experiment: Optional[NetworkExperiment] = None

_Outcome = Tuple[int, Optional[RunResult], Optional[str]]


def _init_worker(
    config: JRSNDConfig,
    seed: int,
    strategy_value: Any,
    mndp_rounds: int,
    link_model: str,
    collect_metrics: bool,
    phy_backend: Optional[str] = None,
) -> None:
    """Pool initializer: rebuild the experiment once per worker."""
    global _worker_experiment
    _worker_experiment = NetworkExperiment(
        config,
        seed=seed,
        strategy=JammerStrategy(strategy_value),
        mndp_rounds=mndp_rounds,
        link_model=link_model,
        collect_metrics=collect_metrics,
        phy_backend=phy_backend,
    )


def _one_run(index: int) -> _Outcome:
    """Worker: execute one snapshot, tagging any failure with its index.

    An exception inside a raw ``pool.map`` callable aborts the whole
    map and discards every completed run, so every failure family a
    run can realistically produce —
    :data:`~repro.errors.WORKER_TRAPPED_ERRORS` — travels back as data
    instead.  Exceptions outside those families (``KeyboardInterrupt``,
    ``SystemExit``, non-``ReproError`` customs) still propagate: they
    signal cancellation or a plugged-in component misusing the error
    taxonomy, not a failed run.
    """
    try:
        return index, _worker_experiment.run_once(index), None
    except WORKER_TRAPPED_ERRORS:
        return index, None, traceback.format_exc()


def collect_outcomes(
    outcomes: List[_Outcome], runs: int
) -> ExperimentResult:
    """Aggregate tagged outcomes into a result, raising on failures.

    Shared by every execution path (serial, fresh pool, persistent
    pool): outcomes are reordered deterministically by run index, and
    any failure raises :class:`~repro.errors.ParallelExecutionError`
    carrying the runs that did complete.
    """
    outcomes.sort(key=lambda outcome: outcome[0])
    failures = [
        (index, tb) for index, _, tb in outcomes if tb is not None
    ]
    completed = tuple(
        result for _, result, tb in outcomes if tb is None
    )
    if failures:
        failed_indices = ", ".join(str(index) for index, _ in failures)
        raise ParallelExecutionError(
            f"{len(failures)} of {runs} runs failed "
            f"(indices {failed_indices}); first failure:\n"
            f"{failures[0][1]}",
            failures=failures,
            completed=ExperimentResult(runs=completed),
        )
    return ExperimentResult(runs=completed)


def run_parallel(
    config: JRSNDConfig,
    seed: int,
    runs: int,
    processes: Optional[int] = None,
    strategy: JammerStrategy = JammerStrategy.REACTIVE,
    mndp_rounds: int = 1,
    link_model: str = "codes",
    collect_metrics: bool = False,
    run_indices: Optional[Sequence[int]] = None,
    phy_backend: Optional[str] = None,
    pool: Optional[WorkerPool] = None,
    chunksize: Optional[int] = None,
    supervision: Optional[SupervisionPolicy] = None,
    execution_faults: Any = None,
) -> ExperimentResult:
    """Execute ``runs`` snapshots across ``processes`` workers.

    ``processes`` defaults to the CPUs available to *this process*
    (the scheduler affinity mask where the platform exposes one, via
    :func:`~repro.experiments.pool.available_cpu_count`), capped at
    ``runs``.
    Results are identical to ``NetworkExperiment(...).run(runs)``.
    ``phy_backend`` (when set) overrides ``config.phy_backend`` in every
    worker, selecting the message / chip / chipless D-NDP sampling path.

    ``run_indices`` selects which run indices to execute (default
    ``range(runs)``).  A run's randomness depends only on
    ``(seed, run_index)``, so executing indices ``[4, 5, 6, 7]`` here
    yields exactly the runs 4-7 of a full ``range(8)`` sweep — this is
    what lets ``repro.campaigns`` split one sweep point into
    independently checkpointed shards without perturbing any stream.
    When given, ``runs`` must equal ``len(run_indices)``.

    ``pool`` (when set) executes the runs on a persistent
    :class:`~repro.experiments.pool.WorkerPool` instead of a throwaway
    one: the workers and their cached experiments survive across
    calls, so repeated calls for the same parameters skip the per-call
    rebuild entirely.  ``processes`` is ignored in that case (the pool
    was sized at construction).  Without a ``pool``, multi-worker
    execution still runs on a (fresh, per-call) supervised
    ``WorkerPool``, so worker deaths are respawned/retried rather than
    aborting the sweep; ``supervision`` tunes that policy and
    ``execution_faults`` is the test-only chaos hook, both ignored
    when a persistent ``pool`` is passed (it carries its own).
    ``chunksize`` overrides the adaptive run-indices-per-task batch on
    either multiprocess path.

    Raises :class:`~repro.errors.ParallelExecutionError` if any run
    fails, after all tasks have drained — the exception carries every
    failure's index and traceback plus an ``ExperimentResult`` of the
    runs that did complete.
    """
    check_positive("runs", runs)
    if processes is not None:
        check_positive("processes", processes)
    if run_indices is not None:
        indices_list = [int(index) for index in run_indices]
        if len(indices_list) != int(runs):
            raise ConfigurationError(
                f"runs ({runs}) must equal len(run_indices) "
                f"({len(indices_list)})"
            )
        if any(index < 0 for index in indices_list):
            raise ConfigurationError("run_indices must be non-negative")
    if chunksize is not None:
        check_positive("chunksize", chunksize)
    indices: Sequence[int] = (
        range(int(runs)) if run_indices is None else indices_list
    )
    spec = ExperimentSpec(
        config=config,
        seed=seed,
        strategy_value=strategy.value,
        mndp_rounds=mndp_rounds,
        link_model=link_model,
        collect_metrics=collect_metrics,
        phy_backend=phy_backend,
    )
    if pool is not None:
        return collect_outcomes(
            pool.run(spec, indices, chunksize=chunksize), int(runs)
        )
    workers = min(
        processes or available_cpu_count(), int(runs)
    )
    if workers <= 1:
        global _worker_experiment
        try:
            _init_worker(
                config,
                seed,
                strategy.value,
                mndp_rounds,
                link_model,
                collect_metrics,
                phy_backend,
            )
            outcomes: List[_Outcome] = [
                _one_run(index) for index in indices
            ]
        finally:
            # The inline path runs in the *caller's* process: leaving
            # the built experiment in the module global would leak a
            # full topology/codec graph into every later caller.
            _worker_experiment = None
    else:
        # The fresh path is a throwaway *supervised* pool, not a raw
        # ``multiprocessing.Pool``: a worker SIGKILLed mid-map would
        # wedge ``imap_unordered`` forever, whereas the supervisor
        # respawns the worker and retries its runs (bit-identically —
        # a run's randomness depends only on ``(seed, run_index)``).
        with WorkerPool(
            processes=workers,
            policy=supervision,
            execution_faults=execution_faults,
        ) as fresh_pool:
            outcomes = fresh_pool.run(
                spec, indices, chunksize=chunksize
            )
    return collect_outcomes(outcomes, int(runs))
