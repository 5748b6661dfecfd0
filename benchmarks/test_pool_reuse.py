"""Persistent-pool bench: warm workers vs a fresh pool per shard.

The campaign workload this PR targets: hundreds of *small* shards,
where the chipless PHY has made the run bodies cheap enough that the
per-shard ``multiprocessing.Pool`` spin-up (fork, initializer rebuild,
cold artifact caches in every worker, teardown) dominates wall clock.
The persistent :class:`~repro.experiments.pool.WorkerPool` pays those
costs once per campaign instead of once per shard, and overlaps each
shard's SQLite commit with the next shard's execution.

This bench runs the same many-small-shard campaign through both
engines, gates the shard-throughput ratio, and records the trajectory
in the root-level ``BENCH_pool.json`` artifact.  Both campaigns must
also produce the same canonical digest — a perf engine that changed
the bytes would be a correctness bug, not a speedup.

Environment knobs (on top of ``conftest``'s):

- ``REPRO_BENCH_SMOKE``  set to 1 for CI smoke mode: a smaller
  workload and a relaxed floor for noisy shared runners.
"""

import json
import os
import statistics
import time

from repro.campaigns import CampaignSpec, run_campaign
from repro.experiments.pool import SupervisionPolicy
from repro.experiments.reporting import format_series_table
from repro.obs import MetricsRegistry, installed
from repro.obs import names as _names
from repro.utils.fileio import atomic_write_text

BENCH_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_pool.json",
)

#: The pool must win by this much on the full workload (CI smoke uses
#: a relaxed floor: shared runners fork slowly and noisily).
FULL_FLOOR = 3.0
SMOKE_FLOOR = 1.2

#: Explicit worker count: sizing from this machine's affinity mask can
#: yield 1 worker (single-CPU CI), which would silently bypass both
#: engines' multiprocess paths and benchmark nothing.
WORKERS = 2


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "0") not in ("", "0")


def _bench_spec(runs_per_point: int, seed: int) -> CampaignSpec:
    # runs_per_shard=2 keeps every shard on the true multiprocess
    # path: a 1-run shard would collapse run_parallel's per-shard
    # baseline to the inline single-worker fast path and measure
    # nothing.
    return CampaignSpec(
        name="poolbench",
        seed=seed,
        runs_per_point=runs_per_point,
        runs_per_shard=2,
        base="tiny-chipless",
        grid={"n_compromised": [5, 10]},
    )


def _time_campaign(spec, store_path, use_pool, supervision=None):
    """``(elapsed, status, pool counters)`` for one full campaign."""
    registry = MetricsRegistry()
    start = time.perf_counter()
    with installed(registry):
        status = run_campaign(
            spec,
            store_path,
            processes=WORKERS,
            git_revision="bench",
            use_pool=use_pool,
            supervision=supervision,
        )
    elapsed = time.perf_counter() - start
    counters = registry.snapshot().counters
    return elapsed, status, {
        name: count
        for name, count in counters.items()
        if name.startswith("pool.")
    }


def test_persistent_pool_shard_throughput(
    benchmark, seed, bench_record, tmp_path
):
    runs_per_point = 8 if _smoke() else 48
    floor = SMOKE_FLOOR if _smoke() else FULL_FLOOR
    spec = _bench_spec(runs_per_point, seed)

    def measure():
        # Warm-up outside the timed comparison: first-campaign import
        # and artifact costs hit whichever engine runs first.
        warm = _bench_spec(2, seed)
        _time_campaign(
            warm, str(tmp_path / "warm.sqlite"), use_pool=False
        )
        baseline_t, baseline_status, _ = _time_campaign(
            spec, str(tmp_path / "per-shard.sqlite"), use_pool=False
        )
        pooled_t, pooled_status, pool_counters = _time_campaign(
            spec, str(tmp_path / "persistent.sqlite"), use_pool=True
        )
        return (
            baseline_t, baseline_status,
            pooled_t, pooled_status, pool_counters,
        )

    (
        baseline_t, baseline_status,
        pooled_t, pooled_status, pool_counters,
    ) = benchmark.pedantic(measure, rounds=1, iterations=1)

    assert baseline_status.complete and pooled_status.complete
    # Same bytes from both engines, or the comparison is meaningless.
    assert (
        pooled_status.canonical_digest
        == baseline_status.canonical_digest
    )
    # The pool must actually have been exercised and stayed warm: one
    # cold configure per point, every later shard a cache hit.
    points = len(spec.points())
    shards = pooled_status.shards_total
    assert pool_counters[_names.POOL_WORKERS_SPAWNED] == WORKERS
    assert pool_counters[_names.POOL_WARM_MISSES] == points
    assert pool_counters[_names.POOL_WARM_HITS] == shards - points

    speedup = baseline_t / pooled_t
    print()
    print(format_series_table(
        [{
            "shards": float(shards),
            "runs": float(pooled_status.runs_executed),
            "per_shard_pool_s": baseline_t,
            "persistent_s": pooled_t,
            "speedup": speedup,
        }],
        title="Campaign engines: fresh pool per shard vs warm pool",
    ))
    record = {
        "workload": {
            "base": spec.base,
            "grid": {"n_compromised": [5, 10]},
            "runs_per_point": runs_per_point,
            "runs_per_shard": 2,
            "shards": shards,
            "runs_executed": pooled_status.runs_executed,
            "workers": WORKERS,
        },
        "per_shard_pool_seconds": round(baseline_t, 4),
        "persistent_pool_seconds": round(pooled_t, 4),
        "speedup": round(speedup, 2),
        "per_shard_pool_runs_per_s": round(
            baseline_status.runs_executed / baseline_t, 2
        ),
        "persistent_pool_runs_per_s": round(
            pooled_status.runs_executed / pooled_t, 2
        ),
        "pool_counters": pool_counters,
        "floor": floor,
        "smoke": _smoke(),
    }
    bench_record("pool_reuse", **record)
    atomic_write_text(
        BENCH_JSON, json.dumps(record, indent=2, sort_keys=True)
    )
    assert speedup >= floor, (
        f"persistent pool only {speedup:.2f}x the per-shard-pool "
        f"baseline (floor {floor}x)"
    )


#: Supervision may cost at most this much wall clock.  The only
#: supervision machinery on the fault-free hot path is the soft-timeout
#: sweep (a deadline-polled wait instead of a blocking one); with
#: ``run_timeout=None`` the dispatcher blocks exactly as an
#: unsupervised pool would.  The throughput floor above separately
#: guards the absolute engine speed against the recorded trajectory.
OVERHEAD_CEILING = 1.05
SMOKE_OVERHEAD_CEILING = 1.25

#: Interleaved blocking/polling campaign pairs per measurement; the
#: gate reads the median of their per-pair ratios, so one campaign
#: slowed by the host cannot decide it.  One pair's ratio spreads by
#: about +-0.1 on a 2-vCPU host around a true ratio near 1.0, which a
#: single sample turned into intermittent failures.
OVERHEAD_SAMPLES = 15
SMOKE_OVERHEAD_SAMPLES = 7


def test_supervision_overhead(benchmark, seed, bench_record, tmp_path):
    runs_per_point = 8 if _smoke() else 32
    ceiling = (
        SMOKE_OVERHEAD_CEILING if _smoke() else OVERHEAD_CEILING
    )
    n_samples = SMOKE_OVERHEAD_SAMPLES if _smoke() else OVERHEAD_SAMPLES
    spec = _bench_spec(runs_per_point, seed + 1)
    policies = {
        "blocking": SupervisionPolicy(),  # run_timeout=None
        "polling": SupervisionPolicy(run_timeout=60.0),  # never fires
    }

    def measure():
        warm = _bench_spec(2, seed + 1)
        _time_campaign(
            warm, str(tmp_path / "warm.sqlite"), use_pool=True,
            supervision=policies["blocking"],
        )
        samples = []
        for index in range(n_samples):
            # Alternate which engine goes first so drift in the host's
            # speed does not favour one side.
            order = ["blocking", "polling"]
            if index % 2:
                order.reverse()
            sample = {}
            for name in order:
                elapsed, status, _ = _time_campaign(
                    spec, str(tmp_path / f"{name}-{index}.sqlite"),
                    use_pool=True, supervision=policies[name],
                )
                sample[name] = (elapsed, status)
            samples.append(sample)
        return samples

    samples = benchmark.pedantic(measure, rounds=1, iterations=1)

    digests = set()
    for sample in samples:
        for _, status in sample.values():
            assert status.complete
            digests.add(status.canonical_digest)
    assert len(digests) == 1
    base_times = [sample["blocking"][0] for sample in samples]
    timed_times = [sample["polling"][0] for sample in samples]
    ratios = sorted(
        timed / base for base, timed in zip(base_times, timed_times)
    )
    overhead = statistics.median(ratios)
    base_t = statistics.median(base_times)
    timed_t = statistics.median(timed_times)
    print()
    print(format_series_table(
        [{
            "blocking_s": base_t,
            "polling_s": timed_t,
            "overhead": overhead,
            "ratio_min": ratios[0],
            "ratio_max": ratios[-1],
        }],
        title="Supervision overhead: blocking vs timeout-polled waits "
              f"(median of {n_samples} interleaved pairs)",
    ))
    supervision_record = {
        "samples": n_samples,
        "blocking_seconds": round(base_t, 4),
        "timeout_polled_seconds": round(timed_t, 4),
        "overhead_ratio": round(overhead, 3),
        "overhead_ratios": [round(ratio, 3) for ratio in ratios],
        "overhead_ratio_spread": round(ratios[-1] - ratios[0], 3),
        "ceiling": ceiling,
        "smoke": _smoke(),
    }
    bench_record("supervision_overhead", **supervision_record)
    # Fold into the shared artifact written by the throughput bench.
    try:
        with open(BENCH_JSON) as handle:
            artifact = json.load(handle)
    except (OSError, ValueError):
        artifact = {}
    artifact["supervision_overhead"] = supervision_record
    atomic_write_text(
        BENCH_JSON, json.dumps(artifact, indent=2, sort_keys=True)
    )
    assert overhead <= ceiling, (
        f"supervision (timeout-polled waits) cost a median {overhead:.3f}x "
        f"the blocking baseline over {n_samples} pairs "
        f"(ceiling {ceiling}x; ratios {supervision_record['overhead_ratios']})"
    )
