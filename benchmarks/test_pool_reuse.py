"""Persistent-pool bench: warm workers vs a fresh pool per shard.

The campaign workload here: hundreds of *small* shards, where the
chipless PHY has made the run bodies cheap enough that a per-shard
pool spin-up (fork, experiment rebuild, cold artifact caches in every
worker, teardown) dominates wall clock.  The persistent
:class:`~repro.experiments.pool.WorkerPool` pays those costs once per
campaign instead of once per shard, and overlaps each shard's SQLite
commit with the compute of a window of later shards.

The baseline is a short local loop doing what a campaign without a
persistent pool would: one ``run_parallel`` call (a fresh pool) per
shard, each committed with ``CampaignStore.write_shard``, then the
canonical export.  The bench times interleaved baseline/pooled pairs
(alternating which goes first), gates the median shard-throughput
ratio, and records every ratio in the root-level ``BENCH_pool.json``
artifact.  Both sides must also produce the same canonical digest — a
perf engine that changed the bytes would be a correctness bug, not a
speedup.

Environment knobs (on top of ``conftest``'s):

- ``REPRO_BENCH_SMOKE``  set to 1 for CI smoke mode: a smaller
  workload and a relaxed floor for noisy shared runners.
"""

import json
import os
import statistics
import time

from repro.campaigns import CampaignSpec, CampaignStore, run_campaign
from repro.experiments.parallel import run_parallel
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

#: Interleaved baseline/pooled campaign pairs per measurement; the gate
#: reads the median of their per-pair speedups.
THROUGHPUT_SAMPLES = 7
SMOKE_THROUGHPUT_SAMPLES = 5

#: Explicit worker count: sizing from this machine's affinity mask can
#: yield 1 worker (single-CPU CI), which would put both sides on the
#: inline pool and benchmark nothing.
WORKERS = 2

REVISION = "bench"


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "0") not in ("", "0")


def _bench_spec(runs_per_point: int, seed: int) -> CampaignSpec:
    # runs_per_shard=2 keeps every baseline shard on a true
    # multiprocess pool: run_parallel runs a 1-run shard inline.
    return CampaignSpec(
        name="poolbench",
        seed=seed,
        runs_per_point=runs_per_point,
        runs_per_shard=2,
        base="tiny-chipless",
        grid={"n_compromised": [5, 10]},
    )


def _time_per_shard_pools(spec, store_path):
    """``(elapsed, canonical digest)`` of the fresh-pool-per-shard
    baseline: run, commit and canonicalize every shard of ``spec``."""
    start = time.perf_counter()
    with CampaignStore(store_path) as store:
        store.register_campaign(spec, REVISION)
        for shard in spec.shards():
            point = shard.point
            result = run_parallel(
                spec.point_config(point),
                seed=point.seed,
                runs=shard.n_runs,
                processes=WORKERS,
                strategy=spec.point_strategy(point),
                mndp_rounds=spec.mndp_rounds,
                link_model=spec.point_link_model(point),
                collect_metrics=spec.collect_metrics,
                run_indices=shard.run_indices,
                phy_backend=spec.phy_backend,
                chunksize=spec.pool_chunksize,
            )
            store.write_shard(
                spec, REVISION, shard, result.runs,
                result.merged_metrics() if spec.collect_metrics else None,
            )
    canonical = store_path + ".canonical.tmp"
    with CampaignStore(store_path) as store:
        store.export_canonical(
            canonical,
            mark_complete=(spec.name, spec.spec_hash(), REVISION),
        )
    os.replace(canonical, store_path)
    elapsed = time.perf_counter() - start
    with CampaignStore(store_path) as store:
        return elapsed, store.canonical_digest()


def _time_campaign(spec, store_path, supervision=None):
    """``(elapsed, status, pool counters)`` for one full campaign."""
    registry = MetricsRegistry()
    start = time.perf_counter()
    with installed(registry):
        status = run_campaign(
            spec,
            store_path,
            processes=WORKERS,
            git_revision=REVISION,
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
    n_samples = (
        SMOKE_THROUGHPUT_SAMPLES if _smoke() else THROUGHPUT_SAMPLES
    )
    spec = _bench_spec(runs_per_point, seed)

    def measure():
        # Warm-up outside the timed comparison: first-campaign import
        # and artifact costs hit whichever side runs first.
        warm = _bench_spec(2, seed)
        _time_per_shard_pools(warm, str(tmp_path / "warm.sqlite"))
        samples = []
        for index in range(n_samples):
            # Alternate which side goes first so drift in the host's
            # speed does not favour one side.
            order = ["baseline", "pooled"]
            if index % 2:
                order.reverse()
            sample = {}
            for name in order:
                path = str(tmp_path / f"{name}-{index}.sqlite")
                if name == "baseline":
                    sample[name] = _time_per_shard_pools(spec, path)
                else:
                    sample[name] = _time_campaign(spec, path)
            samples.append(sample)
        return samples

    samples = benchmark.pedantic(measure, rounds=1, iterations=1)

    points = len(spec.points())
    shards = len(spec.shards())
    for sample in samples:
        baseline_digest = sample["baseline"][1]
        _, pooled_status, pool_counters = sample["pooled"]
        assert pooled_status.complete
        # Same bytes from both sides, or the comparison is meaningless.
        assert pooled_status.canonical_digest == baseline_digest
        # The pool must actually have been exercised and stayed warm:
        # one cold configure per point, every later shard a cache hit.
        assert pool_counters[_names.POOL_WORKERS_SPAWNED] == WORKERS
        assert pool_counters[_names.POOL_WARM_MISSES] == points
        assert pool_counters[_names.POOL_WARM_HITS] == shards - points
    baseline_times = [sample["baseline"][0] for sample in samples]
    pooled_times = [sample["pooled"][0] for sample in samples]
    speedups = sorted(
        base / pooled for base, pooled in zip(baseline_times, pooled_times)
    )
    speedup = statistics.median(speedups)
    baseline_t = statistics.median(baseline_times)
    pooled_t = statistics.median(pooled_times)
    runs_executed = samples[0]["pooled"][1].runs_executed
    print()
    print(format_series_table(
        [{
            "shards": float(shards),
            "runs": float(runs_executed),
            "per_shard_pool_s": baseline_t,
            "persistent_s": pooled_t,
            "speedup": speedup,
            "speedup_min": speedups[0],
            "speedup_max": speedups[-1],
        }],
        title="Campaign engines: fresh pool per shard vs warm pool "
              f"(median of {n_samples} interleaved pairs)",
    ))
    record = {
        "workload": {
            "base": spec.base,
            "grid": {"n_compromised": [5, 10]},
            "runs_per_point": runs_per_point,
            "runs_per_shard": 2,
            "shards": shards,
            "runs_executed": runs_executed,
            "workers": WORKERS,
        },
        "samples": n_samples,
        "per_shard_pool_seconds": round(baseline_t, 4),
        "persistent_pool_seconds": round(pooled_t, 4),
        "speedup": round(speedup, 2),
        "speedups": [round(ratio, 2) for ratio in speedups],
        "speedup_spread": round(speedups[-1] - speedups[0], 2),
        "per_shard_pool_runs_per_s": round(runs_executed / baseline_t, 2),
        "persistent_pool_runs_per_s": round(runs_executed / pooled_t, 2),
        "pool_counters": samples[0]["pooled"][2],
        "floor": floor,
        "smoke": _smoke(),
    }
    bench_record("pool_reuse", **record)
    atomic_write_text(
        BENCH_JSON, json.dumps(record, indent=2, sort_keys=True)
    )
    assert speedup >= floor, (
        f"persistent pool only a median {speedup:.2f}x the "
        f"per-shard-pool baseline over {n_samples} pairs (floor "
        f"{floor}x; speedups {record['speedups']})"
    )


#: Ceiling on the dispatcher's wake-ups per dispatched chunk with a
#: soft timeout armed (``run_timeout=60.0``, never reached) over the
#: same count with blocking waits (``run_timeout=None``).  The only
#: supervision machinery on the fault-free hot path is that
#: deadline-bounded wait; if it ever woke the dispatcher early (a
#: poll), the count would show it directly.  The wall-clock ratio of
#: the same campaigns is recorded beside it but not gated: it spreads
#: by about +-0.15 per pair on a 2-vCPU host around a true ratio near
#: 1.0, which no ceiling near 1.0 can read.
OVERHEAD_CEILING = 1.05
SMOKE_OVERHEAD_CEILING = 1.25

#: Interleaved blocking/polling campaign pairs per measurement; the
#: gate reads the ratio of the wake-up counts summed over all pairs.
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
            warm, str(tmp_path / "warm.sqlite"),
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
                sample[name] = _time_campaign(
                    spec, str(tmp_path / f"{name}-{index}.sqlite"),
                    supervision=policies[name],
                )
            samples.append(sample)
        return samples

    samples = benchmark.pedantic(measure, rounds=1, iterations=1)

    digests = set()
    for sample in samples:
        for _, status, _ in sample.values():
            assert status.complete
            digests.add(status.canonical_digest)
    assert len(digests) == 1

    def wakeups_per_chunk(name):
        counters = [sample[name][2] for sample in samples]
        wakeups = sum(c[_names.POOL_DISPATCHER_WAKEUPS] for c in counters)
        chunks = sum(c[_names.POOL_TASKS_DISPATCHED] for c in counters)
        return wakeups / chunks

    base_wakeups = wakeups_per_chunk("blocking")
    timed_wakeups = wakeups_per_chunk("polling")
    overhead = timed_wakeups / base_wakeups
    base_times = [sample["blocking"][0] for sample in samples]
    timed_times = [sample["polling"][0] for sample in samples]
    ratios = sorted(
        timed / base for base, timed in zip(base_times, timed_times)
    )
    wall_ratio = statistics.median(ratios)
    base_t = statistics.median(base_times)
    timed_t = statistics.median(timed_times)
    print()
    print(format_series_table(
        [{
            "blocking_wakeups_per_chunk": base_wakeups,
            "polling_wakeups_per_chunk": timed_wakeups,
            "overhead": overhead,
            "blocking_s": base_t,
            "polling_s": timed_t,
            "wall_ratio": wall_ratio,
        }],
        title="Supervision overhead: dispatcher wake-ups per chunk, "
              f"blocking vs timeout-polled waits ({n_samples} "
              f"interleaved pairs)",
    ))
    supervision_record = {
        "samples": n_samples,
        "blocking_wakeups_per_chunk": round(base_wakeups, 4),
        "timeout_polled_wakeups_per_chunk": round(timed_wakeups, 4),
        "overhead_ratio": round(overhead, 3),
        "blocking_seconds": round(base_t, 4),
        "timeout_polled_seconds": round(timed_t, 4),
        "wall_ratio": round(wall_ratio, 3),
        "wall_ratios": [round(ratio, 3) for ratio in ratios],
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
        f"timeout-polled waits woke the dispatcher {timed_wakeups:.3f} "
        f"times per chunk against {base_wakeups:.3f} for blocking "
        f"waits over {n_samples} pairs ({overhead:.3f}x, ceiling "
        f"{ceiling}x)"
    )
