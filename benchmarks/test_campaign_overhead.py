"""Campaign-layer overhead bench: store + checkpointing vs bare sweeps.

A campaign runs the exact same ``run_parallel`` workload as a direct
sweep, plus its bookkeeping: per-shard SQLite commits, metrics
merging/serialization, and the final canonical store rebuild.  That
bookkeeping must stay a small tax on real Monte Carlo work.  This
bench times interleaved campaign/direct pairs (alternating which goes
first), gates the median ratio, and records every ratio plus per-shard
throughput in the root-level ``BENCH_campaign.json`` artifact (written
through the same atomic helper as every other results file).

Environment knobs (on top of ``conftest``'s):

- ``REPRO_BENCH_SMOKE``  set to 1 for CI smoke mode: a relaxed ceiling
  for noisy shared runners.
"""

import json
import os
import statistics
import time

from repro.campaigns import CampaignSpec, run_campaign
from repro.experiments.parallel import run_parallel
from repro.experiments.reporting import format_series_table
from repro.obs import MetricsRegistry, installed
from repro.utils.fileio import atomic_write_text

BENCH_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_campaign.json",
)

#: Interleaved campaign/direct pairs per measurement; the gate reads
#: the median of their per-pair ratios, so one timing slowed by the
#: host cannot decide it.
SAMPLES = 7
SMOKE_SAMPLES = 5


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "0") not in ("", "0")


def _bench_spec(runs_per_point: int, seed: int) -> CampaignSpec:
    return CampaignSpec(
        name="bench",
        seed=seed,
        runs_per_point=runs_per_point,
        runs_per_shard=max(1, runs_per_point // 2),
        base="tiny",
        grid={"n_compromised": [5, 10]},
    )


def _time_direct(spec: CampaignSpec) -> float:
    """The same workload a campaign executes, without the store."""
    start = time.perf_counter()
    for point in spec.points():
        run_parallel(
            spec.point_config(point),
            seed=point.seed,
            runs=spec.runs_per_point,
            strategy=spec.point_strategy(point),
            mndp_rounds=spec.mndp_rounds,
            link_model=spec.point_link_model(point),
            collect_metrics=spec.collect_metrics,
        )
    return time.perf_counter() - start


def _time_campaign(spec: CampaignSpec, store_path: str):
    """``(elapsed, status, shard timer stat)`` for one full campaign."""
    from repro.obs import names as _names

    registry = MetricsRegistry()
    start = time.perf_counter()
    with installed(registry):
        status = run_campaign(spec, store_path, git_revision="bench")
    elapsed = time.perf_counter() - start
    shard_timer = registry.snapshot().timers.get(
        _names.CAMPAIGNS_SHARD_SECONDS
    )
    return elapsed, status, shard_timer


def test_campaign_overhead_and_throughput(
    benchmark, runs, seed, bench_record, tmp_path
):
    # The store's cost is fixed per shard while the Monte Carlo work
    # scales with runs, so the gate needs enough runs per point for a
    # realistic amortization (real campaigns use 100).
    runs_per_point = max(2, min(runs, 8)) if _smoke() else max(runs, 24)
    ceiling = 2.5 if _smoke() else 1.5
    n_samples = SMOKE_SAMPLES if _smoke() else SAMPLES
    spec = _bench_spec(runs_per_point, seed)

    def measure():
        # Warm-up: pay one-time import/JIT/cache costs outside the
        # timed comparison, then interleave campaign and direct runs
        # of the same workload, alternating which goes first so drift
        # in the host's speed does not favour one side.
        warm = _bench_spec(1, seed)
        _time_direct(warm)
        samples = []
        for index in range(n_samples):
            sample = {}
            for name in (
                ("campaign", "direct") if index % 2 == 0
                else ("direct", "campaign")
            ):
                if name == "campaign":
                    sample[name] = _time_campaign(
                        spec, str(tmp_path / f"bench-{index}.sqlite")
                    )
                else:
                    sample[name] = _time_direct(spec)
            samples.append(sample)
        return samples

    samples = benchmark.pedantic(measure, rounds=1, iterations=1)
    shard_seconds = 0.0
    shard_count = 0
    for sample in samples:
        _, status, shard_timer = sample["campaign"]
        assert status.complete
        assert shard_timer is not None and shard_timer.count > 0
        shard_seconds += shard_timer.total_seconds
        shard_count += shard_timer.count
    campaign_times = [sample["campaign"][0] for sample in samples]
    direct_times = [sample["direct"] for sample in samples]
    ratios = sorted(
        campaign / direct
        for campaign, direct in zip(campaign_times, direct_times)
    )
    ratio = statistics.median(ratios)
    campaign_t = statistics.median(campaign_times)
    direct_t = statistics.median(direct_times)
    runs_executed = status.runs_executed
    throughput = runs_executed / campaign_t
    per_shard = shard_seconds / shard_count
    print()
    print(format_series_table(
        [{
            "shards": float(status.shards_total),
            "runs": float(runs_executed),
            "campaign_s": campaign_t,
            "direct_s": direct_t,
            "ratio": ratio,
            "ratio_min": ratios[0],
            "ratio_max": ratios[-1],
            "runs_per_s": throughput,
        }],
        title="Campaign layer overhead (store + checkpoint vs bare, "
              f"median of {n_samples} interleaved pairs)",
    ))
    record = {
        "workload": {
            "base": spec.base,
            "grid": {"n_compromised": [5, 10]},
            "runs_per_point": runs_per_point,
            "shards": status.shards_total,
            "runs_executed": runs_executed,
        },
        "samples": n_samples,
        "campaign_seconds": round(campaign_t, 4),
        "direct_seconds": round(direct_t, 4),
        "overhead_ratio": round(ratio, 3),
        "overhead_ratios": [round(value, 3) for value in ratios],
        "overhead_ratio_spread": round(ratios[-1] - ratios[0], 3),
        "per_shard_seconds": round(per_shard, 4),
        "shard_throughput_runs_per_s": round(
            runs_executed * n_samples / shard_seconds, 2
        ),
        "throughput_runs_per_s": round(throughput, 2),
        "ceiling": ceiling,
        "smoke": _smoke(),
    }
    bench_record("campaign_overhead", **record)
    atomic_write_text(
        BENCH_JSON, json.dumps(record, indent=2, sort_keys=True)
    )
    assert ratio < ceiling, (
        f"campaign layer a median {ratio:.2f}x slower than the bare "
        f"sweep over {n_samples} pairs (ceiling {ceiling}x; ratios "
        f"{record['overhead_ratios']})"
    )
