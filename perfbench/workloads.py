"""The benchmark's workloads.

Each workload builds its inputs from ``perfbench/manifest.json`` and the
run's seed, runs one closed-loop operation at a time and checks what
the program returned.  The program only ever sees the built inputs.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import time
from dataclasses import replace
from typing import Any, Callable, ContextManager, Dict, List

from stats import Tally, campaign_failed_runs

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST_PATH = os.path.join(HERE, "manifest.json")

#: |mean P_D - Theorem 1| tolerance of the existing Table I gate
#: (benchmarks/test_table1_defaults.py).  A run-count-derived bound is
#: left to the paper-scale reproduction work.
P_D_TOLERANCE = 0.05


def load_manifest() -> Dict[str, Any]:
    with open(MANIFEST_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def import_program() -> None:
    """Import every ``repro`` module a workload touches (timed as
    ``setup.import_s``)."""
    import repro.campaigns.executor  # noqa: F401
    import repro.campaigns.store  # noqa: F401
    import repro.dsss.phy  # noqa: F401
    import repro.experiments.runner  # noqa: F401
    import repro.experiments.scenarios  # noqa: F401


def theorem1(config, strategy) -> float:
    """Theorem 1's P-hat-minus (reactive) or P-hat-plus (random)."""
    from repro.adversary.jammer import JammerStrategy
    from repro.analysis.dndp_theory import dndp_lower_bound, dndp_upper_bound

    bound = (dndp_lower_bound if strategy is JammerStrategy.REACTIVE
             else dndp_upper_bound)
    return bound(config, config.n_compromised)


def serial_config(inputs: Dict[str, Any]):
    """The preset, resized to ``n_nodes`` at the preset's node density
    when ``same_density`` is set."""
    from repro.experiments.scenarios import preset_config

    config = preset_config(inputs["preset"])
    if inputs.get("same_density"):
        scale = math.sqrt(inputs["n_nodes"] / config.n_nodes)
        config = config.replace(
            n_nodes=inputs["n_nodes"],
            field_width=config.field_width * scale,
            field_height=config.field_height * scale,
        )
    return config


class SerialWorkload:
    """Back-to-back ``NetworkExperiment.run_once`` snapshots."""

    kind = "serial"
    weight = 1
    processes = 1

    def __init__(self, inputs: Dict[str, Any], seed: int) -> None:
        from repro.adversary.jammer import JammerStrategy
        from repro.experiments.runner import NetworkExperiment

        self.seed = seed
        self.config = serial_config(inputs)
        self.strategy = JammerStrategy(inputs["strategy"])
        self.experiment = NetworkExperiment(
            self.config, seed=seed, strategy=self.strategy
        )
        self.theory = theorem1(self.config, self.strategy)

    def warm_up(self) -> None:
        """One discarded snapshot of the 120-node preset on the same PHY
        and jammer: lazy imports and caches fill without paying for a
        full-size snapshot."""
        from repro.experiments.runner import NetworkExperiment
        from repro.experiments.scenarios import preset_config

        tiny = preset_config("tiny").replace(
            phy_backend=self.config.phy_backend
        )
        NetworkExperiment(tiny, seed=self.seed,
                          strategy=self.strategy).run_once(0)

    def operation(self, index: int,
                  quiet: Callable[[], ContextManager] = contextlib.nullcontext
                  ) -> Dict[str, Any]:
        start = time.perf_counter()
        result = self.experiment.run_once(index)
        seconds = time.perf_counter() - start
        return {
            "index": index,
            "seconds": seconds,
            "attempted": 1,
            "failed": 0,
            "key": [result.n_pairs, result.dndp_successes,
                    result.mndp_successes],
            "p_dndp": result.p_dndp,
        }

    def check(self, records: List[Dict[str, Any]], tally: Tally) -> None:
        """Mean P_D of the snapshots against Theorem 1."""
        if not records:
            return
        mean = sum(r["p_dndp"] for r in records) / len(records)
        if abs(mean - self.theory) >= P_D_TOLERANCE:
            tally.fail(len(records),
                       f"mean P_D {mean:.4f} vs Theorem 1 "
                       f"{self.theory:.4f} beyond {P_D_TOLERANCE}")


class CampaignWorkload:
    """``run_campaign`` into a fresh store, then the store's read path."""

    kind = "campaign"

    def __init__(self, inputs: Dict[str, Any], seed: int,
                 workdir: str) -> None:
        from repro.campaigns.spec import CampaignSpec

        self.spec = CampaignSpec.from_dict(dict(inputs["spec"], seed=seed))
        self.processes = int(inputs["processes"])
        self.revision = inputs["git_revision"]
        self.workdir = workdir
        points = self.spec.points()
        self.weight = self.spec.runs_per_point * len(points)
        self.theory = {
            point.index: theorem1(self.spec.point_config(point),
                                  self.spec.point_strategy(point))
            for point in points
        }

    def warm_up(self) -> None:
        """One discarded campaign of a single shard per point."""
        small = replace(self.spec, runs_per_point=self.spec.runs_per_shard)
        self._campaign(small, "warmup")

    def _campaign(self, spec, tag: str, quiet=contextlib.nullcontext):
        from repro.campaigns import executor
        from repro.campaigns.store import CampaignStore

        path = os.path.join(self.workdir, f"store-{os.getpid()}-{tag}.sqlite")
        try:
            start = time.perf_counter()
            status = executor.run_campaign(
                spec, path, processes=self.processes,
                git_revision=self.revision,
            )
            finished = time.perf_counter()
            with CampaignStore(path) as store:
                stored, revision = store.spec_for(spec.name)
                results = store.point_results(
                    spec.name, stored.spec_hash(), revision
                )
            queried = time.perf_counter()
            with quiet(), CampaignStore(path) as store:
                shard_json = [
                    len(snapshot.to_json(indent=None))
                    for snapshot in store.shard_metrics(
                        spec.name, stored.spec_hash(), revision
                    ).values()
                    if snapshot is not None
                ]
            file_bytes = os.path.getsize(path)
        finally:
            for leftover in (path, path + ".summary.json",
                             path + ".canonical.tmp"):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(leftover)
        return (status, results, finished - start, queried - finished,
                shard_json, file_bytes)

    def operation(self, index: int,
                  quiet: Callable[[], ContextManager] = contextlib.nullcontext
                  ) -> Dict[str, Any]:
        status, results, seconds, query_s, shard_json, file_bytes = (
            self._campaign(self.spec, str(index), quiet)
        )
        reasons = []
        failed = campaign_failed_runs(status, self.weight)
        if failed:
            reasons.append(
                f"campaign {index}: complete={status.complete} "
                f"degraded={list(status.degraded)} "
                f"quarantined={status.runs_quarantined}"
            )
        if sorted(results) != sorted(self.theory):
            failed = self.weight
            reasons.append(f"campaign {index}: read back points "
                           f"{sorted(results)}")
        for point_index, (_, result) in results.items():
            runs = len(result.runs)
            p_dndp = result.discovery_probability("dndp")
            theory = self.theory.get(point_index, float("nan"))
            if (runs != self.spec.runs_per_point
                    or not abs(p_dndp - theory) < P_D_TOLERANCE):
                failed += runs
                reasons.append(
                    f"campaign {index} point {point_index}: {runs} runs, "
                    f"P_D {p_dndp:.4f} vs Theorem 1 {theory:.4f}"
                )
        return {
            "index": index,
            "seconds": seconds,
            "query_s": query_s,
            "attempted": self.weight,
            "failed": min(failed, self.weight),
            "reasons": reasons,
            "runs": status.runs_executed,
            "digest": status.canonical_digest,
            "shard_metrics_bytes": shard_json,
            "file_bytes": file_bytes,
        }

    def check(self, records: List[Dict[str, Any]], tally: Tally) -> None:
        """Per-campaign checks happen in :meth:`operation`."""


def make_workload(name: str, seed: int, workdir: str):
    """The workload ``name`` of the manifest, built for ``seed``."""
    spec = load_manifest()["workloads"][name]
    if spec["kind"] == "campaign":
        return CampaignWorkload(spec["inputs"], seed, workdir)
    return SerialWorkload(spec["inputs"], seed)


def repeat_check(records: List[Dict[str, Any]], tally: Tally) -> None:
    """Outputs at one seed must repeat exactly: a serial snapshot's
    ``(n_pairs, dndp_successes, mndp_successes)`` for the same run
    index, and a campaign's canonical digest and store size."""
    first: Dict[Any, Any] = {}
    for record in records:
        if "key" in record:
            slot, value = record["index"], record["key"]
        else:
            slot, value = "campaign", [record["digest"],
                                       record["file_bytes"]]
        expected = first.setdefault(slot, value)
        if value != expected:
            tally.fail(record["attempted"],
                       f"operation {record['index']} returned {value}, "
                       f"an earlier one at the same seed {expected}")
