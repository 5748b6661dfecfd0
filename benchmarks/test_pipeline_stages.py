"""Per-stage bench: where one snapshot's time goes, from 2k to 100k nodes.

Runs ``NetworkExperiment.run_once`` at 2 000, 20 000 and 100 000 nodes
at the paper's node density (``paper-chipless`` preset, random
jamming), each size in a fresh child process.  The child wraps each
snapshot stage's entry point from outside with a timer (the program
itself carries no timer layer) and reports, per stage, the median
seconds over its runs:

- ``placement`` — ``uniform_positions``;
- ``neighbors`` — ``RectangularField.neighbor_pairs``;
- ``assignment`` — ``PreDistributor.assign``;
- ``compromise`` — ``CompromiseModel.compromise_random`` and
  ``JammingModel.from_compromise``;
- ``dndp`` — the runner's chipless D-NDP sweep;
- ``mndp`` — ``LogicalGraph.add_links`` and ``MNDPSampler.discover``;
- ``other`` — the rest of ``run_once`` (aggregation and glue);

plus the whole ``run_once`` and the child's peak RSS.  A tiny snapshot
runs first in each child so lazy imports are not timed.

The record (with git revision and workload) goes through the
``bench_record`` fixture, so ``--bench-json`` carries it.  The
committed root-level ``BENCH_pipeline.json`` holds one full run::

    PYTHONPATH=src python -m pytest -q benchmarks/test_pipeline_stages.py \\
        --bench-json BENCH_pipeline.json

Environment knobs (on top of ``conftest``'s):

- ``REPRO_BENCH_SMOKE``  set to 1 for CI smoke mode: one timed run per
  size instead of three.
"""

import json
import os
import subprocess
import sys

from repro.campaigns.store import current_git_revision

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SIZES = (2_000, 20_000, 100_000)
FULL_RUNS = 3
SMOKE_RUNS = 1

#: Wrapped calls per snapshot and stage: the split covers the whole
#: pipeline, and no stage runs twice.
CALLS_PER_SNAPSHOT = {
    "placement": 1,
    "neighbors": 1,
    "assignment": 1,
    "compromise": 2,
    "dndp": 1,
    "mndp": 2,
}
STAGES = tuple(CALLS_PER_SNAPSHOT)

_CHILD = """
import functools, inspect, json, math, resource, statistics, sys, time
import repro.experiments.runner as runner
from repro.adversary.compromise import CompromiseModel
from repro.adversary.jammer import JammerStrategy, JammingModel
from repro.core.mndp import LogicalGraph, MNDPSampler
from repro.experiments.scenarios import preset_config
from repro.predistribution.authority import PreDistributor
from repro.sim.field import RectangularField

WRAPPED = (
    (runner, "uniform_positions", "placement"),
    (RectangularField, "neighbor_pairs", "neighbors"),
    (PreDistributor, "assign", "assignment"),
    (CompromiseModel, "compromise_random", "compromise"),
    (JammingModel, "from_compromise", "compromise"),
    (runner.NetworkExperiment, "_sample_dndp_chipless", "dndp"),
    (LogicalGraph, "add_links", "mndp"),
    (MNDPSampler, "discover", "mndp"),
)

seconds = {}
calls = {}


def timed(function, stage):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            seconds[stage] = (
                seconds.get(stage, 0.0) + time.perf_counter() - start
            )
            calls[stage] = calls.get(stage, 0) + 1
    return wrapper


for owner, name, stage in WRAPPED:
    raw = inspect.getattr_static(owner, name)
    if isinstance(raw, classmethod):
        setattr(owner, name, classmethod(timed(raw.__func__, stage)))
    else:
        setattr(owner, name, timed(raw, stage))


def experiment(n_nodes, seed):
    base = preset_config("paper-chipless")
    scale = math.sqrt(n_nodes / base.n_nodes)
    config = base.replace(
        n_nodes=n_nodes,
        field_width=base.field_width * scale,
        field_height=base.field_height * scale,
    )
    return runner.NetworkExperiment(
        config, seed=seed, strategy=JammerStrategy.RANDOM
    )


n_nodes, seed, runs = (int(arg) for arg in sys.argv[1:4])
experiment(200, seed).run_once(0)
timed_experiment = experiment(n_nodes, seed)
samples = []
for run_index in range(runs):
    seconds.clear()
    calls.clear()
    start = time.perf_counter()
    result = timed_experiment.run_once(run_index)
    total = time.perf_counter() - start
    samples.append(dict(
        seconds, total=total, calls=dict(calls),
        n_pairs=result.n_pairs,
        dndp_successes=result.dndp_successes,
        mndp_successes=result.mndp_successes,
    ))
stages = sorted({stage for _, _, stage in WRAPPED})
print(json.dumps({
    "stages_s": {
        stage: round(statistics.median(
            s.get(stage, 0.0) for s in samples
        ), 4)
        for stage in stages
    },
    "other_s": round(statistics.median(
        s["total"] - sum(s.get(stage, 0.0) for stage in stages)
        for s in samples
    ), 4),
    "run_once_s": round(statistics.median(s["total"] for s in samples), 4),
    "run_once_samples_s": [round(s["total"], 4) for s in samples],
    "calls": [s["calls"] for s in samples],
    "counts": [
        {key: s[key] for key in (
            "n_pairs", "dndp_successes", "mndp_successes"
        )}
        for s in samples
    ],
    "peak_rss_mb": round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
    ),
}))
"""


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "0") not in ("", "0")


def _run_child(n_nodes: int, seed: int, runs: int) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    completed = subprocess.run(
        [sys.executable, "-c", _CHILD, str(n_nodes), str(seed), str(runs)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_snapshot_stage_split(seed, bench_record):
    runs = SMOKE_RUNS if _smoke() else FULL_RUNS
    by_size = {}
    for n_nodes in SIZES:
        child = _run_child(n_nodes, seed, runs)
        by_size[str(n_nodes)] = child
        for calls in child["calls"]:
            assert calls == CALLS_PER_SNAPSHOT, calls
        assert child["other_s"] >= 0.0, child
        assert child["counts"][0]["n_pairs"] > 0
    bench_record(
        "pipeline_stages",
        workload={
            "preset": "paper-chipless",
            "sizes": list(SIZES),
            "same_density": True,
            "strategy": "random",
            "operation": (
                "NetworkExperiment.run_once(i), i < runs, in one child "
                "process per size after a 200-node warm-up snapshot"
            ),
            "runs": runs,
            "seed": seed,
            "smoke": _smoke(),
        },
        git_revision=current_git_revision(ROOT),
        stages=list(STAGES) + ["other"],
        by_size=by_size,
    )
    print()
    for n_nodes, child in by_size.items():
        split = ", ".join(
            f"{stage} {child['stages_s'][stage]:.3f}" for stage in STAGES
        )
        print(
            f"{n_nodes} nodes: run_once {child['run_once_s']:.3f} s "
            f"({split}, other {child['other_s']:.3f}), "
            f"peak RSS {child['peak_rss_mb']:.0f} MB"
        )
