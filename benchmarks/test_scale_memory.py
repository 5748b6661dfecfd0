"""Scale bench: one 100k-node snapshot in bounded memory.

Runs a single ``NetworkExperiment.run_once`` at 50x the paper's node
count and the paper's node density (``paper-chipless`` preset, random
jamming) in a fresh child process, and gates the child's peak RSS below
1 GiB.  Every snapshot stage keeps memory linear in the node count, so
a dense ``n x n`` or node-by-code structure (10 GB or more at this size)
fails the gate.

The record (wall time, peak RSS, git revision, workload) goes through
the ``bench_record`` fixture, so ``--bench-json`` carries it.  The run
is the same in smoke and full mode.
"""

import json
import os
import subprocess
import sys

from repro.campaigns.store import current_git_revision

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

N_NODES = 100_000
RSS_CEILING_MB = 1024.0

_CHILD = """
import json, math, resource, sys, time
from repro.adversary.jammer import JammerStrategy
from repro.experiments.runner import NetworkExperiment
from repro.experiments.scenarios import preset_config

n_nodes, seed = int(sys.argv[1]), int(sys.argv[2])
base = preset_config("paper-chipless")
scale = math.sqrt(n_nodes / base.n_nodes)
config = base.replace(
    n_nodes=n_nodes,
    field_width=base.field_width * scale,
    field_height=base.field_height * scale,
)
experiment = NetworkExperiment(
    config, seed=seed, strategy=JammerStrategy.RANDOM
)
start = time.perf_counter()
result = experiment.run_once(0)
seconds = time.perf_counter() - start
print(json.dumps({
    "seconds": seconds,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "n_pairs": result.n_pairs,
    "dndp_successes": result.dndp_successes,
    "mndp_successes": result.mndp_successes,
}))
"""


def _run_child(n_nodes: int, seed: int) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    completed = subprocess.run(
        [sys.executable, "-c", _CHILD, str(n_nodes), str(seed)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_100k_node_snapshot_under_1gib(seed, bench_record):
    child = _run_child(N_NODES, seed)
    bench_record(
        "scale_memory_100k",
        workload={
            "preset": "paper-chipless",
            "n_nodes": N_NODES,
            "same_density": True,
            "strategy": "random",
            "operation": "NetworkExperiment.run_once(0) in a child process",
            "seed": seed,
        },
        git_revision=current_git_revision(ROOT),
        rss_ceiling_mb=RSS_CEILING_MB,
        **child,
    )
    print(
        f"\n{N_NODES} nodes, {child['n_pairs']} pairs: "
        f"{child['seconds']:.2f} s, peak RSS {child['peak_rss_mb']:.0f} MB"
    )
    assert child["n_pairs"] > 0
    assert child["peak_rss_mb"] < RSS_CEILING_MB, child
