"""The repository benchmark: end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off:
three fresh child processes run one after another, each sets up and
then runs the workload's operation in a closed loop for a third of
``--seconds``.  A fixed calibration kernel timed between operations
gives the machine's speed, and the gated times are scaled to a
reference speed (see :func:`end_to_end`).

``--trace 1`` prints the per-layer metrics instead.  One traced child
runs whole passes over a fixed plan of operations for ``--seconds``,
with a span around every public layer function and every operation
also run once untraced for the tracing overhead.  For the serial
workloads one more child measures allocations under ``tracemalloc``,
apart from any timing.

Workloads, their inputs and why each exists, and which end-to-end
metric every per-layer metric should move are listed in
``perfbench/manifest.json``.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a human-readable report and one
``details`` JSON line with the metrics that are not gated (tail
latency, query time, failure fraction) and the run's provenance.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402
import tracing  # noqa: E402
from workloads import load_manifest, repeat_check  # noqa: E402

#: Untraced child processes per run; set-up time and peak RSS are the
#: median over them.
CHILDREN = 3

#: A fixed reference for ``child.CalibrationKernel``: about its median
#: time on the 2-vCPU Intel Xeon VM the benchmark was tuned on (Python
#: 3.11, NumPy 2.4), where it ranged from 0.015 to 0.055 s as the host
#: drifted.  Gated times are scaled to this speed; see :func:`end_to_end`.
REFERENCE_CALIBRATION_S = 0.025

#: Every run must finish within this many seconds of starting.
RUN_BUDGET_S = 170.0

#: Every span name, in :data:`tracing.LAYER_SPANS` order.  Each is
#: reported as ``<span>_s`` (seconds per workload operation) and a
#: call-count metric per operation.
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in tracing.LAYER_SPANS))

#: Call-count metric names other than ``<span>.calls``; ``None`` for a
#: span called once per operation by construction.
CALL_METRICS = {
    "dsss.phy.pair_probability": "dsss.phy.pair_probability_calls",
    "store.write_shard": "store.commits",
    "campaign.run_campaign": None,
}


def calls_metric(span: str) -> Optional[str]:
    return CALL_METRICS.get(span, f"{span}.calls")


#: Spans whose self time is reported as ``<name>.self_s``.
SELF_TIMED = ("runner.run_once", "campaign.run_campaign")

#: Program counters read from the registry the traced child installs.
POOL_COUNTERS = ("pool.tasks_dispatched", "pool.warm_hits",
                 "pool.warm_misses", "pool.workers_spawned",
                 "pool.runs_retried")


def source_digest(root: str) -> str:
    """SHA-256 over ``src/`` (paths and bytes), identifying the code
    measured even where no git metadata exists."""
    digest = hashlib.sha256()
    for directory, subdirs, files in os.walk(os.path.join(root, "src")):
        subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_revision(root: str) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _kill_session(process: subprocess.Popen) -> None:
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(process.pid, signal.SIGKILL)


class Runner:
    """Starts child processes one at a time inside the run's budget."""

    def __init__(self, root: str, workload: str, seed: int) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.workdir = os.path.join(root, ".perfbench_out", "work")
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)

    def child(self, mode: str, seconds: float = 0.0,
              ops: int = 0) -> Optional[Dict[str, Any]]:
        """Run one child to completion; ``None`` if it failed."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(self.root, "src"), HERE]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        job = {
            "workload": self.workload, "seed": self.seed, "mode": mode,
            "seconds": seconds, "ops": ops, "workdir": self.workdir,
            "spawned_at": time.monotonic(),
        }
        process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(job)],
            cwd=self.root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            out, err = process.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            _kill_session(process)
            out, err = process.communicate()
            err += f"\nchild {mode} killed after {timeout:.0f}s\n"
        finally:
            # Campaign workers exit on their parent's EOF; stop any
            # straggler in the child's session all the same, also when
            # this run is interrupted.
            _kill_session(process)
            process.wait()
        if err:
            sys.stderr.write(err)
        if process.returncode != 0 or not out.strip():
            return None
        return json.loads(out.strip().splitlines()[-1])


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def throughput(kind: str, records: List[Dict[str, Any]]) -> float:
    """Snapshots (or campaign runs) per second spent in operations."""
    seconds = sum(r["seconds"] for r in records)
    done = (sum(r["runs"] for r in records) if kind == "campaign"
            else len(records))
    return done / seconds if seconds else 0.0


def end_to_end(kind: str, children: List[Dict[str, Any]]):
    """Gated metrics and the ungated details of an untraced run.

    Times are scaled to the reference machine speed: multiplied by
    ``REFERENCE_CALIBRATION_S / median(calibration kernel time)``.
    The unscaled values are kept under ``details["raw"]``.
    """
    records = [r for c in children for r in c["records"]]
    seconds = [r["seconds"] for r in records]
    calibration = _median([s for c in children for s in c["calibration_s"]])
    scale = REFERENCE_CALIBRATION_S / calibration if calibration else 1.0
    raw = {
        "runs_per_s": throughput(kind, records),
        "op_s.p50": _median(seconds),
        "setup_s": _median([c["setup_s"] for c in children]),
    }
    metrics = {
        "runs_per_s": (raw["runs_per_s"] / scale, "1/s"),
        "op_s.p50": (raw["op_s.p50"] * scale, "s"),
        "peak_rss_mb": (_median([c["peak_rss_mb"] for c in children]), "MB"),
        "setup_s": (raw["setup_s"] * scale, "s"),
    }
    details: Dict[str, Any] = {
        "calibration_s": calibration,
        "speed_scale": scale,
        "setup_s.samples": [c["setup_s"] for c in children],
        "operations": len(records),
    }
    if kind == "serial":
        raw["snapshot_s.p50"] = raw["op_s.p50"]
        details["snapshot_s.p50"] = metrics["op_s.p50"][0]
        tail = stats.tail(seconds)
        raw["snapshot_s.tail"] = tail
        details["snapshot_s.tail"] = tail and dict(
            tail, value=tail["value"] * scale)
    else:
        raw["query_s"] = _median([r["query_s"] for r in records])
        details["query_s"] = raw["query_s"] * scale
        details["canonical_digests"] = sorted({r["digest"] for r in records})
    details["raw"] = raw
    return metrics, details


def op_counts(spans: List[tracing.Span], counters: Dict[str, int],
              record: Dict[str, Any]) -> Dict[str, float]:
    """The count metrics of one traced operation."""
    calls: Dict[str, int] = {}
    sizes: Dict[str, int] = {}
    for span in spans:
        calls[span.name] = calls.get(span.name, 0) + 1
        sizes[span.name] = sizes.get(span.name, 0) + (span.count or 0)
    counts: Dict[str, float] = {}
    for span in SPAN_NAMES:
        if calls_metric(span):
            counts[calls_metric(span)] = calls.get(span, 0)
    counts["sim.pairs"] = sizes.get("sim.neighbor_pairs", 0)
    counts["mndp.recovered"] = sizes.get("mndp.discover", 0)
    key = record.get("key")
    counts["mndp.attempted"] = key[0] - key[1] if key else 0
    for name in POOL_COUNTERS:
        counts[name] = counters.get(name, 0)
    shard_bytes = record.get("shard_metrics_bytes") or []
    counts["obs.shard_metrics_bytes"] = (
        sum(shard_bytes) / len(shard_bytes) if shard_bytes else 0
    )
    counts["store.file_bytes"] = record.get("file_bytes", 0)
    return counts


def per_layer(kind: str, manifest: Dict[str, Any], traced: Dict[str, Any],
              alloc: Optional[Dict[str, Any]], tally: stats.Tally):
    """Per-layer metrics of a traced run, and the span records."""
    spans = [tracing.Span(*s) for s in traced["spans"]]
    ops = len(traced["per_op"])
    records = traced["records"]
    metrics: Dict[str, float] = {}
    summary = tracing.summarize(spans)
    for span in SPAN_NAMES:
        entry = summary.get(span, {})
        metrics[f"{span}_s"] = entry.get("seconds", 0.0) / ops
        if span in SELF_TIMED:
            metrics[f"{span}.self_s"] = entry.get("self_seconds", 0.0) / ops

    per_op = []
    for op, record in zip(traced["per_op"], records):
        start, stop = op["spans"]
        per_op.append(op_counts(spans[start:stop], op["counters"], record))
    for name in per_op[0] if per_op else ():
        metrics[name] = sum(c[name] for c in per_op) / len(per_op)
    attempted = metrics.get("mndp.attempted", 0)
    metrics["mndp.recovery_ratio"] = (
        metrics.get("mndp.recovered", 0) / attempted if attempted else 0.0
    )

    # Exact counts must repeat for operations on the same inputs: the
    # same run index (serial) or any campaign at this seed.
    exact = [n for n, m in manifest["per_layer"].items() if m.get("exact")]
    first: Dict[Any, Dict[str, float]] = {}
    for counts, record in zip(per_op, records):
        slot = record["index"] if kind == "serial" else "campaign"
        expected = first.setdefault(slot, counts)
        drifted = [n for n in exact if counts[n] != expected[n]]
        if drifted:
            tally.fail(record["attempted"],
                       f"exact counts {drifted} did not repeat at "
                       f"operation {record['index']}")

    metrics["setup.import_s"] = traced["import_s"]
    metrics["setup.build_s"] = traced["build_s"]
    metrics["runner.run_once.alloc_peak_mb"] = (
        alloc["records"][0]["alloc_peak_mb"]
        if alloc and alloc["records"] else 0.0
    )
    metrics["trace.runs_per_s"] = throughput(kind, records)
    metrics["trace.untraced_runs_per_s"] = throughput(
        kind, traced["untraced_records"])
    metrics["trace.overhead_runs_per_s"] = (
        metrics["trace.untraced_runs_per_s"] - metrics["trace.runs_per_s"]
    )
    return metrics, spans


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so child sessions are stopped on the
    # way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        sys.stderr.write("perfbench: no program source at src/repro; run "
                         "from the root of a repository checkout\n")
        return 2
    manifest = load_manifest()
    if args.workload not in manifest["workloads"]:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(manifest['workloads'])}\n")
        return 2
    if args.seconds <= 0:
        sys.stderr.write("perfbench: --seconds must be positive\n")
        return 2
    spec = manifest["workloads"][args.workload]
    kind = spec["kind"]
    runner = Runner(root, args.workload, args.seed)
    tally = stats.Tally()

    def collect(child: Optional[Dict[str, Any]], label: str):
        if child is None:
            tally.record(1, 1, f"{label} child process failed")
            return None
        tally.record(child["attempted"], child["failed"])
        tally.reasons.extend(child["reasons"])
        return child

    if args.trace == 0:
        children = [
            collect(runner.child("time", seconds=args.seconds / CHILDREN),
                    f"untraced #{i}")
            for i in range(CHILDREN)
        ]
        done = [c for c in children if c is not None]
        metrics, details = end_to_end(kind, done)
        units = {name: unit for name, (_, unit) in metrics.items()}
        values = {name: value for name, (value, _) in metrics.items()}
    else:
        traced = collect(runner.child("traced", seconds=args.seconds,
                                      ops=spec["traced_ops"]), "traced")
        alloc = (collect(runner.child("alloc"), "tracemalloc")
                 if kind == "serial" else None)
        done = [c for c in (traced, alloc) if c is not None]
        details = {}
        values = {name: 0.0 for name in manifest["per_layer"]}
        if traced is not None and traced["per_op"]:
            layer_values, spans = per_layer(kind, manifest, traced, alloc,
                                            tally)
            values.update(layer_values)
            trace_path = os.path.join(
                root, ".perfbench_out",
                f"spans-{args.workload}-seed{args.seed}.json",
            )
            with open(trace_path, "w", encoding="utf-8") as handle:
                json.dump([s.__dict__ for s in spans], handle)
            details["spans_file"] = os.path.relpath(trace_path, root)
        units = {name: m["unit"] for name, m in manifest["per_layer"].items()}

    repeat_check([r for c in done
                  for r in c["records"] + c.get("untraced_records", [])],
                 tally)
    failed, attempted = tally.failed_total, max(tally.attempted, 1)
    correct = failed == 0 and len(done) > 0
    details.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs": spec["inputs"],
        "failed_frac": tally.failed_frac,
        "failures": tally.reasons[:20],
        "git_revision": git_revision(root),
        "source_sha256": source_digest(root),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": done[0]["numpy"] if done else "unavailable",
    })

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"correct={correct} failed_frac={tally.failed_frac:.4g}")
    for name in values:
        print(f"  {name:34s} {values[name]:.6g} {units[name]}")
    print("details " + json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
