"""One fresh process of a benchmark run.

Usage (started by ``run.py``, never by hand)::

    python3 perfbench/child.py '<job json>'

The job names the workload, seed and mode:

- ``time``: closed loop for ``seconds`` after set-up, untraced;
- ``traced``: passes over a plan of ``ops`` operations for ``seconds``,
  each operation once with every layer span recorded and once with the
  tracer paused;
- ``alloc``: one operation under ``tracemalloc``.

The child prints one JSON object as the last line of its standard
output.  ``setup_s`` runs from ``spawned_at`` (the parent's
``time.monotonic()`` just before it started this process; the clock is
system-wide on Linux) to the first timed operation.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
import traceback


def operation_plan(kind: str, ops: int) -> list:
    """Run indices of a traced child.  A serial child runs its indices
    twice, so every exact count is seen to repeat."""
    if kind == "serial":
        half = max(1, ops // 2)
        return list(range(half)) * 2
    return list(range(ops))


#: Seconds between two timings of the calibration kernel.
CALIBRATION_INTERVAL_S = 1.0


class CalibrationKernel:
    """A fixed CPU and memory kernel that never touches the program.

    Timed between untraced operations so a run can state the speed of
    the CPUs it ran on: the host this benchmark was tuned on drifts by
    up to a third over minutes, and every workload with it.  It runs in
    as many processes at once as the workload keeps busy, and reports
    their mean.  Its arrays live only while it runs.
    """

    def __init__(self, processes: int) -> None:
        import numpy

        self._numpy = numpy
        self._processes = processes

    def _once(self) -> float:
        values = self._numpy.random.default_rng(0).integers(
            0, 2**31, 1_000_000
        )
        start = time.perf_counter()
        total = 0
        for i in range(150_000):
            total += i * i
        self._numpy.sort(values).sum()
        return time.perf_counter() - start

    def seconds(self) -> float:
        # Helpers are forked, not spawned: they only run ``_once`` and
        # leave with ``os._exit``, and a spawned helper would spend more
        # time importing NumPy than the kernel takes.  Between operations
        # the campaign's worker pool is closed, so no program thread is
        # running while they fork.
        helpers = []
        for _ in range(self._processes - 1):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:  # helper: time one kernel, report, leave
                os.close(read_end)
                os.write(write_end, repr(self._once()).encode())
                os._exit(0)
            os.close(write_end)
            helpers.append((pid, read_end))
        times = [self._once()]
        for pid, read_end in helpers:
            with os.fdopen(read_end, "rb") as handle:
                times.append(float(handle.read()))
            os.waitpid(pid, 0)
        return sum(times) / len(times)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _reset_peak_rss() -> None:
    """Restart the high-water RSS at the current RSS (Linux), so the
    calibration kernel's freed arrays do not count as the workload's."""
    with contextlib.suppress(OSError):
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")


def main(job: dict) -> dict:
    entered = time.monotonic()
    import tracing
    import workloads
    from stats import Tally, attempt

    workloads.import_program()
    imported = time.monotonic()
    workload = workloads.make_workload(job["workload"], job["seed"],
                                       job["workdir"])
    built = time.monotonic()

    tracer = None
    if job["mode"] == "traced":
        from repro.obs import MetricsRegistry, NullRegistry, install

        tracer = tracing.Tracer()
        tracing.install_layers(tracer)
        # The pool counters need a live registry; the serial workloads
        # keep the no-op one so the layers do no metric work.
        registry = (MetricsRegistry() if workload.kind == "campaign"
                    else NullRegistry())
        install(registry)
    tally = Tally()
    attempt(tally, workload.warm_up, label="warm-up")
    if tracer is not None:
        tracer.spans.clear()
        registry.reset()

    def run(index, quiet):
        return attempt(
            tally, lambda: workload.operation(index, quiet),
            weight=workload.weight,
            label=f"operation {index}",
        )

    records = []
    untraced = []
    per_op = []
    first = time.monotonic()
    calibration = []
    peak_rss_mb = _peak_rss_mb()
    if job["mode"] == "time":
        kernel = CalibrationKernel(workload.processes)
        deadline = first + job["seconds"]
        calibrated = float("-inf")
        index = 0
        while True:
            if time.monotonic() - calibrated >= CALIBRATION_INTERVAL_S:
                peak_rss_mb = max(peak_rss_mb, _peak_rss_mb())
                calibration.append(kernel.seconds())
                calibrated = time.monotonic()
                _reset_peak_rss()
            record = run(index, contextlib.nullcontext)
            if record is not None:
                records.append(record)
            index += 1
            if time.monotonic() >= deadline:
                break
    elif job["mode"] == "alloc":
        import tracemalloc

        tracemalloc.start()
        record = run(0, contextlib.nullcontext)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        if record is not None:
            record["alloc_peak_mb"] = peak / 2**20
            records.append(record)
    else:
        def traced_op(index):
            span_start = len(tracer.spans)
            before = dict(registry.snapshot().counters)
            record = run(index, tracer.paused)
            after = registry.snapshot().counters
            if record is not None:
                records.append(record)
                per_op.append({
                    "spans": [span_start, len(tracer.spans)],
                    "counters": {name: after[name] - before.get(name, 0)
                                 for name in after},
                })

        def untraced_op(index):
            with tracer.paused():
                record = run(index, contextlib.nullcontext)
            if record is not None:
                untraced.append(record)

        # Whole passes over the plan until ``seconds`` have elapsed, so
        # per-operation counts average over complete passes.  Each
        # operation runs once traced and once with the tracer paused,
        # alternating which goes first, so the tracing overhead is
        # measured on interleaved samples of one process.
        plan = operation_plan(workload.kind, job["ops"])
        deadline = first + job["seconds"]
        while True:
            for position, index in enumerate(plan):
                pair = (traced_op, untraced_op)
                for step in pair if position % 2 == 0 else pair[::-1]:
                    step(index)
            if time.monotonic() >= deadline:
                break

    for record in records + untraced:
        tally.record(record["attempted"], record["failed"],
                     "; ".join(record.get("reasons", [])))
    workload.check(records, tally)

    import numpy

    result = {
        "setup_s": first - job["spawned_at"],
        "import_s": imported - entered,
        "build_s": built - imported,
        "peak_rss_mb": max(peak_rss_mb, _peak_rss_mb()),
        "calibration_s": calibration,
        "records": records,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "reasons": tally.reasons,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = [
            [s.name, s.start, s.end, s.parent, s.count]
            for s in tracer.spans
        ]
        result["per_op"] = per_op
        result["untraced_records"] = untraced
    return result


if __name__ == "__main__":
    try:
        outcome = main(json.loads(sys.argv[1]))
    except Exception:
        traceback.print_exc()
        sys.exit(1)
    sys.stdout.write(json.dumps(outcome) + "\n")
