"""Tests for the benchmark harness itself (not the program it measures).

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys
from types import SimpleNamespace

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import child  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


# -- self time -----------------------------------------------------------


def test_self_time_subtracts_nested_children():
    spans = [
        Span("outer", 0.0, 10.0, -1),
        Span("middle", 1.0, 6.0, 0),
        Span("inner", 2.0, 3.0, 1),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 4.0, 1.0])


def test_self_time_subtracts_siblings_once_each():
    spans = [
        Span("run", 0.0, 10.0, -1),
        Span("a", 1.0, 3.0, 0),
        Span("b", 4.0, 7.0, 0),
        Span("c", 7.0, 8.0, 0),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(4.0)


def test_self_time_counts_overlapping_children_as_their_union():
    # Children recorded on other threads may overlap; clip to the parent.
    spans = [
        Span("run", 0.0, 10.0, -1),
        Span("a", 2.0, 6.0, 0),
        Span("b", 4.0, 12.0, 0),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(2.0)


def test_summarize_adds_calls_counts_and_self_time():
    spans = [
        Span("run", 0.0, 4.0, -1),
        Span("pairs", 0.5, 1.5, 0, count=7),
        Span("run", 5.0, 6.0, -1),
        Span("pairs", 5.0, 5.5, 2, count=3),
    ]
    summary = tracing.summarize(spans)
    assert summary["run"]["calls"] == 2
    assert summary["run"]["seconds"] == pytest.approx(5.0)
    assert summary["run"]["self_seconds"] == pytest.approx(3.5)
    assert summary["pairs"]["count"] == 10


def test_tracer_records_parents_and_restores_functions():
    import repro.experiments.runner as runner
    import repro.sim.mobility as mobility

    original = mobility.uniform_positions
    tracer = tracing.Tracer()
    tracer.install("repro.sim.mobility", "uniform_positions", "placement")
    tracer.install("repro.sim.field", "RectangularField.neighbor_pairs",
                   "sim.neighbor_pairs")
    try:
        assert runner.uniform_positions is mobility.uniform_positions
        assert runner.uniform_positions is not original
        from repro.sim.field import RectangularField
        import numpy as np

        field = RectangularField(100.0, 100.0, 30.0)
        with tracer.span("outer"):
            positions = runner.uniform_positions(
                field, 20, np.random.default_rng(1)
            )
            pairs = field.neighbor_pairs(positions)
        with tracer.paused():
            field.neighbor_pairs(positions)
    finally:
        tracer.uninstall()
    assert mobility.uniform_positions is original
    assert runner.uniform_positions is original
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("outer", -1), ("placement", 0),
                     ("sim.neighbor_pairs", 0)]
    assert tracer.spans[2].count == len(pairs)


# -- tail percentile -----------------------------------------------------


def test_tail_needs_ten_samples_beyond_it():
    assert stats.tail([1.0] * 10) is None
    values = list(range(1, 21))  # 20 samples: p50 leaves exactly 10
    assert stats.tail(values) == {"value": 10, "percentile": 50.0,
                                  "samples": 20}


def test_tail_picks_the_highest_qualifying_percentile():
    values = [float(v) for v in range(1, 1001)]
    result = stats.tail(values)
    assert result["percentile"] == 99.0
    assert result["value"] == 990.0
    assert sum(v > result["value"] for v in values) >= stats.MIN_BEYOND
    ten_beyond = stats.tail(list(range(100)))
    assert ten_beyond["percentile"] == 90.0
    assert sum(v > ten_beyond["value"] for v in range(100)) == 10


# -- inputs from the seed ------------------------------------------------


@pytest.mark.parametrize("name", ["table1", "scale5x-chipless"])
def test_same_seed_builds_identical_serial_inputs(name, tmp_path):
    a = workloads.make_workload(name, 5, str(tmp_path))
    b = workloads.make_workload(name, 5, str(tmp_path))
    assert a.config == b.config
    assert a.strategy == b.strategy
    assert a.theory == b.theory


def test_same_seed_builds_identical_campaign_specs(tmp_path):
    a = workloads.make_workload("campaign-tiny", 5, str(tmp_path))
    b = workloads.make_workload("campaign-tiny", 5, str(tmp_path))
    c = workloads.make_workload("campaign-tiny", 6, str(tmp_path))
    assert a.spec.to_json() == b.spec.to_json()
    assert a.spec.spec_hash() == b.spec.spec_hash()
    assert a.spec.spec_hash() != c.spec.spec_hash()
    assert a.weight == 600


def test_manifest_inputs_describe_the_built_configs(tmp_path):
    table1 = workloads.make_workload("table1", 1, str(tmp_path)).config
    inputs = workloads.load_manifest()["workloads"]["table1"]["inputs"]
    assert (table1.n_nodes, table1.codes_per_node, table1.share_count,
            table1.n_compromised, table1.nu) == (
        inputs["n_nodes"], inputs["codes_per_node"],
        inputs["share_count"], inputs["n_compromised"], inputs["nu"])
    scaled = workloads.make_workload("scale5x-chipless", 1,
                                     str(tmp_path)).config
    assert scaled.n_nodes == 10000
    assert scaled.phy_backend == "chipless"
    density = table1.n_nodes / (table1.field_width * table1.field_height)
    assert scaled.n_nodes / (scaled.field_width * scaled.field_height) == (
        pytest.approx(density))


def test_traced_serial_plan_repeats_every_index():
    assert child.operation_plan("serial", 6) == [0, 1, 2, 0, 1, 2]
    assert child.operation_plan("serial", 2) == [0, 0]
    assert child.operation_plan("campaign", 2) == [0, 1]


# -- failure accounting --------------------------------------------------


def test_failed_frac_counts_a_raising_operation():
    tally = stats.Tally()

    def boom():
        raise RuntimeError("broken snapshot")

    assert stats.attempt(tally, boom) is None
    assert stats.attempt(tally, lambda: 42) == 42
    tally.record(1)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.failed_frac == 0.5
    assert "RuntimeError" in tally.reasons[0]


def test_failed_frac_counts_a_quarantined_run():
    complete = dict(complete=True, degraded=(), runs_quarantined=0)
    assert stats.campaign_failed_runs(SimpleNamespace(**complete), 600) == 0
    quarantined = dict(complete, runs_quarantined=1)
    assert stats.campaign_failed_runs(
        SimpleNamespace(**quarantined), 600) == 1
    degraded = dict(complete, degraded=("pool -> per-shard",))
    assert stats.campaign_failed_runs(SimpleNamespace(**degraded), 600) == 600
    tally = stats.Tally()
    tally.record(600, stats.campaign_failed_runs(
        SimpleNamespace(**quarantined), 600), "quarantined")
    assert tally.failed_frac == pytest.approx(1 / 600)


def test_repeat_check_fails_outputs_that_differ_at_one_seed():
    tally = stats.Tally()
    records = [
        {"index": 0, "key": [10, 7, 2], "attempted": 1},
        {"index": 1, "key": [11, 8, 2], "attempted": 1},
        {"index": 0, "key": [10, 7, 2], "attempted": 1},
        {"index": 0, "key": [10, 6, 3], "attempted": 1},
    ]
    workloads.repeat_check(records, tally)
    assert tally.failed == 1
    campaigns = [
        {"index": i, "digest": d, "file_bytes": 5, "attempted": 600}
        for i, d in enumerate(["aa", "aa", "bb"])
    ]
    workloads.repeat_check(campaigns, tally)
    assert tally.failed == 601


# -- the benchmark's description ------------------------------------------


def test_benchmark_json_mirrors_the_manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    manifest = workloads.load_manifest()
    assert [w["name"] for w in bench["workloads"]] == list(
        manifest["workloads"])
    for entry in bench["workloads"]:
        assert entry["why"] == manifest["workloads"][entry["name"]]["why"]
    gated = [n for n, m in manifest["end_to_end"].items() if m["gated"]]
    assert [m["name"] for m in bench["end_to_end"]] == gated
    for metric in bench["end_to_end"]:
        assert metric["unit"] == manifest["end_to_end"][metric["name"]]["unit"]
    assert [m["name"] for m in bench["per_layer"]] == list(
        manifest["per_layer"])
    for metric in bench["per_layer"]:
        described = manifest["per_layer"][metric["name"]]
        assert (metric["unit"], metric["better"]) == (
            described["unit"], described["better"])
        assert described["moves"]


def test_computed_layer_metrics_are_the_manifest_metrics():
    names = {f"{span}_s" for span in run.SPAN_NAMES}
    names.update(run.calls_metric(span) for span in run.SPAN_NAMES
                 if run.calls_metric(span))
    names.update(f"{span}.self_s" for span in run.SELF_TIMED)
    names.update(run.op_counts([], {}, {"key": [3, 2, 1]}))
    names.update(["setup.import_s", "setup.build_s", "mndp.recovery_ratio",
                  "runner.run_once.alloc_peak_mb", "trace.runs_per_s",
                  "trace.untraced_runs_per_s", "trace.overhead_runs_per_s"])
    assert names == set(workloads.load_manifest()["per_layer"])


def test_exits_nonzero_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "table1", "--seed", "1",
                     "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
