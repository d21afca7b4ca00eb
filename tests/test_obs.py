"""Tests for the observability subsystem: tracer, exporters, flight recording."""

import json

import pytest

from repro.obs import (
    Tracer,
    timeseries_json,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_timeseries_csv,
)
from repro.scenarios import overload_spec, single_fault_spec
from repro.scenarios.runner import ScenarioResult, ScenarioRunner, run_scenario
from repro.sim.engine import Simulator
from repro.sim.metrics import MetricsRegistry, TimeSeries


# ----------------------------------------------------------------------
# tracer core
# ----------------------------------------------------------------------


def test_tracer_records_spans_instants_flows_and_counters():
    sim = Simulator()
    tracer = Tracer(sim)
    tracer.register_track(0, "replica-0")
    token = tracer.begin(0, "view-change", "view-change v0->v1", from_view=0)
    sim.run_for(0.5)
    tracer.end(token, entered_view=1)
    tracer.instant(0, "lifecycle", "commit", position=3)
    flow = tracer.flow_begin(0, "PrepareMessage", size=120)
    sim.run_for(0.1)
    tracer.flow_end(flow, "replica-1", "PrepareMessage")
    tracer.counter("queue-depth/r0", 7)
    records = tracer.records()
    kinds = [record["kind"] for record in records]
    assert kinds == ["span", "instant", "flow_s", "flow_f", "counter"]
    span = records[0]
    assert span["track"] == "replica-0"
    assert span["start"] == 0.0 and span["end"] == 0.5
    assert span["args"] == {"from_view": 0, "entered_view": 1}
    assert records[2]["id"] == records[3]["id"]


def test_tracer_ring_buffer_keeps_the_trailing_window():
    sim = Simulator()
    tracer = Tracer(sim, capacity=10)
    for index in range(25):
        tracer.instant(0, "lifecycle", f"event-{index}")
    assert len(tracer) == 10
    assert tracer.recorded_total == 25
    assert tracer.dropped_records == 15
    names = [record["name"] for record in tracer.records()]
    assert names == [f"event-{index}" for index in range(15, 25)]


def test_tracer_dump_synthesizes_open_spans_with_null_end():
    sim = Simulator()
    tracer = Tracer(sim)
    tracer.begin(0, "view-change", "wedged view change")
    sim.run_for(1.0)
    dump = tracer.dump()
    assert dump["format"] >= 1
    assert dump["end_time"] == 1.0
    open_records = [record for record in dump["records"] if record["end"] is None]
    assert len(open_records) == 1
    assert open_records[0]["name"] == "wedged view change"
    # end() on a never-begun or None token is a harmless no-op.
    tracer.end(None)
    tracer.end(999)


def test_tracer_summary_counts_kinds_and_categories():
    sim = Simulator()
    tracer = Tracer(sim)
    tracer.end(tracer.begin(0, "progress-deadline", "progress i0 v0"))
    tracer.instant(1, "lifecycle", "submit")
    summary = tracer.summary()
    assert summary["by_kind"] == {"instant": 1, "span": 1}
    assert summary["span_categories"] == {"progress-deadline": 1}
    assert summary["records"] == 2


# ----------------------------------------------------------------------
# chrome trace export
# ----------------------------------------------------------------------


def _small_dump():
    sim = Simulator()
    tracer = Tracer(sim)
    tracer.register_track(0, "replica-0")
    tracer.register_track(1, "replica-1")
    token = tracer.begin(0, "view-change", "view-change v0->v1")
    flow = tracer.flow_begin(0, "PrepareMessage")
    sim.run_for(0.2)
    tracer.flow_end(flow, 1, "PrepareMessage")
    tracer.end(token)
    tracer.instant(1, "lifecycle", "commit")
    tracer.counter("queue-depth/r0", 3)
    tracer.begin(1, "state-transfer", "wedged state transfer")  # stays open
    return tracer.dump()


def test_to_chrome_trace_emits_a_valid_document():
    document = to_chrome_trace(_small_dump())
    counts = validate_chrome_trace(document)
    assert counts["X"] >= 3  # the span, the open span, and two flow anchors
    assert counts["s"] == 1 and counts["f"] == 1
    assert counts["i"] == 1 and counts["C"] == 1
    # Thread metadata names every row, spans land on "<track> · <category>".
    names = {
        event["args"]["name"]
        for event in document["traceEvents"]
        if event["ph"] == "M" and event["name"] == "thread_name"
    }
    assert "replica-0 · view-change" in names
    assert "replica-1" in names
    # The open span was clamped to the recording end and tagged.
    open_slices = [
        event
        for event in document["traceEvents"]
        if event["ph"] == "X" and event.get("args", {}).get("open")
    ]
    assert len(open_slices) == 1


def test_to_chrome_trace_drops_unmatched_flow_halves():
    sim = Simulator()
    tracer = Tracer(sim, capacity=1)
    flow = tracer.flow_begin(0, "Msg")
    tracer.flow_end(flow, 1, "Msg")  # evicts the send half from the ring
    document = to_chrome_trace(tracer.dump())
    counts = validate_chrome_trace(document)
    assert counts.get("s", 0) == 0 and counts.get("f", 0) == 0


def test_validate_chrome_trace_rejects_malformed_documents():
    with pytest.raises(ValueError):
        validate_chrome_trace({"events": []})
    with pytest.raises(ValueError):
        validate_chrome_trace({"traceEvents": [{"ph": "Z", "name": "x", "pid": 1, "ts": 0}]})
    with pytest.raises(ValueError):  # X without dur
        validate_chrome_trace({"traceEvents": [{"ph": "X", "name": "x", "pid": 1, "ts": 0}]})
    with pytest.raises(ValueError):  # unbalanced flow id
        validate_chrome_trace(
            {"traceEvents": [{"ph": "s", "name": "x", "pid": 1, "tid": 1, "ts": 0, "id": 9}]}
        )
    with pytest.raises(ValueError):  # counter without numeric args
        validate_chrome_trace(
            {"traceEvents": [{"ph": "C", "name": "x", "pid": 1, "ts": 0, "args": {"v": "hi"}}]}
        )


def test_write_chrome_trace_round_trips(tmp_path):
    path = tmp_path / "trace.json"
    counts = write_chrome_trace(_small_dump(), path)
    assert sum(counts.values()) == len(json.loads(path.read_text())["traceEvents"])


def test_timeseries_exports(tmp_path):
    series = TimeSeries(name="obs.frontier.r0", bucket_width=0.05)
    series.record(0.01, 4)
    series.record(0.06, 9)
    other = TimeSeries(name="obs.view.r0", bucket_width=0.05)
    other.record(0.02, 1)
    document = timeseries_json([other, series])
    assert [entry["name"] for entry in document["series"]] == [
        "obs.frontier.r0",
        "obs.view.r0",
    ]
    assert document["series"][0]["total"] == 13
    path = tmp_path / "telemetry.csv"
    rows = write_timeseries_csv([series, other], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "series,bucket_start,value"
    assert rows == len(lines) - 1 == 3


# ----------------------------------------------------------------------
# traced scenario runs
# ----------------------------------------------------------------------


def test_traced_pbft_run_contains_episode_spans_and_flows():
    spec = single_fault_spec("pbft", "A2", f=1, duration=0.2, seed=3)
    runner = ScenarioRunner(spec)
    tracer = Tracer(runner.cluster.simulator, capacity=None)
    runner.tracer = tracer
    runner.cluster.attach_tracer(tracer, telemetry_interval=spec.check_interval)
    runner.run()
    summary = tracer.summary()
    assert "progress-deadline" in summary["span_categories"]
    assert summary["by_kind"].get("flow_s", 0) > 0
    assert summary["by_kind"].get("counter", 0) > 0
    assert any(track.startswith("replica-") for track in summary["tracks"])
    assert any(track.startswith("client-") for track in summary["tracks"])
    # The whole recording exports to a structurally valid Perfetto document.
    validate_chrome_trace(to_chrome_trace(tracer.dump()))
    # The sampler mirrored its gauges into the metrics registry.
    names = {series.name for series in runner.cluster.metrics.series()}
    assert "obs.frontier.r0" in names and "obs.in_flight" in names


def test_telemetry_samples_the_spotless_view_as_its_highest_instance_view():
    # SpotLess has no single view attribute: the sampler reads the highest
    # current view of the replica's instances, which keeps moving while
    # execution waits for the slowest instance.
    from repro.bench.cluster import SimulatedCluster

    cluster = SimulatedCluster.for_protocol("spotless", num_replicas=4, clients=3, seed=1)
    tracer = Tracer(cluster.simulator, capacity=None)
    cluster.attach_tracer(tracer, telemetry_interval=0.05)
    cluster.run(duration=0.3)
    sampled = [record["value"] for record in tracer.records() if record["name"] == "view/r0"]
    # The last sample is taken at the end of the run.
    replica = cluster.replicas[0]
    highest = max(instance.current_view for instance in replica.instances.values())
    assert sampled[-1] == highest > replica.pipeline.next_execution_position
    assert sampled == sorted(sampled)


def test_telemetry_samples_instance_skew_as_the_spread_of_instance_views():
    # Execution of a view waits for every instance to reach it, so the gap
    # between a replica's fastest and slowest instance is sampled per tick.
    from repro.bench.cluster import SimulatedCluster

    cluster = SimulatedCluster.for_protocol("spotless", num_replicas=4, clients=3, seed=1)
    tracer = Tracer(cluster.simulator, capacity=None)
    cluster.attach_tracer(tracer, telemetry_interval=0.05)
    cluster.run(duration=0.3)
    for replica in cluster.replicas:
        rid = replica.node_id
        sampled = [r["value"] for r in tracer.records() if r["name"] == f"instance-skew/r{rid}"]
        views = replica.instance_views().values()
        assert len(sampled) == 6
        assert sampled[-1] == max(views) - min(views)
        series = cluster.metrics.time_series(f"obs.instance_skew.r{rid}", 0.05)
        assert series.total() == sum(sampled)
        # Tick k fires at k · 0.05 s and fills bucket k alone.
        assert series.buckets() == [(k * 0.05, value) for k, value in enumerate(sampled, start=1)]


@pytest.mark.parametrize("protocol,fault", [("pbft", "crash"), ("rcc", "A2")])
def test_flight_recording_preserves_golden_digests(protocol, fault):
    spec = single_fault_spec(protocol, fault, f=1, duration=0.2, seed=7)
    plain = run_scenario(spec)
    traced = run_scenario(spec, flight=True)
    assert plain.summary_digest() == traced.summary_digest()
    assert plain.committed_per_replica == traced.committed_per_replica


def test_violation_auto_dumps_the_flight_recorder_window():
    # require_breach with load far below the breach thresholds: the oracle
    # deterministically reports slo-no-breach, which must freeze the ring.
    spec = overload_spec(
        "pbft",
        duration=0.3,
        base_rate=40.0,
        spike_rate=60.0,
        p99_ceiling=10.0,
        max_queue_depth=10**6,
    )
    result = run_scenario(spec, flight=True)
    assert result.violations
    assert result.trace_dump is not None
    assert result.trace_dump["records"]
    # The dump is JSON-round-trippable through the result envelope.
    restored = ScenarioResult.from_json_dict(
        json.loads(json.dumps(result.to_json_dict()))
    )
    assert restored.trace_dump == result.trace_dump
    assert restored.counters_per_replica == result.counters_per_replica
    assert restored.summary_digest() == result.summary_digest()


def test_untraced_run_has_no_dump_and_tolerant_decode():
    spec = single_fault_spec("pbft", "crash", f=1, duration=0.1, seed=1)
    result = run_scenario(spec)
    assert result.trace_dump is None
    # Cached results from before these fields existed decode fine.
    data = result.to_json_dict()
    data.pop("trace_dump")
    data.pop("counters_per_replica")
    restored = ScenarioResult.from_json_dict(data)
    assert restored.trace_dump is None
    assert restored.counters_per_replica == ()


# ----------------------------------------------------------------------
# metrics satellites
# ----------------------------------------------------------------------


def test_snapshot_includes_percentiles_and_series_totals():
    registry = MetricsRegistry()
    histogram = registry.histogram("latency")
    for value in [0.01, 0.02, 0.03, 0.5]:
        histogram.observe(value)
    registry.time_series("throughput", 1.0).record(0.5, 10)
    registry.time_series("throughput", 1.0).record(1.5, 20)
    snapshot = registry.snapshot()
    assert snapshot["latency.p50"] == 0.02
    assert snapshot["latency.p99"] == 0.5
    assert snapshot["latency.max"] == 0.5
    assert snapshot["throughput.total"] == 30


def test_counters_accumulate_exact_integers():
    registry = MetricsRegistry()
    counter = registry.counter("network.messages_sent")
    for _ in range(10**5):
        counter.increment()
    assert counter.value == 10**5
    assert isinstance(counter.value, int)
    counter.increment(0.5)  # fractional amounts widen to float
    assert counter.value == pytest.approx(10**5 + 0.5)
