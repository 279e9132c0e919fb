"""Tests for the live telemetry plane (PR 9).

Three pillars under test:

* **trace stitching** — ``TraceContext`` pickles across processes,
  worker span trees splice deterministically under the coordinator
  (bit-same structure at workers 1/2/4), and the serve path's exemplar
  span chains partition each request's latency exactly;
* **metrics exposition** — Prometheus text rendering, quantile
  recovery from histogram buckets, and the :class:`TelemetrySink`'s
  atomic snapshot files;
* **SLO engine** — burn-rate math on ring-buffer windows, multi-window
  fire/resolve with a fake clock, and the paired-alert invariant that
  ``scripts/check_run_health.py`` replays.
"""

import importlib.util
import json
import pickle
import sys
import threading
from pathlib import Path

import pytest

from repro.core import RETIA, RETIAConfig, TrainerConfig
from repro.core.trainer import OnlineAdapter
from repro.datasets import SyntheticTKGConfig, generate_tkg
from repro.eval import evaluate_extrapolation
from repro.obs import (
    BurnWindow,
    MetricsRegistry,
    SLODef,
    SLOEngine,
    TelemetrySink,
    histogram_quantile,
    to_prometheus,
    tracing,
)
from repro.obs.tracing import SpanCollector, TraceContext
from repro.serve import ModelServer, ServeConfig, loadgen

_SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load_script(name, module_name):
    spec = importlib.util.spec_from_file_location(module_name, _SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_run_health = _load_script("check_run_health.py", "check_run_health_telemetry")
check_exposition = _load_script("check_exposition.py", "check_exposition_telemetry")


def tiny_dataset():
    config = SyntheticTKGConfig(
        num_entities=16,
        num_relations=3,
        num_timestamps=12,
        events_per_step=14,
        base_pool_size=30,
        seed=7,
    )
    return generate_tkg(config).split((0.6, 0.15, 0.25))


@pytest.fixture(scope="module")
def splits():
    return tiny_dataset()


def revealed_model(train, valid, seed=0):
    model = RETIA(
        RETIAConfig(
            num_entities=16, num_relations=3, dim=8, history_length=2,
            num_kernels=4, seed=seed,
        )
    )
    model.set_history(train)
    for ts in valid.timestamps:
        model.record_snapshot(valid.snapshot(int(ts)))
    model.eval()
    return model


def make_server(splits, reporter=None, **overrides):
    train, valid, _ = splits
    model = revealed_model(train, valid)
    adapter = OnlineAdapter(
        model, TrainerConfig(online_steps=1, online_lr=1e-3, seed=0)
    )
    knobs = dict(
        max_batch=8,
        max_queue=16,
        default_deadline_ms=2000.0,
        refresh_attempts=3,
        refresh_backoff_ms=1.0,
        breaker_failure_threshold=3,
        breaker_recovery_ms=30.0,
        seed=0,
    )
    knobs.update(overrides)
    return ModelServer(
        model, adapter=adapter, config=ServeConfig(**knobs), reporter=reporter
    )


# ----------------------------------------------------------------------
# Trace context propagation
# ----------------------------------------------------------------------
class TestTraceContext:
    def test_pickle_and_dict_round_trip(self):
        ctx = TraceContext(trace_id="t-1", parent_span_id=7, pid=123, tid=456)
        assert pickle.loads(pickle.dumps(ctx)) == ctx
        assert TraceContext.from_dict(ctx.to_dict()) == ctx

    def test_serialized_tree_pickles_and_splices(self):
        worker = SpanCollector(context=TraceContext(trace_id="t-2", pid=99))
        with tracing.collect_spans(worker):
            with tracing.span("eval_block", block=0):
                with tracing.span("score_ts", ts=3):
                    pass
        tree = pickle.loads(pickle.dumps(worker.serialize_tree()))
        assert tree["trace"]["trace_id"] == "t-2"

        parent = SpanCollector()
        with tracing.collect_spans(parent):
            with tracing.span("coordinator"):
                spliced = parent.splice(tree)
        assert [s.name for s in spliced] == ["eval_block", "score_ts"]
        root = next(s for s in parent.spans if s.name == "coordinator")
        block = next(s for s in parent.spans if s.name == "eval_block")
        score = next(s for s in parent.spans if s.name == "score_ts")
        assert block.parent_id == root.span_id
        assert score.parent_id == block.span_id
        assert block.depth == root.depth + 1
        assert score.depth == block.depth + 1
        # Spliced spans keep their origin process identity.
        assert block.pid == worker.pid
        assert score.pid == worker.pid

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_sharded_eval_splices_identically_across_workers(
        self, splits, workers
    ):
        train, valid, test = splits
        collector = SpanCollector()
        with tracing.collect_spans(collector):
            with tracing.span("evaluate"):
                evaluate_extrapolation(
                    revealed_model(train, valid), test, workers=workers
                )
        assert collector.is_balanced
        # Flattened score_ts timestamps are the full reveal schedule,
        # in block order, identical for every worker count.
        ts_meta = [
            s.meta["ts"] for s in collector.spans if s.name == "score_ts"
        ]
        expected = sorted(int(t) for t in test.timestamps)
        assert ts_meta == expected
        blocks = [s for s in collector.spans if s.name == "eval_block"]
        assert blocks, "worker trees were not spliced"
        root = next(s for s in collector.spans if s.name == "evaluate")
        assert all(s.parent_id == root.span_id for s in blocks)

    def test_uninstrumented_eval_collects_nothing(self, splits):
        train, valid, test = splits
        evaluate_extrapolation(
            revealed_model(train, valid), test, workers=2
        )
        assert tracing.active() is None


# ----------------------------------------------------------------------
# Serve exemplars
# ----------------------------------------------------------------------
class TestServeExemplars:
    def test_span_chain_partitions_latency(self, splits):
        server = make_server(splits, exemplar_every=1, exemplar_capacity=64)
        _, _, test = splits
        ts = int(test.timestamps[0])
        server.start(ts=ts)
        try:
            import numpy as np

            queries = np.array([[0, 0], [1, 1]], dtype=np.int64)
            for _ in range(6):
                server.score(queries)
        finally:
            server.drain()
        exemplars = server.exemplars()
        assert len(exemplars) == 6  # every request sampled at 1-in-1
        for ex in exemplars:
            names = [s["name"] for s in ex["spans"]]
            assert names == ["admit", "queue_wait", "decode", "respond"]
            total = sum(s["seconds"] for s in ex["spans"])
            # latency_ms is rounded to 3 decimals (0.5us quantization).
            assert total == pytest.approx(ex["latency_ms"] / 1000.0, abs=5.1e-7)
            # Contiguous: each span starts where the previous ended.
            for left, right in zip(ex["spans"], ex["spans"][1:]):
                assert right["start"] == pytest.approx(left["end"])

    def test_sampling_is_deterministic_one_in_n(self, splits):
        server = make_server(splits, exemplar_every=4, exemplar_capacity=64)
        _, _, test = splits
        server.start(ts=int(test.timestamps[0]))
        try:
            import numpy as np

            queries = np.array([[0, 0]], dtype=np.int64)
            for _ in range(9):
                server.score(queries)
        finally:
            server.drain()
        indices = [ex["request_index"] for ex in server.exemplars()]
        assert indices == [i for i in indices if i % 4 == 0]
        assert len(indices) >= 2

    def test_concurrent_callers_draw_distinct_request_indices(self, splits):
        # A read-then-increment index lets two threads share an index,
        # double-sampling one exemplar and skipping another.
        import numpy as np

        threads, per_thread = 8, 20
        requests = threads * per_thread
        server = make_server(splits, exemplar_every=1, exemplar_capacity=requests)
        _, _, test = splits
        server.start(ts=int(test.timestamps[0]))
        queries = np.array([[0, 0]], dtype=np.int64)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force thread switches mid-call
        try:
            workers = [
                threading.Thread(
                    target=lambda: [server.score(queries) for _ in range(per_thread)]
                )
                for _ in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60.0)
            assert not any(worker.is_alive() for worker in workers)
        finally:
            sys.setswitchinterval(interval)
            server.drain()
        indices = sorted(ex["request_index"] for ex in server.exemplars())
        assert indices == list(range(requests))

    def test_capacity_bounds_the_ring(self, splits):
        server = make_server(splits, exemplar_every=1, exemplar_capacity=3)
        _, _, test = splits
        server.start(ts=int(test.timestamps[0]))
        try:
            import numpy as np

            queries = np.array([[0, 0]], dtype=np.int64)
            for _ in range(8):
                server.score(queries)
        finally:
            server.drain()
        assert len(server.exemplars()) == 3


# ----------------------------------------------------------------------
# Loadgen planning (refactor must keep schedules stable)
# ----------------------------------------------------------------------
class TestBuildPlans:
    def test_ingest_plans_are_indices_in_cursor_order(self):
        config = loadgen.LoadgenConfig(requests=32, ingest_every=8, seed=1)
        _, plans = loadgen.build_plans(10, 4, 3, config)
        ingests = [payload for kind, payload in plans if kind == "ingest"]
        assert ingests == [0, 1, 2]

    def test_traced_builder_matches_plain_builder(self):
        config = loadgen.LoadgenConfig(requests=16, seed=5)
        arrivals, plans = loadgen.build_plans(10, 4, 2, config)
        traced_arrivals, traced_plans, _ = loadgen.build_plans_traced(
            10, 4, 2, config
        )
        assert list(arrivals) == list(traced_arrivals)
        assert len(plans) == len(traced_plans)
        for (kind_a, pay_a), (kind_b, pay_b) in zip(plans, traced_plans):
            assert kind_a == kind_b
            if kind_a == "score":
                assert (pay_a == pay_b).all()
            else:
                assert pay_a == pay_b


# ----------------------------------------------------------------------
# SLO engine
# ----------------------------------------------------------------------
class TestBurnWindow:
    def test_evicts_outside_the_window(self):
        window = BurnWindow(window_s=12.0, bins=12)
        window.record(0.0, bad=True)
        window.record(1.0, bad=False)
        good, bad = window.totals(1.0)
        assert (good, bad) == (1, 1)
        good, bad = window.totals(30.0)
        assert (good, bad) == (0, 0)

    def test_bad_fraction(self):
        window = BurnWindow(window_s=10.0, bins=10)
        for i in range(8):
            window.record(float(i), bad=(i % 4 == 0))
        assert window.bad_fraction(7.0) == pytest.approx(2 / 8)


class TestSLOEngine:
    def _engine(self, emit, registry=None):
        clock = [0.0]
        engine = SLOEngine(
            [
                SLODef(
                    "availability",
                    objective=0.9,
                    fast_window_s=10.0,
                    slow_window_s=40.0,
                    fast_burn=2.0,
                    slow_burn=1.0,
                )
            ],
            clock=lambda: clock[0],
            registry=registry,
            emit=emit,
        )
        return engine, clock

    def test_fires_only_when_both_windows_burn(self):
        events = []
        engine, clock = self._engine(
            lambda event, **f: events.append(f)
        )
        # Bad traffic: fraction 1.0 -> burn 10x in both windows.
        for _ in range(5):
            engine.record("availability", bad=True)
        assert engine.is_firing("availability")
        assert events and events[0]["state"] == "firing"
        assert events[0]["burn_fast"] >= 2.0

    def test_fast_blip_alone_does_not_fire(self):
        events = []
        engine, clock = self._engine(lambda event, **f: events.append(f))
        # Seed the slow window with plenty of good traffic first.
        for _ in range(200):
            engine.record("availability", bad=False)
        clock[0] = 35.0  # fast window (10s) has rotated away; slow keeps it
        for _ in range(3):
            engine.record("availability", bad=True)
        assert not engine.is_firing("availability")
        assert events == []

    def test_resolves_by_decay_through_check(self):
        events = []
        engine, clock = self._engine(lambda event, **f: events.append(f))
        for _ in range(5):
            engine.record("availability", bad=True)
        assert engine.is_firing("availability")
        clock[0] = 100.0  # both windows fully rotated; no new traffic
        engine.check()
        assert not engine.is_firing("availability")
        assert [e["state"] for e in events] == ["firing", "resolved"]

    def test_force_resolve_pairs_the_stream(self):
        events = []
        engine, clock = self._engine(lambda event, **f: events.append(f))
        for _ in range(5):
            engine.record("availability", bad=True)
        engine.force_resolve("shutdown")
        states = [e["state"] for e in events]
        assert states == ["firing", "resolved"]
        assert events[-1]["reason"] == "shutdown"
        engine.force_resolve("shutdown")  # idempotent: nothing open
        assert len(events) == 2

    def test_registry_gauges_track_state(self):
        registry = MetricsRegistry()
        engine, clock = self._engine(lambda event, **f: None, registry=registry)
        for _ in range(5):
            engine.record("availability", bad=True)
        doc = registry.to_dict()
        by_name = {m["name"]: m for m in doc["metrics"]}
        assert "slo_burn_rate" in by_name
        firing = by_name["slo_alert_firing"]["series"][0]["value"]
        assert firing == 1.0

    def test_state_snapshot_is_json_safe(self):
        engine, clock = self._engine(lambda event, **f: None)
        engine.record("availability", bad=False)
        state = engine.state()
        json.dumps(state)  # must not raise
        assert state["availability"]["objective"] == 0.9
        assert state["availability"]["firing"] is False


# ----------------------------------------------------------------------
# Exposition + sink
# ----------------------------------------------------------------------
class TestExposition:
    def test_renders_valid_prometheus_text(self):
        registry = MetricsRegistry()
        registry.counter("req_total", help='requests "served"').inc(
            3, kind="score"
        )
        registry.gauge("staleness", help="refreshes behind").set(2.0)
        hist = registry.histogram(
            "lat_seconds", buckets=(0.1, 0.5), help="latency"
        )
        hist.observe(0.05)
        hist.observe(0.3)
        hist.observe(9.0)
        text = to_prometheus(registry)
        assert '# TYPE req_total counter' in text
        assert 'req_total{kind="score"} 3' in text
        assert 'lat_seconds_bucket{le="+Inf"} 3' in text
        assert "lat_seconds_count 3" in text
        # The independent CI validator accepts what the renderer emits.
        assert check_exposition.check_exposition(text) == []

    def test_nonfinite_observations_surface_as_side_counters(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(1.0,), help="h")
        hist.observe(0.5)
        hist.observe(float("nan"))
        text = to_prometheus(registry)
        assert "lat_nonfinite_total 1" in text
        assert "lat_count 1" in text
        assert check_exposition.check_exposition(text) == []

    def test_validator_rejects_broken_cumulative_buckets(self):
        bad = (
            "# TYPE lat histogram\n"
            'lat_bucket{le="0.1"} 5\n'
            'lat_bucket{le="+Inf"} 3\n'
            "lat_sum 1.0\n"
            "lat_count 3\n"
        )
        problems = check_exposition.check_exposition(bad)
        assert any("not cumulative" in p for p in problems)

    def test_histogram_quantile_interpolates(self):
        buckets = [(0.1, 50), (0.5, 90), ("+inf", 100)]
        p50 = histogram_quantile(0.5, buckets)
        assert 0.0 < p50 <= 0.1
        p99 = histogram_quantile(0.99, buckets)
        assert p99 == pytest.approx(0.5)  # +Inf clamps to highest edge
        assert histogram_quantile(0.5, []) != histogram_quantile(0.5, [])  # NaN


class TestTelemetrySink:
    def test_write_once_publishes_both_files(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("x_total", help="h").inc()
        sink = TelemetrySink(
            str(tmp_path), registry, slo_state=lambda: {"availability": {}}
        )
        doc = sink.write_once()
        assert doc["sequence"] == 1
        assert (tmp_path / "telemetry.prom").exists()
        assert (tmp_path / "telemetry.json").exists()
        on_disk = json.loads((tmp_path / "telemetry.json").read_text())
        assert on_disk["slo"] == {"availability": {}}
        assert not list(tmp_path.glob("*.tmp"))  # atomic: no leftovers

    def test_background_thread_writes_on_cadence(self, tmp_path):
        import time

        registry = MetricsRegistry()
        with TelemetrySink(str(tmp_path), registry, interval_s=0.01) as sink:
            deadline = time.monotonic() + 5.0
            while sink.writes < 3 and time.monotonic() < deadline:
                time.sleep(0.005)
        assert sink.writes >= 3
        final = json.loads((tmp_path / "telemetry.json").read_text())
        assert final["sequence"] == sink.writes


# ----------------------------------------------------------------------
# Alert-stream health checks
# ----------------------------------------------------------------------
def _alert(seq, state, slo="availability"):
    return {
        "event": "alert",
        "seq": seq,
        "t": float(seq),
        "slo": slo,
        "state": state,
        "burn_fast": 3.0,
        "burn_slow": 2.0,
        "reason": "test",
    }


def _bad_request(seq):
    return {
        "event": "request",
        "seq": seq,
        "t": float(seq),
        "kind": "score",
        "status": 503,
        "latency_ms": 1.0,
        "staleness": 0,
        "batch": 1,
    }


class TestCheckAlerts:
    def test_paired_stream_passes(self):
        events = [_bad_request(0), _alert(1, "firing"), _alert(2, "resolved")]
        assert check_run_health.check_alerts(events) == []

    def test_unresolved_stream_fails(self):
        events = [_bad_request(0), _alert(1, "firing")]
        problems = check_run_health.check_alerts(events)
        assert any("never resolved" in p for p in problems)

    def test_double_fire_fails(self):
        events = [
            _bad_request(0),
            _alert(1, "firing"),
            _alert(2, "firing"),
            _alert(3, "resolved"),
        ]
        problems = check_run_health.check_alerts(events)
        assert any("strictly alternate" in p for p in problems)

    def test_resolve_before_fire_fails(self):
        problems = check_run_health.check_alerts([_alert(0, "resolved")])
        assert any("strictly alternate" in p for p in problems)

    def test_unexplained_availability_firing_fails(self):
        events = [_alert(0, "firing"), _alert(1, "resolved")]
        problems = check_run_health.check_alerts(events)
        assert any("unexplained" in p for p in problems)

    def test_require_alert_demands_a_complete_pair(self):
        events = [_bad_request(0), _alert(1, "firing"), _alert(2, "resolved")]
        assert (
            check_run_health.check_alerts(events, require_alert="availability")
            == []
        )
        problems = check_run_health.check_alerts(
            events, require_alert="latency"
        )
        assert any("latency" in p for p in problems)
