"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from perfbench.metrics import END_TO_END, PER_LAYER, WORKLOAD_NAMES  # noqa: E402
from perfbench.openloop import Request, read_schedule, run_open_loop, with_ingests  # noqa: E402
from perfbench.spans import (  # noqa: E402
    TARGETS,
    Instrumentation,
    Span,
    SpanTable,
    Tracer,
    covered_seconds,
    graph_size,
    installed_wrappers,
)
from perfbench.stats import tail  # noqa: E402


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def test_covered_seconds_merges_overlaps_and_clips():
    assert covered_seconds(0, 10, []) == 0
    assert covered_seconds(0, 10, [(1, 3), (5, 6)]) == 3
    assert covered_seconds(0, 10, [(1, 4), (2, 6), (3, 5)]) == 5  # overlapping
    assert covered_seconds(0, 10, [(2, 8), (3, 4)]) == 6  # contained
    assert covered_seconds(0, 10, [(-5, 2), (9, 20)]) == 3  # clipped at both ends
    assert covered_seconds(0, 10, [(11, 12), (-3, -1)]) == 0  # outside


def test_self_time_of_nested_and_overlapping_spans():
    spans = [
        Span(1, 0, "root", 0.0, 10.0),
        Span(2, 1, "a", 1.0, 3.0),
        Span(3, 1, "b", 2.0, 5.0),  # overlaps a (another thread's child)
        Span(4, 3, "c", 2.5, 3.5),  # nested in b
        Span(5, 1, "d", 8.0, 12.0),  # runs past its parent
    ]
    table = SpanTable(spans)
    assert table.self_seconds[1] == pytest.approx(10 - (4 + 2))
    assert table.self_seconds[2] == pytest.approx(2)
    assert table.self_seconds[3] == pytest.approx(3 - 1)
    assert table.self_seconds[4] == pytest.approx(1)
    assert table.self_seconds[5] == pytest.approx(4)
    assert {table.root[i].name for i in range(1, 6)} == {"root"}
    assert table.self_total(["a", "b"], scope="root") == pytest.approx(4)
    assert table.count(["c"], window=(2.0, 3.0)) == 1
    assert table.count(["c"], window=(3.0, 9.0)) == 0


def test_tracer_self_times_sum_to_root_on_one_thread():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("root"):
        with tracer.span("x"):
            with tracer.span("y"):
                pass
        with tracer.span("x"):
            pass
    table = SpanTable(tracer.spans)
    (root,) = table.select(["root"])
    assert sum(table.self_seconds.values()) == pytest.approx(root.seconds)
    assert table.self_total(["x"]) == pytest.approx(2 + 1)  # 3 ticks outer x minus y, 1 tick inner x
    assert all(table.root[s.id].name == "root" for s in tracer.spans)


def test_spans_on_other_threads_are_roots():
    tracer = Tracer()
    with tracer.span("main"):
        thread = threading.Thread(target=lambda: _record(tracer, "side"))
        thread.start()
        thread.join(timeout=5)
    assert not thread.is_alive()
    (side,) = SpanTable(tracer.spans).select(["side"])
    assert side.parent == 0


def _record(tracer, name):
    with tracer.span(name):
        pass


def test_absorb_renumbers_worker_spans_under_a_parent():
    tracer = Tracer()
    with tracer.span("coordinator") as parent:
        pass
    tracer.absorb([(1, 0, "block", 1.0, 2.0), (2, 1, "ranks", 1.2, 1.8)], parent=parent)
    table = SpanTable(tracer.spans)
    (block,) = table.select(["block"])
    (ranks,) = table.select(["ranks"])
    assert block.parent == parent and ranks.parent == block.id
    assert table.self_seconds[block.id] == pytest.approx(0.4)


# ----------------------------------------------------------------------
# The "ten samples beyond" tail
# ----------------------------------------------------------------------
def test_tail_has_exactly_ten_samples_beyond():
    values = list(range(1000))
    result = tail(values)
    assert result["value"] == 989
    assert sum(v > result["value"] for v in values) == 10
    assert result["percentile"] == pytest.approx(99.0)
    assert tail(list(range(21)))["value"] == 10
    assert tail(list(range(50))[::-1])["value"] == 39  # order of input is irrelevant


def test_tail_falls_back_to_the_maximum_when_samples_are_few():
    for n in (1, 10, 20):
        result = tail(list(range(n)))
        assert result["value"] == n - 1 and result["percentile"] == 100.0
    with pytest.raises(ValueError):
        tail([])


# ----------------------------------------------------------------------
# Open loop: due-time latency and failure accounting
# ----------------------------------------------------------------------
class _Response:
    def __init__(self, status, version=1):
        self.status = status
        self.snapshot_version = version
        self.staleness = 0
        self.queued_ms = 0.0
        self.batch = 1
        self.scores = None
        self.error = None


class _StubServer:
    """Answers in order from ``statuses``; the first call stalls ``stall`` s."""

    def __init__(self, statuses, stall=0.0):
        self.statuses = list(statuses)
        self.stall = stall
        self.calls = 0
        self.lock = threading.Lock()

    def _answer(self):
        with self.lock:
            index = self.calls
            self.calls += 1
        if index == 0:
            time.sleep(self.stall)
        return _Response(self.statuses[index])

    def score(self, queries):
        return self._answer()

    def topk(self, subject, relation, k=10):
        return self._answer()

    def ingest(self, snapshot):
        return self._answer()


def test_latency_is_timed_from_the_due_time():
    schedule = [Request(0.00, "score", None), Request(0.01, "score", None), Request(0.02, "topk", (0, 0))]
    server = _StubServer([200, 200, 200], stall=0.2)
    outcomes = run_open_loop(server, schedule, threads=1)
    assert [o.status for o in outcomes] == [200, 200, 200]
    # The stall delays the two later requests; one client thread cannot
    # start them before it ends, and their latency counts from when they
    # were due, not from when they started.
    assert outcomes[0].latency_ms >= 190
    assert outcomes[1].latency_ms >= 180 and outcomes[2].latency_ms >= 170
    assert all(o.late_ms < 50 for o in outcomes)  # the generator itself kept time
    assert all(o.latency_ms >= o.late_ms for o in outcomes)


def test_failed_statuses_count_against_attempted():
    statuses = [200, 408, 500, 503, 200, 400, 200, 200]
    schedule = [Request(0.001 * i, "score", None) for i in range(len(statuses))]
    outcomes = run_open_loop(_StubServer(statuses), schedule, threads=2)
    failed = sum(o.failed for o in outcomes)
    assert failed == 3  # 408, 500, 503; a 400 is the client's own error
    assert 1.0 - failed / len(outcomes) == pytest.approx(5 / 8)


def test_a_raising_server_call_is_a_failed_request():
    class Broken(_StubServer):
        def score(self, queries):
            raise RuntimeError("boom")

    (outcome,) = run_open_loop(Broken([200]), [Request(0.0, "score", None)])
    assert outcome.status == 500 and outcome.failed and "boom" in outcome.error


def test_schedule_is_seeded_and_ingests_are_spread_evenly():
    import numpy as np

    first = read_schedule(np.random.default_rng(7), 100.0, 1.0, 50, 5)
    second = read_schedule(np.random.default_rng(7), 100.0, 1.0, 50, 5)
    assert [r.due for r in first] == [r.due for r in second]
    assert all(r.due < 1.0 for r in first) and 50 < len(first) < 150
    mixed = with_ingests(first, 4, 1.0)
    ingests = [r for r in mixed if r.kind == "ingest"]
    assert [r.due for r in ingests] == pytest.approx([0.2, 0.4, 0.6, 0.8])
    assert [r.payload for r in ingests] == [0, 1, 2, 3]
    assert [r.due for r in mixed] == sorted(r.due for r in mixed)


# ----------------------------------------------------------------------
# Instrumentation is removed after the traced run
# ----------------------------------------------------------------------
def test_untraced_runs_carry_zero_wrappers():
    from repro.core.rgcn import RGCNStack
    from repro.scale.frozen import FrozenWindowModel
    from repro.serve import server

    assert installed_wrappers() == []
    forward = vars(RGCNStack)["forward"]
    freeze = vars(FrozenWindowModel)["freeze"]
    capture = server.capture
    with Instrumentation(Tracer()):
        assert len(installed_wrappers()) == len(TARGETS)
        assert vars(RGCNStack)["forward"] is not forward
        assert isinstance(vars(FrozenWindowModel)["freeze"], classmethod)
    assert installed_wrappers() == []
    assert vars(RGCNStack)["forward"] is forward
    assert vars(FrozenWindowModel)["freeze"] is freeze
    assert server.capture is capture


def test_wrappers_are_removed_when_the_traced_run_raises():
    with pytest.raises(KeyError):
        with Instrumentation(Tracer()):
            raise KeyError("fail inside the traced run")
    assert installed_wrappers() == []


def test_wrapped_calls_record_spans_and_return_the_same_values():
    import numpy as np

    from repro.autograd import Tensor
    from repro.nn import losses

    probs = Tensor(np.full((1, 2, 3), 1.0 / 3.0), requires_grad=True)
    targets = np.array([0, 2])
    expected = losses.nll_of_summed_probs(probs, targets)
    tracer = Tracer()
    with Instrumentation(tracer):
        loss = losses.nll_of_summed_probs(probs, targets)
        loss.backward()
    assert loss.item() == expected.item()
    table = SpanTable(tracer.spans)
    assert table.count(["nn.losses"]) == 1 and table.count(["autograd.backward"]) == 1
    (backward,) = table.select(["autograd.backward"])
    assert tracer.values[backward.id] >= 2


def test_graph_size_counts_each_node_once():
    import numpy as np

    from repro.autograd import Tensor

    x = Tensor(np.ones(3), requires_grad=True)
    y = x + x
    z = (y + y).sum()
    assert graph_size(z) == 4  # x, y, y + y and the sum, each once


# ----------------------------------------------------------------------
# The catalogue matches BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_lists_the_same_workloads_and_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert spec["paths"] == ["perfbench"]
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


def test_a_check_recorded_again_stays_failed():
    from perfbench.common import RunResult

    result = RunResult()
    result.check("same", True)
    result.check("same", False, "broke")
    result.check("same", True)
    other = RunResult()
    other.check("same", True)
    other.check("new", False, "no")
    result.add(other)
    assert result.checks == [("same", False, "broke"), ("new", False, "no")]
