"""The one evaluation walker: score-then-reveal, serially or from a pool.

The paper's protocol walks test timestamps in order, scoring timestamp
``t`` from history ``< t`` and then revealing ``t``'s facts.  Both public
drivers, :func:`~repro.eval.evaluate_extrapolation` and
:func:`~repro.eval.diagnose_extrapolation`, take their per-timestamp
ranks from :func:`_score_all` and fold them into their accumulators with
``RankAccumulator.update`` in timestamp order.  ``workers`` only picks
how the ranks are produced:

* ``workers=1`` replays the sequential schedule in this process — score
  ``t`` with :func:`~repro.eval.protocol.score_timestamp`, then
  ``model.observe`` it — so it admits every model, including online
  continuous training that updates parameters at each reveal;
* ``workers>1`` shards the horizon over a process pool.

Sharding is **bit-exact** for a model whose ``observe`` is *record-only
and time-indexed* — revealing a snapshot only extends the history
buffer, and prediction at ``t`` consults strictly-earlier snapshots
(``RETIA.record_snapshot`` / ``history_before``).  For such a model the
sequential reveal schedule is equivalent to pre-recording every test
snapshot up front: scoring ``t`` sees exactly the same history either
way.  Evaluation scoring runs in eval mode under ``no_grad`` and
consumes no RNG, so each timestamp's ranks are a pure function of
``(parameters, history < t, queries)``.  Therefore:

* the shard plan is *one shard per timestamp*, always — worker counts
  only group contiguous shard runs onto processes;
* each worker pre-records the full test horizon (the reveal schedule
  collapsed into the initializer) and scores its timestamps with the
  same ``score_timestamp`` the sequential replay uses;
* the coordinator returns the scored timestamps in timestamp order, so
  the drivers run the same ``update`` chain at every worker count.

Raw/static/time settings, diagnostics decompositions and query counts
are therefore bit-identical across worker counts — asserted by
``tests/test_parallel.py`` and CI's ``parallel-equivalence`` job.

Models whose ``observe`` performs parameter or statistic updates that
are not strictly time-filtered (``OnlineAdapter``'s online continuous
training, count-based baselines) are inherently sequential; the pool
refuses them loudly rather than silently changing the math.

One cache per process: each worker owns its model replica and that
replica's :class:`~repro.graph.SnapshotCache`; caches are never shared
across processes (see the cache's one-cache-per-process note).
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.eval.filters import SETTINGS, FilterIndex
from repro.eval.interface import ExtrapolationModel, scorer_spec
from repro.eval.protocol import (
    DEFAULT_SHARD_TIMEOUT,
    TimestampScores,
    evaluate_extrapolation,
    score_timestamp,
)
from repro.graph import TemporalKG
from repro.obs import tracing
from repro.obs.tracing import TraceContext
from repro.parallel.plan import shard_sequence

#: Per-process worker state, populated by :func:`_init_eval_worker`.
_WORKER_STATE: Dict[str, object] = {}


class ShardedEvalError(ValueError):
    """The model or configuration cannot be evaluated in shards."""


# The pre-``workers=`` name, kept because ``perfbench/largevocab.py`` imports
# it; drop it once perfbench reads spans instead (ROADMAP item 6(c)).
evaluate_extrapolation_sharded = evaluate_extrapolation


def _check_protocol(
    model: ExtrapolationModel,
    setting: str,
    filter_index: Optional[FilterIndex],
    observe: bool,
    workers: int,
) -> None:
    """Refuse a bad configuration before any scoring or pool start."""
    if workers < 1:
        raise ShardedEvalError("workers must be >= 1")
    if setting not in SETTINGS:
        raise ValueError(
            f"unknown evaluation setting {setting!r}; expected one of "
            + ", ".join(repr(s) for s in SETTINGS)
        )
    if setting != "raw" and filter_index is None:
        raise ShardedEvalError("filtered settings need a FilterIndex over the full graph")
    if workers > 1 and observe and not (
        hasattr(model, "record_snapshot") and hasattr(model, "history_before")
    ):
        raise ShardedEvalError(
            f"{type(model).__name__} does not expose a record-only, time-indexed "
            "observe (record_snapshot/history_before); its reveal schedule is "
            "inherently sequential — online continuous training updates "
            "parameters at every revealed timestamp — so sharded evaluation "
            "would change the math. Run with workers=1 instead."
        )


def _pool_context():
    """Prefer fork (cheap, inherits the payload); fall back to spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _shutdown_pool(pool, grace: float = 5.0) -> None:
    """Tear a pool down on the error path without risking a hang.

    ``Pool.terminate()`` can wedge on its internal handler-thread joins
    when workers died abnormally (SIGKILL/OOM — exactly the situations
    that put us on this path), which would turn a diagnosable
    ``ShardedEvalError`` into an indefinite wait.  Run the teardown in a
    daemon thread with a bounded grace period and SIGKILL any surviving
    workers; a wedged teardown is abandoned (``Finalize`` marks itself
    called on entry, so the context-manager exit won't re-run it).
    """
    closer = threading.Thread(target=pool.terminate, daemon=True)
    closer.start()
    closer.join(timeout=grace)
    for proc in list(getattr(pool, "_pool", None) or []):
        if proc.is_alive():
            proc.kill()


def _init_eval_worker(payload: dict) -> None:
    """Install one worker's model replica and collapsed reveal schedule."""
    model = payload["model"]
    for snapshot in payload["reveal"]:
        model.record_snapshot(snapshot)
    _WORKER_STATE.clear()
    _WORKER_STATE.update(payload)


def _score_run(
    model: ExtrapolationModel,
    test_graph: TemporalKG,
    timestamps: Sequence[int],
    block_index: int,
    protocol: dict,
    observe: bool = False,
) -> Tuple[List[TimestampScores], dict]:
    """Score ``timestamps`` in order, revealing each after it with ``observe``.

    The one loop over test timestamps: the ``workers=1`` schedule and
    every pool block run it.  Its spans (one ``eval_block`` with a
    ``score_ts`` child per timestamp) are no-ops without a collector.
    ``protocol`` holds the ``score_timestamp`` keyword arguments.
    """
    start = time.perf_counter()
    scored: List[TimestampScores] = []
    with tracing.span("eval_block", block=block_index, timestamps=len(timestamps)):
        for ts in timestamps:
            snapshot = test_graph.snapshot(ts)
            with tracing.span("score_ts", ts=ts):
                result = score_timestamp(model, snapshot, test_graph.num_relations, **protocol)
            if result is not None:
                scored.append(result)
            if observe and len(snapshot.triples):
                model.observe(snapshot)
    telemetry = {
        "worker": block_index,
        "pid": os.getpid(),
        "seconds": time.perf_counter() - start,
        "shards": len(scored),
        "queries": sum(len(entry.entity_ranks) for entry in scored),
        "scorer": scorer_spec(model),
    }
    return scored, telemetry


def _score_block(
    block: Tuple[int, List[int]],
) -> Tuple[int, List[TimestampScores], dict]:
    """Score one contiguous run of timestamp shards (one pool task).

    When the coordinator shipped a :class:`TraceContext` in the payload
    (it had a span collector installed), the worker records its span
    tree into its own collector and returns it, serialized, in the
    telemetry record for the coordinator to splice.
    """
    block_index, timestamps = block
    state = _WORKER_STATE
    trace: Optional[TraceContext] = state["trace"]
    collector = None if trace is None else tracing.SpanCollector(context=trace)
    with contextlib.nullcontext() if collector is None else tracing.collect_spans(collector):
        scored, telemetry = _score_run(
            state["model"], state["test_graph"], timestamps, block_index, state["protocol"]
        )
    if collector is not None:
        telemetry["spans"] = collector.serialize_tree()
    return block_index, scored, telemetry


def _score_all(
    model: ExtrapolationModel,
    test_graph: TemporalKG,
    setting: str,
    filter_index: Optional[FilterIndex],
    evaluate_relations: bool,
    observe: bool,
    workers: int,
    dedup: bool,
    shard_timeout: Optional[float] = DEFAULT_SHARD_TIMEOUT,
) -> Tuple[List[TimestampScores], List[dict]]:
    """Score every test timestamp, in order or sharded over ``workers``.

    Returns the per-timestamp scores in chronological order plus one
    telemetry record per worker block.  With ``observe`` the caller's
    model ends with the test horizon revealed at every worker count.
    ``shard_timeout`` bounds each pool block's wall-clock (``None``
    disables); a block that misses it — a killed or hung worker —
    raises :class:`ShardedEvalError` naming the shard and its
    timestamps.
    """
    _check_protocol(model, setting, filter_index, observe, workers)
    timestamps = [int(ts) for ts in test_graph.timestamps]
    protocol = {
        "setting": setting,
        "filter_index": filter_index,
        "evaluate_relations": evaluate_relations,
        "dedup": dedup,
    }

    if workers == 1:
        # The sequential score-then-reveal schedule: the one path that
        # admits inherently sequential models.  Its spans open under the
        # caller's and have the shape a pool block ships home, so traces
        # do not depend on ``workers``.
        scored, telemetry = _score_run(model, test_graph, timestamps, 0, protocol, observe)
        return scored, [telemetry]

    parent_collector = tracing.active()
    reveal = (
        [
            test_graph.snapshot(ts)
            for ts in timestamps
            if len(test_graph.snapshot(ts).triples)
        ]
        if observe
        else []
    )
    payload = {
        "model": model,
        "test_graph": test_graph,
        "protocol": protocol,
        "reveal": reveal,
        # Workers only collect spans when the coordinator is tracing —
        # the zero-cost contract crosses the process boundary too.
        "trace": (
            None
            if parent_collector is None
            else TraceContext(
                trace_id=parent_collector.trace_id,
                pid=parent_collector.pid,
                tid=parent_collector.tid,
            )
        ),
    }
    blocks = list(enumerate(shard_sequence(timestamps, workers)))

    ctx = _pool_context()
    with ctx.Pool(
        processes=workers, initializer=_init_eval_worker, initargs=(payload,)
    ) as pool:
        # One async task per block, each collected with a timeout: a
        # worker that died (OOM-killed, SIGKILL) silently loses its task
        # — ``pool.map`` would block forever — and a hung worker should
        # surface as a named shard, not an indefinite wait.
        pending = [
            (index, block, pool.apply_async(_score_block, ((index, block),)))
            for index, block in blocks
        ]
        results = []
        for index, block, async_result in pending:
            try:
                results.append(async_result.get(timeout=shard_timeout))
            except multiprocessing.TimeoutError:
                _shutdown_pool(pool)
                raise ShardedEvalError(
                    f"shard block {index} (timestamps {block[:4]}"
                    f"{'...' if len(block) > 4 else ''}) produced no result "
                    f"within {shard_timeout:g}s — a pool worker likely died "
                    "(killed/OOM) or hung; its task is lost silently, so the "
                    "block is unrecoverable. Rerun with workers=1 to "
                    "localise, or raise shard_timeout for slow hardware."
                ) from None
            except ShardedEvalError:
                raise
            except Exception as exc:
                _shutdown_pool(pool)
                raise ShardedEvalError(
                    f"shard block {index} (timestamps {block[:4]}"
                    f"{'...' if len(block) > 4 else ''}) failed in a pool "
                    f"worker: {type(exc).__name__}: {exc}"
                ) from exc
    # Leave the caller's model in the sequential schedule's end state:
    # the test horizon revealed (workers recorded it only in their own
    # replicas).
    for snapshot in reveal:
        model.record_snapshot(snapshot)

    scored = [entry for _, block_scored, _ in results for entry in block_scored]
    telemetry = [worker_stats for _, _, worker_stats in results]
    # Stitch the worker span trees under the coordinator's trace, in
    # block-index order — deterministic regardless of completion order.
    for worker_stats in telemetry:
        tree = worker_stats.pop("spans", None)
        if parent_collector is not None and tree:
            parent_collector.splice(tree)
    return scored, telemetry


def _emit_worker_telemetry(telemetry: Sequence[dict], reporter=None, registry=None) -> None:
    """One ``worker`` event / metric series per eval block."""
    for stats in telemetry:
        if reporter is not None:
            # ``scorer`` lets check_run_health.py refuse comparisons
            # that mix candidate-scorer strategies.
            reporter.emit(
                "worker",
                scope="eval",
                worker=stats["worker"],
                shards=stats["shards"],
                seconds=stats["seconds"],
                pid=stats["pid"],
                queries=stats["queries"],
                scorer=stats["scorer"],
            )
        if registry is not None:
            labels = {"scope": "eval", "worker": str(stats["worker"])}
            registry.counter(
                "parallel_worker_shards_total",
                help="shards processed per parallel worker",
            ).inc(stats["shards"], **labels)
            registry.gauge(
                "parallel_worker_seconds",
                help="wall-clock seconds spent per parallel worker",
            ).set(stats["seconds"], **labels)
