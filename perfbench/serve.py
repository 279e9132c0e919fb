"""``serve-read`` and ``serve-mixed``: ``ModelServer`` under an open-loop schedule.

Both workloads boot a server (default decode path, no scorer) on the
ICEWS14 surrogate (as ``train-surrogate`` builds it) with the training
split as history, then
send the same seeded Poisson schedule of ``score``/``topk`` reads.
``serve-mixed`` adds periodic ``ingest`` calls that reveal the
validation and test snapshots; ``serve-read`` sends none, so it is the
control in which the model never changes.
"""

from __future__ import annotations

import time
from typing import Dict

import numpy as np

from perfbench.common import RunResult, build_model, more_setups, nproc, per, phase
from perfbench.openloop import read_schedule, run_open_loop, with_ingests
from perfbench.spans import SpanTable
from perfbench.stats import median, tail
from perfbench.train import SURROGATE, step_rows, surrogate_dataset

#: Offered read rate (requests per second).
RATE = 100.0

#: Reads slower than this, and refused reads, miss the latency limit.
LATENCY_LIMIT_MS = 250.0

#: Every n-th request's scores are kept for the bitwise check.
CHECK_EVERY = 20

#: Longest wait for the store to publish the last ingest (seconds).
CATCH_UP_S = 5.0


def client_threads() -> int:
    return nproc()


def _setup(seed: int):
    """Data generation, model build, cache warm-up and server boot."""
    from repro.core import TrainerConfig
    from repro.core.trainer import OnlineAdapter
    from repro.serve import ModelServer, ServeConfig

    dataset = surrogate_dataset(seed)
    model = build_model(dataset, SURROGATE.dim, SURROGATE.history_length, SURROGATE.num_kernels, seed)
    model.set_history(dataset.train)
    model.eval()
    adapter = OnlineAdapter(model, TrainerConfig(online_steps=1, online_lr=1e-3, seed=seed))
    server = ModelServer(model, adapter=adapter, config=ServeConfig(seed=seed))
    # ``start`` warms the snapshot cache over the history window and
    # publishes the first snapshot.
    server.start(ts=int(dataset.valid.timestamps[0]))
    return dataset, model, server


def _catch_up(server, timeout: float) -> None:
    """Wait until the store has published every accepted ingest."""
    deadline = time.perf_counter() + timeout
    while server.store.staleness > 0 and time.perf_counter() < deadline:
        time.sleep(0.001)


def _freshness_ms(outcomes) -> list:
    """Per accepted ingest: ms until a read is answered from a newer snapshot.

    "Newer" means a ``snapshot_version`` above the newest one any read
    had been answered from when the ingest was sent.
    """
    reads = [o for o in outcomes if o.request.kind != "ingest" and o.status == 200]
    samples = []
    for ingest in (o for o in outcomes if o.request.kind == "ingest" and o.status == 200):
        before = max((r.version for r in reads if r.done <= ingest.sent), default=0)
        after = [r.done for r in reads if r.done >= ingest.done and r.version > before]
        if after:
            samples.append(1000.0 * (min(after) - ingest.done))
    return samples


def run(mixed: bool, seed: int, seconds: float, tracer=None, single: bool = False) -> RunResult:
    """One open-loop phase of ``seconds``, after set-up repeated for its median."""
    result = RunResult()
    while True:
        with phase(tracer, "phase.setup"):
            start = time.perf_counter()
            dataset, model, server = _setup(seed)
            result.setup_s.append(time.perf_counter() - start)
        if single or not more_setups(result.setup_s):
            break
        server.drain()

    reveal = [dataset.valid.snapshot(int(t)) for t in dataset.valid.timestamps]
    reveal += [dataset.test.snapshot(int(t)) for t in dataset.test.timestamps]
    reveal = [s for s in reveal if not s.is_empty]
    rng = np.random.default_rng(seed)
    schedule = read_schedule(rng, RATE, seconds, dataset.num_entities, dataset.num_relations)
    if mixed:
        schedule = with_ingests(schedule, len(reveal), seconds)
    cache = model.snapshot_cache
    hits, misses = cache.hits, cache.misses
    try:
        with phase(tracer, "phase.serve"):
            start = time.perf_counter()
            outcomes = run_open_loop(
                server,
                schedule,
                reveal,
                threads=client_threads(),
                keep_scores=lambda index: index % CHECK_EVERY == 0,
            )
            _catch_up(server, CATCH_UP_S)
            result.job_s.append(time.perf_counter() - start)
    finally:
        drained = server.drain()
    result.check("server drained cleanly", drained)
    result.check("store caught up with every ingest", server.store.staleness == 0)

    reads = [o for o in outcomes if o.request.kind != "ingest"]
    ingests = [o for o in outcomes if o.request.kind == "ingest"]
    ok_reads = [o for o in reads if o.status == 200]
    result.op_ms = [o.latency_ms for o in reads]
    result.attempted = len(outcomes)
    result.failed = sum(o.failed for o in outcomes)
    statuses: Dict[int, int] = {}
    for o in outcomes:
        statuses[o.status] = statuses.get(o.status, 0) + 1
    result.check("no request answered 400", 400 not in statuses, f"{statuses}")
    result.check("every ingest accepted", all(o.status == 200 for o in ingests), f"{statuses}")

    kept = [o for o in ok_reads if o.scores is not None]
    if mixed:
        result.check("kept scores finite", all(np.all(np.isfinite(o.scores)) for o in kept))
    else:
        # No ingests: parameters never change, so every served score
        # must equal a fresh ``predict_entities`` bit for bit.
        ts = int(dataset.valid.timestamps[0])
        equal = [np.array_equal(o.scores, model.predict_entities(o.request.payload, ts)) for o in kept]
        result.check("served scores == predict_entities", bool(kept) and all(equal), f"{sum(equal)}/{len(kept)}")
    result.identity = {"requests": len(outcomes), "ingests": len(ingests)}

    within = [o for o in ok_reads if o.latency_ms <= LATENCY_LIMIT_MS]
    ingest_ms = [1000.0 * (o.done - o.sent) for o in ingests if o.status == 200]
    fresh = _freshness_ms(outcomes)
    prefix = "mixed" if mixed else "read"
    read_tail = tail(result.op_ms)
    result.named = {
        f"{prefix}_p50_ms": (median(result.op_ms), "ms", len(reads)),
        f"{prefix}_tail_ms": (read_tail["value"], f"ms@p{read_tail['percentile']:.1f}", len(reads)),
        "goodput_rps": (len(within) / seconds, "1/s", len(reads)),
    }
    if mixed:
        result.named["ingest_p50_ms"] = (median(ingest_ms) if ingest_ms else 0.0, "ms", len(ingest_ms))
        result.named["fresh_p50_ms"] = (median(fresh) if fresh else 0.0, "ms", len(fresh))
    result.detail = {
        "statuses": dict(sorted(statuses.items())),
        "outcomes": outcomes,
        "reads": len(reads),
        "ok_reads": len(ok_reads),
        "ingests": len(ingests),
        "cache_hit_frac": per(cache.hits - hits, (cache.hits - hits) + (cache.misses - misses)),
    }
    return result


def layers(table: SpanTable, tracer, result: RunResult) -> Dict[str, float]:
    """Serving rows; with ingests, also the online step's per-layer rows."""
    outcomes = result.detail["outcomes"]
    reads = [o for o in outcomes if o.request.kind != "ingest"]
    ok_reads = [o for o in reads if o.status == 200]
    # Decode, ingest and refresh run on server and client threads, so
    # their spans are selected by time, not by the phase span's subtree.
    window = table.window("phase.serve")
    decodes = table.count(["serve.decode"], window=window)
    captures = table.count(["serve.capture"], window=window)
    ingests = table.count(["eval.observe"], window=window)
    out = {
        "serve.decode_ms": 1000.0 * per(table.total(["serve.decode"], window=window), decodes),
        "serve.queue_wait_p99_ms": tail([o.queued_ms for o in ok_reads])["value"] if ok_reads else 0.0,
        "serve.batch_size_mean": per(len(ok_reads), decodes),
        "serve.observe_ms": 1000.0 * per(table.total(["eval.observe"], window=window), ingests),
        "serve.capture_ms": 1000.0 * per(table.total(["serve.capture"], window=window), captures),
        "core.evolve_nograd_ms": 1000.0 * per(table.total(["core.evolve_nograd"], window=window), captures),
        "serve.staleness_max": float(max((o.staleness for o in outcomes), default=0)),
        "serve.shed_frac": per(sum(o.status == 503 for o in outcomes), len(outcomes)),
        "serve.deadline_frac": per(sum(o.status == 408 for o in outcomes), len(outcomes)),
        "loadgen.late_p99_ms": tail([o.late_ms for o in outcomes])["value"],
        "graph.cache.hit_frac": result.detail["cache_hit_frac"],
    }
    if ingests:
        # Each ingest is one online training step (OnlineAdapter.observe
        # on a client thread, so its spans are roots of their own).
        out.update(step_rows(table, tracer, result, "eval.observe", ingests))
    return out
