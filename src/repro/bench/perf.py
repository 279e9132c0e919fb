"""Perf benchmarks: one spec table, one measure path, one gate.

Each :class:`Benchmark` in :data:`BENCHMARKS` pairs a measuring
function — it only measures and returns a result dict — with what the
shared tail needs: the gauges it exports, the result fields that make a
like-with-like ledger series, the fields that ride along in a ledger
entry, and a tolerance per committed-budget figure.

* :func:`run_benchmark` is the one measure path: measure, then gauges,
  then one ``BENCH_history.jsonl`` entry.
* :func:`gate` is the one perf gate.  The candidate (min over repeats)
  is checked against every reference that exists for its series: the
  committed budget in ``benchmarks/baseline.json`` (``baseline x
  tolerance`` per figure) and the min-of-window ledger floor
  (:func:`~repro.bench.history.detect_regression`).  Both go through
  :func:`~repro.bench.history.compare`.

``python -m repro.cli bench --component NAME [--history H] --gate``
drives both; CI runs every perf check that way.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.history import (
    KEY_FULL,
    RegressionVerdict,
    append_entry,
    compare,
    detect_regression,
    make_entry,
)
from repro.bench.runner import (
    BENCH_PROFILES,
    bench_dataset,
    build_retia_config,
    revealed_model,
)
from repro.core import RETIA
from repro.obs import MetricsRegistry, tracing

#: The committed budgets, one entry per benchmark that has one.  Read
#: from the source checkout, like the ``benchmarks/`` suite beside it.
BASELINE_PATH = Path(__file__).resolve().parents[3] / "benchmarks" / "baseline.json"

#: Timed steps of the recurrent-cell micro-benchmark, after untimed warmup.
CELL_STEPS = 50
CELL_WARMUP_STEPS = 5
#: Candidate scorer of the large-vocabulary benchmark when none is given.
SCALE_SCORER = "blocked:128:8192"


def _nap(seconds: float) -> None:
    if seconds > 0:
        time.sleep(seconds)


def _train_snapshots(dataset) -> list:
    """Every non-empty training snapshot after the first (one step each)."""
    snapshots = (dataset.train.snapshot(int(t)) for t in dataset.train.timestamps[1:])
    return [s for s in snapshots if not s.is_empty]


def _training_model(dataset_name: str, seed: int, dtype: str, warm_cache: bool):
    """A training-mode RETIA after one untimed warmup epoch."""
    dataset = bench_dataset(dataset_name)
    profile = BENCH_PROFILES[dataset_name]
    model = RETIA(build_retia_config(dataset, profile, seed=seed, dtype=dtype))
    model.set_history(dataset.train)
    model.train()
    snapshots = _train_snapshots(dataset)
    if warm_cache:
        model.snapshot_cache.warm(dataset.train.snapshots())
    for snapshot in snapshots:
        joint, _, _ = model.loss_on_snapshot(snapshot)
        joint.backward()
    return model, snapshots


def _timed_training_steps(model, snapshots, per_step_sleep: float) -> Tuple[float, Dict]:
    """Wall-clock and traced phases of one loss + backward per snapshot."""
    timer = tracing.PhaseTimer()
    start = time.perf_counter()
    with tracing.collect(timer):
        for snapshot in snapshots:
            joint, _, _ = model.loss_on_snapshot(snapshot)
            joint.backward()
            _nap(per_step_sleep)
    return time.perf_counter() - start, timer.summary()


def _slow_ranking(model, per_step_sleep: float) -> None:
    """Sleep before every ranking call: the injected-fault drill."""
    if per_step_sleep <= 0:
        return
    inner = model.rank_entities

    def slowed(*args, **kwargs):
        time.sleep(per_step_sleep)
        return inner(*args, **kwargs)

    model.rank_entities = slowed


def measure_encoder(
    dataset_name: str = "ICEWS14",
    seed: int = 0,
    dtype: str = "float64",
    warm_cache: bool = False,
    per_step_sleep: float = 0.0,
) -> Dict:
    """Time RETIA training steps with a per-phase encoder breakdown.

    Two quantities per training timestamp, both after one untimed
    warmup epoch (so measured steps see a warm
    :class:`~repro.graph.SnapshotCache`): ``encoder_seconds_per_step``
    times one ``evolve`` pass over the history window with gradient
    recording (the Eq. 1/4 message passing), and ``seconds_per_step``
    the full training batch (``loss_on_snapshot`` + ``backward``).  The
    phase breakdown comes from the :mod:`repro.obs.tracing` spans inside
    the model.  ``warm_cache`` also prebuilds every snapshot's artifacts
    via :meth:`SnapshotCache.warm` before the warmup epoch.

    ``per_step_sleep`` sleeps that many seconds in every timed step — a
    deterministic fault that proves the gates fire.
    """
    model, snapshots = _training_model(dataset_name, seed, dtype, warm_cache)
    encoder_start = time.perf_counter()
    for snapshot in snapshots:
        model.evolve(model.history_before(snapshot.time))
        _nap(per_step_sleep)
    encoder_total = time.perf_counter() - encoder_start
    total, phases = _timed_training_steps(model, snapshots, per_step_sleep)

    steps = max(1, len(snapshots))
    return {
        "dataset": dataset_name,
        "steps": len(snapshots),
        "dtype": model.config.dtype,
        "encoder_seconds_per_step": encoder_total / steps,
        "total_seconds": total,
        "seconds_per_step": total / steps,
        "phases": phases,
        "cache": {
            "warmed": warm_cache,
            "entries": len(model.snapshot_cache),
            "hits": model.snapshot_cache.hits,
            "misses": model.snapshot_cache.misses,
        },
    }


def measure_decoder(
    dataset_name: str = "ICEWS14",
    seed: int = 0,
    dtype: str = "float64",
    warm_cache: bool = False,
    per_step_sleep: float = 0.0,
) -> Dict:
    """Time the Conv-TransE decode + time-variability loss per step.

    The other half of the training step from :func:`measure_encoder`.
    ``decoder_seconds_per_step`` times the Eq. 11–14 forward — the
    per-snapshot ``(subj, rel)``/``(subj, obj)`` gathers, Conv-TransE
    queries, candidate scoring softmaxes and the summed-probability
    NLLs — over pre-evolved embedding stacks (the encoder runs untimed,
    with gradients recorded so the decode cost includes tape building).
    ``seconds_per_step`` times the full training batch (loss +
    backward), the headline the full-step budget gates on.
    """
    from repro.nn import losses

    model, snapshots = _training_model(dataset_name, seed, dtype, warm_cache)
    # Pre-evolve each step's embedding stacks so the timed loop isolates
    # the decode.  Queries mirror loss_on_snapshot exactly.
    m = model.config.num_relations
    prepared = []
    for snapshot in snapshots:
        entity_list, relation_list = model.evolve(model.history_before(snapshot.time))
        s, r, o = snapshot.triples[:, 0], snapshot.triples[:, 1], snapshot.triples[:, 2]
        queries = np.concatenate([np.stack([s, r], axis=1), np.stack([o, r + m], axis=1)])
        entity_targets = np.concatenate([o, s])
        pairs = np.stack([s, o], axis=1)
        prepared.append((entity_list, relation_list, queries, entity_targets, pairs, r))

    decoder_start = time.perf_counter()
    for entity_list, relation_list, queries, entity_targets, pairs, r in prepared:
        with model._dtype_policy:
            entity_probs = model._entity_probabilities(entity_list, relation_list, queries)
            losses.nll_of_summed_probs(entity_probs, entity_targets)
            relation_probs = model._relation_probabilities(entity_list, relation_list, pairs)
            losses.nll_of_summed_probs(relation_probs, r)
        _nap(per_step_sleep)
    decoder_total = time.perf_counter() - decoder_start
    del prepared
    total, phases = _timed_training_steps(model, snapshots, per_step_sleep)

    steps = max(1, len(snapshots))
    return {
        "dataset": dataset_name,
        "steps": len(snapshots),
        "dtype": model.config.dtype,
        "decoder_seconds_per_step": decoder_total / steps,
        "total_seconds": total,
        "seconds_per_step": total / steps,
        "phases": phases,
    }


def measure_cell(
    dataset_name: str = "ICEWS14",
    seed: int = 0,
    dtype: str = "float64",
    per_step_sleep: float = 0.0,
) -> Dict:
    """Micro-benchmark the encoder recurrences at model shapes.

    One "step" runs every recurrent cell a RETIA encoder step runs —
    the EAM R-GRU over the ``(N, d)`` entity matrix, the RAM R-GRU over
    ``(2M, d)`` relations, and the TIM relation/hyperrelation LSTMs over
    their ``2d``-wide inputs — forward plus backward, isolating the cell
    cost from message passing and decode.  ``cell_seconds_per_step`` is
    the per-step time of the fused :func:`F.gru_cell`/:func:`F.lstm_cell`
    kernels, the figure the gate holds.
    """
    from repro.autograd import DtypePolicy, Tensor
    from repro.graph import NUM_HYPERRELATIONS
    from repro.nn import GRUCell, LSTMCell

    dataset = bench_dataset(dataset_name)
    n, m, d = dataset.num_entities, dataset.num_relations, BENCH_PROFILES[dataset_name].dim
    hyp = NUM_HYPERRELATIONS

    with DtypePolicy(dtype):
        rng = np.random.default_rng(seed)
        cells = [
            # (cell, input batch shape) per encoder recurrence
            (GRUCell(d, d, rng=rng), (n, d)),  # EAM entity R-GRU
            (GRUCell(d, d, rng=rng), (2 * m, d)),  # RAM relation R-GRU
            (LSTMCell(2 * d, d, rng=rng), (2 * m, 2 * d)),  # TIM relation LSTM
            (LSTMCell(2 * d, d, rng=rng), (2 * hyp, 2 * d)),  # TIM hyper LSTM
        ]
        resolved = np.dtype(dtype)
        batches = []
        for cell, (batch, width) in cells:
            x = Tensor(rng.standard_normal((batch, width)).astype(resolved))
            h = Tensor(rng.standard_normal((batch, cell.hidden_size)).astype(resolved))
            c = Tensor(rng.standard_normal((batch, cell.hidden_size)).astype(resolved))
            batches.append((cell, x, h, c))

        def one_step() -> None:
            loss = None
            for cell, x, h, c in batches:
                if isinstance(cell, LSTMCell):
                    out, _ = cell(x, (h, c))
                else:
                    out = cell(x, h)
                term = out.sum()
                loss = term if loss is None else loss + term
            loss.backward()
            for cell, _, _, _ in batches:
                for param in cell.parameters():
                    param.grad = None

        for _ in range(CELL_WARMUP_STEPS):
            one_step()
        start = time.perf_counter()
        for _ in range(CELL_STEPS):
            one_step()
            _nap(per_step_sleep)
        per_step = (time.perf_counter() - start) / CELL_STEPS

    return {
        "dataset": dataset_name,
        "steps": CELL_STEPS,
        "dtype": resolved.name,
        "cell_seconds_per_step": per_step,
        "seconds_per_step": per_step,
    }


def measure_eval(
    dataset_name: str = "YAGO",
    seed: int = 0,
    dtype: str = "float64",
    workers: int = 1,
    per_step_sleep: float = 0.0,
    registry: Optional[MetricsRegistry] = None,
) -> Dict:
    """Time the full evaluation protocol at a given worker count.

    Runs :func:`~repro.parallel.evaluate_extrapolation_sharded` over the
    test split (``observe=True``, both tasks) against an untrained
    :func:`~repro.bench.runner.revealed_model` — scoring cost depends on
    history shape and embedding sizes, not parameter values — and
    reports ``eval_seconds_per_step`` (wall-clock per test timestamp)
    plus the MRRs, which must be identical across worker counts
    (``scripts/check_parallel_equivalence.py`` gates on it).  ``cpus``
    records the cores available so a speedup gate can tell "no parallel
    win" from "no parallel hardware".  ``per_step_sleep`` sleeps before
    every ranking call inside the workers.
    """
    from repro.parallel import evaluate_extrapolation_sharded

    dataset, model = revealed_model(dataset_name, seed=seed, dtype=dtype)
    _slow_ranking(model, per_step_sleep)
    start = time.perf_counter()
    result_eval = evaluate_extrapolation_sharded(
        model, dataset.test, workers=workers, registry=registry
    )
    total = time.perf_counter() - start

    steps = max(1, len(dataset.test.timestamps))
    return {
        "dataset": dataset_name,
        "steps": len(dataset.test.timestamps),
        "dtype": model.config.dtype,
        "workers": workers,
        "cpus": os.cpu_count() or 1,
        "eval_seconds_per_step": total / steps,
        "total_seconds": total,
        "seconds_per_step": total / steps,
        "entity_mrr": result_eval.entity.get("MRR"),
        "relation_mrr": result_eval.relation.get("MRR"),
    }


def _peak_rss_mb() -> float:
    """Lifetime peak RSS of this process and its reaped children, in MB.

    ``ru_maxrss`` is a high-water mark that cannot be reset, and the
    blocked-scorer allocations of a sharded eval happen in fork-pool
    workers — so the honest figure is the max over SELF and CHILDREN,
    read *after* the measured phase.
    """
    import resource

    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    # Linux reports kilobytes; macOS reports bytes.
    if sys.platform == "darwin":
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def measure_scale(
    dataset_name: str = "ICEWS-SCALE",
    seed: int = 0,
    dtype: str = "float64",
    workers: int = 2,
    scorer: Optional[str] = None,
    per_step_sleep: float = 0.0,
    registry: Optional[MetricsRegistry] = None,
) -> Dict:
    """Time large-vocabulary eval through the memmap + blocked-scorer path.

    The honest large-N serving shape (DESIGN.md §9): evolve the history
    window *once*, spill the evolved entity/relation stacks to ``.npy``
    tables (:class:`repro.scale.EmbeddingStore` memmaps), then run the
    sharded evaluation protocol against a
    :class:`repro.scale.FrozenWindowModel` whose candidate scoring
    streams blocks off the tables (``scorer``, default
    :data:`SCALE_SCORER`).  The full ``(queries, entities)`` score
    matrix never exists, so peak RSS stays bounded while the entity
    axis grows; ``scale_seconds_per_step`` and ``peak_rss_mb`` (self +
    pool children) are the budgeted figures.

    Relation-task scoring is skipped: its candidate axis is M, not N,
    and it would only add encoder-shaped noise to an entity-axis gate.
    """
    from repro.parallel import evaluate_extrapolation_sharded
    from repro.scale import FrozenWindowModel, get_scorer

    dataset, model = revealed_model(dataset_name, seed=seed, dtype=dtype)
    strategy = get_scorer(scorer or SCALE_SCORER)
    with tempfile.TemporaryDirectory(prefix="repro-scale-") as spill_dir:
        freeze_start = time.perf_counter()
        frozen = FrozenWindowModel.freeze(
            model, int(dataset.test.timestamps[0]), spill_dir=spill_dir, scorer=strategy
        )
        freeze_seconds = time.perf_counter() - freeze_start
        del model  # the encoder is out of the loop from here on
        _slow_ranking(frozen, per_step_sleep)

        start = time.perf_counter()
        result_eval = evaluate_extrapolation_sharded(
            frozen,
            dataset.test,
            evaluate_relations=False,
            workers=workers,
            registry=registry,
        )
        total = time.perf_counter() - start
        peak_rss_mb = _peak_rss_mb()

    steps = max(1, len(dataset.test.timestamps))
    return {
        "dataset": dataset_name,
        "steps": len(dataset.test.timestamps),
        "dtype": dtype,
        "workers": workers,
        "cpus": os.cpu_count() or 1,
        "entities": dataset.num_entities,
        "scorer": frozen.scorer.spec(),
        "freeze_seconds": freeze_seconds,
        "scale_seconds_per_step": total / steps,
        "total_seconds": total,
        "seconds_per_step": total / steps,
        "peak_rss_mb": peak_rss_mb,
        "entity_mrr": result_eval.entity.get("MRR"),
    }


def measure_serve(
    dataset_name: str = "ICEWS14",
    seed: int = 0,
    dtype: str = "float64",
    chaos: bool = False,
    per_step_sleep: float = 0.0,
    registry: Optional[MetricsRegistry] = None,
) -> Dict:
    """Boot a server on an untrained revealed model, run the loadgen, drain.

    Serving cost depends on history shape and embedding sizes, not
    parameter values (as for :func:`measure_eval`).  ``chaos=True`` arms
    :func:`~repro.serve.default_chaos_plan` and, after the workload,
    demonstrates half-open recovery; ``per_step_sleep`` stalls every
    decoder micro-batch through the fault plan's slow-batch hook.  The
    result carries the SLO figures — p50/p99/mean OK-query latency,
    achieved QPS, shed rate, availability — from
    :func:`~repro.serve.summarize_responses`.
    """
    from repro.core import TrainerConfig
    from repro.core.trainer import OnlineAdapter
    from repro.resilience import ServeFaultInjector
    from repro.serve import (
        STATE_CLOSED,
        LoadgenConfig,
        ModelServer,
        ServeConfig,
        default_chaos_plan,
        run_loadgen,
        summarize_responses,
    )

    dataset, model = revealed_model(dataset_name, seed=seed, dtype=dtype)
    adapter = OnlineAdapter(model, TrainerConfig(online_steps=1, online_lr=1e-3, seed=seed))
    fault_injector = default_chaos_plan() if chaos else None
    if per_step_sleep > 0:
        fault_injector = fault_injector or ServeFaultInjector()
        fault_injector.slow_batch_every = 1
        fault_injector.slow_batch_seconds = per_step_sleep
    config = ServeConfig(
        max_batch=32,
        max_queue=128,
        default_deadline_ms=500.0,
        refresh_attempts=3,
        refresh_backoff_ms=5.0,
        breaker_failure_threshold=3,
        breaker_recovery_ms=50.0,
        seed=seed,
    )
    server = ModelServer(
        model, adapter=adapter, config=config, registry=registry, fault_injector=fault_injector
    )
    test_times = [int(t) for t in dataset.test.timestamps]
    server.start(ts=test_times[0])
    ingest_snapshots = [dataset.test.snapshot(t) for t in test_times]
    load = LoadgenConfig(seed=seed)
    start = time.perf_counter()
    responses = run_loadgen(
        server,
        dataset.num_entities,
        dataset.num_relations,
        ingest_snapshots=ingest_snapshots,
        config=load,
    )
    wall = time.perf_counter() - start
    recovered = None
    if chaos:
        # Deterministic half-open recovery demonstration: wait out the
        # breaker's recovery window, then send one clean probe ingest.
        # If the drill left the breaker open this drives
        # open → half-open → closed; if it already closed, the probe is
        # an ordinary accepted ingest and recovery still holds.
        time.sleep(config.breaker_recovery_ms / 1000.0 + 0.01)
        server.ingest(ingest_snapshots[-1])
        recovered = server.breaker.state == STATE_CLOSED
    result = {
        "dataset": dataset_name,
        "dtype": model.config.dtype,
        "chaos": chaos,
        "steps": load.requests,
        "offered_qps": load.qps,
        "total_seconds": wall,
        "breaker": server.breaker.snapshot(),
        "breaker_recovered": recovered,
        "store": server.store.describe(),
    }
    result.update(summarize_responses(responses, wall))
    if fault_injector is not None:
        result["faults"] = fault_injector.summary()
    result["clean_drain"] = server.drain()
    return result


@dataclass(frozen=True)
class Benchmark:
    """One perf benchmark: how to measure it and how to record and gate it.

    ``key`` is the figure the ledger floor gates on.  ``budget`` maps
    each figure gated against ``benchmarks/baseline.json`` to its
    allowed factor over the committed value.  ``series`` names the
    result fields that make a like-with-like series (gauge labels,
    ledger filter, baseline match); ``extras`` ride along in the ledger
    entry.  ``gauges`` are ``(metric, result field, help)`` triples (a
    dotted field reads a nested dict).  ``options`` lists the keyword
    arguments ``measure`` takes beyond ``(dataset, seed, dtype)``.
    """

    name: str
    measure: Callable[..., Dict]
    key: str
    series: Tuple[str, ...]
    extras: Tuple[str, ...] = ()
    gauges: Tuple[Tuple[str, str, str], ...] = ()
    budget: Dict[str, float] = field(default_factory=dict)
    options: Tuple[str, ...] = ()


_STEP_GAUGE = ("train_seconds_per_step", KEY_FULL, "full training step (loss + backward)")

BENCHMARKS: Dict[str, Benchmark] = {
    spec.name: spec
    for spec in (
        Benchmark(
            name="encoder",
            measure=measure_encoder,
            key="encoder_seconds_per_step",
            series=("dataset", "dtype"),
            gauges=(
                (
                    "encoder_seconds_per_step",
                    "encoder_seconds_per_step",
                    "one traced evolve() pass per training step",
                ),
                _STEP_GAUGE,
                ("snapshot_cache_hits", "cache.hits", "SnapshotCache hits over the run"),
                ("snapshot_cache_misses", "cache.misses", "SnapshotCache misses over the run"),
            ),
            budget={"encoder_seconds_per_step": 2.0},
            options=("warm_cache", "per_step_sleep"),
        ),
        Benchmark(
            name="decoder",
            measure=measure_decoder,
            key="decoder_seconds_per_step",
            series=("dataset", "dtype"),
            gauges=(
                (
                    "decoder_seconds_per_step",
                    "decoder_seconds_per_step",
                    "one Eq. 11-14 decode + loss forward per training step",
                ),
                _STEP_GAUGE,
            ),
            budget={"decoder_seconds_per_step": 2.0, KEY_FULL: 2.0},
            options=("warm_cache", "per_step_sleep"),
        ),
        Benchmark(
            name="cell",
            measure=measure_cell,
            key="cell_seconds_per_step",
            series=("dataset", "dtype"),
            gauges=(
                (
                    "cell_seconds_per_step",
                    "cell_seconds_per_step",
                    "all encoder recurrent cells, forward+backward, fused path",
                ),
            ),
            budget={"cell_seconds_per_step": 2.0},
            options=("per_step_sleep",),
        ),
        Benchmark(
            name="eval",
            measure=measure_eval,
            key="eval_seconds_per_step",
            series=("dataset", "dtype", "workers"),
            extras=("cpus",),
            gauges=(
                (
                    "eval_seconds_per_step",
                    "eval_seconds_per_step",
                    "full evaluation protocol wall-clock per test timestamp",
                ),
            ),
            options=("workers", "per_step_sleep", "registry"),
        ),
        Benchmark(
            name="scale",
            measure=measure_scale,
            key="scale_seconds_per_step",
            series=("dataset", "dtype", "workers", "scorer"),
            extras=("cpus", "entities", "peak_rss_mb"),
            gauges=(
                (
                    "scale_seconds_per_step",
                    "scale_seconds_per_step",
                    "large-vocabulary memmap eval wall-clock per test timestamp",
                ),
                (
                    "scale_peak_rss_mb",
                    "peak_rss_mb",
                    "peak RSS (self + pool children) over the memmap eval",
                ),
            ),
            budget={"scale_seconds_per_step": 3.0, "peak_rss_mb": 1.5},
            options=("workers", "scorer", "per_step_sleep", "registry"),
        ),
        # Serve gates on the *mean* OK-query latency: it is dominated by
        # micro-batch compute and repeats within a few percent, whereas
        # p50/p99 of an open-loop drill are order statistics of ~100
        # samples and swing 1.4x run to run.  They ride along instead.
        Benchmark(
            name="serve",
            measure=measure_serve,
            key="serve_mean_seconds",
            series=("dataset", "dtype", "chaos"),
            extras=(
                "offered_qps",
                "qps",
                "availability",
                "shed_rate",
                "serve_p50_seconds",
                "serve_p99_seconds",
            ),
            gauges=(
                ("serve_p50_seconds", "serve_p50_seconds", "median query latency"),
                ("serve_p99_seconds", "serve_p99_seconds", "tail query latency"),
                ("serve_qps", "qps", "achieved requests per second"),
                ("serve_availability", "availability", "OK responses over non-shed requests"),
                ("serve_shed_rate", "shed_rate", "shed responses over all requests"),
            ),
            options=("chaos", "per_step_sleep", "registry"),
        ),
    )
}


class BenchError(ValueError):
    """An unknown benchmark, or a committed budget that cannot be used."""


def get_benchmark(name: str) -> Benchmark:
    """The spec called ``name``; unknown names raise, never fall back."""
    if name not in BENCHMARKS:
        known = ", ".join(sorted(BENCHMARKS))
        raise BenchError(f"unknown benchmark {name!r}; known: {known}")
    return BENCHMARKS[name]


def series_of(spec: Benchmark, result: Dict) -> Dict:
    """The like-with-like series a result belongs to."""
    return {name: result[name] for name in spec.series}


def _labels(spec: Benchmark, result: Dict) -> Dict[str, str]:
    return {name: str(value) for name, value in series_of(spec, result).items()}


def record_gauges(spec: Benchmark, registry: MetricsRegistry, result: Dict) -> None:
    """Write one result into ``registry``, labeled by its series."""
    labels = _labels(spec, result)
    for metric, path, help_text in spec.gauges:
        value = reduce(lambda node, part: node[part], path.split("."), result)
        registry.gauge(metric, help=help_text).set(value, **labels)
    steps = registry.counter("bench_steps_total", help="timed steps per benchmark run")
    steps.inc(result["steps"], **labels)
    for phase_name, stats in result.get("phases", {}).items():
        registry.gauge("phase_seconds", help="per-phase wall-clock over the timed loop").set(
            stats["seconds"], phase=phase_name, **labels
        )


def run_benchmark(
    name: str,
    dataset_name: str,
    seed: int = 0,
    dtype: str = "float64",
    registry: Optional[MetricsRegistry] = None,
    history: Optional[str] = None,
    **options,
) -> Dict:
    """Measure once, then record: gauges into ``registry``, one ledger entry.

    ``options`` may hold any benchmark's keywords (``warm_cache``,
    ``workers``, ``scorer``, ``chaos``, ``per_step_sleep``); each spec
    takes the ones it lists.  ``registry`` is also handed to the
    measurement when it instruments its own internals (eval, scale,
    serve).
    """
    spec = get_benchmark(name)
    options["registry"] = registry
    taken = {key: value for key, value in options.items() if key in spec.options}
    result = spec.measure(dataset_name, seed=seed, dtype=dtype, **taken)
    if registry is not None:
        record_gauges(spec, registry, result)
    if history is not None:
        sleep = taken.get("per_step_sleep")
        extra = {"injected_sleep": sleep} if sleep else None
        append_entry(history, make_entry(result, name=name, extra=extra))
    return result


def read_baseline() -> Dict:
    """Every committed budget; a missing or unreadable file raises."""
    try:
        baseline = json.loads(BASELINE_PATH.read_text())
    except FileNotFoundError:
        raise BenchError(
            f"baseline file {BASELINE_PATH} is missing; restore it from a "
            "known-good checkout"
        ) from None
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"baseline file {BASELINE_PATH} is unreadable: {exc}") from None
    if not isinstance(baseline, dict):
        raise BenchError(f"baseline file {BASELINE_PATH} must map benchmarks to budgets")
    return baseline


def _committed(spec: Benchmark, baseline: Dict) -> Dict:
    """The committed budget entry of ``spec``; missing keys raise."""
    entry = baseline.get(spec.name)
    if not isinstance(entry, dict):
        raise BenchError(f"baseline file has no {spec.name!r} entry")
    missing = [key for key in (*spec.series, *spec.budget) if key not in entry]
    if missing:
        raise BenchError(f"baseline {spec.name!r} entry lacks required keys {missing}")
    return entry


def _best(results: Sequence[Dict], key: str) -> float:
    return min(float(r[key]) for r in results)


def _budget_verdicts(
    spec: Benchmark, results: Sequence[Dict], registry: Optional[MetricsRegistry]
) -> List[RegressionVerdict]:
    candidate = _best(results, spec.key)
    try:
        committed = _committed(spec, read_baseline())
    except BenchError as exc:
        return [RegressionVerdict(True, f"no usable budget: {exc}", candidate, None, None, 0)]
    series = series_of(spec, results[0])
    if any(committed[name] != value for name, value in series.items()):
        reason = f"no committed {spec.name} budget for series {series}"
        return [RegressionVerdict(False, reason, candidate, None, None, 0)]
    verdicts = []
    for key, tolerance in spec.budget.items():
        reference = float(committed[key])
        verdicts.append(compare(key, _best(results, key), reference, tolerance, "committed budget"))
        if registry is not None:
            limit = registry.gauge("bench_budget", help="committed figure x tolerance")
            limit.set(reference * tolerance, figure=key, **_labels(spec, results[0]))
    return verdicts


def gate(
    spec: Benchmark,
    results: Sequence[Dict],
    entries: Optional[List[dict]] = None,
    registry: Optional[MetricsRegistry] = None,
) -> List[RegressionVerdict]:
    """Check a candidate against every reference that exists for its series.

    ``results`` are the repeats of one run; each figure's candidate is
    its min over them.  A spec with a ``budget`` is held to its entry in
    ``baseline.json`` — unless that entry is for another series, which
    leaves nothing to hold this run to.  A missing or unreadable
    baseline, entry or key is a failing verdict, never a pass.
    ``entries`` (the ledger, when given) adds the min-of-window floor on
    ``spec.key``; a series with no entries passes and seeds it.
    """
    verdicts = _budget_verdicts(spec, results, registry) if spec.budget else []
    if entries is not None:
        candidate = _best(results, spec.key)
        series = series_of(spec, results[0])
        verdicts.append(detect_regression(entries, candidate, name=spec.name, **series))
    return verdicts


def update_baseline(spec: Benchmark, results: Sequence[Dict]) -> Dict:
    """Rewrite the committed figures of ``spec`` from ``results``.

    Only the budgeted figures change; the series fields and ``notes``
    stay as committed.  A run of another series is refused, so a
    float32 measurement never overwrites a float64 budget.
    """
    if not spec.budget:
        raise BenchError(f"benchmark {spec.name!r} has no committed budget")
    baseline = read_baseline()
    entry = _committed(spec, baseline)
    series = series_of(spec, results[0])
    committed = {name: entry[name] for name in spec.series}
    if committed != series:
        raise BenchError(f"run series {series} differs from the committed {committed}")
    for key in spec.budget:
        entry[key] = _best(results, key)
    BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")
    return entry
