"""``eval-large-vocab``: frozen-window memmap eval over 120k entities.

Set-up builds the ``ICEWS-SCALE`` window (120k entities, 250 facts per
snapshot) with the training and validation splits as history.  A repetition freezes the
evolved window into memmap-spilled stores (``FrozenWindowModel.freeze``)
and ranks the test split through ``evaluate_extrapolation_sharded`` with
the exact ``blocked`` scorer on two pool workers.
"""

from __future__ import annotations

import time
from typing import Dict

from perfbench.common import (
    RunResult,
    build_model,
    capped_dataset,
    dir_mb,
    more_setups,
    nproc,
    per,
    phase,
    scratch_dir,
)
from perfbench.spans import SpanTable
from perfbench.stats import median

#: Candidate scorer: exact, streams (query block x candidate block) tiles.
SCORER = "blocked:128:8192"

#: Equal-sized timestamps, so the two test shards carry equal work.
FACTS_PER_SNAPSHOT = 250

#: A deliberately small model: the measured cost is the candidate axis.
MODEL = {"dim": 16, "history_length": 2, "num_kernels": 6}

#: Measured repetitions per untraced run, whatever ``--seconds`` says.
MIN_REPS = 3


def workers() -> int:
    """Two pool workers, fewer on a smaller host (BLAS runs one thread)."""
    return min(2, nproc())


def _setup(seed: int):
    """Data generation, model build and cache warm-up of the history window."""
    from repro.datasets import load_dataset

    dataset = capped_dataset(
        "ICEWS-SCALE", load_dataset("ICEWS-SCALE", seed=seed).graph, FACTS_PER_SNAPSHOT, seed
    )
    model = build_model(dataset, seed=seed, **MODEL)
    model.set_history(dataset.train)
    for ts in dataset.valid.timestamps:
        model.record_snapshot(dataset.valid.snapshot(int(ts)))
    model.eval()
    first_ts = int(dataset.test.timestamps[0])
    model.snapshot_cache.warm(model.history_before(first_ts))
    return dataset, model, first_ts


def _repetition(dataset, model, first_ts: int, tracer) -> RunResult:
    from repro.parallel import evaluate_extrapolation_sharded
    from repro.scale import FrozenWindowModel, get_scorer

    result = RunResult()
    # Every repetition re-evolves the window instead of reusing the
    # model's prediction cache.
    model.mark_updated()
    cache = model.snapshot_cache
    hits, misses = cache.hits, cache.misses
    with scratch_dir("spill-") as spill, phase(tracer, "phase.eval"):
        start = time.perf_counter()
        frozen = FrozenWindowModel.freeze(model, first_ts, spill_dir=spill, scorer=get_scorer(SCORER))
        frozen_at = time.perf_counter()
        evaluated = evaluate_extrapolation_sharded(
            frozen, dataset.test, evaluate_relations=False, workers=workers()
        )
        end = time.perf_counter()
        spill_mb = dir_mb(spill)
    shards = len(dataset.test.timestamps)
    result.op_ms.append(1000.0 * (end - frozen_at))
    result.job_s.append(end - start)
    result.attempted = shards
    result.identity = {"entity_mrr": evaluated.entity["MRR"], "queries": evaluated.entity.get("count")}
    lookups = (cache.hits - hits) + (cache.misses - misses)
    result.detail = {
        "freeze_s": frozen_at - start,
        "spill_mb": spill_mb,
        "shards": shards,
        "cache_hit_frac": per(cache.hits - hits, lookups),
    }
    return result


def run(seed: int, seconds: float, tracer=None, single: bool = False) -> RunResult:
    """Repeat freeze + sharded eval until ``seconds`` have passed (once when ``single``)."""
    from repro.parallel import ShardedEvalError

    total = RunResult()
    while not total.setup_s or (not single and more_setups(total.setup_s)):
        with phase(tracer, "phase.setup"):
            start = time.perf_counter()
            dataset, model, first_ts = _setup(seed)
            total.setup_s.append(time.perf_counter() - start)

    # A first repetition warms the page cache and the allocator; it is
    # printed as ``first_eval_s`` and kept out of the samples.
    warmup, reps = None, []
    try:
        if not single:
            warmup = _repetition(dataset, model, first_ts, tracer)
        deadline = time.perf_counter() + seconds
        while not reps or (not single and (len(reps) < MIN_REPS or time.perf_counter() < deadline)):
            reps.append(_repetition(dataset, model, first_ts, tracer))
    except ShardedEvalError as exc:
        shards = len(dataset.test.timestamps)
        total.attempted += shards
        total.failed += shards
        total.check("sharded eval completed", False, str(exc))
        return total
    for rep in reps:
        total.add(rep)
    total.identity, total.detail = reps[0].identity, reps[0].detail
    others = [rep.identity for rep in reps[1:] + ([warmup] if warmup else [])]
    total.check("repetitions identical", all(i == total.identity for i in others), f"{others}")
    total.named = {
        "eval_s": (median(total.job_s), "s", len(reps)),
        "freeze_s": (median([r.detail["freeze_s"] for r in reps]), "s", len(reps)),
        "entity_mrr": (reps[0].identity["entity_mrr"], "%", 1),
    }
    if warmup:
        total.named["first_eval_s"] = (warmup.job_s[0], "s", 1)
    return total


def layers(table: SpanTable, tracer, result: RunResult) -> Dict[str, float]:
    blocks = [s.seconds for s in table.select(["parallel.block"])]
    score_all = table.total(["parallel.score_all"])
    shard_max = max(blocks, default=0.0)
    return {
        "scale.freeze_s": table.total(["scale.freeze"]),
        "scale.ranks_ms": 1000.0 * per(table.total(["scale.ranks"]), result.detail["shards"]),
        "scale.spill_mb": result.detail["spill_mb"],
        "parallel.shard_max_s": shard_max,
        "parallel.imbalance": per(shard_max, per(sum(blocks), len(blocks))),
        "parallel.overhead_s": score_all - shard_max,
        "graph.cache.hit_frac": result.detail["cache_hit_frac"],
    }
