"""Evaluation driver: walk test timestamps, rank, accumulate metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.eval.filters import FilterIndex
from repro.eval.interface import ExtrapolationModel
from repro.eval.metrics import RankAccumulator, ranks_from_scores
from repro.graph import Snapshot, TemporalKG

#: Default ceiling on one pool block's wall-clock.  A SIGKILLed pool
#: worker loses its task without any notification to the parent —
#: ``Pool.map`` would wait forever — so every block result is collected
#: with a timeout and re-raised as a diagnosable ``ShardedEvalError``.
DEFAULT_SHARD_TIMEOUT = 300.0


@dataclass
class EvaluationResult:
    """Entity and relation forecasting metrics plus query counts."""

    entity: Dict[str, float] = field(default_factory=dict)
    relation: Dict[str, float] = field(default_factory=dict)

    def row(self, metrics=("MRR", "Hits@1", "Hits@3", "Hits@10")) -> Dict[str, float]:
        """Flat entity-metric row (Table III/IV shape)."""
        return {m: self.entity.get(m, float("nan")) for m in metrics}


@dataclass
class TimestampScores:
    """Everything one scored timestamp contributes to the metrics.

    Rank arrays are tiny compared to the score matrices they came from,
    so this is also the unit shipped back from evaluation workers
    (:mod:`repro.parallel.eval`); the grouping keys (``targets`` for the
    seen/unseen split, ``base_relations`` for the per-relation split)
    let the diagnostics decomposition replay its accumulator updates
    without re-scoring.
    """

    ts: int
    entity_ranks: np.ndarray
    relation_ranks: Optional[np.ndarray]
    targets: np.ndarray
    base_relations: np.ndarray


def score_timestamp(
    model: ExtrapolationModel,
    snapshot: Snapshot,
    num_relations: int,
    setting: str = "raw",
    filter_index: Optional[FilterIndex] = None,
    evaluate_relations: bool = True,
    dedup: bool = True,
) -> Optional[TimestampScores]:
    """Score one test timestamp exactly as the protocol prescribes.

    Entity queries cover both directions — object queries ``(s, r, ?)``
    and subject queries ``(?, r, o)`` expressed as ``(o, r + M, ?)`` —
    and the relation task ranks ``(s, ?, o)`` among the M true
    relations.  ``dedup=True`` scores each distinct query once and
    scatters the rows back (the :func:`evaluate_extrapolation`
    convention); ``dedup=False`` scores every row directly (the
    diagnostics convention).  The two produce equal score *values* but
    feed differently-shaped batches to the model, so bit-exact
    equivalence claims must hold the flag fixed.  A model with a
    configured ``scorer`` ranks entities through its ``rank_entities``
    seam; every other model is scored densely through
    ``predict_entities``.

    Returns ``None`` for an empty timestamp (nothing to rank).
    """
    triples = snapshot.triples
    if not len(triples):
        return None
    ts = int(snapshot.time)
    s, r, o = triples[:, 0], triples[:, 1], triples[:, 2]

    queries = np.concatenate(
        [np.stack([s, r], axis=1), np.stack([o, r + num_relations], axis=1)]
    )
    targets = np.concatenate([o, s])
    # Raw ranking never uses a mask, so skip building one even when a
    # FilterIndex was supplied.
    if setting == "raw":
        mask = None
    else:
        mask = filter_index.mask(queries, ts, setting)
    if getattr(model, "scorer", None) is not None:
        # The candidate-scorer seam (repro.scale): the model ranks the
        # gold entities itself, so a blocked/top-k strategy can stream
        # candidate scoring instead of materialising the (B, N) score
        # matrix here.
        entity_ranks = model.rank_entities(queries, targets, ts, mask=mask, dedup=dedup)
    else:
        if dedup:
            # A (subject, relation) pair with several true objects appears
            # once per object; the model scores depend only on the pair, so
            # score each distinct query once and scatter the rows back.
            unique_queries, inverse = np.unique(queries, axis=0, return_inverse=True)
            # return_inverse shape for axis-unique varies across numpy 2.x.
            scores = model.predict_entities(unique_queries, ts)[inverse.ravel()]
        else:
            scores = model.predict_entities(queries, ts)
        entity_ranks = ranks_from_scores(scores, targets, mask)

    relation_ranks = None
    if evaluate_relations:
        pairs = np.stack([s, o], axis=1)
        if dedup:
            unique_pairs, pair_inverse = np.unique(pairs, axis=0, return_inverse=True)
            rel_scores = model.predict_relations(unique_pairs, ts)[pair_inverse.ravel()]
        else:
            rel_scores = model.predict_relations(pairs, ts)
        relation_ranks = ranks_from_scores(rel_scores, r)

    return TimestampScores(
        ts=ts,
        entity_ranks=entity_ranks,
        relation_ranks=relation_ranks,
        targets=targets,
        base_relations=np.concatenate([r, r]),  # both directions share the base id
    )


def evaluate_extrapolation(
    model: ExtrapolationModel,
    test_graph: TemporalKG,
    setting: str = "raw",
    filter_index: Optional[FilterIndex] = None,
    evaluate_relations: bool = True,
    observe: bool = True,
    workers: int = 1,
    reporter=None,
    registry=None,
    shard_timeout: Optional[float] = DEFAULT_SHARD_TIMEOUT,
) -> EvaluationResult:
    """Run the paper's link-prediction protocol over a test graph.

    Parameters
    ----------
    model:
        An :class:`ExtrapolationModel`.
    test_graph:
        Chronologically last slice of the dataset; its timestamps are
        evaluated in order.
    setting:
        ``"raw"`` (paper default), ``"static"`` or ``"time"`` filtering.
    filter_index:
        Required for filtered settings; build it over the *full* dataset.
    evaluate_relations:
        Also run the relation forecasting task (s, ?, o).
    observe:
        Reveal each timestamp's facts to the model after scoring it
        (online continuous training).  Disable for strictly-offline runs
        (Fig. 8 ablation).
    workers:
        ``1`` scores and reveals in order in this process; more shard
        the timestamps over a process pool with bit-identical metrics,
        for models with a record-only ``observe``
        (:mod:`repro.parallel.eval`).
    reporter / registry:
        Receive one ``worker`` event / metric series per worker block.
    shard_timeout:
        Seconds a pool block may take before a
        :class:`~repro.parallel.ShardedEvalError` names it.
    """
    # Imported here, since repro.parallel imports the trainer, which
    # imports this module; ``_score_all`` is looked up per call, so a
    # wrapper installed on the walker module sees every evaluation.
    from repro.parallel import eval as walker

    scored, telemetry = walker._score_all(
        model,
        test_graph,
        setting,
        filter_index,
        evaluate_relations,
        observe,
        workers,
        dedup=True,
        shard_timeout=shard_timeout,
    )
    walker._emit_worker_telemetry(telemetry, reporter=reporter, registry=registry)
    entity_acc = RankAccumulator()
    relation_acc = RankAccumulator()
    for entry in scored:
        entity_acc.update(entry.entity_ranks)
        if entry.relation_ranks is not None:
            relation_acc.update(entry.relation_ranks)
    return EvaluationResult(entity=entity_acc.summary(), relation=relation_acc.summary())
