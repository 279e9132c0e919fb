"""One frozen evolved window, captured once and decoded many times.

RETIA answers ``(s, r, ?)`` by decoding against the last-k evolved
entity/relation stacks.  The recurrent encoder produces those stacks
once per ``(timestamp, parameter version)``; every decode afterwards is
decoder-only work.  This module is the single home of that split, used
by the model's own prediction cache, the serving layer and
large-vocabulary evaluation (:class:`~repro.scale.frozen.FrozenWindowModel`):

* :func:`capture` runs ``model.evolve`` once under eval mode and
  ``no_grad`` and holds each stack as an
  :class:`~repro.scale.store.EmbeddingStore` — a RAM copy in the model's
  own dtype (so later parameter updates cannot reach it), or an
  atomically written ``.npy`` memmap under ``spill_dir``;
* :func:`query_reps` is the one gather: per-stack row gathers (a
  memmap-backed window never loads a full table for the query side),
  then the decoder's stacked query pass;
* :func:`score_entities` / :func:`rank_entities` /
  :func:`score_relations` are the one decode.  ``scorer=None`` keeps
  the model's legacy batched matmul decode bit for bit (scores only:
  ranking always goes through a scorer); any
  :class:`~repro.scale.scorers.CandidateScorer` streams candidate
  scoring through the strategy instead.

The ``model`` argument of the decode functions supplies the decoders
and the dtype policy: a live :class:`~repro.core.model.RETIA` or a
:class:`FrozenWindowModel` (whose deep-copied decoders only support a
scorer).  The caller must hold whatever lock guards the decoder
weights.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.autograd import DtypePolicy, Tensor, no_grad
from repro.scale.scorers import get_scorer
from repro.scale.store import EmbeddingStore


@dataclass(frozen=True)
class EmbeddingSnapshot:
    """Frozen evolved embedding stacks for one ``(ts, version)``.

    ``entity_list`` / ``relation_list`` hold one ``(N, d)`` / ``(2M, d)``
    :class:`EmbeddingStore` per decoded historical snapshot, oldest
    first — only the last one when the model decodes without time
    variability.  Memmap stores pickle as their paths, so a snapshot
    ships to pool workers without its tables.
    """

    ts: int
    version: int
    entity_list: Tuple[EmbeddingStore, ...]
    relation_list: Tuple[EmbeddingStore, ...]

    @property
    def window(self) -> int:
        return len(self.entity_list)

    @property
    def dtype(self) -> np.dtype:
        return self.entity_list[0].dtype

    @property
    def num_relations(self) -> int:
        """The base relation count M (relation tables hold ``2M`` rows)."""
        return self.relation_list[0].shape[0] // 2

    def tensors(self):
        """The stacks as ``([E_t], [R_t])`` tensor lists (legacy decode input)."""
        # Construct under the tables' own dtype so wrapping never casts.
        with DtypePolicy(self.dtype):
            return (
                [Tensor(s.data) for s in self.entity_list],
                [Tensor(s.data) for s in self.relation_list],
            )


@contextlib.contextmanager
def _eval_mode(model):
    """Eval mode for the duration, restoring training mode afterwards."""
    was_training = getattr(model, "training", False)
    if hasattr(model, "eval"):
        model.eval()
    try:
        yield
    finally:
        if was_training:
            model.train()


def capture(model, ts: int, version: int, spill_dir: Optional[str] = None) -> EmbeddingSnapshot:
    """Run the encoder once over the history before ``ts`` and freeze it.

    With ``spill_dir`` each stack is written to
    ``{entity,relation}_v{version}_t{index}.npy`` there and held as a
    lazy read-only memmap; an existing table is never overwritten
    (:meth:`EmbeddingStore.save` raises ``FileExistsError``), so a
    window another reader may still open by path stays intact.
    """
    with _eval_mode(model), no_grad():
        entity_list, relation_list = model.evolve(model.history_before(ts))
    if not model.config.time_variability:
        entity_list, relation_list = entity_list[-1:], relation_list[-1:]

    def _store(kind: str, index: int, tensor: Tensor) -> EmbeddingStore:
        if spill_dir is None:
            return EmbeddingStore.from_array(tensor.data.copy())
        path = os.path.join(spill_dir, f"{kind}_v{int(version)}_t{index}.npy")
        return EmbeddingStore.save(path, tensor.data)

    return EmbeddingSnapshot(
        ts=int(ts),
        version=int(version),
        entity_list=tuple(_store("entity", i, t) for i, t in enumerate(entity_list)),
        relation_list=tuple(_store("relation", i, t) for i, t in enumerate(relation_list)),
    )


def query_reps(
    model,
    decoder,
    left: Sequence[EmbeddingStore],
    right: Sequence[EmbeddingStore],
    rows: np.ndarray,
) -> np.ndarray:
    """Stacked ``(T, B, d)`` decoder query representations.

    Gathers ``rows[:, 0]`` from each ``left`` table and ``rows[:, 1]``
    from each ``right`` table (per stack, never the whole table), then
    runs ``decoder.queries_stacked`` in eval mode under the model's
    dtype policy.
    """
    with _eval_mode(model), no_grad(), model._dtype_policy:
        first = Tensor(np.stack([np.asarray(s.data[rows[:, 0]]) for s in left]))
        second = Tensor(np.stack([np.asarray(s.data[rows[:, 1]]) for s in right]))
        return decoder.queries_stacked(first, second).data


def score_entities(model, snapshot: EmbeddingSnapshot, queries, scorer=None) -> np.ndarray:
    """Summed candidate probabilities ``(B, N)`` for ``(s, r)`` queries.

    ``scorer=None`` runs the model's legacy decode (the stacked
    ``_entity_probabilities`` summed over its snapshot axis) over the
    frozen stacks — the exact arithmetic of ``RETIA.predict_entities``.  A
    :class:`~repro.scale.scorers.CandidateScorer` (or spec string) takes
    the query representations from :func:`query_reps` and streams
    candidate scoring through the strategy, which keeps memory bounded
    when the stacks are memmap-backed.
    """
    scorer = get_scorer(scorer)
    queries = np.asarray(queries, dtype=np.int64).reshape(-1, 2)
    if scorer is None:
        entity_list, relation_list = snapshot.tensors()
        with _eval_mode(model), no_grad(), model._dtype_policy:
            probs = model._entity_probabilities(entity_list, relation_list, queries)
        return probs.data.sum(axis=0)
    reps = query_reps(
        model, model.entity_decoder, snapshot.entity_list, snapshot.relation_list, queries
    )
    return scorer.sum_probs(reps, [s.data for s in snapshot.entity_list])


def rank_entities(
    model,
    snapshot: EmbeddingSnapshot,
    queries: np.ndarray,
    targets: np.ndarray,
    mask: Optional[np.ndarray] = None,
    dedup: bool = True,
    scorer=None,
    revealed: Sequence = (),
) -> np.ndarray:
    """Average-tie gold ranks for entity queries against ``snapshot``.

    Duplicate queries are decoded once (``dedup``).  The ``scorer``
    streams ranks without ever materialising the ``(B, N)`` score
    matrix; one that ``needs_history`` is first synced with
    ``revealed``, the full reveal stream before the scored timestamp.
    ``mask`` uses the filtered-setting convention: ``True`` excludes a
    candidate, targets never are.  There is no scorer-less mode: the
    protocol ranks a model without a scorer itself
    (:func:`~repro.eval.protocol.score_timestamp`).
    """
    if scorer is None:
        raise ValueError("rank_entities needs a candidate scorer")
    queries = np.asarray(queries, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    if dedup:
        unique_queries, inverse = np.unique(queries, axis=0, return_inverse=True)
        # return_inverse shape for axis-unique varies across numpy 2.x.
        inverse = inverse.ravel()
    else:
        unique_queries, inverse = queries, None
    reps = query_reps(
        model, model.entity_decoder, snapshot.entity_list, snapshot.relation_list, unique_queries
    )
    if scorer.needs_history:
        scorer.sync_history(revealed, snapshot.num_relations)
    return scorer.ranks(
        reps,
        [s.data for s in snapshot.entity_list],
        targets,
        mask=mask,
        inverse=inverse,
        query_ids=unique_queries,
    )


def score_relations(model, snapshot: EmbeddingSnapshot, pairs, scorer=None) -> np.ndarray:
    """Summed relation probabilities ``(B, M)`` for ``(s, o)`` pairs.

    ``scorer=None`` runs the model's legacy ``_relation_probabilities``
    decode; a scorer scores the first ``M`` relation rows (M is small,
    so this never needs streaming).
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if scorer is None:
        entity_list, relation_list = snapshot.tensors()
        with _eval_mode(model), no_grad(), model._dtype_policy:
            probs = model._relation_probabilities(entity_list, relation_list, pairs)
        return probs.data.sum(axis=0)
    reps = query_reps(
        model, model.relation_decoder, snapshot.entity_list, snapshot.entity_list, pairs
    )
    m = snapshot.num_relations
    return scorer.sum_probs(reps, [np.asarray(s.data[:m]) for s in snapshot.relation_list])
