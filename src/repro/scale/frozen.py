"""A decoder-only model over a frozen, possibly memmap-backed window.

Large-vocabulary evaluation does not need the recurrent encoder in the
loop: evolve once into an :class:`~repro.scale.snapshot.EmbeddingSnapshot`
(optionally spilled to ``.npy`` memmap tables), then score any number
of queries through the scorer seam while the tables stay on disk.

:class:`FrozenWindowModel` is the ``ExtrapolationModel`` adapter over
such a window: deep-copied decoders, one snapshot and the reveal
stream.  ``observe`` is record-only and time-indexed
(``record_snapshot`` / ``history_before``), so sharded evaluation
admits it at any worker count; pickling ships store *paths* only (each
pool worker reopens its memmaps lazily).  The window itself is static —
every timestamp is scored from the same frozen embeddings, which is
exactly the staleness trade the serving layer makes, not the paper's
per-timestamp re-evolution.
"""

from __future__ import annotations

import copy
from typing import List, Optional, Sequence

import numpy as np

from repro.autograd import DtypePolicy
from repro.scale import snapshot as frozen_window
from repro.scale.scorers import BlockedScorer, CandidateScorer, DenseScorer, get_scorer


class FrozenWindowModel:
    """Score queries against one frozen evolved window.

    Parameters
    ----------
    entity_decoder / relation_decoder:
        Conv-TransE decoders (deep-copied, held in eval mode).
    snapshot:
        The frozen :class:`~repro.scale.snapshot.EmbeddingSnapshot`;
        decoder passes run in its dtype.
    scorer:
        Candidate strategy for entity ranking; defaults to the exact
        :class:`~repro.scale.scorers.BlockedScorer`.
    history:
        The reveal stream known at freeze time (history-candidate
        scorers index it).
    """

    def __init__(
        self,
        entity_decoder,
        relation_decoder,
        snapshot: frozen_window.EmbeddingSnapshot,
        scorer: Optional[CandidateScorer] = None,
        history: Sequence = (),
    ):
        self.entity_decoder = entity_decoder
        self.relation_decoder = relation_decoder
        self.snapshot = snapshot
        self.set_scorer(scorer)
        self._dtype_policy = DtypePolicy(snapshot.dtype)
        self._history: List = list(history)

    @classmethod
    def freeze(
        cls,
        model,
        ts: int,
        spill_dir: Optional[str] = None,
        scorer: Optional[CandidateScorer] = None,
    ) -> "FrozenWindowModel":
        """Freeze ``model``'s evolved window at ``ts``.

        With ``spill_dir`` the stacks are written to ``.npy`` tables
        there and backed by lazy memmaps; otherwise they stay in RAM.
        The reveal stream is the model's full one before ``ts``.
        """
        return cls(
            copy.deepcopy(model.entity_decoder).eval(),
            copy.deepcopy(model.relation_decoder).eval(),
            model.embedding_snapshot(ts, spill_dir=spill_dir),
            scorer=scorer,
            history=model.revealed_before(ts),
        )

    def set_scorer(self, scorer) -> None:
        parsed = get_scorer(scorer)
        self.scorer = parsed if parsed is not None else BlockedScorer()

    # ------------------------------------------------------------------
    # Record-only reveal stream (shardable-eval contract)
    # ------------------------------------------------------------------
    def record_snapshot(self, snapshot) -> None:
        self._history.append(snapshot)

    def history_before(self, ts: int) -> List:
        return [s for s in self._history if int(s.time) < int(ts)]

    def observe(self, snapshot) -> None:
        """Record the revealed facts; the frozen window never re-evolves."""
        self.record_snapshot(snapshot)

    # ------------------------------------------------------------------
    # Decoding: every timestamp sees the same frozen window
    # ------------------------------------------------------------------
    def predict_entities(self, queries: np.ndarray, ts: int) -> np.ndarray:
        """Summed candidate probabilities ``(B, N)`` via the scorer seam.

        Materialises the full score block — intended for serve-scale
        batches; large-vocabulary evaluation goes through
        :meth:`rank_entities`, which streams.
        """
        return frozen_window.score_entities(self, self.snapshot, queries, self.scorer)

    def rank_entities(
        self,
        queries: np.ndarray,
        targets: np.ndarray,
        ts: int,
        mask: Optional[np.ndarray] = None,
        dedup: bool = True,
    ) -> np.ndarray:
        """Streamed gold ranks through the configured scorer."""
        return frozen_window.rank_entities(
            self,
            self.snapshot,
            queries,
            targets,
            mask=mask,
            dedup=dedup,
            scorer=self.scorer,
            revealed=self.history_before(ts),
        )

    def predict_relations(self, pairs: np.ndarray, ts: int) -> np.ndarray:
        """Summed relation probabilities ``(B, M)`` (dense: M is small)."""
        return frozen_window.score_relations(self, self.snapshot, pairs, DenseScorer())
