"""The model contract the evaluation driver (and benches) rely on."""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.graph import Snapshot


@runtime_checkable
class ExtrapolationModel(Protocol):
    """Anything that can forecast future entities/relations from history.

    The evaluator walks test timestamps in chronological order.  For each
    timestamp ``t`` it first asks the model to score the queries of ``t``
    (using only information from ``< t``), then — matching the paper's
    online continuous-training setup — hands the model ``t``'s revealed
    facts via :meth:`observe` before moving on.

    Entity queries use the doubled-relation convention: a subject query
    ``(?, r, o)`` arrives as ``(o, r + M)``.
    """

    def predict_entities(self, queries: np.ndarray, ts: int) -> np.ndarray:
        """Score all N entities for each ``(subject, relation)`` query row.

        Returns ``(B, N)``; higher is better.
        """
        ...

    def predict_relations(self, pairs: np.ndarray, ts: int) -> np.ndarray:
        """Score all M relations for each ``(subject, object)`` pair row.

        Returns ``(B, M)``; higher is better.
        """
        ...

    def observe(self, snapshot: Snapshot) -> None:
        """Reveal a timestamp's facts after it has been evaluated.

        Models that support online continuous training update themselves
        here; others may simply record the facts as history (or ignore
        them entirely).
        """
        ...


def scorer_spec(model) -> str:
    """The candidate-scorer spec a model's ranks come from, for telemetry.

    The legacy matmul path (no scorer configured) reports as
    ``"dense"`` — it scores every candidate exactly, same contract as
    the seam's dense reference.  ``check_run_health.py`` refuses runs
    that mix distinct specs, so every eval event must carry one.
    """
    scorer = getattr(model, "scorer", None)
    return scorer.spec() if scorer is not None else "dense"
