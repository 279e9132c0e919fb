"""The published serving snapshot and its staleness accounting.

RETIA's deployment shape splits cleanly: the expensive recurrent
encoder runs *once per timestamp* (``model.evolve`` over the history
window), and answering a ``(s, r, ?)`` query afterwards is decoder-only
work against the evolved per-snapshot embedding stacks.  That split is
:mod:`repro.scale.snapshot`: :func:`~repro.scale.snapshot.capture`
freezes the window into an immutable :class:`EmbeddingSnapshot` (RAM
*copies*, so later online updates cannot mutate what the query path is
reading) and :func:`~repro.scale.snapshot.score_entities` decodes from
it.  This module holds the serving side:

* :meth:`SnapshotStore.publish` atomically swaps the served snapshot
  and resets staleness;
* :meth:`SnapshotStore.mark_stale` records a refresh cycle the store
  missed (failed or still backing off).  The query path keeps serving
  the old snapshot — degraded, never down — and every response carries
  the staleness count so clients can tell.

Staleness semantics (DESIGN.md §8): ``staleness`` is the number of
ingested timestamps not yet reflected in the published snapshot.  It is
monotone non-decreasing between publishes and resets to 0 at each
publish — an invariant ``scripts/check_run_health.py`` replays over the
``request`` event stream.
"""

from __future__ import annotations

import threading
from typing import Optional, Tuple

from repro.scale.snapshot import EmbeddingSnapshot


class SnapshotUnavailable(RuntimeError):
    """The store has never been published (server not ready)."""


class SnapshotStore:
    """Thread-safe single-slot store of the published serving snapshot."""

    def __init__(self):
        self._lock = threading.Lock()
        self._current: Optional[EmbeddingSnapshot] = None
        self._staleness = 0
        self.publishes = 0

    # ------------------------------------------------------------------
    def publish(self, snapshot: EmbeddingSnapshot) -> None:
        """Swap in a fresh snapshot; staleness resets to 0."""
        with self._lock:
            self._current = snapshot
            self._staleness = 0
            self.publishes += 1

    def mark_stale(self) -> int:
        """Record one more refresh cycle the published snapshot missed."""
        with self._lock:
            self._staleness += 1
            return self._staleness

    def current(self) -> Tuple[EmbeddingSnapshot, int]:
        """The served snapshot and its staleness, read atomically."""
        with self._lock:
            if self._current is None:
                raise SnapshotUnavailable(
                    "no embedding snapshot published yet; the server is not ready"
                )
            return self._current, self._staleness

    @property
    def staleness(self) -> int:
        with self._lock:
            return self._staleness

    @property
    def ready(self) -> bool:
        with self._lock:
            return self._current is not None

    def describe(self) -> dict:
        """Status block for health/readiness probes."""
        with self._lock:
            if self._current is None:
                return {"published": False, "staleness": self._staleness}
            return {
                "published": True,
                "ts": self._current.ts,
                "version": self._current.version,
                "window": self._current.window,
                "staleness": self._staleness,
                "publishes": self.publishes,
            }

