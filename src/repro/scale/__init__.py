"""Entity-axis scaling: pluggable candidate scoring and memmap tables.

The dense decoder scores every query against all ``C`` candidate
entities at once — fine at ICEWS scale, impossible at the
millions-of-entities vocabularies the ROADMAP north-star asks for.
This package makes candidate scoring a *strategy*:

* :class:`~repro.scale.scorers.DenseScorer` — reference implementation
  of the scorer seam (no block caps, exact).
* :class:`~repro.scale.scorers.BlockedScorer` — caps query tiles and
  candidate chunks of the shared cache-resident tile kernel;
  bit-identical scores to :class:`DenseScorer` at every block size.
* :class:`~repro.scale.scorers.TopKScorer` — blocked streaming plus
  partial top-k selection; same exact gold ranks, so MRR/Hits are
  unchanged.
* :class:`~repro.scale.scorers.HistoryFilteredScorer` — RE-Net-style
  frequency/recency candidate restriction from the reveal stream; an
  explicit approximation (``exact = False``).

:class:`~repro.scale.store.EmbeddingStore` backs embedding tables with
either an in-RAM array or a lazily-opened ``np.memmap``.
:mod:`repro.scale.snapshot` is the one freeze-and-decode path: an
:class:`~repro.scale.snapshot.EmbeddingSnapshot` holds an evolved
window as such stores, and the model's prediction cache, the serving
layer and :class:`~repro.scale.frozen.FrozenWindowModel` (which
evaluates vocabularies larger than RAM from a spilled window) all
capture and decode through it.  See DESIGN.md §9 for the exactness
contract.
"""

from repro.scale.candidates import HistoryCandidateIndex
from repro.scale.frozen import FrozenWindowModel
from repro.scale.scorers import (
    BlockedScorer,
    CandidateScorer,
    DenseScorer,
    HistoryFilteredScorer,
    TopKScorer,
    get_scorer,
    select_topk,
)
from repro.scale.snapshot import EmbeddingSnapshot
from repro.scale.store import EmbeddingStore

__all__ = [
    "BlockedScorer",
    "CandidateScorer",
    "DenseScorer",
    "EmbeddingSnapshot",
    "EmbeddingStore",
    "FrozenWindowModel",
    "HistoryCandidateIndex",
    "HistoryFilteredScorer",
    "TopKScorer",
    "get_scorer",
    "select_topk",
]
