"""Ranking metrics: MRR and Hits@k with deterministic tie handling."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.scale.scorers import count_ranks


def ranks_from_scores(
    scores: np.ndarray,
    targets: np.ndarray,
    filter_mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Rank of each target among its candidate scores (1 = best).

    Ties are resolved by the *average* rank of the tied block, which is
    deterministic and unbiased (a model scoring everything equally gets
    the expected random rank, not rank 1).

    Parameters
    ----------
    scores:
        ``(B, C)`` candidate scores, higher is better.
    targets:
        ``(B,)`` index of the ground-truth candidate per row.
    filter_mask:
        Optional boolean ``(B, C)``; ``True`` marks candidates to exclude
        (known true facts under a filtered setting).  The target itself is
        never excluded.
    """
    scores = np.asarray(scores)
    targets = np.asarray(targets, dtype=np.int64)
    if scores.ndim != 2 or len(targets) != scores.shape[0]:
        raise ValueError("scores must be (B, C) with one target per row")
    # The candidate scorers' counting core: compares in the scores' own
    # dtype and counts only unmasked columns, so nothing is copied.
    return count_ranks(scores, targets, filter_mask)


def log_spaced_rank_edges(max_rank: int = 1_000_000) -> Tuple[float, ...]:
    """Fixed 1-2-3-5 log-spaced bucket edges for rank histograms.

    Ranks above the last edge land in the implied +inf bucket, so the
    histogram size is bounded regardless of candidate-set size.
    """
    edges: List[float] = []
    scale = 1
    while scale <= max_rank:
        for mantissa in (1, 2, 3, 5):
            value = mantissa * scale
            if value <= max_rank:
                edges.append(float(value))
        scale *= 10
    return tuple(edges)


#: Default bucket edges shared by diagnostics and the bounded mode.
RANK_HISTOGRAM_EDGES = log_spaced_rank_edges()


class RankAccumulator:
    """Streaming accumulator for MRR and Hits@k over many queries.

    Two storage modes:

    * default — every rank array is retained (:meth:`ranks` works),
      matching the original behaviour;
    * ``bounded=True`` — only running sums and a fixed log-spaced
      histogram are kept, so accumulating millions of eval queries (or
      one accumulator per relation) costs O(buckets) memory.  MRR,
      Hits@k and MR stay *exact* (they are plain sums); only the raw
      rank arrays are given up, and :meth:`ranks` raises.
    """

    def __init__(
        self,
        hits_at: Iterable[int] = (1, 3, 10),
        bounded: bool = False,
        bucket_edges: Optional[Iterable[float]] = None,
    ):
        self.hits_at = tuple(sorted(hits_at))
        self.bounded = bounded
        self._ranks: list = []
        edges = tuple(
            float(e) for e in (RANK_HISTOGRAM_EDGES if bucket_edges is None else bucket_edges)
        )
        if list(edges) != sorted(set(edges)):
            raise ValueError("bucket edges must be strictly increasing")
        self.bucket_edges = edges
        # Running sums (kept in both modes; the source of truth when
        # bounded).  The final slot of ``_bucket_counts`` is +inf.
        self._count = 0
        self._inv_sum = 0.0
        self._rank_sum = 0.0
        self._hits = {k: 0 for k in self.hits_at}
        self._bucket_counts = np.zeros(len(edges) + 1, dtype=np.int64)

    def update(self, ranks: np.ndarray) -> None:
        """Append a batch of ranks."""
        ranks = np.asarray(ranks, dtype=np.float64)
        self._count += len(ranks)
        if len(ranks):
            self._inv_sum += float((1.0 / ranks).sum())
            self._rank_sum += float(ranks.sum())
            for k in self.hits_at:
                self._hits[k] += int((ranks <= k).sum())
            buckets = np.searchsorted(self.bucket_edges, ranks, side="left")
            np.add.at(self._bucket_counts, buckets, 1)
        if not self.bounded:
            self._ranks.append(ranks)

    @property
    def count(self) -> int:
        """Total queries accumulated."""
        return self._count

    def ranks(self) -> np.ndarray:
        """All accumulated ranks as one array (default mode only)."""
        if self.bounded:
            raise ValueError("bounded accumulator does not retain raw rank arrays")
        if not self._ranks:
            return np.zeros(0)
        return np.concatenate(self._ranks)

    def histogram(self) -> List[dict]:
        """Cumulative per-bucket counts (``le`` edges, last is +inf)."""
        cumulative = np.cumsum(self._bucket_counts)
        return [
            {"le": edge, "count": int(c)}
            for edge, c in zip(list(self.bucket_edges) + ["+inf"], cumulative)
        ]

    def summary(self) -> Dict[str, float]:
        """MRR, Hits@k (percent, paper convention) and Mean Rank."""
        if not self._count:
            return {
                "MRR": 0.0,
                **{f"Hits@{k}": 0.0 for k in self.hits_at},
                "MR": 0.0,
                "count": 0,
            }
        result = {"MRR": self._inv_sum / self._count * 100.0}
        for k in self.hits_at:
            result[f"Hits@{k}"] = self._hits[k] / self._count * 100.0
        result["MR"] = self._rank_sum / self._count
        result["count"] = self._count
        return result
