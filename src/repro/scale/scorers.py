"""Pluggable candidate-scoring strategies for the entity axis.

The decoder scores a query against *all* ``C`` candidate entities
(``(T, B, d) @ (T, d, C)`` logits, softmax over candidates, sum over the
T historical snapshots).  Materialised whole, that score matrix costs
``O(B·C)`` memory — prohibitive at large entity vocabularies.  A
:class:`CandidateScorer` makes the strategy pluggable:

``dense``
    :class:`DenseScorer` — the seam's exact reference: no query-block
    cap, whole candidate rows per logit call.
``blocked``
    :class:`BlockedScorer` — caps the query rows per tile at ``QB`` and
    reads candidates in ``CB``-row chunks (bounded memmap slices).
    **Bit-identical** scores and ranks to ``dense``.
``topk``
    :class:`TopKScorer` — blocked streaming plus partial top-k
    selection (argpartition + explicit threshold-tie handling, no full
    sort).  Gold ranks are still computed by exact counting, so MRR /
    Hits are unchanged even when the gold entity falls outside the
    top-k.
``history``
    :class:`HistoryFilteredScorer` — RE-Net-style candidate
    restriction to frequency/recency copies from the reveal stream.
    An explicit approximation (``exact = False``) — except when its
    budget covers the whole vocabulary, where it degenerates to the
    exact blocked path.

The tile kernel
---------------
The exact strategies share one kernel, :meth:`BlockedScorer._summed_tiles`.
Each call allocates a single ``(T, tile, C)`` workspace, where ``tile``
is the query-block cap or the rows that fit :data:`WORKSPACE_BYTES`
(about one L2 cache), whichever is smaller.  Per tile it

1. writes the logits with ``np.einsum`` per candidate chunk,
2. softmaxes in place: row max, subtract, ``exp``, divide by row sum,
3. sums over T sequentially into ``workspace[0]``,

and hands the summed ``(tile, C)`` rows to ``sum_probs`` (copied out),
``topk`` (:func:`select_topk` per row) or ``ranks``
(:func:`count_ranks` on each row, in cache, for the original query rows
that map to it).  Nothing ``O(B·C)`` is ever allocated, and the
workspace lives in the call, so scorers stay thread-safe and picklable.

Why tile height and chunk width cannot change a bit
---------------------------------------------------
Every stage is per element, or per row along the contiguous candidate
axis, so no value depends on which other rows share its tile:

* the logit is einsum's sequential reduction over ``d``.  Non-optimized
  ``np.einsum`` keeps that order at any block shape, whereas BLAS
  matmul changes its internal reduction order with the operand shape
  (a chunked ``q @ c.T`` is *not* bitwise equal to the whole one);
* the row max is order-free, and the subtraction, ``exp`` and the
  division are element-wise;
* the row sum is numpy's pairwise sum over one whole contiguous row,
  the same row whatever the tile height;
* the sum over T adds whole planes in snapshot order, exactly as
  ``sum(axis=0)`` does.

So every per-element value equals the dense reference to the last ulp,
which ``tests/test_scale.py`` asserts.  Ranks compare in the working
dtype: widening float32 to float64 is exact and order-preserving, so
the greater/tie counts match a float64 comparison exactly.

The *default* evaluation path (``model.scorer is None``) keeps the
legacy matmul decoder bit-for-bit; the seam's ``dense`` reference
differs from it only by sub-ulp logit rounding, which the ``scale-gate``
CI job checks is rank-invisible on ICEWS14.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.scale.candidates import HistoryCandidateIndex

#: Default query-row cap per tile.
DEFAULT_QUERY_BLOCK = 128
#: Default candidate chunk inside the logit kernel (per-slice memmap reads).
DEFAULT_CANDIDATE_BLOCK = 8192
#: Byte budget of the one ``(T, tile, C)`` workspace a call allocates
#: (about an L2 cache); a tile is never shorter than one query row.
WORKSPACE_BYTES = 2 << 20


def select_topk(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest scores, deterministically ordered.

    Descending score, ties broken by ascending index — the same order a
    stable full sort on ``(-score, index)`` yields, but computed with an
    ``O(C)`` partition plus an ``O(k log k)`` sort of the survivors.
    Boundary ties at the k-th value are resolved by smallest index, so
    the result never depends on ``argpartition``'s internal pivot walk.
    """
    s = np.asarray(scores)
    if s.ndim != 1:
        raise ValueError(f"select_topk expects a 1-D score vector, got shape {s.shape}")
    k = int(k)
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    n = s.shape[0]
    if k >= n:
        return np.lexsort((np.arange(n), -s)).astype(np.int64)
    partition = np.argpartition(-s, k - 1)
    threshold = s[partition[k - 1]]
    above = np.nonzero(s > threshold)[0]
    at_threshold = np.nonzero(s == threshold)[0]  # ascending index already
    take = np.concatenate([above, at_threshold[: k - above.size]])
    order = np.lexsort((take, -s[take]))
    return take[order].astype(np.int64)


def count_ranks(
    scores: np.ndarray, targets: np.ndarray, mask: Optional[np.ndarray] = None
) -> np.ndarray:
    """Average-tie rank of each row's target among its scores (1 = best).

    ``scores`` is ``(B, C)`` in any real dtype (a broadcast view works:
    nothing is copied or upcast); rank ``= 1 + #greater + #ties/2``.
    ``mask`` rows count only valid columns, ``valid = ~mask`` with the
    target forced valid — what setting excluded scores to ``-inf``
    does to the counts, without mutating the scores.
    """
    local = np.arange(len(targets))
    target_scores = scores[local, targets][:, None]
    greater = scores > target_scores
    ties = scores == target_scores
    if mask is not None:
        valid = ~np.asarray(mask, dtype=bool)
        valid[local, targets] = True
        greater &= valid
        ties &= valid
    return 1.0 + _row_counts(greater) + (_row_counts(ties) - 1) / 2.0


def _row_counts(flags: np.ndarray) -> np.ndarray:
    """``np.count_nonzero(flags, axis=1)``, fast on long rows too.

    The axis form sums through a bool → int cast, several times slower
    per element than a whole-array count, but a per-row loop pays
    ~0.4 µs of call overhead per row.  Measured per-row / axis time
    (512 rows; 2-vCPU Xeon, numpy 2.4): 2.8 at 256 columns, 1.6 at
    1024, 1.08 at 1536, 0.88 at 2048 and 0.11 at 120k columns.  So
    short rows — ``ranks_from_scores`` on small vocabularies — keep the
    axis form, where the loop alone would make it ~3× slower, and rows
    from 2048 columns up are counted one row at a time.
    """
    if flags.shape[1] < 2048:
        return np.count_nonzero(flags, axis=1)
    return np.fromiter(map(np.count_nonzero, flags), dtype=np.intp, count=len(flags))


class CandidateScorer:
    """Strategy interface: summed decoder probabilities over candidates.

    Inputs are plain numpy (the seam runs under ``no_grad``):

    * ``queries`` — ``(T, U, d)`` decoder query representations, one row
      per (deduplicated) query and historical snapshot;
    * ``candidates`` — a sequence of T per-snapshot ``(C, d)`` candidate
      tables (ndarray or ``np.memmap``; the tile kernel reads them in
      slices, so a memmap never loads wholesale);
    * ``targets`` / ``mask`` / ``inverse`` — per *original* query row:
      the gold candidate, the optional filtered-setting exclusion mask
      (``True`` = excluded, the target itself never is), and the
      row → unique-query map produced by dedup (``None`` = identity).

    ``exact`` declares the contract: exact strategies return ranks
    bitwise equal to :class:`DenseScorer` (and therefore identical MRR /
    Hits); non-exact strategies are approximations and must never be
    mixed into comparisons with exact runs — ``check_run_health.py``
    refuses runs whose events disagree on the recorded scorer spec.

    ``sum_probs``, ``ranks`` and ``topk`` all consume one primitive,
    :meth:`_summed_tiles`, which subclasses implement.
    """

    name = "abstract"
    exact = True
    #: Set on strategies that must ingest the reveal stream before ranking.
    needs_history = False

    def spec(self) -> str:
        """Round-trippable strategy spec (see :func:`get_scorer`)."""
        return self.name

    def _summed_tiles(
        self, queries: np.ndarray, candidates: Sequence[np.ndarray]
    ) -> Iterator[Tuple[int, np.ndarray]]:
        """Yield ``(start, summed)``: T-summed probabilities of query rows
        ``start:start + len(summed)``, in order.

        ``summed`` may be a view into a workspace that the next tile
        overwrites; consumers copy or reduce it before advancing.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Derived API
    # ------------------------------------------------------------------
    def sum_probs(self, queries: np.ndarray, candidates: Sequence[np.ndarray]) -> np.ndarray:
        """Full ``(U, C)`` summed probabilities (serve-scale batches)."""
        out = np.empty((queries.shape[1], candidates[0].shape[0]), dtype=queries.dtype)
        for start, summed in self._summed_tiles(queries, candidates):
            out[start : start + len(summed)] = summed
        return out

    def ranks(
        self,
        queries: np.ndarray,
        candidates: Sequence[np.ndarray],
        targets: np.ndarray,
        *,
        mask: Optional[np.ndarray] = None,
        inverse: Optional[np.ndarray] = None,
        query_ids: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Average-tie gold ranks, counted on each summed tile row.

        Equivalent to scoring everything and calling
        :func:`repro.eval.metrics.ranks_from_scores`, but the ``(B, C)``
        score matrix never exists: the original rows of unique query
        ``u`` are ranked against a broadcast view of its summed row
        while that row is still in cache.
        """
        del query_ids  # used by history-filtered scoring only
        targets = np.asarray(targets, dtype=np.int64)
        if inverse is None:
            inverse = np.arange(len(targets), dtype=np.int64)
        else:
            inverse = np.asarray(inverse, dtype=np.int64).ravel()
        # Original rows of unique query u: order[bounds[u]:bounds[u + 1]].
        order = np.argsort(inverse, kind="stable")
        bounds = np.searchsorted(inverse[order], np.arange(queries.shape[1] + 1))
        ranks = np.empty(len(targets), dtype=np.float64)
        for start, summed in self._summed_tiles(queries, candidates):
            for unique, row in enumerate(summed, start):
                rows = order[bounds[unique] : bounds[unique + 1]]
                if rows.size:
                    ranks[rows] = count_ranks(
                        np.broadcast_to(row, (rows.size, row.size)),
                        targets[rows],
                        None if mask is None else mask[rows],
                    )
        return ranks

    def topk(
        self, queries: np.ndarray, candidates: Sequence[np.ndarray], k: int
    ) -> List[np.ndarray]:
        """Per-query top-k candidate indices via :func:`select_topk`."""
        out: List[np.ndarray] = []
        for _, summed in self._summed_tiles(queries, candidates):
            out.extend(select_topk(row, k) for row in summed)
        return out


class BlockedScorer(CandidateScorer):
    """Exact streaming scorer: cache-resident query tiles, chunked candidate reads.

    Every stage of the tile kernel is per element or per contiguous
    candidate row (see the module docstring), so any ``query_block`` /
    ``candidate_block`` yields the same bits as :class:`DenseScorer`.
    Peak score memory is one ``T × tile × C`` workspace, with ``tile``
    at most ``query_block`` rows and about :data:`WORKSPACE_BYTES`.
    """

    name = "blocked"
    exact = True

    def __init__(
        self,
        query_block: Optional[int] = DEFAULT_QUERY_BLOCK,
        candidate_block: Optional[int] = DEFAULT_CANDIDATE_BLOCK,
    ):
        if query_block is not None and query_block < 1:
            raise ValueError("query_block must be >= 1")
        if candidate_block is not None and candidate_block < 1:
            raise ValueError("candidate_block must be >= 1")
        self.query_block = query_block
        self.candidate_block = candidate_block

    def spec(self) -> str:
        parts = [self.name]
        if self.query_block is not None:
            parts.append(str(self.query_block))
            if self.candidate_block is not None:
                parts.append(str(self.candidate_block))
        return ":".join(parts)

    def _summed_tiles(
        self, queries: np.ndarray, candidates: Sequence[np.ndarray]
    ) -> Iterator[Tuple[int, np.ndarray]]:
        snaps, total = queries.shape[:2]
        num_candidates = candidates[0].shape[0]
        row_bytes = snaps * num_candidates * queries.dtype.itemsize
        tile = max(1, min(self.query_block or total, total, WORKSPACE_BYTES // max(row_bytes, 1)))
        workspace = np.empty((snaps, tile, num_candidates), dtype=queries.dtype)
        chunk = self.candidate_block or num_candidates
        for start in range(0, total, tile):
            stop = min(start + tile, total)
            logits = workspace[:, : stop - start]
            for t in range(snaps):
                tile_queries = queries[t, start:stop]
                table = candidates[t]
                for cs in range(0, num_candidates, chunk):
                    ce = min(cs + chunk, num_candidates)
                    # Non-optimized einsum: its reduction over d does not
                    # depend on the tile/chunk shape (BLAS matmul's does).
                    np.einsum(
                        "bd,cd->bc", tile_queries, np.asarray(table[cs:ce]), out=logits[t, :, cs:ce]
                    )
            logits -= logits.max(axis=-1, keepdims=True)
            np.exp(logits, out=logits)
            logits /= logits.sum(axis=-1, keepdims=True)
            summed = logits[0]
            for t in range(1, snaps):
                summed += logits[t]
            yield start, summed


class DenseScorer(BlockedScorer):
    """The seam's exact reference: no query-row cap, whole candidate rows."""

    name = "dense"
    exact = True

    def __init__(self):
        super().__init__(query_block=None, candidate_block=None)

    def spec(self) -> str:
        return self.name


class TopKScorer(BlockedScorer):
    """Blocked streaming with partial top-k selection.

    Ranking metrics are *identical* to ``dense``/``blocked`` — gold
    ranks come from the same exact counting over the same bits, even
    when the gold entity is outside the top-k.  What ``topk`` buys is
    the selection side (serving, candidate export): per query block the
    k best candidates are found by partition + threshold-tie handling
    instead of a full ``O(C log C)`` sort, and only ``k`` of the ``C``
    scores per query survive the block.
    """

    name = "topk"
    exact = True

    def __init__(
        self,
        k: int = 10,
        query_block: Optional[int] = DEFAULT_QUERY_BLOCK,
        candidate_block: Optional[int] = DEFAULT_CANDIDATE_BLOCK,
    ):
        super().__init__(query_block=query_block, candidate_block=candidate_block)
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = int(k)

    def spec(self) -> str:
        parts = [self.name, str(self.k)]
        if self.query_block is not None:
            parts.append(str(self.query_block))
            if self.candidate_block is not None:
                parts.append(str(self.candidate_block))
        return ":".join(parts)

    def topk(
        self,
        queries: np.ndarray,
        candidates: Sequence[np.ndarray],
        k: Optional[int] = None,
    ) -> List[np.ndarray]:
        return super().topk(queries, candidates, self.k if k is None else k)


class HistoryFilteredScorer(CandidateScorer):
    """Approximate scoring over history-filtered candidate copies.

    Candidates for a ``(subject, relation)`` query are the objects that
    the reveal stream has shown for that pair (then that relation, then
    globally), ranked by frequency and recency — the RE-Net "copy"
    observation that repeated facts carry most of the rank mass.  The
    gold entity is always appended, so every query still gets a rank,
    but softmax renormalises over the restricted set: scores and ranks
    are **approximations** (``exact = False``) and must not be compared
    against exact runs.

    With ``budget >= C`` the restriction vanishes and the scorer
    delegates to the exact blocked path — the approximation lattice is
    anchored to the exact contract at its top.
    """

    name = "history"
    exact = False
    needs_history = True

    def __init__(
        self,
        budget: int = 64,
        index: Optional[HistoryCandidateIndex] = None,
        query_block: Optional[int] = DEFAULT_QUERY_BLOCK,
        candidate_block: Optional[int] = DEFAULT_CANDIDATE_BLOCK,
    ):
        if budget < 1:
            raise ValueError("budget must be >= 1")
        self.budget = int(budget)
        self.index = index if index is not None else HistoryCandidateIndex()
        self._exact_fallback = BlockedScorer(query_block, candidate_block)

    def spec(self) -> str:
        return f"{self.name}:{self.budget}"

    def sync_history(self, snapshots, num_relations: int) -> None:
        """Ingest reveal-stream snapshots the index has not seen yet."""
        self.index.record(snapshots, num_relations)

    def sum_probs(self, queries: np.ndarray, candidates: Sequence[np.ndarray]) -> np.ndarray:
        # Full-matrix scoring has no restricted meaning without per-row
        # candidate sets; serve-style callers get the exact path.
        return self._exact_fallback.sum_probs(queries, candidates)

    def ranks(
        self,
        queries: np.ndarray,
        candidates: Sequence[np.ndarray],
        targets: np.ndarray,
        *,
        mask: Optional[np.ndarray] = None,
        inverse: Optional[np.ndarray] = None,
        query_ids: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        num_candidates = candidates[0].shape[0]
        if self.budget >= num_candidates:
            return self._exact_fallback.ranks(
                queries, candidates, targets, mask=mask, inverse=inverse
            )
        if query_ids is None:
            raise ValueError("history-filtered ranking needs the integer query ids")
        targets = np.asarray(targets, dtype=np.int64)
        rows_total = len(targets)
        if inverse is None:
            inverse = np.arange(rows_total, dtype=np.int64)
        else:
            inverse = np.asarray(inverse, dtype=np.int64).ravel()
        query_ids = np.asarray(query_ids, dtype=np.int64)
        ranks = np.empty(rows_total, dtype=np.float64)
        snaps = queries.shape[0]
        for row in range(rows_total):
            unique_row = int(inverse[row])
            subject, relation = query_ids[unique_row]
            ids = self.index.candidates(int(subject), int(relation), self.budget)
            ids = np.union1d(ids, [int(targets[row])])  # sorted ascending
            if mask is not None:
                keep = ~mask[row, ids]
                keep[ids == targets[row]] = True
                ids = ids[keep]
            gathered = [np.asarray(candidates[t][ids]) for t in range(snaps)]
            logits = np.stack(
                [np.einsum("d,cd->c", queries[t, unique_row], gathered[t]) for t in range(snaps)]
            )
            logits -= logits.max(axis=-1, keepdims=True)
            np.exp(logits, out=logits)
            logits /= logits.sum(axis=-1, keepdims=True)
            scores = logits.sum(axis=0)[None, :]
            ranks[row] = count_ranks(scores, np.searchsorted(ids, targets[row : row + 1]))[0]
        return ranks


def get_scorer(spec) -> Optional[CandidateScorer]:
    """Parse a scorer spec string into a strategy instance.

    ``None`` (and ``"legacy"``) mean "no scorer": the model keeps its
    legacy dense matmul path, bit-for-bit.  Otherwise::

        dense                   exact reference (one block)
        blocked[:QB[:CB]]       exact streaming, QB query rows / CB candidates
        topk:K[:QB[:CB]]        exact ranks + partial top-K selection
        history:BUDGET          approximate history-filtered candidates

    A :class:`CandidateScorer` instance passes through unchanged.
    """
    if spec is None or isinstance(spec, CandidateScorer):
        return spec
    text = str(spec).strip().lower()
    if not text or text == "legacy":
        return None
    head, *params = text.split(":")
    try:
        if head == DenseScorer.name and not params:
            return DenseScorer()
        if head == BlockedScorer.name and len(params) <= 2:
            numbers = [int(p) for p in params]
            return BlockedScorer(*numbers) if numbers else BlockedScorer()
        if head == TopKScorer.name and 1 <= len(params) <= 3:
            return TopKScorer(*[int(p) for p in params])
        if head == HistoryFilteredScorer.name and len(params) == 1:
            return HistoryFilteredScorer(budget=int(params[0]))
    except ValueError as exc:
        raise ValueError(f"bad scorer spec {spec!r}: {exc}") from exc
    raise ValueError(
        f"unknown scorer spec {spec!r} (expected dense, blocked[:QB[:CB]], "
        "topk:K[:QB[:CB]], history:BUDGET, or legacy)"
    )
