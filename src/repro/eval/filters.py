"""Candidate filters for the static and time-aware filtered settings.

The paper reports the raw setting, arguing both filtered settings handle
one-to-many facts crudely; we implement them anyway so downstream users
can compare all three (and so the ablation of the claim is testable).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Set, Tuple

import numpy as np

from repro.graph import TemporalKG

#: The evaluation settings: raw ranking (the paper's) and the two filters.
SETTINGS = ("raw", "static", "time")


class FilterIndex:
    """Known-true-fact index used to build filter masks.

    * **static**: every ``(s, r, o)`` true at *any* timestamp is excluded
      when ranking candidates for ``(s, r, ?)``.
    * **time-aware**: only facts true at the *query* timestamp are
      excluded.
    """

    def __init__(self, graph: TemporalKG):
        self.num_entities = graph.num_entities
        self._static: Dict[Tuple[int, int], Set[int]] = defaultdict(set)
        self._temporal: Dict[Tuple[int, int, int], Set[int]] = defaultdict(set)
        for s, r, o, t in graph.facts:
            self._static[(int(s), int(r))].add(int(o))
            self._temporal[(int(s), int(r), int(t))].add(int(o))
            # Inverse direction for subject queries (o, r + M, ?).
            inv = int(r) + graph.num_relations
            self._static[(int(o), inv)].add(int(s))
            self._temporal[(int(o), inv, int(t))].add(int(s))

    def mask(self, queries: np.ndarray, ts: int, setting: str) -> np.ndarray | None:
        """Boolean ``(B, N)`` exclusion mask for entity queries ``(s, r)``.

        Returns ``None`` for the raw setting (nothing excluded).
        """
        if setting == "raw":
            return None
        if setting not in SETTINGS:
            raise ValueError(f"unknown filter setting {setting!r}")
        queries = np.asarray(queries, dtype=np.int64)
        mask = np.zeros((len(queries), self.num_entities), dtype=bool)
        for i, (s, r) in enumerate(queries):
            if setting == "static":
                known = self._static.get((int(s), int(r)), ())
            else:
                known = self._temporal.get((int(s), int(r), int(ts)), ())
            for o in known:
                mask[i, o] = True
        return mask
