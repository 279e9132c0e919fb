"""Open-loop client: requests are sent on a seeded schedule, not on replies.

Each latency is timed from the moment its request was *due*, so a stall
that delays later sends is charged to the requests it delayed, and the
generator's own lateness (due to actually sent) is reported beside it.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

#: HTTP-style statuses that count as failed operations.
FAILED_STATUSES = (408, 500, 503)


@dataclass(frozen=True)
class Request:
    due: float  # seconds after the phase starts
    kind: str  # "score" | "topk" | "ingest"
    payload: object  # query rows, (subject, relation), or a snapshot index


@dataclass
class Outcome:
    request: Request
    sent: float  # seconds after the phase starts
    done: float
    status: int
    version: Optional[int] = None
    staleness: int = 0
    queued_ms: float = 0.0
    batch: int = 0
    scores: Optional[np.ndarray] = None
    error: Optional[str] = None

    @property
    def latency_ms(self) -> float:
        return 1000.0 * (self.done - self.request.due)

    @property
    def late_ms(self) -> float:
        return 1000.0 * (self.sent - self.request.due)

    @property
    def failed(self) -> bool:
        return self.status in FAILED_STATUSES


def read_schedule(
    rng: np.random.Generator,
    rate: float,
    seconds: float,
    num_entities: int,
    num_relations: int,
    topk_every: int = 3,
    rows: int = 4,
) -> List[Request]:
    """Poisson arrivals at ``rate``/s over ``seconds``: ``score`` and ``topk`` reads."""
    requests = []
    due = float(rng.exponential(1.0 / rate))
    while due < seconds:
        index = len(requests)
        if index % topk_every == topk_every - 1:
            subject = int(rng.integers(num_entities))
            relation = int(rng.integers(2 * num_relations))
            requests.append(Request(due, "topk", (subject, relation)))
        else:
            queries = np.stack(
                [rng.integers(num_entities, size=rows), rng.integers(2 * num_relations, size=rows)],
                axis=1,
            )
            requests.append(Request(due, "score", queries))
        due += float(rng.exponential(1.0 / rate))
    return requests


def with_ingests(reads: Sequence[Request], count: int, seconds: float) -> List[Request]:
    """``reads`` plus ``count`` evenly spaced ingests of snapshots ``0..count-1``."""
    ingests = [Request(seconds * (i + 1) / (count + 1), "ingest", i) for i in range(count)]
    return sorted([*reads, *ingests], key=lambda r: r.due)


def run_open_loop(
    server,
    schedule: Sequence[Request],
    snapshots: Sequence = (),
    threads: int = 1,
    keep_scores: Callable[[int], bool] = lambda index: False,
) -> List[Outcome]:
    """Send ``schedule`` to ``server`` from ``threads`` client threads.

    ``server`` answers ``score(queries)``, ``topk(subject, relation, k)``
    and ``ingest(snapshot)`` with objects carrying ``status``,
    ``snapshot_version``, ``staleness``, ``queued_ms``, ``batch`` and
    ``scores``; reads keep the server's default deadline.  Returns one
    outcome per request, in schedule order.
    """
    clock = time.perf_counter
    start = clock()

    def fire(index: int, request: Request, sent: float) -> Outcome:
        try:
            if request.kind == "ingest":
                response = server.ingest(snapshots[request.payload])
            elif request.kind == "topk":
                subject, relation = request.payload
                response = server.topk(subject, relation, k=10)
            else:
                response = server.score(request.payload)
        except Exception as exc:  # noqa: BLE001 - a crashed call is a failed request
            return Outcome(request, sent, clock() - start, 500, error=f"{type(exc).__name__}: {exc}")
        done = clock() - start
        keep = request.kind == "score" and response.status == 200 and keep_scores(index)
        return Outcome(
            request,
            sent,
            done,
            response.status,
            version=response.snapshot_version,
            staleness=response.staleness,
            queued_ms=response.queued_ms,
            batch=response.batch,
            scores=response.scores if keep else None,
            error=response.error,
        )

    futures = []
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for index, request in enumerate(schedule):
            delay = start + request.due - clock()
            if delay > 0:
                time.sleep(delay)
            futures.append(pool.submit(fire, index, request, clock() - start))
        return [future.result() for future in futures]
