"""Benchmark ledger: append-only JSONL trajectory + the one comparison.

Every :func:`repro.bench.perf.run_benchmark` measurement can land in a
durable trajectory:

* :func:`append_entry` appends one JSON object per measurement to
  ``BENCH_history.jsonl`` (append + flush, so concurrent CI jobs at
  worst interleave whole lines);
* :func:`summarize_history` / :func:`write_summary` maintain a rolling
  per-component summary (min / median / mean / last over a window, per
  dataset), the human-readable state of the trajectory;
* :func:`detect_regression` is the noise-aware ledger gate: the
  candidate (a min-of-k over fresh repeats) is compared against the
  *minimum* of the last ``window`` entries of its own series.  Min-of-k
  on both sides makes it a noise-floor-vs-noise-floor test, so
  scheduler jitter does not fail CI while a real slowdown (the
  fault-injected-sleep drill injects one) cannot hide in it;
* :func:`compare` is the single comparison both perf references — this
  ledger floor and the committed budget — go through.

Which figure a benchmark gates on, and which entry fields make a series
(``dataset`` and ``dtype`` always; ``workers``, ``scorer``, ``chaos``
where they apply), comes from the spec table in :mod:`repro.bench.perf`.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from statistics import mean, median
from typing import Dict, List, Optional

HISTORY_SCHEMA_VERSION = 1

#: Allowed slowdown of the candidate over the rolling noise floor.
DEFAULT_TOLERANCE = 1.2
#: Rolling window of history entries the gate and summary consider.
DEFAULT_WINDOW = 10

#: The full-step figure every entry carries beside its component figure.
KEY_FULL = "seconds_per_step"


class HistoryError(ValueError):
    """A malformed history file or entry."""


def _spec(name: str):
    """The benchmark spec called ``name`` (imported late: perf imports this module)."""
    from repro.bench.perf import get_benchmark

    return get_benchmark(name)


def make_entry(result: Dict, name: str = "encoder", extra: Optional[Dict] = None) -> dict:
    """One ledger record from a result of benchmark ``name``.

    Carries the gated figure, the full-step figure, and whichever of the
    spec's series and ride-along fields the result has.
    """
    spec = _spec(name)
    for required in ("dataset", spec.key, KEY_FULL):
        if required not in result:
            raise HistoryError(f"benchmark result lacks required key {required!r}")
    entry = {
        "schema_version": HISTORY_SCHEMA_VERSION,
        "name": name,
        "recorded_at": time.time(),
        "steps": int(result.get("steps", 0)),
    }
    entry.update({f: result[f] for f in (*spec.series, *spec.extras) if f in result})
    entry[spec.key] = float(result[spec.key])
    entry[KEY_FULL] = float(result[KEY_FULL])
    if extra:
        entry.update(extra)
    return entry


def append_entry(path: str, entry: dict) -> dict:
    """Append one entry as a JSONL line; returns the entry."""
    line = json.dumps(entry, sort_keys=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    return entry


def read_history(path: str) -> List[dict]:
    """Parse a history file (missing file = empty history)."""
    if not os.path.exists(path):
        return []
    entries: List[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise HistoryError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
            if not isinstance(record, dict):
                raise HistoryError(f"{path}:{lineno}: entry must be an object")
            entries.append(record)
    return entries


def _relevant(entries: List[dict], name: str, key: str, series: Dict) -> List[dict]:
    return [
        e
        for e in entries
        if e.get("name") == name
        and key in e
        and all(e.get(field) == value for field, value in series.items())
    ]


@dataclass(frozen=True)
class RegressionVerdict:
    """Outcome of one gate comparison."""

    regressed: bool
    reason: str
    candidate: float
    baseline: Optional[float]
    ratio: Optional[float]
    window_used: int

    def __str__(self) -> str:
        return ("REGRESSION: " if self.regressed else "ok: ") + self.reason


def compare(
    key: str,
    candidate: float,
    reference: float,
    tolerance: float,
    against: str,
    window_used: int = 0,
) -> RegressionVerdict:
    """The candidate regresses when it exceeds ``reference * tolerance``."""
    if tolerance <= 1.0:
        raise HistoryError("tolerance must be > 1.0 (an allowed slowdown factor)")
    ratio = candidate / reference if reference > 0 else float("inf")
    return RegressionVerdict(
        regressed=candidate > reference * tolerance,
        reason=(
            f"{key} {candidate:.4g} vs {against} {reference:.4g} "
            f"(x{ratio:.2f}, tolerance x{tolerance:g})"
        ),
        candidate=candidate,
        baseline=reference,
        ratio=ratio,
        window_used=window_used,
    )


def detect_regression(
    entries: List[dict],
    candidate: float,
    name: str = "encoder",
    key: Optional[str] = None,
    window: int = DEFAULT_WINDOW,
    tolerance: float = DEFAULT_TOLERANCE,
    **series,
) -> RegressionVerdict:
    """Noise-aware min-of-k gate: candidate vs its series' rolling floor.

    ``candidate`` should itself be the min over the fresh run's repeats.
    ``key`` defaults to the figure benchmark ``name`` gates on, and
    ``series`` (``dataset=...``, ``dtype=...``, ...) restricts the
    comparison to entries of the same series.  With no such entry the
    gate passes: there is nothing sound to compare against, and the
    first run seeds the history instead of failing it.
    """
    key = key or _spec(name).key
    if tolerance <= 1.0:
        raise HistoryError("tolerance must be > 1.0 (an allowed slowdown factor)")
    tail = _relevant(entries, name, key, series)[-window:]
    if not tail:
        return RegressionVerdict(
            regressed=False,
            reason=f"no {name} history for series {series}; this run seeds it",
            candidate=candidate,
            baseline=None,
            ratio=None,
            window_used=0,
        )
    floor = min(e[key] for e in tail)
    return compare(key, candidate, floor, tolerance, f"min-of-{len(tail)} ledger floor", len(tail))


def summarize_history(
    entries: List[dict], name: str = "encoder", window: int = DEFAULT_WINDOW
) -> dict:
    """Rolling per-dataset summary of one component's entries."""
    key = _spec(name).key
    datasets: Dict[str, dict] = {}
    relevant_all = _relevant(entries, name, key, {})
    for dataset in sorted({e.get("dataset") for e in relevant_all}):
        relevant = _relevant(entries, name, key, {"dataset": dataset})
        tail = relevant[-window:]
        component = [e[key] for e in tail]
        full = [e[KEY_FULL] for e in tail if KEY_FULL in e]
        datasets[dataset] = {
            "entries": len(relevant),
            "window_entries": len(tail),
            key: {
                "min": min(component),
                "median": median(component),
                "mean": mean(component),
                "last": component[-1],
            },
            KEY_FULL: {
                "min": min(full),
                "median": median(full),
                "mean": mean(full),
                "last": full[-1],
            }
            if full
            else {},
        }
    return {
        "schema_version": HISTORY_SCHEMA_VERSION,
        "name": name,
        "window": window,
        "datasets": datasets,
    }


def write_summary(
    path: str, entries: List[dict], name: str = "encoder", window: int = DEFAULT_WINDOW
) -> dict:
    """Write the rolling summary JSON; returns the summary dict."""
    summary = summarize_history(entries, name=name, window=window)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary
