"""Pieces shared by the workloads: results, phases, processes, memory."""

from __future__ import annotations

import contextlib
import os
import resource
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

#: The checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parents[1]

#: Scratch files (memmap spills) live here, inside the checkout.
TMP_DIR = ROOT / ".perfbench_tmp"

#: Results and spans are written here once a run ends.
OUT_DIR = ROOT / ".perfbench_out"

#: Set-up runs at least ``SETUP_MIN`` times per run, and cheap set-ups
#: repeat until ``SETUP_BUDGET_S`` is spent (at most ``SETUP_MAX``
#: times); the median is reported.
SETUP_MIN = 3
SETUP_BUDGET_S = 2.0
SETUP_MAX = 15

#: The precision every workload runs at.
DTYPE = "float32"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class RunResult:
    """What one (traced or untraced) run of a workload measured."""

    setup_s: List[float] = field(default_factory=list)
    op_ms: List[float] = field(default_factory=list)
    job_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: workload-specific figures printed by name: value, unit, samples.
    named: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    #: values that must be equal between an untraced and a traced run.
    identity: Dict[str, object] = field(default_factory=dict)
    #: (check name, passed, detail).
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    #: raw inputs for the per-layer metrics of a traced run.
    detail: Dict[str, object] = field(default_factory=dict)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        """Record a check; one recorded again under its name stays failed once failed."""
        for index, (known, ok, _) in enumerate(self.checks):
            if known == name:
                if ok and not passed:
                    self.checks[index] = (name, False, detail)
                return
        self.checks.append((name, bool(passed), detail))

    def add(self, other: "RunResult") -> None:
        """Fold another repetition into this result."""
        self.setup_s += other.setup_s
        self.op_ms += other.op_ms
        self.job_s += other.job_s
        self.attempted += other.attempted
        self.failed += other.failed
        for check in other.checks:
            self.check(*check)


def more_setups(samples: List[float]) -> bool:
    """Whether to time set-up once more, given the samples so far."""
    if len(samples) < SETUP_MIN:
        return True
    return sum(samples) < SETUP_BUDGET_S and len(samples) < SETUP_MAX


def phase(tracer, name: str):
    """A benchmark-level span around one phase (a no-op when untraced)."""
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


@contextlib.contextmanager
def scratch_dir(prefix: str):
    """A fresh directory under :data:`TMP_DIR`, removed afterwards."""
    TMP_DIR.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix, dir=TMP_DIR)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_DIR.rmdir()  # only succeeds once empty


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest reaped child."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + children_kb) / 1024.0


def dir_mb(path: str) -> float:
    total = sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())
    return total / (1024.0 * 1024.0)


def per(total: float, count: int) -> float:
    """``total / count``, 0 when nothing was counted."""
    return total / count if count else 0.0


def capped_dataset(name: str, graph, facts_per_snapshot: int, seed: int):
    """``graph`` with at most ``facts_per_snapshot`` facts per timestamp.

    The generators' fact counts per timestamp vary by a quarter from
    seed to seed, and step, ingest and ranking costs follow them; a
    seeded subset of fixed size makes the volume part of the workload's
    shape while the seed still chooses which facts there are.  The
    split is by timestamp count (last tenth test, the tenth before it
    validation), so every seed has the same number of steps and shards.
    """
    import numpy as np

    from repro.datasets.registry import TKGDataset
    from repro.graph import TemporalKG

    rng = np.random.default_rng(seed)
    keep = []
    for ts in graph.timestamps:
        rows = np.flatnonzero(graph.facts[:, 3] == ts)
        if len(rows) > facts_per_snapshot:
            rows = np.sort(rng.choice(rows, facts_per_snapshot, replace=False))
        keep.append(rows)
    facts = graph.facts[np.concatenate(keep)]
    times = graph.timestamps
    tenth = max(1, int(round(0.1 * len(times))))

    def subset(selected):
        mask = np.isin(facts[:, 3], selected)
        return TemporalKG(facts[mask], graph.num_entities, graph.num_relations, graph.granularity)

    return TKGDataset(
        name,
        subset(times),
        subset(times[: -2 * tenth]),
        subset(times[-2 * tenth : -tenth]),
        subset(times[-tenth:]),
    )


def build_model(dataset, dim: int, history_length: int, num_kernels: int, seed: int):
    """An untrained RETIA for ``dataset`` at the pinned precision and kernels."""
    from repro.core import RETIA, RETIAConfig

    return RETIA(
        RETIAConfig(
            num_entities=dataset.num_entities,
            num_relations=dataset.num_relations,
            dim=dim,
            history_length=history_length,
            num_kernels=num_kernels,
            seed=seed,
            dtype=DTYPE,
            fused_cells=True,
            batched_decoder=True,
        )
    )
