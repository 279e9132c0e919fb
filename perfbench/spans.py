"""Spans recorded around the program's public entry points.

A traced run swaps each target in :data:`TARGETS` for a timing wrapper
and puts the original object back when it ends, so an untraced run
executes the program's own functions with nothing in between.  Spans
stay in memory (name, start, end, parent) and are analysed afterwards:
a span's *self time* is its duration minus the part of it that its
child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

#: Telemetry key under which a sharded-eval worker ships its spans home.
WORKER_SPANS_KEY = "perfbench_spans"


class Span(NamedTuple):
    id: int
    parent: int  # 0 = root
    name: str
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Thread-aware in-memory span recorder.

    Each thread keeps its own stack of open spans, so a span's parent is
    the innermost span open *on the same thread* when it started.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        #: a number recorded against a span id (graph nodes per backward).
        self.values: Dict[int, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = self.clock()
        try:
            yield span_id
        finally:
            end = self.clock()
            stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end))

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        wrapper.__perfbench__ = True
        return wrapper

    def reset(self) -> None:
        """Forget spans and open-span state (a forked worker's fresh start)."""
        self.spans = []
        self._local = threading.local()

    def absorb(self, spans: Iterable[Sequence], parent: int) -> None:
        """Add spans recorded elsewhere, re-numbered, roots under ``parent``."""
        spans = [Span(*s) for s in spans]
        mapping = {s.id: next(self._ids) for s in spans}
        for s in spans:
            self.spans.append(
                Span(mapping[s.id], mapping.get(s.parent, parent), s.name, s.start, s.end)
            )


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def covered_seconds(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, lo), min(end, hi)) for lo, hi in intervals if hi > start and lo < end
    )
    covered = 0.0
    run_lo = run_hi = None
    for lo, hi in clipped:
        if run_hi is None or lo > run_hi:
            if run_hi is not None:
                covered += run_hi - run_lo
            run_lo, run_hi = lo, hi
        else:
            run_hi = max(run_hi, hi)
    if run_hi is not None:
        covered += run_hi - run_lo
    return covered


class SpanTable:
    """Self times, roots and per-name sums over one run's spans."""

    def __init__(self, spans: Sequence[Span]):
        self.spans = list(spans)
        by_id = {s.id: s for s in self.spans}
        children: Dict[int, List[Span]] = defaultdict(list)
        for s in self.spans:
            children[s.parent].append(s)
        self.self_seconds = {
            s.id: s.seconds
            - covered_seconds(s.start, s.end, ((c.start, c.end) for c in children[s.id]))
            for s in self.spans
        }
        self.root: Dict[int, Span] = {}
        for s in self.spans:
            node = s
            while node.parent in by_id:
                node = by_id[node.parent]
            self.root[s.id] = node

    def select(
        self,
        names: Iterable[str],
        scope: Optional[str] = None,
        window: Optional[Tuple[float, float]] = None,
    ) -> List[Span]:
        """Spans called one of ``names``.

        ``scope`` keeps spans under a root of that name (same thread);
        ``window`` keeps spans that start inside ``(start, end)``, which
        also catches spans recorded on other threads.
        """
        names = set(names)
        return [
            s
            for s in self.spans
            if s.name in names
            and (scope is None or self.root[s.id].name == scope)
            and (window is None or window[0] <= s.start <= window[1])
        ]

    def window(self, name: str) -> Tuple[float, float]:
        """Start and end of the (single) span called ``name``."""
        (span,) = [s for s in self.spans if s.name == name]
        return span.start, span.end

    def in_scope(self, scope: str) -> List[Span]:
        return [s for s in self.spans if self.root[s.id].name == scope]

    def self_total(self, names: Iterable[str], scope=None, window=None) -> float:
        return sum(self.self_seconds[s.id] for s in self.select(names, scope, window))

    def total(self, names: Iterable[str], scope=None, window=None) -> float:
        return sum(s.seconds for s in self.select(names, scope, window))

    def count(self, names: Iterable[str], scope=None, window=None) -> int:
        return len(self.select(names, scope, window))


# ----------------------------------------------------------------------
# Wrapper installation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``module[.owner].attr``, recorded as ``name``."""

    name: str
    module: str
    owner: Optional[str]
    attr: str
    kind: str = "span"


#: Spans are named after the target's layer; several targets may share
#: one.  Module-level names are wrapped where their caller looks them up
#: (``clip_grad_norm`` in the sentinel, ``capture``/``score_entities`` in
#: the server, ``ranks_from_scores`` in the protocol).  The two
#: ``repro.parallel.eval`` helpers are private: their return shapes,
#: ``(index, scored, telemetry)`` and ``(scored, telemetry)``, are read
#: here to carry worker spans home with the shard telemetry.
TARGETS: Tuple[Target, ...] = (
    Target("datasets.generate", "repro.datasets.registry", None, "generate_tkg"),
    Target("datasets.generate", "repro.datasets.synthetic", None, "generate_tkg"),
    Target("graph.cache.warm", "repro.graph.cache", "SnapshotCache", "warm"),
    Target("graph.artifacts", "repro.graph.cache", "SnapshotCache", "artifacts"),
    Target("core.trainer.fit", "repro.core.trainer", "Trainer", "fit"),
    Target("core.rgcn", "repro.core.rgcn", "RGCNStack", "forward"),
    Target("core.ram", "repro.core.ram", "RelationAggregationModule", "forward"),
    Target("core.eam", "repro.core.eam", "EntityAggregationModule", "forward"),
    Target("core.tim", "repro.core.tim", "TwinInteractModule", "relation_mean"),
    Target("core.tim", "repro.core.tim", "TwinInteractModule", "hyper_mean"),
    Target("nn.rnn", "repro.nn.rnn", "GRUCell", "forward"),
    Target("nn.rnn", "repro.nn.rnn", "LSTMCell", "forward"),
    Target("core.decoder", "repro.core.decoder", "ConvTransE", "probabilities"),
    Target("core.decoder", "repro.core.decoder", "ConvTransE", "probabilities_multi"),
    Target("core.decoder", "repro.core.decoder", "ConvTransE", "queries_stacked"),
    Target("nn.losses", "repro.nn.losses", None, "nll_of_summed_probs"),
    Target("autograd.backward", "repro.autograd.tensor", "Tensor", "backward", "backward"),
    Target("nn.optim.step", "repro.nn.optim", "Adam", "step"),
    Target("nn.optim.clip", "repro.resilience.sentinel", None, "clip_grad_norm"),
    Target("resilience.guard", "repro.resilience.sentinel", "NonFiniteGuard", "guarded_step"),
    Target("core.evolve_nograd", "repro.core.model", "RETIA", "evolve"),
    Target("eval.predict", "repro.core.trainer", "OnlineAdapter", "predict_entities"),
    Target("eval.predict", "repro.core.trainer", "OnlineAdapter", "predict_relations"),
    Target("eval.observe", "repro.core.trainer", "OnlineAdapter", "observe"),
    Target("eval.rank", "repro.eval.protocol", None, "ranks_from_scores"),
    Target("serve.decode", "repro.serve.server", None, "score_entities"),
    Target("serve.capture", "repro.serve.server", None, "capture"),
    Target("scale.freeze", "repro.scale.frozen", "FrozenWindowModel", "freeze"),
    Target("scale.ranks", "repro.scale.scorers", "CandidateScorer", "ranks"),
    Target("parallel.score_all", "repro.parallel.eval", None, "_score_all", "score_all"),
    Target("parallel.block", "repro.parallel.eval", None, "_score_block", "score_block"),
)

#: Spans that only exist to make the traced run measurable.
BOOKKEEPING = "trace.bookkeeping"


def graph_size(tensor) -> int:
    """Nodes reachable from ``tensor`` through the autograd graph."""
    seen = set()
    stack = [tensor]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return len(seen)


def _make_wrapper(tracer: Tracer, target: Target, fn: Callable) -> Callable:
    if target.kind == "span":
        return tracer.wrap(target.name, fn)
    if target.kind == "backward":

        def wrapper(tensor, *args, **kwargs):
            with tracer.span(BOOKKEEPING):
                nodes = graph_size(tensor)
            with tracer.span(target.name) as span_id:
                tracer.values[span_id] = nodes
                return fn(tensor, *args, **kwargs)

    elif target.kind == "score_block":
        # Runs inside a forked pool worker: record into the worker's own
        # copy of the tracer and return the spans with the telemetry.
        def wrapper(*args, **kwargs):
            tracer.reset()
            with tracer.span(target.name):
                index, scored, telemetry = fn(*args, **kwargs)
            telemetry[WORKER_SPANS_KEY] = [tuple(s) for s in tracer.spans]
            return index, scored, telemetry

    elif target.kind == "score_all":

        def wrapper(*args, **kwargs):
            with tracer.span(target.name) as span_id:
                scored, telemetry = fn(*args, **kwargs)
            for stats in telemetry:
                tracer.absorb(stats.pop(WORKER_SPANS_KEY, ()), parent=span_id)
            return scored, telemetry

    else:
        raise ValueError(f"unknown target kind {target.kind!r}")
    # ``wraps`` also keeps the qualified name, so the pool can still
    # pickle the ``_score_block`` wrapper by reference.
    wrapper = functools.wraps(fn)(wrapper)
    wrapper.__perfbench__ = True
    return wrapper


def _owner(target: Target):
    module = importlib.import_module(target.module)
    return module if target.owner is None else getattr(module, target.owner)


def is_wrapper(raw) -> bool:
    fn = getattr(raw, "__func__", raw)  # classmethod/staticmethod
    return bool(getattr(fn, "__perfbench__", False))


class Instrumentation:
    """Context manager: wrap every target on entry, restore them on exit."""

    def __init__(self, tracer: Tracer, targets: Sequence[Target] = TARGETS):
        self.tracer = tracer
        self.targets = tuple(targets)
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Instrumentation":
        try:
            for target in self.targets:
                owner = _owner(target)
                raw = vars(owner)[target.attr]  # KeyError: the target list is stale
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(_make_wrapper(self.tracer, target, raw.__func__))
                else:
                    wrapped = _make_wrapper(self.tracer, target, raw)
                setattr(owner, target.attr, wrapped)
                self._saved.append((owner, target.attr, raw))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def installed_wrappers(targets: Sequence[Target] = TARGETS) -> List[str]:
    """Targets that currently hold a benchmark wrapper (empty when clean)."""
    return [
        f"{t.module}.{t.owner + '.' if t.owner else ''}{t.attr}"
        for t in targets
        if is_wrapper(vars(_owner(t))[t.attr])
    ]
