"""``train-surrogate`` and ``train-paper``: ``Trainer.fit``, then the online protocol.

One repetition builds a fresh model from the seed, trains it for a
fixed epoch budget (no early stop), then runs the paper's online
evaluation protocol (``OnlineAdapter`` + ``evaluate_extrapolation``,
entity and relation tasks) over the validation and test splits.
Repetitions of one seed must end bit-identical.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict

from perfbench.common import RunResult, build_model, capped_dataset, more_setups, per, phase
from perfbench.spans import BOOKKEEPING, SpanTable
from perfbench.stats import median


@dataclass(frozen=True)
class TrainShape:
    name: str
    num_entities: int
    num_relations: int
    num_timestamps: int
    events_per_step: int
    base_pool_size: int
    num_communities: int
    facts_per_snapshot: int
    dim: int
    epochs: int
    #: online-protocol runs per repetition, each from the trained state.
    protocol_repeats: int
    history_length: int = 3
    num_kernels: int = 10


#: The ICEWS14 surrogate (N=120, M=24) at 40 facts per snapshot and the
#: bench profile's d=20, k=3: interpreter-bound, ~20 ms per step.
SURROGATE = TrainShape("surrogate", 120, 24, 48, 45, 150, 10, 40, dim=20, epochs=3, protocol_repeats=5)

#: A paper-like shape: relations scale with entities (the registry's
#: ``scale`` keeps M fixed), 400 facts per snapshot, d=64.  FLOP-bound:
#: backward and R-GCN ``typed_linear`` dominate a ~0.55 s step.  (At
#: d=100 its run-to-run spread on a shared 2-vCPU host reached 0.23.)
PAPER = TrainShape("paper", 1500, 60, 12, 400, 1320, 40, 400, dim=64, epochs=3, protocol_repeats=5)


class StepClock:
    """Per-step timestamps from ``Trainer``'s batch-start hook.

    ``Trainer`` calls ``on_batch_start`` before every batch and
    ``poison_loss`` after every forward pass; this object only reads the
    clock in the first and does nothing in the second.
    """

    def __init__(self):
        self.starts = []

    def on_batch_start(self, batch: int) -> None:
        self.starts.append(time.perf_counter())

    def poison_loss(self, loss, batch: int) -> None:
        return None


def surrogate_dataset(seed: int):
    """The ICEWS14 surrogate (N=120, M=24) at a fixed number of facts per timestamp."""
    from repro.datasets import load_dataset

    graph = load_dataset("ICEWS14", seed=seed).graph
    return capped_dataset("ICEWS14", graph, SURROGATE.facts_per_snapshot, seed)


def _dataset(shape: TrainShape, seed: int):
    from repro.datasets.registry import DATASET_PROFILES
    from repro.datasets.synthetic import SyntheticTKGConfig, generate_tkg

    if shape is SURROGATE:
        return surrogate_dataset(seed)
    profile = dict(DATASET_PROFILES["ICEWS14"])
    granularity = profile.pop("granularity")
    profile.update(
        num_entities=shape.num_entities,
        num_relations=shape.num_relations,
        num_timestamps=shape.num_timestamps,
        events_per_step=shape.events_per_step,
        base_pool_size=shape.base_pool_size,
        num_communities=shape.num_communities,
        seed=seed,
    )
    graph = generate_tkg(SyntheticTKGConfig(**profile), granularity=granularity)
    return capped_dataset("ICEWS14-PAPER", graph, shape.facts_per_snapshot, seed)


def _setup(shape: TrainShape, seed: int):
    """Data generation, model build and cache warm-up."""
    dataset = _dataset(shape, seed)
    model = build_model(dataset, shape.dim, shape.history_length, shape.num_kernels, seed)
    model.set_history(dataset.train)
    for split in (dataset.train, dataset.valid, dataset.test):
        model.snapshot_cache.warm(split.snapshots())
    return dataset, model


def _repetition(shape: TrainShape, seed: int, tracer, protocol_repeats: int) -> RunResult:
    from repro.core import Trainer, TrainerConfig
    from repro.eval import evaluate_extrapolation

    result = RunResult()
    with phase(tracer, "phase.setup"):
        start = time.perf_counter()
        dataset, model = _setup(shape, seed)
        result.setup_s.append(time.perf_counter() - start)

    clock = StepClock()
    trainer = Trainer(
        model,
        TrainerConfig(epochs=shape.epochs, patience=shape.epochs + 1, seed=seed),
        fault_injector=clock,
    )
    cache = model.snapshot_cache
    hits, misses = cache.hits, cache.misses
    start = time.perf_counter()
    log = trainer.fit(dataset.train)
    end = time.perf_counter()
    ends = clock.starts[1:] + [end]
    result.op_ms = [1000.0 * (b - a) for a, b in zip(clock.starts, ends)]
    steps = len(clock.starts)
    fit_skips = sum(entry.nonfinite_skips for entry in log)
    fit_hits, fit_misses = cache.hits - hits, cache.misses - misses

    # The protocol trains online, so each repetition restarts it from the
    # trained state: parameters, dropout generators and history.
    trained = model.state_dict(), model.rng_state()
    evaluations = []
    for index in range(protocol_repeats):
        if index:
            model.load_state_dict(trained[0])
            model.set_rng_state(trained[1])
            model.set_history(dataset.train)
        adapter = trainer.online_adapter()
        with phase(tracer, "phase.eval"):
            start_eval = time.perf_counter()
            valid = evaluate_extrapolation(adapter, dataset.valid)
            test = evaluate_extrapolation(adapter, dataset.test)
            result.job_s.append(time.perf_counter() - start_eval)
        result.attempted += adapter.observed
        result.failed += adapter.nonfinite_skips
        evaluations.append((valid.entity["MRR"], test.entity["MRR"], test.relation["MRR"], model.fingerprint()))
    result.check(
        "protocol repetitions bit-identical",
        len(set(evaluations)) == 1,
        f"{evaluations}",
    )

    result.attempted += steps
    result.failed += fit_skips
    losses = [entry.loss_joint for entry in log]
    result.check("losses finite", all(math.isfinite(x) for x in losses), f"{losses}")
    result.check("no non-finite skips", result.failed == 0, f"{result.failed} skipped")
    valid_mrr, entity_mrr, relation_mrr, fingerprint = evaluations[0]
    result.identity = {
        "fingerprint": fingerprint,
        "entity_mrr": entity_mrr,
        "relation_mrr": relation_mrr,
        "valid_entity_mrr": valid_mrr,
    }
    result.detail = {
        "steps": steps,
        "fit_s": end - start,
        "protocol_timestamps": protocol_repeats * (len(dataset.valid.timestamps) + len(dataset.test.timestamps)),
        "cache_hit_frac": per(fit_hits, fit_hits + fit_misses),
        "facts_per_snapshot": len(dataset.train) / len(dataset.train.timestamps),
    }
    return result


def run(shape: TrainShape, seed: int, seconds: float, tracer=None, single: bool = False) -> RunResult:
    """Repeat until ``seconds`` have passed (once when ``single``)."""
    deadline = time.perf_counter() + seconds
    reps = []
    while not reps or (not single and time.perf_counter() < deadline):
        reps.append(_repetition(shape, seed, tracer, 1 if single else shape.protocol_repeats))
    total = RunResult(identity=reps[0].identity, detail=reps[0].detail)
    for rep in reps:
        total.add(rep)
    others = [rep.identity for rep in reps[1:]]
    total.check("repetitions bit-identical", all(i == total.identity for i in others), f"{others}")
    while not single and more_setups(total.setup_s):
        start = time.perf_counter()
        _setup(shape, seed)
        total.setup_s.append(time.perf_counter() - start)

    step_ms = [1000.0 * rep.detail["fit_s"] / rep.detail["steps"] for rep in reps]
    total.named = {
        "train_step_ms": (median(step_ms), "ms", len(reps)),
        "eval_protocol_s": (median(total.job_s), "s", len(total.job_s)),
        "entity_mrr": (total.identity["entity_mrr"], "%", 1),
        "relation_mrr": (total.identity["relation_mrr"], "%", 1),
    }
    return total


#: Per-layer rows of a training step: layer -> span names.
STEP_LAYERS: Dict[str, tuple] = {
    "core.rgcn.fwd_ms": ("core.rgcn",),
    "autograd.backward_ms": ("autograd.backward",),
    "nn.rnn.fwd_ms": ("nn.rnn",),
    "core.decoder.fwd_ms": ("core.decoder",),
    "nn.losses.fwd_ms": ("nn.losses",),
    "core.ram.fwd_ms": ("core.ram",),
    "core.eam.fwd_ms": ("core.eam",),
    "core.tim.fwd_ms": ("core.tim",),
    "nn.optim.step_ms": ("nn.optim.step",),
    "nn.optim.clip_ms": ("nn.optim.clip",),
    "resilience.guard_ms": ("resilience.guard",),
    # Trainer.fit re-warms the (already warm) cache before its first step.
    "graph.artifacts_ms": ("graph.artifacts", "graph.cache.warm"),
    "trace.bookkeeping_ms": (BOOKKEEPING,),
}


def step_rows(table: SpanTable, tracer, result: RunResult, root: str, steps: int) -> Dict[str, float]:
    """Per-step self times under the ``root`` spans (one row per layer).

    The rows plus ``core.trainer.unattributed_ms`` (the root's own self
    time) add up to ``core.trainer.step_ms`` (the root's wall); a check
    records whether they do.
    """
    out = {name: 1000.0 * per(table.self_total(spans, root), steps) for name, spans in STEP_LAYERS.items()}
    step_ms = 1000.0 * per(table.total([root], root), steps)
    unattributed = 1000.0 * per(table.self_total([root], root), steps)
    named = {s.name for s in table.in_scope(root)}
    unknown = named - {root} - {n for spans in STEP_LAYERS.values() for n in spans}
    if unknown:
        raise RuntimeError(f"spans without a per-layer row under {root}: {sorted(unknown)}")
    rows = sum(out.values()) + unattributed
    result.check(
        "per-layer rows + unattributed == traced step wall",
        abs(rows - step_ms) <= 1e-6 * step_ms,
        f"{rows} ms vs {step_ms} ms",
    )
    backwards = table.select(["autograd.backward"], root)
    out.update(
        {
            "core.trainer.step_ms": step_ms,
            "core.trainer.unattributed_ms": unattributed,
            "core.trainer.attributed_frac": 1.0 - per(unattributed, step_ms),
            "autograd.nodes_per_step": per(sum(tracer.values[s.id] for s in backwards), len(backwards)),
        }
    )
    return out


def layers(table: SpanTable, tracer, result: RunResult) -> Dict[str, float]:
    """Per-step self times inside ``Trainer.fit`` plus the protocol's layers."""
    out = step_rows(table, tracer, result, "core.trainer.fit", result.detail["steps"])
    out["graph.cache.hit_frac"] = result.detail["cache_hit_frac"]
    timestamps = result.detail["protocol_timestamps"]
    scope = "phase.eval"
    predict = table.total(["eval.predict"], scope)
    evolve = table.total(["core.evolve_nograd"], scope)
    out.update(
        {
            "eval.predict_ms": 1000.0 * per(predict - evolve, timestamps),
            "core.evolve_nograd_ms": 1000.0 * per(evolve, timestamps),
            "eval.observe_ms": 1000.0 * per(table.total(["eval.observe"], scope), timestamps),
            "eval.rank_ms": 1000.0 * per(table.total(["eval.rank"], scope), timestamps),
        }
    )
    return out
