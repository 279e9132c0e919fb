"""Tests for deterministic parallel execution (repro.parallel).

The contract under test: **the math is defined by the plan, never by
the execution**.  Sharded evaluation and data-parallel training must be
bit-identical to their serial counterparts for every worker count; the
concurrency-hardened pieces they rest on (SnapshotCache locking,
GracefulInterrupt escalation) are covered here too.
"""

import copy
import io
import os
import pickle
import signal
import threading

import numpy as np
import pytest

from repro.core import RETIA, RETIAConfig, Trainer, TrainerConfig
from repro.datasets import SyntheticTKGConfig, generate_tkg
from repro.eval import (
    DiagnosticsAccumulators,
    FilterIndex,
    RankAccumulator,
    diagnose_extrapolation,
    evaluate_extrapolation,
    known_entities_of,
    score_timestamp,
)
from repro.graph import Snapshot, SnapshotCache, TemporalKG
from repro.obs import MetricsRegistry, RunReporter, read_events
from repro.parallel import (
    GradShardExecutor,
    ShardedEvalError,
    ShardedLoss,
    derive_rng_states,
    reseed_generators,
    shard_bounds,
    shard_sequence,
    tree_reduce,
    tree_reduce_arrays,
)
from repro.resilience import GracefulInterrupt


def small_dataset(num_timestamps=14):
    config = SyntheticTKGConfig(
        num_entities=20,
        num_relations=4,
        num_timestamps=num_timestamps,
        events_per_step=18,
        base_pool_size=40,
        seed=11,
    )
    return generate_tkg(config).split((0.6, 0.15, 0.25))


def make_model(seed=0):
    return RETIA(
        RETIAConfig(
            num_entities=20, num_relations=4, dim=8, history_length=2,
            num_kernels=4, seed=seed,
        )
    )


def revealed_model(train, valid, seed=0):
    model = make_model(seed)
    model.set_history(train)
    for ts in valid.timestamps:
        model.record_snapshot(valid.snapshot(int(ts)))
    model.eval()
    return model


@pytest.fixture(scope="module")
def splits():
    return small_dataset()


def scored_in_order(model, graph, dedup):
    """The protocol written out: score each timestamp, then reveal it."""
    scored = []
    for ts in graph.timestamps:
        snapshot = graph.snapshot(int(ts))
        entry = score_timestamp(model, snapshot, graph.num_relations, dedup=dedup)
        if entry is not None:
            scored.append(entry)
            model.observe(snapshot)
    return scored


# ----------------------------------------------------------------------
# Plan primitives
# ----------------------------------------------------------------------
class TestShardBounds:
    def test_matches_array_split_convention(self):
        for n_items in (0, 1, 7, 16, 23):
            for n_shards in (1, 2, 3, 5, 8):
                items = np.arange(n_items)
                expected = [list(part) for part in np.array_split(items, n_shards)]
                got = [list(items[a:b]) for a, b in shard_bounds(n_items, n_shards)]
                assert got == expected

    def test_empty_shards_keep_stable_indices(self):
        bounds = shard_bounds(2, 4)
        assert len(bounds) == 4
        assert bounds[2] == bounds[3] == (2, 2)

    def test_bounds_are_contiguous_and_cover(self):
        bounds = shard_bounds(17, 5)
        assert bounds[0][0] == 0 and bounds[-1][1] == 17
        for (_, stop), (start, _) in zip(bounds, bounds[1:]):
            assert stop == start

    def test_validation(self):
        with pytest.raises(ValueError):
            shard_bounds(3, 0)
        with pytest.raises(ValueError):
            shard_bounds(-1, 2)

    def test_shard_sequence_preserves_order(self):
        blocks = shard_sequence(list("abcdefg"), 3)
        assert blocks == [["a", "b", "c"], ["d", "e"], ["f", "g"]]
        assert [x for block in blocks for x in block] == list("abcdefg")


class TestTreeReduce:
    def test_bracketing_is_the_documented_tree(self):
        combine = lambda a, b: f"({a}+{b})"  # noqa: E731
        assert tree_reduce(list("01234567"), combine) == (
            "(((0+1)+(2+3))+((4+5)+(6+7)))"
        )
        # Odd tail is carried up a level, not folded early.
        assert tree_reduce(list("01234"), combine) == "(((0+1)+(2+3))+4)"
        assert tree_reduce(["x"], combine) == "x"

    def test_depends_only_on_length_not_values(self):
        values = [0.1, 0.2, 0.7, 1e-9, 3e7]
        twice = [tree_reduce(values, lambda a, b: a + b) for _ in range(2)]
        assert twice[0] == twice[1]

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            tree_reduce([], lambda a, b: a + b)

    def test_array_reduction_treats_none_as_exact_zero(self):
        a = np.array([1.0, 2.0])
        b = np.array([0.25, -1.0])
        out = tree_reduce_arrays([None, a, None, b])
        np.testing.assert_array_equal(out, a + b)
        assert tree_reduce_arrays([None, None]) is None

    def test_single_operand_passes_through_unscaled(self):
        a = np.array([3.0])
        assert tree_reduce_arrays([a]) is a


class TestRngDerivation:
    def test_derivation_is_stateless_and_repeatable(self):
        first = derive_rng_states(7, 3, 1, 2)
        second = derive_rng_states(7, 3, 1, 2)
        assert first == second

    def test_streams_differ_across_every_coordinate(self):
        base = derive_rng_states(7, 3, 1, 1)[0]
        assert derive_rng_states(8, 3, 1, 1)[0] != base
        assert derive_rng_states(7, 4, 1, 1)[0] != base
        assert derive_rng_states(7, 3, 2, 1)[0] != base
        states = derive_rng_states(7, 3, 1, 2)
        assert states[0] != states[1]

    def test_reseed_pins_generators_to_derived_streams(self):
        generators = [np.random.default_rng(999), np.random.default_rng(1000)]
        reseed_generators(generators, base_seed=5, global_batch=2, shard_index=0)
        draws = [g.random(4) for g in generators]
        fresh = [
            np.random.Generator(np.random.PCG64()) for _ in generators
        ]
        for g, state in zip(
            fresh, derive_rng_states(5, 2, 0, len(fresh))
        ):
            g.bit_generator.state = state
        for got, expected in zip(draws, fresh):
            np.testing.assert_array_equal(got, expected.random(4))


# ----------------------------------------------------------------------
# Sharded evaluation
# ----------------------------------------------------------------------
class TestShardedEvaluation:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_summary_bit_identical_to_serial(self, splits, workers):
        train, valid, test = splits
        entity, relation = RankAccumulator(), RankAccumulator()
        for entry in scored_in_order(revealed_model(train, valid), test, dedup=True):
            entity.update(entry.entity_ranks)
            relation.update(entry.relation_ranks)
        sharded = evaluate_extrapolation(
            revealed_model(train, valid), test, workers=workers
        )
        # Exact ==, no tolerance: every worker count must rank each
        # timestamp and fold the ranks exactly as the written-out loop.
        assert sharded.entity == entity.summary()
        assert sharded.relation == relation.summary()

    @pytest.mark.parametrize("workers", [1, 3])
    def test_diagnostics_bit_identical_to_serial(self, splits, workers):
        train, valid, test = splits
        known = known_entities_of(train, valid)
        serial = DiagnosticsAccumulators(known, test.num_entities)
        for entry in scored_in_order(revealed_model(train, valid), test, dedup=False):
            serial.update(entry)
        sharded = diagnose_extrapolation(
            revealed_model(train, valid), test, known_entities=known, workers=workers
        )
        assert sharded.to_dict() == serial.report("raw", True).to_dict()

    def test_caller_model_ends_with_test_horizon_revealed(self, splits):
        train, valid, test = splits
        serial_model = revealed_model(train, valid)
        evaluate_extrapolation(serial_model, test)
        sharded_model = revealed_model(train, valid)
        evaluate_extrapolation(sharded_model, test, workers=2)
        last = int(test.timestamps[-1]) + 1
        assert len(sharded_model.history_before(last)) == len(
            serial_model.history_before(last)
        )

    def test_refuses_sequential_only_models_at_workers_above_one(self):
        class OnlineOnly:
            def observe(self, snapshot):
                pass

        with pytest.raises(ShardedEvalError, match="inherently sequential"):
            evaluate_extrapolation(
                OnlineOnly(), None, workers=2, observe=True
            )

    def test_workers_one_admits_sequential_only_models(self, splits):
        # At workers=1 the driver must replay the *sequential* reveal
        # schedule, so a model exposing only ``observe`` (the
        # OnlineAdapter shape — no record_snapshot / history_before)
        # evaluates fine and matches the record-only RETIA it wraps.
        train, valid, test = splits

        class SequentialOnly:
            def __init__(self, inner):
                self._inner = inner

            def observe(self, snapshot):
                self._inner.observe(snapshot)

            def predict_entities(self, queries, ts):
                return self._inner.predict_entities(queries, ts)

            def predict_relations(self, pairs, ts):
                return self._inner.predict_relations(pairs, ts)

        serial = evaluate_extrapolation(revealed_model(train, valid), test)
        sharded = evaluate_extrapolation(
            SequentialOnly(revealed_model(train, valid)), test, workers=1
        )
        assert sharded.entity == serial.entity
        assert sharded.relation == serial.relation

    def test_refuses_invalid_worker_count(self, splits):
        train, valid, test = splits
        with pytest.raises(ShardedEvalError):
            evaluate_extrapolation(
                revealed_model(train, valid), test, workers=0
            )

    def test_filtered_setting_requires_index(self, splits):
        train, valid, test = splits
        with pytest.raises(ShardedEvalError, match="FilterIndex"):
            evaluate_extrapolation(
                revealed_model(train, valid), test, setting="static", workers=2
            )

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("driver", [evaluate_extrapolation, diagnose_extrapolation])
    def test_unknown_setting_refused_before_scoring(
        self, splits, monkeypatch, driver, workers
    ):
        train, valid, test = splits
        monkeypatch.setattr(
            "repro.parallel.eval.score_timestamp", TestShardedEvaluation.refuse_scoring
        )
        index = FilterIndex(test)
        empty = TemporalKG(np.zeros((0, 4), dtype=np.int64), test.num_entities, test.num_relations)
        for graph in (test, empty):
            with pytest.raises(ValueError) as excinfo:
                driver(
                    revealed_model(train, valid),
                    graph,
                    setting="filtered",
                    filter_index=index,
                    workers=workers,
                )
            # A plain ValueError from the coordinator, not a wrapped
            # pool-worker failure.
            assert type(excinfo.value) is ValueError
            for setting in ("'raw'", "'static'", "'time'"):
                assert setting in str(excinfo.value)

    @staticmethod
    def refuse_scoring(*args, **kwargs):
        raise AssertionError("scoring started before the setting was checked")

    def test_worker_telemetry_reaches_reporter_and_registry(self, splits):
        train, valid, test = splits
        buf = io.StringIO()
        registry = MetricsRegistry()
        with RunReporter(buf) as reporter:
            evaluate_extrapolation(
                revealed_model(train, valid),
                test,
                workers=2,
                reporter=reporter,
                registry=registry,
            )
        events = [
            e for e in read_events(buf.getvalue().splitlines()) if e["event"] == "worker"
        ]
        assert {e["worker"] for e in events} == {0, 1}
        assert all(e["scope"] == "eval" for e in events)
        total_shards = sum(e["shards"] for e in events)
        assert total_shards == registry.get("parallel_worker_shards_total").value(
            scope="eval", worker="0"
        ) + registry.get("parallel_worker_shards_total").value(scope="eval", worker="1")


# ----------------------------------------------------------------------
# Data-parallel training
# ----------------------------------------------------------------------
class TestGradShardExecutor:
    def _master(self, splits):
        train, valid, _ = splits
        model = make_model()
        model.set_history(train)
        return model, train

    def test_losses_and_grads_invariant_to_worker_count(self, splits):
        model, train = self._master(splits)
        snapshot = train.snapshot(int(train.timestamps[-1]))
        reference = None
        for workers in (1, 2, 3):
            executor = GradShardExecutor(model, grad_shards=3, workers=workers)
            joint, entity, relation = executor.compute(snapshot, global_batch=4)
            grads = [
                None if p.grad is None else p.grad.copy() for p in model.parameters()
            ]
            payload = (joint.item(), entity.item(), relation.item())
            if reference is None:
                reference = (payload, grads)
                continue
            assert payload == reference[0]
            for got, expected in zip(grads, reference[1]):
                if expected is None:
                    assert got is None
                else:
                    np.testing.assert_array_equal(got, expected)

    def test_compute_is_repeatable_at_fixed_global_batch(self, splits):
        model, train = self._master(splits)
        snapshot = train.snapshot(int(train.timestamps[0]))
        executor = GradShardExecutor(model, grad_shards=2, workers=2)
        first = executor.compute(snapshot, global_batch=7)[0].item()
        second = executor.compute(snapshot, global_batch=7)[0].item()
        assert first == second
        # A different global batch derives different dropout streams.
        other = executor.compute(snapshot, global_batch=8)[0].item()
        assert other != first

    def test_trainer_fingerprint_invariant_to_worker_count(self, splits):
        train, valid, _ = splits
        outcomes = []
        for workers in (1, 2, 4):
            model = make_model()
            trainer = Trainer(
                model,
                TrainerConfig(
                    epochs=1, patience=5, seed=0, grad_shards=4, train_workers=workers
                ),
            )
            log = trainer.fit(train, valid)
            outcomes.append(
                (model.fingerprint(), [(e.loss_joint, e.loss_entity, e.loss_relation) for e in log])
            )
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_telemetry_covers_all_shards_and_drains(self, splits):
        model, train = self._master(splits)
        snapshot = train.snapshot(int(train.timestamps[0]))
        executor = GradShardExecutor(model, grad_shards=4, workers=2)
        executor.compute(snapshot, global_batch=0)
        stats = executor.drain_telemetry()
        assert [s["worker"] for s in stats] == [0, 1]
        assert sum(s["shards"] for s in stats) == 4
        assert all(s["batches"] == 1 for s in stats)
        assert all(s["shards"] == 0 for s in executor.drain_telemetry())

    def test_empty_snapshot_and_bad_plan_rejected(self, splits):
        model, train = self._master(splits)
        with pytest.raises(ValueError):
            GradShardExecutor(model, grad_shards=0)
        with pytest.raises(ValueError):
            GradShardExecutor(model, grad_shards=2, workers=0)
        empty = Snapshot(np.zeros((0, 3), dtype=np.int64), 20, 4, ts=0)
        executor = GradShardExecutor(model, grad_shards=2)
        with pytest.raises(ValueError, match="non-empty"):
            executor.compute(empty, global_batch=0)

    def test_sharded_loss_quacks_enough_for_fault_injection(self):
        loss = ShardedLoss(1.5, np.dtype(np.float64))
        assert loss.item() == 1.5
        # FaultInjector.poison_loss overwrites .data in place.
        loss.data = np.asarray(np.nan, dtype=np.float64)
        assert np.isnan(loss.item())


# ----------------------------------------------------------------------
# SnapshotCache thread-safety (the concurrency bugfix sweep)
# ----------------------------------------------------------------------
def _cache_snapshot(ts, shift=0):
    triples = np.array([[0, 0, 1], [1, 1, 2], [(2 + shift) % 4, 0, 0]])
    return Snapshot(triples, num_entities=4, num_relations=2, ts=ts)


class TestSnapshotCacheConcurrency:
    def test_hammering_threads_cannot_corrupt_the_lru(self):
        cache = SnapshotCache(max_entries=8)
        errors = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(200):
                    ts = int(rng.integers(0, 12))
                    cache.artifacts(_cache_snapshot(ts, shift=ts % 2))
                    if rng.random() < 0.05:
                        cache.invalidate_time(ts)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 8
        # Counter totals are consistent under the lock (1200 lookups).
        assert cache.hits + cache.misses == 6 * 200

    def test_racing_builds_converge_on_one_entry(self):
        cache = SnapshotCache()
        results = []
        barrier = threading.Barrier(4)

        def worker():
            barrier.wait()
            results.append(cache.artifacts(_cache_snapshot(3)))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # First insert wins; every later caller gets the same object.
        assert all(r is cache.artifacts(_cache_snapshot(3)) for r in results)
        assert len(cache) == 1

    def test_deepcopy_and_pickle_recreate_the_lock(self):
        cache = SnapshotCache()
        cache.artifacts(_cache_snapshot(1))
        for clone in (copy.deepcopy(cache), pickle.loads(pickle.dumps(cache))):
            assert clone._lock is not cache._lock
            assert len(clone) == 1
            # The clone is immediately usable (lock functional).
            clone.artifacts(_cache_snapshot(2))
            assert len(clone) == 2
        assert len(cache) == 1


# ----------------------------------------------------------------------
# GracefulInterrupt escalation and thread confinement
# ----------------------------------------------------------------------
class TestGracefulInterrupt:
    def test_first_signal_sets_flag_second_escalates(self):
        with GracefulInterrupt() as guard:
            signal.raise_signal(signal.SIGINT)
            assert guard.triggered
            assert guard.signal_number == signal.SIGINT
            # Second SIGINT restores the previous (default) handlers and
            # re-raises against them: Python's default turns it into
            # KeyboardInterrupt instead of being swallowed.
            with pytest.raises(KeyboardInterrupt):
                signal.raise_signal(signal.SIGINT)

    def test_handlers_restored_on_exit(self):
        before = signal.getsignal(signal.SIGINT)
        with GracefulInterrupt():
            assert signal.getsignal(signal.SIGINT) != before
        assert signal.getsignal(signal.SIGINT) == before

    def test_context_is_not_reentrant(self):
        guard = GracefulInterrupt(enabled=False)
        with guard:
            with pytest.raises(RuntimeError, match="not re-entrant"):
                guard.__enter__()
        # After a clean exit it is usable again.
        with guard:
            pass

    def test_off_main_thread_warns_and_stays_inert(self):
        captured = {}

        def worker():
            with pytest.warns(RuntimeWarning, match="off the main thread"):
                with GracefulInterrupt() as guard:
                    captured["triggered"] = guard.triggered
            captured["ok"] = True

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert captured == {"triggered": False, "ok": True}


# ----------------------------------------------------------------------
# Worker death and worker exceptions surface as ShardedEvalError
# ----------------------------------------------------------------------
class KilledInWorker(RETIA):
    """SIGKILLs its own process the first time it scores off the parent.

    Module-level (not a closure) so the pool can ship it to workers; the
    parent pid is captured at construction, so only forked children die.
    """

    def __init__(self, config):
        super().__init__(config)
        self._parent_pid = os.getpid()

    def predict_entities(self, queries, ts):
        if os.getpid() != self._parent_pid:
            os.kill(os.getpid(), signal.SIGKILL)
        return super().predict_entities(queries, ts)


class ExplodesInWorker(RETIA):
    """Raises from ``predict_entities`` only inside a pool worker."""

    def __init__(self, config):
        super().__init__(config)
        self._parent_pid = os.getpid()

    def predict_entities(self, queries, ts):
        if os.getpid() != self._parent_pid:
            raise RuntimeError("worker exploded on purpose")
        return super().predict_entities(queries, ts)


def _revealed(klass, train, valid):
    model = klass(
        RETIAConfig(
            num_entities=20, num_relations=4, dim=8, history_length=2,
            num_kernels=4, seed=0,
        )
    )
    model.set_history(train)
    for ts in valid.timestamps:
        model.record_snapshot(valid.snapshot(int(ts)))
    model.eval()
    return model


class TestShardedEvalWorkerFailures:
    def test_killed_worker_raises_naming_shard_and_timeout(self, splits):
        # A SIGKILLed pool worker loses its task *silently* — pool.map
        # would hang forever.  The per-block timeout must convert that
        # into a ShardedEvalError naming the shard and its timestamps.
        train, valid, test = splits
        model = _revealed(KilledInWorker, train, valid)
        with pytest.raises(ShardedEvalError, match="produced no result within") as e:
            evaluate_extrapolation(
                model, test, workers=2, shard_timeout=2.0
            )
        message = str(e.value)
        assert "shard block" in message
        assert "timestamps" in message
        assert "workers=1" in message  # the remediation hint

    def test_worker_exception_wrapped_with_shard_context(self, splits):
        train, valid, test = splits
        model = _revealed(ExplodesInWorker, train, valid)
        with pytest.raises(
            ShardedEvalError, match="worker exploded on purpose"
        ) as e:
            evaluate_extrapolation(model, test, workers=2)
        assert "failed in a pool worker: RuntimeError" in str(e.value)
